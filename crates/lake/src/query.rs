//! The lake's query model and bitmap planner.
//!
//! A [`LakeQuery`] is a conjunction over the four posting dimensions:
//! within one dimension, included keys are OR'd, excluded keys are
//! subtracted; across dimensions the results are AND'd; an optional
//! record-sequence range clamps the whole thing. Evaluation walks the
//! sidecar's frame directory and does set algebra on
//! [`FrameSet`] scratch bitmaps — the trace payload is never touched.
//!
//! The planner's frame-skip rule is what makes low-selectivity queries
//! cheap: a frame whose posting section holds *none* of a dimension's
//! included keys cannot contain a match, so it is skipped from the
//! directory alone (no bitmap work, no decode). At ≤1% selectivity most
//! frames fail this test for at least one dimension.

use igm_span::RecordId;
use igm_trace::{op_class, site, Dim, FrameSet, TraceIndex, PAGE_SHIFT, PC_BUCKET_SHIFT};
use std::ops::Range;

/// One dimension's terms: `include` keys are OR'd together (empty means
/// "every record"), `exclude` keys are subtracted afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DimTerms {
    /// Keys at least one of which must match (empty = unconstrained).
    pub include: Vec<u32>,
    /// Keys none of which may match.
    pub exclude: Vec<u32>,
}

/// A conjunctive lake query over posting dimensions.
#[derive(Debug, Clone, Default)]
pub struct LakeQuery {
    dims: Vec<(Dim, DimTerms)>,
    /// Optional record-sequence window (0-based, trace-wide).
    pub seq: Option<Range<u64>>,
}

impl LakeQuery {
    /// The empty query (matches every record).
    pub fn new() -> LakeQuery {
        LakeQuery::default()
    }

    fn terms_mut(&mut self, dim: Dim) -> &mut DimTerms {
        if let Some(i) = self.dims.iter().position(|(d, _)| *d == dim) {
            return &mut self.dims[i].1;
        }
        self.dims.push((dim, DimTerms::default()));
        &mut self.dims.last_mut().unwrap().1
    }

    /// Adds an included key for `dim` (keys of one dimension OR).
    pub fn include(mut self, dim: Dim, key: u32) -> LakeQuery {
        self.terms_mut(dim).include.push(key);
        self
    }

    /// Adds an excluded key for `dim`.
    pub fn exclude(mut self, dim: Dim, key: u32) -> LakeQuery {
        self.terms_mut(dim).exclude.push(key);
        self
    }

    /// Constrains to the pc bucket containing `pc`.
    pub fn pc(self, pc: u32) -> LakeQuery {
        self.include(Dim::PcBucket, pc >> PC_BUCKET_SHIFT)
    }

    /// Constrains to the 4 KiB page containing `addr`.
    pub fn page(self, addr: u32) -> LakeQuery {
        self.include(Dim::AddrPage, addr >> PAGE_SHIFT)
    }

    /// Constrains to a record-sequence window.
    pub fn seq_range(mut self, range: Range<u64>) -> LakeQuery {
        self.seq = Some(range);
        self
    }

    /// The dimensions with terms, in insertion order.
    pub fn dims(&self) -> &[(Dim, DimTerms)] {
        &self.dims
    }

    /// Whether no constraint was given at all.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().all(|(_, t)| t.include.is_empty() && t.exclude.is_empty())
            && self.seq.is_none()
    }

    /// Parses one HTTP query parameter's worth of terms for `dim`:
    /// comma-separated keys, each optionally `!`-prefixed for NOT.
    /// Key syntax per dimension: `pc` and `page` take raw program
    /// counters / addresses (decimal or `0x` hex) and are bucketed
    /// internally; `op` and `site` take their lowercase class labels.
    pub fn parse_dim(mut self, dim: Dim, raw: &str) -> Result<LakeQuery, String> {
        for term in raw.split(',') {
            let term = term.trim();
            if term.is_empty() {
                return Err(format!("empty term in {}={raw:?}", dim.name()));
            }
            let (negate, term) = match term.strip_prefix('!') {
                Some(rest) => (true, rest),
                None => (false, term),
            };
            let key = match dim {
                Dim::PcBucket => parse_num(term)
                    .map(|pc| pc >> PC_BUCKET_SHIFT)
                    .ok_or_else(|| format!("pc term {term:?} is not a number"))?,
                Dim::AddrPage => parse_num(term)
                    .map(|a| a >> PAGE_SHIFT)
                    .ok_or_else(|| format!("page term {term:?} is not an address"))?,
                Dim::OpClass => op_class::parse(term).ok_or_else(|| {
                    format!("op term {term:?} is not one of load/store/update/compute/ctrl/annot")
                })?,
                Dim::Site => site::parse(term)
                    .ok_or_else(|| format!("site term {term:?} is not a known site kind"))?,
            };
            let t = self.terms_mut(dim);
            let list = if negate { &mut t.exclude } else { &mut t.include };
            if !list.contains(&key) {
                list.push(key);
            }
        }
        Ok(self)
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal u32.
pub fn parse_num(s: &str) -> Option<u32> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// What one query evaluation found.
#[derive(Debug, Clone, Default)]
pub struct LakeHits {
    /// Total matching records (all of them, counted even past `limit`).
    pub matched: u64,
    /// The first `limit` matching record ids, in `(trace, seq)` order.
    pub hits: Vec<RecordId>,
    /// Whether `hits` was capped below `matched`.
    pub truncated: bool,
    /// Traces the query ran over.
    pub traces: usize,
    /// Frames whose bitmaps were actually evaluated.
    pub frames_visited: usize,
    /// Frames dismissed from the posting directory alone (an included
    /// key was absent, or the seq window missed the frame).
    pub frames_skipped: usize,
}

/// Evaluates `q` over one trace's posting index. Pure sidecar algebra:
/// the trace file itself is neither opened nor decoded. Results are
/// appended to `out` (so the catalog can aggregate across traces).
pub fn execute(
    index: &TraceIndex,
    tenant: u32,
    trace: u32,
    q: &LakeQuery,
    limit: usize,
    out: &mut LakeHits,
) {
    debug_assert!(index.has_postings(), "lake traces always carry posting indexes");
    out.traces += 1;
    let mut acc = FrameSet::default();
    let mut scratch = FrameSet::default();
    let mut neg = FrameSet::default();
    'frames: for (i, e) in index.entries().iter().enumerate() {
        let frame_end = e.first_record + e.records as u64;
        if let Some(r) = &q.seq {
            if frame_end <= r.start || e.first_record >= r.end {
                out.frames_skipped += 1;
                continue;
            }
        }
        let fp = &index.frame_postings()[i];
        // Planner skip: a dimension with included keys none of which
        // appear in this frame's posting section cannot match.
        for (dim, t) in &q.dims {
            if !t.include.is_empty() && t.include.iter().all(|&k| fp.get(*dim, k).is_none()) {
                out.frames_skipped += 1;
                continue 'frames;
            }
        }
        out.frames_visited += 1;
        acc.reset(e.records);
        acc.fill();
        for (dim, t) in &q.dims {
            scratch.reset(e.records);
            if t.include.is_empty() {
                scratch.fill();
            } else {
                for &k in &t.include {
                    if let Some(p) = fp.get(*dim, k) {
                        scratch.or_posting(p);
                    }
                }
            }
            if !t.exclude.is_empty() {
                neg.reset(e.records);
                for &k in &t.exclude {
                    if let Some(p) = fp.get(*dim, k) {
                        neg.or_posting(p);
                    }
                }
                neg.not_assign();
                scratch.and_assign(&neg);
            }
            acc.and_assign(&scratch);
            if acc.is_empty() {
                break;
            }
        }
        if let Some(r) = &q.seq {
            let lo = r.start.saturating_sub(e.first_record).min(e.records as u64) as u32;
            let hi = (r.end - e.first_record).min(e.records as u64) as u32;
            acc.clamp_range(lo, hi);
        }
        // Count by popcount; walk set bits only for the hits still wanted.
        let matched = acc.count() as usize;
        let room = limit.saturating_sub(out.hits.len());
        out.matched += matched as u64;
        out.truncated |= matched > room;
        out.hits.extend(
            acc.iter().take(room).map(|v| RecordId::new(tenant, trace, e.first_record + v as u64)),
        );
    }
}

/// The scalar ground truth the bitmap planner is property-tested
/// against: whether one decoded record matches `q`. Used by the
/// full-replay filter baseline (decode everything, test every record) —
/// the lake's answer must equal that filter's, record for record.
pub fn matches_entry(q: &LakeQuery, seq: u64, entry: &igm_isa::TraceEntry) -> bool {
    if let Some(r) = &q.seq {
        if !r.contains(&seq) {
            return false;
        }
    }
    let code = entry.op.field_code();
    for (dim, t) in &q.dims {
        let mut keys: Vec<u32> = Vec::new();
        match dim {
            Dim::PcBucket => keys.push(entry.pc >> PC_BUCKET_SHIFT),
            Dim::OpClass => keys.push(op_class::of(code)),
            Dim::AddrPage => entry.op.for_each_addr(|a| keys.push(a >> PAGE_SHIFT)),
            Dim::Site => keys.extend(site::of(code)),
        }
        let included = t.include.is_empty() || keys.iter().any(|k| t.include.contains(k));
        let excluded = keys.iter().any(|k| t.exclude.contains(k));
        if !included || excluded {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_dim_handles_or_not_and_bucketing() {
        let q = LakeQuery::new()
            .parse_dim(Dim::OpClass, "load,store,!annot")
            .unwrap()
            .parse_dim(Dim::AddrPage, "0x4000,0x4fff")
            .unwrap()
            .parse_dim(Dim::PcBucket, "256")
            .unwrap();
        let dims = q.dims();
        assert_eq!(dims[0].0, Dim::OpClass);
        assert_eq!(dims[0].1.include, vec![op_class::LOAD, op_class::STORE]);
        assert_eq!(dims[0].1.exclude, vec![op_class::ANNOT]);
        // Both addresses fall in page 4 — deduplicated.
        assert_eq!(dims[1].1.include, vec![4]);
        assert_eq!(dims[2].1.include, vec![256 >> PC_BUCKET_SHIFT]);

        assert!(LakeQuery::new().parse_dim(Dim::OpClass, "loads").is_err());
        assert!(LakeQuery::new().parse_dim(Dim::Site, "frees").is_err());
        assert!(LakeQuery::new().parse_dim(Dim::PcBucket, "0xzz").is_err());
        assert!(LakeQuery::new().parse_dim(Dim::AddrPage, "a,,b").is_err());
    }

    #[test]
    fn parse_num_accepts_decimal_and_hex() {
        assert_eq!(parse_num("4096"), Some(4096));
        assert_eq!(parse_num("0x1000"), Some(0x1000));
        assert_eq!(parse_num("0XFF"), Some(255));
        assert_eq!(parse_num("nope"), None);
        assert_eq!(parse_num("0x"), None);
    }
}

//! Design-space exploration: the paper's PIN-based profiling study (§7.3).
//!
//! The paper instruments benchmark executables with PIN to obtain event
//! streams, then feeds them through *functional* models of the three
//! accelerators while sweeping design parameters. This crate does the same
//! with the synthetic workload traces and the functional models from
//! `igm-core`:
//!
//! * [`it_reduction`] — % of propagation (update) events removed by
//!   Inheritance Tracking (Figure 13(a), Figure 12 column 2);
//! * [`if_sweep`] — % of check events removed by Idempotent Filters while
//!   varying entry count and associativity, with loads+stores combined
//!   (AddrCheck-style, Figure 13(b)) or separate (LockSet-style,
//!   Figure 13(c));
//! * [`mtlb_sweep`] / [`mtlb_flexible`] — M-TLB miss rates while varying
//!   the level-1 index width and the entry count, for the fixed and the
//!   footprint-adaptive designs (Figure 14);
//! * [`lma_instr_reduction`] — % of lifeguard dynamic instructions removed
//!   by the `LMA` instruction (Figure 12 column 1), measured by running the
//!   lifeguard handlers with and without the M-TLB.

use igm_core::{
    AccelConfig, DispatchPipeline, IdempotentFilter, IfGeometry, IfOutcome, InheritanceTracker,
    ItConfig, MetadataTlb,
};
use igm_isa::TraceEntry;
use igm_lba::{chunks, extract_events, Event, EventBuf, IfEventConfig, TraceBatch};
use igm_lifeguards::{CostSink, Lifeguard, LifeguardKind};
use igm_shadow::layout::ElemSize;
use igm_shadow::{choose_level1_bits, footprint_pages, ShadowLayout, SizingPolicy, TwoLevelShadow};
use std::collections::BTreeSet;

/// Fraction of propagation events absorbed by Inheritance Tracking for a
/// trace (the Figure 13(a) metric). Only events a propagation-tracking
/// lifeguard would register (everything but the self/read-only classes)
/// count as baseline deliveries, matching Figure 4's accounting.
pub fn it_reduction(trace: impl IntoIterator<Item = TraceEntry>, cfg: ItConfig) -> f64 {
    let mut it = InheritanceTracker::new(cfg);
    let mut raw = Vec::new();
    let mut out = Vec::new();
    let mut baseline = 0u64;
    let mut delivered = 0u64;
    for entry in trace {
        raw.clear();
        extract_events(&entry, &mut raw);
        for dev in &raw {
            match dev.event {
                Event::Prop(op) => {
                    use igm_isa::OpClass::*;
                    let registered =
                        !matches!(op, RegSelf { .. } | MemSelf { .. } | ReadOnly { .. });
                    if registered {
                        baseline += 1;
                    }
                    out.clear();
                    if let Event::Annot(_) = dev.event {
                        unreachable!();
                    }
                    it.process(dev.pc, dev.event, &mut out);
                    // Everything IT emits reaches the lifeguard: transformed
                    // propagation events, conflict materializations, and
                    // (MemCheck-style) eager source checks.
                    delivered += out.len() as u64;
                }
                Event::Annot(_) => {
                    out.clear();
                    it.flush_all(dev.pc, &mut out);
                    delivered += out.len() as u64;
                }
                _ => {}
            }
        }
    }
    if baseline == 0 {
        return 0.0;
    }
    1.0 - delivered as f64 / baseline as f64
}

/// Which memory-access check categorization an [`if_sweep`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// Loads and stores are the same check (AddrCheck/MemCheck,
    /// Figure 13(b)).
    Combined,
    /// Loads and stores are distinct checks (LockSet, Figure 13(c)).
    Separate,
}

/// Fraction of memory-access check events filtered by an Idempotent Filter
/// of the given geometry, with annotations invalidating the whole filter.
pub fn if_reduction(
    trace: impl IntoIterator<Item = TraceEntry>,
    geometry: IfGeometry,
    mode: CcMode,
) -> f64 {
    let mut filter = IdempotentFilter::new(geometry);
    let (read_cfg, write_cfg) = match mode {
        CcMode::Combined => (IfEventConfig::cacheable_addr(0), IfEventConfig::cacheable_addr(0)),
        CcMode::Separate => (IfEventConfig::cacheable_addr(1), IfEventConfig::cacheable_addr(2)),
    };
    let inval = IfEventConfig::invalidates_all();
    let mut raw = Vec::new();
    let mut checks = 0u64;
    let mut filtered = 0u64;
    for entry in trace {
        raw.clear();
        extract_events(&entry, &mut raw);
        for dev in &raw {
            let cfg = match dev.event {
                Event::MemRead(_) => &read_cfg,
                Event::MemWrite(_) => &write_cfg,
                Event::Annot(_) => {
                    filter.process(dev.pc, &dev.event, &inval);
                    continue;
                }
                _ => continue,
            };
            checks += 1;
            if filter.process(dev.pc, &dev.event, cfg) == IfOutcome::Filtered {
                filtered += 1;
            }
        }
    }
    if checks == 0 {
        0.0
    } else {
        filtered as f64 / checks as f64
    }
}

/// One Figure 13(b)/(c) sweep: reduction for every (entries, ways) pair.
/// `ways = 0` means fully associative.
pub fn if_sweep<F, I>(
    mut trace: F,
    entries: &[usize],
    ways: &[usize],
    mode: CcMode,
) -> Vec<(usize, usize, f64)>
where
    F: FnMut() -> I,
    I: IntoIterator<Item = TraceEntry>,
{
    let mut out = Vec::new();
    for &e in entries {
        for &w in ways {
            if w > e {
                continue;
            }
            let geom = if w == 0 {
                IfGeometry::fully_associative(e)
            } else {
                IfGeometry::set_associative(e, w)
            };
            out.push((e, w, if_reduction(trace(), geom, mode)));
        }
    }
    out
}

/// M-TLB miss rate for a trace under a given level-1 width and capacity,
/// translating every memory access of the trace (1-1 metadata assumption of
/// Figure 14).
pub fn mtlb_miss_rate(
    trace: impl IntoIterator<Item = TraceEntry>,
    level1_bits: u8,
    entries: usize,
) -> f64 {
    let layout =
        ShadowLayout::for_coverage(level1_bits, 4, ElemSize::B4).expect("sweep layouts are valid");
    let mut tlb = MetadataTlb::new(entries);
    tlb.lma_config(layout);
    let mut shadow = TwoLevelShadow::new(layout, 0);
    for entry in trace {
        for m in [entry.mem_read(), entry.mem_write()].into_iter().flatten() {
            let _ = tlb.lma_or_fill(m.addr, || shadow.chunk_base_va(m.addr));
        }
    }
    tlb.stats().miss_rate()
}

/// The touched-page footprint of a trace (for the flexible level-1
/// sizing).
pub fn trace_footprint(trace: impl IntoIterator<Item = TraceEntry>) -> BTreeSet<u32> {
    footprint_pages(
        trace.into_iter().flat_map(|e| [e.mem_read(), e.mem_write()]).flatten().map(|m| m.addr),
    )
}

/// The flexible design point of Figure 14(b): the chosen level-1 width for
/// a trace footprint under the paper's policy, and the resulting miss rate
/// at `entries`.
pub fn mtlb_flexible(
    footprint: &BTreeSet<u32>,
    trace: impl IntoIterator<Item = TraceEntry>,
    entries: usize,
) -> (u8, f64) {
    let bits = choose_level1_bits(footprint, 8..=20, SizingPolicy::default());
    (bits, mtlb_miss_rate(trace, bits, entries))
}

/// Lifeguard dynamic-instruction reduction from the `LMA` instruction
/// (Figure 12, first column): total handler instructions with the software
/// two-level walk versus with the M-TLB, everything else identical
/// (baseline dispatch, no IT/IF).
pub fn lma_instr_reduction(
    kind: LifeguardKind,
    mut trace: impl FnMut() -> Box<dyn Iterator<Item = TraceEntry>>,
    premark: &[(u32, u32)],
) -> f64 {
    /// Compressed-record bytes per dispatch batch (≈ 1 k records).
    const BATCH_BYTES: u32 = 1_024;
    let run = |accel: AccelConfig, trace: Box<dyn Iterator<Item = TraceEntry>>| -> u64 {
        let mut lg = kind.build_any(&accel);
        lg.set_synthetic_workload_mode(true);
        for (b, l) in premark {
            lg.premark_region(*b, *l);
        }
        let masked = kind.mask_config(&accel);
        let mut pipeline = DispatchPipeline::new(lg.etct(), &masked);
        let mut cost = CostSink::new();
        let mut chunker = chunks(trace, BATCH_BYTES);
        let mut batch = TraceBatch::new();
        let mut events = EventBuf::new();
        let mut total = 0u64;
        while chunker.next_into_batch(&mut batch) {
            pipeline.dispatch_batch(&batch, &mut events);
            cost.clear();
            lg.handle_batch(events.events(), &mut cost);
            total += cost.instrs();
        }
        total
    };
    let base = run(AccelConfig::baseline(), trace());
    let lma = run(AccelConfig::lma(), trace());
    if base == 0 {
        0.0
    } else {
        1.0 - lma as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_workload::{Benchmark, MtBenchmark};

    const N: u64 = 60_000;

    #[test]
    fn it_reduction_lands_in_paper_band() {
        // Figure 13(a): 35.8%-82.0% across SPEC.
        for b in [Benchmark::Crafty, Benchmark::Gzip, Benchmark::Gcc] {
            let r = it_reduction(b.trace(N), ItConfig::taint_style());
            assert!((0.25..=0.95).contains(&r), "{b}: IT reduction {r:.2} outside plausible band");
        }
    }

    #[test]
    fn memcheck_style_filters_less_than_taint_style() {
        // Eager checks add deliveries, so MemCheck's reduction is lower
        // (Figure 12: 24.9-59.7% vs 37.4-74.4%).
        let b = Benchmark::Gcc;
        let taint = it_reduction(b.trace(N), ItConfig::taint_style());
        let mem = it_reduction(b.trace(N), ItConfig::memcheck_style());
        assert!(mem <= taint, "memcheck {mem:.2} vs taint {taint:.2}");
    }

    #[test]
    fn if_reduction_grows_with_entries() {
        let b = Benchmark::Crafty;
        let small = if_reduction(b.trace(N), IfGeometry::fully_associative(8), CcMode::Combined);
        let large = if_reduction(b.trace(N), IfGeometry::fully_associative(256), CcMode::Combined);
        assert!(large >= small, "8 entries {small:.2} vs 256 {large:.2}");
        assert!(large > 0.2, "large filter should catch reuse, got {large:.2}");
    }

    #[test]
    fn four_way_close_to_fully_associative() {
        // Paper: "a set-associative design with 4 or more ways works as
        // well as the fully-associative design".
        let b = Benchmark::Vortex;
        let fa = if_reduction(b.trace(N), IfGeometry::fully_associative(32), CcMode::Combined);
        let w4 = if_reduction(b.trace(N), IfGeometry::set_associative(32, 4), CcMode::Combined);
        assert!((fa - w4).abs() < 0.10, "fully-assoc {fa:.2} vs 4-way {w4:.2}");
    }

    #[test]
    fn separate_ccs_filter_no_more_than_combined() {
        let g = || MtBenchmark::WaterNq.trace(N);
        let combined = if_reduction(g(), IfGeometry::fully_associative(32), CcMode::Combined);
        let separate = if_reduction(g(), IfGeometry::fully_associative(32), CcMode::Separate);
        assert!(separate <= combined + 0.02);
    }

    #[test]
    fn mtlb_miss_rate_drops_with_fewer_level1_bits_and_more_entries() {
        let g = || Benchmark::Mcf.trace(N);
        let coarse16 = mtlb_miss_rate(g(), 20, 16);
        let coarse256 = mtlb_miss_rate(g(), 20, 256);
        let fine16 = mtlb_miss_rate(g(), 12, 16);
        assert!(coarse256 <= coarse16);
        assert!(fine16 <= coarse16);
        assert!(coarse16 > 0.01, "mcf at 20 bits/16 entries must thrash, got {coarse16:.4}");
    }

    #[test]
    fn flexible_sizing_nearly_eliminates_misses() {
        let b = Benchmark::Vpr;
        let fixed = mtlb_miss_rate(b.trace(N), 20, 64);
        let fp = trace_footprint(b.trace(N));
        let (bits, flexible) = mtlb_flexible(&fp, b.trace(N), 64);
        assert!(bits < 20);
        assert!(flexible <= fixed);
        assert!(flexible < 0.01, "flexible design should be negligible, got {flexible:.4}");
    }

    #[test]
    fn lma_reduction_in_paper_band() {
        // Figure 12: 16.7%-49.3% across lifeguards/benchmarks.
        let b = Benchmark::Gzip;
        let premark = b.profile().premark_regions();
        let r = lma_instr_reduction(LifeguardKind::AddrCheck, || Box::new(b.trace(N)), &premark);
        assert!((0.15..=0.60).contains(&r), "AddrCheck LMA reduction {r:.2}");
    }
}

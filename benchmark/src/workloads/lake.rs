//! `lake_capture_query`: writes beside reads on the same `trace`/`lake`
//! layer.
//!
//! Write side: `capture_to_lake` of two tenants (frames plus the inline IGMX
//! v2 index). Read side: `TraceLake::open`, seeded `LakeQuery`s at about
//! 1 / 10 / 100 % selectivity, ±8 `neighborhood`s, and `replay_window` of the
//! middle half of each trace. `records_per_s` covers capture + open + replay
//! as one round trip, so index work moved off the capture path cannot hide
//! on the read side; `op_p50_us` is the query latency.

use super::pool::default_pool;
use crate::harness::{Clock, Ctx, Tracer, Window, Workload};
use crate::host::Host;
use crate::inputs::{scaled, Program, Rng, Tenant, Trace};
use crate::reference::{self, check_session, Gate, Reference};
use crate::spans::SpanBuf;
use crate::stats;
use igm::isa::TraceEntry;
use igm::lake::query::matches_entry;
use igm::lake::{LakeQuery, TraceLake};
use igm::lifeguards::LifeguardKind;
use igm::span::{tenant_id, trace_id, RecordId};
use igm::trace::{
    capture_to_lake, lake_stem, op_class, replay_window, site, Dim, TraceIndex, TraceReader,
    TraceWriter, PAGE_SHIFT, PC_BUCKET_SHIFT,
};
use igm::workload::Benchmark;
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// Records per tenant at `--scale 1`.
const RECORDS: u64 = 500_000;
/// Hit ids materialized (and compared) per query; `matched` is always
/// compared in full.
const HIT_LIMIT: usize = 1_024;
/// Rounds over the distinct queries per window (12 × 25 = 300 queries).
const QUERY_ROUNDS: usize = 25;
const NEIGHBORHOODS: usize = 100;
const NEIGHBORHOOD_K: u64 = 8;

/// Selectivity class of a query: about 1 %, 10 % or 100 % of records.
const CLASSES: [&str; 3] = ["sel1", "sel10", "sel100"];

/// One distinct query, bound to a tenant, with its full-scan answer.
#[derive(Debug)]
struct Probe {
    class: usize,
    tenant: usize,
    query: LakeQuery,
    matched: u64,
    hits: Vec<RecordId>,
}

/// Per-window observations the per-layer metrics are computed from.
#[derive(Debug, Default)]
struct LakeObs {
    open_ms: Vec<f64>,
    capture_rates: Vec<f64>,
    replay_rates: Vec<f64>,
    query_us: [Vec<f64>; 3],
    neighborhood_us: Vec<f64>,
    frames_visited: u64,
    frames_skipped: u64,
    disk_bytes: u64,
    disk_records: u64,
}

#[derive(Debug)]
pub struct LakeCaptureQuery {
    dir: PathBuf,
    tenants: Vec<Tenant>,
    refs: Vec<Reference>,
    /// The middle half of each trace and what a fresh monitor makes of it.
    windows: Vec<(Range<u64>, Reference)>,
    entries: Vec<Vec<TraceEntry>>,
    probes: Vec<Probe>,
    /// `(tenant, seq)` neighborhood centres.
    centres: Vec<(usize, u64)>,
    obs: LakeObs,
}

impl Drop for LakeCaptureQuery {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn record_id(stem: &str, seq: u64) -> RecordId {
    RecordId::new(tenant_id(stem), trace_id(stem), seq)
}

/// The key of `dim` whose share of `entries` is nearest one percent (ties
/// to the smaller key). Picking by frequency, not at random, keeps the
/// narrow queries' selectivity — and so their cost — alike across seeds.
fn one_percent_key(entries: &[TraceEntry], dim: Dim) -> u32 {
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for e in entries {
        match dim {
            Dim::AddrPage => {
                e.op.for_each_addr(|a| *counts.entry(a >> PAGE_SHIFT).or_insert(0) += 1)
            }
            _ => *counts.entry(e.pc >> PC_BUCKET_SHIFT).or_insert(0) += 1,
        }
    }
    let target = entries.len() as u64 / 100;
    counts.into_iter().min_by_key(|(key, n)| (n.abs_diff(target), *key)).map_or(0, |(key, _)| key)
}

/// The twelve distinct queries for one seed: four per selectivity class,
/// each bound to one tenant.
fn build_queries(rng: &mut Rng, entries: &[Vec<TraceEntry>]) -> Vec<(usize, usize, LakeQuery)> {
    let mut out = Vec::new();
    for i in 0..4 {
        let tenant = i % entries.len();
        let n = entries[tenant].len() as u64;
        // ~1 %: one pc bucket, or one address page.
        let dim = if i < 2 { Dim::PcBucket } else { Dim::AddrPage };
        out.push((
            0,
            tenant,
            LakeQuery::new().include(dim, one_percent_key(&entries[tenant], dim)),
        ));
        // ~10 %: one opcode class, variously refined.
        let start = rng.below(n / 2);
        let medium = match i {
            0 => LakeQuery::new().include(Dim::OpClass, op_class::STORE),
            1 => LakeQuery::new().include(Dim::OpClass, op_class::CTRL),
            2 => LakeQuery::new()
                .include(Dim::OpClass, op_class::LOAD)
                .seq_range(start..start + n / 3),
            _ => LakeQuery::new()
                .include(Dim::OpClass, op_class::UPDATE)
                .include(Dim::OpClass, op_class::ANNOT)
                .exclude(Dim::Site, site::FREE),
        };
        out.push((1, tenant, medium));
        // ~100 %.
        let wide = match i {
            0 => LakeQuery::new(),
            1 => (0..op_class::COUNT).fold(LakeQuery::new(), |q, c| q.include(Dim::OpClass, c)),
            2 => LakeQuery::new().exclude(Dim::Site, site::FREE),
            _ => LakeQuery::new().seq_range(0..n),
        };
        out.push((2, tenant, wide));
    }
    out
}

impl LakeCaptureQuery {
    fn stem(&self, tenant: usize) -> String {
        lake_stem(&self.tenants[tenant].name)
    }

    fn run(&mut self, ctx: &Ctx, spans: &mut SpanBuf, gate: &mut Gate) -> Window {
        let mut clock = Clock::default();
        let mut records = 0u64;
        let pool = default_pool(&ctx.host);

        // Write: both tenants captured round-robin by this one thread.
        let captured = Instant::now();
        let reports = clock.time(|| {
            let mut captures = Vec::new();
            for t in &self.tenants {
                match capture_to_lake(&pool, t.session_config(), &self.dir) {
                    Ok(c) => captures.push(c),
                    Err(e) => return Err(e),
                }
            }
            let most = self.tenants.iter().map(|t| t.trace.batches.len()).max().unwrap_or(0);
            for i in 0..most {
                for (t, capture) in self.tenants.iter().zip(captures.iter_mut()) {
                    if let Some(batch) = t.trace.batches.get(i) {
                        let batch = batch.clone();
                        spans.span("trace.capture_send", || capture.send_batch(batch))?;
                    }
                }
            }
            spans.span("trace.capture_finish", || {
                captures
                    .into_iter()
                    .map(|c| c.finish().map(|(r, _)| r))
                    .collect::<Result<Vec<_>, _>>()
            })
        });
        let capture_secs = captured.elapsed().as_secs_f64();
        match &reports {
            Ok(reports) => {
                for (report, want) in reports.iter().zip(&self.refs) {
                    check_session(gate, "lake capture", report, want);
                    records += report.records;
                }
                self.obs.capture_rates.push(records as f64 / capture_secs);
            }
            Err(e) => gate.check(false, || format!("capture failed: {e}")),
        }

        // Read: open, query, inspect, replay.
        let opened = Instant::now();
        let lake = clock.time(|| spans.span("lake.open", || TraceLake::open(&self.dir)));
        self.obs.open_ms.push(opened.elapsed().as_secs_f64() * 1e3);
        let lake = match lake {
            Ok(lake) => lake,
            Err(e) => {
                gate.check(false, || format!("opening the lake: {e}"));
                pool.shutdown();
                return Window { records, clock, ops_us: Vec::new() };
            }
        };
        let total: u64 = self.refs.iter().map(|r| r.records).sum();
        gate.check(
            lake.traces().len() == self.tenants.len()
                && lake.skipped().is_empty()
                && lake.total_records() == total
                && lake.traces().iter().all(|t| !t.rebuilt),
            || {
                format!(
                    "lake catalog: {} traces, {} records, skipped {:?}",
                    lake.traces().len(),
                    lake.total_records(),
                    lake.skipped()
                )
            },
        );
        for (i, _) in self.tenants.iter().enumerate() {
            if let Some(t) = lake.by_stem(&self.stem(i)) {
                let sidecar =
                    std::fs::metadata(t.path.with_extension("igmx")).map_or(0, |m| m.len());
                self.obs.disk_bytes += t.trace_bytes + sidecar;
                self.obs.disk_records += t.index.total_records();
            }
        }

        let mut ops_us = Vec::with_capacity(QUERY_ROUNDS);
        let mut round = Vec::with_capacity(self.probes.len());
        for _ in 0..QUERY_ROUNDS {
            round.clear();
            for p in &self.probes {
                let stem = lake_stem(&self.tenants[p.tenant].name);
                let started = Instant::now();
                let hits =
                    spans.span("lake.query", || lake.query(Some(&stem), &p.query, HIT_LIMIT));
                let us = started.elapsed().as_nanos() as f64 / 1e3;
                round.push(us);
                self.obs.query_us[p.class].push(us);
                match hits {
                    Ok(h) => {
                        self.obs.frames_visited += h.frames_visited as u64;
                        self.obs.frames_skipped += h.frames_skipped as u64;
                        gate.check(h.matched == p.matched && h.hits == p.hits, || {
                            format!(
                                "query {:?} on {stem}: matched {} (full scan {}), first hits differ: {}",
                                p.query,
                                h.matched,
                                p.matched,
                                h.hits != p.hits
                            )
                        });
                    }
                    Err(e) => gate.check(false, || format!("query on {stem}: {e}")),
                }
            }
            // Unit operation: one query, pooled over the selectivities by
            // geometric mean so the 100 % class does not decide it alone.
            ops_us.push(stats::geomean(&round));
        }

        for &(tenant, seq) in &self.centres {
            let stem = self.stem(tenant);
            let started = Instant::now();
            let got = spans.span("lake.neighborhood", || {
                lake.neighborhood(record_id(&stem, seq), NEIGHBORHOOD_K)
            });
            self.obs.neighborhood_us.push(started.elapsed().as_nanos() as f64 / 1e3);
            let entries = &self.entries[tenant];
            let lo = seq.saturating_sub(NEIGHBORHOOD_K);
            let hi = (seq + NEIGHBORHOOD_K + 1).min(entries.len() as u64);
            gate.check(
                got.as_ref().is_ok_and(|g| {
                    g.len() as u64 == hi - lo
                        && g.iter()
                            .zip(lo..hi)
                            .all(|((s, e), want)| *s == want && *e == entries[want as usize])
                }),
                || format!("neighborhood of {stem}:{seq} differs from the generated records"),
            );
        }

        let replayed = Instant::now();
        let mut replay_records = 0u64;
        for (i, t) in self.tenants.iter().enumerate() {
            let (range, want) = &self.windows[i];
            let Some(artifact) = lake.by_stem(&self.stem(i)) else {
                gate.check(false, || format!("{}: not in the lake", t.name));
                continue;
            };
            let report = clock.time(|| {
                let file = File::open(&artifact.path)?;
                let mut reader = TraceReader::new(BufReader::new(file))?;
                let (cfg, range) = (t.session_config(), range.clone());
                spans.span("trace.replay_window", || {
                    replay_window(&pool, cfg, &mut reader, &artifact.index, range)
                })
            });
            match report {
                Ok(r) => {
                    check_session(gate, "lake replay_window", &r, want);
                    replay_records += r.records;
                }
                Err(e) => gate.check(false, || format!("{}: replay failed: {e}", t.name)),
            }
        }
        self.obs.replay_rates.push(replay_records as f64 / replayed.elapsed().as_secs_f64());
        records += replay_records;
        pool.shutdown();
        Window { records, clock, ops_us }
    }
}

impl Workload for LakeCaptureQuery {
    fn setup(ctx: &Ctx) -> Self {
        let n = scaled(RECORDS, ctx.scale);
        let tenants: Vec<Tenant> = [Benchmark::Gcc, Benchmark::Mcf]
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let trace = Trace::generate(Program::Spec(b), n, ctx.seed, i as u64);
                Tenant::new(&trace, LifeguardKind::AddrCheck, false)
            })
            .collect();
        let refs: Vec<Reference> = tenants.iter().map(reference::for_tenant).collect();
        let entries: Vec<Vec<TraceEntry>> = tenants
            .iter()
            .map(|t| {
                let mut entries = Vec::with_capacity(t.records() as usize);
                entries.extend(t.trace.batches.iter().flat_map(|b| b.iter()));
                entries
            })
            .collect();
        let windows = tenants
            .iter()
            .zip(&entries)
            .map(|(t, e)| {
                let range = t.records() / 4..t.records() * 3 / 4;
                let mut monitor = reference::fresh_monitor(t.kind, &t.accel, &t.trace.premark);
                monitor.observe_all(e[range.start as usize..range.end as usize].iter().copied());
                let want = Reference {
                    violations: monitor.violations().to_vec(),
                    dispatch: monitor.dispatch_stats().clone(),
                    records: range.end - range.start,
                    secs: 0.0,
                };
                (range, want)
            })
            .collect();

        // The query oracle: one `matches_entry` full scan per distinct query.
        let mut rng = Rng::new(ctx.seed ^ 0x1a4e);
        let probes = build_queries(&mut rng, &entries)
            .into_iter()
            .map(|(class, tenant, query)| {
                let stem = lake_stem(&tenants[tenant].name);
                let (mut matched, mut hits) = (0u64, Vec::new());
                for (seq, e) in entries[tenant].iter().enumerate() {
                    if matches_entry(&query, seq as u64, e) {
                        matched += 1;
                        if hits.len() < HIT_LIMIT {
                            hits.push(record_id(&stem, seq as u64));
                        }
                    }
                }
                Probe { class, tenant, query, matched, hits }
            })
            .collect();
        let centres = (0..NEIGHBORHOODS)
            .map(|i| {
                let tenant = i % tenants.len();
                (tenant, rng.below(entries[tenant].len() as u64))
            })
            .collect();
        let dir = ctx.out.join(format!("lake-{}", std::process::id()));
        LakeCaptureQuery {
            dir,
            tenants,
            refs,
            windows,
            entries,
            probes,
            centres,
            obs: LakeObs::default(),
        }
    }

    fn threads(&self, host: &Host) -> String {
        format!(
            "1 generator (capture, query, replay) + {} pool workers (closed loop)",
            host.workers
        )
    }

    fn window(&mut self, ctx: &Ctx, gate: &mut Gate) -> Window {
        self.run(ctx, &mut SpanBuf::off(), gate)
    }

    fn traced_window(&mut self, ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window {
        self.run(ctx, &mut t.spans, gate)
    }

    fn layers(
        &mut self,
        _ctx: &Ctx,
        _seconds: f64,
        _untraced: &[Window],
        t: &mut Tracer,
        gate: &mut Gate,
    ) {
        let records: u64 = self.tenants.iter().map(Tenant::records).sum();
        let gen: f64 = self.tenants.iter().map(|t| t.trace.gen_secs).sum();
        let o = &self.obs;
        let m = &mut t.metrics;
        m.set("workload.gen_records_per_s", records as f64 / gen);
        m.set("lake.open_ms", stats::median(&o.open_ms));
        for (class, name) in CLASSES.iter().enumerate() {
            m.set(&format!("lake.query_us.{name}"), stats::median(&o.query_us[class]));
        }
        m.set("lake.neighborhood_us", stats::median(&o.neighborhood_us));
        let frames = o.frames_visited + o.frames_skipped;
        m.set("lake.frames_skipped_share", o.frames_skipped as f64 / frames.max(1) as f64);
        m.set("trace.capture_records_per_s", stats::median(&o.capture_rates));
        m.set("replay_records_per_s", stats::median(&o.replay_rates));
        m.set("bytes_per_record", o.disk_bytes as f64 / o.disk_records.max(1) as f64);

        // Healing: open again with the sidecars gone.
        let mut heal_ms = Vec::new();
        for _ in 0..3 {
            for i in 0..self.tenants.len() {
                let _ = std::fs::remove_file(self.dir.join(format!("{}.igmx", self.stem(i))));
            }
            let span = t.spans.enter("lake.open_heal");
            let started = Instant::now();
            let healed = TraceLake::open(&self.dir);
            heal_ms.push(started.elapsed().as_secs_f64() * 1e3);
            t.spans.exit(span);
            gate.check(
                healed.as_ref().is_ok_and(|l| {
                    l.traces().len() == self.tenants.len() && l.traces().iter().all(|t| t.rebuilt)
                }),
                || "a lake without sidecars did not rebuild every index".to_owned(),
            );
        }
        t.metrics.set("lake.heal_ms", stats::median(&heal_ms));

        // The indexed encoder and the offline index scan, in memory.
        let trace = &self.tenants[0].trace;
        let (mut encode_rates, mut scan_rates) = (Vec::new(), Vec::new());
        let mut index_bytes_per_record = 0.0;
        for _ in 0..3 {
            let span = t.spans.enter("trace.encode_indexed");
            let started = Instant::now();
            let mut writer =
                TraceWriter::with_index(Vec::new()).expect("writing to memory cannot fail");
            for batch in &trace.batches {
                writer.write_chunk_batch(batch).expect("writing to memory cannot fail");
            }
            let index = writer.take_index();
            let bytes = writer.finish().expect("writing to memory cannot fail");
            encode_rates.push(trace.records as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
            index_bytes_per_record =
                index.map_or(0.0, |i| i.posting_bytes() as f64 / trace.records as f64);

            let span = t.spans.enter("trace.scan_records");
            let started = Instant::now();
            let scanned = TraceIndex::scan_records(&bytes[..]);
            scan_rates.push(trace.records as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
            gate.check(scanned.is_ok_and(|i| i.total_records() == trace.records), || {
                "scan_records did not index every record".to_owned()
            });
        }
        t.metrics.set("trace.encode_indexed_records_per_s", stats::median(&encode_rates));
        t.metrics.set("trace.scan_records_per_s", stats::median(&scan_rates));
        t.metrics.set("trace.index_bytes_per_record", index_bytes_per_record);
    }
}

//! The top-level LBA simulator: workload × lifeguard × accelerator
//! configuration → slowdown and event statistics.
//!
//! Two entry points:
//!
//! * [`Simulator`] — the full co-simulation used by the performance studies
//!   (paper Figures 10–11, and Figure 12's `LMA` column): drives a
//!   synthetic benchmark trace through a [`Monitor`] — the lifeguard behind
//!   its dispatch pipeline — feeding producer/consumer costs into the
//!   `igm-timing` co-simulator.
//! * [`sweep`] — the functional accelerator sweeps of the paper's PIN study
//!   (Figures 12–14).
//!
//! [`Monitor`] itself lives in `igm-lifeguards` and is re-exported here:
//! the functional (untimed) monitor for real [`igm_isa::Machine`] traces
//! that the examples and the bug-detection integration tests use.
//!
//! # Example
//!
//! ```
//! use igm_sim::{SimConfig, Simulator};
//! use igm_lifeguards::LifeguardKind;
//! use igm_workload::Benchmark;
//!
//! let base = Simulator::new(SimConfig::baseline(LifeguardKind::AddrCheck))
//!     .run_benchmark(Benchmark::Gzip, 50_000);
//! let fast = Simulator::new(SimConfig::optimized(LifeguardKind::AddrCheck))
//!     .run_benchmark(Benchmark::Gzip, 50_000);
//! assert!(fast.slowdown() < base.slowdown());
//! ```

pub mod report;
pub mod sweep;

pub use igm_lifeguards::Monitor;
pub use report::SimReport;

use igm_core::{AccelConfig, ItConfig};
use igm_isa::TraceEntry;
use igm_lba::{EventBuf, TraceBatch};
use igm_lifeguards::{CostSink, LifeguardKind};
use igm_timing::{CoSim, SystemConfig};
use igm_workload::{Benchmark, MtBenchmark};
use std::sync::mpsc::sync_channel;
use std::thread;

/// Records per chunk in [`Simulator::run_trace`]: the functional stage
/// dispatches and handles one chunk at a time and hands it to the timing
/// stage as one packet.
const RUN_BATCH_RECORDS: usize = 1_024;

/// Full packets queued between the two stages of [`Simulator::run_trace`].
/// The functional stage is the slower one, so a deeper queue only holds
/// more packets in memory without making a run any faster.
const PACKETS_IN_FLIGHT: usize = 2;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which lifeguard monitors the application.
    pub lifeguard: LifeguardKind,
    /// Requested accelerators (masked by the lifeguard's Figure 2 row).
    pub accel: AccelConfig,
    /// The simulated hardware (Table 2 by default).
    pub system: SystemConfig,
    /// Run lifeguards in synthetic-workload mode (see
    /// [`igm_lifeguards::Lifeguard::set_synthetic_workload_mode`]).
    /// [`Simulator`] enables this; [`Monitor::new`] does not.
    pub synthetic_workload: bool,
}

impl SimConfig {
    /// Unaccelerated LBA (the paper's baseline bars).
    pub fn baseline(lifeguard: LifeguardKind) -> SimConfig {
        SimConfig::with_accel(lifeguard, AccelConfig::baseline())
    }

    /// All applicable accelerators (the paper's optimized bars).
    pub fn optimized(lifeguard: LifeguardKind) -> SimConfig {
        SimConfig::with_accel(lifeguard, AccelConfig::full(ItConfig::taint_style()))
    }

    /// A specific accelerator selection (for the Figure 11 progression).
    pub fn with_accel(lifeguard: LifeguardKind, accel: AccelConfig) -> SimConfig {
        SimConfig {
            lifeguard,
            accel: lifeguard.mask_config(&accel),
            system: SystemConfig::isca08(),
            synthetic_workload: true,
        }
    }
}

/// The full co-simulating LBA model.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `cfg`.
    pub fn new(cfg: SimConfig) -> Simulator {
        Simulator { cfg }
    }

    /// The configuration in force (post-masking).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs a single-threaded SPEC-like benchmark for `n` records.
    pub fn run_benchmark(&self, b: Benchmark, n: u64) -> SimReport {
        let profile = b.profile();
        let premark = profile.premark_regions();
        let report = self.run_trace(&premark, None, b.trace(n));
        report.named(b.name())
    }

    /// Runs a multithreaded benchmark (LockSet study) for `n` records.
    pub fn run_mt_benchmark(&self, b: MtBenchmark, n: u64) -> SimReport {
        let gen = b.trace(n);
        let premark = gen.premark_regions();
        let report = self.run_trace(&premark, None, gen);
        report.named(b.name())
    }

    /// Runs an arbitrary trace. `premark` lists loader-established regions.
    ///
    /// `heap_init` is ignored: synthetic-workload mode already gives heap
    /// blocks calloc semantics, so there are no initialized bits left to
    /// pre-mark. The parameter remains because `benchmark/` calls this
    /// three-argument signature.
    ///
    /// Two stages run the trace, as the two cores of the modelled system
    /// do. The calling thread is the functional stage: it dispatches the
    /// trace in 1 k-record chunks and handles each chunk's events in one
    /// [`Monitor::observe_into`] pass, whose sink keeps a
    /// [mark](CostSink::marks) per event. A scoped thread is the timing
    /// stage: it splits each chunk's handler cost per record at those marks
    /// and steps the [`CoSim`] through the records in trace order. Neither
    /// stage reads the other's state, so the report is what one thread
    /// computing both would produce.
    pub fn run_trace(
        &self,
        premark: &[(u32, u32)],
        _heap_init: Option<(u32, u32)>,
        trace: impl IntoIterator<Item = TraceEntry>,
    ) -> SimReport {
        let cfg = &self.cfg;
        let mut monitor =
            Monitor::build(cfg.lifeguard, &cfg.accel, cfg.synthetic_workload, premark);
        let mut cosim = CoSim::new(self.cfg.system);
        let mut trace = trace.into_iter();

        let timing = thread::scope(|s| {
            let (full_tx, full_rx) = sync_channel::<Packet>(PACKETS_IN_FLIGHT);
            // The front takes a fresh packet only when none has come back,
            // right after a send: then every other packet is queued or being
            // replayed, so there are never more than this many.
            let (free_tx, free_rx) = sync_channel::<Packet>(PACKETS_IN_FLIGHT + 2);
            let timing = s.spawn(move || {
                for packet in full_rx {
                    packet.replay(&mut cosim);
                    // The front has stopped if this fails.
                    let _ = free_tx.send(packet);
                }
                cosim.finish()
            });

            // The functional stage. A panic here drops `full_tx`, which ends
            // the timing stage; a panic there makes the next send fail.
            let mut batch = TraceBatch::new();
            let mut packet = Packet::new();
            loop {
                packet.entries.clear();
                packet.entries.extend(trace.by_ref().take(RUN_BATCH_RECORDS));
                if packet.entries.is_empty() {
                    break;
                }
                batch.clear();
                batch.extend_entries(packet.entries.iter().copied());
                monitor.observe_into(&batch, &mut packet.events, &mut packet.cost);
                let ended = packet.entries.len() < RUN_BATCH_RECORDS;
                if full_tx.send(packet).is_err() || ended {
                    break;
                }
                packet = free_rx.try_recv().unwrap_or_else(|_| Packet::new());
            }
            drop(full_tx);
            timing.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });

        SimReport::new(self.cfg.accel, timing, monitor)
    }
}

/// One chunk of the trace, dispatched and handled by the functional stage
/// of [`Simulator::run_trace`], replayed by its timing stage, then handed
/// back for reuse.
struct Packet {
    entries: Vec<TraceEntry>,
    /// Each record's delivered events.
    events: EventBuf,
    /// One `handle_batch` over all of `events`, with a mark per event.
    cost: CostSink,
}

impl Packet {
    fn new() -> Packet {
        Packet {
            entries: Vec::with_capacity(RUN_BATCH_RECORDS),
            events: EventBuf::new(),
            cost: CostSink::new(),
        }
    }

    /// Steps `cosim` through the packet's records, each with its own share
    /// of the handler cost: from its first event's mark to the next
    /// record's.
    fn replay(&self, cosim: &mut CoSim) {
        let cost = &self.cost;
        let total = (cost.instrs(), cost.mem_vas().len() as u32);
        let mark = |event: usize| cost.marks().get(event).copied().unwrap_or(total);
        debug_assert_eq!(cost.marks().len(), self.events.len(), "one mark per handled event");
        let (mut end, mut from) = (0, mark(0));
        for (entry, evs) in self.entries.iter().zip(self.events.record_slices()) {
            end += evs.len();
            let to = mark(end);
            let mem_vas = &cost.mem_vas()[from.1 as usize..to.1 as usize];
            cosim.step_record(entry, evs.len() as u32, to.0 - from.0, mem_vas);
            from = to;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::*;
    use igm_core::IfGeometry;

    #[test]
    fn masked_config_is_applied() {
        let cfg = SimConfig::optimized(LifeguardKind::AddrCheck);
        assert!(cfg.accel.it.is_none(), "AddrCheck never uses IT");
        assert!(cfg.accel.if_geometry.is_some());
        let cfg = SimConfig::optimized(LifeguardKind::TaintCheck);
        assert!(cfg.accel.it.is_some());
        assert!(cfg.accel.if_geometry.is_none());
    }

    #[test]
    fn clean_workload_produces_no_violations() {
        for kind in [LifeguardKind::AddrCheck, LifeguardKind::MemCheck, LifeguardKind::TaintCheck] {
            let r =
                Simulator::new(SimConfig::optimized(kind)).run_benchmark(Benchmark::Crafty, 30_000);
            assert!(
                r.violations.is_empty(),
                "{kind}: unexpected violations {:?}",
                &r.violations[..r.violations.len().min(3)]
            );
        }
    }

    #[test]
    fn clean_mt_workload_is_race_free() {
        let r = Simulator::new(SimConfig::optimized(LifeguardKind::LockSet))
            .run_mt_benchmark(MtBenchmark::WaterNq, 30_000);
        assert!(r.violations.is_empty(), "{:?}", &r.violations[..r.violations.len().min(3)]);
    }

    #[test]
    fn optimization_reduces_slowdown_for_every_lifeguard() {
        for kind in LifeguardKind::ALL {
            let (base, fast) = if kind == LifeguardKind::LockSet {
                let b = Simulator::new(SimConfig::baseline(kind))
                    .run_mt_benchmark(MtBenchmark::Zchaff, 40_000);
                let f = Simulator::new(SimConfig::optimized(kind))
                    .run_mt_benchmark(MtBenchmark::Zchaff, 40_000);
                (b, f)
            } else {
                let b = Simulator::new(SimConfig::baseline(kind))
                    .run_benchmark(Benchmark::Gzip, 40_000);
                let f = Simulator::new(SimConfig::optimized(kind))
                    .run_benchmark(Benchmark::Gzip, 40_000);
                (b, f)
            };
            assert!(
                fast.slowdown() < base.slowdown(),
                "{kind}: optimized {:.2} !< baseline {:.2}",
                fast.slowdown(),
                base.slowdown()
            );
            assert!(base.slowdown() > 1.0, "{kind}: baseline must cost something");
        }
    }

    #[test]
    fn reports_carry_stats() {
        let r = Simulator::new(SimConfig::optimized(LifeguardKind::MemCheck))
            .run_benchmark(Benchmark::Vpr, 20_000);
        assert_eq!(r.timing.records, 20_000);
        assert!(r.dispatch.delivered > 0);
        assert!(r.it.is_some(), "MemCheck runs with IT");
        assert!(r.if_stats.is_some(), "MemCheck runs with IF");
        assert!(r.metadata_bytes > 0);
    }

    /// Records per run of the sweep tests below.
    const N: u64 = 60_000;

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
        let small =
            if_reduction(b.trace(N), IfGeometry::fully_associative(8), LifeguardKind::AddrCheck);
        let large =
            if_reduction(b.trace(N), IfGeometry::fully_associative(256), LifeguardKind::AddrCheck);
        assert!(large >= small, "8 entries {small:.2} vs 256 {large:.2}");
        assert!(large > 0.2, "large filter should catch reuse, got {large:.2}");
    }

    #[test]
    fn four_way_close_to_fully_associative() {
        // Paper: "a set-associative design with 4 or more ways works as
        // well as the fully-associative design".
        let b = Benchmark::Vortex;
        let fa =
            if_reduction(b.trace(N), IfGeometry::fully_associative(32), LifeguardKind::AddrCheck);
        let w4 =
            if_reduction(b.trace(N), IfGeometry::set_associative(32, 4), LifeguardKind::AddrCheck);
        assert!((fa - w4).abs() < 0.10, "fully-assoc {fa:.2} vs 4-way {w4:.2}");
    }

    #[test]
    fn separate_ccs_filter_no_more_than_combined() {
        let g = || MtBenchmark::WaterNq.trace(N);
        let combined =
            if_reduction(g(), IfGeometry::fully_associative(32), LifeguardKind::AddrCheck);
        let separate = if_reduction(g(), IfGeometry::fully_associative(32), LifeguardKind::LockSet);
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
        let (bits, flexible) = mtlb_flexible(&fp, b.trace(N), 64).expect("vpr touches memory");
        assert!(bits < 20);
        assert!(flexible <= fixed);
        assert!(flexible < 0.01, "flexible design should be negligible, got {flexible:.4}");
    }

    #[test]
    fn lma_reduction_in_paper_band() {
        // Figure 12: 16.7%-49.3% of handler instructions across
        // lifeguards/benchmarks.
        let run = |accel| {
            Simulator::new(SimConfig::with_accel(LifeguardKind::AddrCheck, accel))
                .run_benchmark(Benchmark::Gzip, N)
        };
        let (base, lma) = (run(AccelConfig::baseline()), run(AccelConfig::lma()));
        let r = 1.0 - lma.timing.handler_instrs as f64 / base.timing.handler_instrs as f64;
        assert!((0.15..=0.60).contains(&r), "AddrCheck LMA reduction {r:.2}");
    }
}

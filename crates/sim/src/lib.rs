//! The top-level LBA simulator: workload × lifeguard × accelerator
//! configuration → slowdown and event statistics.
//!
//! Two entry points:
//!
//! * [`Simulator`] — the full co-simulation used by the performance studies
//!   (paper Figures 10–11): drives a synthetic benchmark trace through the
//!   dispatch pipeline and the lifeguard, feeding producer/consumer costs
//!   into the `igm-timing` co-simulator.
//! * [`Monitor`] — a functional (untimed) monitor for real
//!   [`igm_isa::Machine`] traces, used by the examples and the
//!   bug-detection integration tests.
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

pub mod monitor;
pub mod report;

pub use monitor::Monitor;
pub use report::SimReport;

use igm_core::{AccelConfig, DispatchPipeline, ItConfig};
use igm_isa::TraceEntry;
use igm_lba::{chunks, EventBuf, TraceBatch};
use igm_lifeguards::{CostSink, LifeguardKind};
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig, SessionReport};
use igm_timing::{CoSim, SystemConfig};
use igm_workload::{Benchmark, MtBenchmark};

/// Compressed-record bytes per dispatch batch in [`Simulator::run_trace`]
/// (≈ 1 k records).
const RUN_BATCH_BYTES: u32 = 1_024;

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
    /// [`Lifeguard::set_synthetic_workload_mode`]). [`Simulator`] enables
    /// this; [`Monitor`] does not.
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
    /// The trace is dispatched in ≈ 1 k-record chunks and the handlers then
    /// run record by record over the delivered events. The gate never
    /// reads lifeguard state, so running it a batch ahead of the handlers
    /// is exact.
    pub fn run_trace(
        &self,
        premark: &[(u32, u32)],
        _heap_init: Option<(u32, u32)>,
        trace: impl IntoIterator<Item = TraceEntry>,
    ) -> SimReport {
        let mut lifeguard = self.cfg.lifeguard.build(&self.cfg.accel);
        if self.cfg.synthetic_workload {
            lifeguard.set_synthetic_workload_mode(true);
        }
        for (base, len) in premark {
            lifeguard.premark_region(*base, *len);
        }
        let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &self.cfg.accel);
        let mut cosim = CoSim::new(self.cfg.system);
        let mut cost = CostSink::new();
        let mut chunker = chunks(trace, RUN_BATCH_BYTES);
        let mut batch = TraceBatch::new();
        let mut events = EventBuf::new();

        while chunker.next_into_batch(&mut batch) {
            pipeline.dispatch_batch(&batch, &mut events);
            for (entry, evs) in batch.iter().zip(events.record_slices()) {
                cost.clear();
                lifeguard.handle_batch(evs, &mut cost);
                cosim.step_record(&entry, evs.len() as u32, cost.instrs(), cost.mem_vas());
            }
        }

        SimReport::new(self.cfg.lifeguard, self.cfg.accel, cosim.finish(), pipeline, lifeguard)
    }

    /// Streams `tenants` independent benchmark applications concurrently
    /// through a [`MonitorPool`] of `workers` lifeguard shards, every tenant
    /// monitored under this simulator's lifeguard/accelerator configuration.
    ///
    /// This is the service-scale entry point layered on `igm-runtime`:
    /// functional (wall-clock) monitoring rather than the cycle-level
    /// co-simulation — use [`Simulator::run_benchmark`] for the paper's
    /// slowdown studies and this for concurrency/throughput studies.
    /// Reports come back in tenant order.
    pub fn run_concurrent(
        &self,
        tenants: &[(Benchmark, u64)],
        workers: usize,
    ) -> Vec<SessionReport> {
        let pool = MonitorPool::new(PoolConfig::with_workers(workers));
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter()
                .map(|(bench, n)| {
                    let profile = bench.profile();
                    let mut scfg = SessionConfig::new(bench.name(), self.cfg.lifeguard)
                        .accel(self.cfg.accel)
                        .premark(&profile.premark_regions());
                    if self.cfg.synthetic_workload {
                        scfg = scfg.synthetic();
                    }
                    let session = pool.open_session(scfg);
                    let (bench, n) = (*bench, *n);
                    scope.spawn(move || {
                        session.stream(bench.trace(n)).expect("pool outlives the stream");
                        session.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("tenant thread completes")).collect()
        });
        pool.shutdown();
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

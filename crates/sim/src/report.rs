//! Simulation run reports.

use igm_core::{AccelConfig, DispatchPipeline, DispatchStats, IfStats, ItStats};
use igm_lifeguards::{AnyLifeguard, Lifeguard, LifeguardKind, Violation};
use igm_timing::TimingReport;

/// Everything a run produced: timing, pipeline statistics, accelerator
/// statistics, violations, and metadata footprint.
#[derive(Debug)]
pub struct SimReport {
    /// Which lifeguard ran.
    pub lifeguard: LifeguardKind,
    /// The (masked) accelerator configuration.
    pub accel: AccelConfig,
    /// Workload name, when run through a benchmark entry point.
    pub benchmark: Option<String>,
    /// The timing outcome.
    pub timing: TimingReport,
    /// Dispatch pipeline counters.
    pub dispatch: DispatchStats,
    /// Inheritance Tracking counters, when IT ran.
    pub it: Option<ItStats>,
    /// Idempotent Filter counters, when IF ran.
    pub if_stats: Option<IfStats>,
    /// Violations the lifeguard reported.
    pub violations: Vec<Violation>,
    /// Final lifeguard metadata footprint in bytes.
    pub metadata_bytes: u64,
}

impl SimReport {
    pub(crate) fn new(
        lifeguard: LifeguardKind,
        accel: AccelConfig,
        timing: TimingReport,
        pipeline: DispatchPipeline,
        mut lg: AnyLifeguard,
    ) -> SimReport {
        SimReport {
            lifeguard,
            accel,
            benchmark: None,
            it: pipeline.it_stats().copied(),
            if_stats: pipeline.if_stats().copied(),
            dispatch: pipeline.stats().clone(),
            timing,
            violations: lg.take_violations(),
            metadata_bytes: lg.metadata_bytes(),
        }
    }

    pub(crate) fn named(mut self, name: &str) -> SimReport {
        self.benchmark = Some(name.to_owned());
        self
    }

    /// Monitored time over stand-alone time (the paper's y-axis).
    pub fn slowdown(&self) -> f64 {
        self.timing.slowdown()
    }

    /// Delivered events per record (a density measure).
    pub fn events_per_record(&self) -> f64 {
        if self.timing.records == 0 {
            0.0
        } else {
            self.dispatch.delivered as f64 / self.timing.records as f64
        }
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} {:<28} {:<9} slowdown {:>5.2}x  events/rec {:>5.3}  violations {}",
            self.benchmark.as_deref().unwrap_or("-"),
            self.lifeguard.name(),
            self.accel.label(),
            self.slowdown(),
            self.events_per_record(),
            self.violations.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use igm_workload::Benchmark;

    #[test]
    fn summary_contains_key_fields() {
        let r = Simulator::new(SimConfig::optimized(LifeguardKind::TaintCheck))
            .run_benchmark(Benchmark::Mcf, 10_000);
        let s = r.summary();
        assert!(s.contains("mcf"));
        assert!(s.contains("TaintCheck"));
        assert!(s.contains("LMA+IT"));
        assert!(s.contains("slowdown"));
    }

    #[test]
    fn events_per_record_is_bounded() {
        let r = Simulator::new(SimConfig::baseline(LifeguardKind::AddrCheck))
            .run_benchmark(Benchmark::Gap, 10_000);
        assert!(r.events_per_record() > 0.0);
        assert!(r.events_per_record() < 4.0);
    }
}

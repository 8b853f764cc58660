//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7). Host-side performance is measured by the separate
//! `benchmark/` package, not here.
//!
//! One binary per figure (run with `cargo run --release -p igm-bench --bin
//! <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig10` | per-benchmark slowdowns, LBA baseline vs optimized, all five lifeguards (+ Table 2 header, Table 3 workloads, §7.2 headline footer) |
//! | `fig11` | average slowdowns applying LMA, IT, IF one by one (16 bars) |
//! | `fig12_table` | reduced dynamic instructions (LMA), reduced update events (IT), reduced check events (IF) — min–max across benchmarks — plus the Figure 2 applicability matrix |
//! | `fig13` | (a) IT-reduced propagation events per benchmark; (b)/(c) IF sweeps over entries × associativity for combined/separate load-store categories |
//! | `fig14` | (a) M-TLB miss rate vs level-1 bits × entries (max and average); (b) fixed vs flexible level-1 sizing |
//! | `run_all` | all of the above in paper order |
//! | `ablation` | not a paper figure: IT clean-source and conflict-detection, IF categorization and one- vs two-level shadow ablations |
//!
//! Record count defaults to 200k per run and scales with the `N`
//! environment variable (the paper uses SPEC test inputs under the same
//! constraint: simulation time).

use igm_lifeguards::LifeguardKind;
use igm_sim::{SimConfig, SimReport, Simulator};
use igm_workload::{Benchmark, MtBenchmark};

/// Records per simulation run (`N` env var, default 200k).
pub fn run_scale() -> u64 {
    std::env::var("N").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000)
}

/// Runs one lifeguard × config over its benchmark suite (SPEC-like for the
/// single-threaded lifeguards, Table 3 for LockSet), returning per-
/// benchmark reports.
pub fn run_suite(cfg: &SimConfig, n: u64) -> Vec<SimReport> {
    if cfg.lifeguard == LifeguardKind::LockSet {
        MtBenchmark::ALL
            .iter()
            .map(|b| Simulator::new(cfg.clone()).run_mt_benchmark(*b, n))
            .collect()
    } else {
        Benchmark::ALL.iter().map(|b| Simulator::new(cfg.clone()).run_benchmark(*b, n)).collect()
    }
}

/// Average slowdown of a suite (the paper averages arithmetically across
/// benchmarks).
pub fn average_slowdown(reports: &[SimReport]) -> f64 {
    reports.iter().map(|r| r.slowdown()).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_benchmarks() {
        let cfg = SimConfig::optimized(LifeguardKind::AddrCheck);
        let reports = run_suite(&cfg, 5_000);
        assert_eq!(reports.len(), Benchmark::ALL.len());
        let cfg = SimConfig::optimized(LifeguardKind::LockSet);
        let reports = run_suite(&cfg, 5_000);
        assert_eq!(reports.len(), MtBenchmark::ALL.len());
    }

    #[test]
    fn average_is_within_min_max() {
        let cfg = SimConfig::baseline(LifeguardKind::TaintCheck);
        let reports = run_suite(&cfg, 5_000);
        let avg = average_slowdown(&reports);
        let min = reports.iter().map(|r| r.slowdown()).fold(f64::MAX, f64::min);
        let max = reports.iter().map(|r| r.slowdown()).fold(0.0, f64::max);
        assert!(min <= avg && avg <= max);
    }
}

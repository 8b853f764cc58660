//! Shape-level checks of the paper's experimental claims, at reduced scale
//! (the full-scale numbers are produced by the `igm-bench` binaries and
//! recorded in `EXPERIMENTS.md`).

use igm::accel::{AccelConfig, IfGeometry, ItConfig};
use igm::lifeguards::LifeguardKind;
use igm::profiling::{
    if_reduction, it_reduction, mtlb_flexible, mtlb_miss_rate, trace_footprint, CcMode,
};
use igm::sim::{SimConfig, SimReport, Simulator};
use igm::workload::{Benchmark, MtBenchmark};

const N: u64 = 60_000;

/// Figure 11's monotone staircase: each added technique helps (or at least
/// does not hurt) every lifeguard it applies to.
#[test]
fn techniques_compose_monotonically() {
    for kind in [LifeguardKind::MemCheck, LifeguardKind::TaintCheck] {
        let b = Benchmark::Gzip;
        let steps = [
            AccelConfig::baseline(),
            AccelConfig::lma(),
            AccelConfig::lma_it(ItConfig::taint_style()),
            AccelConfig::full(ItConfig::taint_style()),
        ];
        let slowdowns: Vec<f64> = steps
            .iter()
            .map(|a| Simulator::new(SimConfig::with_accel(kind, *a)).run_benchmark(b, N).slowdown())
            .collect();
        for w in slowdowns.windows(2) {
            assert!(
                w[1] <= w[0] * 1.02,
                "{kind}: adding a technique must not slow things down: {slowdowns:?}"
            );
        }
    }
}

/// §7.2: MemCheck is the heaviest lifeguard (its events are a superset of
/// AddrCheck's and TaintCheck's).
#[test]
fn memcheck_is_the_most_expensive_lifeguard() {
    let b = Benchmark::Vortex;
    let slow = |kind| Simulator::new(SimConfig::baseline(kind)).run_benchmark(b, N).slowdown();
    let mc = slow(LifeguardKind::MemCheck);
    assert!(mc > slow(LifeguardKind::AddrCheck));
    assert!(mc > slow(LifeguardKind::TaintCheck));
}

/// §7.1: detailed tracking costs more than plain TaintCheck, yet IT still
/// rescues it — the flexibility argument against value-based hardware.
#[test]
fn detailed_tracking_costlier_but_accelerated() {
    let b = Benchmark::Gcc;
    let plain = Simulator::new(SimConfig::baseline(LifeguardKind::TaintCheck)).run_benchmark(b, N);
    let detailed =
        Simulator::new(SimConfig::baseline(LifeguardKind::TaintCheckDetailed)).run_benchmark(b, N);
    assert!(detailed.slowdown() > plain.slowdown());
    let detailed_opt =
        Simulator::new(SimConfig::optimized(LifeguardKind::TaintCheckDetailed)).run_benchmark(b, N);
    assert!(detailed_opt.slowdown() < detailed.slowdown() / 1.5);
}

/// §8: the memory-bound benchmark has the smallest monitoring overhead.
/// (Needs a steady-state run length: mcf's huge footprint makes short runs
/// cold-start dominated.)
#[test]
fn mcf_overhead_is_smallest() {
    let n = 250_000;
    let cfg = SimConfig::optimized(LifeguardKind::AddrCheck);
    let mcf = Simulator::new(cfg.clone()).run_benchmark(Benchmark::Mcf, n).slowdown();
    for b in [Benchmark::Crafty, Benchmark::Vortex, Benchmark::Gzip] {
        let other = Simulator::new(cfg.clone()).run_benchmark(b, n).slowdown();
        assert!(
            mcf <= other + 0.15,
            "mcf ({mcf:.2}) should be among the cheapest, {b} was {other:.2}"
        );
    }
}

/// Figure 13(a): IT removes a large fraction of propagation events for
/// every benchmark.
#[test]
fn it_reduction_band_holds_across_suite() {
    for b in Benchmark::ALL {
        let r = it_reduction(b.trace(N), ItConfig::taint_style());
        assert!((0.30..=0.95).contains(&r), "{b}: {r:.2}");
    }
}

/// Figure 13(b): the filter curve rises with capacity and saturates.
#[test]
fn if_curve_rises_and_saturates() {
    let b = Benchmark::Parser;
    let mut prev = 0.0;
    for e in [8usize, 32, 128] {
        let r = if_reduction(b.trace(N), IfGeometry::fully_associative(e), CcMode::Combined);
        assert!(r >= prev - 0.02, "{e} entries: {r:.2} after {prev:.2}");
        prev = r;
    }
    assert!(prev > 0.35, "128-entry filter should remove a third of checks: {prev:.2}");
}

/// Figure 14: fixed-width misses are worst for mcf; the flexible design is
/// near-negligible for every benchmark.
#[test]
fn mtlb_flexible_design_wins() {
    let mcf20 = mtlb_miss_rate(Benchmark::Mcf.trace(N), 20, 16);
    for b in [Benchmark::Crafty, Benchmark::Gzip] {
        let other = mtlb_miss_rate(b.trace(N), 20, 16);
        assert!(mcf20 >= other, "mcf must have the worst fixed-width miss rate");
    }
    for b in Benchmark::ALL {
        let fp = trace_footprint(b.trace(N));
        let (bits, rate) = mtlb_flexible(&fp, b.trace(N), 64);
        assert!((8..=20).contains(&bits));
        // mcf's footprint is so sparse that even the flexible width keeps a
        // small miss rate (as in the paper's Figure 14(b) mcf row); for
        // everything else the flexible design is near-negligible.
        let bound = if b == Benchmark::Mcf { 0.12 } else { 0.02 };
        assert!(rate < bound, "{b}: flexible miss rate {rate:.4}");
    }
}

/// LockSet on the Table 3 suite: overhead is reduced by the applicable
/// techniques, and no benchmark reports a (false) race.
#[test]
fn lockset_suite_behaviour() {
    for b in MtBenchmark::ALL {
        let base =
            Simulator::new(SimConfig::baseline(LifeguardKind::LockSet)).run_mt_benchmark(b, N);
        let opt =
            Simulator::new(SimConfig::optimized(LifeguardKind::LockSet)).run_mt_benchmark(b, N);
        assert!(opt.slowdown() <= base.slowdown(), "{b}");
        assert!(base.violations.is_empty() && opt.violations.is_empty(), "{b}");
    }
}

/// Determinism: the same configuration yields bit-identical reports.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let r = Simulator::new(SimConfig::optimized(LifeguardKind::MemCheck))
            .run_benchmark(Benchmark::Twolf, N);
        (r.timing.monitored_cycles, r.dispatch.delivered, r.metadata_bytes)
    };
    assert_eq!(run(), run());
}

/// The co-simulation itself, pinned: every `TimingReport` field plus
/// `dispatch.delivered` and `metadata_bytes` on the `cosim_figures` grid
/// (5 lifeguards × {baseline, optimized} × 3 benchmarks, 80 k records).
/// Simulated statistics are exact, so any host-side change to how
/// `Simulator::run_trace` feeds the pipeline must leave this table alone.
#[test]
fn cosim_grid_matches_the_golden_table() {
    // Row order: lifeguard (LifeguardKind::ALL), then baseline before
    // optimized, then gcc, gzip, mcf (LockSet: blast, water-nq, zchaff).
    // Columns: app_alone_cycles, monitored_cycles, consumer_cycles,
    // producer_stall_cycles, syscall_drain_cycles, records,
    // delivered_events, handler_instrs, dispatch.delivered, metadata_bytes.
    const GOLDEN: [[u64; 10]; 30] = [
        [338752, 649667, 649667, 0, 309665, 80000, 37228, 420753, 37228, 1068080],
        [316861, 1467473, 1467473, 0, 1149362, 80000, 46715, 600484, 46715, 674816],
        [1186544, 2416686, 2416686, 248764, 974727, 80000, 39720, 550886, 39720, 13387776],
        [338752, 350422, 350422, 0, 10420, 80000, 17457, 133464, 17457, 1068080],
        [316861, 1154432, 1154432, 0, 836321, 80000, 29551, 278960, 29551, 674816],
        [1186544, 2203367, 2203367, 218411, 791762, 80000, 33345, 348225, 33345, 13387776],
        [338752, 1171311, 1171311, 0, 831309, 80000, 142131, 854476, 142131, 2116664],
        [316861, 1458330, 1458330, 0, 1140219, 80000, 175296, 1181762, 175296, 1330184],
        [1186544, 1994986, 1994986, 0, 794992, 80000, 143667, 1070043, 143667, 26757128],
        [338752, 596465, 596465, 0, 256463, 80000, 71961, 315035, 71961, 2116664],
        [316861, 729571, 729571, 0, 411460, 80000, 80005, 500679, 80005, 1330184],
        [1186544, 1527406, 1527406, 0, 327412, 80000, 93911, 628451, 93911, 26757128],
        [338752, 588352, 588352, 0, 248350, 80000, 50920, 317242, 50920, 1851400],
        [316861, 718437, 718437, 0, 400326, 80000, 53088, 502973, 53088, 1064968],
        [1186544, 1352246, 1352246, 0, 152252, 80000, 43173, 477130, 43173, 26230792],
        [338752, 340091, 340091, 0, 89, 80000, 12898, 57928, 12898, 1851400],
        [316861, 462224, 462224, 0, 144113, 80000, 18384, 203873, 18384, 1064968],
        [1186544, 1194604, 1194604, 0, 10, 80000, 6589, 203632, 6589, 26230792],
        [338752, 871108, 871108, 0, 525506, 80000, 50920, 427448, 50920, 11567168],
        [316861, 1837367, 1837367, 0, 1519256, 80000, 53088, 1428673, 53088, 6324288],
        [1186544, 3355521, 3355521, 563782, 1579145, 80000, 43173, 1707525, 43173, 208699456],
        [338752, 355869, 355869, 0, 15467, 80000, 12898, 126520, 12898, 11567168],
        [316861, 1469193, 1469193, 0, 1151082, 80000, 18384, 1090557, 18384, 6324288],
        [1186544, 1984177, 1984177, 419442, 374341, 80000, 6589, 1393333, 6589, 208699456],
        [287343, 1681991, 1681991, 956091, 425707, 80000, 35368, 1478112, 35368, 6308040],
        [238635, 1541813, 1541813, 947446, 354482, 80000, 33027, 1401405, 33027, 6308232],
        [300739, 1648499, 1648499, 949349, 391160, 80000, 35050, 1457829, 35050, 6308136],
        [287343, 1380258, 1380258, 898129, 181936, 80000, 11559, 1189544, 11559, 6308040],
        [238635, 1272433, 1272433, 897849, 134699, 80000, 12378, 1143729, 12378, 6308232],
        [300739, 1357312, 1357312, 881650, 167673, 80000, 12596, 1179569, 12596, 6308136],
    ];
    const RECORDS: u64 = 80_000;

    let row = |r: &SimReport| {
        let t = &r.timing;
        [
            t.app_alone_cycles,
            t.monitored_cycles,
            t.consumer_cycles,
            t.producer_stall_cycles,
            t.syscall_drain_cycles,
            t.records,
            t.delivered_events,
            t.handler_instrs,
            r.dispatch.delivered,
            r.metadata_bytes,
        ]
    };
    let mut golden = GOLDEN.iter();
    for kind in LifeguardKind::ALL {
        for optimized in [false, true] {
            let sim = Simulator::new(if optimized {
                SimConfig::optimized(kind)
            } else {
                SimConfig::baseline(kind)
            });
            let reports = if kind == LifeguardKind::LockSet {
                [MtBenchmark::Blast, MtBenchmark::WaterNq, MtBenchmark::Zchaff]
                    .map(|b| sim.run_mt_benchmark(b, RECORDS))
            } else {
                [Benchmark::Gcc, Benchmark::Gzip, Benchmark::Mcf]
                    .map(|b| sim.run_benchmark(b, RECORDS))
            };
            for r in &reports {
                let name = r.benchmark.as_deref().unwrap_or("?");
                assert_eq!(
                    &row(r),
                    golden.next().expect("30 golden rows"),
                    "{kind} optimized={optimized} {name}"
                );
            }
        }
    }
    assert!(golden.next().is_none(), "every golden row was compared");
}

//! Seed determinism: the same seed gives the same inputs and the same
//! exact metrics; another seed gives other inputs.

mod common;

use igm::workload::{Benchmark, MtBenchmark};
use igm_benchmark::inputs::{Program, Trace};
use igm_benchmark::metrics::PER_LAYER;
use igm_benchmark::workloads;

#[test]
fn same_seed_same_batches_other_seed_other_batches() {
    let gen = |seed| Trace::generate(Program::Spec(Benchmark::Gcc), 50_000, seed, 0);
    let (a, b, c) = (gen(1), gen(1), gen(2));
    assert_eq!(a.records, 50_000);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.hash(), b.hash());
    assert_ne!(a.hash(), c.hash());
    // The tenant index is part of the generator seed.
    let other_index = Trace::generate(Program::Spec(Benchmark::Gcc), 50_000, 1, 1);
    assert_ne!(a.hash(), other_index.hash());
}

#[test]
fn the_multithreaded_input_does_not_depend_on_the_seed() {
    // The product fixes MtBenchmark's generator seed (README, out of scope).
    let mt = |seed| Trace::generate(Program::Mt(MtBenchmark::Zchaff), 40_000, seed, 0);
    assert_eq!(mt(1).hash(), mt(2).hash());
    let other = Trace::generate(Program::Mt(MtBenchmark::WaterNq), 40_000, 1, 0);
    assert_ne!(mt(1).hash(), other.hash());
}

#[test]
fn exact_metrics_repeat_for_one_seed_and_move_with_another() {
    let exact = |test: &str, workload: &str, seed| {
        let ctx = common::tiny_ctx(test, seed);
        let outcome = workloads::run(workload, &ctx, true).unwrap();
        assert_eq!(outcome.gate.failed, 0, "{:?}", outcome.gate.messages());
        PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .map(|d| (d.name, outcome.metrics.get(d.name).unwrap_or(0.0)))
            .collect::<Vec<_>>()
    };
    for workload in ["seq_check", "cosim_figures"] {
        let a = exact("exact-a", workload, 3);
        let b = exact("exact-b", workload, 3);
        let c = exact("exact-c", workload, 4);
        assert_eq!(a, b, "{workload}: exact metrics must repeat bit for bit");
        assert_ne!(a, c, "{workload}: another seed is another input");
        assert!(a.iter().any(|(_, v)| *v != 0.0));
    }
}

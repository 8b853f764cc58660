//! Planted-violation round trip: every plant pc of `paced_detect` leaves
//! the pool's violation stream exactly once.

mod common;

use igm_benchmark::harness::{Workload, MIN_WINDOWS};
use igm_benchmark::reference::Gate;
use igm_benchmark::workloads::{self, paced::PacedDetect};

#[test]
fn every_plant_is_observed_exactly_once() {
    let ctx = common::tiny_ctx("plants", 5);
    let mut paced = PacedDetect::setup(&ctx);
    let mut gate = Gate::new();
    let window = paced.window(&ctx, &mut gate);
    assert_eq!(gate.failed, 0, "{:?}", gate.messages());
    // The plants are records too: 40 000 generated records per session at
    // this scale, plus one plant per batch.
    let plants = window.records - 2 * 40_000;
    assert!(plants >= 4, "{plants} plants");
    // One check per plant, one for the stream's total, one per session.
    assert_eq!(gate.attempted, plants + 1 + 2);
    // One lag sample per batch index, pooled over the two sessions.
    assert!(window.ops_us.len() as u64 >= plants / 2 - 1);
    assert!(window.ops_us.iter().all(|lag| *lag > 0.0));
}

#[test]
fn the_whole_workload_stays_clean_across_windows() {
    let ctx = common::tiny_ctx("plants-run", 6);
    let outcome = workloads::run("paced_detect", &ctx, false).unwrap();
    assert_eq!(outcome.gate.failed, 0, "{:?}", outcome.gate.messages());
    assert!(outcome.windows >= MIN_WINDOWS);
    assert!(outcome.metrics.get("op_p50_us").unwrap() > 0.0);
}

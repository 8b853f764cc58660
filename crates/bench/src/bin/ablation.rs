//! Ablation study of four design choices the paper argues for:
//!
//! 1. **IT clean-`%rs` "do nothing" optimization** (paper §4.3) — how many
//!    propagation events it saves.
//! 2. **IT write-after-read conflict detection** — how many extra
//!    materialization events soundness costs (disabling it is unsound; the
//!    ablation quantifies what the hardware pays for correctness).
//! 3. **IF check categorization** — combined vs separate load/store
//!    categories on the same stream (the LockSet-required split's cost).
//! 4. **One-level vs two-level shadow organization** — address-space cost
//!    of the simple design (why the paper adopts two-level + M-TLB).

use igm_bench::run_scale;
use igm_core::{IfGeometry, InheritanceTracker, ItConfig};
use igm_lba::{extract_events, Event};
use igm_profiling::{if_reduction, it_reduction, CcMode};
use igm_shadow::OneLevelShadow;
use igm_workload::Benchmark;

fn it_conflict_events(b: Benchmark, n: u64, conflict_detection: bool) -> (u64, u64) {
    let cfg = ItConfig { conflict_detection, ..ItConfig::taint_style() };
    let mut it = InheritanceTracker::new(cfg);
    let mut raw = Vec::new();
    let mut out = Vec::new();
    for entry in b.trace(n) {
        raw.clear();
        extract_events(&entry, &mut raw);
        for dev in &raw {
            match dev.event {
                Event::Prop(_) => {
                    out.clear();
                    it.process(dev.pc, dev.event, &mut out);
                }
                Event::Annot(_) => {
                    out.clear();
                    it.flush_all(dev.pc, &mut out);
                }
                _ => {}
            }
        }
    }
    (it.stats().prop_delivered + it.stats().flush_events, it.stats().conflict_events)
}

fn main() {
    let n = run_scale();
    println!("=== Ablation 1: IT clean-%rs 'do nothing' optimization (§4.3) ===");
    println!("{:<10} {:>12} {:>12}", "benchmark", "with opt", "without");
    for b in [Benchmark::Crafty, Benchmark::Gcc, Benchmark::Gzip, Benchmark::Vortex] {
        let with = it_reduction(b.trace(n), ItConfig::taint_style());
        let without = it_reduction(
            b.trace(n),
            ItConfig { clean_rs_do_nothing: false, ..ItConfig::taint_style() },
        );
        println!("{:<10} {:>11.1}% {:>11.1}%", b.name(), with * 100.0, without * 100.0);
    }

    println!("\n=== Ablation 2: cost of write-after-read conflict detection ===");
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "benchmark", "delivered(on)", "delivered(off)", "conflicts"
    );
    for b in [Benchmark::Gcc, Benchmark::Parser, Benchmark::Gzip] {
        let (on, conflicts) = it_conflict_events(b, n, true);
        let (off, _) = it_conflict_events(b, n, false);
        println!("{:<10} {:>14} {:>14} {:>10}", b.name(), on, off, conflicts);
    }
    println!("(disabling conflict detection is UNSOUND; shown only to price soundness)");

    println!("\n=== Ablation 3: IF check categorization, same stream ===");
    println!("{:<10} {:>12} {:>12}", "benchmark", "combined", "separate");
    for b in [Benchmark::Crafty, Benchmark::Vortex, Benchmark::Parser] {
        let geom = IfGeometry::isca08();
        let c = if_reduction(b.trace(n), geom, CcMode::Combined);
        let s = if_reduction(b.trace(n), geom, CcMode::Separate);
        println!("{:<10} {:>11.1}% {:>11.1}%", b.name(), c * 100.0, s * 100.0);
    }

    println!("\n=== Ablation 4: one-level vs two-level shadow space (§6.1) ===");
    for bits in [1u32, 2, 8] {
        let one = OneLevelShadow::new(bits, 0);
        println!(
            "one-level, {bits} bit(s)/byte: reserves {} MB of lifeguard address space up front",
            one.reserved_bytes() >> 20
        );
    }
    println!("two-level: allocates one chunk per touched region (see fig14 for miss rates)");
}

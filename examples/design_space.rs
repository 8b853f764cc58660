//! Driving the design-space sweeps (the paper's §7.3 profiling study) on a
//! single workload: Inheritance Tracking effectiveness, Idempotent Filter
//! geometry curves, and M-TLB sizing.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use igm::accel::IfGeometry;
use igm::accel::ItConfig;
use igm::lifeguards::LifeguardKind;
use igm::sim::sweep::{if_reduction, it_reduction, mtlb_flexible, mtlb_miss_rate, trace_footprint};
use igm::workload::Benchmark;

fn main() {
    let b = Benchmark::Gcc;
    let n = 120_000;

    println!("workload: {b}, {n} records\n");

    let policy = |kind: LifeguardKind| ItConfig::for_etct(&kind.etct());
    let it = it_reduction(b.trace(n), policy(LifeguardKind::TaintCheck));
    let it_eager = it_reduction(b.trace(n), policy(LifeguardKind::MemCheck));
    println!("Inheritance Tracking");
    println!("  propagation events removed (TaintCheck policy): {:5.1}%", it * 100.0);
    println!("  with eager checks         (MemCheck policy)  : {:5.1}%", it_eager * 100.0);

    println!("\nIdempotent Filter (combined load/store category)");
    print!("  entries:");
    for e in [8usize, 16, 32, 64, 128, 256] {
        let r =
            if_reduction(b.trace(n), IfGeometry::fully_associative(e), LifeguardKind::AddrCheck);
        print!("  {e}->{:4.1}%", r * 100.0);
    }
    println!();
    let fa = if_reduction(b.trace(n), IfGeometry::fully_associative(32), LifeguardKind::AddrCheck);
    let w4 = if_reduction(b.trace(n), IfGeometry::set_associative(32, 4), LifeguardKind::AddrCheck);
    println!("  32 entries: fully associative {:4.1}% vs 4-way {:4.1}%", fa * 100.0, w4 * 100.0);

    println!("\nMetadata-TLB (64 entries)");
    for bits in [20u8, 16, 12] {
        let m = mtlb_miss_rate(b.trace(n), bits, 64);
        println!("  fixed level-1 = {bits:2} bits: miss rate {:6.3}%", m * 100.0);
    }
    let fp = trace_footprint(b.trace(n));
    match mtlb_flexible(&fp, b.trace(n), 64) {
        Some((bits, m)) => println!(
            "  flexible sizing picks {bits} bits ({} touched pages): miss rate {:6.3}%",
            fp.len(),
            m * 100.0
        ),
        None => println!("  flexible sizing: the trace touches no memory"),
    }
}

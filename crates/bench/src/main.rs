//! `figures`: regenerates every table and figure of the paper's evaluation
//! (§7). Host-side performance is measured by the separate `benchmark/`
//! package, not here.
//!
//! ```sh
//! cargo run --release -p igm-bench --bin figures -- [figure]
//! ```
//!
//! One subcommand per function below: `fig10`, `fig11`, `fig12_table`,
//! `fig13`, `fig14` and `ablation` (not a paper figure). Without one it
//! prints Figures 10–14 in paper order, each under a banner. Figures 10,
//! 11 and Figure 12's `LMA` column come from co-simulated [`SimReport`]s,
//! the rest from the functional sweeps of [`igm_sim::sweep`]. Everything is
//! simulated, so the output repeats exactly. Record count defaults to 200k
//! per run and scales with the `N` environment variable (the paper uses
//! SPEC test inputs under the same constraint: simulation time).

use igm_core::{AccelConfig, IfGeometry, ItConfig};
use igm_lifeguards::LifeguardKind;
use igm_sim::sweep::{
    if_reduction, it_pass, it_reduction, mtlb_flexible, mtlb_miss_rate, trace_footprint,
};
use igm_sim::{SimConfig, SimReport, Simulator};
use igm_timing::SystemConfig;
use igm_workload::{Benchmark, MtBenchmark};
use std::ffi::OsStr;

/// A subcommand and the function printing its figure at `N` records per run.
type Figure = (&'static str, fn(u64));

/// The figures by name. Plain `figures` runs all but the last, in order.
const FIGURES: [Figure; 6] = [
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12_table", fig12_table),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablation", ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures: Vec<&Figure> = match args.as_slice() {
        [] => FIGURES[..5].iter().collect(),
        [name] => FIGURES.iter().filter(|(f, _)| f == name).collect(),
        _ => Vec::new(),
    };
    if figures.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        fail(&format!("unknown arguments {args:?}; usage: figures [{}]", names.join("|")));
    }
    let n = run_scale(std::env::var_os("N").as_deref()).unwrap_or_else(|e| fail(&e));
    for (name, run) in figures {
        if args.is_empty() {
            println!("\n################ {name} ################\n");
        }
        run(n);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2)
}

/// Records per simulation run: the `N` environment variable, 200k when it
/// is unset. Anything but a positive integer is an error naming the value.
fn run_scale(n: Option<&OsStr>) -> Result<u64, String> {
    let Some(v) = n else { return Ok(200_000) };
    v.to_str()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &u64| n > 0)
        .ok_or_else(|| format!("N must be a positive integer, got {v:?}"))
}

/// Runs one lifeguard × config over its benchmark suite (SPEC-like for the
/// single-threaded lifeguards, Table 3 for LockSet), returning per-
/// benchmark reports.
fn run_suite(cfg: &SimConfig, n: u64) -> Vec<SimReport> {
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
fn average_slowdown(reports: &[SimReport]) -> f64 {
    reports.iter().map(|r| r.slowdown()).sum::<f64>() / reports.len() as f64
}

/// The smallest and the largest of a series (the largest floored at 0).
fn min_max(vals: &[f64]) -> (f64, f64) {
    (vals.iter().cloned().fold(f64::MAX, f64::min), vals.iter().cloned().fold(0.0, f64::max))
}

/// Figure 10: per-benchmark slowdowns of the five lifeguards, LBA baseline
/// vs optimized, between the Table 2 system and the §7.2 headline.
fn fig10(n: u64) {
    println!("=== Figure 10: lifeguard slowdowns, LBA baseline vs optimized ===");
    println!("System (Table 2): {}", SystemConfig::isca08().describe());
    println!("Records per run: {n}\n");

    let mut reductions = Vec::new();
    let mut residuals = Vec::new();

    for kind in LifeguardKind::ALL {
        println!("--- {} ---", kind.name());
        let base = run_suite(&SimConfig::baseline(kind), n);
        let opt = run_suite(&SimConfig::optimized(kind), n);
        println!("{:<10} {:>10} {:>10}", "benchmark", "baseline", "optimized");
        for (b, o) in base.iter().zip(&opt) {
            println!(
                "{:<10} {:>9.2}x {:>9.2}x",
                b.benchmark.as_deref().unwrap_or("-"),
                b.slowdown(),
                o.slowdown()
            );
        }
        let (ab, ao) = (average_slowdown(&base), average_slowdown(&opt));
        println!("{:<10} {ab:>9.2}x {ao:>9.2}x\n", "Avg");
        reductions.push(ab / ao);
        if kind != LifeguardKind::MemCheck {
            residuals.push(ao - 1.0);
        }
    }

    let ((rmin, rmax), (omin, omax)) = (min_max(&reductions), min_max(&residuals));
    println!("=== §7.2 headline ===");
    println!("Overhead reduction over LBA baseline: {rmin:.1}-{rmax:.1}x  (paper: 2-3x)");
    println!(
        "Residual overhead, all lifeguards but MemCheck: {:.0}%-{:.0}%  (paper: 2%-51%)",
        omin * 100.0,
        omax * 100.0
    );
}

/// Figure 11: average slowdowns applying the three techniques one by one —
/// the BASE / LMA / LMA+IT / LMA+IT+IF (or LMA+IF) bars for each lifeguard.
fn fig11(n: u64) {
    println!("=== Figure 11: applying the techniques one by one (avg slowdowns) ===");
    println!("Records per run: {n}");
    println!(
        "(paper bars: AddrCheck 3.23/1.90/1.02 — MemCheck 7.80/6.05/3.81/3.27 — \
         TaintCheck 3.36/2.29/1.36 — detailed 4.21/2.71/1.51 — LockSet 4.25/3.20/1.40)\n"
    );

    for kind in LifeguardKind::ALL {
        // The per-lifeguard progression: BASE -> LMA -> (+IT if applicable)
        // -> (+IF if applicable); masking deduplicates inapplicable steps.
        let steps = [
            AccelConfig::baseline(),
            AccelConfig::lma(),
            AccelConfig::lma_it(),
            AccelConfig::full(),
        ];
        print!("{:<32}", kind.name());
        let mut last_label = String::new();
        for accel in steps {
            let cfg = SimConfig::with_accel(kind, accel);
            let label = cfg.accel.label();
            if label == last_label {
                continue; // masked to the same configuration: same bar
            }
            last_label = label.clone();
            let avg = average_slowdown(&run_suite(&cfg, n));
            print!("  {label}={avg:.2}x");
        }
        println!();
    }
}

/// The Figure 2 applicability matrix, then Figure 12: min–max across
/// benchmarks of the handler instructions `LMA` removes and of the update
/// (IT) and check (IF, 32 entries) events the filters remove.
fn fig12_table(n: u64) {
    fn band(vals: &[f64]) -> String {
        let (min, max) = min_max(vals);
        format!("{:.1}%-{:.1}%", min * 100.0, max * 100.0)
    }

    println!("=== Figure 2: applicability matrix ===");
    println!("{:<32} {:>4} {:>4} {:>6}", "lifeguard", "IT", "IF", "M-TLB");
    for kind in LifeguardKind::ALL {
        let s = kind.accel_support();
        let [it, filter, lma] =
            [s.it, s.idempotent_filter, s.lma].map(|y| if y { "yes" } else { "-" });
        println!("{:<32} {it:>4} {filter:>4} {lma:>6}", kind.name());
    }

    println!("\n=== Figure 12: reduced instructions and events across benchmarks ===");
    println!("Records per run: {n}");
    println!(
        "{:<32} {:>16} {:>16} {:>16}",
        "lifeguard", "LMA: dyn.instr", "IT: update ev", "IF: check ev"
    );

    let geom = IfGeometry::isca08();
    for kind in LifeguardKind::ALL {
        // LMA column: handler instructions the M-TLB removes, per benchmark.
        let base = run_suite(&SimConfig::baseline(kind), n);
        let lma = run_suite(&SimConfig::with_accel(kind, AccelConfig::lma()), n);
        let lma_band: Vec<f64> = base
            .iter()
            .zip(&lma)
            .map(|(b, l)| match b.timing.handler_instrs {
                0 => 0.0,
                b => 1.0 - l.timing.handler_instrs as f64 / b as f64,
            })
            .collect();

        let it_band: Option<Vec<f64>> = kind.accel_support().it.then(|| {
            let itc = ItConfig::for_etct(&kind.etct());
            Benchmark::ALL.iter().map(|b| it_reduction(b.trace(n), itc)).collect()
        });

        let if_band: Option<Vec<f64>> = kind.accel_support().idempotent_filter.then(|| {
            if kind == LifeguardKind::LockSet {
                MtBenchmark::ALL.iter().map(|b| if_reduction(b.trace(n), geom, kind)).collect()
            } else {
                Benchmark::ALL.iter().map(|b| if_reduction(b.trace(n), geom, kind)).collect()
            }
        });

        println!(
            "{:<32} {:>16} {:>16} {:>16}",
            kind.name(),
            band(&lma_band),
            it_band.map(|v| band(&v)).unwrap_or_else(|| "-".into()),
            if_band.map(|v| band(&v)).unwrap_or_else(|| "-".into()),
        );
    }
    println!("\n(paper: LMA 16.7%-49.3%; IT 24.9%-74.4%; IF 38.2%-77.8%, by lifeguard)");
}

/// Figure 13: (a) IT-removed propagation events per benchmark; (b)/(c)
/// IF-removed check events vs entries × ways, loads and stores combined
/// (AddrCheck-style) or separate (LockSet-style).
fn fig13(n: u64) {
    println!("=== Figure 13(a): IT-reduced propagation events (paper: 35.8%-82.0%) ===");
    for b in Benchmark::ALL {
        let r = it_reduction(b.trace(n), ItConfig::default());
        println!("{:<8} {:>5.1}%", b.name(), r * 100.0);
    }

    let entries = [8usize, 16, 32, 64, 128, 256];
    let ways = [0usize, 16, 8, 4, 2, 1];
    for (kind, label) in [
        (LifeguardKind::AddrCheck, "Figure 13(b): combined loads+stores (AddrCheck-style)"),
        (LifeguardKind::LockSet, "Figure 13(c): separate loads/stores (LockSet-style)"),
    ] {
        println!("\n=== {label}: IF-reduced check events, avg over benchmarks ===");
        print!("{:<12}", "entries:");
        for e in entries {
            print!("{e:>8}");
        }
        println!();
        for &w in &ways {
            let wl = if w == 0 { "full".to_owned() } else { format!("{w}-way") };
            print!("{wl:<12}");
            for &e in &entries {
                if w > e {
                    print!("{:>8}", "-");
                    continue;
                }
                let geom = if w == 0 {
                    IfGeometry::fully_associative(e)
                } else {
                    IfGeometry::set_associative(e, w)
                };
                // Average over benchmarks, as the paper plots.
                let sum: f64 =
                    Benchmark::ALL.iter().map(|b| if_reduction(b.trace(n), geom, kind)).sum();
                print!("{:>7.1}%", sum / Benchmark::ALL.len() as f64 * 100.0);
            }
            println!();
        }
    }
    println!("\n(paper: curves rise from ~20-30% at 8 entries to ~65-75% at 256;");
    println!(" 4 or more ways works as well as fully associative)");
}

/// Figure 14: (a) M-TLB miss rate vs level-1 bits × entries, maximum and
/// average over benchmarks; (b) fixed 20-bit vs footprint-adaptive level 1.
fn fig14(n: u64) {
    let entries = [16usize, 64, 256];
    let bits: Vec<u8> = (8..=20).rev().collect();

    println!("=== Figure 14(a): M-TLB miss rate vs level-1 bits and entries ===");
    print!("{:<10}", "l1 bits:");
    for b in &bits {
        print!("{b:>7}");
    }
    println!();
    for &e in &entries {
        let mut maxes = vec![0.0f64; bits.len()];
        let mut avgs = vec![0.0f64; bits.len()];
        for bench in Benchmark::ALL {
            for (i, &l1) in bits.iter().enumerate() {
                let m = mtlb_miss_rate(bench.trace(n), l1, e);
                maxes[i] = maxes[i].max(m);
                avgs[i] += m;
            }
        }
        avgs.iter_mut().for_each(|s| *s /= Benchmark::ALL.len() as f64);
        for (stat, rates) in [("max", maxes), ("avg", avgs)] {
            print!("{:<10}", format!("{e}-{stat}"));
            for m in rates {
                print!("{:>6.2}%", m * 100.0);
            }
            println!();
        }
    }

    println!("\n=== Figure 14(b): fixed 20-bit vs flexible level-1 sizing ===");
    println!(
        "{:<14} {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
        "benchmark", "fix-16", "fix-64", "fix-256", "flex-16", "flex-64", "flex-256"
    );
    // `-`: a trace that touches no memory has no footprint to size for.
    let cells = |rates: [Option<f64>; 3]| {
        rates
            .map(|r| r.map_or(format!("{:>10}", "-"), |r| format!("{:>9.3}%", r * 100.0)))
            .join(" ")
    };
    for bench in Benchmark::ALL {
        let fixed = entries.map(|e| Some(mtlb_miss_rate(bench.trace(n), 20, e)));
        let fp = trace_footprint(bench.trace(n));
        let flex = entries.map(|e| mtlb_flexible(&fp, bench.trace(n), e));
        let bits = flex[2].map_or("-".to_owned(), |(bits, _)| bits.to_string());
        let name = format!("{}({bits})", bench.name());
        println!("{name:<14} {}   {}", cells(fixed), cells(flex.map(|f| f.map(|(_, rate)| rate))));
    }
    println!(
        "\n(paper: fixed-20 misses up to 8.4%; flexible (10-15 bits chosen) mostly negligible)"
    );
}

/// Not a paper figure: what four design choices the paper argues for buy —
/// IT's clean-`%rs` "do nothing" rule (§4.3), IT's write-after-read
/// conflict detection (the events soundness costs), IF's separate
/// load/store categories (the cost of LockSet's split) and the two-level
/// shadow (the address space a one-level design reserves, §6.1).
fn ablation(n: u64) {
    println!("=== Ablation 1: IT clean-%rs 'do nothing' optimization (§4.3) ===");
    println!("{:<10} {:>12} {:>12}", "benchmark", "with opt", "without");
    for b in [Benchmark::Crafty, Benchmark::Gcc, Benchmark::Gzip, Benchmark::Vortex] {
        let with = it_reduction(b.trace(n), ItConfig::default());
        let without = it_reduction(
            b.trace(n),
            ItConfig { clean_rs_do_nothing: false, ..ItConfig::default() },
        );
        println!("{:<10} {:>11.1}% {:>11.1}%", b.name(), with * 100.0, without * 100.0);
    }

    println!("\n=== Ablation 2: cost of write-after-read conflict detection ===");
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "benchmark", "delivered(on)", "delivered(off)", "conflicts"
    );
    for b in [Benchmark::Gcc, Benchmark::Parser, Benchmark::Gzip] {
        let stats = |conflict_detection| {
            it_pass(b.trace(n), ItConfig { conflict_detection, ..ItConfig::default() }).1
        };
        let (on, off) = (stats(true), stats(false));
        println!(
            "{:<10} {:>14} {:>14} {:>10}",
            b.name(),
            on.prop_delivered + on.flush_events,
            off.prop_delivered + off.flush_events,
            on.conflict_events
        );
    }
    println!("(disabling conflict detection is UNSOUND; shown only to price soundness)");

    println!("\n=== Ablation 3: IF check categorization, same stream ===");
    println!("{:<10} {:>12} {:>12}", "benchmark", "combined", "separate");
    for b in [Benchmark::Crafty, Benchmark::Vortex, Benchmark::Parser] {
        let geom = IfGeometry::isca08();
        let c = if_reduction(b.trace(n), geom, LifeguardKind::AddrCheck);
        let s = if_reduction(b.trace(n), geom, LifeguardKind::LockSet);
        println!("{:<10} {:>11.1}% {:>11.1}%", b.name(), c * 100.0, s * 100.0);
    }

    println!("\n=== Ablation 4: one-level vs two-level shadow space (§6.1) ===");
    for bits in [1u64, 2, 8] {
        // A scale-and-offset map covers all 2^32 application bytes at once.
        let reserved = (1u64 << 32) * bits / 8;
        println!(
            "one-level, {bits} bit(s)/byte: reserves {} MB of lifeguard address space up front",
            reserved >> 20
        );
    }
    println!("two-level: allocates one chunk per touched region (see fig14 for miss rates)");
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

    #[test]
    fn run_scale_accepts_only_positive_integers() {
        let scale = |v: &str| run_scale(Some(OsStr::new(v)));
        assert_eq!(run_scale(None), Ok(200_000));
        assert_eq!(scale("20000"), Ok(20_000));
        assert_eq!(scale("1"), Ok(1));
        for bad in ["20k", "0", "-5", "", " 500", "2e4", "18446744073709551616"] {
            let err = scale(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }
}

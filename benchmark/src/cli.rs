//! Command line: the single-workload contract mode, `run` and `selfcheck`.
//!
//! ```text
//! igm-benchmark --workload W --seed N --seconds S --trace 0|1 [--scale X] [--out DIR]
//! igm-benchmark run [--workload W]… [--seed 1] [--scale 1.0] [--seconds 10] [--trace] [--out benchmark/out]
//! igm-benchmark selfcheck [--workload W]… [--seed 1] [--scale 1.0] [--seconds 10] [--out benchmark/out]
//! ```
//!
//! The contract mode runs one workload in this process (so `peak_rss_mb`
//! is that workload's own `VmHWM`) and prints the result object as its last
//! line. `run` re-executes this binary once per workload and prints every
//! metric by name with its unit; `selfcheck` does that twice with one seed
//! and fails if the two sets disagree by more than the benchmark's bounds.

use crate::harness::Ctx;
use crate::host::Host;
use crate::json::{self, Json};
use crate::metrics::{self, Better, MetricDecl};
use crate::workloads;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  igm-benchmark --workload W --seed N --seconds S --trace 0|1 [--scale X] [--out DIR]
  igm-benchmark run [--workload W]... [--seed N] [--scale X] [--seconds S] [--trace] [--out DIR]
  igm-benchmark selfcheck [--workload W]... [--seed N] [--scale X] [--seconds S] [--out DIR]
workloads: seq_check seq_propagate pool_tenants net_loopback lake_capture_query paced_detect cosim_figures";

/// Parsed options shared by all modes.
#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    scale: f64,
    seconds: f64,
    /// Contract mode: `--trace 0|1`. `run`: bare `--trace`.
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String], bare_trace: bool) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        scale: 1.0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if metrics::workload(w).is_none() {
                    return Err(format!("unknown workload {w:?}"));
                }
                o.workloads.push(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scale" => o.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => o.out = PathBuf::from(value()?),
            "--trace" if bare_trace => o.trace = true,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let positive = |v: f64| v > 0.0 && v.is_finite();
    if !positive(o.scale) || !positive(o.seconds) {
        return Err("--scale and --seconds must be positive".to_owned());
    }
    Ok(o)
}

/// Entry point; `args` excludes the program name.
pub fn main(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..], true).and_then(|o| run(&o)),
        Some("selfcheck") => parse(&args[1..], true).and_then(|o| selfcheck(&o)),
        Some("-h" | "--help") | None => Err(USAGE.to_owned()),
        Some(_) => parse(args, false).and_then(|o| single(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Contract mode: one workload, in this process.
fn single(o: &Options) -> Result<bool, String> {
    let [name] = o.workloads.as_slice() else {
        return Err(format!("exactly one --workload is required\n{USAGE}"));
    };
    let ctx = Ctx {
        seed: o.seed,
        scale: o.scale,
        seconds: o.seconds,
        out: o.out.clone(),
        host: Host::detect(),
    };
    std::fs::create_dir_all(&ctx.out)
        .map_err(|e| format!("creating {}: {e}", ctx.out.display()))?;
    let outcome = workloads::run(name, &ctx, o.trace).expect("parse() checked the name");
    for message in outcome.gate.messages() {
        eprintln!("FAILED: {message}");
    }
    let table: &[MetricDecl] = if o.trace { &metrics::PER_LAYER } else { &metrics::END_TO_END };
    println!(
        "{name} (seed {}, scale {}, {} windows, {} threads: {}; nproc {}, workers {})",
        o.seed,
        o.scale,
        outcome.windows,
        if o.trace { "traced" } else { "untraced" },
        outcome.threads,
        ctx.host.nproc,
        ctx.host.workers
    );
    for decl in table {
        if let Some(v) = outcome.metrics.get(decl.name) {
            println!("{}", metrics::render_line(decl, v));
        }
    }
    print!("{}", outcome.report);
    println!("{}", outcome.detail_line(&ctx));
    println!("{}", outcome.result_line());
    // The run completed and printed its result; whether the outputs were
    // correct is in the result itself.
    Ok(true)
}

/// One child's parsed output: its result object and the detail line
/// before it.
#[derive(Debug, Clone)]
struct ChildResult {
    workload: String,
    result: Json,
    detail: Json,
}

impl ChildResult {
    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool).unwrap_or(false)
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// `(name, value)` in printed order.
    fn values(&self) -> Vec<(&str, f64)> {
        let metrics = self.result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m.get("value").and_then(Json::as_f64).unwrap_or(0.0)))
            .collect()
    }
}

fn spawn_single(o: &Options, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--scale", &o.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&o.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (Some(result), Some(detail)) = (lines.last(), lines.len().checked_sub(2).map(|i| lines[i]))
    else {
        return Err(format!("{workload}: no result (exit {:?})", output.status.code()));
    };
    for line in &lines[..lines.len() - 2] {
        println!("{line}");
    }
    let result = Json::parse(result).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = Json::parse(detail).map_err(|e| format!("{workload}: bad detail line: {e}"))?;
    Ok(ChildResult { workload: workload.to_owned(), result, detail })
}

fn selected(o: &Options) -> Vec<String> {
    if o.workloads.is_empty() {
        metrics::WORKLOADS.iter().map(|w| w.name.to_owned()).collect()
    } else {
        o.workloads.clone()
    }
}

/// One full set: every selected workload untraced, and traced if asked.
fn run_set(o: &Options, trace: bool) -> Result<Vec<ChildResult>, String> {
    let mut results = Vec::new();
    for workload in selected(o) {
        results.push(spawn_single(o, &workload, false)?);
        if trace {
            results.push(spawn_single(o, &workload, true)?);
        }
    }
    Ok(results)
}

fn results_json(results: &[ChildResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("detail".to_owned(), r.detail.clone()),
                    ("result".to_owned(), r.result.clone()),
                ])
            })
            .collect(),
    )
}

fn run(o: &Options) -> Result<bool, String> {
    let results = run_set(o, o.trace)?;
    let path = o.out.join("results.json");
    std::fs::create_dir_all(&o.out)
        .and_then(|()| std::fs::write(&path, results_json(&results).render() + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\n{:<20} {:>9} {:>7}  correct", "workload", "attempted", "failed");
    for r in &results {
        let traced = r.detail.get("traced").and_then(Json::as_bool).unwrap_or(false);
        println!(
            "{:<20} {:>9} {:>7}  {}{}",
            r.workload,
            r.count("attempted"),
            r.count("failed"),
            r.correct(),
            if traced { "  (traced)" } else { "" }
        );
    }
    println!("results: {}", path.display());
    Ok(results.iter().all(ChildResult::correct))
}

/// How much worse `b` is than `a` in `decl`'s direction, as a share of `a`
/// (negative = better).
fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match decl.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The noise floor: two sets back to back with one seed. Fails if any
/// end-to-end metric of set B is outside its bound of set A, if an exact
/// per-layer metric differs at all, or if any operation failed.
fn selfcheck(o: &Options) -> Result<bool, String> {
    println!("selfcheck: set A");
    let a = run_set(o, true)?;
    println!("selfcheck: set B");
    let b = run_set(o, true)?;
    let mut ok = true;
    println!(
        "\n{:<20} {:<44} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for (ra, rb) in a.iter().zip(&b) {
        if !(ra.correct() && rb.correct()) {
            ok = false;
            println!(
                "{:<20} operations failed: A {} B {}",
                ra.workload,
                ra.count("failed"),
                rb.count("failed")
            );
        }
        for ((name, va), (_, vb)) in ra.values().iter().zip(&rb.values()) {
            let Some(decl) = metrics::metric(name) else { continue };
            let verdict = match (decl.bound, decl.exact) {
                (Some(bound), _) => {
                    let worse = worsening(decl, *va, *vb);
                    let pass = worse <= bound;
                    ok &= pass;
                    Some((
                        format!("{:+.1}%", worse * 100.0),
                        format!("{:.0}%", bound * 100.0),
                        pass,
                    ))
                }
                (None, true) => {
                    let pass = va == vb;
                    ok &= pass;
                    // Exact metrics are listed only when they disagree.
                    (!pass).then(|| ("differs".to_owned(), "exact".to_owned(), false))
                }
                (None, false) => None,
            };
            if let Some((delta, bound, pass)) = verdict {
                println!(
                    "{:<20} {:<44} {:>14} {:>14} {:>9} {:>7}  {}",
                    ra.workload,
                    name,
                    json::num(*va),
                    json::num(*vb),
                    delta,
                    bound,
                    if pass { "ok" } else { "FAIL" }
                );
            }
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

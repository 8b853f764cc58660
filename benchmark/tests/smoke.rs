//! `--scale 0.01` smoke of all seven workloads, untraced and traced:
//! nothing fails, every end-to-end metric is non-zero, and the printed
//! vocabulary is exactly the declared one.

mod common;

use igm_benchmark::json::Json;
use igm_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use igm_benchmark::workloads;

fn metric_names(result_line: &str) -> Vec<String> {
    let json = Json::parse(result_line).unwrap();
    let keys: Vec<&str> = json.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
    assert!(json.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(json.get("failed").unwrap().as_f64(), Some(0.0));
    json.get("metrics").unwrap().as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
}

fn smoke(workload: &str) {
    let ctx = common::tiny_ctx(&format!("smoke-{workload}"), 1);

    let outcome = workloads::run(workload, &ctx, false).unwrap();
    assert_eq!(outcome.gate.failed, 0, "{workload}: {:?}", outcome.gate.messages());
    assert_eq!(outcome.gate.failed_share(), 0.0);
    assert!(outcome.gate.attempted > 0);
    for decl in &END_TO_END {
        let v = outcome.metrics.get(decl.name).unwrap();
        assert!(v > 0.0 && v.is_finite(), "{workload}: {} = {v}", decl.name);
    }
    let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(metric_names(&outcome.result_line()), declared);
    let detail = Json::parse(&outcome.detail_line(&ctx)).unwrap();
    for key in ["nproc", "workers", "commit", "rustc"] {
        assert!(detail.get("host").unwrap().get(key).is_some(), "host.{key}");
    }
    for key in ["threads", "seed", "scale", "windows"] {
        assert!(detail.get(key).is_some(), "{key}");
    }

    let traced = workloads::run(workload, &ctx, true).unwrap();
    assert_eq!(traced.gate.failed, 0, "{workload} traced: {:?}", traced.gate.messages());
    let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(metric_names(&traced.result_line()), declared);
    assert!(traced.metrics.get("harness.trace_overhead_share").is_some());
    assert!(traced.metrics.get("workload.gen_records_per_s").unwrap() > 0.0);
    assert!(traced.report.contains("layer"), "{}", traced.report);
    let spans = std::fs::read_to_string(ctx.out.join(format!("{workload}.spans.json"))).unwrap();
    let spans = Json::parse(&spans).unwrap();
    assert!(!spans.get("spans").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn seq_check() {
    smoke("seq_check");
}

#[test]
fn seq_propagate() {
    smoke("seq_propagate");
}

#[test]
fn pool_tenants() {
    smoke("pool_tenants");
}

#[test]
fn net_loopback() {
    smoke("net_loopback");
}

#[test]
fn lake_capture_query() {
    smoke("lake_capture_query");
}

#[test]
fn paced_detect() {
    smoke("paced_detect");
}

#[test]
fn cosim_figures() {
    smoke("cosim_figures");
}

#[test]
fn every_declared_workload_has_a_smoke_test_and_a_runner() {
    let covered = [
        "seq_check",
        "seq_propagate",
        "pool_tenants",
        "net_loopback",
        "lake_capture_query",
        "paced_detect",
        "cosim_figures",
    ];
    let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, covered);
    let ctx = common::tiny_ctx("smoke-unknown", 1);
    assert!(workloads::run("no_such_workload", &ctx, false).is_none());
}

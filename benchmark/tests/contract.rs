//! `/BENCHMARK.json` mirrors the harness's declared vocabulary, within the
//! contract's limits — and vice versa.

use igm_benchmark::json::Json;
use igm_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is limited to 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let paths: Vec<&str> =
        m.get("paths").unwrap().as_arr().unwrap().iter().map(|p| p.as_str().unwrap()).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> =
        m.get("command").unwrap().as_arr().unwrap().iter().map(|p| p.as_str().unwrap()).collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert_eq!(command[0], "cargo");
    // Every repository path the command names lies under `paths`.
    for arg in command.iter().filter(|a| a.contains('/')) {
        assert!(arg.starts_with("benchmark/") && !arg.contains(".."), "{arg}");
    }
    let seconds = m.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(seconds == seconds.trunc() && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, set-up and two builds included, in 3420 s.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(runs * (seconds + 8.0) + 2.0 * 120.0 < 3420.0, "{runs} runs of {seconds} s");
}

#[test]
fn workloads_match_the_harness() {
    let m = manifest();
    let listed = m.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, decl) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(entry.get("name").unwrap().as_str(), Some(decl.name));
        assert_eq!(entry.get("why").unwrap().as_str(), Some(decl.why));
        assert!(is_name(decl.name));
        assert!(
            decl.why.len() <= 200 && !decl.why.contains('\n'),
            "{}: {}",
            decl.name,
            decl.why.len()
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_harness() {
    let m = manifest();
    let listed = m.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&listed.len()));
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, decl) in listed.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(entry.get("name").unwrap().as_str(), Some(decl.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(decl.unit));
        assert_eq!(entry.get("better").unwrap().as_str(), Some(decl.better.as_str()));
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert_eq!(Some(bound), decl.bound);
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", decl.name);
        assert!(is_name(decl.name) && is_unit(decl.unit));
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    // Set-up time gets the largest bound.
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match_the_harness() {
    let m = manifest();
    let listed = m.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&listed.len()));
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, decl) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(entry.get("name").unwrap().as_str(), Some(decl.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(decl.unit));
        assert_eq!(entry.get("better").unwrap().as_str(), Some(decl.better.as_str()));
        assert!(decl.bound.is_none());
        assert!(is_name(decl.name) && is_unit(decl.unit), "{}", decl.name);
    }
}

#[test]
fn every_name_is_used_once() {
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|d| d.name))
        .chain(PER_LAYER.iter().map(|d| d.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);
}

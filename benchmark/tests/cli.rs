//! The binary's contract mode, as the driver invokes it.

use igm_benchmark::json::Json;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_igm-benchmark"))
}

#[test]
fn contract_mode_prints_the_result_object_last_and_exits_zero() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli");
    for (trace, first_metric) in [("0", "setup_s"), ("1", "workload.gen_records_per_s")] {
        let output = bench()
            .args(["--workload", "seq_check", "--seed", "7", "--seconds", "0.05"])
            .args(["--trace", trace, "--scale", "0.01"])
            .arg("--out")
            .arg(&out)
            .output()
            .unwrap();
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8(output.stdout).unwrap();
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = last.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").unwrap().as_bool(), Some(true));
        let metrics = last.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics[0].0, first_metric);
        assert!(metrics.iter().all(|(_, m)| m.get("value").is_some() && m.get("unit").is_some()));
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "seq_check", "--trace", "2"],
        vec!["--seed", "1", "--seconds", "1", "--trace", "0"],
        vec![],
    ] {
        let output = bench().args(&args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

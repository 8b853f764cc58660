//! The `figures` binary's stdout, pinned. At `N = 500`, plain `figures`
//! (Figures 10–14 under their banners) and `figures ablation` keep the
//! lengths and FNV-1a-64 checksums the output had when each figure was its
//! own binary. Every number is simulated, so any change to the
//! co-simulator, the accelerator models or the sweeps that moves a printed
//! figure fails here.

use std::process::{Command, Output};

fn figures(n: &str, args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_figures");
    Command::new(bin).args(args).env("N", n).output().expect("the figures binary runs")
}

fn assert_stdout(args: &[&str], len: usize, fnv: u64) {
    let out = figures("500", args);
    assert!(out.status.success(), "figures {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let fnv1a = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    let got = (out.stdout.len(), out.stdout.iter().fold(0xcbf2_9ce4_8422_2325, fnv1a));
    assert_eq!(got, (len, fnv), "figures {args:?}:\n{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn all_figures_print_the_pinned_tables() {
    assert_stdout(&[], 7_665, 0xb29d_ac8c_31f6_504c);
}

#[test]
fn ablation_prints_the_pinned_tables() {
    assert_stdout(&["ablation"], 1_182, 0x1cfa_4348_20b4_27e8);
}

/// At `N = 200` some benchmark's records touch no memory, so Figure 14(b)
/// has no footprint to size a flexible design for: that row prints `-`.
#[test]
fn fig14_prints_a_dash_for_a_trace_without_memory_accesses() {
    let out = figures("200", &["fig14"]);
    assert!(out.status.success(), "figures fig14: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(-)"), "no flexible row without a footprint:\n{stdout}");
}

#[test]
fn malformed_scale_is_refused_by_name() {
    let out = figures("20k", &["fig10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"20k\""));
}

//! The order statistics every reported number goes through.

use igm_benchmark::stats::{
    geomean, highest_supported_percentile, median, percentile_sorted, quartiles, sorted, tail,
    Summary,
};

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
    assert_eq!(quartiles(&[10.0, 20.0, 30.0]), (10.0, 30.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // p99 has ten samples beyond it from 1000 samples on, p90 from 100,
    // p99.9 from 10 000; below 20 samples only the median is supported.
    assert_eq!(highest_supported_percentile(999), 0.9);
    assert_eq!(highest_supported_percentile(1_000), 0.99);
    assert_eq!(highest_supported_percentile(99), 0.5);
    assert_eq!(highest_supported_percentile(100), 0.9);
    assert_eq!(highest_supported_percentile(10_000), 0.999);
    assert_eq!(highest_supported_percentile(0), 0.5);
}

#[test]
fn tail_lowers_an_unsupported_percentile() {
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    // 200 samples support p90 (20 beyond) but not p99 (2 beyond).
    assert_eq!(tail(&v, 0.99), (0.9, 180.0));
    let v: Vec<f64> = (1..=2_000).map(f64::from).collect();
    assert_eq!(tail(&v, 0.99), (0.99, 1_980.0));
    assert_eq!(tail(&v, 0.5), (0.5, 1_000.0));
}

#[test]
fn nearest_rank_percentiles() {
    let s = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
    assert_eq!(percentile_sorted(&s, 0.5), 3.0);
    assert_eq!(percentile_sorted(&s, 1.0), 5.0);
    assert_eq!(percentile_sorted(&s, 0.0), 1.0);
    assert_eq!(percentile_sorted(&[], 0.5), 0.0);
}

#[test]
fn geomean_pools_unlike_classes() {
    assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    assert_eq!(geomean(&[]), 0.0);
    assert_eq!(geomean(&[1.0, 0.0]), 0.0);
}

#[test]
fn summary_carries_count_and_quartiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(Summary::of(&v), Summary { n: 10, median: 5.5, q1: 2.75, q3: 8.25 });
}

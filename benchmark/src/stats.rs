//! Order statistics for timing samples.
//!
//! Every reported timing is a median; a tail percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the harness ever reports, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count).
/// Zero for no samples.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance spread is computed from. Needs two samples; fewer
/// yield the single value (or zero) twice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based order statistics, the index clamped
        // to the sample and the value linearly interpolated (for two
        // samples Python extrapolates; so does this).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` (0..=1) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps a product like 0.9 * 200 from rounding up a rank.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAILS`] that `n` samples support: at least
/// [`MIN_BEYOND`] samples lie beyond it. The median is always supported.
pub fn highest_supported_percentile(n: usize) -> f64 {
    for p in TAILS {
        let beyond = n as f64 * (1.0 - p);
        if beyond + 1e-9 >= MIN_BEYOND as f64 {
            return p;
        }
    }
    0.5
}

/// The `wanted` percentile of `values`, lowered to the highest one the
/// sample count supports. Returns `(percentile used, value)`.
pub fn tail(values: &[f64], wanted: f64) -> (f64, f64) {
    let p = wanted.min(highest_supported_percentile(values.len()));
    (p, percentile_sorted(&sorted(values), p))
}

/// Geometric mean (zero if any value is non-positive or the slice is
/// empty). Used to pool latencies of unlike classes so the slowest class
/// does not decide the pooled figure alone.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median, quartiles and count of one metric's window samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { n: values.len(), median: median(values), q1, q3 }
    }
}

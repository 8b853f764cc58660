//! The lock-free metrics registry: striped counters, gauges and
//! log₂-bucketed histograms behind cheap cloneable handles.
//!
//! Registration (naming a metric, attaching labels) takes a mutex — it
//! happens once, at pool/server construction. The *record* path never
//! does: a [`Counter`] add is one relaxed `fetch_add` on a cache-padded
//! stripe chosen per handle clone (so per-worker handle clones never
//! contend), a [`Gauge`] update is one atomic, and a [`Histogram`] record
//! is two relaxed `fetch_add`s on a fixed-size bucket array. Nothing on
//! the record path allocates, locks, or branches on anything but one
//! predictable `enabled` test — the same discipline the repo's
//! `tests/alloc_free.rs` enforces for dispatch.
//!
//! Histograms use log₂ bucketing: value `v > 0` lands in bucket
//! `64 - v.leading_zeros()`, i.e. bucket `i` covers `[2^(i-1), 2^i)`;
//! bucket 0 holds exact zeros. 65 buckets cover the full `u64` range with
//! no configuration and no allocation, which is all a nanosecond latency
//! distribution needs (bucket resolution is a constant factor of 2).

use crate::events::EventRing;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stripes per counter. Handle clones round-robin over them, so up to
/// this many workers increment disjoint cache lines.
pub const COUNTER_STRIPES: usize = 16;

/// The workspace version baked into every scrape (`igm_build_info`).
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// A git-ish build revision: set `IGM_BUILD_REVISION` at compile time
/// (e.g. `IGM_BUILD_REVISION=$(git rev-parse --short HEAD) cargo build`)
/// to stamp scrapes with the exact tree; defaults to `"dev"`.
pub const BUILD_REVISION: &str = match option_env!("IGM_BUILD_REVISION") {
    Some(rev) => rev,
    None => "dev",
};

/// Histogram bucket count: bucket 0 for zero, buckets 1..=64 for each
/// power-of-two range of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One cache line per stripe so two workers' counters never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

#[derive(Debug)]
struct CounterCore {
    stripes: [Stripe; COUNTER_STRIPES],
    /// Next stripe a handle clone claims.
    next: AtomicUsize,
}

impl Default for CounterCore {
    fn default() -> CounterCore {
        CounterCore { stripes: Default::default(), next: AtomicUsize::new(1) }
    }
}

impl CounterCore {
    fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A monotone counter handle. Cloning claims the next stripe, so handing
/// each worker its own clone shards the hot increments across cache
/// lines; all clones fold into one value at snapshot time.
#[derive(Debug)]
pub struct Counter {
    core: Arc<CounterCore>,
    stripe: usize,
}

impl Clone for Counter {
    fn clone(&self) -> Counter {
        let stripe = self.core.next.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
        Counter { core: Arc::clone(&self.core), stripe }
    }
}

impl Counter {
    fn new(core: Arc<CounterCore>) -> Counter {
        Counter { core, stripe: 0 }
    }

    /// A counter attached to no registry: fully functional, but appears in
    /// no snapshot. The default observer for instrumentable paths that are
    /// not wired to a registry.
    pub fn detached() -> Counter {
        Counter::new(Arc::default())
    }

    /// Adds `n` (one relaxed `fetch_add` on this handle's stripe).
    #[inline]
    pub fn add(&self, n: u64) {
        self.core.stripes[self.stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across every stripe. Monotone: each stripe only ever
    /// grows, so two sequential reads can never observe a decrease.
    pub fn value(&self) -> u64 {
        self.core.sum()
    }
}

#[derive(Debug, Default)]
struct GaugeCore(AtomicI64);

/// An up/down gauge handle (live occupancy, open sessions, …).
#[derive(Debug, Clone)]
pub struct Gauge {
    core: Arc<GaugeCore>,
}

impl Gauge {
    /// A gauge attached to no registry: fully functional, but appears in
    /// no snapshot (see [`Counter::detached`]).
    pub fn detached() -> Gauge {
        Gauge { core: Arc::default() }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.core.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.core.0.fetch_sub(delta, Ordering::Relaxed);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.core.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.core.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    /// False only for [`Histogram::disabled`]: its `record` is a no-op and
    /// [`Histogram::start`] skips the `Instant::now()`.
    enabled: bool,
}

impl HistogramCore {
    fn new(enabled: bool) -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            enabled,
        }
    }
}

/// The log₂ bucket a value lands in: 0 for zero, else
/// `64 - leading_zeros` (bucket `i` covers `[2^(i-1), 2^i)`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`2^i - 1`; bucket 0 → 0,
/// bucket 64 → `u64::MAX`).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    debug_assert!(i < HISTOGRAM_BUCKETS);
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size log₂ histogram handle (latency distributions in
/// nanoseconds, sizes in bytes — any `u64`).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// A detached, permanently disabled histogram: every operation is a
    /// no-op and it appears in no snapshot. The default observer for
    /// paths that can be instrumented but are not attached to a registry.
    pub fn disabled() -> Histogram {
        Histogram { core: Arc::new(HistogramCore::new(false)) }
    }

    /// Records one observation: two relaxed `fetch_add`s, no locks, no
    /// allocation. No-op when disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.core.enabled {
            return;
        }
        self.core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Starts a latency measurement; `None` (and no `Instant::now()`
    /// call) when the histogram is disabled. Pair with
    /// [`Histogram::stop`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.core.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the nanoseconds elapsed since [`Histogram::start`]
    /// (no-op for a `None` start).
    #[inline]
    pub fn stop(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Point-in-time bucket/sum view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot { buckets, sum: self.core.sum.load(Ordering::Relaxed) }
    }
}

/// A point-in-time histogram view. The observation count is *derived*
/// from the buckets (`count() == ` Σ buckets by construction), so a
/// snapshot taken mid-hammer is always internally consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries;
    /// bucket `i` spans `(bucket_upper_bound(i-1), bucket_upper_bound(i)]`).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations (Σ buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }
}

/// What kind of metric a registration produced.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Registered {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// The process-wide metric directory.
///
/// One registry is shared by everything that should land on one stats
/// endpoint — the pool, the ingest front-end, the net server, a client
/// forwarder. Registration is idempotent on `(name, labels)`: two
/// subsystems asking for the same counter share one core, so a second
/// pool on the same registry accumulates into the same totals.
///
/// # Example
///
/// ```
/// use igm_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let records = reg.counter("igm_records_total", "records processed");
/// let latency = reg.histogram("igm_batch_nanos", "per-batch latency");
/// records.add(3);
/// latency.record(700);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter_value("igm_records_total"), Some(3));
/// assert!(snap.to_prometheus().contains("igm_records_total 3"));
/// ```
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Registered>>,
    events: EventRing,
    started: Instant,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.metrics.lock().unwrap().len())
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            metrics: Mutex::new(Vec::new()),
            events: EventRing::new(EventRing::DEFAULT_CAPACITY),
            started: Instant::now(),
        }
    }

    /// The registry's structured lifecycle-event ring, served by the same
    /// stats endpoint as the metrics.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Nanoseconds since the registry was created.
    pub fn uptime_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut metrics = self.metrics.lock().unwrap();
        if let Some(existing) = metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels.iter().zip(labels).all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return existing.handle.clone();
        }
        let handle = make();
        metrics.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric type.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, || Handle::Counter(Arc::default())) {
            Handle::Counter(core) => Counter::new(core),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type mismatch (see [`MetricsRegistry::counter_with`]).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, || Handle::Gauge(Arc::default())) {
            Handle::Gauge(core) => Gauge { core },
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or finds) a labeled histogram.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type mismatch (see [`MetricsRegistry::counter_with`]).
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self
            .register(name, help, labels, || Handle::Histogram(Arc::new(HistogramCore::new(true))))
        {
            Handle::Histogram(core) => Histogram { core },
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A typed point-in-time view of every registered metric, in
    /// registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for m in metrics.iter() {
            let (name, help, labels) = (m.name.clone(), m.help.clone(), m.labels.clone());
            match &m.handle {
                Handle::Counter(core) => {
                    counters.push(CounterSample { name, help, labels, value: core.sum() })
                }
                Handle::Gauge(core) => gauges.push(GaugeSample {
                    name,
                    help,
                    labels,
                    value: core.0.load(Ordering::Relaxed),
                }),
                Handle::Histogram(core) => histograms.push(HistogramSample {
                    name,
                    help,
                    labels,
                    hist: Histogram { core: Arc::clone(core) }.snapshot(),
                }),
            }
        }
        MetricsSnapshot {
            uptime_nanos: self.uptime_nanos(),
            build_version: BUILD_VERSION.to_owned(),
            build_revision: BUILD_REVISION.to_owned(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter's sampled value.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Metric name (`igm_pool_records_total`, …).
    pub name: String,
    /// One-line meaning.
    pub help: String,
    /// Label pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// Sampled total.
    pub value: u64,
}

/// One gauge's sampled value.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// One-line meaning.
    pub help: String,
    /// Label pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// Sampled value.
    pub value: i64,
}

/// One histogram's sampled distribution.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// One-line meaning.
    pub help: String,
    /// Label pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// The bucket/sum view.
    pub hist: HistogramSnapshot,
}

/// A typed aggregation of every metric in a registry at one instant —
/// what the exporters ([`MetricsSnapshot::to_json`],
/// [`MetricsSnapshot::to_prometheus`]) and the stats endpoint serve.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the registry was created.
    pub uptime_nanos: u64,
    /// Package version ([`BUILD_VERSION`]) — the `igm_build_info`
    /// `version` label, so scrapes are self-describing.
    pub build_version: String,
    /// Build revision ([`BUILD_REVISION`]) — the `igm_build_info`
    /// `revision` label.
    pub build_revision: String,
    /// Counters, in registration order.
    pub counters: Vec<CounterSample>,
    /// Gauges, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, in registration order.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The value of the (first) counter named `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The value of the (first) gauge named `name`, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The (first) histogram sample matching `name` and, when given, a
    /// label pair.
    pub fn histogram_sample(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
    ) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| {
            h.name == name
                && label.is_none_or(|(k, v)| h.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }
}

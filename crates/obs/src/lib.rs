//! `igm-obs` — unified observability for the instruction-grain monitor.
//!
//! The paper's argument is quantitative (event reductions, stalls,
//! slowdowns per lifeguard), so the monitor-of-monitors must be
//! observable *live*, not just via end-of-run reports. This crate is the
//! std-only layer the rest of the workspace hangs its telemetry on:
//!
//! - [`registry`] — the lock-free [`MetricsRegistry`]: striped
//!   [`Counter`]s (per-worker handle clones increment disjoint cache
//!   lines), [`Gauge`]s, and log₂-bucketed fixed-size [`Histogram`]s.
//!   Zero allocation and no locks on the record path — the same
//!   discipline the repo's `tests/alloc_free.rs` enforces for dispatch.
//! - [`events`] — the bounded [`EventRing`] of typed lifecycle events
//!   (session open/close, steal, lane failure, handshake reject,
//!   violation) with monotone sequence numbers.
//! - [`export`] — [`MetricsSnapshot::to_prometheus`] /
//!   [`MetricsSnapshot::to_json`] and the events-JSON rendering.
//! - [`server`] — [`StatsServer`], a one-thread `std::net` HTTP endpoint
//!   serving `/metrics`, `/stats.json`, `/events.json?since=N`, and —
//!   when [`StatsServer::serve`] is handed a span
//!   [`igm_span::FlightRecorder`] — `/spans.json?since=N` plus a Chrome
//!   trace-event `/trace` export.
//!
//! # Example
//!
//! ```
//! use igm_obs::{MetricsRegistry, StatsServer};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let records = registry.counter("igm_pool_records_total", "records processed");
//! records.add(42);
//!
//! let server = StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, Vec::new()).unwrap();
//! println!("scrape http://{}/metrics", server.local_addr());
//! // ... run the pool; drop the server to stop serving.
//! ```

#![deny(missing_docs)]

pub mod events;
pub mod export;
pub mod query;
pub mod registry;
pub mod server;

pub use events::{Detail, EventKind, EventRing, EventsSnapshot, ObsEvent};
pub use export::json_str;
pub use query::{Query, QueryError};
pub use registry::{
    bucket_index, bucket_upper_bound, Counter, CounterSample, Gauge, GaugeSample, Histogram,
    HistogramSample, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, COUNTER_STRIPES,
    HISTOGRAM_BUCKETS,
};
pub use server::{RouteHandler, RouteResponse, StatsServer};

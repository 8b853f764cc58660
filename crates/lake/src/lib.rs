//! # igm-lake — the queryable trace lake
//!
//! The capture layer leaves per-tenant artifacts on disk: `<stem>.igmt`
//! trace files (compressed record frames) and `<stem>.igmx` sidecars
//! (frame directory + per-frame compressed-bitmap posting lists, see
//! [`igm_trace::postings`]). This crate turns a directory of those
//! artifacts into a *lake* a forensic question can be asked of:
//!
//! - [`catalog`] — [`TraceLake`]: discovers `(trace, sidecar)` pairs
//!   under one directory, loads (or rebuilds and saves) the `IGMX` v2
//!   posting index for each, and keys every trace by its
//!   [`igm_span::RecordId`] coordinates — `tenant = tenant_id(stem)`,
//!   `trace = trace_id(stem)` — so a record id surfaced by a violation
//!   event or a query seeks straight back into its artifact.
//! - [`query`] — [`LakeQuery`]: a conjunctive filter over the four
//!   posting dimensions (pc bucket, opcode class, address page,
//!   violation site) with comma-OR and `!`-NOT per dimension, plus an
//!   optional record-sequence range. Evaluation is pure bitmap algebra
//!   over the sidecar ([`igm_trace::FrameSet`] OR/AND/NOT per frame):
//!   **no trace payload is decoded** — frames whose postings cannot
//!   match are skipped from the directory alone.
//! - [`routes`] — [`LakeRoutes`]: an [`igm_obs::RouteHandler`] mounting
//!   `/lake/traces.json` and `/lake/query` on the stats server
//!   ([`igm_runtime::MonitorPool::serve_stats`]), with
//!   `igm_lake_*` metrics on the shared registry.
//!
//! The only payload decoding the lake ever does is *neighborhood*
//! inspection: [`TraceLake::neighborhood`] seeks to the frame holding a
//! requested record (via the frame directory) and decodes just the
//! frames its ±k window touches; [`TraceLake::replay_around`] drives
//! the same window through a fresh lifeguard session
//! ([`igm_trace::replay_window`]).
//!
//! # Example
//!
//! ```
//! use igm_lake::{LakeQuery, TraceLake};
//! use igm_lifeguards::LifeguardKind;
//! use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
//! use igm_trace::{capture_to_lake, op_class};
//! use igm_workload::Benchmark;
//!
//! let dir = std::env::temp_dir().join("igm-lake-doc");
//! let pool = MonitorPool::new(PoolConfig::with_workers(2));
//! let cfg = SessionConfig::new("gzip", LifeguardKind::AddrCheck)
//!     .synthetic()
//!     .premark(&Benchmark::Gzip.profile().premark_regions());
//! let mut cap = capture_to_lake(&pool, cfg, &dir).unwrap();
//! cap.stream(Benchmark::Gzip.trace(2_000)).unwrap();
//! cap.finish().unwrap();
//! pool.shutdown();
//!
//! let lake = TraceLake::open(&dir).unwrap();
//! let q = LakeQuery::new().include(igm_trace::Dim::OpClass, op_class::STORE);
//! let hits = lake.query(Some("gzip"), &q, 10).unwrap();
//! assert!(hits.matched > 0); // answered from the sidecar alone
//! ```

#![deny(missing_docs)]

pub mod catalog;
pub mod query;
pub mod routes;

pub use catalog::{LakeError, LakeTrace, TraceLake};
pub use query::{DimTerms, LakeHits, LakeQuery};
pub use routes::LakeRoutes;

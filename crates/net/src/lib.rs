//! # igm-net — cross-host trace ingest
//!
//! The paper's Log-Based Architecture ships the compressed instruction
//! log from the application core to the lifeguard core over a dedicated
//! hardware transport; everything else in this workspace keeps both ends
//! in one process. This crate is that transport stretched across hosts —
//! the software analogue of FireGuard-style decoupled analysis engines
//! and of the ARM-SoC work that exports instrumentation streams over
//! debug transports: monitored applications anywhere on the network
//! stream their logs into a central
//! [`MonitorPool`](igm_runtime::MonitorPool). Std-only (`std::net`), no
//! new dependencies. Three pieces:
//!
//! * [`wire`] — the length-delimited message protocol. A handshake
//!   (`HELLO`: magic, protocol version, tenant name, requested
//!   [`LifeguardKind`](igm_lifeguards::LifeguardKind) and accelerator
//!   configuration, premarked regions), chunk messages carrying the
//!   existing `igm-trace` codec **frames verbatim**, a clean-shutdown
//!   `FIN` with the record count sent, and typed [`NetError`]s for version
//!   mismatch, corruption and truncation.
//! * [`server`] — [`IngestServer`]: one thread accepts N tenant
//!   connections and plugs each into the shared multiplexed
//!   [`Ingestor`](igm_trace::Ingestor) as a readiness-polled socket lane
//!   ([`NetSource`]), so a single OS thread still drives every remote
//!   tenant with the same fairness and per-lane backpressure machinery as
//!   local pipe lanes.
//! * [`client`] — [`TraceForwarder`]: ships a live record stream or a
//!   recorded trace stream, one codec frame per chunk message.
//!
//! **Backpressure is TCP's.** When a slow lifeguard lets a tenant's log
//! channel fill, the ingest lane stages its refused batch and stops
//! reading that tenant's socket; the kernel's receive buffer fills, TCP
//! closes its window, and the remote producer's write *stalls* —
//! mirroring the paper's bounded in-cache log buffer, where a full buffer
//! stalls the application core rather than growing without bound. The
//! receive window is the byte credit the server grants. Client-side stalls
//! are counted ([`ForwarderStats::credit_stalls`]), server-side refusals
//! appear as the lane's `deferred_sends`.
//!
//! Because a forwarded stream reaches the pool as the same frames with
//! the same batch boundaries and the same session configuration as a
//! local run, the results are *identical*: violations and dispatch stats
//! of a workload streamed through `TraceForwarder` → `IngestServer` →
//! `MonitorPool` equal the local run's, for all five lifeguards
//! (asserted end to end by `tests/equivalence.rs`'s `wire` column).

pub mod client;
pub mod server;
pub mod source;
pub mod wire;

pub use client::{ForwarderConfig, ForwarderReport, ForwarderStats, TraceForwarder};
pub use server::{IngestServer, NetServerConfig, NetServerReport};
pub use source::NetSource;
pub use wire::{NetError, MAX_MESSAGE_BYTES, NET_MAGIC, NET_VERSION, SPAN_PREFIX_BYTES};

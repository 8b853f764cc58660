//! Log-Based Architecture (LBA) substrate.
//!
//! LBA (paper §3) captures a log record for every instruction retired by the
//! monitored application, compresses it, ships it through a buffer in the
//! shared on-chip cache, and redelivers it as one or more *events* to the
//! lifeguard running on another core. This crate provides:
//!
//! * [`record`] — the compressed-record size model used for log-buffer
//!   occupancy accounting, and the size-bounded chunker.
//! * [`batch`] — the structure-of-arrays [`TraceBatch`]: one transport
//!   chunk as parallel per-field columns (the software analogue of the
//!   hardware's compressed per-field record streams), the unit of data on
//!   the columnar hot path from the trace codec to the lifeguard workers.
//! * [`buffer`] — the bounded producer/consumer [`buffer::LogBuffer`].
//! * [`event`] — the event vocabulary delivered to lifeguards (propagation
//!   events, memory-access check events, source-check events, annotations)
//!   and the record→events extraction ("event mux" in the paper's
//!   Figure 1), implemented as a column sweep ([`sweep_batch`]) that
//!   dispatch sinks can fuse gating into.
//! * [`etct`] — the event type configuration table, including the Idempotent
//!   Filter configuration fields the paper adds to it (§5).
//!
//! The hardware accelerators themselves (Inheritance Tracking, Idempotent
//! Filters, Metadata-TLB) live in the `igm-core` crate; they plug in between
//! event extraction and handler dispatch.

pub mod batch;
pub mod buffer;
pub mod etct;
pub mod event;
pub mod record;

pub use batch::{Records, TraceBatch};
pub use buffer::LogBuffer;
pub use etct::{Etct, EtctEntry, FieldSelect, IfEventConfig};
pub use event::{
    extract_batch, extract_events, sweep_batch, CheckKind, DeliveredEvent, Event, EventBuf,
    EventSink, EventType, MetaSource, NUM_EVENT_TYPES,
};
pub use record::{
    batch_bytes, chunks, compressed_size, Chunks, ANNOTATION_RECORD_BYTES, INSTR_RECORD_BYTES,
};

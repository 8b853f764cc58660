//! # igm-benchmark — a seeded, stage-attributed harness for the igm workspace
//!
//! Every layer is measured **from outside**: the harness times calls into
//! the public API of the `igm::*` facade and reads the public report
//! structs; nothing in the repository it measures is changed. Inputs are
//! generated here from `--seed`; the program only receives pre-built
//! batches. See `README.md` for the workloads, the metrics and what each
//! per-layer metric is expected to move.

pub mod cli;
pub mod harness;
pub mod host;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod reference;
pub mod spans;
pub mod stats;
pub mod workloads;

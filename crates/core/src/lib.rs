//! The paper's contribution: three hardware accelerators for
//! instruction-grain lifeguards, composed into the LBA event-dispatch
//! pipeline.
//!
//! * [`it`] — **Inheritance Tracking** (paper §4): a per-register table that
//!   tracks *which memory address a register's metadata inherits from* under
//!   unary propagation, absorbing most register-borne propagation events in
//!   hardware and delivering only memory-metadata updates (and, for
//!   MemCheck-style lifeguards, eager source checks) to software.
//! * [`filter`] — **Idempotent Filters** (paper §5): a small
//!   lifeguard-configurable cache of recently observed checking events;
//!   hits are redundant checks and are discarded before reaching software.
//! * [`mtlb`] — the **Metadata-TLB** and `LMA` instruction (paper §6): a
//!   user-space software-managed TLB translating application addresses to
//!   metadata addresses in one cycle.
//! * [`dispatch`] — the event-dispatch pipeline gluing record extraction,
//!   the ETCT, IT and IF together (the dashed boxes of the paper's
//!   Figure 3).
//! * [`config`] — per-experiment accelerator configurations
//!   ([`AccelConfig`]) matching the BASE / LMA / LMA+IT / LMA+IF /
//!   LMA+IT+IF bars of the paper's Figure 11.
//!
//! # Soundness contract
//!
//! Every event the accelerators *filter* is one whose delivery could not
//! have changed lifeguard-visible state:
//!
//! * IT only absorbs register-to-register inheritance whose metadata effect
//!   it replays exactly on later materialization (write-after-read conflicts
//!   are detected with the aligned-word bitmap scheme of Figure 5 and
//!   materialized *before* the conflicting store's event is delivered);
//! * IF only filters events the lifeguard declared checking-only, and is
//!   invalidated according to the lifeguard's declared policy;
//! * the M-TLB never filters anything — it accelerates translation and is
//!   kept coherent by software (`lma_config` flushes).
//!
//! These properties are exercised by the property-based tests in each
//! module and by the cross-lifeguard oracle tests in the workspace `tests/`
//! directory.

pub mod config;
pub mod dispatch;
pub mod filter;
pub mod it;
pub mod mtlb;

pub use config::AccelConfig;
pub use dispatch::{DispatchPipeline, DispatchStats};
pub use filter::{IdempotentFilter, IfGeometry, IfOutcome, IfStats};
pub use it::{InheritanceTracker, ItConfig, ItState, ItStats};
pub use mtlb::{LmaFault, MetadataTlb, MtlbStats};

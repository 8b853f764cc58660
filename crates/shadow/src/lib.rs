//! Lifeguard metadata (shadow memory) organizations.
//!
//! Instruction-grain lifeguards keep *metadata* ("shadow values") for every
//! byte or word of the monitored application's address space. The paper's
//! §6.1 surveys two organizations (Figure 6):
//!
//! * the **one-level** design — a single contiguous region addressed by
//!   scale-and-offset (`meta_va = base + (app_addr >> scale)`). Its mapping
//!   is one shift and one add, but it is viable only for metadata no larger
//!   than the data, reserves its whole region up front (512 MB of lifeguard
//!   address space at 1 bit per application byte, 4 GB at 8 bits) however
//!   sparse the application's footprint, and clashes with the lifeguard's
//!   own memory when both share an address space. The paper therefore
//!   leaves it aside, and so does this crate;
//! * the **two-level** design — a page-table-like level-1 index of lazily
//!   allocated level-2 chunks ([`TwoLevelShadow`]); flexible and
//!   space-efficient, and the baseline configuration of the paper.
//!
//! The address arithmetic of the two-level design is captured by
//! [`ShadowLayout`], which is exactly the configuration loaded into the
//! Metadata-TLB by `lma_config` (paper Figure 9) — both the software walk
//! and the hardware translation are derived from it, which is what the
//! M-TLB correctness property tests exploit.
//!
//! Shadow structures live in the *lifeguard's* (simulated) virtual address
//! space: every level-1 table slot and level-2 chunk has a stable metadata
//! virtual address, so the timing model can replay lifeguard metadata
//! accesses against a cache hierarchy.
//!
//! # Simulated footprint and host memory
//!
//! [`TwoLevelShadow`] keeps two questions apart. What the *monitored
//! system's* lifeguard has allocated — every chunk a write or translation
//! has touched is **mapped**, and [`TwoLevelShadow::allocated_chunks`] /
//! [`TwoLevelShadow::metadata_bytes`] count it, as the paper's "allocated
//! on demand" chunks would be. And what the *host* has to remember — only
//! chunks whose metadata bytes differ from one another are **backed** by a
//! byte store; a chunk whose every byte is the same value (untouched,
//! pre-marked whole, filled whole again) is **uniform** and kept as that one
//! value. How the host stores a chunk cannot be observed through any
//! address, count or cost the simulated side reports. [`two_level`] has the
//! chunk states operation by operation.

pub mod layout;
pub mod regmeta;
pub mod sizing;
pub mod two_level;

pub use layout::ShadowLayout;
pub use regmeta::RegMeta;
pub use sizing::{choose_level1_bits, footprint_pages};
pub use two_level::TwoLevelShadow;

/// Base of the simulated lifeguard-space region holding the level-1 table.
pub const LEVEL1_TABLE_BASE: u32 = 0x1000_0000;

/// Base of the simulated lifeguard-space region from which level-2 chunks
/// are allocated.
pub const CHUNK_REGION_BASE: u32 = 0x2000_0000;

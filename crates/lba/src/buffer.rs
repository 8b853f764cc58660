//! The bounded log buffer coupling the application and lifeguard cores.
//!
//! LBA reserves a region of the shared last-level cache (64 KB–1 MB) as a
//! circular record buffer. The producer (application core) stalls when the
//! buffer is full; the consumer (lifeguard core) stalls when it is empty
//! (paper §3). The functional buffer is `igm-runtime`'s log channel
//! (byte occupancy from [`crate::compressed_size`]); the cycle-level
//! consequences of the stalls are modelled by `igm-timing`.

/// Default buffer capacity used throughout the paper's evaluation (Table 2).
pub const DEFAULT_CAPACITY_BYTES: u32 = 64 * 1024;

//! Global record identity: one `(tenant, trace, seq)` triple per trace
//! record, assigned at capture/ingest and carried through violation
//! reports, the event ring, and the trace lake's query results.
//!
//! The tenant and trace components are FNV-1a-32 hashes of their labels
//! ([`tenant_id`], [`trace_id`]) so every layer — capture files, tee'd
//! net lanes, the lake catalog — derives the *same* id from the same
//! name without coordination. `seq` is the record's 0-based position in
//! its trace stream, which is exactly the coordinate
//! `TraceIndex::frame_for_record` and `replay_window` already seek by:
//! a `RecordId` surfaced by a lake query or a violation event is
//! directly replayable.

use std::fmt;

/// FNV-1a-32 over a byte string, hashing names into stable ids. The trace
/// codec's frame checksum is a different function (eight word lanes, since
/// trace format 3); record ids keep FNV-1a-32, so every id ever derived
/// from a name stays the same. `igm-span` is the workspace's
/// zero-dependency vocabulary crate, so the eight lines live here.
pub fn name_hash(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The id a tenant label hashes to. `tenant_id("")` is reserved as
/// "no tenant" only by convention; empty labels are not rejected.
pub fn tenant_id(label: &str) -> u32 {
    name_hash(label.as_bytes())
}

/// The id a trace (file stem) hashes to. A trace id of `0` means "not
/// attached to a durable trace" (live session with no capture tee).
pub fn trace_id(stem: &str) -> u32 {
    name_hash(stem.as_bytes())
}

/// A globally meaningful record coordinate: which tenant, which durable
/// trace, and the record's 0-based sequence number within that trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// [`tenant_id`] of the tenant label.
    pub tenant: u32,
    /// [`trace_id`] of the trace file stem; `0` when the record was
    /// only ever live-streamed (no durable trace to seek into).
    pub trace: u32,
    /// 0-based record position within the trace stream — the same
    /// coordinate `replay_window` record ranges use.
    pub seq: u64,
}

impl RecordId {
    /// A record id from raw components.
    pub fn new(tenant: u32, trace: u32, seq: u64) -> RecordId {
        RecordId { tenant, trace, seq }
    }

    /// Whether this id points into a durable trace (seekable) rather
    /// than a live-only stream.
    pub fn is_durable(&self) -> bool {
        self.trace != 0
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}:{:08x}:{}", self.tenant, self.trace, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_hash_is_fnv1a32() {
        // Reference vectors for FNV-1a 32-bit.
        assert_eq!(name_hash(b""), 0x811c_9dc5);
        assert_eq!(name_hash(b"a"), 0xe40c_292c);
        assert_eq!(name_hash(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn ids_are_stable_and_ordered() {
        let a = RecordId::new(tenant_id("gzip"), trace_id("gzip"), 7);
        let b = RecordId::new(tenant_id("gzip"), trace_id("gzip"), 8);
        assert_eq!(a.tenant, tenant_id("gzip"));
        assert!(a < b);
        assert!(a.is_durable());
        assert!(!RecordId::new(a.tenant, 0, 7).is_durable());
        assert_eq!(format!("{a}"), format!("{:08x}:{:08x}:7", a.tenant, a.trace));
    }
}

//! The Event Type Configuration Table (ETCT).
//!
//! LBA lifeguards register their event handlers in the ETCT; the `nlba`
//! dispatch instruction looks up the handler for each record's event type
//! (paper §3). The paper's Idempotent Filter proposal *extends* the ETCT
//! with filtering-control fields (§5):
//!
//! * a **cacheable** bit — the event is checking-only and may be filtered;
//! * a **check categorization (CC)** value — event types with equal CC
//!   perform the same check (e.g. loads and stores in AddrCheck);
//! * per-record-field **cacheable bits** ([`FieldSelect`]) — which fields
//!   participate in the filter-cache line;
//! * two **invalidation bits** — whether an event of this type flushes the
//!   whole filter or only the entries matching its own key.

use crate::event::{EventType, NUM_EVENT_TYPES};

/// Which record fields participate in an Idempotent Filter cache line
/// ("a cacheable bit for every field of the instruction record", paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FieldSelect {
    /// Include the data address.
    pub addr: bool,
    /// Include the access size.
    pub size: bool,
    /// Include the program counter.
    pub pc: bool,
    /// Include the register operand identifier.
    pub reg: bool,
}

impl FieldSelect {
    /// Key on the data address and size (the AddrCheck/MemCheck/LockSet
    /// configuration).
    pub const ADDR_SIZE: FieldSelect =
        FieldSelect { addr: true, size: true, pc: false, reg: false };
    /// Key on the register identifier only.
    pub const REG: FieldSelect = FieldSelect { addr: false, size: false, pc: false, reg: true };
    /// No fields selected.
    pub const NONE: FieldSelect = FieldSelect { addr: false, size: false, pc: false, reg: false };
}

/// Idempotent-Filter control fields for one event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IfEventConfig {
    /// The event is checking-only (non-updating) and may be filtered.
    pub cacheable: bool,
    /// Check-categorization value; equal CC means "results in the same
    /// check".
    pub cc: u8,
    /// Record fields included in the cache line.
    pub fields: FieldSelect,
    /// An event of this type invalidates the entire filter.
    pub invalidate_all: bool,
    /// An event of this type invalidates entries matching its own key.
    pub invalidate_match: bool,
}

impl IfEventConfig {
    /// A cacheable check keyed on `(cc, addr, size)`.
    pub fn cacheable_addr(cc: u8) -> IfEventConfig {
        IfEventConfig { cacheable: true, cc, fields: FieldSelect::ADDR_SIZE, ..Default::default() }
    }

    /// A cacheable check keyed on `(cc, reg)`.
    pub fn cacheable_reg(cc: u8) -> IfEventConfig {
        IfEventConfig { cacheable: true, cc, fields: FieldSelect::REG, ..Default::default() }
    }

    /// An event that flushes the whole filter (e.g. `malloc`/`free`/system
    /// calls for AddrCheck, every annotation for LockSet).
    pub fn invalidates_all() -> IfEventConfig {
        IfEventConfig { invalidate_all: true, ..Default::default() }
    }

    /// An event that invalidates the filter entries matching `(cc, fields)`
    /// of its own key.
    pub fn invalidates_match(cc: u8, fields: FieldSelect) -> IfEventConfig {
        IfEventConfig { cc, fields, invalidate_match: true, ..Default::default() }
    }
}

/// One ETCT row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EtctEntry {
    /// Whether the lifeguard registered a handler for this event type.
    /// Unregistered events are dropped at dispatch with no cost.
    pub registered: bool,
    /// Idempotent Filter behaviour for this event type.
    pub if_cfg: IfEventConfig,
}

/// The event type configuration table.
///
/// # Example
///
/// ```
/// use igm_lba::{Etct, EventType, IfEventConfig};
///
/// let mut etct = Etct::new();
/// etct.register(EventType::MemRead, IfEventConfig::cacheable_addr(0));
/// etct.register(EventType::MemWrite, IfEventConfig::cacheable_addr(0));
/// etct.register(EventType::Malloc, IfEventConfig::invalidates_all());
/// assert!(etct.is_registered(EventType::MemRead));
/// assert!(!etct.is_registered(EventType::Lock));
/// ```
#[derive(Debug, Clone)]
pub struct Etct {
    entries: [EtctEntry; NUM_EVENT_TYPES],
}

impl Default for Etct {
    fn default() -> Etct {
        Etct::new()
    }
}

impl Etct {
    /// An empty table: nothing registered, nothing cacheable.
    pub fn new() -> Etct {
        Etct { entries: [EtctEntry::default(); NUM_EVENT_TYPES] }
    }

    /// Registers a handler for `et` with the given filter behaviour.
    pub fn register(&mut self, et: EventType, if_cfg: IfEventConfig) -> &mut Self {
        self.entries[et.index()] = EtctEntry { registered: true, if_cfg };
        self
    }

    /// Registers a handler with default (non-cacheable, non-invalidating)
    /// filter behaviour.
    pub fn register_plain(&mut self, et: EventType) -> &mut Self {
        self.register(et, IfEventConfig::default())
    }

    /// Registers every event type in `ets` with plain behaviour.
    pub fn register_all<I: IntoIterator<Item = EventType>>(&mut self, ets: I) -> &mut Self {
        for et in ets {
            self.register_plain(et);
        }
        self
    }

    /// The full row for `et`.
    #[inline]
    pub fn entry(&self, et: EventType) -> &EtctEntry {
        &self.entries[et.index()]
    }

    /// Whether a handler is registered for `et`.
    #[inline]
    pub fn is_registered(&self, et: EventType) -> bool {
        self.entries[et.index()].registered
    }

    /// The filter behaviour for `et`.
    pub fn if_config(&self, et: EventType) -> &IfEventConfig {
        &self.entries[et.index()].if_cfg
    }

    /// Number of registered event types.
    pub fn registered_count(&self) -> usize {
        self.entries.iter().filter(|e| e.registered).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_registers_nothing() {
        let t = Etct::new();
        for et in EventType::all() {
            assert!(!t.is_registered(et));
        }
        assert_eq!(t.registered_count(), 0);
    }

    #[test]
    fn register_sets_flags_and_config() {
        let mut t = Etct::new();
        t.register(EventType::MemRead, IfEventConfig::cacheable_addr(3));
        assert!(t.is_registered(EventType::MemRead));
        let cfg = t.if_config(EventType::MemRead);
        assert!(cfg.cacheable);
        assert_eq!(cfg.cc, 3);
        assert!(cfg.fields.addr && cfg.fields.size);
        assert!(!cfg.invalidate_all && !cfg.invalidate_match);
    }

    #[test]
    fn invalidation_constructors() {
        let all = IfEventConfig::invalidates_all();
        assert!(all.invalidate_all && !all.cacheable);
        let m = IfEventConfig::invalidates_match(2, FieldSelect::ADDR_SIZE);
        assert!(m.invalidate_match && m.cc == 2 && m.fields.addr);
    }

    #[test]
    fn register_all_is_plain() {
        let mut t = Etct::new();
        t.register_all([EventType::Malloc, EventType::Free]);
        assert_eq!(t.registered_count(), 2);
        assert!(!t.if_config(EventType::Malloc).cacheable);
    }
}

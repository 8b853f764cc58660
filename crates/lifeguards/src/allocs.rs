//! The malloc/free record list AddrCheck and MemCheck share: both follow
//! the same double-free, invalid-free and leak rules.

use crate::violation::{Reports, Violation};
use std::collections::HashMap;

/// One entry of the record list: the recorded size and whether the block
/// is currently live (a dead slot is a freed base kept for double-free
/// detection).
#[derive(Debug, Clone, Copy)]
struct AllocSlot {
    size: u32,
    live: bool,
}

/// The merged malloc/free record list: base → (size, live?).
#[derive(Debug, Clone, Default)]
pub(crate) struct Allocs {
    slots: HashMap<u32, AllocSlot>,
}

impl Allocs {
    /// Records a `malloc` of `size` bytes at `base` (a freed slot at the
    /// same base comes back to life).
    pub(crate) fn malloc(&mut self, base: u32, size: u32) {
        self.slots.insert(base, AllocSlot { size, live: true });
    }

    /// Records a `free` of `base` at `pc`: the size of the live block it
    /// releases, or the violation — a double free of a freed slot, an
    /// invalid free of a base never allocated.
    pub(crate) fn free(&mut self, pc: u32, base: u32) -> Result<u32, Violation> {
        match self.slots.get_mut(&base) {
            Some(slot) if slot.live => {
                slot.live = false;
                Ok(slot.size)
            }
            Some(_) => Err(Violation::DoubleFree { pc, base }),
            None => Err(Violation::InvalidFree { pc, base }),
        }
    }

    /// Reports every still-live block as a leak, in address order.
    pub(crate) fn report_leaks(&self, reports: &mut Reports) {
        let mut leaks: Vec<_> =
            self.slots.iter().filter(|(_, s)| s.live).map(|(b, s)| (*b, s.size)).collect();
        leaks.sort_unstable();
        for (base, size) in leaks {
            reports.push(Violation::Leak { base, size });
        }
    }

    /// Slots recorded, live and freed.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

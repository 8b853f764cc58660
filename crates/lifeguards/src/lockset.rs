//! LockSet: Eraser-style data-race detection (Table 1).
//!
//! For each thread the current set of held locks is maintained; for each
//! shared 4-byte word a *candidate set* of locks. Whenever a thread
//! accesses a shared word, the candidate set is intersected with the
//! thread's current set; if it becomes empty, no consistent lock protects
//! the word and a race is reported.
//!
//! Metadata per word is the paper's 32-bit record: a 2-bit state (virgin /
//! exclusive / shared read-only / shared read-write) and a 30-bit payload —
//! the owning thread id while exclusive, a compressed pointer (an index
//! into the lockset registry) once shared. Locksets themselves are
//! interned, sorted lock-address lists (the auxiliary structure of
//! Table 1), with memoized intersections.
//!
//! Idempotent Filter configuration follows the paper exactly: loads and
//! stores use *different* check categories, and every annotation record
//! invalidates the whole filter (footnote 1: two same-thread accesses with
//! no intervening lock/unlock intersect with the same thread lockset, so
//! the second access cannot shrink the candidate set — filtering it is
//! safe).

use crate::cost::{CostSink, MetaMap};
use crate::violation::{Reporting, Reports, Violation};
use crate::{Lifeguard, LifeguardKind, Row};
use igm_core::AccelConfig;
use igm_isa::{Annotation, MemRef};
use igm_lba::{DeliveredEvent, Event, EventType, IfEventConfig};
use igm_shadow::layout::ElemSize;
use igm_shadow::{ShadowLayout, TwoLevelShadow};
use std::collections::{HashMap, HashSet};

/// Word states (low 2 bits of the metadata record).
const VIRGIN: u32 = 0;
const EXCLUSIVE: u32 = 1;
const SHARED_READ: u32 = 2;
const SHARED_RW: u32 = 3;

fn pack(state: u32, payload: u32) -> u32 {
    (payload << 2) | state
}

fn state_of(rec: u32) -> u32 {
    rec & 3
}

fn payload_of(rec: u32) -> u32 {
    rec >> 2
}

/// Simulated lifeguard-space base of the lockset registry storage (for
/// cache modelling of slow-path accesses).
const LOCKSET_AUX_BASE: u32 = 0x0e00_0000;

/// Interned locksets with memoized intersection.
#[derive(Debug, Clone, Default)]
pub struct LocksetRegistry {
    sets: Vec<Vec<u32>>,
    index: HashMap<Vec<u32>, u32>,
    inter_memo: HashMap<(u32, u32), u32>,
}

impl LocksetRegistry {
    /// A fresh registry containing only the empty set (index 0).
    pub fn new() -> LocksetRegistry {
        let mut r = LocksetRegistry::default();
        r.intern(Vec::new());
        r
    }

    /// The empty lockset's index.
    pub const EMPTY: u32 = 0;

    /// Interns a sorted, deduplicated lock list.
    pub fn intern(&mut self, mut set: Vec<u32>) -> u32 {
        set.sort_unstable();
        set.dedup();
        if let Some(i) = self.index.get(&set) {
            return *i;
        }
        let i = self.sets.len() as u32;
        self.sets.push(set.clone());
        self.index.insert(set, i);
        i
    }

    /// The lock list for an index.
    pub fn set(&self, idx: u32) -> &[u32] {
        &self.sets[idx as usize]
    }

    /// Whether the set at `idx` is empty.
    pub fn is_empty(&self, idx: u32) -> bool {
        self.sets[idx as usize].is_empty()
    }

    /// Memoized sorted-list intersection; returns the result index and the
    /// number of list elements walked (the handler's slow-path work).
    pub fn intersect(&mut self, a: u32, b: u32) -> (u32, u32) {
        if a == b {
            return (a, 0);
        }
        let key = (a.min(b), a.max(b));
        if let Some(r) = self.inter_memo.get(&key) {
            return (*r, 1);
        }
        let (sa, sb) = (&self.sets[a as usize], &self.sets[b as usize]);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(sa[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        let walked = (sa.len() + sb.len()) as u32;
        let r = self.intern(out);
        self.inter_memo.insert(key, r);
        (r, walked)
    }

    /// Simulated storage address of a lockset (for cache modelling).
    pub fn aux_va(idx: u32) -> u32 {
        LOCKSET_AUX_BASE + idx * 64
    }

    /// Number of distinct locksets interned.
    // `is_empty` here is per-set (takes an index).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.sets.len()
    }
}

/// The LockSet lifeguard.
#[derive(Debug, Clone)]
pub struct LockSet {
    meta: MetaMap,
    registry: LocksetRegistry,
    /// Current lockset index per thread.
    thread_sets: HashMap<u32, u32>,
    /// Raw lock lists per thread (uncompressed pointers of Table 1).
    thread_locks: HashMap<u32, Vec<u32>>,
    cur_tid: u32,
    /// Words already reported, to avoid duplicate reports.
    reported: HashSet<u32>,
    violations: Reports,
    /// Fast-path / slow-path counters.
    fast_hits: u64,
    slow_hits: u64,
}

impl LockSet {
    /// One 32-bit record per 4-byte word.
    pub fn layout() -> ShadowLayout {
        ShadowLayout::for_coverage(12, 4, ElemSize::B4).expect("constant layout is valid")
    }

    /// Builds LockSet under `cfg`.
    pub fn new(cfg: &AccelConfig) -> LockSet {
        LockSet {
            meta: MetaMap::new(TwoLevelShadow::new(Self::layout(), 0), cfg.lma),
            registry: LocksetRegistry::new(),
            thread_sets: HashMap::new(),
            thread_locks: HashMap::new(),
            cur_tid: 0,
            reported: HashSet::new(),
            violations: Reports::default(),
            fast_hits: 0,
            slow_hits: 0,
        }
    }

    /// Fast-path (stable-state) accesses handled so far.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits
    }

    /// Slow-path (lockset-intersection) accesses handled so far.
    pub fn slow_hits(&self) -> u64 {
        self.slow_hits
    }

    /// Distinct locksets created.
    pub fn lockset_count(&self) -> usize {
        self.registry.len()
    }

    fn cur_lockset(&mut self) -> u32 {
        *self.thread_sets.entry(self.cur_tid).or_insert(LocksetRegistry::EMPTY)
    }

    fn access_word(&mut self, pc: u32, word: u32, is_write: bool, cost: &mut CostSink) {
        let rec = self.meta.shadow().elem_u32(word);
        match state_of(rec) {
            VIRGIN => {
                // First access: becomes exclusive to this thread.
                cost.instr(2);
                self.meta.shadow_mut().set_elem_u32(word, pack(EXCLUSIVE, self.cur_tid));
                self.slow_hits += 1;
            }
            EXCLUSIVE if payload_of(rec) == self.cur_tid => {
                // Stable state: compare and fall through (the optimized
                // fast path of §7.1).
                cost.instr(1);
                self.fast_hits += 1;
            }
            EXCLUSIVE => {
                // Second thread: the word becomes shared; the candidate set
                // is initialized from this thread's current lockset.
                let ls = self.cur_lockset();
                let state = if is_write { SHARED_RW } else { SHARED_READ };
                cost.instr(8);
                cost.mem(LocksetRegistry::aux_va(ls));
                self.meta.shadow_mut().set_elem_u32(word, pack(state, ls));
                self.slow_hits += 1;
                if state == SHARED_RW && self.registry.is_empty(ls) {
                    self.report(pc, word);
                }
            }
            _ => {
                let cur = self.cur_lockset();
                let cand = payload_of(rec);
                let (inter, walked) = self.registry.intersect(cand, cur);
                let state =
                    if is_write || state_of(rec) == SHARED_RW { SHARED_RW } else { SHARED_READ };
                if inter == cand && state == state_of(rec) {
                    // Stable case: Sm ∩ St = Sm — checked on the fast path.
                    cost.instr(3);
                    self.fast_hits += 1;
                } else {
                    cost.instr(6 + walked);
                    cost.mem(LocksetRegistry::aux_va(cand));
                    cost.mem(LocksetRegistry::aux_va(cur));
                    self.meta.shadow_mut().set_elem_u32(word, pack(state, inter));
                    self.slow_hits += 1;
                }
                if state == SHARED_RW && self.registry.is_empty(inter) {
                    self.report(pc, word);
                }
            }
        }
    }

    fn report(&mut self, pc: u32, word: u32) {
        if self.reported.insert(word) {
            self.violations.push(Violation::DataRace { pc, addr: word, tid: self.cur_tid });
        }
    }

    fn check_access(&mut self, pc: u32, m: MemRef, is_write: bool, cost: &mut CostSink) {
        let va = self.meta.map(m.addr, cost);
        // Load the record, decode the 2-bit state, dispatch.
        cost.instr(4);
        cost.mem(va);
        let first = m.addr & !3;
        let last = m.addr.wrapping_add(m.size.bytes() - 1) & !3;
        let mut w = first;
        loop {
            self.access_word(pc, w, is_write, cost);
            if w == last {
                break;
            }
            w = w.wrapping_add(4);
        }
    }

    fn set_range_virgin(&mut self, base: u32, size: u32, cost: &mut CostSink) {
        let va = self.meta.map(base, cost);
        cost.instr(10 + size / 4); // one 4-byte record store per word
        cost.mem(va);
        // Every word overlapping the block, as one fill per chunk.
        let (first, end) = (base & !3, base.saturating_add(size));
        if first < end {
            self.meta.shadow_mut().set_elem_range(first, end - first, pack(VIRGIN, 0) as u64);
            // Words of the block that had reported may report again.
            if !self.reported.is_empty() {
                self.reported.retain(|w| !(first..end).contains(w));
            }
        }
    }
}

/// LockSet's ETCT rows (see the crate docs). Nearly every event refines a
/// word's state machine or a thread's lockset, so a pipelined spine skips
/// nothing.
pub(crate) const ROWS: &[Row] = &[
    Row::new(EventType::MemRead, IfEventConfig::cacheable_addr(1)),
    Row::new(EventType::MemWrite, IfEventConfig::cacheable_addr(2)),
    Row::new(EventType::Malloc, IfEventConfig::invalidates_all()),
    // Conservative: the handler only keeps books, yet runs on the spine.
    Row::new(EventType::Free, IfEventConfig::invalidates_all()),
    Row::new(EventType::Lock, IfEventConfig::invalidates_all()),
    Row::new(EventType::Unlock, IfEventConfig::invalidates_all()),
    // Conservative, as `Free`: these two handlers only keep books.
    Row::new(EventType::Syscall, IfEventConfig::invalidates_all()),
    Row::new(EventType::ReadInput, IfEventConfig::invalidates_all()),
    Row::new(EventType::ThreadSwitch, IfEventConfig::invalidates_all()),
    Row::new(EventType::ThreadExit, IfEventConfig::invalidates_all()),
];

impl Reporting for LockSet {
    fn reports(&self) -> &Reports {
        &self.violations
    }

    fn reports_mut(&mut self) -> &mut Reports {
        &mut self.violations
    }
}

impl Lifeguard for LockSet {
    fn kind(&self) -> LifeguardKind {
        LifeguardKind::LockSet
    }

    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink) {
        match &ev.event {
            Event::MemRead(m) => self.check_access(ev.pc, *m, false, cost),
            Event::MemWrite(m) => self.check_access(ev.pc, *m, true, cost),
            Event::Annot(a) => match a {
                Annotation::Lock { lock } => {
                    cost.instr(15);
                    let locks = self.thread_locks.entry(self.cur_tid).or_default();
                    locks.push(*lock);
                    let set = locks.clone();
                    let idx = self.registry.intern(set);
                    cost.mem(LocksetRegistry::aux_va(idx));
                    self.thread_sets.insert(self.cur_tid, idx);
                }
                Annotation::Unlock { lock } => {
                    cost.instr(15);
                    let locks = self.thread_locks.entry(self.cur_tid).or_default();
                    locks.retain(|l| l != lock);
                    let set = locks.clone();
                    let idx = self.registry.intern(set);
                    self.thread_sets.insert(self.cur_tid, idx);
                }
                Annotation::ThreadSwitch { tid } => {
                    cost.instr(4);
                    self.cur_tid = *tid;
                }
                Annotation::ThreadExit { tid } => {
                    cost.instr(4);
                    self.thread_sets.remove(tid);
                    self.thread_locks.remove(tid);
                }
                Annotation::Malloc { base, size } => {
                    self.set_range_virgin(*base, *size, cost);
                }
                Annotation::Free { base } => {
                    cost.instr(10);
                    let _ = base;
                }
                _ => cost.instr(3),
            },
            _ => cost.instr(1),
        }
    }

    fn premark_region(&mut self, _base: u32, _len: u32) {
        // Virgin is the default state; nothing to do.
    }

    fn metadata_bytes(&self) -> u64 {
        self.meta.metadata_bytes()
            + self.registry.sets.iter().map(|s| 8 + 4 * s.len() as u64).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lg: &mut LockSet, pc: u32, event: Event) {
        let mut c = CostSink::new();
        lg.handle(&DeliveredEvent::new(pc, event), &mut c);
    }

    fn switch(lg: &mut LockSet, tid: u32) {
        run(lg, 0, Event::Annot(Annotation::ThreadSwitch { tid }));
    }

    fn lock(lg: &mut LockSet, l: u32) {
        run(lg, 0, Event::Annot(Annotation::Lock { lock: l }));
    }

    fn unlock(lg: &mut LockSet, l: u32) {
        run(lg, 0, Event::Annot(Annotation::Unlock { lock: l }));
    }

    fn write(lg: &mut LockSet, addr: u32) {
        run(lg, 0x100, Event::MemWrite(MemRef::word(addr)));
    }

    fn read(lg: &mut LockSet, addr: u32) {
        run(lg, 0x100, Event::MemRead(MemRef::word(addr)));
    }

    #[test]
    fn exclusive_access_never_races() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        switch(&mut lg, 0);
        for _ in 0..10 {
            write(&mut lg, 0x9000);
            read(&mut lg, 0x9000);
        }
        assert!(lg.violations().is_empty());
        assert!(lg.fast_hits() >= 18, "repeat same-thread accesses use the fast path");
    }

    #[test]
    fn consistent_locking_is_race_free() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        let l = 0x8100_8000;
        switch(&mut lg, 0);
        lock(&mut lg, l);
        write(&mut lg, 0x9000);
        unlock(&mut lg, l);
        switch(&mut lg, 1);
        lock(&mut lg, l);
        write(&mut lg, 0x9000);
        read(&mut lg, 0x9000);
        unlock(&mut lg, l);
        switch(&mut lg, 0);
        lock(&mut lg, l);
        read(&mut lg, 0x9000);
        unlock(&mut lg, l);
        assert!(lg.violations().is_empty(), "{:?}", lg.violations());
    }

    #[test]
    fn unprotected_sharing_races_on_write() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        switch(&mut lg, 0);
        write(&mut lg, 0x9000);
        switch(&mut lg, 1);
        write(&mut lg, 0x9000); // no lock held: candidate set empty
        assert_eq!(lg.violations().len(), 1);
        assert!(matches!(lg.violations()[0], Violation::DataRace { tid: 1, .. }));
    }

    #[test]
    fn read_only_sharing_without_locks_is_tolerated() {
        // Eraser reports only when a shared-read-write word's candidate set
        // empties; read-only sharing (e.g. after initialization) is fine.
        let mut lg = LockSet::new(&AccelConfig::baseline());
        switch(&mut lg, 0);
        write(&mut lg, 0x9000); // initialization by owner
        switch(&mut lg, 1);
        read(&mut lg, 0x9000);
        switch(&mut lg, 0);
        read(&mut lg, 0x9000);
        assert!(lg.violations().is_empty());
    }

    #[test]
    fn inconsistent_locks_race() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        let (l1, l2) = (0x8100_8000, 0x8100_8040);
        switch(&mut lg, 0);
        lock(&mut lg, l1);
        write(&mut lg, 0x9000);
        unlock(&mut lg, l1);
        switch(&mut lg, 1);
        lock(&mut lg, l1);
        write(&mut lg, 0x9000); // candidate = {l1}
        unlock(&mut lg, l1);
        lock(&mut lg, l2);
        write(&mut lg, 0x9000); // {l1} ∩ {l2} = ∅ -> race
        unlock(&mut lg, l2);
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn race_reported_once_per_word() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        switch(&mut lg, 0);
        write(&mut lg, 0x9000);
        switch(&mut lg, 1);
        for _ in 0..5 {
            write(&mut lg, 0x9000);
        }
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn malloc_resets_to_virgin() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        switch(&mut lg, 0);
        write(&mut lg, 0x9000);
        switch(&mut lg, 1);
        write(&mut lg, 0x9000);
        assert_eq!(lg.violations().len(), 1);
        // Recycled memory starts a fresh protocol.
        run(&mut lg, 0, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 }));
        write(&mut lg, 0x9000);
        switch(&mut lg, 0);
        // Second thread again unprotected: a new report for the same word.
        write(&mut lg, 0x9000);
        assert_eq!(lg.violations().len(), 2);
    }

    #[test]
    fn malloc_rearms_only_the_words_it_covers() {
        let mut lg = LockSet::new(&AccelConfig::baseline());
        let race = |lg: &mut LockSet, addr: u32| {
            switch(lg, 0);
            write(lg, addr);
            switch(lg, 1);
            write(lg, addr);
        };
        // Three words report once each; repeating the race is silent.
        for addr in [0x9000, 0x9004, 0xa000] {
            race(&mut lg, addr);
        }
        assert_eq!(lg.violations().len(), 3);
        for addr in [0x9000, 0x9004, 0xa000] {
            race(&mut lg, addr);
        }
        assert_eq!(lg.violations().len(), 3, "reported words stay quiet");
        // An unaligned two-byte block inside word 0x9000 resets that word
        // alone: it may report again, its neighbour and the far word may not.
        run(&mut lg, 0, Event::Annot(Annotation::Malloc { base: 0x9002, size: 2 }));
        for addr in [0x9000, 0x9004, 0xa000] {
            race(&mut lg, addr);
        }
        let races: Vec<u32> = lg
            .violations()
            .iter()
            .map(|v| match v {
                Violation::DataRace { addr, .. } => *addr,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(races, [0x9000, 0x9004, 0xa000, 0x9000]);
        // A block ending mid-word covers that word too; one ending on a word
        // boundary does not reach the next.
        run(&mut lg, 0, Event::Annot(Annotation::Malloc { base: 0x9000, size: 5 }));
        race(&mut lg, 0x9004);
        assert_eq!(lg.violations().len(), 5, "partially covered word re-arms");
        run(&mut lg, 0, Event::Annot(Annotation::Malloc { base: 0x9ffc, size: 4 }));
        race(&mut lg, 0xa000);
        assert_eq!(lg.violations().len(), 5, "the word past the block is untouched");
    }

    #[test]
    fn registry_interns_and_memoizes() {
        let mut r = LocksetRegistry::new();
        let a = r.intern(vec![3, 1, 2]);
        let b = r.intern(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(r.set(a), &[1, 2, 3]);
        let c = r.intern(vec![2, 5]);
        let (i1, _) = r.intersect(a, c);
        assert_eq!(r.set(i1), &[2]);
        let (i2, walked) = r.intersect(c, a);
        assert_eq!(i1, i2);
        assert_eq!(walked, 1, "second intersection must be memoized");
    }

    #[test]
    fn etct_separates_load_and_store_categories() {
        let lg = LockSet::new(&AccelConfig::baseline());
        let etct = lg.etct();
        assert_ne!(etct.if_config(EventType::MemRead).cc, etct.if_config(EventType::MemWrite).cc);
        for et in [EventType::Lock, EventType::Unlock, EventType::ThreadSwitch] {
            assert!(etct.if_config(et).invalidate_all, "{et:?}");
        }
    }
}

//! Inheritance Tracking (paper §4).
//!
//! Instead of propagating metadata *values* in hardware (which fixes the
//! metadata format and semantics), the IT table tracks metadata
//! *inheritance*: each general-purpose register is in one of three states —
//!
//! * **clean** — the register's metadata is the lifeguard's "clean" value
//!   (untainted / initialized);
//! * **addr a** — the register's metadata equals the metadata of memory
//!   range `a` (lazy evaluation; the metadata itself was never read);
//! * **in lifeguard** — the register's metadata is maintained by lifeguard
//!   software.
//!
//! Unary propagation (copies and immediate-operand computations) updates
//! this table without delivering anything. Non-unary operations produce
//! clean results (the §4.2 unary assumption), optionally after delivering
//! eager source checks (MemCheck property (a)). Write-after-read conflicts —
//! a store to an address some register currently inherits from — are
//! detected with the two-aligned-word byte-bitmap scheme of Figure 5 and
//! resolved by materializing the register's metadata in software *before*
//! the store's event.

use igm_isa::{MemRef, OpClass, Reg, NUM_REGS};
use igm_lba::{CheckKind, Etct, Event, EventSink, EventType, MetaSource};

/// Per-register inheritance state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItState {
    /// Metadata is the lifeguard's clean value.
    #[default]
    Clean,
    /// Metadata equals the metadata of this memory range.
    Addr(MemRef),
    /// Metadata is maintained by lifeguard software.
    InLifeguard,
}

/// IT policy knobs; a pipeline runs the policy its ETCT asks for ([`ItConfig::for_etct`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItConfig {
    /// Deliver eager checks for possibly-unclean sources of non-unary
    /// operations (MemCheck satisfies the paper's property (a): an unclean
    /// source of a non-unary operation is an error, so it must be checked
    /// when the destination is cleaned). TaintCheck satisfies property (b)
    /// and sets this to `false`: non-unary results are silently clean.
    pub nonunary_check: bool,
    /// The §4.3 optimization: a binary operation whose register source is
    /// known clean leaves the destination's metadata untouched ("do
    /// nothing"), which follows generic propagation exactly.
    pub clean_rs_do_nothing: bool,
    /// Detect write-after-read conflicts (must stay `true` for soundness;
    /// exposed for the ablation benchmarks only).
    pub conflict_detection: bool,
}

impl Default for ItConfig {
    fn default() -> ItConfig {
        ItConfig { nonunary_check: false, clean_rs_do_nothing: true, conflict_detection: true }
    }
}

impl ItConfig {
    /// The policy a lifeguard's ETCT asks for, and the one place it is
    /// decided: eager non-unary source checks exactly when the lifeguard
    /// registers [`EventType::CheckNonUnary`] (MemCheck, property (a)),
    /// silent cleaning otherwise (TaintCheck, property (b)). The
    /// [`DispatchPipeline`](crate::DispatchPipeline) builds its tracker with
    /// this policy whenever [`AccelConfig::it`](crate::AccelConfig::it) is
    /// set, so a change to how a lifeguard uses IT (say, TaintCheck taking
    /// eager checks) is an edit to its rows or to this rule.
    pub fn for_etct(etct: &Etct) -> ItConfig {
        ItConfig {
            nonunary_check: etct.is_registered(EventType::CheckNonUnary),
            ..ItConfig::default()
        }
    }
}

/// Event counters exposed by the tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItStats {
    /// Propagation events entering the tracker.
    pub prop_in: u64,
    /// Propagation events absorbed entirely in hardware.
    pub prop_filtered: u64,
    /// Propagation events delivered to software (possibly transformed).
    pub prop_delivered: u64,
    /// Extra materialization events delivered due to write-after-read
    /// conflicts.
    pub conflict_events: u64,
    /// Extra materialization events delivered when flushing for `other`
    /// instructions or annotations.
    pub flush_events: u64,
    /// Eager non-unary source checks generated (MemCheck style).
    pub nonunary_checks: u64,
    /// Register-source check events entering the tracker.
    pub check_in: u64,
    /// Register-source checks discarded because the register was clean.
    pub check_filtered: u64,
    /// Register-source checks rewritten to memory sources.
    pub check_rewritten: u64,
}

impl ItStats {
    /// Fraction of incoming propagation events absorbed by the tracker.
    pub fn prop_reduction(&self) -> f64 {
        if self.prop_in == 0 {
            0.0
        } else {
            self.prop_filtered as f64 / self.prop_in as f64
        }
    }
}

/// The two 4-byte-aligned address words plus byte bitmaps used for conflict
/// detection (the four rightmost IT-table columns in Figure 5). Access
/// sizes are at most 4 bytes, so a reference spans at most two aligned
/// words.
fn aligned_bitmaps(m: MemRef) -> [(u32, u8); 2] {
    let w0 = m.addr & !3;
    let start = m.addr & 3;
    let len = m.size.bytes();
    let in_w0 = (4 - start).min(len);
    let bits0 = (((1u16 << in_w0) - 1) as u8) << start;
    let rem = len - in_w0;
    let bits1 = ((1u16 << rem) - 1) as u8;
    [(w0, bits0), (w0.wrapping_add(4), bits1)]
}

/// Whether two references' aligned-word bitmaps share a byte (the Figure 5
/// hardware comparison).
fn bitmap_pairs_overlap(pa: [(u32, u8); 2], pb: [(u32, u8); 2]) -> bool {
    pa.iter().any(|(wa, ba)| *ba != 0 && pb.iter().any(|(wb, bb)| wa == wb && (ba & bb) != 0))
}

/// Whether two references overlap according to the aligned-bitmap hardware
/// comparison.
#[cfg(test)]
fn bitmaps_overlap(a: MemRef, b: MemRef) -> bool {
    bitmap_pairs_overlap(aligned_bitmaps(a), aligned_bitmaps(b))
}

/// Counts what one propagation event lets through, so `prop_filtered` can
/// be decided without knowing what kind of sink sits behind.
struct Counting<'a, S> {
    inner: &'a mut S,
    emitted: u32,
}

impl<S: EventSink> EventSink for Counting<'_, S> {
    #[inline(always)]
    fn event(&mut self, pc: u32, et: EventType, make: impl FnOnce() -> Event) {
        self.emitted += 1;
        self.inner.event(pc, et, make);
    }
    #[inline(always)]
    fn end_record(&mut self) {
        self.inner.end_record();
    }
}

/// The unary Inheritance Tracking hardware (Figure 5).
///
/// # Example
///
/// ```
/// use igm_core::{InheritanceTracker, ItConfig, ItState};
/// use igm_isa::{MemRef, OpClass, Reg};
/// use igm_lba::Event;
///
/// let mut it = InheritanceTracker::new(ItConfig::default());
/// let mut out = Vec::new();
/// // mov A, %eax  — absorbed; %eax now inherits from A.
/// it.process(0x1000, Event::Prop(OpClass::MemToReg {
///     src: MemRef::word(0x9000), rd: Reg::Eax }), &mut out);
/// assert!(out.is_empty());
/// assert_eq!(it.state(Reg::Eax), ItState::Addr(MemRef::word(0x9000)));
/// ```
#[derive(Debug, Clone)]
pub struct InheritanceTracker {
    cfg: ItConfig,
    table: [ItState; NUM_REGS],
    /// Bit `i` set ⇔ `table[i]` is [`ItState::Addr`]. Stores consult it so
    /// the write-after-read check walks only the inheriting registers —
    /// usually none.
    inheriting: u8,
    stats: ItStats,
}

impl InheritanceTracker {
    /// Creates a tracker with all registers clean.
    pub fn new(cfg: ItConfig) -> InheritanceTracker {
        InheritanceTracker {
            cfg,
            table: [ItState::Clean; NUM_REGS],
            inheriting: 0,
            stats: ItStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ItConfig {
        &self.cfg
    }

    /// Current state of a register.
    #[inline]
    pub fn state(&self, r: Reg) -> ItState {
        self.table[r.index()]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ItStats {
        &self.stats
    }

    #[inline]
    fn set(&mut self, r: Reg, s: ItState) {
        let bit = 1u8 << r.index();
        if matches!(s, ItState::Addr(_)) {
            self.inheriting |= bit;
        } else {
            self.inheriting &= !bit;
        }
        self.table[r.index()] = s;
    }

    #[inline(always)]
    fn deliver<S: EventSink>(
        &mut self,
        pc: u32,
        et: EventType,
        make: impl FnOnce() -> Event,
        out: &mut S,
    ) {
        self.stats.prop_delivered += 1;
        out.event(pc, et, make);
    }

    /// Materializes every register inheriting from a range overlapping
    /// `store` (the write-after-read conflict rule), delivering the
    /// corresponding `mem_to_reg` events *before* the store's own event.
    #[inline]
    fn resolve_conflicts<S: EventSink>(&mut self, pc: u32, store: MemRef, out: &mut S) {
        if self.inheriting == 0 || !self.cfg.conflict_detection {
            return;
        }
        let store_bits = aligned_bitmaps(store);
        let mut pending = self.inheriting;
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if let ItState::Addr(a) = self.table[i] {
                if bitmap_pairs_overlap(aligned_bitmaps(a), store_bits) {
                    let r = Reg::from_index(i);
                    self.stats.conflict_events += 1;
                    out.event(pc, EventType::MemToReg, || {
                        Event::Prop(OpClass::MemToReg { src: a, rd: r })
                    });
                    self.set(r, ItState::InLifeguard);
                }
            }
        }
    }

    /// Materializes one register's metadata into software and marks it
    /// in-lifeguard; used when flushing for `other` events and annotations.
    #[inline]
    fn flush_reg<S: EventSink>(&mut self, pc: u32, r: Reg, out: &mut S) {
        match self.state(r) {
            ItState::InLifeguard => {}
            ItState::Clean => {
                self.stats.flush_events += 1;
                out.event(pc, EventType::ImmToReg, || Event::Prop(OpClass::ImmToReg { rd: r }));
                self.set(r, ItState::InLifeguard);
            }
            ItState::Addr(a) => {
                self.stats.flush_events += 1;
                out.event(pc, EventType::MemToReg, || {
                    Event::Prop(OpClass::MemToReg { src: a, rd: r })
                });
                self.set(r, ItState::InLifeguard);
            }
        }
    }

    /// Flushes every register to the in-lifeguard state (used on annotation
    /// records, whose handlers may rewrite arbitrary metadata).
    pub fn flush_all<S: EventSink>(&mut self, pc: u32, out: &mut S) {
        for r in Reg::ALL {
            self.flush_reg(pc, r, out);
        }
    }

    /// Delivers an eager non-unary source check if the source register may
    /// be unclean (MemCheck property (a)).
    #[inline]
    fn check_source_reg<S: EventSink>(&mut self, pc: u32, r: Reg, out: &mut S) {
        if !self.cfg.nonunary_check {
            return;
        }
        let source = match self.state(r) {
            ItState::Clean => return,
            ItState::Addr(a) => MetaSource::Mem(a),
            ItState::InLifeguard => MetaSource::Reg(r),
        };
        self.stats.nonunary_checks += 1;
        out.event(pc, EventType::CheckNonUnary, || Event::Check {
            kind: CheckKind::NonUnaryInput,
            source,
        });
    }

    /// Delivers an eager non-unary source check for a memory source.
    #[inline]
    fn check_source_mem<S: EventSink>(&mut self, pc: u32, m: MemRef, out: &mut S) {
        if !self.cfg.nonunary_check {
            return;
        }
        self.stats.nonunary_checks += 1;
        out.event(pc, EventType::CheckNonUnary, || Event::Check {
            kind: CheckKind::NonUnaryInput,
            source: MetaSource::Mem(m),
        });
    }

    /// Runs one event through the tracker, handing everything that must
    /// reach the lifeguard to `out` — any [`EventSink`]: the dispatch
    /// pipeline passes its ETCT/IF gate, record-at-a-time callers a plain
    /// `Vec<DeliveredEvent>`. Each emission names its [`EventType`]
    /// statically, so a gating sink never re-derives it from the payload.
    ///
    /// Propagation events follow the Figure 5 state-transition-and-action
    /// table. Register-source check events are resolved through the table:
    /// clean registers pass trivially (the check is discarded), inheriting
    /// registers are rewritten to the inherited memory source, in-lifeguard
    /// registers pass through unchanged. All other events pass through
    /// unchanged (annotations should be routed to [`Self::flush_all`] by the
    /// dispatch pipeline *before* delivery).
    ///
    /// Always inlined: the dispatch sweep calls it at emission sites where
    /// the event's variant is a constant, so each site keeps only its own
    /// arm of the table instead of calling through both matches.
    #[inline(always)]
    pub fn process<S: EventSink>(&mut self, pc: u32, ev: Event, out: &mut S) {
        match ev {
            Event::Prop(op) => self.process_prop(pc, op, out),
            Event::Check { kind, source: MetaSource::Reg(r) } => {
                self.stats.check_in += 1;
                match self.state(r) {
                    ItState::Clean => {
                        self.stats.check_filtered += 1;
                    }
                    ItState::Addr(a) => {
                        self.stats.check_rewritten += 1;
                        out.event(pc, ev.event_type(), || Event::Check {
                            kind,
                            source: MetaSource::Mem(a),
                        });
                    }
                    ItState::InLifeguard => out.event(pc, ev.event_type(), || ev),
                }
            }
            other => out.event(pc, other.event_type(), || other),
        }
    }

    #[inline(always)]
    fn process_prop<S: EventSink>(&mut self, pc: u32, op: OpClass, out: &mut S) {
        self.stats.prop_in += 1;
        let out = &mut Counting { inner: out, emitted: 0 };
        match op {
            OpClass::ImmToReg { rd } => {
                self.set(rd, ItState::Clean);
            }
            OpClass::ImmToMem { dst } => {
                self.resolve_conflicts(pc, dst, out);
                self.deliver(pc, EventType::ImmToMem, || Event::Prop(op), out);
            }
            OpClass::RegSelf { .. } | OpClass::ReadOnly { .. } => {
                // Unary computation on the register itself (or a pure
                // flag-setter): metadata unchanged.
            }
            OpClass::MemSelf { .. } => {
                // Unary computation on the memory location itself: metadata
                // unchanged, so no conflict either.
            }
            OpClass::RegToReg { rs, rd } => match self.state(rs) {
                ItState::Clean => self.set(rd, ItState::Clean),
                ItState::Addr(a) => self.set(rd, ItState::Addr(a)),
                ItState::InLifeguard => {
                    self.deliver(pc, EventType::RegToReg, || Event::Prop(op), out);
                    self.set(rd, ItState::InLifeguard);
                }
            },
            OpClass::RegToMem { rs, dst } => {
                // Conflict resolution first: it may materialize %rs itself,
                // changing the state we dispatch on.
                self.resolve_conflicts(pc, dst, out);
                match self.state(rs) {
                    ItState::Clean => self.deliver(
                        pc,
                        EventType::ImmToMem,
                        || Event::Prop(OpClass::ImmToMem { dst }),
                        out,
                    ),
                    ItState::Addr(a) => self.deliver(
                        pc,
                        EventType::MemToMem,
                        || Event::Prop(OpClass::MemToMem { src: a, dst }),
                        out,
                    ),
                    ItState::InLifeguard => {
                        self.deliver(pc, EventType::RegToMem, || Event::Prop(op), out)
                    }
                }
            }
            OpClass::MemToReg { src, rd } => {
                self.set(rd, ItState::Addr(src));
            }
            OpClass::MemToMem { dst, .. } => {
                self.resolve_conflicts(pc, dst, out);
                self.deliver(pc, EventType::MemToMem, || Event::Prop(op), out);
            }
            OpClass::DestRegOpReg { rs, rd } => {
                if self.state(rs) == ItState::Clean && self.cfg.clean_rs_do_nothing {
                    // dest = combine(clean, dest) = dest: nothing changes.
                } else {
                    self.check_source_reg(pc, rs, out);
                    self.check_source_reg(pc, rd, out);
                    self.set(rd, ItState::Clean);
                }
            }
            OpClass::DestRegOpMem { src, rd } => {
                // The memory source's metadata is unknown to the hardware,
                // so the clean-%rs optimization cannot apply.
                self.check_source_mem(pc, src, out);
                self.check_source_reg(pc, rd, out);
                self.set(rd, ItState::Clean);
            }
            OpClass::DestMemOpReg { rs, dst } => {
                if self.state(rs) == ItState::Clean && self.cfg.clean_rs_do_nothing {
                    // dest metadata = combine(clean, dest) = dest: no change,
                    // hence no conflict and no delivery.
                } else {
                    self.check_source_reg(pc, rs, out);
                    self.check_source_mem(pc, dst, out);
                    self.resolve_conflicts(pc, dst, out);
                    // The destination's metadata becomes clean: a clean
                    // store, exactly an imm_to_mem for the lifeguard.
                    self.deliver(
                        pc,
                        EventType::ImmToMem,
                        || Event::Prop(OpClass::ImmToMem { dst }),
                        out,
                    );
                }
            }
            OpClass::Other { reads, writes, mem_write, .. } => {
                for r in reads.union(writes).iter() {
                    self.flush_reg(pc, r, out);
                }
                if let Some(mw) = mem_write {
                    self.resolve_conflicts(pc, mw, out);
                }
                self.deliver(pc, EventType::Other, || Event::Prop(op), out);
            }
        }
        if out.emitted == 0 {
            self.stats.prop_filtered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{MemSize, RegSet};

    fn mem(addr: u32) -> MemRef {
        MemRef::word(addr)
    }

    fn run(it: &mut InheritanceTracker, pc: u32, ev: Event) -> Vec<Event> {
        let mut out = Vec::new();
        it.process(pc, ev, &mut out);
        out.into_iter().map(|d| d.event).collect()
    }

    /// Replays the paper's Figure 4 instruction sequence and checks both the
    /// IT states and the two delivered events it reports.
    #[test]
    fn figure4_sequence() {
        let a = mem(0xa0);
        let b = mem(0xb0);
        let c = mem(0xc0);
        let d = mem(0xd0);
        let e = mem(0xe0);
        let f = mem(0xf0);
        let (eax, ecx) = (Reg::Eax, Reg::Ecx);
        let mut it = InheritanceTracker::new(ItConfig::default());
        let mut delivered = Vec::new();

        // (1) mov A, %eax          mem_to_reg   -> IT(%eax)=addr(A)
        delivered.extend(run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: eax })));
        assert_eq!(it.state(eax), ItState::Addr(a));
        // (2) add B, %eax          dest_reg_op_mem -> IT(%eax)=clear
        delivered.extend(run(&mut it, 2, Event::Prop(OpClass::DestRegOpMem { src: b, rd: eax })));
        assert_eq!(it.state(eax), ItState::Clean);
        // (3) shr 8, %eax          reg_self -> nothing
        delivered.extend(run(&mut it, 3, Event::Prop(OpClass::RegSelf { rd: eax })));
        // (4) mov C, %ecx          mem_to_reg -> IT(%ecx)=addr(C)
        delivered.extend(run(&mut it, 4, Event::Prop(OpClass::MemToReg { src: c, rd: ecx })));
        assert_eq!(it.state(ecx), ItState::Addr(c));
        // (5) and 0xff, %ecx       reg_self -> nothing (state kept!)
        delivered.extend(run(&mut it, 5, Event::Prop(OpClass::RegSelf { rd: ecx })));
        assert_eq!(it.state(ecx), ItState::Addr(c));
        // (6) sub %ecx, %eax       dest_reg_op_reg, %ecx unclean -> IT(%eax)=clear
        delivered.extend(run(&mut it, 6, Event::Prop(OpClass::DestRegOpReg { rs: ecx, rd: eax })));
        assert_eq!(it.state(eax), ItState::Clean);
        // (7) mov %eax, D          reg_to_mem with clean %eax -> imm_to_mem(D)
        delivered.extend(run(&mut it, 7, Event::Prop(OpClass::RegToMem { rs: eax, dst: d })));
        // (8) mov E, %eax          mem_to_reg -> IT(%eax)=addr(E)
        delivered.extend(run(&mut it, 8, Event::Prop(OpClass::MemToReg { src: e, rd: eax })));
        assert_eq!(it.state(eax), ItState::Addr(e));
        // (9) mov %eax, F          reg_to_mem -> mem_to_mem(E -> F)
        delivered.extend(run(&mut it, 9, Event::Prop(OpClass::RegToMem { rs: eax, dst: f })));

        // "IT reduces the number of delivered events from seven to two."
        assert_eq!(
            delivered,
            vec![
                Event::Prop(OpClass::ImmToMem { dst: d }),
                Event::Prop(OpClass::MemToMem { src: e, dst: f }),
            ]
        );
        assert_eq!(it.stats().prop_in, 9);
        assert_eq!(it.stats().prop_delivered, 2);
        assert_eq!(it.stats().prop_filtered, 7);
    }

    #[test]
    fn imm_to_reg_cleans() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        it.set(Reg::Eax, ItState::Addr(mem(0x10)));
        let evs = run(&mut it, 0, Event::Prop(OpClass::ImmToReg { rd: Reg::Eax }));
        assert!(evs.is_empty());
        assert_eq!(it.state(Reg::Eax), ItState::Clean);
    }

    #[test]
    fn reg_to_reg_copies_all_three_states() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        // Clean source.
        let evs = run(&mut it, 0, Event::Prop(OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }));
        assert!(evs.is_empty());
        assert_eq!(it.state(Reg::Ecx), ItState::Clean);
        // Addr source.
        it.set(Reg::Eax, ItState::Addr(mem(0x40)));
        let evs = run(&mut it, 0, Event::Prop(OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }));
        assert!(evs.is_empty());
        assert_eq!(it.state(Reg::Ecx), ItState::Addr(mem(0x40)));
        // In-lifeguard source must be delivered.
        it.set(Reg::Edx, ItState::InLifeguard);
        let evs = run(&mut it, 0, Event::Prop(OpClass::RegToReg { rs: Reg::Edx, rd: Reg::Ebx }));
        assert_eq!(evs, vec![Event::Prop(OpClass::RegToReg { rs: Reg::Edx, rd: Reg::Ebx })]);
        assert_eq!(it.state(Reg::Ebx), ItState::InLifeguard);
    }

    #[test]
    fn reg_to_mem_transforms_by_source_state() {
        let d = mem(0xd0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        // In-lifeguard source passes through unchanged.
        it.set(Reg::Eax, ItState::InLifeguard);
        let evs = run(&mut it, 0, Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst: d }));
        assert_eq!(evs, vec![Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst: d })]);
    }

    #[test]
    fn write_after_read_conflict_materializes_register_first() {
        let a = mem(0xa0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        // %eax inherits from A.
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        // Store to A: must deliver mem_to_reg(A, %eax) *before* imm_to_mem(A).
        let evs = run(&mut it, 2, Event::Prop(OpClass::ImmToMem { dst: a }));
        assert_eq!(
            evs,
            vec![
                Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }),
                Event::Prop(OpClass::ImmToMem { dst: a }),
            ]
        );
        assert_eq!(it.state(Reg::Eax), ItState::InLifeguard);
        assert_eq!(it.stats().conflict_events, 1);
    }

    #[test]
    fn conflict_detects_partial_overlap() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        // %eax inherits from the 4 bytes at 0xa2 (unaligned).
        let a = MemRef::new(0xa2, MemSize::B4);
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        // A 1-byte store at 0xa5 overlaps (bytes a2..a6).
        let evs =
            run(&mut it, 2, Event::Prop(OpClass::ImmToMem { dst: MemRef::new(0xa5, MemSize::B1) }));
        assert_eq!(evs.len(), 2);
        assert_eq!(it.stats().conflict_events, 1);
        // A 1-byte store at 0xa6 does not overlap.
        let mut it = InheritanceTracker::new(ItConfig::default());
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let evs =
            run(&mut it, 2, Event::Prop(OpClass::ImmToMem { dst: MemRef::new(0xa6, MemSize::B1) }));
        assert_eq!(evs.len(), 1);
        assert_eq!(it.state(Reg::Eax), ItState::Addr(a));
    }

    #[test]
    fn store_of_register_to_its_own_source_materializes_correctly() {
        // mov A, %eax; mov %eax, A-overlapping store.
        let a = mem(0xa0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let evs = run(&mut it, 2, Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst: a }));
        // Conflict materializes %eax, then the store is delivered as
        // reg_to_mem (the register is now in-lifeguard).
        assert_eq!(
            evs,
            vec![
                Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }),
                Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst: a }),
            ]
        );
    }

    #[test]
    fn clean_rs_do_nothing_preserves_dest_inheritance() {
        let a = mem(0xa0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        // add %ecx, %eax with clean %ecx: generic propagation leaves %eax's
        // metadata = metadata(A); the optimization keeps the inheritance.
        let evs =
            run(&mut it, 2, Event::Prop(OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Eax }));
        assert!(evs.is_empty());
        assert_eq!(it.state(Reg::Eax), ItState::Addr(a));
    }

    #[test]
    fn clean_rs_do_nothing_disabled_cleans_dest() {
        let a = mem(0xa0);
        let cfg = ItConfig { clean_rs_do_nothing: false, ..ItConfig::default() };
        let mut it = InheritanceTracker::new(cfg);
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        run(&mut it, 2, Event::Prop(OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Eax }));
        assert_eq!(it.state(Reg::Eax), ItState::Clean);
    }

    #[test]
    fn memcheck_style_delivers_eager_source_checks() {
        let a = mem(0xa0);
        let b = mem(0xb0);
        let mut it =
            InheritanceTracker::new(ItConfig { nonunary_check: true, ..ItConfig::default() });
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        // add B, %eax: both the memory source B and the inherited source A
        // must be checked before cleaning the destination.
        let evs = run(&mut it, 2, Event::Prop(OpClass::DestRegOpMem { src: b, rd: Reg::Eax }));
        assert_eq!(
            evs,
            vec![
                Event::Check { kind: CheckKind::NonUnaryInput, source: MetaSource::Mem(b) },
                Event::Check { kind: CheckKind::NonUnaryInput, source: MetaSource::Mem(a) },
            ]
        );
        assert_eq!(it.state(Reg::Eax), ItState::Clean);
        assert_eq!(it.stats().nonunary_checks, 2);
    }

    #[test]
    fn dest_mem_op_reg_with_unclean_source_cleans_memory() {
        let a = mem(0xa0);
        let d = mem(0xd0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let evs = run(&mut it, 2, Event::Prop(OpClass::DestMemOpReg { rs: Reg::Eax, dst: d }));
        assert_eq!(evs, vec![Event::Prop(OpClass::ImmToMem { dst: d })]);
    }

    #[test]
    fn dest_mem_op_reg_with_clean_source_does_nothing() {
        let d = mem(0xd0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        let evs = run(&mut it, 2, Event::Prop(OpClass::DestMemOpReg { rs: Reg::Eax, dst: d }));
        assert!(evs.is_empty());
    }

    #[test]
    fn other_flushes_relevant_registers_then_delivers() {
        let a = mem(0xa0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let other = OpClass::Other {
            reads: RegSet::from_regs([Reg::Eax, Reg::Ecx]),
            writes: RegSet::from_regs([Reg::Ecx]),
            mem_read: None,
            mem_write: None,
        };
        let evs = run(&mut it, 2, Event::Prop(other));
        assert_eq!(
            evs,
            vec![
                Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }),
                Event::Prop(OpClass::ImmToReg { rd: Reg::Ecx }),
                Event::Prop(other),
            ]
        );
        assert_eq!(it.state(Reg::Eax), ItState::InLifeguard);
        assert_eq!(it.state(Reg::Ecx), ItState::InLifeguard);
        // Untouched registers keep their state.
        assert_eq!(it.state(Reg::Ebx), ItState::Clean);
        assert_eq!(it.stats().flush_events, 2);
    }

    #[test]
    fn check_events_resolve_through_table() {
        let a = mem(0xa0);
        let mut it = InheritanceTracker::new(ItConfig::default());
        // Clean register: check discarded.
        let evs = run(
            &mut it,
            0,
            Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(Reg::Eax) },
        );
        assert!(evs.is_empty());
        // Inheriting register: rewritten to the memory source.
        run(&mut it, 1, Event::Prop(OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let evs = run(
            &mut it,
            2,
            Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(Reg::Eax) },
        );
        assert_eq!(
            evs,
            vec![Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Mem(a) }]
        );
        // In-lifeguard register: passes through.
        it.set(Reg::Ecx, ItState::InLifeguard);
        let evs = run(
            &mut it,
            3,
            Event::Check { kind: CheckKind::SyscallArg, source: MetaSource::Reg(Reg::Ecx) },
        );
        assert_eq!(
            evs,
            vec![Event::Check { kind: CheckKind::SyscallArg, source: MetaSource::Reg(Reg::Ecx) }]
        );
        assert_eq!(it.stats().check_in, 3);
        assert_eq!(it.stats().check_filtered, 1);
        assert_eq!(it.stats().check_rewritten, 1);
    }

    #[test]
    fn mem_source_checks_pass_through() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        let ev = Event::Check { kind: CheckKind::FormatString, source: MetaSource::Mem(mem(0x40)) };
        let evs = run(&mut it, 0, ev);
        assert_eq!(evs, vec![ev]);
    }

    #[test]
    fn non_prop_events_pass_through() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        let ev = Event::MemRead(mem(0x40));
        assert_eq!(run(&mut it, 0, ev), vec![ev]);
    }

    #[test]
    fn flush_all_materializes_everything() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        it.set(Reg::Eax, ItState::Addr(mem(0x10)));
        it.set(Reg::Ecx, ItState::InLifeguard);
        let mut out = Vec::new();
        it.flush_all(0, &mut out);
        // 7 registers flushed (ecx already in lifeguard).
        assert_eq!(out.len(), 7);
        for r in Reg::ALL {
            assert_eq!(it.state(r), ItState::InLifeguard);
        }
    }

    #[test]
    fn aligned_bitmap_matches_interval_overlap_exhaustively() {
        // Exhaustive check over a small window: the hardware bitmap
        // comparison must equal exact interval overlap for sizes 1/2/4.
        let sizes = [MemSize::B1, MemSize::B2, MemSize::B4];
        for &sa in &sizes {
            for &sb in &sizes {
                for a in 0u32..16 {
                    for b in 0u32..16 {
                        let ra = MemRef::new(100 + a, sa);
                        let rb = MemRef::new(100 + b, sb);
                        assert_eq!(
                            bitmaps_overlap(ra, rb),
                            ra.overlaps(rb),
                            "mismatch for {ra} vs {rb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prop_reduction_statistic() {
        let mut it = InheritanceTracker::new(ItConfig::default());
        assert_eq!(it.stats().prop_reduction(), 0.0);
        run(&mut it, 0, Event::Prop(OpClass::ImmToReg { rd: Reg::Eax }));
        run(&mut it, 0, Event::Prop(OpClass::ImmToMem { dst: mem(0x40) }));
        assert!((it.stats().prop_reduction() - 0.5).abs() < 1e-9);
    }
}

//! The five instruction-grain lifeguards of the paper (Table 1).
//!
//! | Lifeguard | Detects | Metadata | IT | IF | M-TLB |
//! |---|---|---|---|---|---|
//! | [`AddrCheck`] | accesses to unallocated memory, double/invalid frees, leaks | 1 accessible bit / byte | – | ✓ | ✓ |
//! | [`MemCheck`] | AddrCheck + uses of uninitialized values | +1 initialized bit / byte, per-register state | ✓ | ✓ | ✓ |
//! | [`TaintCheck`] | overwrite-based security exploits | 2 taint bits / byte, per-register state | ✓ | – | ✓ |
//! | [`TaintCheckDetailed`] | same + taint-propagation trail | 8-byte (from, eip) record / word | ✓ | – | ✓ |
//! | [`LockSet`] | data races (Eraser algorithm) | 32-bit state+lockset record / word | – | ✓ | ✓ |
//!
//! Each lifeguard declares its ETCT once, as the `ROWS` list in its module.
//! A row is a registered event type, its Idempotent Filter fields (§5) and
//! whether a pipelined spine may skip it. The ETCT, the IT and IF columns
//! above, the IT policy and spine elision are all derived from the rows, so
//! a lifeguard's semantics toward the accelerators are edited there only.
//!
//! Each lifeguard is an ordinary software program running on the lifeguard
//! core: its handlers do *real* metadata work against `igm-shadow` maps (so
//! planted bugs are actually detected) while reporting per-event dynamic
//! instruction counts and metadata memory references through a
//! [`CostSink`], which is what the timing model consumes. Handler costs are
//! calibrated against the paper's Figure 7 listing (8 instructions for the
//! two-level TaintCheck handler, 4 with `LMA`). Callers that only want the
//! verdicts hand the handlers a [`CostSink::discarding`] sink and skip the
//! accounting.
//!
//! A lifeguard runs behind its dispatch pipeline as a [`Monitor`], which
//! both `igm-sim` and `igm-runtime` build on.

pub mod addrcheck;
pub mod cost;
mod fields;
pub mod lockset;
pub mod memcheck;
pub mod monitor;
pub mod taint;
pub mod taint_detailed;
pub mod violation;

pub use addrcheck::AddrCheck;
pub use cost::{CostSink, MISS_HANDLER_INSTRS, NLBA_INSTRS, SOFTWARE_MAP_INSTRS};
pub use lockset::LockSet;
pub use memcheck::MemCheck;
pub use monitor::Monitor;
pub use taint::TaintCheck;
pub use taint_detailed::TaintCheckDetailed;
pub use violation::Violation;

use igm_core::{AccelConfig, ItConfig};
use igm_lba::{DeliveredEvent, Etct, EventType, FieldSelect, IfEventConfig, NUM_EVENT_TYPES};
use std::fmt;

/// One row of a lifeguard's declaration: a registered event type, its
/// Idempotent Filter fields, and whether a pipelined spine may skip it.
pub(crate) struct Row {
    event: EventType,
    if_cfg: IfEventConfig,
    spine_elides: bool,
}

/// Plain filter behaviour: `IfEventConfig::default()`, in a `const`.
pub(crate) const PLAIN: IfEventConfig = IfEventConfig {
    cacheable: false,
    cc: 0,
    fields: FieldSelect::NONE,
    invalidate_all: false,
    invalidate_match: false,
};

impl Row {
    /// Registers `event` with `if_cfg`; the spine runs it.
    pub(crate) const fn new(event: EventType, if_cfg: IfEventConfig) -> Row {
        Row { event, if_cfg, spine_elides: false }
    }

    /// The same row, skipped on a pipelined spine.
    pub(crate) const fn elided(self) -> Row {
        Row { spine_elides: true, ..self }
    }
}

/// [`LifeguardKind::spine_elides`] as one indexed load, per lifeguard (by
/// discriminant) and event type: a registered type takes its row's flag; an
/// unregistered check keeps the per-class rule, skipped if all others are.
const SPINE_ELIDES: [[bool; NUM_EVENT_TYPES]; LifeguardKind::ALL.len()] = {
    let mut table = [[false; NUM_EVENT_TYPES]; LifeguardKind::ALL.len()];
    let mut k = 0;
    while k < table.len() {
        let kind = LifeguardKind::ALL[k];
        let (rows, elides) = (kind.rows(), &mut table[kind as usize]);
        let (mut i, mut checks_elided) = (0, true);
        while i < rows.len() {
            elides[rows[i].event as usize] = rows[i].spine_elides;
            checks_elided &= rows[i].spine_elides || !rows[i].event.is_check();
            i += 1;
        }
        let mut t = EventType::MemRead as usize;
        while t <= EventType::CheckFormatString as usize {
            elides[t] |= checks_elided;
            t += 1;
        }
        k += 1;
    }
    table
};

/// Which lifeguard (the paper's five).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LifeguardKind {
    AddrCheck,
    MemCheck,
    TaintCheck,
    TaintCheckDetailed,
    LockSet,
}

/// Which accelerators apply to a lifeguard (the paper's Figure 2 matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelSupport {
    /// Inheritance Tracking applies.
    pub it: bool,
    /// Idempotent Filters apply.
    pub idempotent_filter: bool,
    /// The Metadata-TLB applies (true for every studied lifeguard).
    pub lma: bool,
}

impl LifeguardKind {
    /// All five lifeguards in the paper's presentation order.
    pub const ALL: [LifeguardKind; 5] = [
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
        LifeguardKind::TaintCheck,
        LifeguardKind::TaintCheckDetailed,
        LifeguardKind::LockSet,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            LifeguardKind::AddrCheck => "AddrCheck",
            LifeguardKind::MemCheck => "MemCheck",
            LifeguardKind::TaintCheck => "TaintCheck",
            LifeguardKind::TaintCheckDetailed => "TaintCheck w/ detailed tracking",
            LifeguardKind::LockSet => "LockSet",
        }
    }

    /// The declaration rows; TaintCheckDetailed shares TaintCheck's.
    const fn rows(self) -> &'static [Row] {
        match self {
            LifeguardKind::AddrCheck => addrcheck::ROWS,
            LifeguardKind::MemCheck => memcheck::ROWS,
            LifeguardKind::TaintCheck | LifeguardKind::TaintCheckDetailed => taint::ROWS,
            LifeguardKind::LockSet => lockset::ROWS,
        }
    }

    /// The ETCT this lifeguard loads: its rows, and nothing else registered.
    pub fn etct(self) -> Etct {
        let mut etct = Etct::new();
        for row in self.rows() {
            etct.register(row.event, row.if_cfg);
        }
        etct
    }

    /// The Figure 2 row, derived from the ETCT rows: IT applies when some
    /// propagation event is registered, the IF when some row is cacheable.
    pub fn accel_support(self) -> AccelSupport {
        let rows = self.rows();
        AccelSupport {
            it: rows.iter().any(|r| r.event.is_propagation()),
            idempotent_filter: rows.iter().any(|r| r.if_cfg.cacheable),
            lma: true,
        }
    }

    /// The IT policy when IT applies (else `None`): eager non-unary checks
    /// ([`ItConfig::memcheck_style`]) exactly if `CheckNonUnary` is registered.
    pub fn it_config(self) -> Option<ItConfig> {
        self.accel_support().it.then(|| ItConfig {
            nonunary_check: self.rows().iter().any(|r| r.event == EventType::CheckNonUnary),
            ..ItConfig::default()
        })
    }

    /// Masks a requested configuration by this lifeguard's Figure 2 row and
    /// substitutes the lifeguard's own IT policy.
    pub fn mask_config(self, requested: &AccelConfig) -> AccelConfig {
        let support = self.accel_support();
        AccelConfig {
            lma: requested.lma && support.lma,
            mtlb_entries: requested.mtlb_entries,
            it: requested.it.and(self.it_config()),
            if_geometry: requested.if_geometry.filter(|_| support.idempotent_filter),
        }
    }

    /// Builds the lifeguard under a (pre-masked) configuration as a
    /// statically-dispatched [`AnyLifeguard`]: one discriminant branch per
    /// *batch* instead of a virtual call per *event*. Every consumer (the
    /// co-simulator, the profiler, the streaming runtime) holds this one
    /// representation.
    pub fn build_any(self, cfg: &AccelConfig) -> AnyLifeguard {
        let cfg = self.mask_config(cfg);
        match self {
            LifeguardKind::AddrCheck => AnyLifeguard::AddrCheck(AddrCheck::new(&cfg)),
            LifeguardKind::MemCheck => AnyLifeguard::MemCheck(MemCheck::new(&cfg)),
            LifeguardKind::TaintCheck => AnyLifeguard::TaintCheck(TaintCheck::new(&cfg)),
            LifeguardKind::TaintCheckDetailed => {
                AnyLifeguard::TaintCheckDetailed(TaintCheckDetailed::new(&cfg))
            }
            LifeguardKind::LockSet => AnyLifeguard::LockSet(LockSet::new(&cfg)),
        }
    }

    /// Whether a pipelined session's *spine* may elide `ev`: the flag of
    /// the row registering its type. The epoch job replays the *full* event
    /// stream against the boundary snapshot and reports every violation, so
    /// the spine may skip a handler that only reads metadata and reports.
    /// An unregistered check (never delivered) is skipped if all registered are.
    #[inline]
    pub fn spine_elides(self, ev: &igm_lba::Event) -> bool {
        SPINE_ELIDES[self as usize][ev.event_type().index()]
    }

    /// Whether some row is skippable on the spine. The pool's automatic
    /// pipelining only engages when it is: LockSet's spine runs everything.
    pub fn spine_elides_any(self) -> bool {
        self.rows().iter().any(|r| r.spine_elides)
    }
}

impl fmt::Display for LifeguardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An instruction-grain lifeguard: event handlers over metadata.
pub trait Lifeguard {
    /// Which lifeguard this is.
    fn kind(&self) -> LifeguardKind;

    /// The ETCT this lifeguard loads ([`LifeguardKind::etct`]).
    fn etct(&self) -> Etct {
        self.kind().etct()
    }

    /// Handles one delivered event, accumulating handler cost into `cost`
    /// (nothing, under a [`CostSink::discarding`] sink — verdicts and
    /// metadata are the same either way).
    /// The `nlba` dispatch instruction is charged by the caller.
    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink);

    /// Handles a whole batch of delivered events, event for event as
    /// [`Lifeguard::handle`] would. Cost accumulates across the batch into
    /// `cost` (the caller clears it at batch grain), and each event's
    /// handler starts with a [`CostSink::mark`], where a consumer that needs
    /// per-event costs splits them. Every violation reported here is tagged
    /// with its event's index in `evs` ([`Lifeguard::violation_events`]).
    fn handle_batch(&mut self, evs: &[DeliveredEvent], cost: &mut CostSink);

    /// Violations reported so far.
    fn violations(&self) -> &[Violation];

    /// Parallel to [`Lifeguard::violations`]: for each violation, the index
    /// in the `evs` of the [`Lifeguard::handle_batch`] call that reported
    /// it of the event being handled. A caller that drains the violations
    /// after every batch maps each to its record through the batch's
    /// [`igm_lba::EventBuf`] boundaries ([`igm_lba::EventBuf::record_of`]).
    /// Violations reported outside a batch call (through
    /// [`Lifeguard::handle`], or a leak report) carry no meaningful index.
    fn violation_events(&self) -> &[u32];

    /// Drains the reported violations.
    fn take_violations(&mut self) -> Vec<Violation>;

    /// Marks a loader-established region (globals, stack, mmap) as valid
    /// program state before monitoring starts.
    fn premark_region(&mut self, base: u32, len: u32);

    /// Switches the lifeguard into synthetic-workload mode (statistical
    /// traces rather than real programs). Only MemCheck reacts: it treats
    /// `malloc` as `calloc`, because generated reads are not data-dependent
    /// on generated writes (see `igm-workload` docs). Default: no-op.
    fn set_synthetic_workload_mode(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Current metadata footprint in bytes (shadow chunks + auxiliary
    /// structures), for the space studies.
    fn metadata_bytes(&self) -> u64;
}

/// A statically-dispatched sum of the five lifeguards.
///
/// The one runtime representation of a lifeguard ([`LifeguardKind::build_any`]):
/// [`handle_batch`] resolves the variant once per batch and then loops the
/// concrete handler directly, so the per-event path is a predictable direct
/// call instead of a vtable load per event. All five variants are `Clone`,
/// and a clone is the epoch-boundary snapshot a pipelined session ships.
///
/// [`handle_batch`]: Lifeguard::handle_batch
#[derive(Debug, Clone)]
pub enum AnyLifeguard {
    AddrCheck(AddrCheck),
    MemCheck(MemCheck),
    TaintCheck(TaintCheck),
    TaintCheckDetailed(TaintCheckDetailed),
    LockSet(LockSet),
}

/// Delegates an expression to the concrete variant.
macro_rules! with_each_lifeguard {
    ($self:expr, $lg:ident => $e:expr) => {
        match $self {
            AnyLifeguard::AddrCheck($lg) => $e,
            AnyLifeguard::MemCheck($lg) => $e,
            AnyLifeguard::TaintCheck($lg) => $e,
            AnyLifeguard::TaintCheckDetailed($lg) => $e,
            AnyLifeguard::LockSet($lg) => $e,
        }
    };
}

impl Lifeguard for AnyLifeguard {
    fn kind(&self) -> LifeguardKind {
        with_each_lifeguard!(self, lg => lg.kind())
    }

    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink) {
        with_each_lifeguard!(self, lg => lg.handle(ev, cost))
    }

    fn handle_batch(&mut self, evs: &[DeliveredEvent], cost: &mut CostSink) {
        // One discriminant branch for the whole batch; the concrete
        // lifeguard's own batch sweep (columnar override or the default
        // loop) runs with direct, inlinable calls.
        with_each_lifeguard!(self, lg => lg.handle_batch(evs, cost))
    }

    fn violations(&self) -> &[Violation] {
        with_each_lifeguard!(self, lg => lg.violations())
    }

    fn violation_events(&self) -> &[u32] {
        with_each_lifeguard!(self, lg => lg.violation_events())
    }

    fn take_violations(&mut self) -> Vec<Violation> {
        with_each_lifeguard!(self, lg => lg.take_violations())
    }

    fn premark_region(&mut self, base: u32, len: u32) {
        with_each_lifeguard!(self, lg => lg.premark_region(base, len))
    }

    fn set_synthetic_workload_mode(&mut self, enabled: bool) {
        with_each_lifeguard!(self, lg => lg.set_synthetic_workload_mode(enabled))
    }

    fn metadata_bytes(&self) -> u64 {
        with_each_lifeguard!(self, lg => lg.metadata_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_matrix() {
        use LifeguardKind::*;
        // Every lifeguard benefits from the M-TLB.
        for k in LifeguardKind::ALL {
            assert!(k.accel_support().lma, "{k}");
        }
        assert!(!AddrCheck.accel_support().it);
        assert!(AddrCheck.accel_support().idempotent_filter);
        assert!(MemCheck.accel_support().it && MemCheck.accel_support().idempotent_filter);
        assert!(TaintCheck.accel_support().it);
        assert!(!TaintCheck.accel_support().idempotent_filter);
        assert!(TaintCheckDetailed.accel_support().it);
        assert!(!LockSet.accel_support().it);
        assert!(LockSet.accel_support().idempotent_filter);
    }

    #[test]
    fn mask_config_respects_support() {
        let full = AccelConfig::full(ItConfig::taint_style());
        let m = LifeguardKind::AddrCheck.mask_config(&full);
        assert!(m.lma && m.it.is_none() && m.if_geometry.is_some());
        let m = LifeguardKind::TaintCheck.mask_config(&full);
        assert!(m.lma && m.it.is_some() && m.if_geometry.is_none());
        let m = LifeguardKind::MemCheck.mask_config(&full);
        assert!(m.it.unwrap().nonunary_check, "MemCheck uses eager checks");
    }

    #[test]
    fn build_constructs_every_lifeguard() {
        for k in LifeguardKind::ALL {
            let any = k.build_any(&AccelConfig::full(ItConfig::taint_style()));
            assert_eq!(any.kind(), k);
            assert!(any.etct().registered_count() > 0);
            let copy = any.clone();
            assert_eq!(copy.kind(), k, "{k}: a clone is the same lifeguard");
            assert_eq!(copy.metadata_bytes(), any.metadata_bytes(), "{k}: clone copies state");
        }
    }

    #[test]
    fn spine_elision_matches_metadata_discipline() {
        use igm_isa::{MemRef, OpClass, Reg};
        use igm_lba::{CheckKind, Event, MetaSource};
        let read = Event::MemRead(MemRef::word(0x9000));
        let check =
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Eax) };
        let prop = Event::Prop(OpClass::ImmToReg { rd: Reg::Eax });
        for k in
            [LifeguardKind::AddrCheck, LifeguardKind::TaintCheck, LifeguardKind::TaintCheckDetailed]
        {
            assert!(k.spine_elides(&read) && k.spine_elides(&check), "{k}");
            assert!(!k.spine_elides(&prop), "{k}: updates always run on the spine");
        }
        assert!(LifeguardKind::MemCheck.spine_elides(&read));
        assert!(
            !LifeguardKind::MemCheck.spine_elides(&check),
            "MemCheck check handlers write cascade-suppression state"
        );
        assert!(!LifeguardKind::LockSet.spine_elides(&read));
        assert!(!LifeguardKind::LockSet.spine_elides(&check));
    }

    /// The answers derived from the declaration rows equal the declared
    /// tables: the Figure 2 matrix, each lifeguard's IT policy and the
    /// per-class spine rule, for every event type (registered or not).
    #[test]
    fn derived_answers_equal_the_declared_tables() {
        use igm_isa::{Annotation, MemRef, OpClass, Reg, RegSet};
        use igm_lba::{CheckKind, Event, MetaSource};
        use LifeguardKind::*;
        let support = |it, idempotent_filter| AccelSupport { it, idempotent_filter, lma: true };
        for (kind, want_support, want_it) in [
            (AddrCheck, support(false, true), None),
            (MemCheck, support(true, true), Some(ItConfig::memcheck_style())),
            (TaintCheck, support(true, false), Some(ItConfig::taint_style())),
            (TaintCheckDetailed, support(true, false), Some(ItConfig::taint_style())),
            (LockSet, support(false, true), None),
        ] {
            assert_eq!(kind.accel_support(), want_support, "{kind}");
            assert_eq!(kind.it_config(), want_it, "{kind}");
            assert_eq!(kind.spine_elides_any(), kind != LockSet, "{kind}");
        }

        let declared_elides = |kind, ev: &Event| match kind {
            AddrCheck | TaintCheck | TaintCheckDetailed => {
                matches!(ev, Event::Check { .. } | Event::MemRead(_) | Event::MemWrite(_))
            }
            MemCheck => matches!(ev, Event::MemRead(_) | Event::MemWrite(_)),
            LockSet => false,
        };
        let (m, r, none) = (MemRef::word(0x9000), Reg::Eax, RegSet::EMPTY);
        let ops = [
            OpClass::ImmToReg { rd: r },
            OpClass::ImmToMem { dst: m },
            OpClass::RegSelf { rd: r },
            OpClass::MemSelf { dst: m },
            OpClass::RegToReg { rs: r, rd: r },
            OpClass::RegToMem { rs: r, dst: m },
            OpClass::MemToReg { src: m, rd: r },
            OpClass::MemToMem { src: m, dst: m },
            OpClass::DestRegOpReg { rs: r, rd: r },
            OpClass::DestRegOpMem { src: m, rd: r },
            OpClass::DestMemOpReg { rs: r, dst: m },
            OpClass::ReadOnly { src: None, reads: none },
            OpClass::Other { reads: none, writes: none, mem_read: None, mem_write: None },
        ];
        let checks = [
            CheckKind::NonUnaryInput,
            CheckKind::AddrCompute,
            CheckKind::CondBranchInput,
            CheckKind::JumpTarget,
            CheckKind::SyscallArg,
            CheckKind::FormatString,
        ];
        let annotations = [
            Annotation::Malloc { base: 0x9000, size: 8 },
            Annotation::Free { base: 0x9000 },
            Annotation::Lock { lock: 1 },
            Annotation::Unlock { lock: 1 },
            Annotation::ReadInput { base: 0x9000, len: 8 },
            Annotation::Syscall { arg_reg: None, arg_mem: None },
            Annotation::PrintfFormat { fmt: m },
            Annotation::ThreadSwitch { tid: 1 },
            Annotation::ThreadExit { tid: 1 },
        ];
        let events: Vec<Event> = (ops.map(Event::Prop).into_iter())
            .chain([Event::MemRead(m), Event::MemWrite(m)])
            .chain(checks.map(|kind| Event::Check { kind, source: MetaSource::Reg(r) }))
            .chain(annotations.map(Event::Annot))
            .collect();
        let types: std::collections::HashSet<_> = events.iter().map(Event::event_type).collect();
        assert_eq!(types.len(), igm_lba::NUM_EVENT_TYPES, "one event of every type");
        for kind in LifeguardKind::ALL {
            for ev in &events {
                assert_eq!(kind.spine_elides(ev), declared_elides(kind, ev), "{kind}: {ev:?}");
            }
        }
    }

    #[test]
    fn any_lifeguard_handle_batch_equals_per_event_handle() {
        use igm_isa::{Annotation, MemRef, OpClass, Reg};
        use igm_lba::Event;
        let cfg = AccelConfig::baseline();
        let events = [
            DeliveredEvent::new(0x10, Event::Annot(Annotation::Malloc { base: 0x9000, size: 8 })),
            DeliveredEvent::new(0x14, Event::MemRead(MemRef::word(0x9000))),
            DeliveredEvent::new(0x18, Event::MemWrite(MemRef::word(0x9010))), // violation
            DeliveredEvent::new(0x1c, Event::Prop(OpClass::ImmToReg { rd: Reg::Eax })),
        ];
        let mut per_event = LifeguardKind::AddrCheck.build_any(&cfg);
        let mut c1 = CostSink::new();
        for ev in &events {
            per_event.handle(ev, &mut c1);
        }
        let mut batched = LifeguardKind::AddrCheck.build_any(&cfg);
        let mut c2 = CostSink::new();
        batched.handle_batch(&events, &mut c2);
        assert_eq!(per_event.violations(), batched.violations());
        assert_eq!(c1.instrs(), c2.instrs());
        assert_eq!(c1.mem_vas(), c2.mem_vas());
        // The batch tags the violation with the event that raised it, and
        // draining the violations drains the tags.
        assert_eq!(batched.violation_events(), &[2]);
        batched.take_violations();
        assert!(batched.violation_events().is_empty());
    }
}

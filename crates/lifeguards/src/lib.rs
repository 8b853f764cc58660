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
//! Each lifeguard is an ordinary software program running on the lifeguard
//! core: its handlers do *real* metadata work against `igm-shadow` maps (so
//! planted bugs are actually detected) while reporting per-event dynamic
//! instruction counts and metadata memory references through a
//! [`CostSink`], which is what the timing model consumes. Handler costs are
//! calibrated against the paper's Figure 7 listing (8 instructions for the
//! two-level TaintCheck handler, 4 with `LMA`). Callers that only want the
//! verdicts hand the handlers a [`CostSink::discarding`] sink and skip the
//! accounting.

pub mod addrcheck;
pub mod cost;
mod fields;
pub mod lockset;
pub mod memcheck;
pub mod taint;
pub mod taint_detailed;
pub mod violation;

pub use addrcheck::AddrCheck;
pub use cost::{CostSink, MISS_HANDLER_INSTRS, NLBA_INSTRS, SOFTWARE_MAP_INSTRS};
pub use lockset::LockSet;
pub use memcheck::MemCheck;
pub use taint::TaintCheck;
pub use taint_detailed::TaintCheckDetailed;
pub use violation::Violation;

use igm_core::{AccelConfig, ItConfig};
use igm_lba::{DeliveredEvent, Etct};
use std::fmt;

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

    /// The Figure 2 applicability row.
    pub fn accel_support(self) -> AccelSupport {
        match self {
            LifeguardKind::AddrCheck => {
                AccelSupport { it: false, idempotent_filter: true, lma: true }
            }
            LifeguardKind::MemCheck => {
                AccelSupport { it: true, idempotent_filter: true, lma: true }
            }
            LifeguardKind::TaintCheck | LifeguardKind::TaintCheckDetailed => {
                AccelSupport { it: true, idempotent_filter: false, lma: true }
            }
            LifeguardKind::LockSet => {
                AccelSupport { it: false, idempotent_filter: true, lma: true }
            }
        }
    }

    /// The IT policy this lifeguard requires when IT is enabled.
    pub fn it_config(self) -> Option<ItConfig> {
        match self {
            LifeguardKind::MemCheck => Some(ItConfig::memcheck_style()),
            LifeguardKind::TaintCheck | LifeguardKind::TaintCheckDetailed => {
                Some(ItConfig::taint_style())
            }
            _ => None,
        }
    }

    /// Masks a requested configuration by this lifeguard's Figure 2 row and
    /// substitutes the lifeguard's own IT policy.
    pub fn mask_config(self, requested: &AccelConfig) -> AccelConfig {
        let support = self.accel_support();
        AccelConfig {
            lma: requested.lma && support.lma,
            mtlb_entries: requested.mtlb_entries,
            it: if requested.it.is_some() && support.it { self.it_config() } else { None },
            if_geometry: if support.idempotent_filter { requested.if_geometry } else { None },
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

    /// Which events a pipelined session's *spine* may elide (the runtime's
    /// analogue of the Figure 2 applicability matrix, refined to per-event
    /// granularity). The spine's job is to reproduce the exact shadow-state
    /// evolution at epoch boundaries; any event whose handler is
    /// metadata-pure can be skipped there, because the epoch job replays
    /// the *full* event stream against the boundary snapshot and is the
    /// authoritative source of violations.
    ///
    /// * AddrCheck / TaintCheck (± detailed) — access and use checks only
    ///   read the shadow map and report; the spine elides them all.
    /// * MemCheck — accessibility checks (`MemRead`/`MemWrite`) are pure,
    ///   but `Check` handlers *write* metadata to suppress report cascades
    ///   (register mask and `I_BIT` stores), so those must run on the spine.
    /// * LockSet — nearly every access refines the word's state machine or
    ///   candidate lockset; nothing can be elided.
    ///
    /// Spine-side violations on elided-capable runs are discarded — the
    /// epoch jobs re-derive the complete, ordered violation sequence.
    pub fn spine_elides(self, ev: &igm_lba::Event) -> bool {
        match self {
            LifeguardKind::AddrCheck
            | LifeguardKind::TaintCheck
            | LifeguardKind::TaintCheckDetailed => matches!(
                ev,
                igm_lba::Event::Check { .. }
                    | igm_lba::Event::MemRead(_)
                    | igm_lba::Event::MemWrite(_)
            ),
            LifeguardKind::MemCheck => {
                matches!(ev, igm_lba::Event::MemRead(_) | igm_lba::Event::MemWrite(_))
            }
            LifeguardKind::LockSet => false,
        }
    }

    /// Whether [`LifeguardKind::spine_elides`] elides *anything* for this
    /// lifeguard. The pool's automatic pipelining only engages when it
    /// does — a lifeguard whose spine must run the full stream (LockSet)
    /// gains nothing from shipping replay jobs on top of it.
    pub fn spine_elides_any(self) -> bool {
        !matches!(self, LifeguardKind::LockSet)
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

    /// The event registrations and Idempotent Filter configuration this
    /// lifeguard loads into the ETCT.
    fn etct(&self) -> Etct;

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

    fn etct(&self) -> Etct {
        with_each_lifeguard!(self, lg => lg.etct())
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

//! The event-dispatch pipeline: record extraction → Inheritance Tracking →
//! ETCT gating → Idempotent Filter → handler delivery.
//!
//! This is the consumer-side hardware of the paper's Figure 3: the
//! `fetch & decompress` and `log record dispatch` components, extended with
//! the IT and IF units proposed by the paper (dashed boxes).
//!
//! The stages are one fused pass. [`igm_lba::sweep_batch`] walks a
//! [`TraceBatch`]'s columns and hands each event to a sink at its emission
//! site, where the event type is a compile-time constant and the payload is
//! still unbuilt; the pipeline's sink runs every remaining stage right
//! there, so nothing is staged between them. Per event, in order:
//!
//! 1. **Extraction** — the sweep emits the record's events in canonical
//!    order (checks before the propagation event).
//! 2. **Inheritance Tracking**, when configured — propagation events always
//!    enter IT (its table must observe every data-flow instruction to stay
//!    coherent); source checks enter it only if the lifeguard registered
//!    their type (the rest are dropped for free, as `nlba` skips them);
//!    a registered annotation first flushes the table (its handler may
//!    rewrite arbitrary metadata, invalidating lazy inheritance). IT
//!    absorbs, transforms or multiplies events and emits what must go on
//!    into the gate below, again naming each type statically.
//! 3. **ETCT gating** — events of unregistered types are dropped, raw ones
//!    before their payload is ever constructed.
//! 4. **Idempotent Filter** — invalidations and redundant-check filtering
//!    per the lifeguard's ETCT configuration.
//! 5. **Delivery** — everything surviving is appended to the caller's
//!    [`EventBuf`], one closed record per trace entry.
//!
//! [`DispatchPipeline::dispatch_batch`] is that pass and the only way in:
//! callers holding [`igm_isa::TraceEntry`] values (the co-simulator, the
//! profilers, tests) build a [`TraceBatch`] from them first, so there is
//! one gate and one IT route whatever the caller holds.

use crate::config::AccelConfig;
use crate::filter::{IdempotentFilter, IfOutcome, IfStats};
use crate::it::{InheritanceTracker, ItStats};
use igm_lba::{
    sweep_batch, DeliveredEvent, Etct, Event, EventBuf, EventSink, EventType, TraceBatch,
    NUM_EVENT_TYPES,
};

/// Aggregate pipeline counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchStats {
    /// Log records dispatched.
    pub records: u64,
    /// Events produced by extraction.
    pub events_extracted: u64,
    /// Events dropped because their type is unregistered.
    pub unregistered_dropped: u64,
    /// Events discarded by the Idempotent Filter.
    pub if_filtered: u64,
    /// Events delivered to lifeguard handlers.
    pub delivered: u64,
    /// Delivered events broken down by [`igm_lba::EventType`] index.
    pub delivered_by_type: [u64; NUM_EVENT_TYPES],
}

impl Default for DispatchStats {
    fn default() -> DispatchStats {
        DispatchStats {
            records: 0,
            events_extracted: 0,
            unregistered_dropped: 0,
            if_filtered: 0,
            delivered: 0,
            delivered_by_type: [0; NUM_EVENT_TYPES],
        }
    }
}

/// The dispatch pipeline with its optional accelerator units.
///
/// # Example
///
/// ```
/// use igm_core::{AccelConfig, DispatchPipeline, ItConfig};
/// use igm_lba::{Etct, EventBuf, EventType, TraceBatch};
/// use igm_isa::{OpClass, MemRef, Reg, TraceEntry};
///
/// let mut etct = Etct::new();
/// etct.register_plain(EventType::MemToReg);
/// etct.register_plain(EventType::MemToMem);
/// etct.register_plain(EventType::RegToMem);
/// etct.register_plain(EventType::ImmToMem);
///
/// let mut p = DispatchPipeline::new(etct, &AccelConfig::lma_it(ItConfig::taint_style()));
/// // A load is absorbed by IT: nothing reaches the handler.
/// let load = TraceEntry::op(0x1000, OpClass::MemToReg {
///     src: MemRef::word(0x9000), rd: Reg::Eax });
/// let mut delivered = EventBuf::new();
/// p.dispatch_batch(&TraceBatch::from_entries(&[load]), &mut delivered);
/// assert!(delivered.is_empty());
/// assert_eq!(delivered.records(), 1);
/// assert_eq!(p.stats().records, 1);
/// ```
///
/// The pipeline is `Clone + Send`: the streaming runtime (`igm-runtime`)
/// instantiates one pipeline per lifeguard shard and moves it onto a worker
/// thread; cloning snapshots the accelerator state for epoch-parallel
/// checking.
#[derive(Debug, Clone)]
pub struct DispatchPipeline {
    etct: Etct,
    it: Option<InheritanceTracker>,
    filter: Option<IdempotentFilter>,
    stats: DispatchStats,
}

impl DispatchPipeline {
    /// Builds a pipeline for a lifeguard's ETCT under `cfg`.
    pub fn new(etct: Etct, cfg: &AccelConfig) -> DispatchPipeline {
        DispatchPipeline {
            etct,
            it: cfg.it.map(InheritanceTracker::new),
            filter: cfg.if_geometry.map(IdempotentFilter::new),
            stats: DispatchStats::default(),
        }
    }

    /// The pipeline's ETCT.
    pub fn etct(&self) -> &Etct {
        &self.etct
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &DispatchStats {
        &self.stats
    }

    /// Inheritance Tracking counters, when the unit is present.
    pub fn it_stats(&self) -> Option<&ItStats> {
        self.it.as_ref().map(|t| t.stats())
    }

    /// Idempotent Filter counters, when the unit is present.
    pub fn if_stats(&self) -> Option<&IfStats> {
        self.filter.as_ref().map(|f| f.stats())
    }

    /// Dispatches a whole columnar [`TraceBatch`] through
    /// extraction → IT → ETCT gating → IF in one fused column sweep,
    /// appending every surviving event to `out` (cleared first; one closed
    /// [`EventBuf`] record per trace entry).
    ///
    /// This is the hot path, with or without accelerators: every stage runs
    /// at the sweep's emission sites, where the event type is static, so
    /// the ETCT test is one precomputed-row load per site, events nobody
    /// registered are never constructed, and the only buffer written is
    /// `out` itself — steady-state dispatch performs no heap allocation.
    pub fn dispatch_batch(&mut self, batch: &TraceBatch, out: &mut EventBuf) {
        out.clear();
        self.stats.records += batch.len() as u64;
        let gate =
            Gate { etct: &self.etct, filter: self.filter.as_mut(), stats: &mut self.stats, out };
        match &mut self.it {
            Some(it) => sweep_batch(batch, &mut ViaIt { it, gate }),
            None => sweep_batch(batch, &mut Direct { gate }),
        }
    }
}

/// The ETCT gate, the Idempotent Filter and delivery accounting as an
/// [`EventSink`]: what a raw event meets when there is no IT, and what IT
/// emits into when there is. Its callers name the event type statically, so
/// the ETCT row lookup is a single indexed load per emission site and
/// unregistered events are never constructed.
struct Gate<'a> {
    etct: &'a Etct,
    filter: Option<&'a mut IdempotentFilter>,
    stats: &'a mut DispatchStats,
    out: &'a mut EventBuf,
}

impl EventSink for Gate<'_> {
    #[inline(always)]
    fn event(&mut self, pc: u32, et: EventType, make: impl FnOnce() -> Event) {
        let row = self.etct.entry(et);
        if !row.registered {
            self.stats.unregistered_dropped += 1;
            return;
        }
        let ev = make();
        if let Some(f) = self.filter.as_deref_mut() {
            if f.process(pc, &ev, &row.if_cfg) == IfOutcome::Filtered {
                self.stats.if_filtered += 1;
                return;
            }
        }
        self.stats.delivered += 1;
        self.stats.delivered_by_type[et.index()] += 1;
        self.out.push(DeliveredEvent::new(pc, ev));
    }

    #[inline(always)]
    fn end_record(&mut self) {
        self.out.end_record();
    }
}

/// Sweep sink of the configurations without IT: every raw event goes
/// straight to the gate.
struct Direct<'a> {
    gate: Gate<'a>,
}

impl EventSink for Direct<'_> {
    #[inline(always)]
    fn event(&mut self, pc: u32, et: EventType, make: impl FnOnce() -> Event) {
        self.gate.stats.events_extracted += 1;
        self.gate.event(pc, et, make);
    }

    #[inline(always)]
    fn end_record(&mut self) {
        self.gate.end_record();
    }
}

/// Sweep sink of the IT configurations: raw events pass through
/// Inheritance Tracking, which emits into the gate.
struct ViaIt<'a> {
    it: &'a mut InheritanceTracker,
    gate: Gate<'a>,
}

impl EventSink for ViaIt<'_> {
    #[inline(always)]
    fn event(&mut self, pc: u32, et: EventType, make: impl FnOnce() -> Event) {
        self.gate.stats.events_extracted += 1;
        if et.is_propagation() {
            self.it.process(pc, make(), &mut self.gate);
        } else if et.is_annotation() {
            if self.gate.etct.is_registered(et) {
                // The annotation handler may rewrite metadata arbitrarily:
                // materialize all lazy inheritance before it runs.
                self.it.flush_all(pc, &mut self.gate);
            }
            self.gate.event(pc, et, make);
        } else if matches!(et, EventType::MemRead | EventType::MemWrite) {
            self.gate.event(pc, et, make);
        } else if self.gate.etct.is_registered(et) {
            // Register-source checks resolve through the IT table, but
            // only if the lifeguard cares about this check kind.
            self.it.process(pc, make(), &mut self.gate);
        } else {
            self.gate.stats.unregistered_dropped += 1;
        }
    }

    #[inline(always)]
    fn end_record(&mut self) {
        self.gate.end_record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::it::ItConfig;
    use igm_isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
    use igm_lba::{EventType, IfEventConfig};

    /// One record through the pipeline as a one-record batch, delivered
    /// events collected.
    fn collect(p: &mut DispatchPipeline, e: &TraceEntry) -> Vec<DeliveredEvent> {
        let mut out = EventBuf::new();
        p.dispatch_batch(&TraceBatch::from_entries(std::slice::from_ref(e)), &mut out);
        out.events().to_vec()
    }

    /// The streaming runtime moves pipelines and accelerator units across
    /// worker threads and clones them per shard; keep that statically true.
    #[test]
    fn pipeline_and_accelerators_are_send_and_clone() {
        fn assert_send_clone<T: Send + Clone>() {}
        assert_send_clone::<DispatchPipeline>();
        assert_send_clone::<InheritanceTracker>();
        assert_send_clone::<IdempotentFilter>();
        assert_send_clone::<crate::MetadataTlb>();
    }

    #[test]
    fn cloned_pipeline_diverges_independently() {
        let mut p = DispatchPipeline::new(addrcheck_etct(), &AccelConfig::lma_if());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        collect(&mut p, &load);
        let mut q = p.clone();
        assert_eq!(q.stats().records, 1);
        // The clone's IF inherits the warm entry (the load is filtered)...
        assert_eq!(collect(&mut q, &load).len(), 0);
        // ...but the original's counters are unaffected by the clone's run.
        assert_eq!(p.stats().records, 1);
        assert_eq!(q.stats().records, 2);
    }

    fn taint_etct() -> Etct {
        let mut etct = Etct::new();
        etct.register_all([
            EventType::ImmToReg,
            EventType::ImmToMem,
            EventType::RegToReg,
            EventType::RegToMem,
            EventType::MemToReg,
            EventType::MemToMem,
            EventType::DestRegOpReg,
            EventType::DestRegOpMem,
            EventType::DestMemOpReg,
            EventType::Other,
            EventType::CheckJumpTarget,
            EventType::Malloc,
            EventType::ReadInput,
        ]);
        etct
    }

    fn addrcheck_etct() -> Etct {
        let mut etct = Etct::new();
        etct.register(EventType::MemRead, IfEventConfig::cacheable_addr(0));
        etct.register(EventType::MemWrite, IfEventConfig::cacheable_addr(0));
        etct.register(EventType::Malloc, IfEventConfig::invalidates_all());
        etct.register(EventType::Free, IfEventConfig::invalidates_all());
        etct
    }

    #[test]
    fn baseline_delivers_registered_events_untouched() {
        let mut p = DispatchPipeline::new(taint_etct(), &AccelConfig::baseline());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        let out = collect(&mut p, &load);
        // MemRead is unregistered for TaintCheck; the propagation event is
        // delivered.
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].event,
            Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax })
        );
        assert_eq!(p.stats().unregistered_dropped, 1);
    }

    #[test]
    fn it_absorbs_register_traffic_end_to_end() {
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let a = MemRef::word(0xa0);
        let d = MemRef::word(0xd0);
        let seq = [
            TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }),
            TraceEntry::op(2, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            TraceEntry::op(3, OpClass::RegToMem { rs: Reg::Ecx, dst: d }),
        ];
        let mut out = Vec::new();
        for e in &seq {
            out.extend(collect(&mut p, e));
        }
        // Only the final store reaches software, transformed to mem_to_mem.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].event, Event::Prop(OpClass::MemToMem { src: a, dst: d }));
    }

    #[test]
    fn annotations_flush_it_before_delivery() {
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let a = MemRef::word(0xa0);
        collect(&mut p, &TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }));
        let out =
            collect(&mut p, &TraceEntry::annot(2, Annotation::Malloc { base: 0x9000, size: 64 }));
        // Flush events (one per register) precede the annotation.
        assert_eq!(out.len(), 9);
        assert!(matches!(out[8].event, Event::Annot(Annotation::Malloc { .. })));
        assert!(matches!(out[0].event, Event::Prop(_)));
    }

    #[test]
    fn unregistered_annotation_does_not_flush() {
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let a = MemRef::word(0xa0);
        collect(&mut p, &TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }));
        // ThreadSwitch is unregistered for TaintCheck.
        let out = collect(&mut p, &TraceEntry::annot(2, Annotation::ThreadSwitch { tid: 1 }));
        assert!(out.is_empty());
    }

    #[test]
    fn if_filters_redundant_accesses_and_invalidates_on_malloc() {
        let mut p = DispatchPipeline::new(addrcheck_etct(), &AccelConfig::lma_if());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        assert_eq!(collect(&mut p, &load).len(), 1);
        assert_eq!(collect(&mut p, &load).len(), 0); // filtered
        assert_eq!(p.stats().if_filtered, 1);
        // malloc invalidates; the next access re-checks.
        let m = TraceEntry::annot(0x20, Annotation::Malloc { base: 0x9000, size: 16 });
        assert_eq!(collect(&mut p, &m).len(), 1);
        assert_eq!(collect(&mut p, &load).len(), 1);
    }

    #[test]
    fn check_kind_gating_happens_before_it() {
        // TaintCheck registers jump-target checks but not addr-compute
        // checks; the latter never enter IT.
        let mut p =
            DispatchPipeline::new(taint_etct(), &AccelConfig::lma_it(ItConfig::taint_style()));
        let load = TraceEntry::op(1, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax })
            .with_addr_regs(igm_isa::RegSet::from_regs([Reg::Ebx]));
        let out = collect(&mut p, &load);
        assert!(out.is_empty());
        assert_eq!(p.it_stats().unwrap().check_in, 0);
    }

    #[test]
    fn dispatch_batch_equals_per_record_dispatch() {
        let a = MemRef::word(0xa0);
        let d = MemRef::word(0xd0);
        let seq = [
            TraceEntry::op(1, OpClass::MemToReg { src: a, rd: Reg::Eax }),
            TraceEntry::op(2, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            TraceEntry::annot(3, Annotation::Malloc { base: 0x9000, size: 64 }),
            TraceEntry::op(4, OpClass::RegToMem { rs: Reg::Ecx, dst: d }),
            TraceEntry::op(5, OpClass::MemToReg { src: d, rd: Reg::Edx }),
        ];
        for accel in [
            AccelConfig::baseline(),
            AccelConfig::lma_if(),
            AccelConfig::full(ItConfig::taint_style()),
        ] {
            let mut per_record = DispatchPipeline::new(taint_etct(), &accel);
            let mut reference = Vec::new();
            for e in &seq {
                reference.extend(collect(&mut per_record, e));
            }

            let mut batched = DispatchPipeline::new(taint_etct(), &accel);
            let mut out = EventBuf::new();
            batched.dispatch_batch(&TraceBatch::from_entries(&seq), &mut out);
            assert_eq!(out.events(), &reference[..], "{}", accel.label());
            assert_eq!(out.records(), seq.len());
            assert_eq!(batched.stats(), per_record.stats(), "{}", accel.label());
        }
    }

    #[test]
    fn delivered_by_type_accounting() {
        let mut p = DispatchPipeline::new(addrcheck_etct(), &AccelConfig::baseline());
        let load =
            TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax });
        let store =
            TraceEntry::op(0x14, OpClass::RegToMem { rs: Reg::Eax, dst: MemRef::word(0x9004) });
        collect(&mut p, &load);
        collect(&mut p, &store);
        let s = p.stats();
        assert_eq!(s.delivered_by_type[EventType::MemRead.index()], 1);
        assert_eq!(s.delivered_by_type[EventType::MemWrite.index()], 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.records, 2);
    }
}

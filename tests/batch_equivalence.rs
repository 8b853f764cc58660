//! How a trace is cut into batches must not matter: for every lifeguard
//! and accelerator configuration, columnar `dispatch_batch` over arbitrary
//! chunkings of a generated trace — each chunk scattered into a
//! `TraceBatch` — yields the identical delivered event sequence, identical
//! `DispatchStats`, identical handler costs and identical violations as
//! dispatching one-record batches with per-event handling. The same
//! property run also pins the `TraceBatch` round trip:
//! `from_entries` → view iterator is the identity on every chunk — and the
//! discarding `CostSink`: the same batches handled under it yield the same
//! violations and the same metadata footprint while recording nothing.
//! One generated trace in four is annotation-dense, so batches also cross
//! IT flushes and IF invalidations many times over.

use igm::accel::{AccelConfig, DispatchPipeline, ItConfig};
use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, MemSize, Reg, TraceEntry};
use igm::lba::{DeliveredEvent, EventBuf, TraceBatch};
use igm::lifeguards::{CostSink, Lifeguard, LifeguardKind};
use proptest::prelude::*;

const HEAP: u32 = 0x9000_0000;

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..8).prop_map(|i| {
        [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esp, Reg::Ebp, Reg::Esi, Reg::Edi][i as usize]
    })
}

fn mem() -> impl Strategy<Value = MemRef> {
    // A small, reusing address pool (so the IF actually filters) over a
    // region the trace itself mallocs, mixing access sizes.
    (0u32..0x100, prop_oneof![Just(MemSize::B1), Just(MemSize::B4)])
        .prop_map(|(off, size)| MemRef::new(HEAP + 4 * off, size))
}

fn entry() -> impl Strategy<Value = TraceEntry> {
    let op = prop_oneof![
        reg().prop_map(|rd| OpClassW(igm::isa::OpClass::ImmToReg { rd })),
        mem().prop_map(|dst| OpClassW(igm::isa::OpClass::ImmToMem { dst })),
        (reg(), reg()).prop_map(|(rs, rd)| OpClassW(igm::isa::OpClass::RegToReg { rs, rd })),
        (reg(), mem()).prop_map(|(rs, dst)| OpClassW(igm::isa::OpClass::RegToMem { rs, dst })),
        (mem(), reg()).prop_map(|(src, rd)| OpClassW(igm::isa::OpClass::MemToReg { src, rd })),
        (mem(), mem()).prop_map(|(src, dst)| OpClassW(igm::isa::OpClass::MemToMem { src, dst })),
        (reg(), reg()).prop_map(|(rs, rd)| OpClassW(igm::isa::OpClass::DestRegOpReg { rs, rd })),
        (mem(), reg()).prop_map(|(src, rd)| OpClassW(igm::isa::OpClass::DestRegOpMem { src, rd })),
        (reg(), mem()).prop_map(|(rs, dst)| OpClassW(igm::isa::OpClass::DestMemOpReg { rs, dst })),
        mem().prop_map(|dst| OpClassW(igm::isa::OpClass::MemSelf { dst })),
    ];
    let annot = prop_oneof![
        (0u32..0x80).prop_map(|o| Annotation::Malloc { base: HEAP + 8 * o, size: 64 }),
        (0u32..0x80).prop_map(|o| Annotation::Free { base: HEAP + 8 * o }),
        (0u32..0x40).prop_map(|o| Annotation::ReadInput { base: HEAP + 16 * o, len: 8 }),
        (1u32..4).prop_map(|t| Annotation::Lock { lock: 0x100 + t }),
        (1u32..4).prop_map(|t| Annotation::Unlock { lock: 0x100 + t }),
        (0u32..3).prop_map(|t| Annotation::ThreadSwitch { tid: t }),
    ];
    let ctrl = prop_oneof![
        Just(CtrlOp::Direct),
        proptest::option::of(reg()).prop_map(|input| CtrlOp::CondBranch { input }),
        reg().prop_map(|r| CtrlOp::Indirect { target: JumpTarget::Reg(r) }),
        mem().prop_map(|m| CtrlOp::Indirect { target: JumpTarget::Mem(m) }),
    ];
    prop_oneof![
        8 => op.prop_map(|OpClassW(o)| EntryKind::Op(o)),
        1 => annot.prop_map(EntryKind::Annot),
        1 => ctrl.prop_map(EntryKind::Ctrl),
    ]
    .prop_map(|k| match k {
        EntryKind::Op(o) => TraceEntry::op(0x1000, o),
        EntryKind::Annot(a) => TraceEntry::annot(0x1000, a),
        EntryKind::Ctrl(c) => TraceEntry::ctrl(0x1000, c),
    })
}

/// Annotation-dense records: one in three is a `Malloc`, `ReadInput`,
/// `Lock` or `Unlock` (unaligned bases, odd sizes), so a single batch
/// crosses several IT flushes and whole-filter IF invalidations and the
/// range handlers meet overlapping blocks.
fn dense_entry() -> impl Strategy<Value = TraceEntry> {
    let annot = prop_oneof![
        (0u32..0x3f0, 0u32..70).prop_map(|(o, size)| Annotation::Malloc { base: HEAP + o, size }),
        (0u32..0x3f0, 0u32..40).prop_map(|(o, len)| Annotation::ReadInput { base: HEAP + o, len }),
        (1u32..4).prop_map(|t| Annotation::Lock { lock: 0x100 + t }),
        (1u32..4).prop_map(|t| Annotation::Unlock { lock: 0x100 + t }),
    ];
    prop_oneof![
        2 => entry(),
        1 => annot.prop_map(|a| TraceEntry::annot(0x1000, a)),
    ]
}

// Local wrappers so the strategy arms share one Debug-able value type.
#[derive(Debug)]
struct OpClassW(igm::isa::OpClass);
#[derive(Debug)]
enum EntryKind {
    Op(igm::isa::OpClass),
    Annot(Annotation),
    Ctrl(CtrlOp),
}

/// Gives each record a distinct pc (some IF configurations key on pc).
fn with_pcs(mut trace: Vec<TraceEntry>) -> Vec<TraceEntry> {
    for (i, e) in trace.iter_mut().enumerate() {
        e.pc = 0x1000 + 4 * i as u32;
    }
    trace
}

fn accel_configs() -> [AccelConfig; 3] {
    [AccelConfig::baseline(), AccelConfig::lma_if(), AccelConfig::full(ItConfig::taint_style())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dispatch_batch_equals_n_dispatch_calls(
        raw_trace in prop_oneof![
            3 => proptest::collection::vec(entry(), 1..240),
            1 => proptest::collection::vec(dense_entry(), 40..240),
        ],
        chunk in 1usize..40,
    ) {
        let trace = with_pcs(raw_trace);
        for kind in LifeguardKind::ALL {
            for accel in accel_configs() {
                let masked = kind.mask_config(&accel);

                // Reference: one-record batches + per-event handling.
                let mut ref_lifeguard = kind.build_any(&accel);
                let mut ref_pipeline = DispatchPipeline::new(ref_lifeguard.etct(), &masked);
                let mut ref_cost = CostSink::new();
                let mut ref_delivered: Vec<DeliveredEvent> = Vec::new();
                let mut record_events = EventBuf::new();
                for e in &trace {
                    let single = TraceBatch::from_entries(std::slice::from_ref(e));
                    ref_pipeline.dispatch_batch(&single, &mut record_events);
                    for d in record_events.events() {
                        ref_lifeguard.handle(d, &mut ref_cost);
                    }
                    ref_delivered.extend_from_slice(record_events.events());
                }

                // Batched: the same trace in `chunk`-record columnar
                // batches through the hot path, pipeline state carrying
                // across batches.
                let mut lifeguard = kind.build_any(&accel);
                let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &masked);
                let mut cost = CostSink::new();
                let mut events = EventBuf::new();
                let mut delivered: Vec<DeliveredEvent> = Vec::new();
                let mut columns = TraceBatch::new();
                // The same delivered events again, costs discarded (what
                // `Monitor` and the pool's sessions do).
                let mut quiet_lifeguard = kind.build_any(&accel);
                let mut quiet = CostSink::discarding();
                for batch in trace.chunks(chunk) {
                    columns.clear();
                    columns.extend_entries(batch.iter().copied());
                    // SoA round trip is the identity on every chunk.
                    prop_assert_eq!(&columns.to_entries()[..], batch);
                    pipeline.dispatch_batch(&columns, &mut events);
                    prop_assert_eq!(events.records(), batch.len());
                    lifeguard.handle_batch(events.events(), &mut cost);
                    quiet_lifeguard.handle_batch(events.events(), &mut quiet);
                    delivered.extend(events.events().iter().copied());
                }

                prop_assert_eq!(
                    &delivered, &ref_delivered,
                    "{} / {}: delivered sequence diverged", kind, accel.label()
                );
                prop_assert_eq!(
                    pipeline.stats(), ref_pipeline.stats(),
                    "{} / {}: DispatchStats diverged", kind, accel.label()
                );
                prop_assert_eq!(
                    lifeguard.violations(), ref_lifeguard.violations(),
                    "{} / {}: violations diverged", kind, accel.label()
                );
                prop_assert_eq!(
                    cost.instrs(), ref_cost.instrs(),
                    "{} / {}: handler instruction cost diverged", kind, accel.label()
                );
                prop_assert_eq!(
                    cost.mem_vas(), ref_cost.mem_vas(),
                    "{} / {}: handler metadata references diverged", kind, accel.label()
                );
                prop_assert_eq!(
                    quiet_lifeguard.violations(), ref_lifeguard.violations(),
                    "{} / {}: violations differ under the discarding sink", kind, accel.label()
                );
                prop_assert_eq!(
                    quiet_lifeguard.metadata_bytes(), ref_lifeguard.metadata_bytes(),
                    "{} / {}: metadata footprint differs under the discarding sink",
                    kind, accel.label()
                );
                prop_assert!(quiet.instrs() == 0 && quiet.mem_vas().is_empty());
            }
        }
    }
}

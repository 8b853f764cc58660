//! Properties of the columnar record path: the SoA `TraceBatch` round
//! trip is the identity over the *entire* record vocabulary (every
//! `OpClass`/`CtrlOp`/`Annotation` variant, optional fields present and
//! absent), and the trace codec's batch-native encode/decode corresponds
//! exactly to the entry-at-a-time path — same bytes out, same records
//! back, no intermediate `Vec<TraceEntry>`.

use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry};
use igm::lba::{batch_bytes, extract_batch, extract_events, EventBuf, TraceBatch};
use igm::trace::{TraceReader, TraceWriter};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    (0usize..8).prop_map(Reg::from_index)
}

fn regset() -> impl Strategy<Value = RegSet> {
    any::<u8>().prop_map(RegSet::from_bits)
}

fn mem() -> impl Strategy<Value = MemRef> {
    (any::<u32>(), prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4)])
        .prop_map(|(addr, size)| MemRef::new(addr, size))
}

/// Every record variant, every optional field both ways, arbitrary
/// addresses — a strictly wider net than the dispatch-equivalence test's
/// workload-shaped strategy.
fn entry() -> impl Strategy<Value = TraceEntry> {
    let op = prop_oneof![
        reg().prop_map(|rd| OpClass::ImmToReg { rd }),
        mem().prop_map(|dst| OpClass::ImmToMem { dst }),
        reg().prop_map(|rd| OpClass::RegSelf { rd }),
        mem().prop_map(|dst| OpClass::MemSelf { dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::RegToReg { rs, rd }),
        (reg(), mem()).prop_map(|(rs, dst)| OpClass::RegToMem { rs, dst }),
        (mem(), reg()).prop_map(|(src, rd)| OpClass::MemToReg { src, rd }),
        (mem(), mem()).prop_map(|(src, dst)| OpClass::MemToMem { src, dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::DestRegOpReg { rs, rd }),
        (mem(), reg()).prop_map(|(src, rd)| OpClass::DestRegOpMem { src, rd }),
        (reg(), mem()).prop_map(|(rs, dst)| OpClass::DestMemOpReg { rs, dst }),
        (proptest::option::of(mem()), regset())
            .prop_map(|(src, reads)| OpClass::ReadOnly { src, reads }),
        (regset(), regset(), proptest::option::of(mem()), proptest::option::of(mem())).prop_map(
            |(reads, writes, mem_read, mem_write)| OpClass::Other {
                reads,
                writes,
                mem_read,
                mem_write
            }
        ),
    ];
    let ctrl = prop_oneof![
        Just(CtrlOp::Direct),
        reg().prop_map(|r| CtrlOp::Indirect { target: JumpTarget::Reg(r) }),
        mem().prop_map(|m| CtrlOp::Indirect { target: JumpTarget::Mem(m) }),
        proptest::option::of(reg()).prop_map(|input| CtrlOp::CondBranch { input }),
        mem().prop_map(|slot| CtrlOp::Ret { slot }),
    ];
    let annot = prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(base, size)| Annotation::Malloc { base, size }),
        any::<u32>().prop_map(|base| Annotation::Free { base }),
        any::<u32>().prop_map(|lock| Annotation::Lock { lock }),
        any::<u32>().prop_map(|lock| Annotation::Unlock { lock }),
        (any::<u32>(), any::<u32>()).prop_map(|(base, len)| Annotation::ReadInput { base, len }),
        (proptest::option::of(reg()), proptest::option::of(mem()))
            .prop_map(|(arg_reg, arg_mem)| Annotation::Syscall { arg_reg, arg_mem }),
        mem().prop_map(|fmt| Annotation::PrintfFormat { fmt }),
        any::<u32>().prop_map(|tid| Annotation::ThreadSwitch { tid }),
        any::<u32>().prop_map(|tid| Annotation::ThreadExit { tid }),
    ];
    (
        any::<u32>(),
        regset(),
        prop_oneof![
            4 => op.prop_map(Payload::Op),
            1 => ctrl.prop_map(Payload::Ctrl),
            1 => annot.prop_map(Payload::Annot),
        ],
    )
        .prop_map(|(pc, addr_regs, payload)| {
            let e = match payload {
                Payload::Op(o) => TraceEntry::op(pc, o),
                Payload::Ctrl(c) => TraceEntry::ctrl(pc, c),
                Payload::Annot(a) => TraceEntry::annot(pc, a),
            };
            e.with_addr_regs(addr_regs)
        })
}

#[derive(Debug)]
enum Payload {
    Op(OpClass),
    Ctrl(CtrlOp),
    Annot(Annotation),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_entries` → view iterator is the identity, and the O(1)
    /// column-length byte accounting equals the per-record model.
    #[test]
    fn trace_batch_round_trip_is_identity(
        entries in proptest::collection::vec(entry(), 0..200),
    ) {
        let batch = TraceBatch::from_entries(&entries);
        prop_assert_eq!(batch.len(), entries.len());
        prop_assert_eq!(batch.to_entries(), entries.clone());
        prop_assert_eq!(batch.compressed_bytes(), batch_bytes(&entries));
        // Incremental push builds the same columns as bulk conversion.
        let mut incremental = TraceBatch::new();
        for e in &entries {
            incremental.push(e);
        }
        prop_assert_eq!(incremental, batch);
    }

    /// Columnar extraction over the batch equals per-record
    /// `extract_events` over the entries — events, order and record
    /// boundaries — for the full vocabulary (the dispatch-equivalence test
    /// covers the gated pipeline; this covers raw extraction over *every*
    /// variant).
    #[test]
    fn columnar_extraction_matches_aos_extraction(
        entries in proptest::collection::vec(entry(), 0..200),
    ) {
        let mut soa = EventBuf::new();
        extract_batch(&TraceBatch::from_entries(&entries), &mut soa);
        prop_assert_eq!(soa.records(), entries.len());
        let mut aos = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            aos.clear();
            extract_events(e, &mut aos);
            prop_assert_eq!(soa.record(i), &aos[..], "record {}", i);
        }
    }

    /// The codec's batch-native writer emits byte-identical frames to the
    /// entry-slice writer, and the batch-native reader decodes them back
    /// to the identical records (straight into columns, then viewed out).
    #[test]
    fn codec_batch_path_equals_entry_path(
        entries in proptest::collection::vec(entry(), 1..200),
        chunk in 1usize..64,
    ) {
        let batch_chunks: Vec<TraceBatch> =
            entries.chunks(chunk).map(TraceBatch::from_entries).collect();

        // Encode: columns vs entries, byte for byte.
        let mut via_batch = TraceWriter::new(Vec::new()).unwrap();
        for b in &batch_chunks {
            via_batch.write_chunk_batch(b).unwrap();
        }
        let via_batch = via_batch.finish().unwrap();
        let mut via_entries = TraceWriter::new(Vec::new()).unwrap();
        for c in entries.chunks(chunk) {
            via_entries.write_chunk(c).unwrap();
        }
        let via_entries = via_entries.finish().unwrap();
        prop_assert_eq!(&via_batch, &via_entries, "encoders must agree byte-for-byte");

        // Decode: frames land directly in columns, identical to the
        // entry-buffer path, chunk structure preserved.
        let mut reader = TraceReader::new(&via_batch[..]).unwrap();
        let mut decoded = TraceBatch::new();
        let mut round_tripped: Vec<TraceEntry> = Vec::new();
        let mut frames = 0usize;
        while reader.read_chunk_into_batch(&mut decoded).unwrap() {
            prop_assert_eq!(&decoded, &batch_chunks[frames], "frame {} columns diverge", frames);
            round_tripped.extend(decoded.iter());
            frames += 1;
        }
        prop_assert_eq!(frames, batch_chunks.len());
        prop_assert_eq!(round_tripped, entries);
    }
}

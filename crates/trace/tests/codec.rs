//! Codec correctness: property-tested roundtrip over arbitrary
//! `TraceEntry` sequences, plus the framing error paths (truncation,
//! checksum corruption, zero-length chunks, field validation, retired
//! format versions and codec ids).

use igm_isa::{
    Annotation, CtrlOp, JumpTarget, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry, TraceOp,
};
use igm_lba::TraceBatch;
use igm_trace::{
    checksum, decode_frame, decode_frame_with, decode_from_slice, encode_frame, encode_to_vec,
    Predictors, TraceError, TraceReader, TraceWriter, CODEC_ID, FORMAT_VERSION, MAGIC,
    MAX_FRAME_RECORDS,
};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies over the full trace vocabulary.
// ---------------------------------------------------------------------------

fn reg() -> impl Strategy<Value = Reg> {
    (0usize..8).prop_map(Reg::from_index)
}

fn mem_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4)]
}

fn mem_ref() -> impl Strategy<Value = MemRef> {
    (any::<u32>(), mem_size()).prop_map(|(addr, size)| MemRef::new(addr, size))
}

fn regset() -> impl Strategy<Value = RegSet> {
    any::<u8>().prop_map(RegSet::from_bits)
}

fn op_class() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        reg().prop_map(|rd| OpClass::ImmToReg { rd }),
        mem_ref().prop_map(|dst| OpClass::ImmToMem { dst }),
        reg().prop_map(|rd| OpClass::RegSelf { rd }),
        mem_ref().prop_map(|dst| OpClass::MemSelf { dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::RegToReg { rs, rd }),
        (reg(), mem_ref()).prop_map(|(rs, dst)| OpClass::RegToMem { rs, dst }),
        (mem_ref(), reg()).prop_map(|(src, rd)| OpClass::MemToReg { src, rd }),
        (mem_ref(), mem_ref()).prop_map(|(src, dst)| OpClass::MemToMem { src, dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::DestRegOpReg { rs, rd }),
        (mem_ref(), reg()).prop_map(|(src, rd)| OpClass::DestRegOpMem { src, rd }),
        (reg(), mem_ref()).prop_map(|(rs, dst)| OpClass::DestMemOpReg { rs, dst }),
        (proptest::option::of(mem_ref()), regset())
            .prop_map(|(src, reads)| OpClass::ReadOnly { src, reads }),
        (regset(), regset(), proptest::option::of(mem_ref()), proptest::option::of(mem_ref()))
            .prop_map(|(reads, writes, mem_read, mem_write)| OpClass::Other {
                reads,
                writes,
                mem_read,
                mem_write
            }),
    ]
}

fn ctrl_op() -> impl Strategy<Value = CtrlOp> {
    prop_oneof![
        Just(CtrlOp::Direct),
        reg().prop_map(|r| CtrlOp::Indirect { target: JumpTarget::Reg(r) }),
        mem_ref().prop_map(|m| CtrlOp::Indirect { target: JumpTarget::Mem(m) }),
        proptest::option::of(reg()).prop_map(|input| CtrlOp::CondBranch { input }),
        mem_ref().prop_map(|slot| CtrlOp::Ret { slot }),
    ]
}

fn annotation() -> impl Strategy<Value = Annotation> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(base, size)| Annotation::Malloc { base, size }),
        any::<u32>().prop_map(|base| Annotation::Free { base }),
        any::<u32>().prop_map(|lock| Annotation::Lock { lock }),
        any::<u32>().prop_map(|lock| Annotation::Unlock { lock }),
        (any::<u32>(), any::<u32>()).prop_map(|(base, len)| Annotation::ReadInput { base, len }),
        (proptest::option::of(reg()), proptest::option::of(mem_ref()))
            .prop_map(|(arg_reg, arg_mem)| Annotation::Syscall { arg_reg, arg_mem }),
        mem_ref().prop_map(|fmt| Annotation::PrintfFormat { fmt }),
        any::<u32>().prop_map(|tid| Annotation::ThreadSwitch { tid }),
        any::<u32>().prop_map(|tid| Annotation::ThreadExit { tid }),
    ]
}

fn trace_entry() -> impl Strategy<Value = TraceEntry> {
    (
        any::<u32>(),
        prop_oneof![
            10 => op_class().prop_map(TraceOp::Op),
            3 => ctrl_op().prop_map(TraceOp::Ctrl),
            2 => annotation().prop_map(TraceOp::Annot),
        ],
        regset(),
    )
        .prop_map(|(pc, op, addr_regs)| TraceEntry { pc, op, addr_regs })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_arbitrary_sequences(
        entries in vec(trace_entry(), 0..200),
        chunk_bytes in 1u32..600,
    ) {
        let bytes = encode_to_vec(entries.iter().copied(), chunk_bytes);
        let decoded = decode_from_slice(&bytes).expect("well-formed stream decodes");
        prop_assert_eq!(decoded, entries);
    }

    #[test]
    fn encoding_is_deterministic(entries in vec(trace_entry(), 0..100)) {
        let a = encode_to_vec(entries.iter().copied(), 256);
        let b = encode_to_vec(entries.iter().copied(), 256);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(
        entries in vec(trace_entry(), 1..60),
        cut_frac in 0u32..1000,
    ) {
        let bytes = encode_to_vec(entries.iter().copied(), 128);
        // Cut strictly inside the stream: every prefix must either fail or
        // decode to a strict prefix of the chunk sequence (cuts at frame
        // boundaries decode cleanly — by design, a trailing well-formed
        // prefix is a valid shorter trace).
        let cut = 1 + (cut_frac as usize * (bytes.len() - 1)) / 1000;
        match decode_from_slice(&bytes[..cut]) {
            Ok(prefix) => {
                prop_assert!(prefix.len() <= entries.len());
                prop_assert_eq!(&entries[..prefix.len()], &prefix[..]);
            }
            Err(TraceError::BadMagic) => prop_assert!(cut < 8, "magic is the first 8 bytes"),
            Err(TraceError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Directed framing error paths.
// ---------------------------------------------------------------------------

fn sample_entries() -> Vec<TraceEntry> {
    vec![
        TraceEntry::op(0x0804_8000, OpClass::ImmToReg { rd: Reg::Eax }),
        TraceEntry::op(0x0804_8004, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Ecx })
            .with_addr_regs(RegSet::from_regs([Reg::Ebx])),
        TraceEntry::annot(0x0804_8008, Annotation::Malloc { base: 0xa000, size: 64 }),
        TraceEntry::ctrl(0x0804_800c, CtrlOp::Ret { slot: MemRef::word(0xbfff_fffc) }),
    ]
}

/// A stream header followed by one hand-built frame whose header carries
/// `sum` and `codec` verbatim (so bad checksums and unknown ids are
/// expressible too).
fn raw_stream_codec(records: u32, payload: &[u8], sum: u32, codec: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&records.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&codec.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A hand-built, correctly checksummed frame.
fn raw_stream(records: u32, payload: &[u8]) -> Vec<u8> {
    raw_stream_codec(records, payload, checksum(payload), CODEC_ID)
}

/// The payload of one `ImmToReg { rd: %ebx }` record at pc 0: pc bitmap
/// (miss), pc escape (delta 0), static bitmap (miss), static escape
/// (`code 0 | regs 3 << 5`). It has no address or value slots.
const IMM_TO_EBX: [u8; 4] = [0x00, 0x00, 0x00, 0x60];

#[test]
fn bad_magic_is_rejected() {
    assert!(matches!(TraceReader::new(&b"NOPE0000"[..]), Err(TraceError::BadMagic)));
    assert!(matches!(TraceReader::new(&b"IG"[..]), Err(TraceError::BadMagic)));
}

#[test]
fn future_version_is_rejected() {
    // A future version, the retired version 1 (12-byte frame headers) and
    // the retired version 2 (FNV-1a-32 frame checksums).
    for version in [99u32, 1, 2] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        match TraceReader::new(&bytes[..]) {
            Err(e @ TraceError::UnsupportedVersion(v)) => {
                assert_eq!(v, version);
                assert!(e.to_string().contains("speaks only 3"), "{e}");
            }
            other => panic!("version {version}: expected refusal, got {:?}", other.err()),
        }
    }
}

#[test]
fn corrupt_checksum_is_detected() {
    let mut bytes = encode_to_vec(sample_entries(), 64);
    // Flip one bit in the frame payload (after the 8-byte file header and
    // 16-byte frame header).
    let idx = bytes.len() - 1;
    bytes[idx] ^= 0x40;
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(
            reason.contains("checksum") || reason.contains("trailing") || reason.contains("ends"),
            "unexpected reason: {reason}"
        ),
        other => panic!("corruption not detected: {other:?}"),
    }
}

#[test]
fn checksum_mismatch_reports_payload_offset() {
    let bytes = raw_stream_codec(1, &IMM_TO_EBX, checksum(&IMM_TO_EBX) ^ 1, CODEC_ID);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { offset, reason }) => {
            assert_eq!(offset, 24, "payload begins after 8B header + 16B frame header");
            assert!(reason.contains("checksum"));
        }
        other => panic!("expected checksum error, got {other:?}"),
    }
}

#[test]
fn zero_record_frame_is_corrupt() {
    let bytes = raw_stream(0, &IMM_TO_EBX);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("zero-record")),
        other => panic!("expected zero-record error, got {other:?}"),
    }
}

#[test]
fn zero_length_payload_is_corrupt() {
    let bytes = raw_stream(3, &[]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("zero-length")),
        other => panic!("expected zero-length error, got {other:?}"),
    }
}

#[test]
fn truncated_header_and_payload_are_corrupt() {
    let bytes = encode_to_vec(sample_entries(), 64);
    // Inside the frame header.
    match decode_from_slice(&bytes[..8 + 5]) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("frame header")),
        other => panic!("expected truncated-header error, got {other:?}"),
    }
    // Inside the payload.
    match decode_from_slice(&bytes[..bytes.len() - 1]) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("payload")),
        other => panic!("expected truncated-payload error, got {other:?}"),
    }
}

#[test]
fn unknown_tag_is_corrupt_even_with_valid_checksum() {
    // A static escape naming record code 26, which does not exist.
    let bytes = raw_stream(1, &[0x00, 0x00, 0x00, 26]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("unknown record tag")),
        other => panic!("expected unknown-tag error, got {other:?}"),
    }
}

#[test]
fn out_of_range_register_is_corrupt() {
    // A static escape for ImmToReg (code 0) with register index 9:
    // `9 << 5` as a two-byte varint.
    let bytes = raw_stream(1, &[0x00, 0x00, 0x00, 0xa0, 0x02]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("register")),
        other => panic!("expected register-range error, got {other:?}"),
    }
}

#[test]
fn trailing_payload_bytes_are_corrupt() {
    // One valid ImmToReg record plus a stray byte, checksummed correctly.
    let bytes = raw_stream(1, &[IMM_TO_EBX.as_slice(), &[0xee]].concat());
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("trailing")),
        other => panic!("expected trailing-bytes error, got {other:?}"),
    }
}

#[test]
fn inflated_record_count_is_rejected_before_allocation() {
    // Valid 4-byte payload and checksum, but a record count (the header
    // is not checksummed) that no 4-byte payload could hold: must be a
    // typed error, not a huge `Vec::reserve`.
    let bytes = raw_stream(u32::MAX, &IMM_TO_EBX);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("inconsistent")),
        other => panic!("expected count-consistency error, got {other:?}"),
    }
}

/// Where and why a one-frame stream of `records` records over an all-hit
/// payload (checksum re-sealed, length just enough for both hit bitmaps)
/// is refused by the stream reader, checked to be what the one-frame
/// decoder says of the same frame.
fn all_hit_frame_refusal(records: u32) -> (u64, &'static str) {
    let payload = vec![0xff; records.div_ceil(8) as usize * 2];
    let stream = raw_stream(records, &payload);
    fn corrupt<T: std::fmt::Debug>(r: Result<T, TraceError>) -> (u64, &'static str) {
        match r {
            Err(TraceError::Corrupt { offset, reason }) => (offset, reason),
            other => panic!("expected a corrupt frame, got {other:?}"),
        }
    }
    let by_frame =
        corrupt(decode_frame_with(&mut Predictors::new(), &stream[8..], 8, &mut TraceBatch::new()));
    let mut reader = TraceReader::new(&stream[..]).unwrap();
    let by_reader = corrupt(reader.read_chunk_into_batch(&mut TraceBatch::new()));
    assert_eq!(by_reader, by_frame, "reader and frame decoder disagree");
    by_reader
}

#[test]
fn a_frame_over_the_record_bound_is_refused_at_its_header() {
    // One record past the bound is a header fault, found before any
    // column is sized; at the bound the same payload reaches the column
    // decoder, which refuses its first hit (no slot is seeded yet).
    assert_eq!(
        all_hit_frame_refusal(MAX_FRAME_RECORDS + 1),
        (8, "frame record count exceeds the format bound")
    );
    assert_eq!(
        all_hit_frame_refusal(MAX_FRAME_RECORDS).1,
        "pc hit references an unseeded predictor slot"
    );
}

#[test]
fn oversized_length_field_is_rejected_before_allocation() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd payload_len
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&CODEC_ID.to_le_bytes());
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("bound")),
        other => panic!("expected length-bound error, got {other:?}"),
    }
}

#[test]
fn empty_stream_and_empty_chunks() {
    // Header-only stream: zero entries.
    let bytes = encode_to_vec(std::iter::empty(), 64);
    assert_eq!(decode_from_slice(&bytes).unwrap(), Vec::<TraceEntry>::new());
    // Writer skips empty batches entirely.
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    w.write_chunk_batch(&TraceBatch::new()).unwrap();
    assert_eq!(w.chunks(), 0);
    let bytes = w.finish().unwrap();
    assert_eq!(decode_from_slice(&bytes).unwrap(), Vec::<TraceEntry>::new());
}

// ---------------------------------------------------------------------------
// Hit bitmaps and predictor tables: the attack surface a value-predicted
// log opens.
// ---------------------------------------------------------------------------

#[test]
fn unknown_codec_id_in_frame_header_is_corrupt() {
    // Ids this side never spoke, the retired delta codec 1 and codec 2
    // (FNV-1a-32 checksums) — in a file and in a single frame (the
    // `igm-net` chunk path).
    let batch = sample_entries().into_iter().collect();
    let mut frame = Vec::new();
    encode_frame(&mut frame, &batch);
    for codec in [7, 0, 1, 2] {
        let bytes = raw_stream_codec(1, &IMM_TO_EBX, checksum(&IMM_TO_EBX), codec);
        match decode_from_slice(&bytes) {
            Err(TraceError::Corrupt { offset: 8, reason }) => assert!(reason.contains("codec id")),
            other => panic!("codec {codec}: expected unknown-codec error, got {other:?}"),
        }
        frame[12..16].copy_from_slice(&codec.to_le_bytes());
        match decode_frame(&frame, 0, &mut Default::default()) {
            Err(TraceError::Corrupt { offset: 0, reason }) => assert!(reason.contains("codec id")),
            other => panic!("codec {codec} chunk: expected unknown-codec error, got {other:?}"),
        }
    }
}

#[test]
fn pc_hit_on_unseeded_predictor_slot_is_corrupt() {
    // Record 0 claims a pc predictor hit, but no escape ever seeded the
    // table — a decoder that trusted it would read uninitialized state.
    let bytes = raw_stream(1, &[0x01, 0x00]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("unseeded")),
        other => panic!("expected unseeded-slot error, got {other:?}"),
    }
}

#[test]
fn static_hit_on_unseeded_predictor_slot_is_corrupt() {
    // pc misses (escape: delta 0), then the static column claims a hit on
    // a table nothing seeded.
    let bytes = raw_stream(1, &[0x00, 0x00, 0x01]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("unseeded")),
        other => panic!("expected unseeded-slot error, got {other:?}"),
    }
}

#[test]
fn nonzero_bitmap_padding_is_corrupt() {
    // One record, but a hit bit set past it in the bitmap's padding.
    let bytes = raw_stream(1, &[0x02, 0x00]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("padding")),
        other => panic!("expected bitmap-padding error, got {other:?}"),
    }
}

#[test]
fn payload_ending_inside_a_bitmap_is_corrupt() {
    // pc bitmap + escape consume both bytes; the static bitmap read runs
    // off the end of the payload.
    let bytes = raw_stream(1, &[0x00, 0x00]);
    match decode_from_slice(&bytes) {
        Err(TraceError::Corrupt { reason, .. }) => assert!(reason.contains("bitmap")),
        other => panic!("expected truncated-bitmap error, got {other:?}"),
    }
}

#[test]
fn predicted_frame_corruption_never_panics() {
    // Every single-byte corruption of a real predicted stream must come
    // back as a typed error or a correct decode — never a panic.
    let entries = sample_entries();
    let good = encode_to_vec(entries.iter().copied(), 256);
    for i in 8..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        match decode_from_slice(&bad) {
            Ok(_) | Err(TraceError::Corrupt { .. }) => {}
            Err(e) => panic!("byte {i}: unexpected error class: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial stream shapes: the predictor stack must stay lossless on
// streams it compresses well AND on streams it cannot predict at all.
// ---------------------------------------------------------------------------

fn roundtrip(entries: &[TraceEntry], chunk_bytes: u32) -> f64 {
    let bytes = encode_to_vec(entries.iter().copied(), chunk_bytes);
    assert_eq!(decode_from_slice(&bytes).expect("roundtrip decodes"), entries);
    (bytes.len() - 8) as f64 / entries.len() as f64
}

#[test]
fn constant_stream_compresses_below_one_byte_per_record() {
    // A tight loop re-executing one load: every predictor locks on, so
    // each record costs four hit bits plus amortized frame headers.
    let entries: Vec<TraceEntry> = (0..8_192)
        .map(|_| {
            TraceEntry::op(
                0x0804_8000,
                OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Ecx },
            )
        })
        .collect();
    let bpr = roundtrip(&entries, 1 << 20);
    assert!(bpr < 1.0, "constant stream must beat 1 B/record, got {bpr:.3}");
}

#[test]
fn strided_loop_compresses_below_one_byte_per_record() {
    // A four-instruction loop sweeping an array with a fixed stride: pc
    // chains repeat and the per-slot stride predictor tracks the sweep.
    let mut entries = Vec::new();
    for i in 0u32..4_096 {
        let base = 0x1000_0000 + i * 4;
        entries.push(TraceEntry::op(0x0804_8000, OpClass::ImmToReg { rd: Reg::Eax }));
        entries.push(TraceEntry::op(
            0x0804_8004,
            OpClass::MemToReg { src: MemRef::word(base), rd: Reg::Ecx },
        ));
        entries.push(TraceEntry::op(
            0x0804_8008,
            OpClass::RegToMem { rs: Reg::Ecx, dst: MemRef::word(0x2000_0000 + i * 4) },
        ));
        entries.push(TraceEntry::ctrl(0x0804_800c, CtrlOp::Direct));
    }
    let bpr = roundtrip(&entries, 1 << 20);
    assert!(bpr < 1.0, "strided loop must beat 1 B/record, got {bpr:.3}");
}

#[test]
fn random_stream_roundtrips_and_stays_bounded() {
    // Unpredictable pcs and addresses (xorshift): most fields escape, and
    // the miss path must stay within a small factor of plain delta coding.
    let mut x = 0x9e37_79b9u32;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let entries: Vec<TraceEntry> = (0..8_192)
        .map(|_| {
            TraceEntry::op(step(), OpClass::MemToReg { src: MemRef::word(step()), rd: Reg::Edx })
        })
        .collect();
    let bpr = roundtrip(&entries, 1 << 20);
    // Two random u32 deltas cost ~5 varint bytes each; the predicted
    // codec adds only its half-byte of hit bits on top of that worst case.
    assert!(bpr < 13.0, "random stream must stay bounded, got {bpr:.3}");
}

#[test]
fn mixed_phases_roundtrip() {
    // Phase changes mid-frame: constant, then strided, then random, then
    // back — predictor retraining must never lose a record.
    let mut x = 0x1234_5678u32;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let mut entries = Vec::new();
    for phase in 0..8 {
        for i in 0u32..512 {
            entries.push(match phase % 3 {
                0 => TraceEntry::op(0x0804_8000, OpClass::ImmToReg { rd: Reg::Eax }),
                1 => TraceEntry::op(
                    0x0805_0000 + (i % 4) * 4,
                    OpClass::MemToReg { src: MemRef::word(0x9000 + i * 8), rd: Reg::Ecx },
                ),
                _ => TraceEntry::op(
                    step(),
                    OpClass::RegToMem { rs: Reg::Ebx, dst: MemRef::word(step()) },
                ),
            });
        }
    }
    roundtrip(&entries, 4096);
}

// ---------------------------------------------------------------------------
// Writer/reader framing.
// ---------------------------------------------------------------------------

#[test]
fn default_writer_emits_predicted_frames() {
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    w.write_chunk_batch(&TraceBatch::from_entries(&sample_entries())).unwrap();
    let bytes = w.finish().unwrap();
    assert_eq!(bytes[4..8], FORMAT_VERSION.to_le_bytes(), "file header version");
    assert_eq!(bytes[8 + 12..8 + 16], CODEC_ID.to_le_bytes(), "frame header codec word");
}

#[test]
fn writer_refuses_a_batch_over_the_frame_record_bound() {
    let rec = TraceEntry::op(0x1000, OpClass::ImmToReg { rd: Reg::Eax });
    let mut batch = TraceBatch::with_capacity(MAX_FRAME_RECORDS as usize + 1);
    for _ in 0..=MAX_FRAME_RECORDS {
        batch.push(&rec);
    }
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    let err = w.write_chunk_batch(&batch).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!((w.chunks(), w.records()), (0, 0));
    assert_eq!(w.finish().unwrap().len(), 8, "nothing past the file header");
}

#[test]
fn reader_preserves_chunk_structure() {
    let entries = sample_entries();
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    w.write_chunk_batch(&TraceBatch::from_entries(&entries[..2])).unwrap();
    w.write_chunk_batch(&TraceBatch::from_entries(&entries[2..])).unwrap();
    let bytes = w.finish().unwrap();
    let mut r = TraceReader::new(&bytes[..]).unwrap();
    let mut chunk = TraceBatch::new();
    assert!(r.read_chunk_into_batch(&mut chunk).unwrap());
    assert_eq!(chunk.to_entries(), &entries[..2]);
    assert!(r.read_chunk_into_batch(&mut chunk).unwrap());
    assert_eq!(chunk.to_entries(), &entries[2..]);
    assert!(!r.read_chunk_into_batch(&mut chunk).unwrap());
    assert!(chunk.is_empty(), "clean EOF leaves the buffer cleared");
    assert_eq!(r.chunks(), 2);
    assert_eq!(r.records(), 4);
}

//! Golden trace-stream and IGMX v3 sidecar bytes.
//!
//! The codec and the posting kernels may change how a stream or a sidecar
//! is computed, never what it holds: for five profile × chunk-size × seed
//! combinations the trace stream and the writer-inline sidecar must keep
//! the lengths and fingerprints measured when the formats were fixed, the
//! offline `scan_records` rebuild must save the same bytes, and a load
//! must give back the index that was saved. A trace or sidecar on disk
//! therefore stays readable, and byte-for-byte reproducible, across every
//! later change to the codec and the kernels.
//!
//! The fingerprint is [`checksum`] itself. Format 3 and IGMX 3 replaced
//! the per-byte FNV-1a-32 checksum with the eight-lane word checksum and
//! changed nothing else, so the fingerprints were re-pinned then and the
//! lengths were not: each stream and sidecar differs from its version-2
//! bytes only in its version word and its frames' codec and checksum
//! words.

use igm::lba::{chunks, TraceBatch};
use igm::trace::{checksum, TraceIndex, TraceWriter};
use igm::workload::{Benchmark, TraceGen};

const RECORDS: u64 = 300_000;

/// `(benchmark, chunk bytes, seed, (stream length, stream checksum),
/// (sidecar length, sidecar checksum))`.
type Golden = (Benchmark, u32, u64, (usize, u32), (usize, u32));

const GOLDEN: [Golden; 5] = [
    (Benchmark::Gcc, 16_384, 1, (540_909, 0x1dd6_0cd8), (309_320, 0xdbf1_88cd)),
    (Benchmark::Mcf, 2_048, 7, (475_047, 0x3e10_0478), (374_074, 0x2b1e_1379)),
    (Benchmark::Gzip, 65_536, 3, (441_954, 0xd6b3_8f3c), (281_039, 0x169e_2ada)),
    (Benchmark::Parser, 300, 9, (681_068, 0x55f3_9d00), (427_086, 0xd32b_9fd4)),
    (Benchmark::Vpr, 16_384, 1, (335_086, 0xfb2b_3557), (229_472, 0x4b6f_8019)),
];

/// The trace stream and the index its writer built inline.
fn captured(bench: Benchmark, chunk: u32, seed: u64) -> (Vec<u8>, TraceIndex) {
    let mut writer = TraceWriter::with_index(Vec::new()).unwrap();
    let mut chunker = chunks(TraceGen::new(bench.profile(), RECORDS, seed), chunk);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        writer.write_chunk_batch(&batch).unwrap();
    }
    let index = writer.take_index().expect("index tracking requested");
    (writer.finish().unwrap(), index)
}

fn saved(index: &TraceIndex) -> Vec<u8> {
    let mut side = Vec::new();
    index.save(&mut side).unwrap();
    side
}

#[test]
fn sidecar_bytes_match_the_golden_values() {
    for (bench, chunk, seed, stream_golden, side_golden) in GOLDEN {
        let what = format!("{bench:?} chunk={chunk} seed={seed}");
        let (stream, index) = captured(bench, chunk, seed);
        assert_eq!(
            (stream.len(), checksum(&stream)),
            stream_golden,
            "{what}: trace stream drifted from the golden bytes (got checksum {:#010x})",
            checksum(&stream)
        );
        let side = saved(&index);
        assert_eq!(
            (side.len(), checksum(&side)),
            side_golden,
            "{what}: sidecar drifted from the golden bytes (got checksum {:#010x})",
            checksum(&side)
        );
        assert_eq!(TraceIndex::load(&side[..]).unwrap(), index, "{what}: load(save(x)) != x");
        let rescanned = TraceIndex::scan_records(&stream[..]).unwrap();
        assert_eq!(saved(&rescanned), side, "{what}: scan_records saves different bytes");
        // The arithmetic size agrees with what `save` actually wrote:
        // header 16, directory 12 per frame, section length 8, checksum 4.
        assert_eq!(
            index.posting_bytes() as usize,
            side.len() - 16 - 12 * index.frames() - 8 - 4,
            "{what}: posting_bytes disagrees with the saved sections"
        );
    }
}

//! Golden IGMX v2 sidecar bytes.
//!
//! The posting kernels may change how a sidecar is computed, never what
//! it holds: for five profile × chunk-size × seed combinations the
//! writer-inline sidecar must keep the length and FNV-1a checksum
//! measured when the format was fixed, the offline `scan_records`
//! rebuild must save the same bytes, and a load must give back the index
//! that was saved. A sidecar on disk therefore stays readable, and
//! byte-for-byte reproducible, across every later change to the kernels.

use igm::lba::{chunks, TraceBatch};
use igm::trace::{checksum, TraceIndex, TraceWriter};
use igm::workload::{Benchmark, TraceGen};

const RECORDS: u64 = 300_000;

/// `(benchmark, chunk bytes, seed, sidecar length, sidecar checksum)`.
const GOLDEN: [(Benchmark, u32, u64, usize, u32); 5] = [
    (Benchmark::Gcc, 16_384, 1, 309_320, 0x3b92_10ad),
    (Benchmark::Mcf, 2_048, 7, 374_074, 0xc9fe_165f),
    (Benchmark::Gzip, 65_536, 3, 281_039, 0x4610_c21d),
    (Benchmark::Parser, 300, 9, 427_086, 0x7d55_73a8),
    (Benchmark::Vpr, 16_384, 1, 229_472, 0xc1c6_d569),
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
    for (bench, chunk, seed, len, sum) in GOLDEN {
        let what = format!("{bench:?} chunk={chunk} seed={seed}");
        let (stream, index) = captured(bench, chunk, seed);
        let side = saved(&index);
        assert_eq!(
            (side.len(), checksum(&side)),
            (len, sum),
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

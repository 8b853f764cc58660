//! Where the trace codec and the IGMX posting index spend their time: per
//! benchmark tenant, the ns/record of the plain frame encode, the frame
//! decode, the indexed write (the posting build is indexed − plain), the
//! sidecar save, the sidecar load and the checksum of every frame payload
//! plus the sidecar; then, per codec column (pc, static, address, value),
//! the predictor hit rate and the escape bytes per record, with how many
//! frames chose each address-escape base; then the container mix the
//! index build chose, with the share of bodies short enough to live
//! inside their posting; then a digest of each tenant's posting bytes.
//!
//! ```sh
//! cargo run --release --example index_split            # N = 500000
//! N=50000 cargo run --release --example index_split    # CI smoke
//! ```
//!
//! Each tenant's `N` generated records are cut into 16 KiB chunks and
//! every stage runs on those same batches, in memory. The stages take
//! turns, pass by pass, and each keeps its best of 7, so a slow spell of
//! the host falls on all of them alike (the posting build is the
//! difference of two of them). The loaded sidecar must equal the index
//! the writer built, and the decoded stream the batches it came from;
//! the example aborts otherwise. The codec columns, the container mix and
//! the posting digests are exact (they depend only on the records), so two
//! builds can `diff` everything below the timing table. The digest is an
//! FNV-1a-64 of every frame's encoded postings, which no format version
//! word or checksum touches: equal digests mean byte-identical postings.

use igm::lba::{chunks, TraceBatch};
use igm::trace::postings::INLINE_BODY;
use igm::trace::{
    checksum, encode_frame, frame_columns, TraceIndex, TraceReader, TraceWriter, FRAME_HEADER_BYTES,
};
use igm::workload::Benchmark;
use std::time::Instant;

const CHUNK_BYTES: u32 = 16 * 1024;
const PASSES: usize = 7;
const TENANTS: [Benchmark; 6] = [
    Benchmark::Gcc,
    Benchmark::Mcf,
    Benchmark::Gzip,
    Benchmark::Vpr,
    Benchmark::Parser,
    Benchmark::Twolf,
];
const KINDS: [&str; 4] = ["runs", "array", "pxor", "bitset"];

/// One run of `f`, in ns per record.
fn time<T>(records: u64, f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_nanos() as f64 / records as f64
}

/// The payload of every frame of a trace stream.
fn payloads(stream: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut at = 8;
    while at < stream.len() {
        let len = u32::from_le_bytes(stream[at + 4..at + 8].try_into().unwrap()) as usize;
        let start = at + FRAME_HEADER_BYTES;
        out.push(&stream[start..start + len]);
        at = start + len;
    }
    out
}

/// FNV-1a-64 of `bytes`, with their length.
fn digest(bytes: &[u8]) -> (usize, u64) {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (bytes.len(), hash)
}

fn write(
    batches: &[TraceBatch],
    writer: std::io::Result<TraceWriter<Vec<u8>>>,
) -> TraceWriter<Vec<u8>> {
    let mut writer = writer.expect("writing to memory cannot fail");
    for batch in batches {
        writer.write_chunk_batch(batch).expect("writing to memory cannot fail");
    }
    writer
}

fn main() {
    let n: u64 = match std::env::var("N") {
        Err(_) => 500_000,
        Ok(v) => v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("N must be a positive integer, got {v:?}");
            std::process::exit(2);
        }),
    };
    println!("index split: {n} records per tenant, 16 KiB chunks, best of {PASSES}, ns/record");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "tenant", "encode", "decode", "indexed", "build", "save", "load", "checksum"
    );
    let mut mixes = Vec::new();
    let mut digests = Vec::new();
    let mut splits = Vec::new();
    for bench in TENANTS {
        let mut batches = Vec::new();
        let mut source = chunks(bench.trace(n), CHUNK_BYTES);
        let mut batch = TraceBatch::new();
        while source.next_into_batch(&mut batch) {
            batches.push(std::mem::take(&mut batch));
        }

        let encode = || write(&batches, TraceWriter::new(Vec::new())).finish().unwrap();
        let decode = |bytes: &[u8]| {
            let mut reader = TraceReader::new(bytes).expect("a stream just written");
            let mut out = Vec::with_capacity(batches.len());
            let mut batch = TraceBatch::new();
            while reader.read_chunk_into_batch(&mut batch).expect("a stream just written") {
                out.push(std::mem::take(&mut batch));
            }
            out
        };
        let indexed = || {
            let mut writer = write(&batches, TraceWriter::with_index(Vec::new()));
            let index = writer.take_index().expect("an indexing writer");
            (index, writer.finish().unwrap())
        };
        let save = |index: &TraceIndex| {
            let mut out = Vec::new();
            index.save(&mut out).expect("writing to memory cannot fail");
            out
        };
        let load = |sidecar: &[u8]| TraceIndex::load(sidecar).expect("a sound sidecar");

        let bytes = encode();
        assert!(
            decode(&bytes) == batches,
            "{bench:?}: the decoded stream differs from its batches"
        );
        let (index, indexed_bytes) = indexed();
        assert_eq!(indexed_bytes, bytes, "{bench:?}: indexing changed the stream");
        let sidecar = save(&index);
        assert_eq!(
            load(&sidecar),
            index,
            "{bench:?}: the loaded sidecar differs from the built index"
        );

        let frames = payloads(&bytes);
        let sums = || frames.iter().fold(checksum(&sidecar), |acc, p| acc ^ checksum(p));

        let mut best = [f64::INFINITY; 6];
        for _ in 0..PASSES {
            let passes = [
                time(n, encode),
                time(n, || decode(&bytes)),
                time(n, indexed),
                time(n, || save(&index)),
                time(n, || load(&sidecar)),
                time(n, sums),
            ];
            for (best, pass) in best.iter_mut().zip(passes) {
                *best = best.min(pass);
            }
        }
        let [encode, decode, indexed, save, load, sums] = best;
        println!(
            "{:<8} {encode:>8.1} {decode:>8.1} {indexed:>8.1} {:>8.1} {save:>8.1} {load:>8.1} \
             {sums:>8.2}",
            bench.name(),
            indexed - encode,
        );

        let mut postings = Vec::new();
        index.frame_postings().iter().for_each(|f| f.encode(&mut postings));
        digests.push((bench, digest(&postings)));

        // Per codec column: slots, hits, escape bytes; frames per address
        // base (global, predicted).
        let mut columns = [(0u64, 0u64, 0u64); 4];
        let mut bases = [0u64; 2];
        for batch in &batches {
            let mut frame = Vec::new();
            encode_frame(&mut frame, batch);
            let split = frame_columns(&frame).expect("a frame just encoded");
            for (sum, c) in columns.iter_mut().zip(split.columns) {
                *sum = (sum.0 + c.slots, sum.1 + c.hits, sum.2 + c.escape_bytes);
            }
            if let Some(predicted) = split.predicted_base {
                bases[predicted as usize] += 1;
            }
        }
        splits.push((bench, columns, bases));

        // Per container kind: postings, indices held, body bytes, inline
        // bodies.
        let mut mix = [(0u64, 0u64, 0u64, 0u64); KINDS.len()];
        for p in index.frame_postings().iter().flat_map(|f| f.postings()) {
            let k = KINDS.iter().position(|&k| k == p.container_kind()).expect("a known kind");
            mix[k].0 += 1;
            mix[k].1 += p.cardinality as u64;
            mix[k].2 += p.body_len() as u64;
            mix[k].3 += (p.body_len() <= INLINE_BODY) as u64;
        }
        mixes.push((bench, index.frames(), sidecar.len(), mix));
    }

    println!(
        "codec columns: predictor hit rate / escape bytes per record, per column; \
         frames per address-escape base"
    );
    println!(
        "{:<8} {:>17} {:>17} {:>17} {:>17} {:>17}",
        "tenant", "pc", "static", "address", "value", "global / predicted"
    );
    for (bench, columns, [global, predicted]) in splits {
        let cells: Vec<String> = columns
            .iter()
            .map(|&(slots, hits, escapes)| {
                let rate = 100.0 * hits as f64 / slots.max(1) as f64;
                format!("{rate:.2}% {:.4}", escapes as f64 / n as f64)
            })
            .collect();
        println!(
            "{:<8} {:>17} {:>17} {:>17} {:>17} {:>17}",
            bench.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            format!("{global} / {predicted}")
        );
    }

    println!(
        "container mix: postings / indices / body bytes / share of bodies held inline \
         (≤ {INLINE_BODY} B) per kind"
    );
    println!(
        "{:<8} {:>6} {:>9} {:>32} {:>32} {:>32} {:>32}",
        "tenant", "frames", "sidecar", KINDS[0], KINDS[1], KINDS[2], KINDS[3]
    );
    for (bench, frames, sidecar, mix) in mixes {
        let cells: Vec<String> = mix
            .iter()
            .map(|&(p, i, b, inline)| {
                let share = 100.0 * inline as f64 / p.max(1) as f64;
                format!("{p} / {i} / {b} / {share:.0}%")
            })
            .collect();
        println!(
            "{:<8} {frames:>6} {sidecar:>9} {:>32} {:>32} {:>32} {:>32}",
            bench.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    println!("posting digests: bytes / FNV-1a-64 of every frame's encoded postings");
    for (bench, (len, hash)) in digests {
        println!("{:<8} {len:>9} {hash:#018x}", bench.name());
    }
}

//! Where the IGMX posting index spends its time: per benchmark tenant,
//! the ns/record of the plain frame encode, the frame decode, the
//! indexed write (the posting build is indexed − plain), the sidecar
//! save and the sidecar load, then the container mix the build chose,
//! with the share of bodies short enough to live inside their posting.
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
//! the example aborts otherwise. The container mix is exact (it depends
//! only on the records), so two builds can `diff` that half of the
//! output.

use igm::lba::{chunks, TraceBatch};
use igm::trace::postings::INLINE_BODY;
use igm::trace::{TraceIndex, TraceReader, TraceWriter};
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
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "tenant", "encode", "decode", "indexed", "build", "save", "load"
    );
    let mut mixes = Vec::new();
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

        let mut best = [f64::INFINITY; 5];
        for _ in 0..PASSES {
            let passes = [
                time(n, encode),
                time(n, || decode(&bytes)),
                time(n, indexed),
                time(n, || save(&index)),
                time(n, || load(&sidecar)),
            ];
            for (best, pass) in best.iter_mut().zip(passes) {
                *best = best.min(pass);
            }
        }
        let [encode, decode, indexed, save, load] = best;
        println!(
            "{:<8} {encode:>8.1} {decode:>8.1} {indexed:>8.1} {:>8.1} {save:>8.1} {load:>8.1}",
            bench.name(),
            indexed - encode,
        );

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
}

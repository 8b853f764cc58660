//! Four tenant applications, four different lifeguards, one monitor pool —
//! and **one** ingest thread.
//!
//! Earlier revisions dedicated a blocking producer thread to every tenant.
//! Here the `igm::trace::Ingestor` multiplexes all four sources on the
//! main thread instead: two in-memory generators, one *recorded trace
//! file* (captured to a buffer first, the durable-artifact path), and one
//! readiness-polled pipe fed by an external producer. Each session still
//! owns a private lifeguard + shadow-memory shard on its worker; a source
//! whose log channel fills is deferred and retried (per-source
//! backpressure) while the others keep flowing. Run with:
//!
//! ```sh
//! cargo run --release --example concurrent_monitoring
//! ```

use igm::lifeguards::LifeguardKind;
use igm::runtime::{stats_table, MonitorPool, PoolConfig, SessionConfig};
use igm::trace::{batch_pipe, encode_to_vec, FileSource, Ingestor, IterSource, TraceReader};
use igm::workload::{Benchmark, MtBenchmark};

fn main() {
    const N: u64 = 200_000;
    const CHUNK: u32 = 16 * 1024;
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    let violations = pool.violation_stream().expect("first taker");

    // Tenant 1 (mcf/MemCheck) streams from a recorded trace artifact: the
    // workload is encoded once, then ingested as a file — any run becomes
    // reproducible from these bytes alone.
    let recorded = encode_to_vec(Benchmark::Mcf.trace(N), CHUNK);
    println!(
        "recorded mcf: {} records -> {} encoded bytes ({:.2} B/record vs {} B in memory)",
        N,
        recorded.len(),
        recorded.len() as f64 / N as f64,
        std::mem::size_of::<igm::isa::TraceEntry>(),
    );

    // Tenant 2 (zchaff/LockSet) arrives through a readiness-polled pipe
    // from an external producer thread — the ingest thread never blocks on
    // it.
    let (pipe_tx, pipe_rx) = batch_pipe(8);
    let feeder = std::thread::spawn(move || {
        let mut chunker = igm::lba::chunks(MtBenchmark::Zchaff.trace(N), CHUNK);
        let mut batch = igm::lba::TraceBatch::new();
        while chunker.next_into_batch(&mut batch) {
            if pipe_tx.send(std::mem::take(&mut batch)).is_err() {
                return;
            }
        }
    });

    let mut ingestor = Ingestor::new(&pool);
    ingestor.add_source(
        SessionConfig::new("gzip", LifeguardKind::AddrCheck)
            .synthetic()
            .premark(&Benchmark::Gzip.profile().premark_regions()),
        IterSource::new(Benchmark::Gzip.trace(N), CHUNK),
    );
    ingestor.add_source(
        SessionConfig::new("mcf", LifeguardKind::MemCheck)
            .synthetic()
            .premark(&Benchmark::Mcf.profile().premark_regions()),
        FileSource::new(TraceReader::new(std::io::Cursor::new(recorded)).expect("own encoding")),
    );
    ingestor.add_source(
        SessionConfig::new("gcc", LifeguardKind::TaintCheck)
            .synthetic()
            .premark(&Benchmark::Gcc.profile().premark_regions()),
        IterSource::new(Benchmark::Gcc.trace(N), CHUNK),
    );
    ingestor.add_source(
        SessionConfig::new("zchaff", LifeguardKind::LockSet)
            .synthetic()
            .premark(&MtBenchmark::Zchaff.trace(N).premark_regions()),
        pipe_rx,
    );

    println!("\nmultiplexing {} tenants x {N} records on one ingest thread…\n", ingestor.lanes());
    let report = ingestor.run();
    feeder.join().unwrap();

    print!("{}", stats_table(&report.sessions));

    println!("\nlane        batches   records   deferred   pending-polls");
    for (name, lane) in &report.lanes {
        println!(
            "{name:<10} {:>8} {:>9} {:>10} {:>15}",
            lane.batches, lane.records, lane.deferred_sends, lane.pending_polls
        );
    }

    let pool_stats = pool.stats();
    println!(
        "\npool: {} sessions, {:.0} records/s aggregate, {} events delivered, {} steals, {} ingest passes",
        pool_stats.sessions_closed,
        pool_stats.records_per_sec(),
        pool_stats.events_delivered,
        pool_stats.steals,
        report.passes,
    );
    for v in violations.drain().into_iter().take(5) {
        println!("violation [{}/{}]: {:?}", v.tenant, v.lifeguard, v.violation);
    }
    pool.shutdown();
}

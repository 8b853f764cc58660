//! Transport-level properties of the SPSC log channel and the worker pool:
//! records are never lost, duplicated or reordered under real thread
//! contention, and backpressure engages at capacity.

use igm_isa::{Annotation, OpClass, Reg, TraceEntry};
use igm_lba::{chunks, TraceBatch};
use igm_lifeguards::LifeguardKind;
use igm_runtime::{log_channel, MonitorPool, PoolConfig, SessionConfig};
use std::time::Duration;

/// A numbered instruction record (the pc encodes the sequence number).
fn rec(i: u32) -> TraceEntry {
    if i.is_multiple_of(13) {
        // Mix in 9-byte annotation records so occupancy is irregular.
        TraceEntry::annot(i, Annotation::Free { base: i })
    } else {
        TraceEntry::op(i, OpClass::ImmToReg { rd: Reg::Eax })
    }
}

#[test]
fn channel_preserves_the_stream_under_contention() {
    // Deliberately tiny capacities so producer and consumer collide
    // constantly; each configuration must still deliver the exact stream.
    for (capacity, chunk, n) in [(16u32, 4u32, 20_000u32), (64, 16, 20_000), (256, 64, 50_000)] {
        let (tx, rx) = log_channel(capacity);
        let producer = std::thread::spawn(move || {
            let mut chunker = chunks((0..n).map(rec), chunk);
            let mut batch = TraceBatch::new();
            while chunker.next_into_batch(&mut batch) {
                tx.send_batch(std::mem::take(&mut batch)).expect("consumer alive");
            }
            // tx drops here, closing the channel.
        });
        let mut got = Vec::with_capacity(n as usize);
        while let Some(batch) = rx.recv_batch() {
            assert!(
                batch.compressed_bytes() <= capacity.max(chunk),
                "batch exceeds both capacity and chunk bound"
            );
            got.extend(batch.iter());
            rx.recycle(batch);
        }
        producer.join().unwrap();
        let want: Vec<TraceEntry> = (0..n).map(rec).collect();
        assert_eq!(got.len(), want.len(), "lost or duplicated records");
        assert_eq!(got, want, "stream reordered (capacity {capacity}, chunk {chunk})");
        let s = rx.stats();
        assert_eq!(s.pushed_records, n as u64);
        assert!(s.peak_bytes <= capacity.max(9), "occupancy bound violated: {}", s.peak_bytes);
    }
}

#[test]
fn backpressure_engages_at_capacity() {
    let (tx, rx) = log_channel(32);
    let producer = std::thread::spawn(move || {
        let mut chunker = chunks((0..4_000).map(rec), 8);
        let mut batch = TraceBatch::new();
        while chunker.next_into_batch(&mut batch) {
            tx.send_batch(std::mem::take(&mut batch)).expect("consumer alive");
        }
        tx.stats()
    });
    // A deliberately slow consumer: the producer must hit the stall path.
    let mut total = 0usize;
    while let Some(batch) = rx.recv_batch() {
        total += batch.len();
        if total < 200 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let s = producer.join().unwrap();
    assert_eq!(total, 4_000);
    assert!(s.stall_events > 0, "producer never stalled against a slow consumer");
    assert!(s.stall_nanos > 0);
}

#[test]
fn pool_serves_concurrent_tenants_with_isolated_shards() {
    let pool = MonitorPool::new(PoolConfig { workers: 4, ..PoolConfig::default() });
    let violations = pool.violation_stream().expect("first take");
    assert!(pool.violation_stream().is_none(), "stream is single-consumer");

    // Six tenants with identical traces: one malloc'd block, in-bounds
    // accesses, then exactly one out-of-bounds load (an AddrCheck
    // violation per tenant).
    let trace: Vec<TraceEntry> =
        std::iter::once(TraceEntry::annot(0x1000, Annotation::Malloc { base: 0x9000, size: 64 }))
            .chain((0..5_000).map(|i| {
                TraceEntry::op(
                    0x1004 + i,
                    OpClass::MemToReg {
                        src: igm_isa::MemRef::word(0x9000 + (i % 16) * 4),
                        rd: Reg::Eax,
                    },
                )
            }))
            .chain(std::iter::once(TraceEntry::op(
                0x9999,
                OpClass::MemToReg { src: igm_isa::MemRef::word(0xdead_0000), rd: Reg::Ecx },
            )))
            .collect();

    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let session = pool.open_session(SessionConfig::new(
                    format!("tenant{t}"),
                    LifeguardKind::AddrCheck,
                ));
                let trace = trace.clone();
                scope.spawn(move || {
                    session.stream(trace).unwrap();
                    session.finish()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });

    for r in &reports {
        assert_eq!(r.records, 5_002);
        assert_eq!(r.violations.len(), 1, "{}: shard isolation broken", r.name);
        assert!(r.dispatch.delivered > 0);
        assert!(r.metadata_bytes > 0);
    }
    let stats = pool.stats();
    assert_eq!(stats.sessions_opened, 6);
    assert_eq!(stats.sessions_closed, 6);
    assert_eq!(stats.records, 6 * 5_002);
    assert_eq!(stats.violations, 6);

    let tagged = violations.drain();
    assert_eq!(tagged.len(), 6, "one aggregated violation per tenant");
    let mut tenants: Vec<String> = tagged.iter().map(|v| v.tenant.clone()).collect();
    tenants.sort();
    tenants.dedup();
    assert_eq!(tenants.len(), 6, "violations tagged with their own tenant");
    for v in &tagged {
        assert_eq!(v.lifeguard, LifeguardKind::AddrCheck);
    }
    pool.shutdown();
}

#[test]
fn shutdown_with_live_handle_terminates_instead_of_deadlocking() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let session = pool.open_session(SessionConfig::new("abandoned", LifeguardKind::AddrCheck));
    session.send_batch((0..100).map(rec).collect::<Vec<_>>()).unwrap();
    // Shutdown with the producer handle still open: must return promptly
    // (the session is terminated, not waited on forever)...
    pool.shutdown();
    // ...and the orphaned handle's sends now fail instead of blocking.
    assert!(session.send_batch((0..10).map(rec).collect::<Vec<_>>()).is_err());
    // The terminated session still produced a report for what was drained.
    let report = session.finish();
    assert_eq!(report.records, 100);
}

#[test]
fn session_outlives_bursty_producers() {
    // Tiny channel + bursty producer: exercises repeated stall/drain cycles
    // through a live worker rather than a dedicated consumer thread.
    let pool = MonitorPool::new(PoolConfig {
        workers: 1,
        channel_capacity_bytes: 64,
        chunk_bytes: 16,
        ..PoolConfig::default()
    });
    let session = pool.open_session(SessionConfig::new("bursty", LifeguardKind::TaintCheck));
    session.stream((0..30_000).map(rec)).unwrap();
    let report = session.finish();
    assert_eq!(report.records, 30_000);
    assert_eq!(report.channel.pushed_records, 30_000);
    assert!(report.channel.peak_bytes <= 64);
    assert!(report.records_per_sec() > 0.0);
    pool.shutdown();
}

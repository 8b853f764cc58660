//! Registry correctness under concurrency, plus a proptest pinning the
//! log₂ bucket-boundary assignment.

use igm_obs::{
    bucket_index, bucket_upper_bound, EventKind, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Many writer threads hammer one counter, one gauge and one histogram
/// while a reader snapshots continuously: every snapshot must be monotone
/// in the counter, internally consistent in the histogram (count == Σ
/// buckets by construction, sum ≥ what the buckets imply is impossible to
/// check exactly — but sum must also be monotone), and the final totals
/// must be exact.
#[test]
fn hammer_snapshots_monotone_and_consistent() {
    const WRITERS: usize = 8;
    const OPS: u64 = 50_000;

    let registry = Arc::new(MetricsRegistry::new());
    let counter = registry.counter("igm_hammer_total", "hammered counter");
    let gauge = registry.gauge("igm_hammer_gauge", "hammered gauge");
    let hist = registry.histogram("igm_hammer_nanos", "hammered histogram");
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            // Each clone claims its own counter stripe.
            let counter = counter.clone();
            let gauge = gauge.clone();
            let hist = hist.clone();
            thread::spawn(move || {
                for i in 0..OPS {
                    counter.add(1);
                    gauge.add(1);
                    gauge.sub(1);
                    // Spread observations across many buckets.
                    hist.record((w as u64 + 1) << (i % 20));
                }
            })
        })
        .collect();

    let reader = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut last_count = 0u64;
            let mut last_sum = 0u64;
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = registry.snapshot();
                let c = snap.counter_value("igm_hammer_total").unwrap();
                assert!(c >= last_count, "counter went backwards: {last_count} -> {c}");
                last_count = c;

                let h = snap.histogram_sample("igm_hammer_nanos", None).unwrap();
                // count() is Σ buckets by construction; assert the
                // invariant the ISSUE names explicitly anyway.
                assert_eq!(h.hist.count(), h.hist.buckets.iter().sum::<u64>());
                assert!(h.hist.sum >= last_sum, "histogram sum went backwards");
                last_sum = h.hist.sum;
                snapshots += 1;
            }
            snapshots
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0);

    let total = (WRITERS as u64) * OPS;
    let snap = registry.snapshot();
    assert_eq!(snap.counter_value("igm_hammer_total"), Some(total));
    assert_eq!(snap.gauge_value("igm_hammer_gauge"), Some(0));
    let h = snap.histogram_sample("igm_hammer_nanos", None).unwrap();
    assert_eq!(h.hist.count(), total);
}

/// Registration is idempotent on (name, labels): a second request shares
/// the same core, different labels get a different one.
#[test]
fn registration_is_idempotent_per_labels() {
    let registry = MetricsRegistry::new();
    let a = registry.counter_with("igm_twice_total", "help", &[("kind", "x")]);
    let b = registry.counter_with("igm_twice_total", "help", &[("kind", "x")]);
    let c = registry.counter_with("igm_twice_total", "help", &[("kind", "y")]);
    a.add(2);
    b.add(3);
    c.add(10);
    let snap = registry.snapshot();
    let values: Vec<u64> =
        snap.counters.iter().filter(|s| s.name == "igm_twice_total").map(|s| s.value).collect();
    assert_eq!(values, vec![5, 10]);
}

/// A detached, disabled histogram (the observer of paths not wired to a
/// registry) drops every observation without calling `Instant::now()`.
#[test]
fn disabled_histogram_records_nothing() {
    let hist = Histogram::disabled();
    assert!(hist.start().is_none());
    hist.record(123);
    hist.stop(None);
    assert_eq!(hist.snapshot().count(), 0);
    assert_eq!(hist.snapshot().sum, 0);
}

/// The event ring rides along in the registry and the exporters render it.
#[test]
fn events_through_registry() {
    let registry = MetricsRegistry::new();
    registry.events().record(EventKind::HandshakeReject {
        peer: "10.0.0.9:1234".into(),
        reason: "bad magic".into(),
    });
    // A pipelining decision carries its inputs, an exit the stretch's rate.
    registry.events().record(EventKind::PipelineEnter {
        session: 7,
        tenant: "hot".into(),
        channel_used_bytes: 49_152,
        channel_capacity_bytes: 65_536,
        hot_turns: 3,
        parked_workers: 2,
        plain_rate: 21_000_000,
    });
    registry.events().record(EventKind::PipelineExit {
        session: 7,
        tenant: "hot".into(),
        epochs: 5,
        stretch_rate: 9_500_000,
    });
    let snap = registry.events().since(0);
    assert_eq!(snap.events.len(), 3);
    let json = snap.to_json();
    assert!(json.contains("\"handshake_reject\""));
    assert!(json.contains("\"bad magic\""));
    assert!(json.contains(
        "\"kind\": \"pipeline_enter\", \"session\": 7, \"tenant\": \"hot\", \
         \"channel_used_bytes\": 49152, \"channel_capacity_bytes\": 65536, \"hot_turns\": 3, \
         \"parked_workers\": 2, \"plain_rate\": 21000000}"
    ));
    assert!(json.contains("\"epochs\": 5, \"stretch_rate\": 9500000}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pin the log₂ bucket assignment: every value lands in the unique
    /// bucket whose bounds contain it, and boundaries are exact
    /// (2^k - 1 in bucket k, 2^k in bucket k+1).
    #[test]
    fn bucket_assignment_matches_bounds(v in 0u64..=u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        } else {
            prop_assert_eq!(v, 0);
        }
    }

    /// Boundary pins at each power of two.
    #[test]
    fn bucket_boundaries_exact(k in 0u32..64) {
        let pow = 1u64 << k;
        prop_assert_eq!(bucket_index(pow), k as usize + 1);
        prop_assert_eq!(bucket_index(pow - 1), if k == 0 { 0 } else { k as usize });
        prop_assert_eq!(bucket_upper_bound(k as usize + 1), if k == 63 { u64::MAX } else { (pow << 1) - 1 });
    }
}

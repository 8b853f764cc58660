//! The event ring's batch path against its single-event path, the order
//! of its timestamps under concurrent recorders, and a violation detail
//! that reads as the text it stands for.

use igm_obs::{Detail, EventKind, EventRing, ObsEvent};
use proptest::prelude::*;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

fn steal(session: u64) -> EventKind {
    EventKind::Steal { session, from_worker: 0, to_worker: 1 }
}

/// Everything a reader can see of a ring, timestamps aside (the two
/// paths read the clock at different instants).
fn view(ring: &EventRing, since: u64) -> (Vec<(u64, EventKind)>, u64, u64) {
    let snap = ring.since(since);
    let events = snap.events.into_iter().map(|e| (e.seq, e.kind)).collect();
    (events, snap.dropped, snap.next_seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `record_many(n, make)` leaves the ring exactly as `n` calls to
    /// `record` do — retained events, their seqs, `dropped`, `next_seq` and
    /// every cursor read — and builds only the events the ring keeps.
    #[test]
    fn record_many_equals_n_single_records(
        capacity in 1usize..=8,
        prefill in 0usize..20,
        n_draw in 0usize..1000,
    ) {
        let n = n_draw % (3 * capacity);
        let (single, batch) = (EventRing::new(capacity), EventRing::new(capacity));
        for i in 0..prefill as u64 {
            single.record(steal(i));
            batch.record(steal(i));
        }
        let base = prefill as u64;
        for i in 0..n as u64 {
            single.record(steal(base + i));
        }
        let made = RefCell::new(Vec::new());
        batch.record_many(n, |i| {
            made.borrow_mut().push(i);
            steal(base + i as u64)
        });

        prop_assert_eq!(made.into_inner(), (n.saturating_sub(capacity)..n).collect::<Vec<_>>());
        prop_assert_eq!(batch.recorded(), single.recorded());
        for k in 0..=single.recorded() + 1 {
            prop_assert_eq!(view(&batch, k), view(&single, k));
        }
        let snap = batch.since(0);
        let batched: Vec<&ObsEvent> = snap.events.iter().filter(|e| e.seq >= base).collect();
        prop_assert!(batched.windows(2).all(|w| w[0].at_nanos == w[1].at_nanos));
    }
}

/// Two threads record concurrently, one an event at a time and one in
/// batches: along `seq`, `at_nanos` never decreases.
#[test]
fn timestamps_never_decrease_along_seq() {
    const PER_THREAD: usize = 10_000;
    let ring = EventRing::new(2 * PER_THREAD);
    let single = {
        let ring = ring.clone();
        thread::spawn(move || {
            for i in 0..PER_THREAD as u64 {
                ring.record(steal(i));
            }
        })
    };
    let batched = {
        let ring = ring.clone();
        thread::spawn(move || {
            for _ in 0..PER_THREAD / 10 {
                ring.record_many(10, |i| steal(i as u64));
            }
        })
    };
    single.join().unwrap();
    batched.join().unwrap();
    let snap = ring.since(0);
    assert_eq!(snap.events.len(), 2 * PER_THREAD);
    assert_eq!(snap.dropped, 0);
    for w in snap.events.windows(2) {
        assert_eq!(w[0].seq + 1, w[1].seq);
        assert!(
            w[0].at_nanos <= w[1].at_nanos,
            "seq {} at {} ns, then seq {} at {} ns",
            w[0].seq,
            w[0].at_nanos,
            w[1].seq,
            w[1].at_nanos
        );
    }
}

/// A value that counts how often it is rendered.
struct Counted(Arc<AtomicUsize>);

impl fmt::Display for Counted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fetch_add(1, Ordering::Relaxed);
        f.write_str("bad \"write\" at 0x10")
    }
}

/// A detail formats nothing until read, then reads — `Display`, `Debug`,
/// equality and the JSON export — exactly as its text.
#[test]
fn a_detail_renders_on_read_as_its_text() {
    let renders = Arc::new(AtomicUsize::new(0));
    let detail = Detail::new(Counted(Arc::clone(&renders)));
    let ring = EventRing::new(4);
    ring.record_many(1, |_| EventKind::Violation {
        session: 3,
        tenant: "t".into(),
        detail: detail.clone(),
        record: None,
        spans: Vec::new(),
    });
    assert_eq!(renders.load(Ordering::Relaxed), 0, "recording renders nothing");

    let text = "bad \"write\" at 0x10";
    assert_eq!(detail.to_string(), text);
    assert_eq!(format!("{detail:?}"), format!("{text:?}"));
    assert_eq!(detail, Detail::new(text));
    assert_ne!(detail, Detail::new("something else"));
    let json = ring.since(0).to_json();
    assert!(json.contains("\"detail\": \"bad \\\"write\\\" at 0x10\", \"record\": null"), "{json}");
}

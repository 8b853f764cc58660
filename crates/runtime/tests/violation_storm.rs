//! A violation storm through one pool session: every record faults, so
//! the event ring overflows within the session, and what it keeps must be
//! the session's last violations — in order, with the session report's
//! text and record ids, and the `/events.json` text pinned byte for byte.

use igm_isa::{MemRef, OpClass, Reg, TraceEntry};
use igm_lifeguards::LifeguardKind;
use igm_obs::{EventKind, EventRing, EventsSnapshot, ObsEvent};
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};

/// Records per frame; two frames, so the storm is well past the ring.
const FRAME: u32 = 1_500;

/// Record `i`: a word load from its own unallocated address (distinct
/// addresses and pcs, so no filter folds two faults into one).
fn fault(i: u32) -> TraceEntry {
    TraceEntry::op(
        0x1000 + 4 * i,
        OpClass::MemToReg { src: MemRef::word(0x4000_0000 + 64 * i), rd: Reg::Eax },
    )
}

#[test]
fn a_violation_storm_keeps_the_last_violations_in_the_ring() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let session = pool.open_session(SessionConfig::new("storm", LifeguardKind::AddrCheck).trace(7));
    // Two frames: the first is sampled (a span chain rides its entries),
    // the second, whose entries the ring keeps, is not.
    session.send_batch((0..FRAME).map(fault).collect::<Vec<_>>()).unwrap();
    session.send_batch((FRAME..2 * FRAME).map(fault).collect::<Vec<_>>()).unwrap();
    let report = session.finish();
    let total = 2 * FRAME as usize;
    assert_eq!(report.violations.len(), total, "every record faults");
    assert_eq!(report.violation_records.len(), total);

    let snap = pool.events().since(0);
    pool.shutdown();
    let entries: Vec<&ObsEvent> =
        snap.events.iter().filter(|e| matches!(e.kind, EventKind::Violation { .. })).collect();
    // The ring keeps its capacity: the session-close entry and, before it,
    // the storm's last violations.
    assert_eq!(entries.len(), EventRing::DEFAULT_CAPACITY - 1);
    assert!(matches!(snap.events.last().unwrap().kind, EventKind::SessionClose { .. }));
    assert!(entries.windows(2).all(|w| w[0].seq + 1 == w[1].seq), "consecutive seqs");
    let first = total - entries.len();
    for (k, e) in (first..).zip(&entries) {
        let EventKind::Violation { session, tenant, detail, record, spans } = &e.kind else {
            unreachable!()
        };
        assert_eq!(*session, report.id);
        assert_eq!(tenant, "storm");
        assert_eq!(detail.to_string(), report.violations[k].to_string(), "violation {k}");
        assert_eq!(*record, report.violation_records[k], "violation {k}");
        assert!(spans.is_empty(), "violation {k} is from the unsampled frame");
    }

    // The last entry's `/events.json` text, its timestamp zeroed.
    let last = ObsEvent { at_nanos: 0, ..entries.last().copied().unwrap().clone() };
    let json = EventsSnapshot { events: vec![last], dropped: 0, next_seq: 0 }.to_json();
    assert_eq!(json, GOLDEN);
}

/// The entry as the pool rendered it when violation details were
/// formatted at record time.
const GOLDEN: &str = "{\"dropped\": 0, \"next_seq\": 0, \"events\": [{\"seq\": 3000, \
    \"at_nanos\": 0, \"kind\": \"violation\", \"session\": 0, \"tenant\": \"storm\", \
    \"detail\": \"load of unallocated memory [0x4002edc0;4] at pc 0x00003edc\", \
    \"record\": \"bfe7af96:00000007:2999\", \"spans\": []}]}";

//! End-to-end span provenance through the pool: sampled frames leave
//! `channel_wait`/`dispatch` stage records in the flight recorder, a
//! violating frame's chain is snapshotted into its event-ring entry, and
//! an empty send takes no frame ordinal.

use igm_isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
use igm_lifeguards::LifeguardKind;
use igm_obs::EventKind;
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm_span::Stage;

fn clean(n: u32) -> Vec<TraceEntry> {
    (0..n).map(|i| TraceEntry::op(0x1000 + 4 * i, OpClass::ImmToReg { rd: Reg::Eax })).collect()
}

#[test]
fn sampled_frames_chain_channel_wait_into_dispatch() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let recorder = pool.recorder().clone();
    let session = pool.open_session(SessionConfig::new("app", LifeguardKind::AddrCheck));
    // The first frame of a flow is always sampled.
    session.send_batch(clean(16)).unwrap();
    session.finish();

    let spans = recorder.snapshot();
    let wait = spans.iter().find(|r| r.stage == Stage::ChannelWait).expect("channel_wait span");
    let dispatch = spans.iter().find(|r| r.stage == Stage::Dispatch).expect("dispatch span");
    assert_eq!(wait.tag, dispatch.tag, "both stages chain under the frame's tag");
    assert!(wait.tag.flow > 0, "flow 0 is never issued");
    assert!(wait.t_end <= dispatch.t_end, "causal order");
    let chain = recorder.chain(wait.tag);
    assert_eq!(
        chain.iter().map(|r| r.stage).collect::<Vec<_>>(),
        [Stage::ChannelWait, Stage::Dispatch]
    );

    // The stage histograms saw the same observations.
    let snap = pool.metrics().snapshot();
    for stage in ["channel_wait", "dispatch"] {
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "igm_span_stage_nanos" && h.labels.iter().any(|(_, v)| v == stage))
            .unwrap_or_else(|| panic!("igm_span_stage_nanos{{stage={stage}}} registered"));
        assert!(hist.hist.count() > 0, "{stage} histogram recorded");
    }
    pool.shutdown();
}

#[test]
fn violation_event_snapshots_the_frame_chain() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let session = pool.open_session(SessionConfig::new("victim", LifeguardKind::AddrCheck));
    // First (sampled) frame: allocate 64 bytes, then touch one past the
    // end — a violation inside a sampled frame.
    session
        .send_batch(vec![
            TraceEntry::annot(0x10, Annotation::Malloc { base: 0x9000, size: 64 }),
            TraceEntry::op(0x14, OpClass::MemToReg { src: MemRef::word(0x9040), rd: Reg::Eax }),
        ])
        .unwrap();
    let report = session.finish();
    assert_eq!(report.violations.len(), 1);

    let events = pool.events().since(0);
    let spans = events
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Violation { spans, .. } => Some(spans.clone()),
            _ => None,
        })
        .expect("a violation event was recorded");
    assert!(!spans.is_empty(), "sampled frame: the chain rides the event");
    let stages: Vec<Stage> = spans.iter().map(|r| r.stage).collect();
    assert!(stages.contains(&Stage::ChannelWait));
    assert!(stages.contains(&Stage::Dispatch));
    assert!(stages.contains(&Stage::Violation), "the violation marker closes the chain");
    assert!(spans.windows(2).all(|w| w[0].t_start <= w[1].t_start), "causal order");
    pool.shutdown();
}

#[test]
fn an_empty_send_publishes_no_frame() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let recorder = pool.recorder().clone();
    let session = pool.open_session(SessionConfig::new("app", LifeguardKind::AddrCheck));
    // Neither empty send may take a frame ordinal or a sampling turn.
    session.send_batch(Vec::new()).unwrap();
    assert!(session.try_send_batch(Vec::new()).unwrap().is_none());
    session.send_batch(clean(16)).unwrap();
    assert_eq!(session.channel_stats().pushed_batches, 1, "one publish");
    session.finish();

    // The first published frame is the flow's frame 0, always sampled.
    let spans = recorder.snapshot();
    let wait = spans.iter().find(|r| r.stage == Stage::ChannelWait).expect("channel_wait span");
    assert_eq!(wait.tag.seq, 0, "the empty sends took no frame ordinal");
    let chain = recorder.chain(wait.tag);
    assert_eq!(
        chain.iter().map(|r| r.stage).collect::<Vec<_>>(),
        [Stage::ChannelWait, Stage::Dispatch]
    );
    pool.shutdown();
}

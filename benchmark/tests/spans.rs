//! Span self-time arithmetic on hand-built trees.

use igm_benchmark::spans::{layer_table, self_times_ns, Span, SpanBuf, NONE};
use std::collections::BTreeMap;
use std::time::Instant;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
    Span { name, start_ns, end_ns, parent, rep: 0, thread: 0 }
}

#[test]
fn self_time_is_duration_minus_covered_children() {
    let spans = vec![
        span("sim.observe_batch", 0, 100, NONE),
        span("core.dispatch_batch", 10, 40, 0),
        span("lifeguards.handle_batch", 40, 90, 0),
        // A grandchild takes from its parent only.
        span("shadow.update_range", 50, 70, 2),
    ];
    assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
}

#[test]
fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
    let spans = vec![
        span("net.serve_connections", 100, 200, NONE),
        span("trace.ingest_pass", 110, 150, 0),
        span("trace.ingest_pass", 140, 160, 0),
        // Starts inside, ends after the parent: only 190..200 is covered.
        span("runtime.finish", 190, 250, 0),
        // Entirely outside the parent: covers nothing.
        span("runtime.finish", 300, 400, 0),
    ];
    // Covered: 110..160 (50) + 190..200 (10) = 60 of 100.
    assert_eq!(self_times_ns(&spans)[0], 40);
}

#[test]
fn layer_table_sums_busy_self_and_wait_per_layer() {
    let spans = vec![
        span("sim.observe_batch", 0, 100, NONE),
        span("core.dispatch_batch", 10, 40, 0),
        span("lifeguards.handle_batch", 40, 90, 0),
        span("sim.observe_batch", 100, 160, NONE),
        span("core.dispatch_batch", 100, 150, 3),
        // Same layer nested in itself: busy counts the outer span only.
        span("core.gate", 110, 120, 4),
    ];
    let mut waits = BTreeMap::new();
    waits.insert("runtime", 7u64);
    let rows = layer_table(&spans, &waits);
    let row = |layer: &str| rows.iter().find(|r| r.layer == layer).unwrap().clone();
    assert_eq!((row("sim").calls, row("sim").busy_ns, row("sim").self_ns), (2, 160, 30));
    assert_eq!((row("core").calls, row("core").busy_ns, row("core").self_ns), (3, 80, 80));
    assert_eq!(row("lifeguards").self_ns, 50);
    assert_eq!((row("runtime").calls, row("runtime").wait_ns), (0, 7));
}

#[test]
fn recorder_links_parents_stamps_reps_and_never_grows() {
    let mut buf = SpanBuf::with_capacity(Instant::now(), 0, 3);
    buf.set_rep(4);
    let outer = buf.enter("sim.observe_batch");
    let inner = buf.enter("core.dispatch_batch");
    buf.exit(inner);
    buf.exit(outer);
    let third = buf.span("lba.extract_batch", || 7);
    assert_eq!(third, 7);
    // Full: further spans are dropped, not reallocated for.
    let dropped = buf.enter("lba.extract_batch");
    assert_eq!(dropped, NONE);
    buf.exit(dropped);
    assert_eq!(buf.dropped(), 1);
    let spans = buf.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, NONE);
    assert_eq!(spans[1].parent, 0);
    assert_eq!(spans[2].parent, NONE);
    assert!(spans.iter().all(|s| s.rep == 4 && s.end_ns >= s.start_ns));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    // Another thread's buffer keeps its internal links when absorbed.
    let mut other = SpanBuf::with_capacity(buf.origin(), 1, 2);
    let a = other.enter("net.serve_connections");
    let b = other.enter("trace.ingest_pass");
    other.exit(b);
    other.exit(a);
    buf.absorb(other);
    assert_eq!(buf.spans()[4].parent, 3);
    assert_eq!(buf.spans()[4].thread, 1);

    let json = igm_benchmark::json::Json::parse(&buf.to_json("w")).unwrap();
    assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 5);
    assert_eq!(json.get("dropped").unwrap().as_f64(), Some(1.0));
}

//! Span export: the `/spans.json` snapshot format and Chrome trace-event
//! JSON (`/trace`) for `chrome://tracing` / Perfetto.

use crate::{SpanRecord, SpanSnapshot, Track};

impl SpanSnapshot {
    /// Renders the snapshot as the `/spans.json` body: the cursor pair
    /// plus one object per record.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str(&format!(
            "{{\n  \"next_seq\": {},\n  \"dropped\": {},\n  \"spans\": [",
            self.next_seq, self.dropped
        ));
        for (i, rec) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (kind, id) = track_parts(rec.track);
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"stage\": \"{}\", \"track\": \"{kind}\", \
                 \"track_id\": {id}, \"flow\": {}, \"frame_seq\": {}, \
                 \"t_start_nanos\": {}, \"t_end_nanos\": {}}}",
                rec.seq,
                rec.stage.name(),
                rec.tag.flow,
                rec.tag.seq,
                rec.t_start,
                rec.t_end,
            ));
        }
        if self.spans.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

fn track_parts(track: Track) -> (&'static str, u32) {
    match track {
        Track::Worker(id) => ("worker", id),
        Track::Lane(id) => ("lane", id),
        Track::Client(id) => ("client", id),
        Track::Helper(id) => ("helper", id),
    }
}

/// Renders stage records as Chrome trace-event JSON: one complete
/// (`"ph": "X"`) event per record on a per-track timeline (workers,
/// lanes, clients and helpers each get their own named "thread"), with
/// the frame chain key in `args`. The output loads directly in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut tracks: Vec<Track> = records.iter().map(|r| r.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut out = String::with_capacity(128 + tracks.len() * 96 + records.len() * 160);
    out.push_str("{\"traceEvents\": [");
    let mut first = true;
    // Thread-name metadata first, so the viewer labels every track.
    for track in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            track.code(),
            track.label(),
        ));
    }
    for rec in records {
        if !first {
            out.push(',');
        }
        first = false;
        // Chrome trace timestamps are microseconds; keep nanosecond
        // resolution in the fraction.
        let ts = rec.t_start as f64 / 1000.0;
        let dur = rec.nanos() as f64 / 1000.0;
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"igm\", \"ph\": \"X\", \"ts\": {ts:.3}, \
             \"dur\": {dur:.3}, \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"flow\": {}, \"frame_seq\": {}}}}}",
            rec.stage.name(),
            rec.track.code(),
            rec.tag.flow,
            rec.tag.seq,
        ));
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameTag, Stage};

    fn rec(stage: Stage, track: Track, flow: u32, seq: u64, t0: u64, t1: u64) -> SpanRecord {
        SpanRecord { seq: 0, stage, track, tag: FrameTag { flow, seq }, t_start: t0, t_end: t1 }
    }

    #[test]
    fn spans_json_shape() {
        let snap = crate::SpanSnapshot {
            spans: vec![rec(Stage::Dispatch, Track::Worker(2), 7, 3, 1000, 2500)],
            next_seq: 5,
            dropped: 4,
        };
        let json = snap.to_json();
        assert!(json.contains("\"next_seq\": 5"));
        assert!(json.contains("\"dropped\": 4"));
        assert!(json.contains("\"stage\": \"dispatch\""));
        assert!(json.contains("\"track\": \"worker\""));
        assert!(json.contains("\"flow\": 7"));
        assert!(json.contains("\"t_end_nanos\": 2500"));
    }

    #[test]
    fn chrome_trace_names_every_track_and_emits_complete_events() {
        let records = [
            rec(Stage::ClientSend, Track::Client(7), 7, 0, 0, 1500),
            rec(Stage::ChannelWait, Track::Worker(1), 7, 0, 2000, 4000),
            rec(Stage::Dispatch, Track::Worker(1), 7, 0, 4000, 9000),
        ];
        let json = chrome_trace(&records);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\": \"worker 1\""));
        assert!(json.contains("\"name\": \"client 7\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"dispatch\""));
        assert!(json.contains("\"ts\": 4.000"));
        assert!(json.contains("\"dur\": 5.000"));
        // Two distinct tracks → exactly two metadata events.
        assert_eq!(json.matches("thread_name").count(), 2);
        // Crude structural sanity: braces and brackets balance.
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }
}

//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both render a [`MetricsSnapshot`] (or [`EventsSnapshot`]) into an
//! owned `String` — the cold scrape path, never the record path. The
//! JSON is hand-rolled (std-only workspace), with full string escaping.

use crate::events::{EventKind, EventsSnapshot};
use crate::registry::{bucket_upper_bound, HistogramSample, MetricsSnapshot, HISTOGRAM_BUCKETS};
use std::fmt::Write;

/// Escapes a string for a JSON string literal (quotes not included).
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape(s, &mut out);
    out.push('"');
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_str(k), json_str(v));
    }
    out.push('}');
    out
}

/// Escapes a Prometheus label *value* (backslash, quote, newline).
fn prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}`, with `extra` appended (for the histogram `le`).
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_label_value(v));
    }
    out.push('}');
    out
}

impl MetricsSnapshot {
    /// Prometheus text exposition (`text/plain; version=0.0.4`):
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le=...}` series (empty tail buckets elided, `+Inf` always
    /// present) plus `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        // Self-describing scrape preamble: what build is this, how long
        // has it been up.
        let _ = writeln!(out, "# HELP igm_build_info Build version/revision of this monitor");
        let _ = writeln!(out, "# TYPE igm_build_info gauge");
        let _ = writeln!(
            out,
            "igm_build_info{} 1",
            prom_labels(
                &[
                    ("version".to_owned(), self.build_version.clone()),
                    ("revision".to_owned(), self.build_revision.clone()),
                ],
                None
            )
        );
        let _ = writeln!(out, "# HELP igm_uptime_seconds Seconds since the registry was created");
        let _ = writeln!(out, "# TYPE igm_uptime_seconds gauge");
        let _ = writeln!(out, "igm_uptime_seconds {:.3}", self.uptime_nanos as f64 / 1e9);
        let mut seen: Vec<&str> = Vec::new();
        // One HELP/TYPE block per family even when labeled series repeat
        // the name.
        fn header<'a>(
            out: &mut String,
            seen: &mut Vec<&'a str>,
            name: &'a str,
            help: &str,
            ty: &str,
        ) {
            if !seen.contains(&name) {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {ty}");
                seen.push(name);
            }
        }
        for c in &self.counters {
            header(&mut out, &mut seen, &c.name, &c.help, "counter");
            let _ = writeln!(out, "{}{} {}", c.name, prom_labels(&c.labels, None), c.value);
        }
        for g in &self.gauges {
            header(&mut out, &mut seen, &g.name, &g.help, "gauge");
            let _ = writeln!(out, "{}{} {}", g.name, prom_labels(&g.labels, None), g.value);
        }
        for h in &self.histograms {
            header(&mut out, &mut seen, &h.name, &h.help, "histogram");
            let last_used =
                h.hist.buckets.iter().rposition(|&b| b > 0).unwrap_or(0).min(HISTOGRAM_BUCKETS - 2);
            let mut cumulative = 0u64;
            for (i, b) in h.hist.buckets.iter().enumerate().take(last_used + 1) {
                cumulative += b;
                let le = bucket_upper_bound(i).to_string();
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    prom_labels(&h.labels, Some(("le", &le))),
                    cumulative
                );
            }
            let count = h.hist.count();
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                prom_labels(&h.labels, Some(("le", "+Inf"))),
                count
            );
            let _ = writeln!(out, "{}_sum{} {}", h.name, prom_labels(&h.labels, None), h.hist.sum);
            let _ = writeln!(out, "{}_count{} {}", h.name, prom_labels(&h.labels, None), count);
        }
        out
    }

    /// JSON rendering: `{"uptime_nanos": …, "counters": [...], "gauges":
    /// [...], "histograms": [...]}` with non-empty buckets as
    /// `[bucket_upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"uptime_nanos\": {}, \"uptime_seconds\": {:.3}, \"build\": \
             {{\"version\": {}, \"revision\": {}}}, \"counters\": [",
            self.uptime_nanos,
            self.uptime_nanos as f64 / 1e9,
            json_str(&self.build_version),
            json_str(&self.build_revision)
        );
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json_str(&c.name),
                json_labels(&c.labels),
                c.value
            );
        }
        out.push_str("], \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                json_str(&g.name),
                json_labels(&g.labels),
                g.value
            );
        }
        out.push_str("], \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&histogram_json(h));
        }
        out.push_str("]}");
        out
    }
}

fn histogram_json(h: &HistogramSample) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"name\": {}, \"labels\": {}, \"count\": {}, \"sum\": {}, \"buckets\": [",
        json_str(&h.name),
        json_labels(&h.labels),
        h.hist.count(),
        h.hist.sum
    );
    let mut first = true;
    for (i, &b) in h.hist.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "[{}, {}]", bucket_upper_bound(i), b);
    }
    out.push_str("]}");
    out
}

impl EventsSnapshot {
    /// JSON rendering: `{"dropped": …, "next_seq": …, "events": [...]}`
    /// with each event as `{"seq", "at_nanos", "kind", ...fields}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"dropped\": {}, \"next_seq\": {}, \"events\": [",
            self.dropped, self.next_seq
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"seq\": {}, \"at_nanos\": {}, \"kind\": {}",
                e.seq,
                e.at_nanos,
                json_str(e.kind.name())
            );
            match &e.kind {
                EventKind::SessionOpen { session, tenant, lifeguard } => {
                    let _ = write!(
                        out,
                        ", \"session\": {session}, \"tenant\": {}, \"lifeguard\": {}",
                        json_str(tenant),
                        json_str(lifeguard)
                    );
                }
                EventKind::SessionClose { session, tenant, records, violations } => {
                    let _ = write!(
                        out,
                        ", \"session\": {session}, \"tenant\": {}, \"records\": {records}, \
                         \"violations\": {violations}",
                        json_str(tenant)
                    );
                }
                EventKind::Steal { session, from_worker, to_worker } => {
                    let _ = write!(
                        out,
                        ", \"session\": {session}, \"from_worker\": {from_worker}, \
                         \"to_worker\": {to_worker}"
                    );
                }
                EventKind::LaneFailure { lane, error } => {
                    let _ = write!(
                        out,
                        ", \"lane\": {}, \"error\": {}",
                        json_str(lane),
                        json_str(error)
                    );
                }
                EventKind::HandshakeReject { peer, reason } => {
                    let _ = write!(
                        out,
                        ", \"peer\": {}, \"reason\": {}",
                        json_str(peer),
                        json_str(reason)
                    );
                }
                EventKind::PipelineEnter {
                    session,
                    tenant,
                    channel_used_bytes,
                    channel_capacity_bytes,
                    hot_turns,
                    parked_workers,
                    plain_rate,
                } => {
                    let _ = write!(
                        out,
                        ", \"session\": {session}, \"tenant\": {}, \
                         \"channel_used_bytes\": {channel_used_bytes}, \
                         \"channel_capacity_bytes\": {channel_capacity_bytes}, \
                         \"hot_turns\": {hot_turns}, \"parked_workers\": {parked_workers}, \
                         \"plain_rate\": {plain_rate}",
                        json_str(tenant)
                    );
                }
                EventKind::PipelineExit { session, tenant, epochs, stretch_rate } => {
                    let _ = write!(
                        out,
                        ", \"session\": {session}, \"tenant\": {}, \"epochs\": {epochs}, \
                         \"stretch_rate\": {stretch_rate}",
                        json_str(tenant)
                    );
                }
                EventKind::Violation { session, tenant, detail, record, spans } => {
                    let _ = write!(
                        out,
                        ", \"session\": {session}, \"tenant\": {}, \"detail\": {}, \"record\": ",
                        json_str(tenant),
                        json_str(detail)
                    );
                    match record {
                        Some(id) => {
                            let _ = write!(out, "{}", json_str(&id.to_string()));
                        }
                        None => out.push_str("null"),
                    }
                    out.push_str(", \"spans\": [");
                    for (i, s) in spans.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(
                            out,
                            "{{\"stage\": {}, \"flow\": {}, \"frame_seq\": {}, \
                             \"t_start_nanos\": {}, \"t_end_nanos\": {}}}",
                            json_str(s.stage.name()),
                            s.tag.flow,
                            s.tag.seq,
                            s.t_start,
                            s.t_end
                        );
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

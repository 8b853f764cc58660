//! The lake's HTTP routes, mounted on the stats server.
//!
//! [`LakeRoutes`] is an [`igm_obs::RouteHandler`]; attach it via
//! [`igm_obs::StatsServer::serve`] or
//! [`igm_runtime::MonitorPool::serve_stats`]:
//!
//! | path                | body                                          |
//! |---------------------|-----------------------------------------------|
//! | `/lake/traces.json` | the catalog: stems, ids, sizes, index overhead |
//! | `/lake/query`       | bitmap query / record-neighborhood inspection  |
//!
//! `/lake/query` parameters (all validated by the hardened
//! [`igm_obs::Query`] parser before this handler runs):
//!
//! - `tenant=<stem>` — restrict to one trace (optional for filters,
//!   required for a bare-`seq` `around`).
//! - `pc=`, `page=`, `op=`, `site=` — per-dimension terms: comma = OR,
//!   `!` prefix = NOT; `pc`/`page` take raw addresses (decimal or
//!   `0x` hex), `op`/`site` take class labels (see
//!   [`LakeQuery::parse_dim`]).
//! - `around=<tenant:trace:seq|seq>` + `k=` — decode the ±k record
//!   neighborhood instead of filtering (the only path that touches
//!   trace payloads; `k` default 4, max 10000).
//! - `limit=` — cap on materialized hit ids (default 100, max 10000).

use crate::catalog::{LakeError, TraceLake};
use crate::query::LakeQuery;
use igm_obs::{
    json_str, Counter, Histogram, MetricsRegistry, Query, QueryError, RouteHandler, RouteResponse,
};
use igm_span::RecordId;
use igm_trace::{op_class, site, Dim, PAGE_SHIFT};
use std::sync::Arc;

/// Default and maximum `limit=` values for materialized hits.
const DEFAULT_LIMIT: u64 = 100;
/// Upper bound on `limit=` and `k=`, so one request cannot serialize a
/// whole trace.
const MAX_LIMIT: u64 = 10_000;
/// Default `k=` for neighborhoods.
const DEFAULT_K: u64 = 4;

/// The `/lake/*` route family over one [`TraceLake`].
pub struct LakeRoutes {
    lake: Arc<TraceLake>,
    queries: Counter,
    query_nanos: Histogram,
    replay_nanos: Histogram,
}

impl LakeRoutes {
    /// Wraps `lake` and registers the `igm_lake_*` metrics family on
    /// `registry`: catalog gauges (traces, indexed records, index
    /// bytes) are set now; query counters and latency histograms are
    /// fed per request.
    pub fn new(lake: Arc<TraceLake>, registry: &MetricsRegistry) -> LakeRoutes {
        registry
            .gauge("igm_lake_traces", "Traces cataloged by the lake")
            .set(lake.traces().len() as i64);
        registry
            .gauge("igm_lake_indexed_records", "Records covered by lake posting indexes")
            .set(lake.total_records() as i64);
        registry
            .gauge("igm_lake_index_bytes", "Posting-index bytes across the lake")
            .set(lake.total_index_bytes() as i64);
        LakeRoutes {
            lake,
            queries: registry
                .counter("igm_lake_queries_total", "Lake queries answered (filters and lookups)"),
            query_nanos: registry
                .histogram("igm_lake_query_nanos", "Bitmap query evaluation latency"),
            replay_nanos: registry.histogram(
                "igm_lake_replay_nanos",
                "Neighborhood decode latency (seek + frame decode)",
            ),
        }
    }

    /// The wrapped lake.
    pub fn lake(&self) -> &Arc<TraceLake> {
        &self.lake
    }

    fn traces_json(&self) -> String {
        let mut body = String::from("{\"traces\": [");
        for (i, t) in self.lake.traces().iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!(
                "{{\"stem\": {}, \"tenant\": \"{:08x}\", \"trace\": \"{:08x}\", \
                 \"records\": {}, \"frames\": {}, \"trace_bytes\": {}, \"index_bytes\": {}, \
                 \"index_bytes_per_record\": {:.4}, \"rebuilt\": {}}}",
                json_str(&t.stem),
                t.tenant,
                t.trace,
                t.index.total_records(),
                t.index.frames(),
                t.trace_bytes,
                t.index.posting_bytes(),
                t.index_bytes_per_record(),
                t.rebuilt,
            ));
        }
        body.push_str("], \"skipped\": [");
        for (i, (stem, why)) in self.lake.skipped().iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!(
                "{{\"stem\": {}, \"error\": {}}}",
                json_str(stem),
                json_str(why)
            ));
        }
        body.push_str("]}");
        body
    }

    fn query_route(&self, q: &Query) -> RouteResponse {
        if let Err(e) =
            q.expect_only(&["tenant", "pc", "op", "page", "site", "around", "k", "limit"])
        {
            return RouteResponse::bad_request(&e);
        }
        self.queries.inc();
        let tenant = q.get("tenant");
        match q.get("around") {
            Some(raw) => {
                let k = match q.get_u64("k") {
                    Ok(v) => v.unwrap_or(DEFAULT_K).min(MAX_LIMIT),
                    Err(e) => return RouteResponse::bad_request(&e),
                };
                let id = match parse_around(&self.lake, tenant, raw) {
                    Ok(id) => id,
                    Err(resp) => return resp,
                };
                let started = self.replay_nanos.start();
                let resp = self.neighborhood_json(id, k);
                self.replay_nanos.stop(started);
                resp
            }
            None => {
                let mut lq = LakeQuery::new();
                for dim in Dim::ALL {
                    if let Some(raw) = q.get(dim.name()) {
                        lq = match lq.parse_dim(dim, raw) {
                            Ok(next) => next,
                            Err(detail) => {
                                return RouteResponse::bad_request(&QueryError {
                                    kind: "bad_term",
                                    detail,
                                })
                            }
                        };
                    }
                }
                let limit = match q.get_u64("limit") {
                    Ok(v) => v.unwrap_or(DEFAULT_LIMIT).min(MAX_LIMIT) as usize,
                    Err(e) => return RouteResponse::bad_request(&e),
                };
                let started = self.query_nanos.start();
                let resp = self.filter_json(tenant, &lq, limit);
                self.query_nanos.stop(started);
                resp
            }
        }
    }

    fn filter_json(&self, tenant: Option<&str>, lq: &LakeQuery, limit: usize) -> RouteResponse {
        let hits = match self.lake.query(tenant, lq, limit) {
            Ok(h) => h,
            Err(e) => return lake_error(e),
        };
        let mut body = format!(
            "{{\"matched\": {}, \"truncated\": {}, \"traces\": {}, \
             \"frames_visited\": {}, \"frames_skipped\": {}, \"hits\": [",
            hits.matched, hits.truncated, hits.traces, hits.frames_visited, hits.frames_skipped,
        );
        for (i, id) in hits.hits.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!("\"{id}\""));
        }
        body.push_str("]}");
        RouteResponse::json(body)
    }

    fn neighborhood_json(&self, id: RecordId, k: u64) -> RouteResponse {
        let records = match self.lake.neighborhood(id, k) {
            Ok(r) => r,
            Err(e) => return lake_error(e),
        };
        let mut body = format!(
            "{{\"around\": \"{id}\", \"k\": {k}, \"count\": {}, \"records\": [",
            records.len()
        );
        for (i, (seq, e)) in records.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let code = e.op.field_code();
            let mut pages: Vec<String> = Vec::new();
            e.op.for_each_addr(|a| pages.push(format!("\"0x{:x}\"", a >> PAGE_SHIFT)));
            body.push_str(&format!(
                "{{\"seq\": {seq}, \"id\": \"{}\", \"pc\": \"0x{:x}\", \"op\": \"{}\", \
                 \"site\": {}, \"pages\": [{}], \"focus\": {}}}",
                RecordId::new(id.tenant, id.trace, *seq),
                e.pc,
                op_class::name(op_class::of(code)),
                match site::of(code) {
                    Some(s) => format!("\"{}\"", site::name(s)),
                    None => "null".into(),
                },
                pages.join(", "),
                *seq == id.seq,
            ));
        }
        body.push_str("]}");
        RouteResponse::json(body)
    }
}

impl RouteHandler for LakeRoutes {
    fn handle(&self, path: &str, query: &Query) -> Option<RouteResponse> {
        match path {
            "/lake/traces.json" => Some(match query.expect_only(&[]) {
                Err(e) => RouteResponse::bad_request(&e),
                Ok(()) => RouteResponse::json(self.traces_json()),
            }),
            "/lake/query" => Some(self.query_route(query)),
            _ => None,
        }
    }

    fn index_lines(&self) -> Vec<String> {
        vec![
            "/lake/traces.json   trace-lake catalog (stems, ids, index overhead)".into(),
            "/lake/query?tenant=&pc=&op=&page=&site=  bitmap record query (comma=OR, !=NOT)".into(),
            "/lake/query?around=T:R:S&k=N  decode the record's +-k neighborhood".into(),
        ]
    }
}

/// Parses `around=`: a full `tenant:trace:seq` record id (hex:hex:dec,
/// the `RecordId` display form), or a bare decimal `seq` resolved
/// against the `tenant=` parameter's trace.
fn parse_around(
    lake: &TraceLake,
    tenant: Option<&str>,
    raw: &str,
) -> Result<RecordId, RouteResponse> {
    let bad = |detail: String| {
        Err(RouteResponse::bad_request(&QueryError { kind: "bad_record_id", detail }))
    };
    let mut parts = raw.split(':');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(t), Some(r), Some(s), None) => {
            let (Ok(t), Ok(r), Ok(s)) =
                (u32::from_str_radix(t, 16), u32::from_str_radix(r, 16), s.parse::<u64>())
            else {
                return bad(format!("around={raw:?} is not tenant:trace:seq (hex:hex:dec)"));
            };
            Ok(RecordId::new(t, r, s))
        }
        (Some(seq), None, ..) => {
            let Ok(seq) = seq.parse::<u64>() else {
                return bad(format!("around={raw:?} is neither a record id nor a seq"));
            };
            let Some(stem) = tenant else {
                return bad("a bare around=seq needs tenant=".into());
            };
            match lake.by_stem(stem) {
                Some(t) => Ok(RecordId::new(t.tenant, t.trace, seq)),
                None => Err(lake_error(LakeError::UnknownTenant(stem.into()))),
            }
        }
        _ => bad(format!("around={raw:?} is not tenant:trace:seq")),
    }
}

/// Maps a lake error to its HTTP shape: unknown names are 404s, broken
/// artifacts are 500s — all with the same typed JSON error body the
/// query parser uses.
fn lake_error(e: LakeError) -> RouteResponse {
    let (status, kind) = match &e {
        LakeError::UnknownTenant(_) => (404, "unknown_tenant"),
        LakeError::UnknownRecord(_) => (404, "unknown_record"),
        LakeError::Trace(_) | LakeError::Replay(_) => (500, "lake_error"),
    };
    RouteResponse {
        status,
        content_type: "application/json",
        body: QueryError { kind, detail: e.to_string() }.to_json(),
    }
}

//! The lake's end-to-end contract: bitmap queries answered from sidecars
//! alone are property-tested equal to the full-replay filter for every
//! lifeguard kind, neighborhoods decode exactly the requested window,
//! sidecars heal byte-identically, violation record ids join back to
//! their trace, and the `/lake/*` routes serve (and reject) correctly.

use igm_isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
use igm_lake::{LakeError, LakeQuery, LakeRoutes, TraceLake};
use igm_lba::TraceBatch;
use igm_lifeguards::LifeguardKind;
use igm_obs::{EventKind, MetricsRegistry, StatsServer};
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm_span::{tenant_id, trace_id, RecordId};
use igm_trace::{capture_to_lake, op_class, Dim, TraceReader};
use igm_workload::Benchmark;
use proptest::prelude::*;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use igm_lake::query::{execute, matches_entry};

/// Records per captured tenant in the shared fixture.
const N: u64 = 3_000;

/// One tenant per lifeguard kind — the property must hold for all five.
const TENANTS: [(LifeguardKind, Benchmark); 5] = [
    (LifeguardKind::AddrCheck, Benchmark::Gzip),
    (LifeguardKind::MemCheck, Benchmark::Mcf),
    (LifeguardKind::TaintCheck, Benchmark::Parser),
    (LifeguardKind::TaintCheckDetailed, Benchmark::Crafty),
    (LifeguardKind::LockSet, Benchmark::Vpr),
];

struct Fixture {
    lake: Arc<TraceLake>,
    /// Per tenant: `(stem, fully decoded records in seq order)` — the
    /// full-replay baseline the bitmap planner is checked against.
    decoded: Vec<(String, Vec<TraceEntry>)>,
}

fn stem_of(kind: LifeguardKind, bench: Benchmark) -> String {
    format!("{kind:?}-{}", bench.name()).to_lowercase()
}

fn decode_all(path: &Path) -> Vec<TraceEntry> {
    let mut reader = TraceReader::new(BufReader::new(File::open(path).unwrap())).unwrap();
    let mut out = Vec::new();
    let mut batch = TraceBatch::new();
    while reader.read_chunk_into_batch(&mut batch).unwrap() {
        out.extend(batch.iter());
    }
    out
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("igm-lake-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = MonitorPool::new(PoolConfig::with_workers(2));
        for (kind, bench) in TENANTS {
            let cfg = SessionConfig::new(stem_of(kind, bench), kind)
                .synthetic()
                .premark(&bench.profile().premark_regions());
            let mut cap = capture_to_lake(&pool, cfg, &dir).unwrap();
            cap.stream(bench.trace(N)).unwrap();
            cap.finish().unwrap();
        }
        pool.shutdown();
        let lake = Arc::new(TraceLake::open(&dir).unwrap());
        assert_eq!(lake.traces().len(), TENANTS.len());
        assert!(lake.skipped().is_empty(), "all artifacts catalog cleanly");
        assert!(
            lake.traces().iter().all(|t| !t.rebuilt),
            "capture_to_lake leaves writer-built sidecars the lake loads as-is"
        );
        let decoded = lake
            .traces()
            .iter()
            .map(|t| {
                let entries = decode_all(&t.path);
                assert_eq!(entries.len() as u64, t.index.total_records());
                (t.stem.clone(), entries)
            })
            .collect();
        Fixture { lake, decoded }
    })
}

/// Builds a query anchored at a real record (so include terms hit) with
/// optional raw-key op/site terms (which may miss entirely — the planner
/// and the scalar filter must agree on that too) and a seq window.
fn build_query(
    entries: &[TraceEntry],
    anchor: usize,
    use_pc: bool,
    use_page: bool,
    op_term: Option<(u32, bool)>,
    site_term: Option<u32>,
    window: Option<(u64, u64)>,
) -> LakeQuery {
    let mut q = LakeQuery::new();
    let a = &entries[anchor % entries.len()];
    if use_pc {
        q = q.pc(a.pc);
    }
    if use_page {
        // First data address at or after the anchor, if any record has one.
        let addr = entries[anchor % entries.len()..].iter().chain(entries.iter()).find_map(|e| {
            let mut first = None;
            e.op.for_each_addr(|a| {
                if first.is_none() {
                    first = Some(a);
                }
            });
            first
        });
        if let Some(addr) = addr {
            q = q.page(addr);
        }
    }
    if let Some((class, negate)) = op_term {
        q = if negate { q.exclude(Dim::OpClass, class) } else { q.include(Dim::OpClass, class) };
    }
    if let Some(kind) = site_term {
        q = q.include(Dim::Site, kind);
    }
    if let Some((start, len)) = window {
        q = q.seq_range(start..start + len.max(1));
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property: for every lifeguard's trace, a random
    /// conjunctive query evaluated by bitmap algebra over the sidecar
    /// returns exactly the records the scalar filter finds in a full
    /// payload decode — same seqs, same count, same coordinates.
    #[test]
    fn bitmap_query_equals_full_replay_filter(
        anchor in 0usize..(N as usize),
        flags in (any::<bool>(), any::<bool>()),
        op_term in proptest::option::of((0u32..op_class::COUNT, any::<bool>())),
        site_term in proptest::option::of(0u32..igm_trace::site::COUNT),
        window in proptest::option::of((0u64..N, 1u64..N / 2)),
    ) {
        let fx = fixture();
        for (stem, entries) in &fx.decoded {
            let q = build_query(entries, anchor, flags.0, flags.1, op_term, site_term, window);
            let hits = fx.lake.query(Some(stem), &q, usize::MAX).unwrap();
            let expected: Vec<u64> = entries
                .iter()
                .enumerate()
                .filter(|(seq, e)| matches_entry(&q, *seq as u64, e))
                .map(|(seq, _)| seq as u64)
                .collect();
            let got: Vec<u64> = hits.hits.iter().map(|id| id.seq).collect();
            prop_assert_eq!(&got, &expected, "tenant {} query {:?}", stem, q);
            prop_assert_eq!(hits.matched, expected.len() as u64);
            prop_assert!(!hits.truncated);
            let t = fx.lake.by_stem(stem).unwrap();
            prop_assert!(hits.hits.iter().all(|id| id.tenant == t.tenant && id.trace == t.trace));
            prop_assert_eq!(
                hits.frames_visited + hits.frames_skipped,
                t.index.frames(),
                "every frame is either planned away or evaluated"
            );
        }
    }
}

#[test]
fn unfiltered_query_matches_everything_and_respects_limit() {
    let fx = fixture();
    let all = fx.lake.query(None, &LakeQuery::new(), 7).unwrap();
    assert_eq!(all.matched, TENANTS.len() as u64 * N);
    assert_eq!(all.traces, TENANTS.len());
    assert_eq!(all.hits.len(), 7);
    assert!(all.truncated);
}

#[test]
fn execute_appends_across_traces() {
    let fx = fixture();
    // The catalog's multi-trace aggregation is just repeated appends.
    let q = LakeQuery::new().include(Dim::OpClass, op_class::STORE);
    let mut manual = igm_lake::LakeHits::default();
    for t in fx.lake.traces() {
        execute(&t.index, t.tenant, t.trace, &q, usize::MAX, &mut manual);
    }
    let combined = fx.lake.query(None, &q, usize::MAX).unwrap();
    assert_eq!(manual.matched, combined.matched);
    assert_eq!(manual.hits, combined.hits);
}

#[test]
fn neighborhood_decodes_exactly_the_window() {
    let fx = fixture();
    let t = &fx.lake.traces()[0];
    let entries = &fx.decoded.iter().find(|(s, _)| *s == t.stem).unwrap().1;
    for seq in [0, 1, N / 2, N - 2, N - 1] {
        for k in [0u64, 3, 9] {
            let id = RecordId::new(t.tenant, t.trace, seq);
            let got = fx.lake.neighborhood(id, k).unwrap();
            let start = seq.saturating_sub(k);
            let end = (seq + k + 1).min(N);
            assert_eq!(got.len() as u64, end - start, "seq={seq} k={k}");
            for (s, e) in &got {
                assert_eq!(*e, entries[*s as usize], "seq={s}");
            }
            assert_eq!(got.first().unwrap().0, start);
            assert_eq!(got.last().unwrap().0, end - 1);
        }
    }
}

#[test]
fn unknown_tenants_and_records_are_typed_errors() {
    let fx = fixture();
    match fx.lake.query(Some("no-such-tenant"), &LakeQuery::new(), 1) {
        Err(LakeError::UnknownTenant(t)) => assert_eq!(t, "no-such-tenant"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    match fx.lake.neighborhood(RecordId::new(1, 2, 3), 1) {
        Err(LakeError::UnknownRecord(id)) => assert_eq!(id, RecordId::new(1, 2, 3)),
        other => panic!("expected UnknownRecord, got {other:?}"),
    }
    // Right coordinates, seq past the end of the trace.
    let t = &fx.lake.traces()[0];
    let past = RecordId::new(t.tenant, t.trace, N);
    match fx.lake.neighborhood(past, 1) {
        Err(LakeError::UnknownRecord(id)) => assert_eq!(id.seq, N),
        other => panic!("expected UnknownRecord, got {other:?}"),
    }
}

#[test]
fn missing_or_damaged_sidecars_heal_byte_identically() {
    let dir = std::env::temp_dir().join(format!("igm-lake-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let cfg = SessionConfig::new("healme", LifeguardKind::AddrCheck)
        .synthetic()
        .premark(&Benchmark::Gzip.profile().premark_regions());
    let mut cap = capture_to_lake(&pool, cfg, &dir).unwrap();
    cap.stream(Benchmark::Gzip.trace(2_000)).unwrap();
    cap.finish().unwrap();
    pool.shutdown();

    let sidecar: PathBuf = dir.join("healme.igmx");
    let original = std::fs::read(&sidecar).unwrap();

    // Missing sidecar: the lake rebuilds it by offline scan and the
    // rebuilt bytes equal the writer-inline ones.
    std::fs::remove_file(&sidecar).unwrap();
    let lake = TraceLake::open(&dir).unwrap();
    assert!(lake.traces()[0].rebuilt);
    assert_eq!(std::fs::read(&sidecar).unwrap(), original, "offline rebuild is byte-identical");

    // Truncated (corrupt) sidecar: same healing path.
    std::fs::write(&sidecar, &original[..original.len() / 2]).unwrap();
    let lake = TraceLake::open(&dir).unwrap();
    assert!(lake.traces()[0].rebuilt);
    assert_eq!(std::fs::read(&sidecar).unwrap(), original);

    // A retired directory-only v1 sidecar (the same frame directory, no
    // posting section): refused by `load`, so healed by rescan, and the
    // healed lake answers queries exactly as before.
    let entries = lake.traces()[0].index.entries();
    let mut body = Vec::new();
    for e in entries {
        body.extend_from_slice(&e.offset.to_le_bytes());
        body.extend_from_slice(&e.records.to_le_bytes());
    }
    let mut v1 = b"IGMX".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    v1.extend_from_slice(&body);
    v1.extend_from_slice(&igm_trace::checksum(&body).to_le_bytes());
    assert!(matches!(
        igm_trace::TraceIndex::load(&v1[..]),
        Err(igm_trace::TraceError::UnsupportedVersion(1))
    ));
    let q = LakeQuery::new().include(Dim::OpClass, op_class::STORE);
    let before = lake.query(Some("healme"), &q, 10).unwrap();
    std::fs::write(&sidecar, &v1).unwrap();
    let lake = TraceLake::open(&dir).unwrap();
    assert!(lake.traces()[0].rebuilt, "a v1 sidecar is rebuilt");
    assert_eq!(std::fs::read(&sidecar).unwrap(), original);
    let after = lake.query(Some("healme"), &q, 10).unwrap();
    assert_eq!((after.matched, &after.hits), (before.matched, &before.hits));

    // Intact sidecar: loaded as-is, not rebuilt.
    let lake = TraceLake::open(&dir).unwrap();
    assert!(!lake.traces()[0].rebuilt);
    assert_eq!(lake.traces()[0].index.total_records(), 2_000);
}

/// FNV-1a-32, the checksum of trace format 2 and IGMX 2.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ b as u32).wrapping_mul(0x0100_0193))
}

/// A version-3 trace and sidecar are served beside a version-2 pair, which
/// the lake lists as skipped for its version: the old sidecar is refused
/// at its header, so the lake tries to rebuild it from the trace, whose
/// header is refused too — never a checksum mismatch.
#[test]
fn version_2_traces_are_skipped_for_their_version() {
    let dir = std::env::temp_dir().join(format!("igm-lake-v2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut writer = igm_trace::TraceWriter::with_index(Vec::new()).unwrap();
    let mut chunker = igm_lba::chunks(Benchmark::Gzip.trace(2_000), 2_048);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        writer.write_chunk_batch(&batch).unwrap();
    }
    let mut sidecar = Vec::new();
    writer.take_index().unwrap().save(&mut sidecar).unwrap();
    let stream = writer.finish().unwrap();

    // The same records as version 2 wrote them: version and codec words 2,
    // each frame and the sidecar sealed with FNV-1a-32.
    let mut old = stream.clone();
    old[4..8].copy_from_slice(&2u32.to_le_bytes());
    let mut at = 8;
    while at < old.len() {
        let len = u32::from_le_bytes(old[at + 4..at + 8].try_into().unwrap()) as usize;
        let sum = fnv1a(&old[at + 16..at + 16 + len]);
        old[at + 8..at + 12].copy_from_slice(&sum.to_le_bytes());
        old[at + 12..at + 16].copy_from_slice(&2u32.to_le_bytes());
        at += 16 + len;
    }
    let mut old_sidecar = sidecar.clone();
    old_sidecar[4..8].copy_from_slice(&2u32.to_le_bytes());
    let end = old_sidecar.len() - 4;
    let sum = fnv1a(&old_sidecar[16..end]);
    old_sidecar[end..].copy_from_slice(&sum.to_le_bytes());

    std::fs::write(dir.join("current.igmt"), &stream).unwrap();
    std::fs::write(dir.join("current.igmx"), &sidecar).unwrap();
    std::fs::write(dir.join("old.igmt"), &old).unwrap();
    std::fs::write(dir.join("old.igmx"), &old_sidecar).unwrap();
    let lake = TraceLake::open(&dir).unwrap();
    match lake.skipped() {
        [(stem, why)] => {
            assert_eq!(stem, "old");
            assert!(why.contains("version 2"), "{why}");
            assert!(!why.contains("checksum"), "{why}");
        }
        other => panic!("expected the version-2 trace alone skipped, got {other:?}"),
    }
    assert_eq!(lake.traces().len(), 1);
    assert_eq!(lake.traces()[0].stem, "current");
    assert!(!lake.traces()[0].rebuilt, "the version-3 sidecar loads as it is");
    let hits = lake.query(None, &LakeQuery::new(), 10).unwrap();
    assert_eq!(hits.matched, 2_000);
    assert_eq!(std::fs::read(dir.join("old.igmx")).unwrap(), old_sidecar, "left as found");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sidecar whose directory still points inside the trace file, but
/// whose trace has since grown or lost its tail, is stale: the check is
/// that the last indexed frame ends exactly at EOF.
#[test]
fn sidecars_of_rewritten_traces_are_stale() {
    let dir = std::env::temp_dir().join(format!("igm-lake-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let cfg = SessionConfig::new("grown", LifeguardKind::AddrCheck)
        .synthetic()
        .premark(&Benchmark::Gzip.profile().premark_regions());
    let mut cap = capture_to_lake(&pool, cfg, &dir).unwrap();
    cap.stream(Benchmark::Gzip.trace(5_000)).unwrap();
    cap.finish().unwrap();
    pool.shutdown();
    let trace = dir.join("grown.igmt");
    let sidecar = dir.join("grown.igmx");
    let captured = std::fs::read(&trace).unwrap();
    let captured_sidecar = std::fs::read(&sidecar).unwrap();
    assert!(!TraceLake::open(&dir).unwrap().traces()[0].rebuilt);

    // Appended frame (everything after another stream's file header):
    // the old sidecar's offsets all still land inside the file, yet it
    // no longer covers it.
    let more = igm_trace::encode_to_vec(Benchmark::Mcf.trace(700), 4_096);
    let mut grown = captured.clone();
    grown.extend_from_slice(&more[8..]);
    std::fs::write(&trace, &grown).unwrap();
    let lake = TraceLake::open(&dir).unwrap();
    let t = &lake.traces()[0];
    assert!(t.rebuilt, "a sidecar beside a longer trace must be rebuilt");
    assert_eq!(t.index.total_records(), 5_700);
    assert_eq!(decode_all(&trace).len(), 5_700);
    assert_ne!(std::fs::read(&sidecar).unwrap(), captured_sidecar, "the healed sidecar is saved");

    // Cut inside the last frame, with the original sidecar put back: its
    // last offset is still below the file size. The trace is either left
    // out with a reason or re-indexed — never cataloged under record
    // counts that do not decode.
    let last = igm_trace::TraceIndex::load(&captured_sidecar[..]).unwrap();
    let cut = last.entries().last().unwrap().offset as usize + 40;
    assert!(cut < captured.len());
    std::fs::write(&trace, &captured[..cut]).unwrap();
    std::fs::write(&sidecar, &captured_sidecar).unwrap();
    let lake = TraceLake::open(&dir).unwrap();
    match lake.traces().first() {
        None => assert_eq!(lake.skipped()[0].0, "grown"),
        Some(t) => {
            assert!(t.rebuilt);
            let mut reader = TraceReader::new(BufReader::new(File::open(&trace).unwrap())).unwrap();
            assert_eq!(
                reader.read_all().map(|e| e.len() as u64).ok(),
                Some(t.index.total_records())
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn violation_record_ids_join_the_lake() {
    let dir = std::env::temp_dir().join(format!("igm-lake-victim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let cfg = SessionConfig::new("victim", LifeguardKind::AddrCheck);
    let mut cap = capture_to_lake(&pool, cfg, &dir).unwrap();
    // Allocate 64 bytes, then load one word past the end: one violation
    // at the second record (seq 1).
    cap.send_batch(vec![
        TraceEntry::annot(0x10, Annotation::Malloc { base: 0x9000, size: 64 }),
        TraceEntry::op(0x14, OpClass::MemToReg { src: MemRef::word(0x9040), rd: Reg::Eax }),
    ])
    .unwrap();
    let (report, _) = cap.finish().unwrap();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violation_records.len(), 1);
    let id = report.violation_records[0].expect("captured sessions attribute violations");
    assert_eq!(id.tenant, tenant_id("victim"));
    assert_eq!(id.trace, trace_id("victim"));
    assert!(id.is_durable());
    assert_eq!(id.seq, 1, "the out-of-bounds load is the trace's second record");

    // The event ring carries the same coordinates (the /events.json join).
    let events = pool.events().since(0);
    let event_id = events
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Violation { record, .. } => Some(*record),
            _ => None,
        })
        .expect("a violation event was recorded");
    assert_eq!(event_id, Some(id));
    pool.shutdown();

    // And the id seeks straight back into the lake: the focused record
    // is the violating load.
    let lake = TraceLake::open(&dir).unwrap();
    let hood = lake.neighborhood(id, 0).unwrap();
    assert_eq!(hood.len(), 1);
    assert_eq!(hood[0].0, id.seq);
    assert_eq!(hood[0].1.pc, 0x14);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let status =
        out.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("HTTP status line");
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
    (status, body)
}

#[test]
fn lake_routes_serve_catalog_query_and_neighborhood() {
    let fx = fixture();
    let registry = Arc::new(MetricsRegistry::new());
    let routes = LakeRoutes::new(Arc::clone(&fx.lake), &registry);
    let server =
        StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, vec![Arc::new(routes)])
            .unwrap();
    let addr = server.local_addr();
    let stem = &fx.lake.traces()[0].stem;

    let (status, body) = http_get(addr, "/lake/traces.json");
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"stem\": \"{stem}\"")));
    assert!(body.contains(&format!("\"records\": {N}")));

    let (status, body) = http_get(addr, &format!("/lake/query?tenant={stem}&op=store&limit=5"));
    assert_eq!(status, 200);
    assert!(body.contains("\"matched\": ") || body.contains("\"matched\":"));
    let baseline = fx
        .lake
        .query(Some(stem), &LakeQuery::new().include(Dim::OpClass, op_class::STORE), 5)
        .unwrap();
    assert!(body.contains(&format!("\"matched\": {}", baseline.matched)));
    assert!(body.contains(&baseline.hits[0].to_string()));

    let (status, body) = http_get(addr, &format!("/lake/query?tenant={stem}&around=5&k=2"));
    assert_eq!(status, 200);
    assert!(body.contains("\"count\": 5"), "±2 around seq 5 is 5 records: {body}");
    assert!(body.contains("\"focus\": true"));

    // Full record-id addressing, no tenant parameter needed.
    let t = &fx.lake.traces()[0];
    let rid = RecordId::new(t.tenant, t.trace, 0);
    let (status, body) = http_get(addr, &format!("/lake/query?around={rid}&k=1"));
    assert_eq!(status, 200);
    assert!(body.contains("\"count\": 2"), "k=1 at the trace head is 2 records: {body}");

    // A `k` at the top of the u64 range is clamped, not added unchecked:
    // the neighborhood is the whole (short) trace, not the records before
    // the focus that a wrapped window end would leave.
    let (status, body) =
        http_get(addr, &format!("/lake/query?tenant={stem}&around={}&k={}", N / 2, u64::MAX));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("\"count\": {N}")), "±k covers the whole trace: {body}");

    // Typed rejections: bad term, unknown parameter, unknown tenant,
    // unknown record, malformed escape (caught before the handler).
    let cases = [
        ("/lake/query?op=bogus", 400, "bad_term"),
        ("/lake/query?tenant=x&pcs=1", 400, "unknown_param"),
        ("/lake/query?around=zz:1:0", 400, "bad_record_id"),
        ("/lake/query?around=7", 400, "bad_record_id"),
        ("/lake/query?tenant=no-such&pc=0x1000", 404, "unknown_tenant"),
        ("/lake/query?around=deadbeef:1:0", 404, "unknown_record"),
        ("/lake/traces.json?x=%zz", 400, "bad_escape"),
        ("/lake/traces.json?x=1", 400, "unknown_param"),
    ];
    for (path, want_status, want_kind) in cases {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, want_status, "{path}: {body}");
        assert!(body.contains(want_kind), "{path}: {body}");
    }

    // The metrics family observed the traffic.
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(metrics.contains(&format!("igm_lake_traces {}", TENANTS.len())));
    assert!(metrics.contains(&format!("igm_lake_indexed_records {}", TENANTS.len() as u64 * N)));
    assert!(metrics.contains("igm_lake_queries_total"));
    let mut server = server;
    server.stop();
}

#[test]
fn replay_around_reports_the_window() {
    let fx = fixture();
    let t = &fx.lake.traces()[0];
    let id = RecordId::new(t.tenant, t.trace, N / 2);
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let cfg = SessionConfig::new("inspect", LifeguardKind::AddrCheck).synthetic();
    let report = fx.lake.replay_around(&pool, cfg.clone(), id, 8).unwrap();
    assert_eq!(report.records, 17, "±8 around the midpoint is 17 records");
    // A window end past u64::MAX saturates to the trace's end.
    let report = fx.lake.replay_around(&pool, cfg, id, u64::MAX).unwrap();
    assert_eq!(report.records, N, "±u64::MAX is the whole trace");
    assert_eq!(fx.lake.neighborhood(id, u64::MAX).unwrap().len() as u64, N);
    pool.shutdown();
}

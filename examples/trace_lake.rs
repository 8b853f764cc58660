//! Capture several tenants into a trace lake, then answer forensic
//! questions from the sidecars alone: bitmap queries over the posting
//! indexes, a ±k record-neighborhood decode, the same queries over the
//! live `/lake/*` HTTP routes, and a windowed lifeguard replay around
//! one record of interest. Used as the CI capture→query→neighborhood
//! smoke step:
//!
//! ```sh
//! cargo run --release --example trace_lake
//! ```

use igm::lake::{LakeQuery, LakeRoutes, TraceLake};
use igm::lifeguards::LifeguardKind;
use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm::trace::{capture_to_lake, op_class, Dim};
use igm::workload::Benchmark;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn main() {
    const N: u64 = 20_000;
    let dir = std::env::temp_dir().join(format!("igm-lake-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // ── Capture: three tenants, three lifeguards, one lake directory.
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    let tenants = [
        (Benchmark::Gzip, LifeguardKind::AddrCheck),
        (Benchmark::Mcf, LifeguardKind::MemCheck),
        (Benchmark::Parser, LifeguardKind::TaintCheck),
    ];
    for (bench, kind) in tenants {
        let cfg = SessionConfig::new(bench.name(), kind)
            .synthetic()
            .premark(&bench.profile().premark_regions());
        let mut cap = capture_to_lake(&pool, cfg, &dir).expect("open lake capture");
        cap.stream(bench.trace(N)).expect("stream tenant");
        cap.finish().expect("finalize capture");
    }

    // ── Catalog: every artifact pair keyed by its RecordId coordinates.
    let lake = Arc::new(TraceLake::open(&dir).expect("open lake"));
    println!("lake: {} traces under {}", lake.traces().len(), dir.display());
    for t in lake.traces() {
        println!(
            "  {:<8} tenant={:08x} trace={:08x} {:>6} records {:>5} B index ({:.3} B/record)",
            t.stem,
            t.tenant,
            t.trace,
            t.index.total_records(),
            t.index.posting_bytes(),
            t.index_bytes_per_record(),
        );
    }

    // ── Query: all gzip records touching one hot address page — answered
    // from the sidecar's bitmaps, no trace payload decoded.
    let gzip_mid =
        igm::span::RecordId::new(igm::span::tenant_id("gzip"), igm::span::trace_id("gzip"), N / 2);
    let probe = lake.neighborhood(gzip_mid, 64).expect("probe window");
    // Anchor the query on a store the trace actually contains.
    let page = probe
        .iter()
        .filter(|(_, e)| op_class::of(e.op.field_code()) == op_class::STORE)
        .find_map(|(_, e)| {
            let mut addr = None;
            e.op.for_each_addr(|a| addr = addr.or(Some(a)));
            addr
        })
        .expect("a 129-record window holds at least one store");
    let q = LakeQuery::new().page(page).include(Dim::OpClass, op_class::STORE);
    let hits = lake.query(Some("gzip"), &q, 10).expect("lake query");
    println!(
        "lake query hits: {} (stores on page 0x{:x}; {} frames evaluated, {} skipped by the planner)",
        hits.matched,
        page >> 12,
        hits.frames_visited,
        hits.frames_skipped
    );
    assert!(hits.matched > 0, "the probed page has at least its own store/load traffic");

    // ── Neighborhood: decode exactly the ±3 records around a hit (an
    // edge-safe one, so the window is the full 7 records).
    let focus =
        hits.hits.iter().copied().find(|id| id.seq >= 3 && id.seq + 4 <= N).unwrap_or(gzip_mid);
    let hood = lake.neighborhood(focus, 3).expect("neighborhood");
    println!("neighborhood records: {}", hood.len());
    for (seq, e) in &hood {
        let marker = if *seq == focus.seq { ">>" } else { "  " };
        println!("  {marker} seq {:>6}  pc 0x{:x}", seq, e.pc);
    }

    // ── The same answers over HTTP: mount the lake on the stats server.
    let registry = Arc::new(igm::obs::MetricsRegistry::new());
    let routes = LakeRoutes::new(Arc::clone(&lake), &registry);
    let mut server = igm::obs::StatsServer::serve(
        "127.0.0.1:0",
        Arc::clone(&registry),
        None,
        vec![Arc::new(routes)],
    )
    .expect("serve lake routes");
    let addr = server.local_addr();
    let body = http_get(addr, &format!("/lake/query?tenant=gzip&page=0x{page:x}&op=store&limit=3"));
    println!("GET /lake/query -> {}", body.lines().last().unwrap_or(""));
    assert!(body.contains(&format!("\"matched\": {}", hits.matched)), "HTTP and API agree");
    let body = http_get(addr, &format!("/lake/query?around={focus}&k=3"));
    assert!(body.contains(&format!("\"count\": {}", hood.len())));
    server.stop();

    // ── Forensic replay: run a fresh lifeguard over just that window.
    let report = lake
        .replay_around(
            &pool,
            SessionConfig::new("inspect", LifeguardKind::AddrCheck).synthetic(),
            focus,
            8,
        )
        .expect("windowed replay");
    println!("windowed replay: {} records re-monitored around {}", report.records, focus);

    pool.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!("\ncapture -> query -> neighborhood forensics verified ✓");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect stats server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

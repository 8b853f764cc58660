//! Distributed monitoring over loopback: one ingest server, four remote
//! tenants, one `MonitorPool`.
//!
//! Each "remote" application connects with a `TraceForwarder`, handshakes
//! its tenant configuration (lifeguard, accelerators, premarked regions),
//! and streams its record log as codec frames, its writes held back by the
//! server's TCP receive window while the pool cannot keep up — the
//! software analogue of the paper's application-core → lifeguard-core log
//! transport, stretched across a socket. The server
//! thread accepts all four connections and multiplexes them through the
//! shared `Ingestor` into the pool. One tenant carries a buggy epilogue;
//! the example re-runs it locally and aborts unless the network path
//! reproduced the local violations and dispatch stats exactly (this is
//! the CI loopback smoke). Run with:
//!
//! ```sh
//! cargo run --release --example net_ingest
//! ```

use igm::isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::LifeguardKind;
use igm::net::{ForwarderConfig, IngestServer, NetServerConfig, TraceForwarder};
use igm::obs::EventKind;
use igm::runtime::{stats_table, MonitorPool, PoolConfig, SessionConfig};
use igm::span::Stage;
use igm::workload::Benchmark;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const N: u64 = 100_000;
const CHUNK: u32 = 16 * 1024;

/// A one-shot HTTP/1.1 GET against the pool's stats endpoint, returning
/// the response body (what `curl http://<addr><path>` would print).
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("stats endpoint reachable");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let body_at = response.find("\r\n\r\n").expect("header terminator") + 4;
    response[body_at..].to_owned()
}

/// An out-of-bounds heap read appended to gzip's trace: AddrCheck must
/// flag it identically on the local and network paths.
fn buggy_gzip() -> Vec<TraceEntry> {
    let mut trace: Vec<TraceEntry> = Benchmark::Gzip.trace(N).collect();
    trace.extend([
        TraceEntry::annot(0x9100_0000, Annotation::Malloc { base: 0x0a00_0000, size: 64 }),
        TraceEntry::op(
            0x9100_0008,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0040), rd: Reg::Edx },
        ),
        TraceEntry::annot(0x9100_0014, Annotation::Free { base: 0x0a00_0000 }),
    ]);
    trace
}

fn tenant_cfg(bench: Benchmark, kind: LifeguardKind) -> SessionConfig {
    SessionConfig::new(bench.name(), kind).synthetic().premark(&bench.profile().premark_regions())
}

fn main() {
    let pool = MonitorPool::new(PoolConfig { chunk_bytes: CHUNK, ..PoolConfig::with_workers(4) });

    // Local reference run of the buggy tenant, for the equivalence check.
    let local = {
        let session = pool.open_session(tenant_cfg(Benchmark::Gzip, LifeguardKind::AddrCheck));
        session.stream(buggy_gzip()).expect("pool alive");
        session.finish()
    };
    assert!(!local.violations.is_empty(), "the epilogue must trip AddrCheck locally");

    // Live observability: every counter/histogram below is scrapeable over
    // HTTP for the whole run.
    let mut stats_srv = pool.serve_stats("127.0.0.1:0", Vec::new()).expect("stats endpoint");
    let stats_addr = stats_srv.local_addr();

    let server =
        IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound");
    println!("ingest server on {addr}; 4 tenants x {N} records over loopback");
    println!("live stats on http://{stats_addr}/metrics (+ /stats.json, /events.json)\n");

    let tenants: [(Benchmark, LifeguardKind); 4] = [
        (Benchmark::Gzip, LifeguardKind::AddrCheck),
        (Benchmark::Mcf, LifeguardKind::MemCheck),
        (Benchmark::Gcc, LifeguardKind::TaintCheck),
        (Benchmark::Vpr, LifeguardKind::TaintCheckDetailed),
    ];
    let clients: Vec<_> = tenants
        .into_iter()
        .map(|(bench, kind)| {
            let registry = pool.metrics().clone();
            let recorder = pool.recorder().clone();
            std::thread::spawn(move || {
                let fcfg = ForwarderConfig { chunk_bytes: CHUNK };
                let mut fwd = TraceForwarder::connect_with(addr, &tenant_cfg(bench, kind), fcfg)
                    .expect("connect");
                // Loopback co-location: the clients' credit-stall
                // histogram (writes waiting for the server's receive
                // window) lands on the same stats endpoint as the pool,
                // and each forwarder is a span origin on the pool's
                // flight recorder — sampled frames chain client and
                // server stages under one flow.
                fwd.attach_metrics(&registry);
                fwd.attach_spans(&recorder);
                if matches!(bench, Benchmark::Gzip) {
                    fwd.stream(buggy_gzip()).expect("stream");
                } else {
                    fwd.stream(bench.trace(N)).expect("stream");
                }
                (bench.name(), fwd.finish().expect("clean FIN"))
            })
        })
        .collect();

    // A fifth tenant handshakes, streams a little, then vanishes without
    // FIN — the server must fail only that lane, and say why.
    let flaky = std::thread::spawn(move || {
        let cfg = SessionConfig::new("flaky", LifeguardKind::AddrCheck)
            .synthetic()
            .premark(&Benchmark::Gzip.profile().premark_regions());
        let mut fwd = TraceForwarder::connect(addr, &cfg).expect("connect");
        fwd.stream(Benchmark::Gzip.trace(1_000)).expect("stream");
        drop(fwd); // abrupt disconnect, no FIN
    });

    // One thread: accept, handshake, multiplexed ingest.
    let report = server.serve_connections(clients.len() + 1);
    let client_reports: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    flaky.join().unwrap();

    assert_eq!(report.accepted, 5, "all five tenants handshake");
    assert!(report.rejected.is_empty(), "rejected: {:?}", report.rejected);
    assert_eq!(
        report.ingest.errors.len(),
        1,
        "only the flaky lane fails: {:?}",
        report.ingest.errors
    );
    let (failed_lane, lane_err) = &report.ingest.errors[0];
    assert_eq!(failed_lane, "flaky");
    println!("flaky lane failed as expected: {lane_err}\n");
    print!("{}", stats_table(&report.ingest.sessions));

    println!("\nlane        batches   records   deferred   pending-polls");
    for (name, lane) in &report.ingest.lanes {
        println!(
            "{name:<10} {:>8} {:>9} {:>10} {:>15}",
            lane.batches, lane.records, lane.deferred_sends, lane.pending_polls
        );
    }
    println!("\nclient      chunks    frame-bytes   credit-stalls   stall-ms");
    for (name, r) in &client_reports {
        println!(
            "{name:<10} {:>7} {:>13} {:>15} {:>10.1}",
            r.stats.chunks,
            r.stats.frame_bytes,
            r.stats.credit_stalls,
            r.stats.credit_stall_nanos as f64 / 1e6,
        );
        assert_eq!(r.server_records, r.stats.records, "{name}: records lost in flight");
    }

    // The network transport must be semantically invisible: the remote
    // gzip run reproduces the local one exactly.
    let remote = report
        .ingest
        .sessions
        .iter()
        .find(|s| s.name == Benchmark::Gzip.name())
        .expect("gzip session");
    assert_eq!(remote.records, local.records, "record counts diverge");
    assert_eq!(remote.violations, local.violations, "violations diverge");
    assert_eq!(remote.dispatch, local.dispatch, "dispatch stats diverge");
    println!(
        "\nnetwork path == local path for gzip/AddrCheck: {} records, {} violations, \
         dispatch stats identical",
        remote.records,
        remote.violations.len()
    );

    // Scrape the live endpoint (the pool is still running) and check the
    // Prometheus counter against the pool's own stats view — same
    // registry, so they must agree exactly.
    let metrics = http_get(stats_addr, "/metrics");
    let records_line = metrics
        .lines()
        .find(|l| l.starts_with("igm_pool_records_total"))
        .expect("scrape has the pool record counter");
    println!("\nscrape of http://{stats_addr}/metrics while the pool is live:");
    println!("{records_line}");
    let scraped: u64 = records_line.rsplit(' ').next().unwrap().parse().expect("counter value");
    assert_eq!(scraped, pool.stats().records, "scraped counter != pool stats");
    for line in metrics.lines().filter(|l| l.contains("igm_dispatch_batch_nanos_count")) {
        println!("{line}");
    }

    // The registry's lifecycle-event ring: the flaky lane's failure is a
    // first-class, timestamped event with the error string attached.
    let events = pool.events().since(0);
    println!("\nlifecycle events recorded: {} ({} dropped)", events.next_seq, events.dropped);
    for ev in &events.events {
        match &ev.kind {
            EventKind::LaneFailure { lane, error } => {
                println!("  [{:>4}] lane_failure    {lane}: {error}", ev.seq)
            }
            EventKind::Violation { tenant, detail, .. } => {
                println!("  [{:>4}] violation       {tenant}: {detail}", ev.seq)
            }
            EventKind::HandshakeReject { peer, reason } => {
                println!("  [{:>4}] handshake_reject {peer}: {reason}", ev.seq)
            }
            _ => {}
        }
    }
    assert!(
        events
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::LaneFailure { lane, .. } if lane == "flaky")),
        "the flaky lane's failure must be narrated in the event ring"
    );

    // End-to-end frame provenance: each forwarder was a span origin, so
    // sampled frames chained client-side and server-side stages under one
    // flow/seq across the wire. Pull one such chain and print its
    // waterfall.
    let recorder = pool.recorder();
    let spans = recorder.snapshot();
    let sent = spans
        .iter()
        .filter(|r| r.stage == Stage::ClientSend)
        .min_by_key(|r| (r.tag.flow, r.tag.seq))
        .expect("a sampled frame left a client_send stage");
    let chain = recorder.chain(sent.tag);
    let stages: Vec<Stage> = chain.iter().map(|r| r.stage).collect();
    for want in [Stage::ClientSend, Stage::ServerIngest, Stage::ChannelWait, Stage::Dispatch] {
        assert!(stages.contains(&want), "chain {stages:?} is missing {want:?}");
    }
    println!(
        "\nspan waterfall: flow {} frame {} joins client and server stages",
        sent.tag.flow, sent.tag.seq
    );
    let t0 = chain[0].t_start;
    for r in &chain {
        println!(
            "  {:<13} at {:>9.1}us for {:>8.1}us  [{}]",
            r.stage.name(),
            (r.t_start - t0) as f64 / 1e3,
            r.nanos() as f64 / 1e3,
            r.track.label(),
        );
    }

    // /trace renders the same recorder as Chrome trace-event JSON —
    // paste it into chrome://tracing or ui.perfetto.dev as-is.
    let trace = http_get(stats_addr, "/trace");
    assert!(trace.contains("\"traceEvents\""), "Chrome trace JSON envelope");
    assert!(trace.contains("client_send"), "client-side stages exported");
    assert!(trace.contains("server_ingest"), "server-side stages exported");
    println!(
        "\n/trace scrape: {} bytes of Chrome trace JSON with client- and server-side stages",
        trace.len()
    );

    stats_srv.stop();
    pool.shutdown();
}

//! Live observability, end to end over loopback.
//!
//! The acceptance bar for `igm-obs`: while a `MonitorPool` and an
//! `IngestServer` are running, the pool's `StatsServer` must serve
//! Prometheus and JSON snapshots over plain HTTP — and once the run
//! settles, the scraped counters must agree exactly with the final
//! `NetServerReport` and `PoolStatsSnapshot`, because they are views over
//! the same registry.

use igm::lifeguards::LifeguardKind;
use igm::net::{IngestServer, NetServerConfig, TraceForwarder};
use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm::workload::Benchmark;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const N: u64 = 10_000;

/// One HTTP/1.1 GET, returning (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("stats endpoint reachable");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let status = response.lines().next().unwrap_or_default().to_owned();
    let body_at = response.find("\r\n\r\n").expect("header terminator") + 4;
    (status, response[body_at..].to_owned())
}

/// The value of an unlabeled counter in a Prometheus exposition body.
fn scraped_counter(body: &str, name: &str) -> u64 {
    let line = body
        .lines()
        .find(|l| l.split([' ', '{']).next() == Some(name) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("{name} not in the scrape"));
    line.rsplit(' ').next().unwrap().parse().unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn live_scrape_matches_the_final_reports() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let mut stats_srv = pool.serve_stats("127.0.0.1:0", Vec::new()).expect("stats endpoint");
    let stats_addr = stats_srv.local_addr();

    // While the pool is live (before, during and after the ingest run),
    // the endpoint serves all three content types.
    let (status, metrics) = http_get(stats_addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(metrics.contains("igm_pool_records_total"), "counters registered at pool creation");
    let (status, json) = http_get(stats_addr, "/stats.json");
    assert!(status.contains("200"), "{status}");
    assert!(json.contains("\"counters\""), "JSON snapshot shape");

    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let tenants =
        [(Benchmark::Gzip, LifeguardKind::AddrCheck), (Benchmark::Mcf, LifeguardKind::TaintCheck)];
    let clients: Vec<_> = tenants
        .into_iter()
        .map(|(bench, kind)| {
            std::thread::spawn(move || {
                let cfg = SessionConfig::new(bench.name(), kind)
                    .synthetic()
                    .premark(&bench.profile().premark_regions());
                let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
                fwd.stream(bench.trace(N)).unwrap();
                fwd.finish().unwrap()
            })
        })
        .collect();

    // Scrape concurrently with the serving loop: the endpoint must answer
    // while accept/handshake/ingest and the workers are all running.
    let live = std::thread::spawn(move || http_get(stats_addr, "/metrics"));
    let report = server.serve_connections(clients.len());
    let (live_status, live_body) = live.join().unwrap();
    assert!(live_status.contains("200"), "mid-run scrape must succeed: {live_status}");
    assert!(live_body.contains("igm_dispatch_batch_nanos_bucket"), "histograms exported live");
    for c in clients {
        c.join().unwrap();
    }

    // Settled: scraped counters == the run's own reports, exactly.
    assert_eq!(report.accepted, 2);
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    let stats = pool.stats();
    let (_, body) = http_get(stats_addr, "/metrics");
    assert_eq!(scraped_counter(&body, "igm_pool_records_total"), stats.records);
    assert_eq!(scraped_counter(&body, "igm_pool_records_total"), report.ingest.records());
    assert_eq!(scraped_counter(&body, "igm_pool_violations_total"), stats.violations);
    assert_eq!(scraped_counter(&body, "igm_pool_sessions_opened_total"), stats.sessions_opened);
    assert_eq!(scraped_counter(&body, "igm_pool_sessions_closed_total"), stats.sessions_closed);
    assert_eq!(scraped_counter(&body, "igm_net_accepted_total"), report.accepted as u64);
    assert_eq!(scraped_counter(&body, "igm_net_rejected_total"), report.rejected.len() as u64);
    assert_eq!(
        scraped_counter(&body, "igm_ingest_lanes_opened_total"),
        report.ingest.lanes.len() as u64
    );
    assert_eq!(scraped_counter(&body, "igm_ingest_lane_failures_total"), 0);

    // The JSON endpoints agree with the text one.
    let (_, json) = http_get(stats_addr, "/stats.json");
    assert!(
        json.contains(&format!(
            "{{\"name\": \"igm_pool_records_total\", \"labels\": {{}}, \"value\": {}}}",
            stats.records
        )),
        "JSON snapshot carries the same counter value"
    );
    let (_, events) = http_get(stats_addr, "/events.json");
    assert!(events.contains("\"kind\": \"session_open\""), "lifecycle events drain over HTTP");
    assert!(events.contains("\"kind\": \"session_close\""));

    // 404 for unknown paths; the endpoint survives to answer again.
    let (status, _) = http_get(stats_addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_get(stats_addr, "/metrics");
    assert!(status.contains("200"), "{status}");

    stats_srv.stop();
    pool.shutdown();
}

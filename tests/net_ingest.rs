//! Cross-host ingest over loopback, end to end: a workload streamed
//! through `TraceForwarder` → `IngestServer` → `MonitorPool` reports what
//! the sequential `Monitor` reports for all five lifeguards (the `wire`
//! strategy of `tests/equivalence.rs`), span chains join the client- and
//! server-side stages of one frame, and one server thread multiplexes
//! many clients.

mod common;

use common::strategies::{assert_matches_monitor, wire};
use common::{session_cfg, workload_for};
use igm::lifeguards::LifeguardKind;
use igm::net::{IngestServer, NetServerConfig, TraceForwarder};
use igm::runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm::workload::Benchmark;

#[test]
fn loopback_ingest_equals_the_local_run_for_all_five_lifeguards() {
    for kind in LifeguardKind::ALL {
        let (cfg, trace) = (session_cfg(kind, kind.name()), workload_for(kind, 15_000));
        let remote = wire(&cfg, &trace);
        assert_matches_monitor(&cfg, &trace, &remote, true);
        if kind != LifeguardKind::LockSet {
            assert!(!remote.violations.is_empty(), "{kind}: the buggy epilogues must fire");
        }
    }
}

#[test]
fn loopback_spans_join_client_and_server_stages_into_one_chain() {
    use igm::span::Stage;

    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let recorder = pool.recorder().clone();
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let rec = recorder.clone();
    let client = std::thread::spawn(move || {
        let cfg = session_cfg(LifeguardKind::AddrCheck, "spanful");
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.attach_spans(&rec);
        fwd.stream(Benchmark::Gzip.trace(20_000)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(1);
    let fwd_report = client.join().unwrap();
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    assert_eq!(fwd_report.server_records, 20_000);

    // The forwarder's first chunk is always sampled; its chain must hold
    // both halves of the journey, causally ordered: the client-side send
    // and the server-side decode → channel wait → dispatch.
    let spans = recorder.snapshot();
    let sent = spans
        .iter()
        .find(|r| r.stage == Stage::ClientSend)
        .expect("a sampled frame left a client_send stage");
    let chain = recorder.chain(sent.tag);
    let stages: Vec<Stage> = chain.iter().map(|r| r.stage).collect();
    for want in [Stage::ClientSend, Stage::ServerIngest, Stage::ChannelWait, Stage::Dispatch] {
        assert!(stages.contains(&want), "chain {stages:?} is missing {want:?}");
    }
    let at = |s: Stage| stages.iter().position(|&x| x == s).unwrap();
    assert!(at(Stage::ClientSend) < at(Stage::ServerIngest), "client half precedes server half");
    assert!(at(Stage::ServerIngest) < at(Stage::ChannelWait));
    assert!(at(Stage::ChannelWait) < at(Stage::Dispatch));
    pool.shutdown();
}

#[test]
fn many_loopback_clients_multiplex_through_one_server_thread() {
    const N: u64 = 5_000;
    const TENANTS: [Benchmark; 6] = [
        Benchmark::Bzip2,
        Benchmark::Crafty,
        Benchmark::Gap,
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
    ];
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let clients: Vec<_> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, bench)| {
            let bench = *bench;
            std::thread::spawn(move || {
                let kind =
                    if i % 2 == 0 { LifeguardKind::AddrCheck } else { LifeguardKind::TaintCheck };
                let cfg = SessionConfig::new(bench.name(), kind)
                    .synthetic()
                    .premark(&bench.profile().premark_regions());
                let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
                fwd.stream(bench.trace(N)).unwrap();
                fwd.finish().unwrap()
            })
        })
        .collect();
    let report = server.serve_connections(TENANTS.len());
    let fwd_reports: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    assert_eq!(report.accepted, TENANTS.len());
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    assert_eq!(report.ingest.records(), TENANTS.len() as u64 * N);
    for session in &report.ingest.sessions {
        assert_eq!(session.records, N, "tenant {} lost records", session.name);
        assert!(session.violations.is_empty(), "clean workloads only");
    }
    for (name, lane) in &report.ingest.lanes {
        assert!(lane.turns > 0, "lane {name} was never scheduled");
        assert_eq!(lane.records, N, "lane {name} accounting diverges");
    }
    for r in &fwd_reports {
        assert_eq!(r.server_records, N);
    }
    pool.shutdown();
}

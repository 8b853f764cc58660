//! The wire protocol's unhappy paths, exercised over real loopback
//! sockets: version mismatch, a peer that never sends its `HELLO`,
//! mid-frame disconnect, a corrupt frame contained to its own lane, a full
//! log channel throttling a remote producer and resuming it, a peer that
//! stops reading stalling the forwarder's writes, and the tee-at-ingest
//! artifact for remote lanes.

use igm_isa::{OpClass, Reg, TraceEntry};
use igm_lba::TraceBatch;
use igm_lifeguards::LifeguardKind;
use igm_net::wire::{self, msg};
use igm_net::{IngestServer, NetError, NetServerConfig, TraceForwarder};
use igm_obs::EventKind;
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm_trace::{encode_frame, TraceError, CODEC_ID, MAX_FRAME_RECORDS};
use igm_workload::Benchmark;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn session_cfg(name: &str, kind: LifeguardKind) -> SessionConfig {
    SessionConfig::new(name, kind).synthetic().premark(&Benchmark::Gzip.profile().premark_regions())
}

/// A raw client that speaks just enough protocol to misbehave.
struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        RawClient { stream: TcpStream::connect(addr).unwrap() }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    fn send_message(&mut self, ty: u8, payload: &[u8]) {
        let mut out = Vec::new();
        out.push(ty);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        self.send(&out);
    }

    /// Ends the client's side of the conversation: the server reads
    /// everything sent and then the end of the stream, and whatever it
    /// sends back (a handshake reply, an `ERROR`) is read
    /// out until it closes. Closing with those bytes unread would reset
    /// the connection instead, and a reset can overtake the data in
    /// flight: the server would fail the lane on the reset, not on what
    /// the client sent.
    fn hang_up(mut self) {
        self.stream.shutdown(Shutdown::Write).unwrap();
        self.stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = io::copy(&mut self.stream, &mut io::sink());
    }
}

/// Reads a socket out until the peer closes it (see [`RawClient::hang_up`]).
fn drain_until_closed(mut stream: TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = io::copy(&mut stream, &mut io::sink());
}

/// Sends one raw `HELLO` per `(version, codec)` pair, each on its own
/// socket, and returns the server's report once every one has been
/// handled.
fn serve_raw_hellos(hellos: &'static [(u32, u32)]) -> igm_net::NetServerReport {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let client = std::thread::spawn(move || {
        let cfg = session_cfg("refused", LifeguardKind::AddrCheck);
        let raws: Vec<_> = hellos
            .iter()
            .map(|&(version, codec)| {
                let mut raw = RawClient::connect(addr);
                raw.send(&wire::hello_message(version, codec, &cfg));
                raw
            })
            .collect();
        raws.into_iter().for_each(RawClient::hang_up);
    });
    let report = server.serve_connections(hellos.len());
    client.join().unwrap();
    assert_eq!(report.accepted, 0);
    assert_eq!(report.rejected.len(), hellos.len());
    assert!(report.ingest.sessions.is_empty(), "no session may open for a rejected client");
    pool.shutdown();
    report
}

#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    // A future version, the retired v2 (no span prefix on chunks), v3
    // (an IT policy in the HELLO), v4 (M-TLB and filter sizes in it) and
    // v5 (credit grants).
    let report = serve_raw_hellos(&[
        (99, CODEC_ID),
        (2, CODEC_ID),
        (3, CODEC_ID),
        (4, CODEC_ID),
        (5, CODEC_ID),
    ]);
    let mut theirs: Vec<u32> = report
        .rejected
        .iter()
        .map(|(_, e)| match e {
            NetError::VersionMismatch { theirs } => *theirs,
            other => panic!("expected a version mismatch, got {other:?}"),
        })
        .collect();
    theirs.sort_unstable();
    assert_eq!(theirs, [2, 3, 4, 5, 99]);
}

#[test]
fn unknown_trace_codec_is_rejected_with_a_typed_error() {
    // Right protocol version, but a trace codec this side does not speak —
    // one it has never heard of, the retired delta codec 1 and codec 2
    // (FNV-1a-32 frame checksums): the HELLO must be refused before any
    // lane exists, and a codec-2 peer never gets to send a frame whose
    // checksum this side would call a mismatch.
    let report =
        serve_raw_hellos(&[(wire::NET_VERSION, 7), (wire::NET_VERSION, 1), (wire::NET_VERSION, 2)]);
    let mut theirs: Vec<u32> = report
        .rejected
        .iter()
        .map(|(_, e)| match e {
            NetError::UnsupportedCodec { theirs } => *theirs,
            other => panic!("expected an unsupported-codec refusal, got {other:?}"),
        })
        .collect();
    theirs.sort_unstable();
    assert_eq!(theirs, [1, 2, 7]);
}

#[test]
fn non_hello_first_message_is_rejected_without_blocking_others() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let client = std::thread::spawn(move || {
        // A connection whose first message is not a HELLO is refused…
        let mut raw = RawClient::connect(addr);
        raw.send_message(msg::CHUNK, b"not a handshake");
        // …while a healthy client on a second socket is unaffected.
        let cfg = session_cfg("ok", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).expect("healthy client must connect");
        fwd.stream(Benchmark::Gzip.trace(1_000)).unwrap();
        fwd.finish().unwrap().server_records
    });
    let report = server.serve_connections(2);
    let forwarded = client.join().unwrap();

    assert_eq!(report.accepted, 1);
    assert_eq!(report.rejected.len(), 1);
    assert!(matches!(report.rejected[0].1, NetError::Malformed(_)));
    assert_eq!(forwarded, 1_000);
    pool.shutdown();
}

/// The server's `HELLO` deadline (5 s): a peer that connects and never
/// speaks is rejected once it passes, counted like every other pre-lane
/// refusal, while a well-behaved client on the same server finishes
/// exactly. Ignored by default because it waits the deadline out;
/// `ci/release-tests.sh` runs it.
#[test]
#[ignore = "waits out the 5 s handshake deadline"]
fn silent_peer_is_rejected_at_the_hello_deadline() {
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    // The silent peer holds its socket open until the server has reported,
    // so the refusal is the deadline's and not a disconnect's.
    let (served_tx, served_rx) = mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let raw = RawClient::connect(addr);
        let _ = served_rx.recv();
        drop(raw);
    });
    let good = std::thread::spawn(move || {
        let cfg = session_cfg("ok", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).expect("healthy client must connect");
        fwd.stream(Benchmark::Gzip.trace(1_000)).unwrap();
        fwd.finish().unwrap().server_records
    });
    let started = Instant::now();
    let report = server.serve_connections(2);
    let waited = started.elapsed();
    served_tx.send(()).unwrap();
    silent.join().unwrap();
    let forwarded = good.join().unwrap();

    assert!(waited >= Duration::from_secs(5), "rejected before the deadline: {waited:?}");
    assert_eq!(report.accepted, 1);
    assert_eq!(report.rejected.len(), 1);
    match &report.rejected[0].1 {
        NetError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
        other => panic!("expected a handshake timeout, got {other:?}"),
    }
    assert_eq!(forwarded, 1_000);
    let ok = report.ingest.sessions.iter().find(|s| s.name == "ok").expect("healthy session");
    assert_eq!(ok.records, 1_000);
    let snap = pool.metrics().snapshot();
    assert_eq!(snap.counter_value("igm_net_rejected_total"), Some(1));
    assert_eq!(snap.counter_value("igm_net_accepted_total"), Some(1));
    let events = pool.events().since(0).events;
    assert!(
        events.iter().any(|e| matches!(&e.kind,
            EventKind::HandshakeReject { reason, .. } if reason.contains("timed out"))),
        "the refusal is narrated in the event ring"
    );
    pool.shutdown();
}

#[test]
fn connect_surfaces_a_server_side_rejection() {
    // A minimal raw "server" that refuses every handshake with an ERROR
    // message — connect() must surface it as NetError::Rejected.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let reason = "tenant quota exceeded";
        let mut out = vec![msg::ERROR];
        out.extend_from_slice(&((2 + reason.len()) as u32).to_le_bytes());
        out.extend_from_slice(&(reason.len() as u16).to_le_bytes());
        out.extend_from_slice(reason.as_bytes());
        stream.write_all(&out).unwrap();
        // The client's HELLO sits unread here: read it and wait for the
        // client to close, rather than reset the connection under the
        // ERROR on its way.
        drain_until_closed(stream);
    });
    let cfg = session_cfg("refused", LifeguardKind::AddrCheck);
    match TraceForwarder::connect(addr, &cfg) {
        Err(NetError::Rejected(reason)) => assert_eq!(reason, "tenant quota exceeded"),
        other => panic!("expected Rejected, got {:?}", other.map(|_| "a connection")),
    }
    fake.join().unwrap();
}

#[test]
fn mid_frame_disconnect_fails_only_that_lane() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    let bad = std::thread::spawn(move || {
        let mut raw = RawClient::connect(addr);
        raw.send(&wire::hello_message(
            wire::NET_VERSION,
            CODEC_ID,
            &session_cfg("truncated", LifeguardKind::AddrCheck),
        ));
        // A chunk message header promising 1000 payload bytes, then only
        // 10 of them, then a hard disconnect mid-frame.
        let mut partial = Vec::new();
        partial.push(msg::CHUNK);
        partial.extend_from_slice(&1000u32.to_le_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        raw.send(&partial);
        // Closes the stream with the message incomplete.
        raw.hang_up();
    });
    let good = std::thread::spawn(move || {
        let cfg = session_cfg("healthy", LifeguardKind::TaintCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.stream(Benchmark::Mcf.trace(5_000)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(2);
    bad.join().unwrap();
    let good_report = good.join().unwrap();

    assert_eq!(report.accepted, 2);
    assert_eq!(report.ingest.errors.len(), 1, "exactly the truncated lane fails");
    assert_eq!(report.ingest.errors[0].0, "truncated");
    assert!(
        matches!(
            report.ingest.errors[0].1,
            TraceError::Corrupt { reason: "connection closed inside a message", .. }
        ),
        "got {:?}",
        report.ingest.errors[0].1
    );
    let healthy =
        report.ingest.sessions.iter().find(|s| s.name == "healthy").expect("healthy session");
    assert_eq!(healthy.records, 5_000);
    assert_eq!(good_report.server_records, 5_000);
    pool.shutdown();
}

#[test]
fn corrupt_frame_fails_only_its_lane() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    // Two structurally complete chunks (unsampled span prefix) carrying
    // damaged frames: one whose payload byte is flipped so the checksum
    // fails, and one whose header names the retired delta codec 1.
    let bad: Vec<_> = ["corrupt", "codec-1"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                let mut raw = RawClient::connect(addr);
                raw.send(&wire::hello_message(
                    wire::NET_VERSION,
                    CODEC_ID,
                    &session_cfg(name, LifeguardKind::AddrCheck),
                ));
                let mut payload = vec![0u8; wire::SPAN_PREFIX_BYTES];
                let batch: igm_lba::TraceBatch = Benchmark::Gzip.trace(100).collect();
                let mut frame = Vec::new();
                encode_frame(&mut frame, &batch);
                if name == "codec-1" {
                    frame[12..16].copy_from_slice(&1u32.to_le_bytes());
                } else {
                    *frame.last_mut().unwrap() ^= 0xff;
                }
                payload.extend_from_slice(&frame);
                raw.send_message(msg::CHUNK, &payload);
                raw.hang_up();
            })
        })
        .collect();
    let good = std::thread::spawn(move || {
        let cfg = session_cfg("healthy", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.stream(Benchmark::Gzip.trace(4_000)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(3);
    for b in bad {
        b.join().unwrap();
    }
    good.join().unwrap();

    assert_eq!(report.ingest.errors.len(), 2);
    for (name, expected) in
        [("corrupt", "frame checksum mismatch"), ("codec-1", "unknown codec id in frame header")]
    {
        let (_, e) = report.ingest.errors.iter().find(|(n, _)| n == name).expect(name);
        assert!(
            matches!(e, TraceError::Corrupt { reason, .. } if *reason == expected),
            "{name}: got {e:?}"
        );
    }
    let healthy =
        report.ingest.sessions.iter().find(|s| s.name == "healthy").expect("healthy session");
    assert_eq!(healthy.records, 4_000);
    pool.shutdown();
}

#[test]
fn credit_starvation_throttles_and_resumes() {
    // A tiny channel (512 model bytes) against 30k records: the lane keeps
    // finding it full and stops reading its socket, and everything still
    // arrives once the pool drains.
    let pool =
        MonitorPool::new(PoolConfig { channel_capacity_bytes: 512, ..PoolConfig::with_workers(1) });
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    const N: u64 = 30_000;
    let client = std::thread::spawn(move || {
        let cfg = session_cfg("starved", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        fwd.stream(Benchmark::Gzip.trace(N)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(1);
    let fwd_report = client.join().unwrap();

    assert_eq!(fwd_report.server_records, N, "every record must arrive despite starvation");
    let session = &report.ingest.sessions[0];
    assert_eq!(session.records, N);
    assert!(report.ingest.errors.is_empty());
    pool.shutdown();
}

/// Reads one whole message off a blocking socket: its type and payload.
fn read_message(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut head = [0u8; 5];
    stream.read_exact(&mut head).unwrap();
    let len = u32::from_le_bytes(head[1..].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    (head[0], payload)
}

#[test]
fn a_peer_that_stops_reading_stalls_the_forwarder() {
    // A raw peer welcomes the client and then reads nothing until the
    // forwarder's chunk count has stood still for a while: the socket
    // buffers filled, TCP shut the window, and the forwarder's write is
    // waiting. The forwarder streams until one chunk stalled (or a cap far
    // past any socket buffer), and every record still arrives.
    const STILL: Duration = Duration::from_millis(200);
    const BYTE_CAP: u64 = 64 << 20;
    let sent = Arc::new(AtomicU64::new(0));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert_eq!(read_message(&mut stream).0, msg::HELLO);
            stream.write_all(&[msg::WELCOME, 0, 0, 0, 0]).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let (mut last, mut since) = (u64::MAX, Instant::now());
            while since.elapsed() < STILL && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
                let now = sent.load(Ordering::Relaxed);
                if now != last {
                    (last, since) = (now, Instant::now());
                }
            }
            let mut records = 0u64;
            loop {
                match read_message(&mut stream) {
                    (msg::CHUNK, payload) => {
                        // A frame header opens with its record count.
                        let frame = &payload[wire::SPAN_PREFIX_BYTES..];
                        records += u64::from(u32::from_le_bytes(frame[..4].try_into().unwrap()));
                    }
                    (msg::FIN, payload) => {
                        assert_eq!(payload, records.to_le_bytes(), "FIN carries the record count");
                        let mut ack = vec![msg::FIN_ACK, 8, 0, 0, 0];
                        ack.extend_from_slice(&records.to_le_bytes());
                        stream.write_all(&ack).unwrap();
                        break;
                    }
                    (ty, _) => panic!("unexpected message type {ty}"),
                }
            }
            drain_until_closed(stream);
            records
        })
    };

    let cfg = session_cfg("stalled", LifeguardKind::AddrCheck);
    let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
    let batch: TraceBatch = Benchmark::Gzip.trace(16 * 1024).collect();
    while fwd.stats().credit_stalls == 0 && fwd.stats().frame_bytes < BYTE_CAP {
        fwd.send_batch(&batch).unwrap();
        sent.store(fwd.stats().chunks, Ordering::Relaxed);
    }
    let report = fwd.finish().unwrap();
    let received = peer.join().unwrap();

    assert!(report.stats.credit_stalls > 0, "a peer that stops reading must stall the producer");
    assert!(report.stats.credit_stall_nanos > 0);
    assert_eq!(report.server_records, report.stats.records);
    assert_eq!(received, report.stats.records, "every record must arrive");
}

#[test]
fn an_oversized_batch_is_refused_before_it_leaves_the_client() {
    // A batch one record past the frame bound would be refused by the
    // server's decoder; the forwarder refuses it before encoding, sends
    // nothing, and the lane carries on.
    let pool = MonitorPool::new(PoolConfig::with_workers(1));
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();

    const N: u64 = 2_000;
    let client = std::thread::spawn(move || {
        let cfg = session_cfg("oversized", LifeguardKind::AddrCheck);
        let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
        let rec = TraceEntry::op(0x1000, OpClass::ImmToReg { rd: Reg::Eax });
        let mut batch = TraceBatch::with_capacity(MAX_FRAME_RECORDS as usize + 1);
        for _ in 0..=MAX_FRAME_RECORDS {
            batch.push(&rec);
        }
        match fwd.send_batch(&batch) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected an InvalidInput refusal, got {other:?}"),
        }
        assert_eq!(fwd.stats().chunks, 0, "nothing was sent");
        fwd.stream(Benchmark::Gzip.trace(N)).unwrap();
        fwd.finish().unwrap()
    });
    let report = server.serve_connections(1);
    let fwd_report = client.join().unwrap();
    assert_eq!(fwd_report.server_records, N);
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    pool.shutdown();
}

#[test]
fn teed_remote_lane_leaves_a_replayable_artifact() {
    let dir = std::env::temp_dir().join(format!("igm_net_tee_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let cfg = NetServerConfig { tee_dir: Some(dir.clone()) };
    let server = IngestServer::bind("127.0.0.1:0", &pool, cfg).unwrap();
    let addr = server.local_addr().unwrap();

    // Two tenants with the SAME name: their artifacts must not collide
    // (one would silently corrupt the other's frames).
    const N: u64 = 6_000;
    let clients: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let cfg = session_cfg("teed", LifeguardKind::AddrCheck);
                let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
                fwd.stream(Benchmark::Gzip.trace(N)).unwrap();
                fwd.finish().unwrap()
            })
        })
        .collect();
    let report = server.serve_connections(2);
    for c in clients {
        c.join().unwrap();
    }
    assert!(report.ingest.errors.is_empty(), "{:?}", report.ingest.errors);
    let live = report.ingest.sessions.iter().find(|s| s.name == "teed").unwrap();
    assert_eq!(live.records, N);

    // Each artifact (disambiguated names) replays to the identical
    // result — both tenants streamed the same workload, so both files
    // must hold the same complete record stream.
    for filename in ["teed.igmt", "teed-2.igmt"] {
        let path = dir.join(filename);
        let replayed = igm_trace::replay_file(
            &pool,
            session_cfg("teed-replay", LifeguardKind::AddrCheck),
            &path,
        )
        .unwrap();
        assert_eq!(replayed.records, live.records, "{filename}");
        assert_eq!(replayed.violations, live.violations, "{filename}");
        assert_eq!(replayed.dispatch, live.dispatch, "{filename}");
    }
    pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

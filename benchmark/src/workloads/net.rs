//! `net_loopback`: two `TraceForwarder` connections driven round-robin by
//! the one generator thread → `IngestServer` (one thread) → pool.
//!
//! AddrCheck with accelerators off is the cheapest handler there is, so the
//! `trace` codec (encode on the client, decode on the server) and the `net`
//! wire and credit flow dominate: this is where the loopback tax shows.
//!
//! Remote tenants are independent sources, so the measured windows are an
//! **open loop**: each connection ships its chunks on a fixed schedule, at a
//! rate the path sustains with room to spare, and the unit operation is
//! timed from a chunk's due time to `send_batch` returning. The path's
//! closed-loop capacity — three busy threads polling with sleeps on two
//! cores, which swings by ±30 % with the host's mood — is measured in the
//! traced run (`net.closed_loop_records_per_s`, `net.tax_ratio`).

use super::pool::unpipelined_pool;
use crate::harness::{wait_until, Clock, Ctx, Tracer, Window, Workload};
use crate::host::Host;
use crate::inputs::{scaled, BatchSource, Program, Tenant, Trace};
use crate::reference::{self, check_session, Gate, Reference};
use crate::spans::SpanBuf;
use crate::stats;
use igm::lba::TraceBatch;
use igm::lifeguards::LifeguardKind;
use igm::net::{
    ForwarderConfig, ForwarderReport, IngestServer, NetError, NetServerConfig, NetServerReport,
    TraceForwarder,
};
use igm::trace::{Ingestor, TraceReader, TraceWriter};
use igm::workload::Benchmark;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Records per connection at `--scale 1`: one second at `RATE`.
const RECORDS: u64 = 3_000_000;
/// Scheduled records per second per connection.
const RATE: f64 = 3_000_000.0;
/// A send this much past its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// Generator-side observations, accumulated over every window.
#[derive(Debug, Default)]
struct NetObs {
    handshake_us: Vec<f64>,
    fin_ms: Vec<f64>,
    send_us: Vec<f64>,
    sends: u64,
    late: u64,
    wall: f64,
    credit_stall_ns: u64,
    credit_stalls: u64,
    deferred_sends: u64,
    frame_bytes: u64,
    records: u64,
}

#[derive(Debug)]
pub struct NetLoopback {
    tenants: Vec<Tenant>,
    refs: Vec<Reference>,
    obs: NetObs,
}

/// What the generator thread brings back from one window.
#[derive(Default)]
struct Generated {
    reports: Vec<Result<ForwarderReport, NetError>>,
    /// µs inside each `send_batch` call.
    send_us: Vec<f64>,
    /// µs from each chunk's due time to `send_batch` returning (paced runs).
    shipped_us: Vec<f64>,
    late: u64,
    handshake_us: Vec<f64>,
    fin_ms: f64,
}

/// The generator: connects one forwarder per tenant, sends their batches
/// round-robin — each at its due time when `rate` (records per second per
/// connection) is given, back to back otherwise — then finishes each.
fn generate(
    addr: SocketAddr,
    tenants: &[Tenant],
    rate: Option<f64>,
    spans: &mut SpanBuf,
) -> Generated {
    let mut out = Generated::default();
    let mut forwarders: Vec<Result<TraceForwarder, NetError>> = Vec::new();
    for t in tenants {
        let started = Instant::now();
        forwarders.push(spans.span("net.connect", || {
            TraceForwarder::connect_with(addr, &t.session_config(), ForwarderConfig::default())
        }));
        out.handshake_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    let most = tenants.iter().map(|t| t.trace.batches.len()).max().unwrap_or(0);
    let start = Instant::now();
    let mut through = vec![0u64; tenants.len()];
    let first: Vec<u64> =
        tenants.iter().map(|t| t.trace.batches.first().map_or(0, |b| b.len() as u64)).collect();
    for i in 0..most {
        for (c, (t, fwd)) in tenants.iter().zip(forwarders.iter_mut()).enumerate() {
            let (Some(batch), Ok(f)) = (t.trace.batches.get(i), fwd.as_mut()) else { continue };
            // A chunk is due once its last record would have been produced;
            // the connections' clocks are staggered across one chunk period
            // so one's encode does not queue behind the other's.
            through[c] += batch.len() as u64;
            let stagger = c as f64 / tenants.len() as f64 * first[c] as f64;
            let due =
                rate.map(|r| start + Duration::from_secs_f64((through[c] as f64 + stagger) / r));
            if let Some(due) = due {
                wait_until(due);
            }
            let started = Instant::now();
            let sent = spans.span("net.send_batch", || f.send_batch(batch));
            let done = Instant::now();
            out.send_us.push((done - started).as_nanos() as f64 / 1e3);
            if let Some(due) = due {
                out.late += u64::from(started.saturating_duration_since(due) > LATE);
                out.shipped_us.push(done.saturating_duration_since(due).as_nanos() as f64 / 1e3);
            }
            if let Err(e) = sent {
                *fwd = Err(e);
            }
        }
    }
    let started = Instant::now();
    out.reports = spans.span("net.finish", || {
        forwarders.into_iter().map(|f| f.and_then(TraceForwarder::finish)).collect()
    });
    out.fin_ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

impl NetLoopback {
    /// One loopback run, paced at `rate` or closed-loop; the calling thread
    /// serves, a scoped thread generates.
    fn run(
        &mut self,
        ctx: &Ctx,
        rate: Option<f64>,
        spans: &mut SpanBuf,
        gate: &mut Gate,
    ) -> Window {
        let pool = unpipelined_pool(&ctx.host);
        let server = match IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default())
            .and_then(|s| s.local_addr().map(|a| (s, a)))
        {
            Ok(bound) => bound,
            Err(e) => {
                gate.check(false, || format!("binding the loopback server: {e}"));
                pool.shutdown();
                return Window::default();
            }
        };
        let (server, addr) = server;
        let tenants = &self.tenants;
        let mut clock = Clock::default();
        // The server's one span is recorded on this thread, the generator's
        // on its own; both against the same origin.
        let mut server_spans = SpanBuf::with_capacity(spans.origin(), 1, 1);
        let (generated, served): (Generated, NetServerReport) = clock.time(|| {
            std::thread::scope(|scope| {
                let generator = scope.spawn(|| generate(addr, tenants, rate, spans));
                let served = server_spans
                    .span("net.serve_connections", || server.serve_connections(tenants.len()));
                (generator.join().expect("the generator thread completes"), served)
            })
        });
        pool.shutdown();
        spans.absorb(server_spans);

        // Connections: client FIN = server = pool, per tenant.
        gate.check(served.rejected.is_empty() && served.ingest.errors.is_empty(), || {
            format!("server rejected {:?}, lane errors {:?}", served.rejected, served.ingest.errors)
        });
        for ((t, want), report) in self.tenants.iter().zip(&self.refs).zip(&generated.reports) {
            match report {
                Ok(r) => {
                    gate.check(
                        r.stats.records == want.records && r.server_records == want.records,
                        || {
                            format!(
                                "{}: client sent {} records, server acknowledged {}, reference has {}",
                                t.name, r.stats.records, r.server_records, want.records
                            )
                        },
                    );
                    self.obs.credit_stall_ns += r.stats.credit_stall_nanos;
                    self.obs.credit_stalls += r.stats.credit_stalls;
                    self.obs.frame_bytes += r.stats.frame_bytes;
                    self.obs.records += r.stats.records;
                }
                Err(e) => gate.check(false, || format!("{}: connection failed: {e}", t.name)),
            }
            match served.ingest.sessions.iter().find(|s| s.name == t.name) {
                Some(session) => check_session(gate, "net_loopback", session, want),
                None => gate.check(false, || format!("{}: no server session", t.name)),
            }
        }
        self.obs.deferred_sends +=
            served.ingest.lanes.iter().map(|(_, l)| l.deferred_sends).sum::<u64>();
        self.obs.handshake_us.extend_from_slice(&generated.handshake_us);
        self.obs.fin_ms.push(generated.fin_ms);
        self.obs.send_us.extend_from_slice(&generated.send_us);
        self.obs.sends += generated.shipped_us.len() as u64;
        self.obs.late += generated.late;
        self.obs.wall += clock.wall;
        Window { records: served.ingest.records(), clock, ops_us: generated.shipped_us }
    }
}

impl Workload for NetLoopback {
    fn setup(ctx: &Ctx) -> Self {
        let n = scaled(RECORDS, ctx.scale);
        let tenants: Vec<Tenant> = [Benchmark::Gcc, Benchmark::Mcf]
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let trace = Trace::generate(Program::Spec(b), n, ctx.seed, i as u64);
                Tenant::new(&trace, LifeguardKind::AddrCheck, false)
            })
            .collect();
        let refs = tenants.iter().map(reference::for_tenant).collect();
        NetLoopback { tenants, refs, obs: NetObs::default() }
    }

    fn threads(&self, host: &Host) -> String {
        format!(
            "1 generator (open loop, {RATE} records/s per connection, 2 connections) + 1 server + {} pool workers",
            host.workers
        )
    }

    fn window(&mut self, ctx: &Ctx, gate: &mut Gate) -> Window {
        self.run(ctx, Some(RATE), &mut SpanBuf::off(), gate)
    }

    fn traced_window(&mut self, ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window {
        self.run(ctx, Some(RATE), &mut t.spans, gate)
    }

    fn layers(
        &mut self,
        ctx: &Ctx,
        _seconds: f64,
        _untraced: &[Window],
        t: &mut Tracer,
        gate: &mut Gate,
    ) {
        let records: u64 = self.tenants.iter().map(Tenant::records).sum();
        let gen: f64 = self.tenants.iter().map(|t| t.trace.gen_secs).sum();
        let o = &self.obs;
        let m = &mut t.metrics;
        m.set("workload.gen_records_per_s", records as f64 / gen);
        m.set("net.handshake_us", stats::median(&o.handshake_us));
        m.set("net.fin_ms", stats::median(&o.fin_ms));
        m.set("net.send_p50_us", stats::median(&o.send_us));
        m.set("net.client_send_share", o.send_us.iter().sum::<f64>() / 1e6 / o.wall);
        m.set("net.credit_stall_share", o.credit_stall_ns as f64 / 1e9 / o.wall);
        m.set("net.credit_stalls", o.credit_stalls as f64);
        m.set("net.deferred_sends", o.deferred_sends as f64);
        m.set("bytes_per_record", o.frame_bytes as f64 / o.records.max(1) as f64);
        m.set("harness.late_share", o.late as f64 / o.sends.max(1) as f64);
        t.wait("net", o.credit_stall_ns);

        // Capacity: the same connections with the generator sending back to
        // back, and the wire's cost over a local Ingestor on the same tenants.
        let closed: Vec<f64> =
            (0..3).map(|_| self.run(ctx, None, &mut SpanBuf::off(), gate).rate()).collect();
        let net_rate = stats::median(&closed);
        t.metrics.set("net.closed_loop_records_per_s", net_rate);

        let local_rates: Vec<f64> = (0..3)
            .map(|_| {
                let pool = unpipelined_pool(&ctx.host);
                let mut ingestor = Ingestor::new(&pool);
                for tenant in &self.tenants {
                    ingestor.add_source(tenant.session_config(), BatchSource::new(&tenant.trace));
                }
                let started = Instant::now();
                let report = ingestor.run();
                let secs = started.elapsed().as_secs_f64();
                pool.shutdown();
                for (session, want) in report.sessions.iter().zip(&self.refs) {
                    check_session(gate, "net_loopback local baseline", session, want);
                }
                report.records() as f64 / secs
            })
            .collect();
        if net_rate > 0.0 {
            t.metrics.set("net.tax_ratio", stats::median(&local_rates) / net_rate);
        }

        // The codec alone, over the first tenant's batches, in memory.
        let trace = &self.tenants[0].trace;
        let (mut encode_rates, mut decode_rates) = (Vec::new(), Vec::new());
        let mut bytes_per_record = 0.0;
        for _ in 0..5 {
            let span = t.spans.enter("trace.encode");
            let started = Instant::now();
            let mut writer = TraceWriter::new(Vec::with_capacity(trace.records as usize * 2))
                .expect("writing to memory cannot fail");
            for batch in &trace.batches {
                writer.write_chunk_batch(batch).expect("writing to memory cannot fail");
            }
            let bytes = writer.finish().expect("writing to memory cannot fail");
            encode_rates.push(trace.records as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
            bytes_per_record = bytes.len() as f64 / trace.records as f64;

            let span = t.spans.enter("trace.decode");
            let started = Instant::now();
            let mut decoded = 0u64;
            let mut batch = TraceBatch::new();
            match TraceReader::new(&bytes[..]) {
                Ok(mut reader) => {
                    while let Ok(true) = reader.read_chunk_into_batch(&mut batch) {
                        decoded += batch.len() as u64;
                    }
                }
                Err(e) => gate.check(false, || format!("decoding the encoded trace: {e}")),
            }
            decode_rates.push(decoded as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
            gate.check(decoded == trace.records, || {
                format!("codec round trip returned {decoded} of {} records", trace.records)
            });
        }
        t.metrics.set("trace.encode_records_per_s", stats::median(&encode_rates));
        t.metrics.set("trace.decode_records_per_s", stats::median(&decode_rates));
        t.metrics.set("trace.bytes_per_record", bytes_per_record);
    }
}

//! Seeded input generation. Everything a workload feeds the program is
//! built here, from `--seed`, as pre-chunked [`TraceBatch`]es; the program
//! only ever receives those batches.

use igm::accel::AccelConfig;
use igm::lba::{chunks, TraceBatch};
use igm::lifeguards::LifeguardKind;
use igm::runtime::SessionConfig;
use igm::sim::SimConfig;
use igm::trace::{SourceStatus, TraceError, TraceSource};
use igm::workload::{Benchmark, MtBenchmark, TraceGen};
use std::sync::Arc;
use std::time::Instant;

/// Transport chunk size every workload batches at (the pool's default).
pub const CHUNK_BYTES: u32 = 16 * 1024;

/// The monitored program a trace imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// A SPEC-like single-threaded benchmark: `TraceGen::new(profile, n,
    /// seed ^ index)`.
    Spec(Benchmark),
    /// A two-thread benchmark for LockSet. The product fixes its generator
    /// seed, so `--seed` does not vary this input (see README, out of
    /// scope).
    Mt(MtBenchmark),
}

impl Program {
    pub fn name(self) -> &'static str {
        match self {
            Program::Spec(b) => b.name(),
            Program::Mt(b) => b.name(),
        }
    }
}

/// Records for a nominal count at `--scale`, never fewer than a few
/// chunks' worth so every path still sees several batches.
pub fn scaled(nominal: u64, scale: f64) -> u64 {
    ((nominal as f64 * scale) as u64).max(40_000)
}

/// One generated trace, chunked for transport.
#[derive(Debug)]
pub struct Trace {
    pub program: Program,
    pub batches: Vec<TraceBatch>,
    pub records: u64,
    /// Loader-established regions the lifeguards pre-mark.
    pub premark: Vec<(u32, u32)>,
    /// Seconds `TraceGen` → `chunks().next_into_batch` took.
    pub gen_secs: f64,
}

impl Trace {
    /// Generates `n` records of `program`; `index` is the tenant's position
    /// in its workload.
    pub fn generate(program: Program, n: u64, seed: u64, index: u64) -> Arc<Trace> {
        let started = Instant::now();
        let (batches, premark) = match program {
            Program::Spec(b) => {
                let profile = b.profile();
                let premark = profile.premark_regions();
                (chunk_all(TraceGen::new(profile, n, seed ^ index)), premark)
            }
            Program::Mt(b) => {
                let gen = b.trace(n);
                let premark = gen.premark_regions();
                (chunk_all(gen), premark)
            }
        };
        let gen_secs = started.elapsed().as_secs_f64();
        let records = batches.iter().map(|b| b.len() as u64).sum();
        Arc::new(Trace { program, batches, records, premark, gen_secs })
    }

    /// FNV-1a over every column of every batch: equal seeds must give equal
    /// hashes, different seeds different ones.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        for b in &self.batches {
            h.u32s(b.pcs());
            h.bytes(b.codes());
            h.bytes(b.addr_regs_bits());
            h.bytes(b.reg_bytes());
            h.bytes(b.flag_bytes());
            h.u32s(b.addrs());
            h.bytes(b.size_codes());
            h.u32s(b.vals());
        }
        h.0
    }
}

fn chunk_all(records: impl IntoIterator<Item = igm::isa::TraceEntry>) -> Vec<TraceBatch> {
    let mut chunker = chunks(records, CHUNK_BYTES);
    let mut out = Vec::new();
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        out.push(batch.clone());
    }
    out
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, words: &[u32]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// "off" = `AccelConfig::baseline()`, "on" = `SimConfig::optimized(kind).accel`.
pub fn accel_for(kind: LifeguardKind, on: bool) -> AccelConfig {
    if on {
        SimConfig::optimized(kind).accel
    } else {
        AccelConfig::baseline()
    }
}

/// One monitored tenant: a trace under a lifeguard and accelerator
/// configuration.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub trace: Arc<Trace>,
    pub kind: LifeguardKind,
    pub accel_on: bool,
    pub accel: AccelConfig,
}

impl Tenant {
    pub fn new(trace: &Arc<Trace>, kind: LifeguardKind, accel_on: bool) -> Tenant {
        Tenant {
            name: format!(
                "{}-{}-{}",
                trace.program.name(),
                crate::metrics::lifeguard_slug(kind),
                if accel_on { "on" } else { "off" }
            ),
            trace: Arc::clone(trace),
            kind,
            accel_on,
            accel: accel_for(kind, accel_on),
        }
    }

    /// The session every pool / net / capture path opens for this tenant
    /// (synthetic-workload mode, regions pre-marked — the same lifeguard
    /// state [`crate::reference::sequential`] starts from).
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::new(self.name.clone(), self.kind)
            .accel(self.accel)
            .synthetic()
            .premark(&self.trace.premark)
    }

    pub fn records(&self) -> u64 {
        self.trace.records
    }
}

/// Harness-side [`TraceSource`]: hands the ingest lane pre-built batches,
/// `clone_from` into the lane's arena.
#[derive(Debug)]
pub struct BatchSource {
    trace: Arc<Trace>,
    next: usize,
}

impl BatchSource {
    pub fn new(trace: &Arc<Trace>) -> BatchSource {
        BatchSource { trace: Arc::clone(trace), next: 0 }
    }
}

impl TraceSource for BatchSource {
    fn next_batch(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, TraceError> {
        match self.trace.batches.get(self.next) {
            Some(batch) => {
                out.clone_from(batch);
                self.next += 1;
                Ok(SourceStatus::Ready)
            }
            None => Ok(SourceStatus::Done),
        }
    }
}

/// A tiny deterministic generator for the harness's own seeded choices
/// (query keys, neighborhood targets) — SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

//! How the host stores shadow memory is invisible to the monitored system.
//!
//! `TwoLevelShadow` keeps a chunk whose bytes are all equal as one value
//! and gives it a backing store only when a write makes its bytes differ.
//! The simulated lifeguard must not be able to tell: chunk addresses are
//! still bump-assigned on first touch in the same order, so every metadata
//! reference a handler charges lands on the same lifeguard-space address.
//! For the five lifeguards × {baseline, optimized} on generated gcc, mcf,
//! gzip and zchaff traces this pins — from the commit before chunks could
//! be uniform — one digest over the violations, the `DispatchStats`, the
//! metadata footprint and the recording sink's complete `(instrs, mem_vas)`
//! stream.

use igm::accel::DispatchPipeline;
use igm::isa::TraceEntry;
use igm::lba::{EventBuf, TraceBatch};
use igm::lifeguards::{CostSink, Lifeguard, LifeguardKind};
use igm::sim::SimConfig;
use igm::workload::{Benchmark, MtBenchmark};

const N: u64 = 200_000;
const BATCH: usize = 4_096;

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A generated trace with its loader regions.
struct Workload {
    name: &'static str,
    trace: Vec<TraceEntry>,
    premark: Vec<(u32, u32)>,
}

/// The four traces: three single-threaded SPEC profiles (mcf's 96 MB mmap
/// region is the one whose premarked chunks stay uniform) and one
/// two-thread trace with lock traffic.
fn workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> = [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Gzip]
        .into_iter()
        .map(|b| Workload {
            name: b.name(),
            trace: b.trace(N).collect(),
            premark: b.profile().premark_regions(),
        })
        .collect();
    let zchaff = MtBenchmark::Zchaff.trace(N);
    let premark = zchaff.premark_regions();
    all.push(Workload { name: MtBenchmark::Zchaff.name(), trace: zchaff.collect(), premark });
    all
}

/// Everything the simulated side of one run can observe, as one number.
fn run_digest(cfg: &SimConfig, trace: &[TraceEntry], premark: &[(u32, u32)]) -> u64 {
    let mut lifeguard = cfg.lifeguard.build_any(&cfg.accel);
    lifeguard.set_synthetic_workload_mode(true);
    for (base, len) in premark {
        lifeguard.premark_region(*base, *len);
    }
    let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &cfg.accel);
    let mut events = EventBuf::new();
    let mut cost = CostSink::new();
    let mut digest = Digest::new();
    for entries in trace.chunks(BATCH) {
        pipeline.dispatch_batch(&TraceBatch::from_entries(entries), &mut events);
        cost.clear();
        lifeguard.handle_batch(events.events(), &mut cost);
        digest.word(cost.instrs());
        digest.word(cost.mem_vas().len() as u64);
        for va in cost.mem_vas() {
            digest.bytes(&va.to_le_bytes());
        }
    }
    let stats = pipeline.stats();
    for v in [
        stats.records,
        stats.events_extracted,
        stats.unregistered_dropped,
        stats.if_filtered,
        stats.delivered,
    ] {
        digest.word(v);
    }
    for v in stats.delivered_by_type {
        digest.word(v);
    }
    digest.word(lifeguard.metadata_bytes());
    digest.word(lifeguard.violations().len() as u64);
    for v in lifeguard.violations() {
        digest.bytes(format!("{v:?}").as_bytes());
    }
    digest.0
}

/// `PINNED[trace][lifeguard]` = `[baseline, optimized]`, in the order of
/// [`workloads`] and [`LifeguardKind::ALL`].
const PINNED: [[[u64; 2]; 5]; 4] = [
    // gcc
    [
        [0xa52487f345ac82bc, 0xbf39e574b7989cc4],
        [0x45d602a23fd330ba, 0x41033605a9a0cef0],
        [0xe57536d72685ef67, 0xd0c99f7ccadad2b1],
        [0x45cbae7ce51f6f64, 0x1e81f1ed3dc0bed3],
        [0x7647fbadb3e57c0d, 0x131b9edbe752cb0c],
    ],
    // mcf
    [
        [0x44d40c8785468ad8, 0xba0fa5ed481f7b7a],
        [0x5a8d2e59a3bc5f51, 0xbe275d25c6e95a5b],
        [0x0fa4fd9c9f7e5fe0, 0x69555afb28b9c5f5],
        [0x5a9df67a2271a23e, 0xb79d96989ec42220],
        [0xe04726c9be4a8c7a, 0xbae1e204f19dcab0],
    ],
    // gzip
    [
        [0x42e5acbebdeeda34, 0xb14cc95a7c78e30f],
        [0x700bafbe32137ee9, 0x5dc02535fbf4414e],
        [0xc807a44ca0f49448, 0x66421d9e487ba438],
        [0x33f5d6e92610e094, 0xe0859ef5982a59d4],
        [0x2337136664e02a90, 0x43de6024674b0c91],
    ],
    // zchaff
    [
        [0xf9d0ffce91d82cc2, 0x6f1ec434bc080260],
        [0x880cda4f14d16ec0, 0xd51d661da5fd27df],
        [0xad6a45631da3ecc9, 0x78c1dd823f521f51],
        [0x700278732e7e7177, 0x928da8a4ad4ac120],
        [0x256171fc90d3a7d5, 0x50f2b49f507238fb],
    ],
];

#[test]
fn simulated_side_is_unchanged_by_how_chunks_are_stored() {
    for (w, pinned) in workloads().iter().zip(PINNED) {
        for (kind, pinned) in LifeguardKind::ALL.into_iter().zip(pinned) {
            let got = [SimConfig::baseline(kind), SimConfig::optimized(kind)]
                .map(|cfg| run_digest(&cfg, &w.trace, &w.premark));
            assert_eq!(got, pinned, "{} / {kind}: [baseline, optimized] = {got:#018x?}", w.name);
        }
    }
}

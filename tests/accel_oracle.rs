//! Reference models for the accelerated hot path, written against the
//! public API only. Each is the slow, obviously-right shape the fast code
//! replaced, kept here so the replacement stays pinned to it:
//!
//! 1. a **staged, record-at-a-time pipeline** — `extract_events` →
//!    `InheritanceTracker` → ETCT → `IdempotentFilter` through intermediate
//!    vectors — against the fused `dispatch_batch` sweep, on delivered
//!    events, record boundaries, `DispatchStats`, `ItStats` and `IfStats`;
//! 2. a **linear-scan LRU filter** — `Option` keys compared field by
//!    field, a last-use stamp per line, a scan for the victim — against
//!    `IdempotentFilter`, outcome by outcome;
//! 3. the **per-byte / per-element shadow loops** (`packed_get`,
//!    `packed_set`, `elem_u64`, `set_elem_u64`) against the access- and
//!    range-granular kernels, shadow contents and chunk allocation alike.

use igm::accel::{
    AccelConfig, DispatchPipeline, DispatchStats, IdempotentFilter, IfGeometry, IfOutcome, IfStats,
    InheritanceTracker, ItConfig, ItStats,
};
use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry};
use igm::lba::{
    extract_events, DeliveredEvent, Etct, Event, EventBuf, FieldSelect, IfEventConfig, TraceBatch,
};
use igm::lifeguards::{Lifeguard, LifeguardKind};
use igm::shadow::layout::ElemSize;
use igm::shadow::{ShadowLayout, TwoLevelShadow};
use igm::workload::{Benchmark, MtBenchmark};
use proptest::prelude::*;

/// splitmix64: the deterministic stream the non-proptest oracles draw from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// (i) the staged pipeline
// ---------------------------------------------------------------------

/// The dispatch pipeline as separate stages over intermediate vectors, one
/// record at a time.
struct StagedPipeline {
    etct: Etct,
    it: Option<InheritanceTracker>,
    filter: Option<IdempotentFilter>,
    stats: DispatchStats,
}

impl StagedPipeline {
    fn new(etct: Etct, cfg: &AccelConfig) -> StagedPipeline {
        StagedPipeline {
            etct,
            it: cfg.it.map(InheritanceTracker::new),
            filter: cfg.if_geometry.map(IdempotentFilter::new),
            stats: DispatchStats::default(),
        }
    }

    /// Dispatches one record, appending what survives to `out`.
    fn record(&mut self, entry: &TraceEntry, out: &mut Vec<DeliveredEvent>) {
        self.stats.records += 1;
        // Stage 1: extraction.
        let mut raw = Vec::new();
        extract_events(entry, &mut raw);
        self.stats.events_extracted += raw.len() as u64;
        // Stage 2: Inheritance Tracking (identity without the unit).
        let mut post_it: Vec<DeliveredEvent> = Vec::new();
        for dev in raw {
            let registered = self.etct.is_registered(dev.event.event_type());
            match (&mut self.it, &dev.event) {
                (Some(it), Event::Annot(_)) => {
                    if registered {
                        it.flush_all(dev.pc, &mut post_it);
                    }
                    post_it.push(dev);
                }
                (Some(it), Event::Prop(_)) => it.process(dev.pc, dev.event, &mut post_it),
                (Some(it), Event::Check { .. }) => {
                    if registered {
                        it.process(dev.pc, dev.event, &mut post_it);
                    } else {
                        self.stats.unregistered_dropped += 1;
                    }
                }
                _ => post_it.push(dev),
            }
        }
        // Stages 3–5: ETCT gate, Idempotent Filter, delivery.
        for dev in post_it {
            let et = dev.event.event_type();
            let row = *self.etct.entry(et);
            if !row.registered {
                self.stats.unregistered_dropped += 1;
                continue;
            }
            if let Some(f) = &mut self.filter {
                if f.process(dev.pc, &dev.event, &row.if_cfg) == IfOutcome::Filtered {
                    self.stats.if_filtered += 1;
                    continue;
                }
            }
            self.stats.delivered += 1;
            self.stats.delivered_by_type[et.index()] += 1;
            out.push(dev);
        }
    }

    fn it_stats(&self) -> Option<ItStats> {
        self.it.as_ref().map(|it| *it.stats())
    }

    fn if_stats(&self) -> Option<IfStats> {
        self.filter.as_ref().map(|f| *f.stats())
    }
}

/// baseline, IT only, IF only, full — unmasked, so every ETCT meets every
/// unit whether or not the paper pairs them.
fn accel_matrix(kind: LifeguardKind) -> [AccelConfig; 4] {
    let it = kind.it_config().unwrap_or_else(ItConfig::taint_style);
    [AccelConfig::baseline(), AccelConfig::lma_it(it), AccelConfig::lma_if(), AccelConfig::full(it)]
}

/// Runs `trace` through the fused sweep in `chunk`-record batches and
/// through the staged model, and compares everything observable.
fn assert_fused_equals_staged(what: &str, trace: &[TraceEntry], chunk: usize) {
    for kind in LifeguardKind::ALL {
        let etct = kind.build_any(&AccelConfig::baseline()).etct();
        for accel in accel_matrix(kind) {
            let label = format!("{what} / {kind} ETCT / {}", accel.label());
            let mut staged = StagedPipeline::new(etct.clone(), &accel);
            let mut fused = DispatchPipeline::new(etct.clone(), &accel);
            let mut events = EventBuf::new();
            for batch in trace.chunks(chunk) {
                fused.dispatch_batch(&TraceBatch::from_entries(batch), &mut events);
                assert_eq!(events.records(), batch.len(), "{label}: one record per entry");
                for (i, entry) in batch.iter().enumerate() {
                    let mut want = Vec::new();
                    staged.record(entry, &mut want);
                    assert_eq!(events.record(i), &want[..], "{label}: record {i} ({entry:?})");
                }
            }
            assert_eq!(fused.stats(), &staged.stats, "{label}: DispatchStats");
            assert_eq!(fused.it_stats().copied(), staged.it_stats(), "{label}: ItStats");
            assert_eq!(fused.if_stats().copied(), staged.if_stats(), "{label}: IfStats");
        }
    }
}

#[test]
fn fused_sweep_equals_staged_pipeline_on_generated_traces() {
    const N: u64 = 12_000;
    let traces: [(&str, Vec<TraceEntry>); 4] = [
        ("gcc", Benchmark::Gcc.trace(N).collect()),
        ("gzip", Benchmark::Gzip.trace(N).collect()),
        ("mcf", Benchmark::Mcf.trace(N).collect()),
        ("zchaff", MtBenchmark::Zchaff.trace(N).collect()),
    ];
    for (name, trace) in &traces {
        assert_fused_equals_staged(name, trace, 1_000);
    }
}

fn reg() -> impl Strategy<Value = Reg> {
    (0usize..8).prop_map(Reg::from_index)
}

fn regset() -> impl Strategy<Value = RegSet> {
    (0u8..=255).prop_map(RegSet::from_bits)
}

/// A small, reusing pool of references — unaligned, of every size — so the
/// IF hits, IT conflicts and word-straddling accesses all occur.
fn mem() -> impl Strategy<Value = MemRef> {
    (0u32..0x60, prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4)])
        .prop_map(|(off, size)| MemRef::new(0x9000_0000 + off, size))
}

fn op() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        reg().prop_map(|rd| OpClass::ImmToReg { rd }),
        mem().prop_map(|dst| OpClass::ImmToMem { dst }),
        reg().prop_map(|rd| OpClass::RegSelf { rd }),
        mem().prop_map(|dst| OpClass::MemSelf { dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::RegToReg { rs, rd }),
        (reg(), mem()).prop_map(|(rs, dst)| OpClass::RegToMem { rs, dst }),
        (mem(), reg()).prop_map(|(src, rd)| OpClass::MemToReg { src, rd }),
        (mem(), mem()).prop_map(|(src, dst)| OpClass::MemToMem { src, dst }),
        (reg(), reg()).prop_map(|(rs, rd)| OpClass::DestRegOpReg { rs, rd }),
        (mem(), reg()).prop_map(|(src, rd)| OpClass::DestRegOpMem { src, rd }),
        (reg(), mem()).prop_map(|(rs, dst)| OpClass::DestMemOpReg { rs, dst }),
        (proptest::option::of(mem()), regset())
            .prop_map(|(src, reads)| OpClass::ReadOnly { src, reads }),
        (regset(), regset(), proptest::option::of(mem()), proptest::option::of(mem())).prop_map(
            |(reads, writes, mem_read, mem_write)| OpClass::Other {
                reads,
                writes,
                mem_read,
                mem_write
            }
        ),
    ]
}

fn annotation() -> impl Strategy<Value = Annotation> {
    prop_oneof![
        (0u32..0x60, 0u32..48)
            .prop_map(|(o, size)| Annotation::Malloc { base: 0x9000_0000 + o, size }),
        (0u32..0x60).prop_map(|o| Annotation::Free { base: 0x9000_0000 + o }),
        (0u32..4).prop_map(|l| Annotation::Lock { lock: 0x100 + l }),
        (0u32..4).prop_map(|l| Annotation::Unlock { lock: 0x100 + l }),
        (0u32..0x60, 0u32..24)
            .prop_map(|(o, len)| Annotation::ReadInput { base: 0x9000_0000 + o, len }),
        (proptest::option::of(reg()), proptest::option::of(mem()))
            .prop_map(|(arg_reg, arg_mem)| Annotation::Syscall { arg_reg, arg_mem }),
        mem().prop_map(|fmt| Annotation::PrintfFormat { fmt }),
        (0u32..3).prop_map(|tid| Annotation::ThreadSwitch { tid }),
        (0u32..3).prop_map(|tid| Annotation::ThreadExit { tid }),
    ]
}

fn ctrl() -> impl Strategy<Value = CtrlOp> {
    prop_oneof![
        Just(CtrlOp::Direct),
        proptest::option::of(reg()).prop_map(|input| CtrlOp::CondBranch { input }),
        reg().prop_map(|r| CtrlOp::Indirect { target: JumpTarget::Reg(r) }),
        mem().prop_map(|m| CtrlOp::Indirect { target: JumpTarget::Mem(m) }),
        mem().prop_map(|slot| CtrlOp::Ret { slot }),
    ]
}

fn entry() -> impl Strategy<Value = TraceEntry> {
    // A few distinct pcs (some IF configurations may key on pc), address
    // registers on about one record in four.
    let body = prop_oneof![
        10 => op().prop_map(|o| TraceEntry::op(0, o)),
        2 => annotation().prop_map(|a| TraceEntry::annot(0, a)),
        2 => ctrl().prop_map(|c| TraceEntry::ctrl(0, c)),
    ];
    (body, 0u32..16, prop_oneof![3 => Just(RegSet::EMPTY), 1 => regset()]).prop_map(
        |(mut e, pc, addr_regs)| {
            e.pc = 0x1000 + 4 * pc;
            e.with_addr_regs(addr_regs)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_sweep_equals_staged_pipeline_on_random_entries(
        trace in proptest::collection::vec(entry(), 1..200),
        chunk in 1usize..48,
    ) {
        assert_fused_equals_staged("random", &trace, chunk);
    }
}

// ---------------------------------------------------------------------
// (ii) the linear-scan LRU filter
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScanKey {
    cc: u8,
    addr: Option<u32>,
    size: Option<u8>,
    pc: Option<u32>,
    reg: Option<u8>,
}

impl ScanKey {
    fn build(pc: u32, ev: &Event, cfg: &IfEventConfig) -> ScanKey {
        let mref = ev.addr_field();
        ScanKey {
            cc: cfg.cc,
            addr: cfg.fields.addr.then(|| mref.map_or(0, |m| m.addr)),
            size: cfg.fields.size.then(|| mref.map_or(0, |m| m.size.bytes() as u8)),
            pc: cfg.fields.pc.then_some(pc),
            reg: cfg.fields.reg.then(|| ev.reg_field().map_or(0xff, |r| r.index() as u8)),
        }
    }

    /// The hash of the whole line that places it in a set.
    fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.cc as u64);
        mix(self.addr.map_or(u64::MAX, |v| v as u64));
        mix(self.size.map_or(u64::MAX, |v| v as u64));
        mix(self.pc.map_or(u64::MAX, |v| v as u64));
        mix(self.reg.map_or(u64::MAX, |v| v as u64));
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// The filter as a table of optional lines with last-use stamps: every
/// lookup scans its set, every miss scans it again for the oldest stamp.
struct ScanFilter {
    sets: Vec<Vec<Option<(ScanKey, u64)>>>,
    tick: u64,
    stats: IfStats,
}

impl ScanFilter {
    fn new(g: IfGeometry) -> ScanFilter {
        let ways = if g.ways == 0 { g.entries } else { g.ways };
        ScanFilter {
            sets: vec![vec![None; ways]; g.entries / ways],
            tick: 0,
            stats: IfStats::default(),
        }
    }

    fn process(&mut self, pc: u32, ev: &Event, cfg: &IfEventConfig) -> IfOutcome {
        self.tick += 1;
        if cfg.invalidate_all {
            self.stats.invalidate_all += 1;
            for set in &mut self.sets {
                set.fill(None);
            }
        }
        let key = ScanKey::build(pc, ev, cfg);
        let si = (key.hash() % self.sets.len() as u64) as usize;
        let set = &mut self.sets[si];
        if cfg.invalidate_match {
            for way in set.iter_mut() {
                if way.map(|l| l.0) == Some(key) {
                    *way = None;
                    self.stats.invalidate_match += 1;
                }
            }
        }
        if !cfg.cacheable {
            return IfOutcome::Deliver;
        }
        self.stats.lookups += 1;
        for line in set.iter_mut().flatten() {
            if line.0 == key {
                line.1 = self.tick;
                self.stats.hits += 1;
                return IfOutcome::Filtered;
            }
        }
        self.stats.inserts += 1;
        let victim =
            set.iter_mut().min_by_key(|w| w.map_or(0, |l| l.1)).expect("sets are non-empty");
        *victim = Some((key, self.tick));
        IfOutcome::Deliver
    }
}

#[test]
fn filter_equals_linear_scan_lru_outcome_by_outcome() {
    let geometries = [
        IfGeometry::isca08(),
        IfGeometry::fully_associative(1),
        IfGeometry::fully_associative(2),
        IfGeometry::fully_associative(48),
        IfGeometry::set_associative(64, 4),
        IfGeometry::set_associative(8, 1),
        IfGeometry { entries: 48, ways: 4 },
    ];
    // Field selections the configurations draw from, including none at
    // all (every event of a CC is then the same line) and pc/reg keys.
    let selections = [
        FieldSelect::ADDR_SIZE,
        FieldSelect::REG,
        FieldSelect::NONE,
        FieldSelect { addr: true, size: false, pc: false, reg: false },
        FieldSelect { addr: true, size: true, pc: true, reg: false },
        FieldSelect { addr: false, size: false, pc: true, reg: true },
    ];
    for (gi, g) in geometries.into_iter().enumerate() {
        for seed in 0..4u64 {
            let mut rng = Rng(0xface_0000 + 16 * gi as u64 + seed);
            let mut fast = IdempotentFilter::new(g);
            let mut scan = ScanFilter::new(g);
            // Seeds differ in how large the working set is relative to the
            // filter, so both the hit path and the eviction path are hot.
            let addrs = [8, 40, 120, 600][seed as usize];
            for step in 0..6_000 {
                let addr = 0x9000 + 4 * rng.below(addrs) as u32 + rng.below(2) as u32;
                let size = [MemSize::B1, MemSize::B2, MemSize::B4][rng.below(3) as usize];
                let m = MemRef::new(addr, size);
                let ev = match rng.below(8) {
                    0..=2 => Event::MemRead(m),
                    3..=4 => Event::MemWrite(m),
                    5 => Event::Check {
                        kind: igm::lba::CheckKind::AddrCompute,
                        source: igm::lba::MetaSource::Reg(Reg::from_index(rng.below(8) as usize)),
                    },
                    6 => Event::Check {
                        kind: igm::lba::CheckKind::JumpTarget,
                        source: igm::lba::MetaSource::Mem(m),
                    },
                    _ => Event::Annot(Annotation::Free { base: addr }),
                };
                // Mostly the three selections the lifeguards use.
                let pool = if rng.below(5) == 0 { selections.len() } else { 3 };
                let fields = selections[rng.below(pool as u64) as usize];
                let cc = rng.below(3) as u8;
                let cfg = match rng.below(40) {
                    0 => IfEventConfig::invalidates_all(),
                    1..=4 => IfEventConfig::invalidates_match(cc, fields),
                    // Invalidates its own line, then is cached again.
                    5 => IfEventConfig {
                        cacheable: true,
                        ..IfEventConfig::invalidates_match(cc, fields)
                    },
                    // Flushes everything, then is cached.
                    6 => IfEventConfig {
                        cacheable: true,
                        cc,
                        fields,
                        invalidate_all: true,
                        invalidate_match: false,
                    },
                    7 => IfEventConfig::default(),
                    _ => IfEventConfig { cacheable: true, cc, fields, ..Default::default() },
                };
                let pc = 0x1000 + 4 * rng.below(6) as u32;
                assert_eq!(
                    fast.process(pc, &ev, &cfg),
                    scan.process(pc, &ev, &cfg),
                    "{g}, seed {seed}, step {step}: {ev:?} under {cfg:?}"
                );
            }
            assert_eq!(fast.stats(), &scan.stats, "{g}, seed {seed}");
            assert!(scan.stats.hits > 0 && scan.stats.inserts > scan.stats.invalidate_all);
        }
    }
}

// ---------------------------------------------------------------------
// (iii) the shadow kernels
// ---------------------------------------------------------------------

/// One layout per packed field width, with `level1_bits` of level-1 index:
/// the more bits, the smaller the chunks, so chunk-crossing is common and
/// the per-byte reference loops stay cheap.
fn packed_layouts(level1_bits: u8) -> [ShadowLayout; 4] {
    [
        ShadowLayout::for_coverage(level1_bits, 8, ElemSize::B1).unwrap(), // 1 bit / byte
        ShadowLayout::for_coverage(level1_bits, 4, ElemSize::B1).unwrap(), // 2 bits / byte
        ShadowLayout::for_coverage(level1_bits, 4, ElemSize::B2).unwrap(), // 4 bits / byte
        ShadowLayout::for_coverage(level1_bits, 2, ElemSize::B2).unwrap(), // 8 bits / byte
    ]
}

/// Addresses worth probing: around chunk boundaries, inside chunks, and at
/// both ends of the address space.
fn probe_addr(rng: &mut Rng, span: u32) -> u32 {
    let chunk = rng.below(6) as u32 * span;
    match rng.below(6) {
        0 => chunk + span - 1 - rng.below(6) as u32,
        1 => chunk + rng.below(6) as u32,
        2 => u32::MAX - rng.below(10) as u32,
        3 => rng.below(10) as u32,
        _ => chunk + rng.below(span as u64) as u32,
    }
}

/// The two shadows must hold the same metadata wherever the test wrote,
/// and have allocated the same chunks.
fn assert_same_shadow(fast: &TwoLevelShadow, slow: &TwoLevelShadow, probes: &[u32], what: &str) {
    assert_eq!(fast.allocated_chunks(), slow.allocated_chunks(), "{what}: allocated chunks");
    for &a in probes {
        assert_eq!(
            fast.chunk_base_va_if_present(a),
            slow.chunk_base_va_if_present(a),
            "{what}: chunk of {a:#x} (allocation order)"
        );
    }
}

#[test]
fn access_granular_packed_kernels_equal_the_per_byte_loops() {
    for layout in packed_layouts(18) {
        let bits = layout.bits_per_app_byte();
        let field = (1u32 << bits) - 1;
        let span = layout.chunk_app_span() as u32;
        for default in [0x00u8, 0xff, 0b0110_1001] {
            let mut rng = Rng(0x5ead_0000 + bits as u64 * 256 + default as u64);
            let mut fast = TwoLevelShadow::new(layout, default);
            let mut slow = TwoLevelShadow::new(layout, default);
            let mut touched = Vec::new();
            for step in 0..4_000 {
                let a = probe_addr(&mut rng, span);
                let n = [1u32, 2, 4][rng.below(3) as usize];
                let what = format!("{bits}-bit, default {default:#x}, step {step}: {a:#x}+{n}");
                touched.push(a);
                touched.push(a.wrapping_add(n - 1));

                // Load: field i is packed_get(a + i); reads never allocate.
                let want = (0..n).fold(0u32, |w, i| {
                    w | (slow.packed_get(a.wrapping_add(i)) as u32) << (i * bits)
                });
                assert_eq!(fast.packed_load(a, n), want, "{what}: packed_load");
                assert_same_shadow(&fast, &slow, &[], &what);

                // Update: random set/clear fields, a third of them empty so
                // "nothing to write" and "write only some bytes" both occur.
                let (mut set, mut clear) = (0u32, 0u32);
                for i in 0..n {
                    if rng.below(3) != 0 {
                        set |= (rng.next() as u32 & field) << (i * bits);
                        clear |= (rng.next() as u32 & field) << (i * bits);
                    }
                }
                fast.packed_update(a, n, set, clear);
                for i in 0..n {
                    let (s, c) = ((set >> (i * bits)) & field, (clear >> (i * bits)) & field);
                    if s | c != 0 {
                        let b = a.wrapping_add(i);
                        slow.packed_set(b, (slow.packed_get(b) & !(c as u8)) | s as u8);
                    }
                }
                for i in 0..n {
                    let b = a.wrapping_add(i);
                    assert_eq!(fast.packed_get(b), slow.packed_get(b), "{what}: byte {i}");
                }
                assert_same_shadow(&fast, &slow, &touched[touched.len() - 2..], &what);
            }
            // Nothing leaked outside the written fields anywhere near them.
            for &a in &touched {
                for d in 0..12u32 {
                    let b = a.wrapping_sub(4).wrapping_add(d);
                    assert_eq!(fast.packed_get(b), slow.packed_get(b), "{bits}-bit: {b:#x}");
                }
            }
            assert_same_shadow(&fast, &slow, &touched, "final");
        }
    }
}

#[test]
fn range_granular_packed_kernels_equal_the_per_byte_loops() {
    // 4 KiB of application space per chunk: ranges of several chunks are
    // walked byte by byte by the reference.
    for layout in packed_layouts(20) {
        let bits = layout.bits_per_app_byte();
        let field = ((1u32 << bits) - 1) as u8;
        let span = layout.chunk_app_span() as u32;
        for default in [0x00u8, 0xff, 0b0110_1001] {
            let mut rng = Rng(0x4a9e_0000 + bits as u64 * 256 + default as u64);
            let mut fast = TwoLevelShadow::new(layout, default);
            let mut slow = TwoLevelShadow::new(layout, default);
            let mut touched = Vec::new();
            for step in 0..300 {
                let start = probe_addr(&mut rng, span);
                let len = match rng.below(8) {
                    0 => 0,
                    1 | 2 => 1 + rng.below(7) as u32,
                    3..=5 => 1 + rng.below(70) as u32,
                    6 => span - 3 + rng.below(7) as u32, // about one chunk
                    _ => 2 * span + rng.below(40) as u32, // several chunks
                };
                let v = rng.next() as u8 & field;
                let what =
                    format!("{bits}-bit, default {default:#x}, step {step}: {start:#x}+{len}");
                let addrs = || (0..len).map(move |i| start.wrapping_add(i));

                // The read-only kernels, before and after the write.
                for q in [v, rng.next() as u8 & field] {
                    assert_eq!(
                        fast.packed_count_ne(start, len, q),
                        addrs().filter(|a| slow.packed_get(*a) != q).count() as u64,
                        "{what}: packed_count_ne({q})"
                    );
                    assert_eq!(
                        fast.packed_any(start, len, q),
                        addrs().any(|a| slow.packed_get(a) == q),
                        "{what}: packed_any({q})"
                    );
                }
                assert_same_shadow(&fast, &slow, &[], &what);

                // Fill-and-count: only differing bytes are written, so a
                // chunk with nothing to change is never allocated.
                let mut changed = 0;
                for a in addrs() {
                    if slow.packed_get(a) != v {
                        slow.packed_set(a, v);
                        changed += 1;
                    }
                }
                assert_eq!(
                    fast.packed_set_range_changed(start, len, v),
                    changed,
                    "{what}: changed"
                );
                touched.extend([start, start.wrapping_add(len.saturating_sub(1))]);
                touched.extend((0..len).step_by(span as usize).map(|i| start.wrapping_add(i)));
                assert_same_shadow(
                    &fast,
                    &slow,
                    &touched[touched.len().saturating_sub(8)..],
                    &what,
                );
                assert_eq!(fast.packed_count_ne(start, len, v), 0, "{what}: filled");
                // A second fill changes nothing and allocates nothing.
                assert_eq!(fast.packed_set_range_changed(start, len, v), 0, "{what}: refill");
                assert_same_shadow(&fast, &slow, &[], &what);

                // Spot-check the edges and a sample of the interior.
                for a in [start.wrapping_sub(1), start, start.wrapping_add(len)]
                    .into_iter()
                    .chain(addrs().step_by(1 + len as usize / 64))
                {
                    assert_eq!(fast.packed_get(a), slow.packed_get(a), "{what}: {a:#x}");
                }
            }
            assert_same_shadow(&fast, &slow, &touched, "final");
        }
    }
}

#[test]
fn element_kernels_equal_the_per_element_loops() {
    // LockSet-style 4-byte records per 4-byte word, and 8-byte records for
    // the element-size-generic range fill.
    let b4 = ShadowLayout::for_coverage(18, 4, ElemSize::B4).unwrap();
    let b8 = ShadowLayout::for_coverage(18, 4, ElemSize::B8).unwrap();
    for (layout, default) in [(b4, 0x00u8), (b4, 0xa5), (b8, 0x00), (b8, 0x3c)] {
        let size = layout.elem_size().bytes();
        let span = layout.chunk_app_span() as u32;
        let mut rng = Rng(0xe1e0_0000 + size as u64 * 256 + default as u64);
        let mut fast = TwoLevelShadow::new(layout, default);
        let mut slow = TwoLevelShadow::new(layout, default);
        let mut touched = Vec::new();
        for step in 0..1_500 {
            let a = probe_addr(&mut rng, span);
            let what = format!("{size}-byte elements, default {default:#x}, step {step}: {a:#x}");
            // Direct reads agree with the byte-assembled ones and never
            // allocate.
            assert_eq!(fast.elem_u32(a), slow.elem_u64(a) as u32, "{what}: elem_u32");
            assert_same_shadow(&fast, &slow, &[], &what);
            match rng.below(3) {
                0 => {
                    let v = rng.next() as u32;
                    fast.set_elem_u32(a, v);
                    slow.set_elem_u64(a, v as u64);
                    touched.push(a);
                }
                _ => {
                    let len = match rng.below(4) {
                        0 => 0,
                        1 => 1 + rng.below(9) as u32,
                        2 => span - 2 + rng.below(5) as u32,
                        _ => 2 * span + rng.below(30) as u32,
                    };
                    // Uniform-byte and mixed-byte patterns take different
                    // fill loops.
                    let v = if rng.below(2) == 0 { 0 } else { rng.next() };
                    fast.set_elem_range(a, len, v);
                    if len > 0 {
                        // Every element overlapping [a, a+len), modulo 2^32.
                        let first = (a >> 2) as u64;
                        let last = (a as u64 + len as u64 - 1) >> 2;
                        for e in first..=last {
                            slow.set_elem_u64((e << 2) as u32, v);
                        }
                        touched.extend([a, a.wrapping_add(len - 1)]);
                        touched.extend((0..len).step_by(span as usize).map(|i| a.wrapping_add(i)));
                    }
                }
            }
            let recent = &touched[touched.len().saturating_sub(8)..];
            assert_same_shadow(&fast, &slow, recent, &what);
            for &t in recent {
                for b in [t.wrapping_sub(4), t, t.wrapping_add(4), t.wrapping_add(8)] {
                    assert_eq!(fast.elem_u64(b), slow.elem_u64(b), "{what}: element at {b:#x}");
                }
            }
        }
        assert_same_shadow(&fast, &slow, &touched, "final");
        for &t in &touched {
            assert_eq!(fast.elem_u64(t), slow.elem_u64(t));
            assert_eq!(fast.elem_u32(t), slow.elem_u64(t) as u32);
        }
    }
}

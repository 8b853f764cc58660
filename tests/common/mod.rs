//! Trace builders and the sequential reference shared by the root
//! integration tests. Each builder, the reference and each execution
//! strategy ([`strategies`]) exist once, here; `tests/equivalence.rs`
//! runs every strategy against the reference.

// Every test binary compiles this module but uses only part of it.
#![allow(dead_code)]

pub mod strategies;

use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::{AnyLifeguard, LifeguardKind};
use igm::runtime::{PoolConfig, SessionConfig};
use igm::sim::Monitor;
use igm::workload::{Benchmark, MtBenchmark};

/// Buggy epilogues [`workload_for`] plants into a generated trace.
pub const EPILOGUES: u64 = 20;

/// A short buggy epilogue, planted into clean generated traces so
/// equalities are asserted over *non-empty* violation sets: an
/// out-of-bounds heap read (AddrCheck, MemCheck) and a control transfer
/// through a tainted pointer (both TaintChecks).
pub fn buggy_epilogue() -> [TraceEntry; 6] {
    [
        TraceEntry::annot(0x9100_0000, Annotation::Malloc { base: 0x0a00_0000, size: 64 }),
        TraceEntry::annot(0x9100_0004, Annotation::ReadInput { base: 0x0a00_0000, len: 4 }),
        // One byte past the allocation.
        TraceEntry::op(
            0x9100_0008,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0040), rd: Reg::Edx },
        ),
        // Load the untrusted word and jump through it.
        TraceEntry::op(
            0x9100_000c,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0000), rd: Reg::Eax },
        ),
        TraceEntry::ctrl(0x9100_0010, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
        TraceEntry::annot(0x9100_0014, Annotation::Free { base: 0x0a00_0000 }),
    ]
}

/// The session a [`workload_for`] tenant is studied in: synthetic mode,
/// with its benchmark's loader regions pre-marked.
pub fn session_cfg(kind: LifeguardKind, name: &str) -> SessionConfig {
    let premark = match kind {
        LifeguardKind::LockSet => MtBenchmark::Zchaff.trace(1).premark_regions(),
        _ => Benchmark::Gzip.profile().premark_regions(),
    };
    SessionConfig::new(name, kind).synthetic().premark(&premark)
}

/// `n` records of the benchmark `kind` is studied on: zchaff for LockSet,
/// otherwise gzip with a [`buggy_epilogue`] after every `n / EPILOGUES`
/// records.
pub fn workload_for(kind: LifeguardKind, n: u64) -> Vec<TraceEntry> {
    if kind == LifeguardKind::LockSet {
        return MtBenchmark::Zchaff.trace(n).collect();
    }
    let stride = (n / EPILOGUES).max(1);
    let mut trace = Vec::new();
    for (i, e) in Benchmark::Gzip.trace(n).enumerate() {
        trace.push(e);
        if (i as u64 + 1).is_multiple_of(stride) {
            trace.extend(buggy_epilogue());
        }
    }
    trace
}

/// A trace for `kind` with violations planted every `stride` records:
/// loads of unallocated memory (AddrCheck, MemCheck; nothing for the
/// TaintChecks), or for LockSet two threads writing one fresh word with no
/// lock held.
pub fn planted_trace(kind: LifeguardKind, n: usize, stride: usize, seed: u32) -> Vec<TraceEntry> {
    let heap = 0x9000_0000u32;
    let mut trace = Vec::with_capacity(n + 8);
    trace.push(TraceEntry::annot(0x10, Annotation::Malloc { base: heap, size: 0x1000 }));
    for i in 0..n as u32 {
        let pc = 0x1000 + 8 * i;
        let addr = heap + 4 * ((i.wrapping_mul(seed | 1)) % 0x400);
        let benign = match i % 4 {
            0 => TraceEntry::op(pc, OpClass::ImmToMem { dst: MemRef::word(addr) }),
            1 => TraceEntry::op(pc, OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Eax }),
            2 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            _ => TraceEntry::op(pc, OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Eax }),
        };
        trace.push(benign);
        if (i as usize + 1).is_multiple_of(stride) {
            match kind {
                LifeguardKind::LockSet => {
                    let w = 0xb000_0000 + 4 * i;
                    trace.push(TraceEntry::op(pc + 1, OpClass::ImmToMem { dst: MemRef::word(w) }));
                    trace.push(TraceEntry::annot(pc + 2, Annotation::ThreadSwitch { tid: 1 }));
                    trace.push(TraceEntry::op(pc + 3, OpClass::ImmToMem { dst: MemRef::word(w) }));
                    trace.push(TraceEntry::annot(pc + 4, Annotation::ThreadSwitch { tid: 0 }));
                }
                _ => {
                    trace.push(TraceEntry::op(
                        pc + 1,
                        OpClass::MemToReg { src: MemRef::word(0xdead_0000 + 8 * i), rd: Reg::Edx },
                    ));
                }
            }
        }
    }
    trace
}

/// `n` records of gcc with a taint chain planted every 67 records (a
/// prime, so chains straddle any power-of-two epoch or chunk cut). Each
/// chain reads untrusted input and ends in a jump through it, by one of
/// three paths in turn: load → jump; load → ALU → jump (`mov [in], %eax;
/// mov $4, %ebx; add %eax, %ebx; jmp *%ebx`); ALU-from-memory → jump
/// (`add [in], %ebx; jmp *%ebx`). The last two are where accelerated and
/// unaccelerated TaintCheck disagree; every strategy must still match its
/// own configuration's sequential verdicts.
pub fn taint_chains(n: u64) -> Vec<TraceEntry> {
    let mut trace: Vec<TraceEntry> = Benchmark::Gcc.trace(n).collect();
    let mut at = 67usize;
    let mut k = 0u32;
    while at < trace.len() {
        let buf = 0xa000_0000 + k * 0x40;
        let pc = 0x7000_0000 + k * 0x20;
        let src = MemRef::word(buf);
        let jump =
            |rs| TraceEntry::ctrl(pc + 0x10, CtrlOp::Indirect { target: JumpTarget::Reg(rs) });
        let mut chain = vec![TraceEntry::annot(pc, Annotation::ReadInput { base: buf, len: 4 })];
        match k % 3 {
            0 => chain.extend([
                TraceEntry::op(pc + 4, OpClass::MemToReg { src, rd: Reg::Eax }),
                jump(Reg::Eax),
            ]),
            1 => chain.extend([
                TraceEntry::op(pc + 4, OpClass::MemToReg { src, rd: Reg::Eax }),
                TraceEntry::op(pc + 8, OpClass::ImmToReg { rd: Reg::Ebx }),
                TraceEntry::op(pc + 12, OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Ebx }),
                jump(Reg::Ebx),
            ]),
            _ => chain.extend([
                TraceEntry::op(pc + 4, OpClass::DestRegOpMem { src, rd: Reg::Ebx }),
                jump(Reg::Ebx),
            ]),
        }
        let len = chain.len();
        trace.splice(at..at, chain);
        at += 67 + len;
        k += 1;
    }
    trace
}

/// One of each bug: an access to unallocated memory (AddrCheck,
/// MemCheck), a jump through a register loaded from an input buffer (both
/// TaintChecks) and two threads writing one fresh word with no lock held
/// (LockSet).
pub fn planted_bugs() -> [TraceEntry; 9] {
    let racy = MemRef::word(0xb000_0000);
    [
        TraceEntry::op(0x7000, OpClass::MemToReg { src: MemRef::word(0xdead_0000), rd: Reg::Edx }),
        TraceEntry::annot(0x7004, Annotation::Malloc { base: 0x6000_0000, size: 64 }),
        TraceEntry::annot(0x7008, Annotation::ReadInput { base: 0x6000_0000, len: 16 }),
        TraceEntry::op(0x700c, OpClass::MemToReg { src: MemRef::word(0x6000_0000), rd: Reg::Eax }),
        TraceEntry::ctrl(0x7010, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
        TraceEntry::annot(0x7014, Annotation::ThreadSwitch { tid: 0 }),
        TraceEntry::op(0x7018, OpClass::ImmToMem { dst: racy }),
        TraceEntry::annot(0x701c, Annotation::ThreadSwitch { tid: 1 }),
        TraceEntry::op(0x7020, OpClass::ImmToMem { dst: racy }),
    ]
}

/// Annotation-dense traffic: a `Malloc`, `ReadInput`, `Lock` or `Unlock`
/// every third record, between loads, stores and register moves over the
/// blocks they name — any transport chunk of it crosses dozens of IT
/// flushes and whole-filter IF invalidations, and the range handlers run
/// on unaligned, overlapping blocks. Ends with the [`planted_bugs`].
pub fn annotation_dense() -> Vec<TraceEntry> {
    const BLOCK: u32 = 0x6100_0000;
    let mut trace = Vec::new();
    for i in 0..4_000u32 {
        let pc = 0x8000 + 4 * i;
        let base = BLOCK + 24 * (i % 64) + i % 3;
        let m = MemRef::word(base + 4 * (i % 5));
        trace.push(match i % 12 {
            0 => TraceEntry::annot(pc, Annotation::Malloc { base, size: 40 + i % 7 }),
            3 => TraceEntry::annot(pc, Annotation::ReadInput { base: base + 2, len: 9 + i % 5 }),
            6 => TraceEntry::annot(pc, Annotation::Lock { lock: 0x200 + i % 2 }),
            9 => TraceEntry::annot(pc, Annotation::Unlock { lock: 0x200 + i % 2 }),
            1 | 7 => TraceEntry::op(pc, OpClass::MemToReg { src: m, rd: Reg::Eax }),
            2 | 8 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            4 | 10 => TraceEntry::op(pc, OpClass::RegToMem { rs: Reg::Ecx, dst: m }),
            5 => TraceEntry::op(pc, OpClass::DestRegOpMem { src: m, rd: Reg::Edx }),
            _ => TraceEntry::op(pc, OpClass::ImmToMem { dst: m }),
        });
    }
    trace.extend(planted_bugs());
    trace
}

/// A `Monitor` set up as a pool session for `cfg` would be: the session's
/// lifeguard, accelerators, workload mode and pre-marked regions.
pub fn monitor(cfg: &SessionConfig) -> Monitor<AnyLifeguard> {
    Monitor::build(cfg.lifeguard, &cfg.accel, cfg.synthetic_workload, &cfg.premark)
}

/// The sequential reference: `trace` through [`monitor`], batched at the
/// pool's default transport chunk.
pub fn sequential(cfg: &SessionConfig, trace: &[TraceEntry]) -> Monitor<AnyLifeguard> {
    let mut seq = monitor(cfg);
    let mut chunker = igm::lba::chunks(trace.iter().copied(), PoolConfig::default().chunk_bytes);
    let mut batch = igm::lba::TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        seq.observe_trace_batch(&batch);
    }
    seq
}

/// The record each violation belongs to, by a [`monitor`] fed one record
/// at a time: whatever it reports after observing record `i` is record
/// `i`'s. Returns the monitor with the per-violation record numbers.
pub fn one_record_at_a_time(
    cfg: &SessionConfig,
    trace: &[TraceEntry],
) -> (Monitor<AnyLifeguard>, Vec<u64>) {
    let mut monitor = monitor(cfg);
    let mut seqs = Vec::new();
    for (i, e) in trace.iter().enumerate() {
        monitor.observe(e);
        seqs.resize(monitor.violations().len(), i as u64);
    }
    (monitor, seqs)
}

//! Multithreaded workload generators for the LockSet study (paper Table 3).
//!
//! Each benchmark spawns two worker threads pinned to the application core
//! (as in the paper, which restricts both threads to core 1 with
//! `sched_setaffinity`); the log is therefore a single interleaved stream
//! with [`Annotation::ThreadSwitch`] records at scheduling boundaries.
//!
//! Threads own private heap halves and stacks, and share a set of lock-
//! protected regions. A well-behaved trace acquires the region's lock
//! around every shared access; `MtTraceGen::with_race` plants accesses
//! that skip the lock, which LockSet must flag.

use crate::layout::{GLOBALS_BASE, HEAP_BASE, STACK_TOP};
use igm_isa::{Annotation, CtrlOp, MemRef, OpClass, Reg, RegSet, TraceEntry, TraceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// The five multithreaded benchmarks of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MtBenchmark {
    /// NCBI BLAST: nucleotide/protein database search (read-mostly shared
    /// database).
    Blast,
    /// Parallel bzip2 compression (mostly private work, shared queue).
    Pbzip2,
    /// Parallel bzip2 decompression.
    Pbunzip2,
    /// SPLASH-2 water simulation (shared molecule arrays under fine locks).
    WaterNq,
    /// zChaff SAT solver (shared clause database and assignment).
    Zchaff,
}

impl MtBenchmark {
    /// All benchmarks in Table 3 order.
    pub const ALL: [MtBenchmark; 5] = [
        MtBenchmark::Blast,
        MtBenchmark::Pbzip2,
        MtBenchmark::Pbunzip2,
        MtBenchmark::WaterNq,
        MtBenchmark::Zchaff,
    ];

    /// The benchmark's name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MtBenchmark::Blast => "blast",
            MtBenchmark::Pbzip2 => "pbzip2",
            MtBenchmark::Pbunzip2 => "pbunzip2",
            MtBenchmark::WaterNq => "water",
            MtBenchmark::Zchaff => "zchaff",
        }
    }

    fn params(self) -> MtParams {
        match self {
            MtBenchmark::Blast => MtParams {
                shared_fraction: 0.35,
                read_mostly: true,
                shared_regions: 16,
                region_bytes: 16 * 1024,
                switch_every: 600,
                copy_heavy: false,
            },
            MtBenchmark::Pbzip2 => MtParams {
                shared_fraction: 0.06,
                read_mostly: false,
                shared_regions: 4,
                region_bytes: 4 * 1024,
                switch_every: 900,
                copy_heavy: true,
            },
            MtBenchmark::Pbunzip2 => MtParams {
                shared_fraction: 0.08,
                read_mostly: false,
                shared_regions: 4,
                region_bytes: 4 * 1024,
                switch_every: 800,
                copy_heavy: true,
            },
            MtBenchmark::WaterNq => MtParams {
                shared_fraction: 0.25,
                read_mostly: false,
                shared_regions: 32,
                region_bytes: 2 * 1024,
                switch_every: 500,
                copy_heavy: false,
            },
            MtBenchmark::Zchaff => MtParams {
                shared_fraction: 0.30,
                read_mostly: false,
                shared_regions: 24,
                region_bytes: 8 * 1024,
                switch_every: 400,
                copy_heavy: false,
            },
        }
    }

    /// A deterministic two-thread trace of `n` records.
    pub fn trace(self, n: u64) -> MtTraceGen {
        MtTraceGen::new(self, n, false)
    }

    /// Like [`Self::trace`], but plants unsynchronized accesses to shared
    /// regions (true data races) for detection tests.
    pub fn trace_with_race(self, n: u64) -> MtTraceGen {
        MtTraceGen::new(self, n, true)
    }
}

impl fmt::Display for MtBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug, Clone, Copy)]
struct MtParams {
    /// Probability a burst targets a shared region.
    shared_fraction: f64,
    /// Shared accesses are predominantly reads (database-style).
    read_mostly: bool,
    shared_regions: u32,
    region_bytes: u32,
    /// Mean records between thread switches.
    switch_every: u64,
    /// Private work is copy-dominated (compressor-style).
    copy_heavy: bool,
}

#[derive(Debug, Clone, Copy)]
struct SharedRegion {
    base: u32,
    bytes: u32,
    lock: u32,
}

#[derive(Debug, Clone, Copy)]
struct ThreadCtx {
    heap_base: u32,
    heap_bytes: u32,
}

/// Interleaved two-thread trace generator.
#[derive(Debug)]
pub struct MtTraceGen {
    rng: StdRng,
    params: MtParams,
    target: u64,
    emitted: u64,
    queue: VecDeque<TraceEntry>,
    shared: Vec<SharedRegion>,
    threads: [ThreadCtx; 2],
    tid: usize,
    until_switch: u64,
    with_race: bool,
    started: bool,
    /// Count of planted racy accesses (for tests).
    planted_races: u64,
}

/// Base address of lock objects in the global segment.
const LOCKS_BASE: u32 = GLOBALS_BASE + 0x8000;
/// Base of the shared heap area.
const SHARED_BASE: u32 = HEAP_BASE;
/// Per-thread private heap size.
const PRIVATE_BYTES: u32 = 2 * 1024 * 1024;

impl MtTraceGen {
    fn new(bench: MtBenchmark, target: u64, with_race: bool) -> MtTraceGen {
        let params = bench.params();
        let shared: Vec<SharedRegion> = (0..params.shared_regions)
            .map(|i| SharedRegion {
                base: SHARED_BASE + i * params.region_bytes,
                bytes: params.region_bytes,
                lock: LOCKS_BASE + i * 64,
            })
            .collect();
        let shared_end = SHARED_BASE + params.shared_regions * params.region_bytes;
        let threads = [
            ThreadCtx { heap_base: shared_end, heap_bytes: PRIVATE_BYTES },
            ThreadCtx { heap_base: shared_end + PRIVATE_BYTES, heap_bytes: PRIVATE_BYTES },
        ];
        MtTraceGen {
            rng: StdRng::seed_from_u64(bench as u64 + 0x5eed),
            params,
            target,
            emitted: 0,
            queue: VecDeque::new(),
            shared,
            threads,
            tid: 0,
            until_switch: params.switch_every,
            with_race,
            started: false,
            planted_races: 0,
        }
    }

    /// Regions the harness must pre-mark accessible/initialized: both
    /// stacks, globals (locks live there) and the full heap area (shared +
    /// private halves are populated with `Malloc` records at bootstrap).
    pub fn premark_regions(&self) -> Vec<(u32, u32)> {
        vec![(GLOBALS_BASE, 256 * 1024), (STACK_TOP - 1024 * 1024, 1024 * 1024)]
    }

    /// Number of planted unsynchronized accesses so far.
    pub fn planted_races(&self) -> u64 {
        self.planted_races
    }

    fn op(&mut self, pc: u32, op: OpClass, addr_regs: RegSet) {
        self.queue.push_back(TraceEntry { pc, op: TraceOp::Op(op), addr_regs });
    }

    fn annot(&mut self, a: Annotation) {
        self.queue.push_back(TraceEntry::annot(0x0804_7000, a));
    }

    fn bootstrap(&mut self) {
        self.annot(Annotation::ThreadSwitch { tid: 0 });
        // Shared regions and per-thread arenas are heap allocations.
        let regions: Vec<(u32, u32)> = self.shared.iter().map(|r| (r.base, r.bytes)).collect();
        for (base, bytes) in regions {
            self.annot(Annotation::Malloc { base, size: bytes });
        }
        for t in 0..2 {
            let (b, s) = (self.threads[t].heap_base, self.threads[t].heap_bytes);
            // Arena carved into block-sized mallocs for realism.
            let block = 64 * 1024;
            let mut off = 0;
            while off < s {
                self.annot(Annotation::Malloc { base: b + off, size: block.min(s - off) });
                off += block;
            }
        }
    }

    fn burst_private(&mut self) -> u64 {
        let t = self.threads[self.tid];
        let pc0 = 0x0805_0000 + (self.tid as u32) * 0x1000;
        let mut count = 0u64;
        if self.params.copy_heavy {
            // Copy a run of words between two private offsets.
            let words = self.rng.gen_range(8u32..40);
            let src = t.heap_base + self.rng.gen_range(0..(t.heap_bytes / 4 - words)) * 4;
            let dst = t.heap_base + self.rng.gen_range(0..(t.heap_bytes / 4 - words)) * 4;
            self.op(pc0, OpClass::ImmToReg { rd: Reg::Esi }, RegSet::EMPTY);
            self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Edi }, RegSet::EMPTY);
            count += 2;
            for i in 0..words {
                self.op(
                    pc0 + 8,
                    OpClass::MemToMem {
                        src: MemRef::word(src + i * 4),
                        dst: MemRef::word(dst + i * 4),
                    },
                    RegSet::from_regs([Reg::Esi, Reg::Edi]),
                );
                count += 1;
            }
        } else {
            // Scan + compute over a small private window (reused across
            // bursts: pick among a few windows for temporal locality).
            let window = self.rng.gen_range(0u32..8);
            let base = t.heap_base + window * 4096;
            let iters = self.rng.gen_range(8u32..32);
            self.op(pc0, OpClass::ImmToReg { rd: Reg::Ebx }, RegSet::EMPTY);
            self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Ecx }, RegSet::EMPTY);
            count += 2;
            for i in 0..iters {
                let m = MemRef::word(base + (i % 16) * 4);
                self.op(
                    pc0 + 8,
                    OpClass::MemToReg { src: m, rd: Reg::Eax },
                    RegSet::from_regs([Reg::Ebx]),
                );
                self.op(
                    pc0 + 12,
                    OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Edx },
                    RegSet::EMPTY,
                );
                if i % 4 == 0 {
                    self.op(
                        pc0 + 16,
                        OpClass::RegToMem { rs: Reg::Edx, dst: m },
                        RegSet::from_regs([Reg::Ebx]),
                    );
                    count += 1;
                }
                // Frame-slot traffic (spills/reloads), as in the ST engine.
                let slot =
                    MemRef::word(STACK_TOP - 64 * 1024 * (self.tid as u32) - 8 - 4 * (i % 6));
                self.op(
                    pc0 + 18,
                    OpClass::MemToReg { src: slot, rd: Reg::Esi },
                    RegSet::from_regs([Reg::Esp]),
                );
                count += 1;
                self.op(pc0 + 20, OpClass::RegSelf { rd: Reg::Ecx }, RegSet::EMPTY);
                self.op(
                    pc0 + 24,
                    OpClass::ReadOnly { src: None, reads: RegSet::from_regs([Reg::Ecx]) },
                    RegSet::EMPTY,
                );
                self.queue.push_back(TraceEntry::ctrl(
                    pc0 + 28,
                    CtrlOp::CondBranch { input: Some(Reg::Ecx) },
                ));
                count += 5;
            }
        }
        count
    }

    fn burst_shared(&mut self) -> u64 {
        let ridx = self.rng.gen_range(0..self.shared.len());
        let region = self.shared[ridx];
        let pc0 = 0x0806_0000 + (self.tid as u32) * 0x1000;
        let mut count = 0u64;
        let racy = self.with_race && self.rng.gen_bool(0.05);
        if !racy {
            self.annot(Annotation::Lock { lock: region.lock });
            count += 1;
        } else {
            self.planted_races += 1;
        }
        // A critical section updates a handful of object fields repeatedly
        // (list heads, counters, node payloads) — the reuse that the
        // Idempotent Filter exploits between invalidations.
        // Every critical section updates the region's header word (a
        // counter/list head shared by all threads) plus a few skewed
        // payload fields — the contention structure of real shared objects.
        let slots = region.bytes / 4;
        let mut fields: Vec<u32> = vec![region.base];
        for _ in 0..self.rng.gen_range(1u32..5) {
            let r = self.rng.gen_range(0..slots);
            fields.push(region.base + (r * r / slots.max(1)) * 4);
        }
        let accesses = self.rng.gen_range(20u32..80);
        for i in 0..accesses {
            let slot = fields[(i as usize) % fields.len()];
            let m = MemRef::word(slot);
            let is_write = !self.params.read_mostly && self.rng.gen_bool(0.4);
            if is_write {
                self.op(
                    pc0,
                    OpClass::RegToMem { rs: Reg::Edx, dst: m },
                    RegSet::from_regs([Reg::Ebx]),
                );
            } else {
                self.op(
                    pc0 + 4,
                    OpClass::MemToReg { src: m, rd: Reg::Eax },
                    RegSet::from_regs([Reg::Ebx]),
                );
            }
            // Interleave a little register work between shared accesses.
            if i % 3 == 0 {
                self.op(
                    pc0 + 8,
                    OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Edx },
                    RegSet::EMPTY,
                );
                count += 1;
            }
            count += 1;
        }
        if !racy {
            self.annot(Annotation::Unlock { lock: region.lock });
            count += 1;
        }
        count
    }

    fn refill(&mut self) {
        if !self.started {
            self.started = true;
            self.bootstrap();
            return;
        }
        let emitted = if self.rng.gen_bool(self.params.shared_fraction) {
            self.burst_shared()
        } else {
            self.burst_private()
        };
        if self.until_switch <= emitted {
            self.tid ^= 1;
            self.annot(Annotation::ThreadSwitch { tid: self.tid as u32 });
            // Jitter the next quantum around the mean.
            let mean = self.params.switch_every;
            self.until_switch = self.rng.gen_range(mean / 2..mean * 3 / 2).max(50);
        } else {
            self.until_switch -= emitted;
        }
    }
}

impl Iterator for MtTraceGen {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.emitted >= self.target {
            return None;
        }
        while self.queue.is_empty() {
            self.refill();
        }
        self.emitted += 1;
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_target_and_is_deterministic() {
        let a: Vec<_> = MtBenchmark::WaterNq.trace(30_000).collect();
        let b: Vec<_> = MtBenchmark::WaterNq.trace(30_000).collect();
        assert_eq!(a.len(), 30_000);
        assert_eq!(a, b);
    }

    #[test]
    fn both_threads_run() {
        let mut seen = std::collections::HashSet::new();
        for e in MtBenchmark::Zchaff.trace(50_000) {
            if let TraceOp::Annot(Annotation::ThreadSwitch { tid }) = e.op {
                seen.insert(tid);
            }
        }
        assert_eq!(seen.len(), 2, "expected both thread ids, saw {seen:?}");
    }

    #[test]
    fn locks_are_balanced_and_guard_shared_accesses() {
        let mut held: Option<u32> = None;
        for e in MtBenchmark::Blast.trace(80_000) {
            match e.op {
                TraceOp::Annot(Annotation::Lock { lock }) => {
                    assert_eq!(held, None, "nested lock");
                    held = Some(lock);
                }
                TraceOp::Annot(Annotation::Unlock { lock }) => {
                    assert_eq!(held, Some(lock), "unlock without lock");
                    held = None;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn clean_trace_has_no_planted_races() {
        let mut g = MtBenchmark::WaterNq.trace(50_000);
        while g.next().is_some() {}
        assert_eq!(g.planted_races(), 0);
    }

    #[test]
    fn racy_trace_plants_races() {
        let mut g = MtBenchmark::WaterNq.trace_with_race(200_000);
        while g.next().is_some() {}
        assert!(g.planted_races() > 0);
    }

    #[test]
    fn read_mostly_profile_emits_no_shared_writes() {
        // blast's shared database is read-only in our model.
        let shared_end = SHARED_BASE + 16 * 16 * 1024;
        for e in MtBenchmark::Blast.trace(80_000) {
            if let Some(w) = e.mem_write() {
                assert!(
                    !(SHARED_BASE..shared_end).contains(&w.addr),
                    "unexpected shared write {w}"
                );
            }
        }
    }

    #[test]
    fn all_benchmarks_have_distinct_names() {
        let mut names: Vec<_> = MtBenchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}

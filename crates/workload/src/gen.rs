//! The single-threaded trace generator engine.
//!
//! [`TraceGen`] is an iterator of [`TraceEntry`]s. It repeatedly samples an
//! idiom from the profile's weighted mix and emits one structurally
//! realistic burst (a loop body replayed over stable program counters, with
//! disciplined register roles and well-formed stack/heap behaviour),
//! interleaving wrapper-library annotations (malloc/free, system calls,
//! untrusted-input reads) at the profile's rates.
//!
//! Generated traces are *well-behaved*: every heap access falls inside a
//! live allocation and every conditional branch tests a value the burst
//! itself produced, so none of the lifeguards reports violations on them —
//! matching the paper's setup, where the monitored SPEC programs are
//! correct and lifeguard overhead is pure checking cost. (Bug-detection is
//! exercised by the `examples/` programs instead.)
//!
//! The harness is expected to pre-mark the global, stack and mmap regions
//! (and, for MemCheck, the heap's *initialized* bits) as program-load-time
//! state; see [`Profile::premark_regions`] — this mirrors how
//! Valgrind-family tools treat loader-established segments.

use crate::layout::{CODE_BASE, GLOBALS_BASE, HEAP_BASE, MMAP_BASE, STACK_TOP};
use crate::profile::{Idiom, Profile};
use igm_isa::{Annotation, CtrlOp, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry, TraceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Stack region size pre-marked accessible (grows down from
/// [`STACK_TOP`]).
pub const STACK_BYTES: u32 = 1024 * 1024;

impl Profile {
    /// Regions established by the loader before main() runs: the harness
    /// marks them accessible (and initialized) in the lifeguards.
    pub fn premark_regions(&self) -> Vec<(u32, u32)> {
        let mut v = vec![(GLOBALS_BASE, self.global_bytes), (STACK_TOP - STACK_BYTES, STACK_BYTES)];
        if self.mmap_bytes > 0 {
            v.push((MMAP_BASE, self.mmap_bytes));
        }
        v
    }
}

#[derive(Debug, Clone, Copy)]
struct Block {
    base: u32,
    size: u32,
}

/// Deterministic single-threaded trace generator.
#[derive(Debug)]
pub struct TraceGen {
    rng: StdRng,
    profile: Profile,
    target: u64,
    emitted: u64,
    queue: VecDeque<TraceEntry>,
    /// Live heap blocks.
    live: Vec<Block>,
    /// Most-recently-used live-block indices (the hot set; real programs
    /// concentrate accesses on a few active objects, which is what gives
    /// them their L1 hit rates and the Idempotent Filter its reuse).
    mru: Vec<usize>,
    /// Recycled blocks awaiting reuse.
    freelist: Vec<Block>,
    heap_next: u32,
    stack_ptr: u32,
    code_bases: HashMap<Idiom, u32>,
    code_next: u32,
    /// Round-robin counter for frame-slot traffic.
    frame_rr: u32,
    /// Long-lived per-idiom buffers with wrap-around cursors (sliding
    /// windows, tables): (block, cursor in words).
    arenas: HashMap<(Idiom, u8), (Block, u32)>,
    /// Current node index of the pointer-chase cursor.
    chase_cursor: u32,
    /// Fractional annotation accumulators.
    acc_malloc: f64,
    acc_syscall: f64,
    acc_input: f64,
    started: bool,
}

impl TraceGen {
    /// Creates a generator for `profile` emitting exactly `target` records,
    /// seeded deterministically by `seed`.
    pub fn new(profile: Profile, target: u64, seed: u64) -> TraceGen {
        TraceGen {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            profile,
            target,
            emitted: 0,
            queue: VecDeque::with_capacity(512),
            live: Vec::new(),
            mru: Vec::new(),
            freelist: Vec::new(),
            heap_next: HEAP_BASE,
            stack_ptr: STACK_TOP,
            code_bases: HashMap::new(),
            code_next: CODE_BASE,
            frame_rr: 0,
            arenas: HashMap::new(),
            chase_cursor: 0,
            acc_malloc: 0.0,
            acc_syscall: 0.0,
            acc_input: 0.0,
            started: false,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    // --- low-level emission helpers ---------------------------------------

    fn code_base(&mut self, idiom: Idiom) -> u32 {
        if let Some(b) = self.code_bases.get(&idiom) {
            return *b;
        }
        let b = self.code_next;
        self.code_next += 1024; // 256 instruction slots per idiom
        self.code_bases.insert(idiom, b);
        b
    }

    fn op(&mut self, pc: u32, op: OpClass, addr_regs: RegSet) {
        self.queue.push_back(TraceEntry { pc, op: TraceOp::Op(op), addr_regs });
    }

    fn ctrl(&mut self, pc: u32, c: CtrlOp) {
        self.queue.push_back(TraceEntry::ctrl(pc, c));
    }

    fn annot(&mut self, a: Annotation) {
        self.queue.push_back(TraceEntry::annot(self.code_next, a));
    }

    // --- heap model ---------------------------------------------------------

    fn block_size(&mut self) -> u32 {
        let mean = self.profile.mean_block;
        // Sizes between mean/2 and 2*mean, word aligned.
        self.rng.gen_range(mean / 2..mean * 2).max(64) & !3
    }

    fn heap_limit(&self) -> u32 {
        HEAP_BASE + self.profile.heap_bytes
    }

    fn emit_malloc(&mut self) {
        let size = self.block_size();
        let block = if !self.freelist.is_empty() && self.rng.gen_bool(0.5) {
            let idx = self.rng.gen_range(0..self.freelist.len());
            let b = self.freelist.swap_remove(idx);
            Block { base: b.base, size: b.size }
        } else if self.heap_next + size <= self.heap_limit() {
            let b = Block { base: self.heap_next, size };
            self.heap_next += size;
            b
        } else if let Some(b) = self.freelist.pop() {
            b
        } else {
            // Heap exhausted with everything live: recycle the oldest block.
            let b = self.live.remove(0);
            self.annot(Annotation::Free { base: b.base });
            b
        };
        self.annot(Annotation::Malloc { base: block.base, size: block.size });
        self.live.push(block);
    }

    fn emit_free(&mut self) {
        if self.live.len() <= 2 {
            return;
        }
        let idx = self.rng.gen_range(0..self.live.len());
        // Long-lived buffers (arenas) stay allocated.
        if self.arenas.values().any(|(a, _)| a.base == self.live[idx].base) {
            return;
        }
        let b = self.live.swap_remove(idx);
        // The freed slot's index now names the swapped-in block; the MRU
        // list is only a heuristic, so simply drop stale entries.
        self.mru.retain(|i| *i < self.live.len() && *i != idx);
        self.annot(Annotation::Free { base: b.base });
        self.freelist.push(b);
    }

    fn touch_mru(&mut self, idx: usize) {
        self.mru.retain(|i| *i != idx);
        self.mru.insert(0, idx);
        self.mru.truncate(4);
    }

    fn pick_block(&mut self) -> Block {
        if self.live.is_empty() {
            self.emit_malloc();
        }
        // 96% of selections stay on the hot (recently used) objects —
        // roughly the object-reuse concentration that gives SPEC int codes
        // their ~1.5 CPI on a 16 KB L1 / 512 KB L2 hierarchy.
        let idx = if !self.mru.is_empty() && self.rng.gen_bool(0.992) {
            self.mru[self.rng.gen_range(0..self.mru.len())]
        } else {
            self.rng.gen_range(0..self.live.len())
        };
        self.touch_mru(idx);
        self.live[idx]
    }

    /// A word-aligned reference of `len` words inside a (hot-biased) live
    /// block. Spans usually start at the block head — programs walk their
    /// buffers from the front — with occasional random offsets.
    fn block_span(&mut self, words: u32) -> (u32, u32) {
        let b = self.pick_block();
        let avail = (b.size / 4).max(1);
        let words = words.min(avail);
        let max_start = avail - words;
        let start = if max_start == 0 || self.rng.gen_bool(0.7) {
            0
        } else {
            self.rng.gen_range(0..=max_start)
        };
        (b.base + start * 4, words)
    }

    fn hot_global(&mut self) -> u32 {
        let slot = self.rng.gen_range(0..self.profile.hot_globals.max(1));
        GLOBALS_BASE + slot * 4
    }

    fn cold_global(&mut self) -> u32 {
        let words = self.profile.global_bytes / 4;
        GLOBALS_BASE + self.rng.gen_range(0..words) * 4
    }

    /// Claims (or rarely rotates) the idiom's `slot`-th long-lived buffer
    /// and advances its cursor by `advance` words, wrapping. Returns the
    /// block and the pre-advance cursor. Real programs keep their working
    /// buffers for long phases; rotation models phase changes.
    fn arena(&mut self, idiom: Idiom, slot: u8, advance: u32) -> (Block, u32) {
        let rotate = self.rng.gen_bool(0.002);
        let key = (idiom, slot);
        if rotate || !self.arenas.contains_key(&key) {
            let b = self.pick_block();
            self.arenas.insert(key, (b, 0));
        }
        let (b, cur) = self.arenas[&key];
        let words = (b.size / 4).max(1);
        self.arenas.insert(key, (b, (cur + advance) % words));
        (b, cur % words)
    }

    /// One frame-slot access (spill or reload). Compiled IA32 code touches
    /// its stack frame constantly — eight architectural registers force
    /// spills — and those few hot slots are what give real programs both
    /// their L1 hit rates and the Idempotent Filter's redundancy.
    fn frame_touch(&mut self, pc: u32) {
        self.frame_rr = self.frame_rr.wrapping_add(1);
        let slot = MemRef::word(self.stack_ptr - 8 - 4 * (self.frame_rr % 6));
        if self.frame_rr.is_multiple_of(2) {
            self.op(
                pc,
                OpClass::RegToMem { rs: Reg::Edx, dst: slot },
                RegSet::from_regs([Reg::Esp]),
            );
        } else {
            self.op(
                pc,
                OpClass::MemToReg { src: slot, rd: Reg::Edx },
                RegSet::from_regs([Reg::Esp]),
            );
        }
    }

    // --- idiom bursts ---------------------------------------------------------

    fn burst_array_scan(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::ArrayScan);
        let iters = self.rng.gen_range(8u32..24);
        let (block, cur) = self.arena(Idiom::ArrayScan, 0, iters);
        let words = (block.size / 4).max(1);
        let write_pass = self.rng.gen_bool(0.3);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Ebx }, RegSet::EMPTY);
        self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Ecx }, RegSet::EMPTY);
        self.op(pc0 + 8, OpClass::ImmToReg { rd: Reg::Edx }, RegSet::EMPTY);
        let body = pc0 + 12;
        for i in 0..iters {
            let m = MemRef::word(block.base + ((cur + i) % words) * 4);
            let regs = RegSet::from_regs([Reg::Ebx, Reg::Ecx]);
            if write_pass {
                self.op(body, OpClass::RegToMem { rs: Reg::Edx, dst: m }, regs);
            } else {
                self.op(body, OpClass::MemToReg { src: m, rd: Reg::Eax }, regs);
                self.op(
                    body + 4,
                    OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Edx },
                    RegSet::EMPTY,
                );
                if i % 4 == 3 {
                    // Running result spilled back (loop-carried state).
                    self.op(body + 6, OpClass::RegToMem { rs: Reg::Edx, dst: m }, regs);
                }
            }
            self.frame_touch(body + 8);
            self.op(body + 12, OpClass::RegSelf { rd: Reg::Ecx }, RegSet::EMPTY);
            self.op(
                body + 16,
                OpClass::ReadOnly { src: None, reads: RegSet::from_regs([Reg::Ecx]) },
                RegSet::EMPTY,
            );
            self.ctrl(body + 20, CtrlOp::CondBranch { input: Some(Reg::Ecx) });
        }
        3 + iters as u64 * if write_pass { 4 } else { 5 }
    }

    fn burst_table_lookup(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::TableLookup);
        let iters = self.rng.gen_range(8u32..32);
        let (input_blk, in_cur) = self.arena(Idiom::TableLookup, 0, iters);
        let in_words = (input_blk.size / 4).max(1);
        let (table_blk, _) = self.arena(Idiom::TableLookup, 1, 0);
        let table = table_blk.base;
        let table_words = (table_blk.size / 4).clamp(1, 256);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Esi }, RegSet::EMPTY);
        self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Ebx }, RegSet::EMPTY);
        let body = pc0 + 8;
        for i in 0..iters {
            // Load the next input element (sometimes byte-granular, as in
            // real compressors).
            let size = if self.rng.gen_bool(0.3) { MemSize::B1 } else { MemSize::B4 };
            let src = MemRef::new(input_blk.base + ((in_cur + i) % in_words) * 4, size);
            self.op(body, OpClass::MemToReg { src, rd: Reg::Eax }, RegSet::from_regs([Reg::Esi]));
            // Mask it into an index.
            self.op(body + 4, OpClass::RegSelf { rd: Reg::Eax }, RegSet::EMPTY);
            // Data-dependent table access: symbol frequencies are skewed
            // (Huffman-style), so hot entries dominate.
            let r = self.rng.gen_range(0..table_words);
            let slot = table + (r * r / table_words.max(1)) * 4;
            self.op(
                body + 8,
                OpClass::DestRegOpMem { src: MemRef::word(slot), rd: Reg::Edx },
                RegSet::from_regs([Reg::Ebx, Reg::Eax]),
            );
            // Usually store the output.
            if self.rng.gen_bool(0.6) {
                let (out, _) = self.block_span(1);
                self.op(
                    body + 12,
                    OpClass::RegToMem { rs: Reg::Edx, dst: MemRef::word(out) },
                    RegSet::from_regs([Reg::Edi]),
                );
            }
            self.frame_touch(body + 16);
        }
        2 + iters as u64 * 4
    }

    fn burst_hot_loop(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::HotLoop);
        let iters = self.rng.gen_range(8u32..32);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Ecx }, RegSet::EMPTY);
        self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Eax }, RegSet::EMPTY);
        self.op(pc0 + 8, OpClass::ImmToReg { rd: Reg::Edx }, RegSet::EMPTY);
        let body = pc0 + 12;
        let mut count = 3u64;
        for i in 0..iters {
            self.op(body, OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Edx }, RegSet::EMPTY);
            self.op(body + 4, OpClass::RegSelf { rd: Reg::Eax }, RegSet::EMPTY);
            self.op(body + 8, OpClass::RegToReg { rs: Reg::Edx, rd: Reg::Ebx }, RegSet::EMPTY);
            self.op(body + 12, OpClass::DestRegOpReg { rs: Reg::Ebx, rd: Reg::Eax }, RegSet::EMPTY);
            count += 4;
            {
                let g = self.hot_global();
                self.op(
                    body + 16,
                    OpClass::MemToReg { src: MemRef::word(g), rd: Reg::Esi },
                    RegSet::EMPTY,
                );
                count += 1;
            }
            if i % 4 == 3 {
                let g = self.hot_global();
                self.op(
                    body + 20,
                    OpClass::RegToMem { rs: Reg::Edx, dst: MemRef::word(g) },
                    RegSet::EMPTY,
                );
                count += 1;
            }
            self.op(body + 24, OpClass::RegSelf { rd: Reg::Ecx }, RegSet::EMPTY);
            self.op(
                body + 28,
                OpClass::ReadOnly { src: None, reads: RegSet::from_regs([Reg::Ecx]) },
                RegSet::EMPTY,
            );
            self.ctrl(body + 32, CtrlOp::CondBranch { input: Some(Reg::Ecx) });
            count += 3;
        }
        count
    }

    fn burst_stack_frame(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::StackFrame);
        let call_pc = pc0;
        let callee = pc0 + 64;
        let mut count = 0u64;
        // call: return-address store + transfer.
        self.stack_ptr -= 4;
        let ret_slot = MemRef::word(self.stack_ptr);
        self.op(call_pc, OpClass::ImmToMem { dst: ret_slot }, RegSet::from_regs([Reg::Esp]));
        self.ctrl(call_pc, CtrlOp::Direct);
        count += 1;
        // push %ebp
        self.stack_ptr -= 4;
        self.op(
            callee,
            OpClass::RegToMem { rs: Reg::Ebp, dst: MemRef::word(self.stack_ptr) },
            RegSet::from_regs([Reg::Esp]),
        );
        // mov %esp, %ebp
        self.op(callee + 4, OpClass::RegToReg { rs: Reg::Esp, rd: Reg::Ebp }, RegSet::EMPTY);
        count += 2;
        let frame = self.stack_ptr;
        let locals = self.rng.gen_range(2u32..6);
        self.stack_ptr -= locals * 4 + 8;
        // Store locals.
        self.op(callee + 8, OpClass::ImmToReg { rd: Reg::Eax }, RegSet::EMPTY);
        count += 1;
        for k in 0..locals {
            let slot = MemRef::word(frame - 4 - k * 4);
            self.op(
                callee + 12 + k * 4,
                OpClass::RegToMem { rs: Reg::Eax, dst: slot },
                RegSet::from_regs([Reg::Ebp]),
            );
            count += 1;
        }
        // Compute over locals.
        let work = self.rng.gen_range(2u32..8);
        for k in 0..work {
            let slot = MemRef::word(frame - 4 - (k % locals) * 4);
            self.op(
                callee + 40 + k * 8,
                OpClass::MemToReg { src: slot, rd: Reg::Edx },
                RegSet::from_regs([Reg::Ebp]),
            );
            self.op(
                callee + 44 + k * 8,
                OpClass::DestRegOpReg { rs: Reg::Edx, rd: Reg::Eax },
                RegSet::EMPTY,
            );
            count += 2;
        }
        // Epilogue: pop %ebp; ret.
        self.stack_ptr = frame;
        self.op(
            callee + 120,
            OpClass::MemToReg { src: MemRef::word(self.stack_ptr), rd: Reg::Ebp },
            RegSet::from_regs([Reg::Esp]),
        );
        self.stack_ptr += 4;
        self.ctrl(callee + 124, CtrlOp::Ret { slot: MemRef::word(self.stack_ptr) });
        self.stack_ptr += 4;
        count += 2;
        count
    }

    fn burst_spill_reload(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::SpillReload);
        let slot = MemRef::word(self.stack_ptr - 8 - 4 * self.rng.gen_range(0u32..4));
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Esi }, RegSet::EMPTY);
        self.op(
            pc0 + 4,
            OpClass::RegToMem { rs: Reg::Esi, dst: slot },
            RegSet::from_regs([Reg::Esp]),
        );
        let work = self.rng.gen_range(2u32..6);
        for k in 0..work {
            self.op(
                pc0 + 8 + k * 4,
                OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Esi },
                RegSet::EMPTY,
            );
        }
        self.op(
            pc0 + 40,
            OpClass::MemToReg { src: slot, rd: Reg::Esi },
            RegSet::from_regs([Reg::Esp]),
        );
        3 + work as u64
    }

    fn burst_string_copy(&mut self) -> u64 {
        // LZ77-style match copy: destination advances through a sliding
        // window; the source is a short back-reference into recently
        // written data — the reuse structure of real compressors.
        let pc0 = self.code_base(Idiom::StringCopy);
        let words = self.rng.gen_range(4u32..24);
        let (window, cur) = self.arena(Idiom::StringCopy, 0, words);
        let win_words = (window.size / 4).max(8);
        // Match distances are heavily skewed toward recent data.
        let distance = if self.rng.gen_bool(0.7) {
            self.rng.gen_range(1..win_words.min(16))
        } else {
            self.rng.gen_range(1..win_words.min(256))
        };
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Esi }, RegSet::EMPTY);
        self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Edi }, RegSet::EMPTY);
        let body = pc0 + 8;
        for i in 0..words {
            let dst_w = (cur + i) % win_words;
            let src_w = (dst_w + win_words - distance) % win_words;
            self.op(
                body,
                OpClass::MemToMem {
                    src: MemRef::word(window.base + src_w * 4),
                    dst: MemRef::word(window.base + dst_w * 4),
                },
                RegSet::from_regs([Reg::Esi, Reg::Edi]),
            );
            if i % 4 == 3 {
                self.frame_touch(body + 4);
            }
        }
        2 + words as u64
    }

    fn burst_pointer_chase(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::PointerChase);
        let (region_base, region_bytes) = if self.profile.mmap_bytes > 0 {
            (MMAP_BASE, self.profile.mmap_bytes)
        } else {
            (HEAP_BASE, self.profile.heap_bytes)
        };
        let nodes = (region_bytes / 16).max(8);
        // Graph traversal = short spatial runs (a few adjacent arcs/nodes)
        // separated by jumps to random positions: the producer misses on
        // nearly every run (memory-bound), while the lifeguard's 8x-denser
        // metadata reuses its cache lines across runs — the effect behind
        // the paper's "negligible overhead for mcf" observation.
        let iters = self.rng.gen_range(8u32..32);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Ebx }, RegSet::EMPTY);
        let body = pc0 + 4;
        let mut count = 1u64;
        // A small set of pivot nodes (tree roots, current basis arcs) is
        // revisited constantly between runs, as in the network simplex.
        let pivots: [u32; 4] = std::array::from_fn(|k| {
            self.rng.gen_range(0..nodes.min(64)) + (k as u32) * (nodes / 64).max(1)
        });
        for i in 0..iters {
            let node = if i % 3 == 2 {
                region_base + (pivots[(i as usize / 3) % 4] % nodes) * 16
            } else {
                if i % 4 == 0 {
                    // Jump to a new run.
                    self.chase_cursor = self.rng.gen_range(0..nodes);
                } else {
                    self.chase_cursor = (self.chase_cursor + 1) % nodes;
                }
                region_base + self.chase_cursor * 16
            };
            // Load the next pointer: %ebx now inherits from memory, so the
            // following address computation exercises the IT check path.
            self.op(
                body,
                OpClass::MemToReg { src: MemRef::word(node), rd: Reg::Ebx },
                RegSet::from_regs([Reg::Ebx]),
            );
            // Touch the node's payload.
            self.op(
                body + 4,
                OpClass::DestRegOpMem { src: MemRef::word(node + 4), rd: Reg::Edx },
                RegSet::from_regs([Reg::Ebx]),
            );
            if self.rng.gen_bool(0.2) {
                self.op(
                    body + 8,
                    OpClass::RegToMem { rs: Reg::Edx, dst: MemRef::word(node + 8) },
                    RegSet::from_regs([Reg::Ebx]),
                );
                count += 1;
            }
            self.op(
                body + 12,
                OpClass::ReadOnly { src: None, reads: RegSet::from_regs([Reg::Edx]) },
                RegSet::EMPTY,
            );
            self.ctrl(body + 16, CtrlOp::CondBranch { input: Some(Reg::Edx) });
            count += 4;
        }
        count
    }

    fn burst_branchy(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::BranchyCode);
        let iters = self.rng.gen_range(6u32..24);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Eax }, RegSet::EMPTY);
        self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Ecx }, RegSet::EMPTY);
        let body = pc0 + 8;
        let mut count = 2u64;
        for i in 0..iters {
            // Mix of register moves and loads feeding compares.
            match i % 3 {
                0 => self.op(body, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Edx }, RegSet::EMPTY),
                1 => {
                    // Mostly hot globals; a cold straggler now and then.
                    let g = if self.rng.gen_bool(0.98) {
                        self.hot_global()
                    } else {
                        self.cold_global()
                    };
                    self.op(
                        body,
                        OpClass::MemToReg { src: MemRef::word(g), rd: Reg::Edx },
                        RegSet::EMPTY,
                    );
                }
                _ => {
                    let slot = MemRef::word(self.stack_ptr - 4 - 4 * (i % 8));
                    self.op(
                        body,
                        OpClass::MemToReg { src: slot, rd: Reg::Edx },
                        RegSet::from_regs([Reg::Esp]),
                    );
                }
            }
            self.op(body + 4, OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Edx }, RegSet::EMPTY);
            if i % 2 == 0 {
                self.frame_touch(body + 8);
                count += 1;
            }
            self.op(
                body + 12,
                OpClass::ReadOnly { src: None, reads: RegSet::from_regs([Reg::Edx]) },
                RegSet::EMPTY,
            );
            self.ctrl(body + 16, CtrlOp::CondBranch { input: Some(Reg::Edx) });
            count += 4;
        }
        count
    }

    fn burst_global_update(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::GlobalUpdate);
        let iters = self.rng.gen_range(4u32..12);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Eax }, RegSet::EMPTY);
        let body = pc0 + 4;
        for i in 0..iters {
            let g = MemRef::word(self.hot_global());
            if i % 2 == 0 {
                // incl mem
                self.op(body, OpClass::MemSelf { dst: g }, RegSet::EMPTY);
            } else {
                // add %eax, mem
                self.op(body + 4, OpClass::DestMemOpReg { rs: Reg::Eax, dst: g }, RegSet::EMPTY);
            }
        }
        1 + iters as u64
    }

    fn burst_opaque(&mut self) -> u64 {
        let pc0 = self.code_base(Idiom::OpaqueOp);
        self.op(pc0, OpClass::ImmToReg { rd: Reg::Eax }, RegSet::EMPTY);
        self.op(pc0 + 4, OpClass::ImmToReg { rd: Reg::Ecx }, RegSet::EMPTY);
        let set = RegSet::from_regs([Reg::Eax, Reg::Ecx]);
        self.op(
            pc0 + 8,
            OpClass::Other { reads: set, writes: set, mem_read: None, mem_write: None },
            RegSet::EMPTY,
        );
        3
    }

    fn emit_idiom(&mut self, idiom: Idiom) -> u64 {
        match idiom {
            Idiom::ArrayScan => self.burst_array_scan(),
            Idiom::TableLookup => self.burst_table_lookup(),
            Idiom::HotLoop => self.burst_hot_loop(),
            Idiom::StackFrame => self.burst_stack_frame(),
            Idiom::SpillReload => self.burst_spill_reload(),
            Idiom::StringCopy => self.burst_string_copy(),
            Idiom::PointerChase => self.burst_pointer_chase(),
            Idiom::BranchyCode => self.burst_branchy(),
            Idiom::GlobalUpdate => self.burst_global_update(),
            Idiom::OpaqueOp => self.burst_opaque(),
        }
    }

    fn pick_idiom(&mut self) -> Idiom {
        let total = self.profile.total_weight();
        let mut roll = self.rng.gen_range(0..total);
        for (idiom, w) in &self.profile.idioms {
            if roll < *w {
                return *idiom;
            }
            roll -= w;
        }
        unreachable!("weights sum to total")
    }

    fn emit_annotations(&mut self, instrs: u64) {
        let k = instrs as f64 / 1000.0;
        self.acc_malloc += k * self.profile.malloc_per_kinstr;
        self.acc_syscall += k * self.profile.syscall_per_kinstr;
        self.acc_input += k * self.profile.input_per_kinstr;
        while self.acc_malloc >= 1.0 {
            self.acc_malloc -= 1.0;
            // Keep the live population roughly steady.
            if self.live.len() > 8 && self.rng.gen_bool(0.5) {
                self.emit_free();
            } else {
                self.emit_malloc();
            }
        }
        while self.acc_syscall >= 1.0 {
            self.acc_syscall -= 1.0;
            // The argument register is freshly set (clean) at the call site.
            let pc = self.code_next;
            self.op(pc, OpClass::ImmToReg { rd: Reg::Ebx }, RegSet::EMPTY);
            let arg_mem = if self.rng.gen_bool(0.5) {
                let (a, _) = self.block_span(1);
                Some(MemRef::word(a))
            } else {
                None
            };
            self.annot(Annotation::Syscall { arg_reg: Some(Reg::Ebx), arg_mem });
        }
        while self.acc_input >= 1.0 {
            self.acc_input -= 1.0;
            let b = self.pick_block();
            let len = b.size.min(1024);
            self.annot(Annotation::ReadInput { base: b.base, len });
        }
    }

    fn bootstrap(&mut self) {
        // The already-running program owns an initial heap population.
        let blocks = (self.profile.heap_bytes / self.profile.mean_block / 2).clamp(4, 384);
        for _ in 0..blocks {
            self.emit_malloc();
        }
    }

    fn refill(&mut self) {
        if !self.started {
            self.started = true;
            self.bootstrap();
            return;
        }
        let idiom = self.pick_idiom();
        let instrs = self.emit_idiom(idiom);
        self.emit_annotations(instrs);
    }
}

impl Iterator for TraceGen {
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
    use crate::Benchmark;
    use std::collections::HashSet;

    #[test]
    fn emits_exactly_target_records() {
        for n in [1u64, 100, 12_345] {
            let count = Benchmark::Gcc.trace(n).count();
            assert_eq!(count as u64, n);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<_> = Benchmark::Vortex.trace(20_000).collect();
        let b: Vec<_> = Benchmark::Vortex.trace(20_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_benchmarks_differ() {
        let a: Vec<_> = Benchmark::Mcf.trace(5_000).collect();
        let b: Vec<_> = Benchmark::Crafty.trace(5_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn heap_accesses_stay_inside_live_blocks() {
        // Track malloc/free and verify every heap data access lands in a
        // live block (the well-behavedness contract).
        let mut live: Vec<(u32, u32)> = Vec::new();
        for e in Benchmark::Parser.trace(200_000) {
            match e.op {
                TraceOp::Annot(Annotation::Malloc { base, size }) => live.push((base, size)),
                TraceOp::Annot(Annotation::Free { base }) => {
                    let idx = live.iter().position(|(b, _)| *b == base).expect("free of live");
                    live.swap_remove(idx);
                }
                _ => {
                    for m in [e.mem_read(), e.mem_write()].into_iter().flatten() {
                        if (HEAP_BASE..MMAP_BASE).contains(&m.addr) {
                            assert!(
                                live.iter().any(|(b, s)| m.addr >= *b && m.end() <= b + s),
                                "access {m} outside live heap blocks at record {e:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stack_accesses_stay_in_premarked_region() {
        for e in Benchmark::Gcc.trace(100_000) {
            for m in [e.mem_read(), e.mem_write()].into_iter().flatten() {
                if m.addr >= MMAP_BASE + Benchmark::Gcc.profile().mmap_bytes {
                    assert!(
                        m.addr >= STACK_TOP - STACK_BYTES && m.end() <= STACK_TOP,
                        "stack access {m} out of range"
                    );
                }
            }
        }
    }

    #[test]
    fn mcf_touches_many_pages_others_fewer() {
        let pages = |b: Benchmark| -> usize {
            let mut s = HashSet::new();
            for e in b.trace(150_000) {
                for m in [e.mem_read(), e.mem_write()].into_iter().flatten() {
                    s.insert(m.addr >> 12);
                }
            }
            s.len()
        };
        let mcf = pages(Benchmark::Mcf);
        let crafty = pages(Benchmark::Crafty);
        assert!(mcf > crafty * 4, "mcf footprint ({mcf} pages) must dwarf crafty ({crafty} pages)");
    }

    #[test]
    fn annotations_present_at_expected_rates() {
        let mut mallocs = 0u32;
        let mut inputs = 0u32;
        for e in Benchmark::Gzip.trace(300_000) {
            match e.op {
                TraceOp::Annot(Annotation::Malloc { .. }) => mallocs += 1,
                TraceOp::Annot(Annotation::ReadInput { .. }) => inputs += 1,
                _ => {}
            }
        }
        assert!(mallocs > 0);
        // gzip reads input heavily: ~0.08/kinstr => ~24 over 300k.
        assert!(inputs >= 10, "expected input reads, got {inputs}");
    }

    #[test]
    fn premark_regions_cover_globals_and_stack() {
        let p = Benchmark::Mcf.profile();
        let regions = p.premark_regions();
        assert!(regions.iter().any(|(b, _)| *b == GLOBALS_BASE));
        assert!(regions.iter().any(|(b, l)| *b + *l == STACK_TOP));
        assert!(regions.iter().any(|(b, _)| *b == MMAP_BASE));
    }

    #[test]
    fn event_mix_covers_all_idiom_classes() {
        let mut kinds = HashSet::new();
        for b in [Benchmark::Gcc, Benchmark::Gzip] {
            for e in b.trace(100_000) {
                if let TraceOp::Op(op) = e.op {
                    kinds.insert(op.mnemonic());
                }
            }
        }
        for k in [
            "imm_to_reg",
            "mem_to_reg",
            "reg_to_mem",
            "dest_reg_op_reg",
            "read_only",
            "mem_to_mem",
            "other",
            "mem_self",
        ] {
            assert!(kinds.contains(k), "missing {k} in gcc+gzip mix: {kinds:?}");
        }
    }
}

//! Per-frame inverted posting lists — the payload of the `IGMX` v2
//! sidecar that turns a trace file into a queryable artifact.
//!
//! For every frame, four dimensions are extracted from the batch
//! columns and inverted into posting lists over *frame-local* record
//! indices:
//!
//! | dim | key | meaning |
//! |-----|-----|---------|
//! | [`Dim::PcBucket`]  | `pc >> 6`    | 64-byte code bucket the record's pc falls in |
//! | [`Dim::OpClass`]   | [`op_class`] | coarse memory-effect class (load/store/update/compute/ctrl/annot) |
//! | [`Dim::AddrPage`]  | `addr >> 12` | 4 KiB page touched by any of the record's address slots |
//! | [`Dim::Site`]      | [`site`]     | sparse violation-relevant site kind (free, indirect jump, syscall, …) |
//!
//! Each posting's index set is stored in the smallest of four
//! roaring-style container encodings, chosen per posting:
//!
//! - **Runs** — strided runs `(gap, len-1[, step-1])` in varints. The
//!   generalization from roaring's plain runs to *strided* runs is what
//!   makes loop-structured traces cheap: a loop body executing `n`
//!   iterations puts each of its record shapes at an arithmetic
//!   progression of positions, and one strided run covers the whole
//!   progression in ~3–5 bytes.
//! - **Array** — plain varint gap deltas, for small irregular sets.
//! - **Bitset** — `⌈records/8⌉` bytes, for dense irregular sets.
//! - **Periodic-XOR** — a period `P` plus the positions where the
//!   membership bitmap differs from itself shifted by `P`. Loop bodies
//!   put a key at *several* interleaved arithmetic progressions (one
//!   per occurrence inside the body), which defeats sequential run
//!   extraction; the periodic XOR cancels all phases of one period at
//!   once, leaving only the loop's perturbations.
//!
//! Frames hold at most a few thousand records, so a frame *is* the
//! natural roaring block: container indices are frame-local and the
//! frame directory (`IndexEntry.first_record`) provides the high bits.
//! Extraction is deterministic over batch columns, so an index built
//! inline by the writer and one rebuilt by decoding the finished stream
//! are byte-identical — the property `TraceIndex` save/scan tests pin.
//!
//! # Word kernels
//!
//! The three places a posting is touched work on 64-bit words, 64
//! records per step, or on whole runs, not on single indices:
//!
//! - **Build.** Extraction reads each record's address slots, op class
//!   and site kind from one table lookup. The wide dimensions are
//!   grouped by a counting sort over key slots that files segments of
//!   consecutive indices (indices arrive ascending, so every group comes
//!   out sorted, and only the distinct keys are ever sorted). The runs
//!   and array containers are sized from one walk of the set's runs,
//!   the bitset from the frame size. The periodic-XOR candidates are the
//!   four most frequent lags of a counting histogram over `1..=4096`,
//!   counted element by element so no count waits on the one before; a
//!   candidate `p` is scored as `popcount(bits ^ (bits << p))` over the
//!   set's words (or by a merge, for a sparse set), only as far as it
//!   could still win. Only the winner is encoded.
//! - **Load.** A periodic-XOR body is validated from its diff positions
//!   alone: each residue class mod `p` is switched on and off by the
//!   diffs in it, so the cardinality is the sum of the gaps between
//!   paired diffs over `p`, plus the tails of the classes still on. A
//!   bitset is validated by popcount (set bits below `records` =
//!   cardinality, none at or above it), and the varint containers by a
//!   walk that checks a strided run whole (strictly ascending, in range,
//!   exact count). Bodies of up to 22 bytes live inside their posting.
//! - **Query.** [`FrameSet::or_posting`] ORs bitset bodies straight into
//!   the set and reconstructs periodic-XOR bodies by a strided prefix-XOR
//!   over words (`p ≥ 64`: word `i` takes the already-final words `p` bits
//!   back; `p < 64`: a carry from the previous word, then
//!   `x ^= x << p, x << 2p, …` by doubling), and
//!   [`FrameSet::clamp_range`] masks words.
//!
//! None of this is visible in the bytes: the container choice, the
//! tie-breaks and every rejection are those of the index-at-a-time
//! routines, which live on under `#[cfg(test)]` as the oracles the
//! kernels are property-tested against.

use igm_lba::TraceBatch;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A query dimension of the posting index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Dim {
    /// 64-byte pc bucket (`pc >> 6`).
    PcBucket = 0,
    /// Coarse opcode class (see [`op_class`]).
    OpClass = 1,
    /// 4 KiB address page (`addr >> 12`) over every address slot.
    AddrPage = 2,
    /// Violation-relevant site kind (see [`site`]).
    Site = 3,
}

impl Dim {
    /// Every dimension, in wire order.
    pub const ALL: [Dim; 4] = [Dim::PcBucket, Dim::OpClass, Dim::AddrPage, Dim::Site];

    /// Wire id.
    #[inline]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses a wire id.
    pub fn from_u8(v: u8) -> Option<Dim> {
        match v {
            0 => Some(Dim::PcBucket),
            1 => Some(Dim::OpClass),
            2 => Some(Dim::AddrPage),
            3 => Some(Dim::Site),
            _ => None,
        }
    }

    /// Stable lowercase label (query params, JSON export).
    pub fn name(self) -> &'static str {
        match self {
            Dim::PcBucket => "pc",
            Dim::OpClass => "op",
            Dim::AddrPage => "page",
            Dim::Site => "site",
        }
    }
}

/// Bits a pc is shifted right by to form its [`Dim::PcBucket`] key.
pub const PC_BUCKET_SHIFT: u32 = 6;

/// Bits an address is shifted right by to form its [`Dim::AddrPage`] key.
pub const PAGE_SHIFT: u32 = 12;

/// The coarse opcode classes of [`Dim::OpClass`], grouped by memory
/// effect — coarse on purpose: six keys keep the posting sets long and
/// run-compressible where per-opcode keys would shatter them.
pub mod op_class {
    use igm_isa::codes;

    /// Reads memory, writes none (loads, read-only ops).
    pub const LOAD: u32 = 0;
    /// Writes memory, reads none.
    pub const STORE: u32 = 1;
    /// Reads and writes memory (read-modify-write, mem↔mem, `Other`).
    pub const UPDATE: u32 = 2;
    /// Touches registers only.
    pub const COMPUTE: u32 = 3;
    /// Control transfer (branches, jumps, returns).
    pub const CTRL: u32 = 4;
    /// High-level annotation records (malloc/free/lock/syscall/…).
    pub const ANNOT: u32 = 5;

    /// Number of classes (valid keys are `0..COUNT`).
    pub const COUNT: u32 = 6;

    /// The class a field code belongs to.
    pub const fn of(code: u8) -> u32 {
        match code {
            codes::MEM_TO_REG | codes::DEST_REG_OP_MEM | codes::READ_ONLY => LOAD,
            codes::IMM_TO_MEM | codes::REG_TO_MEM => STORE,
            codes::MEM_SELF | codes::DEST_MEM_OP_REG | codes::MEM_TO_MEM | codes::OTHER => UPDATE,
            codes::IMM_TO_REG | codes::REG_SELF | codes::REG_TO_REG | codes::DEST_REG_OP_REG => {
                COMPUTE
            }
            codes::CTRL_DIRECT | codes::CTRL_INDIRECT | codes::CTRL_COND | codes::CTRL_RET => CTRL,
            _ => ANNOT,
        }
    }

    /// Stable lowercase label.
    pub fn name(class: u32) -> &'static str {
        match class {
            LOAD => "load",
            STORE => "store",
            UPDATE => "update",
            COMPUTE => "compute",
            CTRL => "ctrl",
            ANNOT => "annot",
            _ => "?",
        }
    }

    /// Parses a label back to its key.
    pub fn parse(s: &str) -> Option<u32> {
        match s {
            "load" => Some(LOAD),
            "store" => Some(STORE),
            "update" => Some(UPDATE),
            "compute" => Some(COMPUTE),
            "ctrl" => Some(CTRL),
            "annot" => Some(ANNOT),
            _ => None,
        }
    }
}

/// The sparse site kinds of [`Dim::Site`] — the record shapes lifeguard
/// violations anchor to (allocation lifetime events, taint sinks,
/// control-transfer targets). Most records have no site, which is what
/// keeps this dimension nearly free.
pub mod site {
    use igm_isa::codes;

    /// `malloc` annotation.
    pub const ALLOC: u32 = 0;
    /// `free` annotation (double/invalid-free site).
    pub const FREE: u32 = 1;
    /// `lock` annotation.
    pub const LOCK: u32 = 2;
    /// `unlock` annotation.
    pub const UNLOCK: u32 = 3;
    /// Tainted-input annotation.
    pub const INPUT: u32 = 4;
    /// Syscall annotation (taint sink).
    pub const SYSCALL: u32 = 5;
    /// Printf-format annotation (taint sink).
    pub const PRINTF: u32 = 6;
    /// Indirect control transfer (taint sink / CFI site).
    pub const JUMP: u32 = 7;
    /// Return (stack-slot control transfer).
    pub const RET: u32 = 8;
    /// Thread switch/exit annotation.
    pub const THREAD: u32 = 9;

    /// Number of site kinds (valid keys are `0..COUNT`).
    pub const COUNT: u32 = 10;

    /// The site kind a field code anchors, if any.
    pub const fn of(code: u8) -> Option<u32> {
        match code {
            codes::ANN_MALLOC => Some(ALLOC),
            codes::ANN_FREE => Some(FREE),
            codes::ANN_LOCK => Some(LOCK),
            codes::ANN_UNLOCK => Some(UNLOCK),
            codes::ANN_READ_INPUT => Some(INPUT),
            codes::ANN_SYSCALL => Some(SYSCALL),
            codes::ANN_PRINTF => Some(PRINTF),
            codes::CTRL_INDIRECT => Some(JUMP),
            codes::CTRL_RET => Some(RET),
            codes::ANN_THREAD_SWITCH | codes::ANN_THREAD_EXIT => Some(THREAD),
            _ => None,
        }
    }

    /// Stable lowercase label.
    pub fn name(kind: u32) -> &'static str {
        match kind {
            ALLOC => "alloc",
            FREE => "free",
            LOCK => "lock",
            UNLOCK => "unlock",
            INPUT => "input",
            SYSCALL => "syscall",
            PRINTF => "printf",
            JUMP => "jump",
            RET => "ret",
            THREAD => "thread",
            _ => "?",
        }
    }

    /// Parses a label back to its key.
    pub fn parse(s: &str) -> Option<u32> {
        match s {
            "alloc" => Some(ALLOC),
            "free" => Some(FREE),
            "lock" => Some(LOCK),
            "unlock" => Some(UNLOCK),
            "input" => Some(INPUT),
            "syscall" => Some(SYSCALL),
            "printf" => Some(PRINTF),
            "jump" => Some(JUMP),
            "ret" => Some(RET),
            "thread" => Some(THREAD),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Varints (self-contained LEB128; posting bodies are their own format).
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros()).div_ceil(7) as usize
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

// ---------------------------------------------------------------------------
// Word kernels: index sets as little-endian 64-bit words, bit `i & 63`
// of word `i >> 6` standing for frame-local index `i`.
// ---------------------------------------------------------------------------

/// Words needed for one bit per record.
fn word_count(records: u32) -> usize {
    records.div_ceil(64) as usize
}

/// A word with its low `n` bits set (`n ≥ 64`: all of them).
fn low_mask(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Up to eight little-endian bytes as one word (a bitset body's bytes
/// are exactly the words' bytes, so no bit is reordered).
fn le_word(chunk: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(b)
}

/// Clears the bits at and above `records` in the last of the
/// [`word_count`]`(records)` words.
fn trim_tail(words: &mut [u64], records: u32) {
    let tail = records as u64 % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= low_mask(tail);
        }
    }
}

/// The indices of the set bits of a word stream, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = u32> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let b = w.trailing_zeros();
            w &= w - 1;
            Some(wi as u32 * 64 + b)
        })
    })
}

/// Sets `words` to the membership of a sorted index list, one bit per
/// record. The word being filled stays in a register and is stored whole
/// after every element, so consecutive elements of one word do not wait
/// on each other through memory.
fn set_words(sorted: &[u32], records: u32, words: &mut Vec<u64>) {
    words.clear();
    words.resize(word_count(records), 0);
    let (mut word, mut at) = (0u64, 0usize);
    for &v in sorted {
        let w = (v >> 6) as usize;
        word = (if w == at { word } else { 0 }) | 1 << (v & 63);
        at = w;
        words[w] = word;
    }
}

/// Writes `bits ^ (bits << p)`, masked to `records`, into `out`: the
/// positions where membership differs from itself `p` records earlier
/// (positions below `p` differ from zero). `bits` holds exactly
/// [`word_count`]`(records)` words, none with a bit at or above `records`.
fn diff_words(bits: &[u64], p: u32, records: u32, out: &mut Vec<u64>) {
    let (q, r) = ((p / 64) as usize, p % 64);
    out.clear();
    out.extend_from_slice(bits);
    // Two plain zips (the shift left, then the bits it pushed over the
    // word boundary), so each vectorises.
    for (o, &w) in out.iter_mut().skip(q).zip(bits) {
        *o ^= w << r;
    }
    if r != 0 {
        for (o, &w) in out.iter_mut().skip(q + 1).zip(bits) {
            *o ^= w >> (64 - r);
        }
    }
    trim_tail(out, records);
}

/// [`diff_words`] for a set given as its sorted index list, into a sorted
/// list: the symmetric difference of the set and the set moved up by `p`
/// (a position differs from `p` earlier when exactly one of the two holds
/// it), by one merge. Costs the set's size, not the frame's. Gives up
/// (`None`, `out` partial) as soon as there are more than `cap` positions.
fn diff_sorted(sorted: &[u32], p: u32, records: u32, cap: usize, out: &mut Vec<u32>) -> Option<()> {
    debug_assert!(p < records, "a period is below the record count");
    // The elements that, moved up by `p`, stay inside the frame.
    let moved = &sorted[..sorted.partition_point(|&v| v < records - p)];
    out.clear();
    out.resize(sorted.len() + moved.len(), 0);
    // A merge without a branch on which side is smaller: the smaller
    // head is written, kept when the heads differ, and its side advances
    // (both sides, past a position held by both).
    let (mut a, mut b, mut n) = (0usize, 0usize, 0usize);
    while a < sorted.len() && b < moved.len() {
        let (x, y) = (sorted[a], moved[b] + p);
        out[n] = x.min(y);
        n += (x != y) as usize;
        a += (x <= y) as usize;
        b += (y <= x) as usize;
        if n > cap {
            return None;
        }
    }
    for v in sorted[a..].iter().copied().chain(moved[b..].iter().map(|v| v + p)) {
        out[n] = v;
        n += 1;
    }
    out.truncate(n);
    (n <= cap).then_some(())
}

/// The number of set bits of [`diff_words`]`(bits, p, records)`, counted
/// in one pass without writing the diff, or `None` as soon as it passes
/// `cap`. Word `i` of the diff is `bits[i]` against `bits` moved up by
/// `p`: `bits[i - q] << r` plus the top `r` bits of `bits[i - q - 1]`.
fn diff_count(bits: &[u64], p: u32, records: u32, cap: usize) -> Option<usize> {
    let (q, r) = ((p / 64) as usize, p % 64);
    let n = bits.len();
    debug_assert!(q < n, "a period is below the record count");
    // `w >> (64 - r)`, zero at `r = 0` without an out-of-range shift.
    let carry = move |w: u64| (w >> 1) >> (63 - r);
    let word =
        |i: usize| bits[i] ^ (bits[i - q] << r) ^ if i > q { carry(bits[i - q - 1]) } else { 0 };
    // Below `q` words nothing has moved in; the last word is masked to
    // the frame below, so the blocks cover `q..n - 1`.
    let mut count = bits[..q].iter().map(|w| w.count_ones() as usize).sum::<usize>();
    let mut i = q;
    if i < n - 1 {
        count += word(i).count_ones() as usize;
        i += 1;
    }
    while i < n - 1 {
        let end = (i + 32).min(n - 1);
        count += bits[i..end]
            .iter()
            .zip(&bits[i - q..end - q])
            .zip(&bits[i - q - 1..end - q - 1])
            .map(|((&w, &a), &b)| (w ^ (a << r) ^ carry(b)).count_ones() as usize)
            .sum::<usize>();
        if count > cap {
            return None;
        }
        i = end;
    }
    count += (word(n - 1) & low_mask(records as u64 - 64 * (n as u64 - 1))).count_ones() as usize;
    (count <= cap).then_some(count)
}

/// The inverse of [`diff_words`]: turns diff positions back into
/// membership in place, `bit[i] ^= bit[i - p]` for ascending `i`, one
/// word at a time. A period of a word or more reads only words already
/// final; a shorter one takes the previous word's top `p` bits as carry
/// and closes the in-word chain `x ^ x<<p ^ x<<2p ^ …` by doubling the
/// shift. Bits at and above the record count come out as garbage and
/// are the caller's to trim (they never feed a lower bit).
fn prefix_xor_stride(words: &mut [u64], p: u32) {
    debug_assert!(p > 0, "a zero period never leaves `decode_pxor`");
    let (q, r) = ((p / 64) as usize, p % 64);
    if q == 0 {
        let mut carry = 0u64;
        for w in words.iter_mut() {
            let mut x = *w ^ (carry >> (64 - r));
            let mut shift = r;
            while shift < 64 {
                x ^= x << shift;
                shift *= 2;
            }
            *w = x;
            carry = x;
        }
    } else {
        for i in q..words.len() {
            let mut earlier = words[i - q] << r;
            if r != 0 && i > q {
                earlier |= words[i - q - 1] >> (64 - r);
            }
            words[i] ^= earlier;
        }
    }
}

// ---------------------------------------------------------------------------
// Containers.
// ---------------------------------------------------------------------------

/// Container encodings. Size ties break toward the lowest-numbered
/// kind that is not [`KIND_PXOR`] (runs, array, bitset decode without a
/// reconstruction pass).
const KIND_RUNS: u8 = 0;
const KIND_ARRAY: u8 = 1;
const KIND_BITSET: u8 = 2;
/// Periodic-XOR: `varint(P)` then varint gaps of the positions where
/// the membership bitmap differs from itself shifted right by `P`
/// (positions `< P` diff against zero). Loop-structured traces put a
/// dimension key at the same offsets of every iteration, so the diff
/// set degenerates to the loop's *perturbations* — this is the
/// container that keeps dense periodic dimensions (op class, hot
/// pages) at a few hundredths of a byte per record.
const KIND_PXOR: u8 = 3;

/// Longest period the periodic-XOR probe considers.
const MAX_PERIOD: u32 = 4096;

/// The strided runs of `sorted`, front to back, as `(first, step, len)`:
/// a run needs at least three same-step terms (pairs cost as much as two
/// singletons and can split a longer run behind them), and every element
/// no run takes is a run of one at step 1.
fn strided_runs(sorted: &[u32]) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
    let mut k = 0usize;
    std::iter::from_fn(move || {
        let &first = sorted.get(k)?;
        let (step, len) = match sorted.get(k..k + 3) {
            Some(&[a, b, c]) if b - a == c - b => {
                let mut end = k + 3;
                while sorted.get(end).is_some_and(|&v| v - sorted[end - 1] == b - a) {
                    end += 1;
                }
                (b - a, end - k)
            }
            _ => (1, 1),
        };
        k += len;
        Some((first, step, len as u32))
    })
}

/// Calls `f` with every varint of the strided-run encoding of `sorted`,
/// in wire order: per run `gap, len-1[, step-1]`.
fn for_each_run_varint(sorted: &[u32], mut f: impl FnMut(u64)) {
    let mut next_min = 0u32;
    for (first, step, len) in strided_runs(sorted) {
        f((first - next_min) as u64);
        f((len - 1) as u64);
        if len > 1 {
            f((step - 1) as u64);
        }
        next_min = first + step * (len - 1) + 1;
    }
}

/// [`varint_len`] of a `u32`, by comparisons alone, so that sums of it
/// vectorise.
fn varint_len32(v: u32) -> u32 {
    1 + (v >> 7 != 0) as u32 + (v >> 14 != 0) as u32 + (v >> 21 != 0) as u32 + (v >> 28 != 0) as u32
}

/// Bytes of the gap encoding of an ascending list ([`for_each_gap`]).
fn gaps_len(sorted: &[u32]) -> usize {
    let Some(&first) = sorted.first() else { return 0 };
    let rest: u32 = sorted.iter().zip(&sorted[1..]).map(|(&a, &b)| varint_len32(b - a - 1)).sum();
    (varint_len32(first) + rest) as usize
}

/// The byte lengths of the runs and the array encodings of `sorted`, as
/// far as a choice against a bitset of `bitset` bytes needs them: the
/// array's exact up to `bitset` and `bitset + 1` past it, the runs' exact
/// up to the smaller of the two and one more past that. Runs win ties
/// with the array and both win ties with the bitset, so the capped
/// lengths make the same choice. The array is its gaps', at least a byte
/// per element. The runs walk stops at the first run that takes it past
/// its cap, so a set the array or the bitset wins is walked only that far.
fn runs_and_array_len(sorted: &[u32], bitset: usize) -> (usize, usize) {
    let array = if sorted.len() > bitset { bitset + 1 } else { gaps_len(sorted).min(bitset + 1) };
    let cap = array.min(bitset);
    let mut runs = 0usize;
    let mut next_min = 0u32;
    for (first, step, len) in strided_runs(sorted) {
        runs += varint_len32(first - next_min) as usize + varint_len32(len - 1) as usize;
        if len > 1 {
            runs += varint_len32(step - 1) as usize;
        }
        if runs > cap {
            return (cap + 1, array);
        }
        next_min = first + step * (len - 1) + 1;
    }
    (runs, array)
}

/// Calls `f` with the distance from every element of `sorted` to each
/// of the eight after it, up to [`MAX_PERIOD`], element by element: the
/// eight lags of one element are distinct (they ascend), so counting
/// them never waits on a counter just written.
fn for_each_lag(sorted: &[u32], mut f: impl FnMut(u32)) {
    for (i, &from) in sorted.iter().enumerate() {
        let next = &sorted[i + 1..sorted.len().min(i + 9)];
        match <&[u32; 8]>::try_from(next) {
            // All eight in range, no test per lag: 77–97 % of the
            // elements the builder counts on gcc, mcf, gzip and parser,
            // and `PostingBuilder::frame` 5–8 % faster (2 vCPUs) than
            // with the general loop alone.
            Ok(next) if next[7] - from <= MAX_PERIOD => next.iter().for_each(|&to| f(to - from)),
            _ => {
                for &to in next {
                    if to - from > MAX_PERIOD {
                        break;
                    }
                    f(to - from);
                }
            }
        }
    }
}

/// Calls `f` with every varint of the gap encoding of an ascending
/// index stream: each index as its distance from one past the previous.
fn for_each_gap(indices: impl Iterator<Item = u32>, mut f: impl FnMut(u64)) {
    let mut next_min = 0u32;
    for v in indices {
        f((v - next_min) as u64);
        next_min = v + 1;
    }
}

/// Reconstructs a periodic-XOR body into `words` (resized to
/// [`word_count`]`(records)`): the diff positions as set bits, then the
/// strided prefix-XOR. `None` on any malformed byte.
fn decode_pxor(body: &[u8], records: u32, words: &mut Vec<u64>) -> Option<()> {
    let mut pos = 0usize;
    let p = get_varint(body, &mut pos)?;
    if p == 0 || p > MAX_PERIOD as u64 || p >= records as u64 {
        return None;
    }
    words.clear();
    words.resize(word_count(records), 0);
    let mut next_min = 0u64;
    while pos < body.len() {
        let gap = get_varint(body, &mut pos)?;
        let v = next_min.checked_add(gap)?;
        if v >= records as u64 {
            return None;
        }
        words[(v >> 6) as usize] |= 1 << (v & 63);
        next_min = v + 1;
    }
    prefix_xor_stride(words, p as u32);
    trim_tail(words, records);
    Some(())
}

/// The number of members [`decode_pxor`] reconstructs from `body`,
/// counted without reconstructing: `None` on exactly the bodies it
/// refuses. Membership at `i` is membership at `i - p` toggled by a diff
/// at `i`, so each residue class mod `p` is a chain of its own, switched
/// on by one diff in it and off by the next. A diff that switches its
/// class on adds the class positions from it to the end of the frame; the
/// next one takes its own such tail away again, leaving the gap between
/// the two divided by `p`.
fn pxor_cardinality(body: &[u8], records: u32) -> Option<u64> {
    let mut pos = 0usize;
    let p = get_varint(body, &mut pos)?;
    if p == 0 || p > MAX_PERIOD as u64 || p >= records as u64 {
        return None;
    }
    let p = p as u32;
    // The on/off bit of each class: in one register for periods up to
    // 64 (98–100 % of the periodic-XOR postings on gcc, mcf, gzip and
    // parser, and `FramePostings::decode` 6–10 % faster (2 vCPUs) than
    // with the array alone), in an array beyond.
    let (mut narrow, mut wide) = (0u64, [0u64; MAX_PERIOD as usize / 64]);
    // With the last position at `last_q·p + last_c`, a diff at `q·p + c`
    // has `last_q - q + 1` positions of its class from it on, one fewer
    // when its class lies past `last_c`.
    let (last_q, last_c) = ((records - 1) / p, (records - 1) % p);
    // `v / p` and `v % p` by one multiply: the high word of `v·m`, with
    // `m = ⌊(2⁶⁴ - 1) / p⌋`, is the quotient or one less.
    let m = u64::MAX / p as u64;
    let (mut count, mut next_min) = (0i64, 0u64);
    while pos < body.len() {
        let v = next_min.checked_add(get_varint(body, &mut pos)?)?;
        if v >= records as u64 {
            return None;
        }
        next_min = v + 1;
        let q = ((v as u128 * m as u128) >> 64) as u32;
        let c = v as u32 - q * p;
        let short = (c >= p) as u32;
        let (q, c) = (q + short, c - short * p);
        let tail = (last_q - q + 1 - (c > last_c) as u32) as i64;
        let on = if p <= 64 {
            narrow ^= 1 << c;
            narrow >> c
        } else {
            let word = &mut wide[(c / 64) as usize];
            *word ^= 1 << (c % 64);
            *word >> (c % 64)
        };
        // Plus when this diff switched its class on, minus when off.
        count += tail * (2 * (on & 1) as i64 - 1);
    }
    Some(count as u64)
}

/// Reads the next run of a runs body (`gap, len-1[, step-1]`), or the
/// next element of an array body (`gap`: a run of one), at `*pos`, with
/// the smallest index it may start at `next_min`: its start, `len - 1`
/// and step. `None` on a truncated or overlong varint, or a field past
/// `u32`.
fn read_run(kind: u8, body: &[u8], pos: &mut usize, next_min: u64) -> Option<(u32, u32, u32)> {
    let gap = get_varint(body, pos)?;
    let (len_m1, step) = match kind {
        KIND_RUNS => {
            let len_m1 = get_varint(body, pos)?;
            let step = match len_m1 {
                0 => 1,
                _ => get_varint(body, pos)?.checked_add(1)?,
            };
            (len_m1, step)
        }
        _ => (0, 1),
    };
    let start = next_min.checked_add(gap)?;
    if start > u32::MAX as u64 || step > u32::MAX as u64 || len_m1 >= u32::MAX as u64 {
        return None;
    }
    Some((start as u32, len_m1 as u32, step as u32))
}

/// Validates a runs or array body as the element walk of
/// [`Posting::iter`] does: its first `cardinality` elements are there,
/// below `records` and strictly ascending (bytes after them are never
/// read). A run is checked whole, not element by element: its elements
/// ascend from a start above every earlier index until the first that
/// reaches `records`, which lies past the frame, or wrapped below its
/// predecessor.
fn validate_varints(
    kind: u8,
    body: &[u8],
    records: u32,
    cardinality: u32,
) -> Result<(), &'static str> {
    const PAST_FRAME: &str = "posting index past frame records";
    let records = records as u64;
    let (mut pos, mut next_min, mut left) = (0usize, 0u64, cardinality as u64);
    while left > 0 {
        let (start, len_m1, step) =
            read_run(kind, body, &mut pos, next_min).ok_or("malformed posting container")?;
        let (start, len_m1, step) = (start as u64, len_m1 as u64, step as u64);
        if start >= records {
            return Err(PAST_FRAME);
        }
        // Of the run's further elements, the walk reaches `left - 1`.
        let more = len_m1.min(left - 1);
        let last = start + more * step;
        if last >= records {
            let first_out = start + (records - start).div_ceil(step) * step;
            return Err(if first_out > u32::MAX as u64 {
                "posting indices not strictly ascending"
            } else {
                PAST_FRAME
            });
        }
        next_min = last + 1;
        left -= more + 1;
    }
    Ok(())
}

/// The verdict on a word-shaped container holding `total` set bits,
/// `in_range` of them below the frame's record count, against its
/// declared cardinality. An element-by-element walk that stops at the
/// first fault reports the same reason: it meets every in-range bit
/// before any bit past the frame, and runs dry only after both.
fn check_bit_counts(in_range: u64, total: u64, cardinality: u32) -> Result<(), &'static str> {
    let cardinality = cardinality as u64;
    if in_range < cardinality {
        return Err(if total > in_range {
            "posting index past frame records"
        } else {
            "malformed posting container"
        });
    }
    if in_range > cardinality {
        return Err("posting cardinality mismatch");
    }
    if total > in_range {
        return Err("posting index past frame records");
    }
    Ok(())
}

/// Body bytes a [`Posting`] holds in place: with the length and the tag,
/// the 24 bytes a `Vec` header takes anyway (`examples/index_split.rs`
/// prints the share of bodies per container kind that fit).
pub const INLINE_BODY: usize = 22;

/// A container body, inline up to [`INLINE_BODY`] bytes and on the heap
/// beyond: building or loading a posting allocates only for long bodies.
#[derive(Clone)]
enum Body {
    Inline(u8, [u8; INLINE_BODY]),
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Body>() == std::mem::size_of::<Vec<u8>>());

impl Body {
    fn new(bytes: &[u8]) -> Body {
        if bytes.len() <= INLINE_BODY {
            let mut inline = [0u8; INLINE_BODY];
            inline[..bytes.len()].copy_from_slice(bytes);
            Body::Inline(bytes.len() as u8, inline)
        } else {
            Body::Heap(bytes.into())
        }
    }
}

impl std::ops::Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Body::Inline(len, bytes) => &bytes[..*len as usize],
            Body::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        **self == **other
    }
}

impl Eq for Body {}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One posting: the set of frame-local record indices matching a
/// `(dim, key)` pair, held in its smallest container encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// The dimension.
    pub dim: Dim,
    /// The dimension key (pc bucket, class, page number, site kind).
    pub key: u32,
    /// Number of indices in the set.
    pub cardinality: u32,
    kind: u8,
    /// Record count of the owning frame — needed to bound the
    /// periodic-XOR reconstruction; known externally, so never wired.
    records: u32,
    body: Body,
}

/// Scratch for choosing and encoding one posting's container, reused
/// across the postings of a frame and the frames of a stream.
#[derive(Debug, Default)]
struct ContainerEncoder {
    /// The diff positions at the best period, ascending: what a
    /// periodic-XOR body gap-encodes. Left by [`Self::best_period`].
    diff: Vec<u32>,
    /// The sparse route's candidate being scored ([`diff_sorted`]).
    candidate: Vec<u32>,
    /// The dense route: the posting's membership as words, and
    /// [`diff_words`] of it at the winning period.
    bits: Vec<u64>,
    winner_diff: Vec<u64>,
    /// Lag histogram over `1..=MAX_PERIOD`; all zero between postings.
    lag_counts: Vec<u32>,
    /// The distinct lags `lag_counts` counts, in order of first sighting,
    /// at the front of room for every lag.
    lags_seen: Vec<u32>,
    /// The winning container's body, before it moves into its posting.
    body: Vec<u8>,
}

impl ContainerEncoder {
    /// Builds a posting from a sorted, duplicate-free index list by
    /// sizing every candidate container and encoding the smallest
    /// (deterministic: ties break toward runs, then array, then
    /// periodic-XOR, then bitset).
    fn build(&mut self, dim: Dim, key: u32, sorted: &[u32], records: u32) -> Posting {
        // Scoring a period costs the set's size by the merge and the
        // frame's size by the word kernel, which handles 64 positions a
        // step: a set is sparse when it has fewer elements than an eighth
        // of the frame's words.
        let sparse = sorted.len() * 8 < word_count(records);
        self.build_by_route(dim, key, sorted, records, sparse)
    }

    /// [`Self::build`] with the period-scoring route given; both routes
    /// produce the same posting.
    fn build_by_route(
        &mut self,
        dim: Dim,
        key: u32,
        sorted: &[u32],
        records: u32,
        sparse: bool,
    ) -> Posting {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(sorted.last().is_none_or(|&v| v < records));

        let bitset_len = records.div_ceil(8) as usize;
        let (runs_len, array_len) = runs_and_array_len(sorted, bitset_len);
        let others = runs_len.min(array_len).min(bitset_len);
        let period = self.best_period(sorted, records, sparse, others);
        let pxor_len = period.map_or(usize::MAX, |p| varint_len(p as u64) + gaps_len(&self.diff));

        let best = others.min(pxor_len);
        let body = &mut self.body;
        body.clear();
        let kind = if runs_len == best {
            for_each_run_varint(sorted, |v| put_varint(body, v));
            KIND_RUNS
        } else if array_len == best {
            for_each_gap(sorted.iter().copied(), |v| put_varint(body, v));
            KIND_ARRAY
        } else if let Some(p) = period.filter(|_| pxor_len == best) {
            put_varint(body, p as u64);
            for_each_gap(self.diff.iter().copied(), |v| put_varint(body, v));
            KIND_PXOR
        } else {
            set_words(sorted, records, &mut self.bits);
            body.extend(self.bits.iter().flat_map(|w| w.to_le_bytes()).take(bitset_len));
            KIND_BITSET
        };
        debug_assert_eq!(body.len(), best);
        let body = Body::new(body);
        Posting { dim, key, cardinality: sorted.len() as u32, kind, records, body }
    }

    /// The period whose periodic-XOR diff set is smallest, if a
    /// plausible period exists and its body could be `limit` bytes or
    /// fewer; leaves the diff positions in `self.diff`.
    ///
    /// Candidates are the four most frequent lags (see
    /// [`Self::top_lags`]); the winner is the candidate with the fewest
    /// diff positions, ties toward the shorter period — fully
    /// deterministic, so writer-inline and offline-scan index builds
    /// stay byte-identical. A candidate's diff set comes from the merge
    /// over the index list (`sparse`) or from the word kernel over the
    /// frame; they are the same set.
    ///
    /// A candidate is scored only up to the most diff positions it may
    /// have and still be chosen: a body within `limit` (every position
    /// costs a byte or more), and fewer positions than the best so far
    /// (as many, with a shorter period). Dropping the candidates that
    /// overrun `limit` picks the same period: when the best one overruns
    /// it, so does every other, which has more positions or a period as
    /// long.
    fn best_period(
        &mut self,
        sorted: &[u32],
        records: u32,
        sparse: bool,
        limit: usize,
    ) -> Option<u32> {
        if sorted.len() < 8 || records < 16 {
            return None;
        }
        let top = self.top_lags(&sorted[..sorted.len().min(512)]);
        if !sparse && top[0].0 > 0 {
            set_words(sorted, records, &mut self.bits);
        }
        let mut best: Option<(usize, u32)> = None;
        for &(_, p) in top.iter().filter(|(count, _)| *count > 0) {
            let Some(mut cap) = limit.checked_sub(varint_len(p as u64)) else { continue };
            if let Some((diffs, best_p)) = best {
                match if p < best_p { Some(diffs) } else { diffs.checked_sub(1) } {
                    Some(room) => cap = cap.min(room),
                    None => continue,
                }
            }
            let diffs = if sparse {
                diff_sorted(sorted, p, records, cap, &mut self.candidate)
                    .map(|()| self.candidate.len())
            } else {
                diff_count(&self.bits, p, records, cap)
            };
            if let Some(diffs) = diffs {
                best = Some((diffs, p));
                if sparse {
                    std::mem::swap(&mut self.diff, &mut self.candidate);
                }
            }
        }
        let (_, p) = best?;
        if !sparse {
            diff_words(&self.bits, p, records, &mut self.winner_diff);
            self.diff.clear();
            self.diff.extend(set_bits(self.winner_diff.iter().copied()));
        }
        Some(p)
    }

    /// The four most frequent lags of `prefix`, a sorted index list —
    /// recurring distances up to [`MAX_PERIOD`] between each element and
    /// the eight after it — best first: count descending, then lag
    /// ascending, `(0, _)` for a slot no lag filled.
    fn top_lags(&mut self, prefix: &[u32]) -> [(u32, u32); 4] {
        self.lag_counts.resize(MAX_PERIOD as usize + 1, 0);
        // Room for every distinct lag, so a first sighting is recorded by
        // a store that always happens and a cursor that moves only then.
        self.lags_seen.resize(MAX_PERIOD as usize + 1, 0);
        let (counts, seen) = (&mut self.lag_counts, &mut self.lags_seen);
        let mut distinct = 0usize;
        for_each_lag(prefix, |lag| {
            let count = &mut counts[lag as usize];
            seen[distinct] = lag;
            distinct += (*count == 0) as usize;
            *count += 1;
        });
        // Top four by insertion into a best-first array; `(0, _)` marks
        // an empty slot and loses to every counted lag. A lag that does
        // not beat the fourth slot cannot enter, so it only clears its
        // counter.
        let mut top = [(0u32, 0u32); 4];
        for &lag in &seen[..distinct] {
            let mut cand = (std::mem::take(&mut counts[lag as usize]), lag);
            let last = top[3];
            if cand.0 < last.0 || (cand.0 == last.0 && cand.1 > last.1) {
                continue;
            }
            for slot in &mut top {
                if cand.0 > slot.0 || (cand.0 == slot.0 && cand.1 < slot.1) {
                    std::mem::swap(slot, &mut cand);
                }
            }
        }
        top
    }
}

impl Posting {
    /// Encoded container body size in bytes (the per-posting header is
    /// accounted separately by [`FramePostings::encode`]).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The container kind's lowercase label (`"runs"`, `"array"`,
    /// `"bitset"`, `"pxor"`).
    pub fn container_kind(&self) -> &'static str {
        match self.kind {
            KIND_RUNS => "runs",
            KIND_ARRAY => "array",
            KIND_PXOR => "pxor",
            _ => "bitset",
        }
    }

    /// Iterates the frame-local indices in ascending order.
    pub fn iter(&self) -> PostingIter<'_> {
        // Periodic-XOR needs a reconstruction pass; materialize it as an
        // owned bitset and iterate that.
        let (kind, owned, malformed) = if self.kind == KIND_PXOR {
            let mut words = Vec::new();
            match decode_pxor(&self.body, self.records, &mut words) {
                Some(()) => {
                    let bits = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                    (KIND_BITSET, Some(bits), false)
                }
                None => (KIND_BITSET, None, true),
            }
        } else {
            (self.kind, None, false)
        };
        PostingIter {
            kind,
            body: &self.body,
            owned,
            malformed,
            pos: 0,
            next_min: 0,
            run_next: 0,
            run_step: 0,
            run_left: 0,
            emitted: 0,
            cardinality: self.cardinality,
        }
    }

    /// Validates a container body: every index strictly ascending,
    /// below `records`, and exactly `cardinality` of them, refusing with
    /// the reason an element-by-element walk stops at. The varint
    /// containers are walked a run at a time ([`validate_varints`]); a
    /// bitset is ascending by construction, so two popcounts settle the
    /// rest; a periodic-XOR body is counted from its diff positions
    /// ([`pxor_cardinality`]), never rebuilt.
    fn validate(&self, records: u32) -> Result<(), &'static str> {
        match self.kind {
            KIND_BITSET => {
                let words = self.body.chunks_exact(8);
                let tail = le_word(words.remainder()).count_ones() as u64;
                let total = tail + words.map(|w| le_word(w).count_ones() as u64).sum::<u64>();
                // The bits at and past `records`: a part of one byte,
                // then whole bytes.
                let rest = self.body.get(records as usize / 8..).unwrap_or_default();
                let past = rest.iter().enumerate().map(|(i, &b)| match i {
                    0 => (b >> (records % 8)).count_ones() as u64,
                    _ => b.count_ones() as u64,
                });
                let in_range = total - past.sum::<u64>();
                check_bit_counts(in_range, total, self.cardinality)?;
                // One canonical length, so queries can OR the body
                // word for word.
                if self.body.len() != records.div_ceil(8) as usize {
                    return Err("malformed posting container");
                }
                Ok(())
            }
            KIND_PXOR => {
                let total =
                    pxor_cardinality(&self.body, records).ok_or("malformed posting container")?;
                check_bit_counts(total, total, self.cardinality)
            }
            kind => validate_varints(kind, &self.body, records, self.cardinality),
        }
    }
}

/// Iterator over a [`Posting`]'s frame-local indices. Yields
/// `Some(index)` per element; `None` as an item means the container
/// bytes are malformed (only possible on hand-corrupted sidecars —
/// [`FramePostings::decode`] validates eagerly, so postings obtained
/// from a loaded index never yield it).
#[derive(Debug)]
pub struct PostingIter<'a> {
    kind: u8,
    body: &'a [u8],
    /// Materialized bitset for periodic-XOR containers.
    owned: Option<Vec<u8>>,
    malformed: bool,
    pos: usize,
    next_min: u32,
    run_next: u32,
    run_step: u32,
    run_left: u32,
    emitted: u32,
    cardinality: u32,
}

impl Iterator for PostingIter<'_> {
    type Item = Option<u32>;

    fn next(&mut self) -> Option<Option<u32>> {
        if self.malformed {
            self.malformed = false;
            self.emitted = self.cardinality;
            return Some(None);
        }
        if self.emitted >= self.cardinality {
            return None;
        }
        let item =
            match self.kind {
                KIND_RUNS if self.run_left > 0 => {
                    let v = self.run_next;
                    self.run_left -= 1;
                    self.run_next = v.wrapping_add(self.run_step);
                    self.next_min = v.wrapping_add(1);
                    Some(v)
                }
                KIND_RUNS => read_run(KIND_RUNS, self.body, &mut self.pos, self.next_min as u64)
                    .map(|(start, len_m1, step)| {
                        self.run_left = len_m1;
                        self.run_step = step;
                        self.run_next = start.wrapping_add(step);
                        self.next_min = start.wrapping_add(1);
                        start
                    }),
                KIND_ARRAY => read_run(KIND_ARRAY, self.body, &mut self.pos, self.next_min as u64)
                    .map(|(v, _, _)| {
                        self.next_min = v.wrapping_add(1);
                        v
                    }),
                _ => {
                    // Bitset: scan forward from next_min for the next set bit.
                    let bits = self.owned.as_deref().unwrap_or(self.body);
                    let mut v = self.next_min;
                    loop {
                        let byte = match bits.get((v >> 3) as usize) {
                            Some(&b) => b,
                            None => break None,
                        };
                        if byte >> (v & 7) == 0 {
                            v = (v & !7) + 8;
                            continue;
                        }
                        if byte & (1 << (v & 7)) != 0 {
                            self.next_min = v + 1;
                            break Some(v);
                        }
                        v += 1;
                    }
                }
            };
        if item.is_none() {
            // Malformed: stop after reporting once.
            self.emitted = self.cardinality;
            return Some(None);
        }
        self.emitted += 1;
        Some(item)
    }
}

// ---------------------------------------------------------------------------
// Per-frame posting sets.
// ---------------------------------------------------------------------------

/// [`KeyGroups::slot_of`]'s hasher: one folded 64 × 64 → 128-bit multiply
/// of the key under two secret words. SipHash costs several times that
/// for a 32-bit key, and an unkeyed multiply lets a producer choose pcs or
/// pages that collide; the secret is drawn from the standard library's
/// random hash keys, afresh for every builder.
#[derive(Debug, Clone, Copy)]
struct SlotHash([u64; 2]);

impl Default for SlotHash {
    fn default() -> SlotHash {
        let random = RandomState::new();
        SlotHash([random.hash_one(0u8), random.hash_one(1u8) | 1])
    }
}

impl BuildHasher for SlotHash {
    type Hasher = SlotHasher;

    fn build_hasher(&self) -> SlotHasher {
        SlotHasher { secret: self.0, hash: 0 }
    }
}

/// One [`SlotHash`] hashing: the fold of the last word written.
struct SlotHasher {
    secret: [u64; 2],
    hash: u64,
}

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.hash.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u32(&mut self, key: u32) {
        self.write_u64(key as u64);
    }

    fn write_u64(&mut self, word: u64) {
        let product = (word ^ self.secret[0]) as u128 * self.secret[1] as u128;
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One key of a [`KeyGroups`] frame.
#[derive(Debug, Clone, Copy)]
struct KeySlot {
    key: u32,
    /// Indices filed under the key.
    len: u32,
    /// The last of them (a record listing a key twice counts once).
    last: u32,
    /// Where the key's indices start in [`KeyGroups::indices`].
    start: u32,
}

/// A run of consecutive record indices filed under one slot.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    slot: u32,
    first: u32,
    last: u32,
}

/// The index sets of one wide dimension (pc buckets, address pages),
/// grouped by key with a counting sort: records file their indices
/// under their key's slot, then one scatter pass lays the indices out
/// slot by slot. Records arrive in index order, so every group comes out
/// ascending and nothing is sorted but the handful of distinct keys.
/// Consecutive records mostly stay in one code bucket or page, so the
/// indices are filed as segments of consecutive ones, and the open
/// segment grows in place: a record that extends it writes nothing. All
/// storage is flat, sized by the frame, and kept from frame to frame.
#[derive(Debug, Default)]
struct KeyGroups {
    slot_of: HashMap<u32, u32, SlotHash>,
    slots: Vec<KeySlot>,
    /// Closed segments in arrival order.
    filed: Vec<Segment>,
    /// The key of the open segment, if one is open.
    open_key: Option<u32>,
    open: Segment,
    /// Indices filed under the open key since it opened, the open
    /// segment's included (added to its slot's count on close).
    open_len: u32,
    /// Slots in ascending key order, and the indices grouped by slot.
    order: Vec<u32>,
    indices: Vec<u32>,
}

impl KeyGroups {
    fn clear(&mut self) {
        self.slot_of.clear();
        self.slots.clear();
        self.filed.clear();
        self.open_key = None;
    }

    /// Files record `i` under `key`; `i` never decreases between calls.
    fn push(&mut self, key: u32, i: u32) {
        if self.open_key == Some(key) {
            let open = &mut self.open;
            self.open_len += (i != open.last) as u32;
            if i <= open.last + 1 {
                open.last = i;
                return;
            }
            self.filed.push(*open);
            *open = Segment { slot: open.slot, first: i, last: i };
            return;
        }
        self.close();
        let slot = *self.slot_of.entry(key).or_insert(self.slots.len() as u32);
        if slot as usize == self.slots.len() {
            self.slots.push(KeySlot { key, len: 0, last: u32::MAX, start: 0 });
        }
        if self.slots[slot as usize].last != i {
            self.open_key = Some(key);
            self.open = Segment { slot, first: i, last: i };
            self.open_len = 1;
        }
    }

    /// Files the open segment, if any.
    fn close(&mut self) {
        if self.open_key.take().is_some() {
            let open = self.open;
            let s = &mut self.slots[open.slot as usize];
            s.len += self.open_len;
            s.last = open.last;
            self.filed.push(open);
        }
    }

    /// The frame's `(key, ascending indices)` groups in ascending key
    /// order.
    fn groups(&mut self) -> impl Iterator<Item = (u32, &[u32])> {
        self.close();
        let slots = &mut self.slots;
        self.order.clear();
        self.order.extend(0..slots.len() as u32);
        self.order.sort_unstable_by_key(|&s| slots[s as usize].key);
        let mut start = 0u32;
        for &s in &self.order {
            slots[s as usize].start = start;
            start += slots[s as usize].len;
        }
        self.indices.clear();
        self.indices.resize(start as usize, 0);
        // `last` has served its purpose; reuse it as the scatter cursor.
        slots.iter_mut().for_each(|s| s.last = s.start);
        for seg in &self.filed {
            let s = &mut slots[seg.slot as usize];
            let at = s.last as usize;
            let len = (seg.last - seg.first + 1) as usize;
            for (out, i) in self.indices[at..at + len].iter_mut().zip(seg.first..) {
                *out = i;
            }
            s.last += len as u32;
        }
        let (slots, indices) = (&self.slots, &self.indices);
        self.order.iter().map(move |&s| {
            let s = slots[s as usize];
            (s.key, &indices[s.start as usize..(s.start + s.len) as usize])
        })
    }
}

/// Extraction's view of a record, per `(code, flags & 3)`: the address
/// slots it owns (bits 0–1), its [`op_class`] (bits 2–4) and its [`site`]
/// kind plus one, zero for none (bits 5–8) — three matches on the record
/// shape as one lookup.
static SHAPES: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < table.len() {
        let (code, flags) = ((i >> 2) as u8, (i & 3) as u8);
        let (mems, plains, _) = crate::codec::stream_shape(code, flags);
        let site = match site::of(code) {
            Some(kind) => kind + 1,
            None => 0,
        };
        table[i] = (mems + plains) as u16 | (op_class::of(code) as u16) << 2 | (site as u16) << 5;
        i += 1;
    }
    table
};

/// Inverts batches into [`FramePostings`]. Owns every scratch buffer of
/// the build — the key grouping, the membership words and lag histogram
/// of the container choice — so an index builder that keeps one of
/// these across frames allocates only the postings it emits (and their
/// bodies too long to hold in place).
#[derive(Debug, Default)]
pub(crate) struct PostingBuilder {
    ops: [Vec<u32>; op_class::COUNT as usize],
    sites: [Vec<u32>; site::COUNT as usize],
    pcs: KeyGroups,
    pages: KeyGroups,
    encoder: ContainerEncoder,
}

impl PostingBuilder {
    /// Extracts the four dimensions from a batch's columns and inverts
    /// them into postings, emitted in `(dim wire id, key)` order.
    pub(crate) fn frame(&mut self, batch: &TraceBatch) -> FramePostings {
        let records = batch.len() as u32;
        self.ops.iter_mut().chain(&mut self.sites).for_each(Vec::clear);
        self.pcs.clear();
        self.pages.clear();
        let addrs = batch.addrs();
        let mut ai = 0usize;
        let columns = batch.codes().iter().zip(batch.flag_bytes()).zip(batch.pcs());
        for (i, ((&code, &flags), &pc)) in columns.enumerate() {
            let i = i as u32;
            let shape = SHAPES[(code as usize) << 2 | (flags & 3) as usize];
            self.pcs.push(pc >> PC_BUCKET_SHIFT, i);
            self.ops[(shape >> 2 & 7) as usize].push(i);
            if shape >> 5 != 0 {
                self.sites[(shape >> 5) as usize - 1].push(i);
            }
            for &addr in &addrs[ai..ai + (shape & 3) as usize] {
                self.pages.push(addr >> PAGE_SHIFT, i);
            }
            ai += (shape & 3) as usize;
        }
        debug_assert_eq!(ai, addrs.len(), "stream_shape must consume the whole addr stream");

        let encoder = &mut self.encoder;
        let (ops, sites) = (&self.ops, &self.sites);
        let present = |sets: &[Vec<u32>]| sets.iter().filter(|s| !s.is_empty()).count();
        let mut postings = Vec::with_capacity(
            self.pcs.slots.len() + present(ops) + self.pages.slots.len() + present(sites),
        );
        for (key, set) in self.pcs.groups() {
            postings.push(encoder.build(Dim::PcBucket, key, set, records));
        }
        for (key, set) in ops.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            postings.push(encoder.build(Dim::OpClass, key as u32, set, records));
        }
        for (key, set) in self.pages.groups() {
            postings.push(encoder.build(Dim::AddrPage, key, set, records));
        }
        for (key, set) in sites.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            postings.push(encoder.build(Dim::Site, key as u32, set, records));
        }
        FramePostings { postings }
    }
}

/// All postings of one frame, sorted by `(dim, key)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FramePostings {
    postings: Vec<Posting>,
}

impl FramePostings {
    /// Extracts the four dimensions from a batch's columns and inverts
    /// them into postings. Deterministic over column content: the
    /// writer building inline and an offline decode-scan of the
    /// finished stream produce identical postings.
    pub fn from_batch(batch: &TraceBatch) -> FramePostings {
        PostingBuilder::default().frame(batch)
    }

    /// The postings, sorted by `(dim, key)`.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// The posting for `(dim, key)`, if any record of the frame matched.
    pub fn get(&self, dim: Dim, key: u32) -> Option<&Posting> {
        let probe = (dim.as_u8(), key);
        self.postings
            .binary_search_by_key(&probe, |p| (p.dim.as_u8(), p.key))
            .ok()
            .map(|i| &self.postings[i])
    }

    /// Iterates the distinct keys present for one dimension.
    pub fn keys(&self, dim: Dim) -> impl Iterator<Item = &Posting> {
        self.postings.iter().filter(move |p| p.dim == dim)
    }

    /// Appends this frame's wire encoding: `varint(n)`, then per posting
    /// `dim u8, varint(key), varint(cardinality), kind u8,
    /// varint(body_len), body`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.postings.len() as u64);
        for p in &self.postings {
            out.push(p.dim.as_u8());
            put_varint(out, p.key as u64);
            put_varint(out, p.cardinality as u64);
            out.push(p.kind);
            put_varint(out, p.body.len() as u64);
            out.extend_from_slice(&p.body);
        }
    }

    /// Decodes and validates one frame's postings from `bytes` at
    /// `*pos`, for a frame of `records` records. Validation is eager
    /// (every container fully checked), so postings from a loaded
    /// sidecar are structurally sound by construction.
    pub fn decode(
        bytes: &[u8],
        pos: &mut usize,
        records: u32,
    ) -> Result<FramePostings, &'static str> {
        let n = get_varint(bytes, pos).ok_or("posting section truncated")?;
        if n > bytes.len() as u64 {
            return Err("posting count larger than section");
        }
        let mut postings = Vec::with_capacity(n as usize);
        let mut prev: Option<(u8, u32)> = None;
        for _ in 0..n {
            let dim_b = *bytes.get(*pos).ok_or("posting section truncated")?;
            *pos += 1;
            let dim = Dim::from_u8(dim_b).ok_or("unknown posting dimension")?;
            let key = get_varint(bytes, pos).ok_or("posting section truncated")?;
            if key > u32::MAX as u64 {
                return Err("posting key out of range");
            }
            let cardinality = get_varint(bytes, pos).ok_or("posting section truncated")?;
            if cardinality == 0 || cardinality > records as u64 {
                return Err("posting cardinality out of range");
            }
            let kind = *bytes.get(*pos).ok_or("posting section truncated")?;
            *pos += 1;
            if kind > KIND_PXOR {
                return Err("unknown posting container kind");
            }
            let len = get_varint(bytes, pos).ok_or("posting section truncated")?;
            let end = pos.checked_add(len as usize).ok_or("posting body length overflow")?;
            if len > bytes.len() as u64 || end > bytes.len() {
                return Err("posting body past section end");
            }
            let body = Body::new(&bytes[*pos..end]);
            *pos = end;
            if prev.is_some_and(|p| p >= (dim_b, key as u32)) {
                return Err("postings not sorted by (dim, key)");
            }
            prev = Some((dim_b, key as u32));
            let p = Posting {
                dim,
                key: key as u32,
                cardinality: cardinality as u32,
                kind,
                records,
                body,
            };
            p.validate(records)?;
            postings.push(p);
        }
        Ok(FramePostings { postings })
    }

    /// Total encoded size of every container body plus per-posting
    /// headers, in bytes — the index-overhead numerator. Computed from
    /// the header fields and body lengths; equals what
    /// [`FramePostings::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        let headers_and_bodies: usize = self
            .postings
            .iter()
            .map(|p| {
                let (key, card, len) = (p.key as u64, p.cardinality as u64, p.body.len());
                2 + varint_len(key) + varint_len(card) + varint_len(len as u64) + len
            })
            .sum();
        varint_len(self.postings.len() as u64) + headers_and_bodies
    }
}

// ---------------------------------------------------------------------------
// Frame-local bit sets for query evaluation.
// ---------------------------------------------------------------------------

/// A dense mutable bit set over one frame's records — the evaluation
/// scratch the query planner ORs postings into and ANDs across
/// dimensions. At most a few thousand records per frame, so this is a
/// few hundred bytes of stack-friendly scratch, reused frame to frame.
#[derive(Debug, Clone, Default)]
pub struct FrameSet {
    words: Vec<u64>,
    records: u32,
    /// Periodic-XOR reconstruction scratch for [`FrameSet::or_posting`].
    pxor: Vec<u64>,
}

impl FrameSet {
    /// An empty set over `records` records.
    pub fn empty(records: u32) -> FrameSet {
        FrameSet { words: vec![0; word_count(records)], records, pxor: Vec::new() }
    }

    /// Resets to the empty set over `records` records, reusing storage.
    pub fn reset(&mut self, records: u32) {
        self.words.clear();
        self.words.resize(word_count(records), 0);
        self.records = records;
    }

    /// Sets every bit in `[0, records)`.
    pub fn fill(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.trim();
    }

    /// ORs a posting's indices in: word for word where the container is
    /// (bitset) or reconstructs to (periodic-XOR) a bitmap, index by
    /// index for the varint containers.
    pub fn or_posting(&mut self, p: &Posting) {
        match p.kind {
            KIND_BITSET => {
                for (w, chunk) in self.words.iter_mut().zip(p.body.chunks(8)) {
                    *w |= le_word(chunk);
                }
            }
            KIND_PXOR => {
                if decode_pxor(&p.body, p.records, &mut self.pxor).is_some() {
                    for (w, bits) in self.words.iter_mut().zip(&self.pxor) {
                        *w |= bits;
                    }
                }
            }
            _ => {
                for v in p.iter().flatten() {
                    if v < self.records {
                        self.words[(v >> 6) as usize] |= 1 << (v & 63);
                    }
                }
            }
        }
        self.trim();
    }

    /// Intersects with `other` (`records` must match).
    pub fn and_assign(&mut self, other: &FrameSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Complements in place (within `[0, records)`).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
    }

    /// Clears bits outside a `[lo, hi)` frame-local range.
    pub fn clamp_range(&mut self, lo: u32, hi: u32) {
        for (wi, w) in self.words.iter_mut().enumerate() {
            let base = 64 * wi as u64;
            let below_hi = low_mask((hi as u64).saturating_sub(base));
            let below_lo = low_mask((lo as u64).saturating_sub(base));
            *w &= below_hi & !below_lo;
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(self.words.iter().copied())
    }

    fn trim(&mut self) {
        trim_tail(&mut self.words, self.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_lba::TraceBatch;
    use igm_workload::Benchmark;

    fn build(dim: Dim, key: u32, sorted: &[u32], records: u32) -> Posting {
        ContainerEncoder::default().build(dim, key, sorted, records)
    }

    fn roundtrip(sorted: &[u32], records: u32) {
        let p = build(Dim::PcBucket, 7, sorted, records);
        let got: Vec<u32> = p.iter().map(|v| v.expect("well-formed")).collect();
        assert_eq!(got, sorted, "container {} mangled the set", p.container_kind());
        p.validate(records).unwrap();
        // Wire roundtrip through a frame section.
        let fp = FramePostings { postings: vec![p] };
        let mut bytes = Vec::new();
        fp.encode(&mut bytes);
        let mut pos = 0;
        let back = FramePostings::decode(&bytes, &mut pos, records).unwrap();
        assert_eq!(back, fp);
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn containers_roundtrip_shapes() {
        roundtrip(&[0], 1);
        roundtrip(&[5], 100);
        roundtrip(&(0..100).collect::<Vec<_>>(), 100); // pure run
        roundtrip(&(0..500).map(|i| i * 7).collect::<Vec<_>>(), 3500); // strided
        roundtrip(&[0, 3, 4, 9, 11, 12, 40, 41, 42, 43, 44, 99], 100); // mixed
        roundtrip(&(0..256).map(|i| i * 2).collect::<Vec<_>>(), 512); // even bits
                                                                      // Dense irregular (bitset likely wins).
        let dense: Vec<u32> = (0..400).filter(|i| i % 17 != 3 && i % 5 != 1).collect();
        roundtrip(&dense, 400);
    }

    #[test]
    fn loop_shapes_compress_to_runs_or_pxor() {
        // A loop body of 10 records repeated 200 times: each record
        // shape sits at an arithmetic progression. Periodic-XOR stores
        // just the period and one bootstrap position.
        let set: Vec<u32> = (0..200u32).map(|i| i * 10 + 3).collect();
        let p = build(Dim::OpClass, 0, &set, 2000);
        assert_eq!(p.container_kind(), "pxor");
        assert!(p.body_len() <= 3, "period + bootstrap should be ~2 bytes, got {}", p.body_len());
        assert_eq!(p.iter().map(|v| v.unwrap()).collect::<Vec<_>>(), set);
        // A single run anchored near zero is still cheapest as a
        // strided run (no bootstrap gap to pay off).
        let set: Vec<u32> = (0..100u32).map(|i| i * 3).collect();
        let p = build(Dim::PcBucket, 0, &set, 2000);
        assert_eq!(p.container_kind(), "runs");
        assert!(p.body_len() <= 3, "one strided run should be 3 bytes, got {}", p.body_len());
    }

    #[test]
    fn periodic_xor_compresses_interleaved_phases() {
        // Two interleaved arithmetic progressions of the same period
        // defeat sequential run extraction (the stride alternates), but
        // the periodic XOR cancels both phases at once. A dropped
        // element mid-stream stays a local perturbation.
        let mut set: Vec<u32> = (0..300u32).flat_map(|i| [i * 7 + 1, i * 7 + 4]).collect();
        set.retain(|&v| v != 7 * 100 + 4);
        let p = build(Dim::AddrPage, 9, &set, 2100);
        assert_eq!(p.container_kind(), "pxor");
        assert!(p.body_len() <= 8, "two phases + a perturbation, got {}", p.body_len());
        assert_eq!(p.iter().map(|v| v.unwrap()).collect::<Vec<_>>(), set);
        p.validate(2100).unwrap();
        // Wire roundtrip preserves the container choice.
        let fp = FramePostings { postings: vec![p] };
        let mut bytes = Vec::new();
        fp.encode(&mut bytes);
        let mut pos = 0;
        assert_eq!(FramePostings::decode(&bytes, &mut pos, 2100).unwrap(), fp);
    }

    #[test]
    fn from_batch_inverts_every_dimension() {
        let mut batch = TraceBatch::new();
        batch.extend_entries(Benchmark::Gzip.trace(2_000));
        let fp = FramePostings::from_batch(&batch);
        // Every record appears exactly once in the op-class dimension.
        let total: u32 = fp.keys(Dim::OpClass).map(|p| p.cardinality).sum();
        assert_eq!(total, batch.len() as u32);
        // Same for pc buckets.
        let total: u32 = fp.keys(Dim::PcBucket).map(|p| p.cardinality).sum();
        assert_eq!(total, batch.len() as u32);
        // Membership agrees with a scalar re-derivation for one posting.
        let some_page = fp.keys(Dim::AddrPage).next().expect("gzip touches memory");
        let key = some_page.key;
        let mut expect = Vec::new();
        for (i, e) in batch.iter().enumerate() {
            let mut pages = Vec::new();
            e.op.for_each_addr(|a| pages.push(a >> PAGE_SHIFT));
            if pages.contains(&key) {
                expect.push(i as u32);
            }
        }
        let got: Vec<u32> = some_page.iter().map(|v| v.unwrap()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn key_groups_come_out_in_key_order_each_record_once() {
        let mut g = KeyGroups::default();
        // Two frames through one scratch; record 1 lists key 9 twice
        // with another key in between.
        for round in 0..2u32 {
            g.clear();
            for (key, i) in [(9, 0), (9, 1), (4, 1), (9, 1), (7 + round, 2), (4, 3), (4, 3)] {
                g.push(key, i);
            }
            let got: Vec<(u32, Vec<u32>)> = g.groups().map(|(k, s)| (k, s.to_vec())).collect();
            assert_eq!(got, vec![(4, vec![1, 3]), (7 + round, vec![2]), (9, vec![0, 1])]);
        }
    }

    #[test]
    fn frame_set_ops() {
        let mut a = FrameSet::empty(130);
        let p = build(Dim::PcBucket, 0, &[0, 64, 129], 130);
        a.or_posting(&p);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(a.count(), 3);
        let mut b = FrameSet::empty(130);
        b.fill();
        assert_eq!(b.count(), 130);
        b.and_assign(&a);
        assert_eq!(b.count(), 3);
        a.not_assign();
        assert_eq!(a.count(), 127);
        assert!(!a.iter().any(|v| v == 0 || v == 64 || v == 129));
        let mut c = FrameSet::empty(130);
        c.fill();
        c.clamp_range(10, 20);
        assert_eq!(c.iter().collect::<Vec<_>>(), (10..20).collect::<Vec<_>>());
    }

    // -----------------------------------------------------------------
    // The word kernels against the index-at-a-time routines they
    // replaced. The oracles are those routines, kept as they were.
    // -----------------------------------------------------------------

    mod oracle {
        use super::super::*;

        /// The diff positions of `sorted` at period `p`: a merge of `S`
        /// and `S + p` (a diff has one of its two bits set), membership
        /// by binary search.
        pub fn diff_merge(sorted: &[u32], p: u32, records: u32) -> Vec<u32> {
            let get = |i: u32| sorted.binary_search(&i).is_ok() as u8;
            let mut diffs = Vec::new();
            let (mut a, mut b) = (0usize, 0usize);
            loop {
                let ia = sorted.get(a).copied().unwrap_or(u32::MAX);
                let ib = match sorted.get(b) {
                    Some(&v) if v + p < records => v + p,
                    _ => u32::MAX,
                };
                let i = ia.min(ib);
                if i == u32::MAX {
                    break;
                }
                let prev = if i >= p { get(i - p) } else { 0 };
                if get(i) ^ prev == 1 {
                    diffs.push(i);
                }
                a += (ia == i) as usize;
                b += (ib == i) as usize;
            }
            diffs
        }

        /// Periodic-XOR body by sorted lag list and merge scans.
        pub fn build_pxor(sorted: &[u32], records: u32) -> Option<Vec<u8>> {
            if sorted.len() < 8 || records < 16 {
                return None;
            }
            let m = sorted.len().min(512);
            let mut lags: Vec<u32> = Vec::new();
            for k in 1..=8usize.min(m - 1) {
                for i in 0..m - k {
                    let d = sorted[i + k] - sorted[i];
                    if d > 0 && d <= MAX_PERIOD && d < records {
                        lags.push(d);
                    }
                }
            }
            lags.sort_unstable();
            let mut cands: Vec<(u32, u32)> = Vec::new();
            let mut j = 0usize;
            while j < lags.len() {
                let p = lags[j];
                let mut c = 0u32;
                while j < lags.len() && lags[j] == p {
                    c += 1;
                    j += 1;
                }
                cands.push((c, p));
            }
            cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            cands.truncate(4);
            let mut best: Option<(Vec<u32>, u32)> = None;
            for &(_, p) in &cands {
                let diffs = diff_merge(sorted, p, records);
                let better = match &best {
                    None => true,
                    Some((b, bp)) => diffs.len() < b.len() || (diffs.len() == b.len() && p < *bp),
                };
                if better {
                    best = Some((diffs, p));
                }
            }
            let (diffs, p) = best?;
            let mut body = Vec::new();
            put_varint(&mut body, p as u64);
            let mut prev_plus_one = 0u32;
            for &v in &diffs {
                put_varint(&mut body, (v - prev_plus_one) as u64);
                prev_plus_one = v + 1;
            }
            Some(body)
        }

        /// Periodic-XOR reconstruction, one record at a time, into a
        /// byte bitset.
        pub fn decode_pxor(body: &[u8], records: u32) -> Option<Vec<u8>> {
            let mut pos = 0usize;
            let p = get_varint(body, &mut pos)?;
            if p == 0 || p > MAX_PERIOD as u64 || p >= records as u64 {
                return None;
            }
            let p = p as u32;
            let mut diffs = Vec::new();
            let mut next_min = 0u64;
            while pos < body.len() {
                let gap = get_varint(body, &mut pos)?;
                let v = next_min.checked_add(gap)?;
                if v >= records as u64 {
                    return None;
                }
                diffs.push(v as u32);
                next_min = v + 1;
            }
            let mut bits = vec![0u8; records.div_ceil(8) as usize];
            let mut di = 0usize;
            for i in 0..records {
                let prev =
                    if i >= p { bits[((i - p) >> 3) as usize] >> ((i - p) & 7) & 1 } else { 0 };
                let d = if diffs.get(di) == Some(&i) {
                    di += 1;
                    1
                } else {
                    0
                };
                if prev ^ d == 1 {
                    bits[(i >> 3) as usize] |= 1 << (i & 7);
                }
            }
            Some(bits)
        }

        /// Container choice by encoding all four and keeping the
        /// smallest: `(kind, body)`.
        pub fn build(sorted: &[u32], records: u32) -> (u8, Vec<u8>) {
            let mut runs = Vec::new();
            let mut next_min = 0u32;
            let mut k = 0usize;
            while k < sorted.len() {
                let (step, len) = if k + 2 < sorted.len()
                    && sorted[k + 1] - sorted[k] == sorted[k + 2] - sorted[k + 1]
                {
                    let step = sorted[k + 1] - sorted[k];
                    let mut len = 3usize;
                    while k + len < sorted.len() && sorted[k + len] - sorted[k + len - 1] == step {
                        len += 1;
                    }
                    (step, len)
                } else {
                    (1, 1)
                };
                let start = sorted[k];
                put_varint(&mut runs, (start - next_min) as u64);
                put_varint(&mut runs, (len - 1) as u64);
                if len > 1 {
                    put_varint(&mut runs, (step - 1) as u64);
                }
                next_min = start + step * (len as u32 - 1) + 1;
                k += len;
            }
            let mut array = Vec::new();
            let mut prev_plus_one = 0u32;
            for &v in sorted {
                put_varint(&mut array, (v - prev_plus_one) as u64);
                prev_plus_one = v + 1;
            }
            let pxor = build_pxor(sorted, records);
            let bitset_len = records.div_ceil(8) as usize;
            let pxor_len = pxor.as_ref().map_or(usize::MAX, |b| b.len());
            let best = runs.len().min(array.len()).min(pxor_len).min(bitset_len);
            if runs.len() == best {
                (KIND_RUNS, runs)
            } else if array.len() == best {
                (KIND_ARRAY, array)
            } else if pxor_len == best {
                (KIND_PXOR, pxor.unwrap())
            } else {
                let mut bits = vec![0u8; bitset_len];
                for &v in sorted {
                    bits[(v >> 3) as usize] |= 1 << (v & 7);
                }
                (KIND_BITSET, bits)
            }
        }

        /// Runs and array validation by walking every element.
        pub fn validate_by_walk(p: &Posting, records: u32) -> Result<(), &'static str> {
            let mut prev: Option<u32> = None;
            let mut n = 0u32;
            for v in p.iter() {
                let v = v.ok_or("malformed posting container")?;
                if v >= records {
                    return Err("posting index past frame records");
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err("posting indices not strictly ascending");
                }
                prev = Some(v);
                n += 1;
            }
            if n != p.cardinality {
                return Err("posting cardinality mismatch");
            }
            Ok(())
        }

        /// `clamp_range`, one record at a time.
        pub fn clamp_range(words: &mut [u64], records: u32, lo: u32, hi: u32) {
            for v in 0..records {
                if v < lo || v >= hi {
                    words[(v >> 6) as usize] &= !(1 << (v & 63));
                }
            }
        }
    }

    use proptest::prelude::*;

    /// Frame sizes on both sides of every word boundary that matters:
    /// multiples of 64 (no tail) and not (tail bits to mask).
    const RECORDS: [u32; 14] =
        [16, 63, 64, 65, 127, 128, 1000, 4096, 4097, 4160, 8191, 8192, 16129, 16384];

    /// A period of the given class, folded into the valid range
    /// `1..=min(MAX_PERIOD, records - 1)` when the class does not fit.
    fn period_of(class: u32, raw: u32, records: u32) -> u32 {
        let p = match class {
            0 => 1 + raw % 63,                       // below a word
            1 => 64,                                 // exactly a word
            2 => 64 * (1 + raw % (MAX_PERIOD / 64)), // whole words
            3 => (65 + raw % (MAX_PERIOD - 65)) | 1, // over a word, not whole
            4 => MAX_PERIOD,
            _ => records - 1,
        };
        if p <= MAX_PERIOD && p < records {
            p
        } else {
            1 + raw % (records - 1).min(MAX_PERIOD)
        }
    }

    /// A set with loop structure: the first `terms` indices congruent
    /// to each of `phases` modulo `p`, then membership toggled at each
    /// of `flips` — or, with no phases, just the flips (a sparse
    /// irregular set).
    fn periodic_set(records: u32, p: u32, phases: &[u32], terms: usize, flips: &[u32]) -> Vec<u32> {
        let mut member = vec![false; records as usize];
        for ph in phases {
            for i in ((ph % p)..records).step_by(p as usize).take(terms) {
                member[i as usize] = true;
            }
        }
        for f in flips {
            member[(f % records) as usize] ^= true;
        }
        (0..records).filter(|&i| member[i as usize]).collect()
    }

    fn words_of(sorted: &[u32], records: u32) -> Vec<u64> {
        let mut words = vec![0u64; word_count(records)];
        for &v in sorted {
            words[(v >> 6) as usize] |= 1 << (v & 63);
        }
        words
    }

    fn bytes_of(words: &[u64], records: u32) -> Vec<u8> {
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(records.div_ceil(8) as usize);
        bytes
    }

    fn pxor_body(p: u64, diffs: &[u32]) -> Vec<u8> {
        let mut body = Vec::new();
        put_varint(&mut body, p);
        for_each_gap(diffs.iter().copied(), |v| put_varint(&mut body, v));
        body
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Build kernel: `bits ^ (bits << p)` finds exactly the diff
        /// positions of the merge scan, and the strided prefix-XOR takes
        /// them back to the set exactly as the bit loop does — for every
        /// period class and with or without tail bits.
        #[test]
        fn shifted_xor_and_its_inverse_match_the_scalar_routines(
            records in (0usize..RECORDS.len()),
            class in 0u32..6,
            raw in any::<u32>(),
            phases in proptest::collection::vec(any::<u32>(), 0usize..5),
            terms in prop_oneof![3usize..40, Just(usize::MAX)],
            flips in prop_oneof![
                proptest::collection::vec(any::<u32>(), 0usize..3),
                proptest::collection::vec(any::<u32>(), 0usize..48),
            ],
        ) {
            let records = RECORDS[records];
            let p = period_of(class, raw, records);
            let set = periodic_set(records, p, &phases, terms, &flips);
            let bits = words_of(&set, records);

            let expected = oracle::diff_merge(&set, p, records);
            let mut diff = Vec::new();
            diff_words(&bits, p, records, &mut diff);
            let got: Vec<u32> = set_bits(diff.iter().copied()).collect();
            prop_assert_eq!(&got, &expected, "diff positions, p={} records={}", p, records);
            let count: u32 = diff.iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(count as usize, expected.len());
            let n = expected.len();
            prop_assert_eq!(diff_count(&bits, p, records, n), Some(n), "p={} records={}", p, records);
            if n > 0 {
                prop_assert_eq!(diff_count(&bits, p, records, n - 1), None);
                let mut capped = Vec::new();
                prop_assert!(diff_sorted(&set, p, records, n - 1, &mut capped).is_none());
            }

            let body = pxor_body(p as u64, &expected);
            let mut words = Vec::new();
            decode_pxor(&body, records, &mut words).expect("well-formed body");
            prop_assert_eq!(&words, &bits, "reconstruction, p={} records={}", p, records);
            prop_assert_eq!(
                bytes_of(&words, records),
                oracle::decode_pxor(&body, records).expect("well-formed body")
            );
        }

        /// Load kernel on bodies no builder would write: any ascending
        /// diff list under any period reconstructs to the bit loop's
        /// bitmap, with no bit at or past `records`.
        #[test]
        fn arbitrary_pxor_bodies_reconstruct_like_the_bit_loop(
            records in (0usize..RECORDS.len()),
            class in 0u32..6,
            raw in any::<u32>(),
            diffs in proptest::collection::vec(any::<u32>(), 0usize..64),
        ) {
            let records = RECORDS[records];
            let p = period_of(class, raw, records);
            let diffs = periodic_set(records, p, &[], 0, &diffs);
            let body = pxor_body(p as u64, &diffs);
            let mut words = Vec::new();
            decode_pxor(&body, records, &mut words).expect("well-formed body");
            prop_assert_eq!(words.len(), word_count(records));
            prop_assert_eq!(
                bytes_of(&words, records),
                oracle::decode_pxor(&body, records).expect("well-formed body"),
                "p={} records={}", p, records
            );
            prop_assert!(set_bits(words.iter().copied()).all(|v| v < records));
        }

        /// The whole container choice — lag histogram, top-four rule,
        /// popcount scoring, arithmetic sizing, winner-only encoding —
        /// lands on the kind and the bytes of encode-all-four.
        #[test]
        fn container_choice_matches_encoding_all_four(
            records in (0usize..RECORDS.len()),
            class in 0u32..6,
            raw in any::<u32>(),
            phases in proptest::collection::vec(any::<u32>(), 0usize..5),
            terms in prop_oneof![3usize..40, Just(usize::MAX)],
            flips in prop_oneof![
                proptest::collection::vec(any::<u32>(), 0usize..3),
                proptest::collection::vec(any::<u32>(), 0usize..48),
            ],
        ) {
            let records = RECORDS[records];
            let p = period_of(class, raw, records);
            let set = periodic_set(records, p, &phases, terms, &flips);
            prop_assume!(!set.is_empty());
            // One encoder across two builds: the scratch a first posting
            // leaves behind must not leak into the second.
            let mut encoder = ContainerEncoder::default();
            encoder.build(Dim::AddrPage, 1, &periodic_set(records, p, &[raw], terms, &[]), records);
            let posting = encoder.build(Dim::AddrPage, 2, &set, records);
            let (kind, body) = oracle::build(&set, records);
            let (mut runs, mut array) = (Vec::new(), Vec::new());
            for_each_run_varint(&set, |v| put_varint(&mut runs, v));
            for_each_gap(set.iter().copied(), |v| put_varint(&mut array, v));
            // Exact within the caps, one past them beyond: against this
            // frame's bitset, and against no bitset at all.
            let (runs, array) = (runs.len(), array.len());
            for bitset in [records.div_ceil(8) as usize, usize::MAX / 2] {
                let capped = array.min(bitset + 1);
                prop_assert_eq!(
                    runs_and_array_len(&set, bitset),
                    (runs.min(capped.min(bitset) + 1), capped)
                );
            }
            prop_assert_eq!(
                (posting.kind, &posting.body[..]),
                (kind, &body[..]),
                "p={} records={} |set|={}", p, records, set.len()
            );
            prop_assert_eq!(posting.cardinality as usize, set.len());
            posting.validate(records).unwrap();
            prop_assert_eq!(posting.iter().map(|v| v.unwrap()).collect::<Vec<_>>(), set);
        }

        /// Period scoring by merge over the index list (sparse sets) and
        /// by the word kernel (dense ones) is one decision made two ways:
        /// forced down either route, sets on both sides of the threshold
        /// get the same diff list per period and the same container bytes.
        #[test]
        fn sparse_and_dense_period_scoring_emit_the_same_container(
            records in (0usize..RECORDS.len()),
            class in 0u32..6,
            raw in any::<u32>(),
            phases in proptest::collection::vec(any::<u32>(), 0usize..3),
            // A handful of terms or flips: around `word_count / 8` elements
            // for the larger frames, far above it for the small ones.
            terms in 3usize..24,
            flips in proptest::collection::vec(any::<u32>(), 0usize..40),
        ) {
            let records = RECORDS[records];
            let p = period_of(class, raw, records);
            let set = periodic_set(records, p, &phases, terms, &flips);
            prop_assume!(!set.is_empty());
            let mut merged = Vec::new();
            diff_sorted(&set, p, records, usize::MAX, &mut merged).expect("no cap");
            prop_assert_eq!(&merged, &oracle::diff_merge(&set, p, records), "p={}", p);

            let mut encoder = ContainerEncoder::default();
            let by_merge = encoder.build_by_route(Dim::AddrPage, 7, &set, records, true);
            let by_words = encoder.build_by_route(Dim::AddrPage, 7, &set, records, false);
            prop_assert_eq!(&by_merge, &by_words, "p={} records={} |set|={}", p, records, set.len());
            prop_assert_eq!(&encoder.build(Dim::AddrPage, 7, &set, records), &by_words);
        }

        /// Query kernels: `or_posting` equals the element walk for every
        /// container kind, and `clamp_range` equals the bit loop.
        #[test]
        fn or_posting_and_clamp_range_match_the_scalar_routines(
            records in (0usize..RECORDS.len()),
            class in 0u32..6,
            raw in any::<u32>(),
            phases in proptest::collection::vec(any::<u32>(), 0usize..5),
            terms in prop_oneof![3usize..40, Just(usize::MAX)],
            flips in prop_oneof![
                proptest::collection::vec(any::<u32>(), 0usize..3),
                proptest::collection::vec(any::<u32>(), 0usize..48),
            ],
            range in (any::<u32>(), any::<u32>()),
        ) {
            let records = RECORDS[records];
            let p = period_of(class, raw, records);
            let set = periodic_set(records, p, &phases, terms, &flips);
            prop_assume!(!set.is_empty());
            let posting = build(Dim::PcBucket, 0, &set, records);
            let mut got = FrameSet::empty(records);
            got.or_posting(&posting);
            prop_assert_eq!(&got.words, &words_of(&set, records), "{}", posting.container_kind());
            prop_assert_eq!(got.count() as usize, set.len());

            // Bounds inside, at and past the frame, in either order.
            let (lo, hi) = (range.0 % (records + 70), range.1 % (records + 70));
            let mut expected = got.words.clone();
            oracle::clamp_range(&mut expected, records, lo, hi);
            got.clamp_range(lo, hi);
            prop_assert_eq!(&got.words, &expected, "clamp [{}, {}) of {}", lo, hi, records);
        }

        /// Load kernel: the periodic-XOR count equals the popcount of
        /// the reconstruction, and is `None` on exactly the bodies the
        /// reconstruction refuses — any period of the probe's range, any
        /// frame up to 64 k records, any diff list, and bodies cut short,
        /// carrying an overlong or overflowing varint, reaching past the
        /// frame or with a period out of range.
        #[test]
        fn pxor_count_equals_the_reconstructions_popcount(
            records in 2u32..=65_536,
            period in 1u32..=MAX_PERIOD,
            diffs in prop_oneof![
                proptest::collection::vec(any::<u32>(), 0usize..8),
                proptest::collection::vec(any::<u32>(), 0usize..300),
            ],
            damage in 0u32..8,
            raw in any::<u32>(),
        ) {
            let p = if period < records { period } else { 1 + period % (records - 1) };
            let mut positions: Vec<u32> = diffs.iter().map(|d| d % records).collect();
            positions.sort_unstable();
            positions.dedup();
            let mut body = pxor_body(p as u64, &positions);
            let next_min = positions.last().map_or(0, |&v| v as u64 + 1);
            match damage {
                // Cut anywhere, inside a varint or between two.
                1 => body.truncate(raw as usize % body.len()),
                // A gap that never ends, or runs past 64 bits.
                2 => body.push(0x80),
                3 => body.extend([0xff; 9].into_iter().chain([0x02])),
                // A gap whose position overflows, or lands past the frame.
                4 => put_varint(&mut body, u64::MAX),
                5 => put_varint(&mut body, records as u64 - next_min.min(records as u64) + raw as u64 % 3),
                // A period of zero, of the frame or past the probe.
                6 => body = pxor_body([0, records as u64, MAX_PERIOD as u64 + 1][raw as usize % 3], &positions),
                // Well-formed: zero-length encodings of a gap are valid.
                7 => body.extend([0x80, 0x00]),
                _ => {}
            }
            let mut words = Vec::new();
            let expected = decode_pxor(&body, records, &mut words)
                .map(|()| words.iter().map(|w| w.count_ones() as u64).sum::<u64>());
            prop_assert_eq!(
                pxor_cardinality(&body, records),
                expected,
                "p={} records={} damage={} body={:?}", p, records, damage, body
            );
        }

        /// The run-at-a-time walk of a runs or array body refuses what the
        /// element walk refuses, with its reason, and accepts what it
        /// accepts — on bodies of plausible and of hostile varints, cut
        /// short or not, against every cardinality.
        #[test]
        fn varint_validation_matches_the_element_walk(
            runs in any::<bool>(),
            records in 1u32..20_000,
            cardinality in 1u32..64,
            values in proptest::collection::vec((0u32..6, any::<u32>()), 0usize..40),
            cut in any::<bool>(),
        ) {
            let mut body = Vec::new();
            for &(class, raw) in &values {
                let v = match class {
                    0 => raw as u64 % 4,
                    1 => raw as u64 % 300,
                    2 => raw as u64 % (records as u64 + 10),
                    3 => u32::MAX as u64 - raw as u64 % 6,
                    4 => raw as u64,
                    _ => (1u64 << 32) + raw as u64 % 4,
                };
                put_varint(&mut body, v);
            }
            if cut {
                body.push(0x80);
            }
            let kind = if runs { KIND_RUNS } else { KIND_ARRAY };
            let posting = Posting {
                dim: Dim::PcBucket,
                key: 0,
                cardinality,
                kind,
                records,
                body: Body::new(&body),
            };
            prop_assert_eq!(
                posting.validate(records),
                oracle::validate_by_walk(&posting, records),
                "kind={} records={} cardinality={} body={:?}", kind, records, cardinality, body
            );
        }
    }

    /// The set shapes the properties draw from reach every container
    /// kind (a property over three kinds would pin less than it says).
    #[test]
    fn every_container_kind_occurs() {
        let kind = |set: &[u32], records| build(Dim::Site, 0, set, records).container_kind();
        assert_eq!(kind(&periodic_set(4096, 3, &[0], 100, &[]), 4096), "runs");
        assert_eq!(kind(&periodic_set(4096, 1, &[], 0, &[5, 900, 77, 3000]), 4096), "array");
        assert_eq!(kind(&periodic_set(4097, 700, &[1, 90, 400], usize::MAX, &[]), 4097), "pxor");
        let mut x = 0x9e37_79b9_7f4a_7c15u64; // xorshift: half the records, no period
        let dense: Vec<u32> = (0..4097u32)
            .filter(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 0
            })
            .collect();
        assert_eq!(kind(&dense, 4097), "bitset");
    }

    /// The period-header rejections of the reconstruction, old and new,
    /// and of the count.
    #[test]
    fn malformed_pxor_headers_are_rejected_by_both() {
        let records = 1000u32;
        let mut words = Vec::new();
        for body in [
            pxor_body(0, &[1]),                     // zero period
            pxor_body(records as u64, &[1]),        // period not below records
            pxor_body(MAX_PERIOD as u64 + 1, &[1]), // period past the probe's range
            pxor_body(7, &[3, records]),            // diff position past the frame
            vec![0x87],                             // period varint cut short
            vec![7, 0x80],                          // gap varint cut short
        ] {
            assert!(decode_pxor(&body, records, &mut words).is_none(), "{body:?}");
            assert!(oracle::decode_pxor(&body, records).is_none(), "{body:?}");
            assert!(pxor_cardinality(&body, records).is_none(), "{body:?}");
        }
        assert!(decode_pxor(&pxor_body(MAX_PERIOD as u64, &[1]), 5000, &mut words).is_some());
    }

    /// The one parse of a runs or array header, shared by the iterator
    /// and the validator: it reads as many varints as the kind has, and
    /// refuses a cut-short varint or a start, step or length past `u32`.
    #[test]
    fn run_headers_refuse_fields_past_u32() {
        let max = u32::MAX as u64;
        let read = |kind, fields: &[u64], next_min| {
            let mut body = Vec::new();
            fields.iter().for_each(|&f| put_varint(&mut body, f));
            let mut pos = 0;
            read_run(kind, &body, &mut pos, next_min).map(|run| (run, pos))
        };
        assert_eq!(read(KIND_RUNS, &[5, 2, 3], 10), Some(((15, 2, 4), 3)));
        assert_eq!(read(KIND_RUNS, &[5, 0, 3], 10), Some(((15, 0, 1), 2)));
        assert_eq!(read(KIND_ARRAY, &[5, 2, 3], 10), Some(((15, 0, 1), 1)));
        assert_eq!(read(KIND_RUNS, &[0, 1, max - 1], 0).map(|r| r.0), Some((0, 1, u32::MAX)));
        assert_eq!(read(KIND_RUNS, &[0, 1, max], 0), None);
        assert_eq!(read(KIND_RUNS, &[0, 1, u64::MAX], 0), None);
        assert_eq!(read(KIND_RUNS, &[0, max - 1, 0], 0).map(|r| r.0), Some((0, u32::MAX - 1, 1)));
        assert_eq!(read(KIND_RUNS, &[0, max, 0], 0), None);
        assert_eq!(read(KIND_ARRAY, &[max], 0).map(|r| r.0), Some((u32::MAX, 0, 1)));
        assert_eq!(read(KIND_ARRAY, &[max], 1), None);
        assert_eq!(read(KIND_ARRAY, &[1], u64::MAX), None);
        assert_eq!(read(KIND_RUNS, &[5, 2], 0), None);
        assert_eq!(read(KIND_ARRAY, &[], 0), None);
    }

    /// `encoded_len` is arithmetic; it must equal what `encode` appends.
    #[test]
    fn encoded_len_equals_the_encoding() {
        for bench in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Gzip] {
            let mut batch = TraceBatch::new();
            batch.extend_entries(bench.trace(6_000));
            let fp = FramePostings::from_batch(&batch);
            let mut bytes = Vec::new();
            fp.encode(&mut bytes);
            assert_eq!(fp.encoded_len(), bytes.len(), "{bench:?}");
        }
        assert_eq!(FramePostings::default().encoded_len(), 1);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "varint_len({v})");
        }
        for shift in 0..32 {
            for v in [1u32 << shift, (1u32 << shift) - 1, u32::MAX >> shift] {
                assert_eq!(varint_len32(v) as usize, varint_len(v as u64), "varint_len32({v})");
            }
        }
    }
}

//! The compact binary record codec and chunk framing.
//!
//! One payload codec — the paper's value-predicted log — in one framing
//! layer. Each column (pc, static record shape, addresses, immediates)
//! runs through a per-frame value predictor; a predictor hit costs one bit
//! in the column's hit bitmap, and a miss escapes into that field's delta
//! transform. On loopy workloads nearly every field hits after its first
//! encounter, compressing the stream to ~1–2 bytes/record.
//!
//! # Field transforms
//!
//! Escapes are LEB128 varints (7 value bits per byte, high bit =
//! continuation). A missed pc encodes as `zigzag(pc − prev_pc)`. Missed
//! memory references share one per-frame address-delta stream: a sized
//! reference encodes as `varint(zigzag(addr − prev_addr) << 2 |
//! size_code)` with size codes 0/1/2 for 1/2/4-byte accesses, and
//! address-valued annotation payloads (malloc base, lock word, …) ride the
//! same stream without the size bits. Both delta streams reset at every
//! frame boundary.
//!
//! # Column encoding
//!
//! The frame payload is four column sections, in order — pc, static,
//! address, value — each a hit bitmap (one bit per slot, LSB-first,
//! zero-padded to a byte) followed by that column's escape stream:
//!
//! ```text
//! pc_bits      ⌈n/8⌉ bytes   per record: predicted-next-pc hit?
//! pc_escapes   …             missed pcs, zigzag delta varints
//! static_bits  ⌈n/8⌉ bytes   per record: (code, addr_regs, regs, flags) hit?
//! static_esc   …             missed statics, field-reordered varints
//! addr_mode    1 byte, m>0   escape delta base: 0 global, 1 predicted
//! mem_bits     ⌈m/8⌉ bytes   per address slot: stride-predictor hit?
//! mem_escapes  …             missed slots, address-stream varints
//!                            deltaed against the frame's chosen base
//! val_bits     ⌈v/8⌉ bytes   per immediate: last-value hit?
//! val_escapes  …             missed immediates, raw varints
//! ```
//!
//! `m` and `v` are the frame's address-slot and immediate counts, both
//! derivable from the decoded static column. The predictors — a
//! next-pc table chained on the previous pc, last-value tables keyed by
//! pc for statics and immediates, and per-`(pc, operand-slot)` stride
//! tables for addresses — reset at every frame boundary, so frames stay
//! independently decodable and the frame needs no prologue: the escape
//! streams themselves reseed the tables identically on both sides.
//!
//! The four sections are a wire layout, not four walks over the records.
//! The encoder makes one pass: each record advances all four predictors,
//! its hit bits collect in words and its escapes in per-section buffers,
//! and the frame is assembled in wire order at the end. The decoder makes
//! two: pc and static, then address and value, each with a cursor in both
//! of its sections. A section's end is found without decoding it: it
//! holds one varint per clear bit of its bitmap, so the next section
//! starts past that many terminator bytes (bytes below 0x80).
//!
//! # Chunk framing
//!
//! A trace file is an 8-byte header (`b"IGMT"`, `u32` LE version
//! [`FORMAT_VERSION`]) followed by frames:
//!
//! ```text
//! records      u32 LE   entries in this chunk (1 ..= MAX_FRAME_RECORDS)
//! payload_len  u32 LE   encoded payload bytes (> 0)
//! checksum     u32 LE   checksum() over the payload bytes
//! codec        u32 LE   payload codec, always CODEC_ID (3)
//! payload      payload_len bytes
//! ```
//!
//! The checksum runs eight lanes over the payload's little-endian 32-bit
//! words and folds them, the last partial block's words and the length
//! word by word ([`checksum`]), so any change confined to one aligned
//! word — every single-byte change — is caught. It replaced version 2's
//! per-byte FNV-1a-32, one serial multiply per byte, and is the only
//! change from version 2 to 3: a version-2 file is refused at its header
//! ([`TraceError::UnsupportedVersion`]), never as a checksum mismatch.
//!
//! A clean EOF at a frame boundary ends the trace; anything else —
//! truncated header or payload, checksum mismatch, a codec word other
//! than [`CODEC_ID`], zero-record or zero-length frames, a record count
//! above [`MAX_FRAME_RECORDS`], trailing payload bytes, out-of-range
//! field encodings, hit bits referencing predictor slots the frame never
//! seeded — is a [`TraceError::Corrupt`] with the file offset. Because
//! the decoder locates sections before it decodes them and walks two at
//! once, a payload damaged in more than one place (or with a section that
//! runs short) may report a different first reason than a
//! section-by-section decode would; it is refused all the same. One frame
//! per transport batch keeps capture and replay chunk-for-chunk identical
//! with the live session that produced the file.

use igm_isa::{codes, MemSize, Reg, TraceEntry};
use igm_lba::{RawStreams, TraceBatch};
use igm_obs::{Counter, Histogram, MetricsRegistry};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Instant;

/// The four magic bytes opening every trace file.
pub const MAGIC: [u8; 4] = *b"IGMT";

/// The trace format version — the only one this crate reads or writes.
pub const FORMAT_VERSION: u32 = 3;

/// The payload codec identifier every frame header carries (and every
/// `igm-net` `HELLO` names): the value-predicted column codec.
pub const CODEC_ID: u32 = 3;

/// Upper bound accepted for one frame's payload, so a corrupt length field
/// cannot drive a multi-gigabyte allocation before the checksum catches it.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// Upper bound on one frame's record count (64 default 16 KiB transport
/// chunks of one-byte records). The payload-length bound alone would let
/// a header claim four records per payload byte — billions for a frame of
/// all-hit bitmaps — and the decoder sizes its columns from the claim, so
/// readers refuse a larger count before they allocate, and writers refuse
/// to emit one.
pub const MAX_FRAME_RECORDS: u32 = 1 << 20;

/// Bytes of frame header preceding every frame payload (`records`,
/// `payload_len`, `checksum`, `codec`, each `u32` LE).
pub const FRAME_HEADER_BYTES: usize = 16;

/// Errors produced while reading or writing a trace stream.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's format version is not the one this reader speaks.
    UnsupportedVersion(u32),
    /// Structural damage at `offset` bytes into the stream.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not an igm trace stream (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this reader speaks only {FORMAT_VERSION})"
                )
            }
            TraceError::Corrupt { offset, reason } => {
                write!(f, "corrupt trace stream at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes the escape word `v` (below 2^35, so at most
/// [`MAX_ESCAPE_BYTES`]) as a varint at `buf[*at..]`, advancing `*at` — the
/// encoder's escape streams are sized for their worst case up front, so an
/// escape is a few stores into one checked window.
#[inline]
fn put_varint_at(buf: &mut [u8], at: &mut usize, mut v: u64) {
    let window = &mut buf[*at..*at + MAX_ESCAPE_BYTES];
    let mut k = 0;
    while v >= 0x80 {
        window[k] = (v as u8) | 0x80;
        k += 1;
        v >>= 7;
    }
    window[k] = v as u8;
    *at += k + 1;
}

/// The position just past the `count`-th varint terminator (a byte below
/// 0x80) at or after `from` — where a section of `count` escapes ends —
/// or `None` when the bytes run out first.
fn skip_varints(bytes: &[u8], from: usize, count: usize) -> Option<usize> {
    if count == 0 {
        return Some(from);
    }
    let mut left = count;
    for (k, &b) in bytes[from..].iter().enumerate() {
        if b < 0x80 {
            left -= 1;
            if left == 0 {
                return Some(from + k + 1);
            }
        }
    }
    None
}

/// Set bits of a hit bitmap.
fn popcount(bits: &[u8]) -> usize {
    bits.iter().map(|b| b.count_ones() as usize).sum()
}

/// The frame and sidecar checksum of `bytes` — cheap, dependency-free,
/// and plenty to catch the torn writes and bit rot the framing guards
/// against (it is not a cryptographic integrity check).
///
/// Eight independent lanes each take every eighth little-endian 32-bit
/// word of the 32-byte blocks through an FNV-1a-style step (xor, multiply
/// by the FNV prime, rotate), so the loop carries eight short chains
/// instead of FNV-1a's one multiply per byte. The lanes, the zero-padded
/// words of the last partial block and the byte length are then folded
/// into one value, word by word with the same step. Every step is a
/// bijection in the word it takes, so a change confined to one aligned
/// word — every single-byte change among them — always changes the result.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] of the concatenation of `parts`, without concatenating.
pub(crate) fn checksum_parts(parts: &[&[u8]]) -> u32 {
    let mut sum = Checksum::new();
    parts.iter().for_each(|part| sum.update(part));
    sum.finish()
}

/// Bytes of one checksum block: a 32-bit word for each of the lanes.
const SUM_BLOCK: usize = 32;

/// One checksum step: the FNV-1a multiply over a whole word, then a
/// rotation. Each step is a bijection of `h` for a fixed `w` and of `w`
/// for a fixed `h`, so a change confined to one word changes every later
/// state. The rotation feeds the product's high bits back to the low
/// ones: without it a flip of a word's top bit would pass through every
/// later multiply as a flip of the top bit alone, and two of them would
/// cancel.
#[inline(always)]
fn sum_step(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(0x0100_0193).rotate_left(13)
}

/// The streaming form of [`checksum`]: [`Checksum::update`] with the
/// bytes in any number of parts, split anywhere, then
/// [`Checksum::finish`] — the same value as one call over their
/// concatenation. A part that ends inside a block leaves its bytes in
/// `tail` until the block fills.
#[derive(Debug, Clone)]
pub(crate) struct Checksum {
    lanes: [u32; 8],
    /// The bytes of the current partial block.
    tail: [u8; SUM_BLOCK],
    tail_len: usize,
    len: u64,
}

impl Checksum {
    /// A checksum over no bytes yet.
    pub(crate) fn new() -> Checksum {
        // The FNV offset basis, distinct per lane.
        let lanes = std::array::from_fn(|i| 0x811c_9dc5 ^ (i as u32).wrapping_mul(0x9e37_79b9));
        Checksum { lanes, tail: [0; SUM_BLOCK], tail_len: 0, len: 0 }
    }

    /// Continues the checksum over `bytes`.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(SUM_BLOCK - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < SUM_BLOCK {
                return;
            }
            let block = self.tail;
            self.blocks(&block);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % SUM_BLOCK;
        self.blocks(&bytes[..whole]);
        self.tail[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
        self.tail_len = bytes.len() - whole;
    }

    /// Runs the lanes over `bytes`, a whole number of blocks.
    fn blocks(&mut self, bytes: &[u8]) {
        let mut lanes = self.lanes;
        for block in bytes.chunks_exact(SUM_BLOCK) {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
                *lane =
                    sum_step(*lane, u32::from_le_bytes(word.try_into().expect("a 4-byte word")));
            }
        }
        self.lanes = lanes;
    }

    /// The checksum of every byte given to [`Checksum::update`].
    pub(crate) fn finish(&self) -> u32 {
        let mut tail = [0u8; SUM_BLOCK];
        tail[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let words = tail[..self.tail_len.div_ceil(4) * 4]
            .chunks_exact(4)
            .map(|word| u32::from_le_bytes(word.try_into().expect("a 4-byte word")));
        let len = [self.len as u32, (self.len >> 32) as u32];
        self.lanes.into_iter().chain(words).chain(len).fold(0x811c_9dc5, sum_step)
    }
}

/// Per-chunk delta-coder state (both streams reset at chunk boundaries).
#[derive(Debug, Default, Clone, Copy)]
struct CodecState {
    prev_pc: u32,
    prev_addr: u32,
}

/// Decode cursor over one chunk's payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Stream offset of `bytes[0]`, for error reporting.
    base: u64,
}

impl<'a> Cursor<'a> {
    #[cold]
    #[inline(never)]
    fn corrupt<T>(&self, reason: &'static str) -> Result<T, TraceError> {
        Err(TraceError::Corrupt { offset: self.base + self.pos as u64, reason })
    }

    #[inline]
    fn byte(&mut self) -> Result<u8, TraceError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.corrupt("payload ends inside a record"),
        }
    }

    /// One hit bitmap of `nbits` bits (LSB-first, zero-padded to a whole
    /// byte). Padding bits must be zero, so every payload has exactly one
    /// valid encoding.
    fn bitmap(&mut self, nbits: usize) -> Result<&'a [u8], TraceError> {
        let nbytes = nbits.div_ceil(8);
        if self.bytes.len() - self.pos < nbytes {
            return self.corrupt("payload ends inside a hit bitmap");
        }
        let s = &self.bytes[self.pos..self.pos + nbytes];
        self.pos += nbytes;
        if !nbits.is_multiple_of(8) && s[nbytes - 1] >> (nbits % 8) != 0 {
            return self.corrupt("hit bitmap has nonzero padding bits");
        }
        Ok(s)
    }

    /// A cursor at the next section: past the hit bitmap this one just
    /// read and the `escapes` varints behind it, found by their
    /// terminators without decoding them — so two sections can be walked
    /// side by side.
    fn after_escapes(&self, escapes: usize) -> Result<Cursor<'a>, TraceError> {
        match skip_varints(self.bytes, self.pos, escapes) {
            Some(pos) => Ok(Cursor { bytes: self.bytes, pos, base: self.base }),
            None => Err(TraceError::Corrupt {
                offset: self.base + self.bytes.len() as u64,
                reason: "payload ends inside a record",
            }),
        }
    }

    /// One varint; the one- and two-byte forms that most escapes take are
    /// read inline.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, TraceError> {
        match self.bytes[self.pos..] {
            [b0, ..] if b0 < 0x80 => {
                self.pos += 1;
                Ok(b0 as u64)
            }
            [b0, b1, ..] if b1 < 0x80 => {
                self.pos += 2;
                Ok((b0 & 0x7f) as u64 | (b1 as u64) << 7)
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return self.corrupt("varint overflows 64 bits");
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes one pc off the pc delta stream (zigzag varint against the
    /// previous pc) — the one wire transform for an escaped pc.
    #[inline]
    fn pc(&mut self, st: &mut CodecState) -> Result<u32, TraceError> {
        let delta = unzigzag(self.varint()?);
        match u32::try_from(st.prev_pc as i64 + delta) {
            Ok(pc) => {
                st.prev_pc = pc;
                Ok(pc)
            }
            Err(_) => self.corrupt("pc delta leaves the 32-bit address space"),
        }
    }

    /// Decodes one sized memory reference off the shared address stream,
    /// returning the absolute address and its dense size code — exactly
    /// one [`TraceBatch`] `addrs`/`sizes` slot.
    #[inline]
    fn mem_parts(&mut self, st: &mut CodecState) -> Result<(u32, u8), TraceError> {
        let v = self.varint()?;
        let size_code = (v & 0x3) as u8;
        if MemSize::from_code(size_code).is_none() {
            return self.corrupt("memory access size code out of range");
        }
        let addr = self.resolve_addr(st, unzigzag(v >> 2))?;
        Ok((addr, size_code))
    }

    #[inline]
    fn addr(&mut self, st: &mut CodecState) -> Result<u32, TraceError> {
        let delta = unzigzag(self.varint()?);
        self.resolve_addr(st, delta)
    }

    #[inline]
    fn resolve_addr(&self, st: &mut CodecState, delta: i64) -> Result<u32, TraceError> {
        match u32::try_from(st.prev_addr as i64 + delta) {
            Ok(addr) => {
                st.prev_addr = addr;
                Ok(addr)
            }
            Err(_) => self.corrupt("address delta leaves the 32-bit address space"),
        }
    }

    /// Decodes one static-column escape into the packed record shape it
    /// names, validated against the record grammar before it can seed a
    /// predictor table or reach a batch column.
    #[inline(never)]
    fn static_word(&mut self) -> Result<u32, TraceError> {
        let Some(raw) = static_unescape(self.u32_varint()?) else {
            return self.corrupt("static escape has nonzero padding bits");
        };
        let (code, _, regs, flags) = unpack_static(raw);
        if let Err(reason) = validate_static(code, regs, flags) {
            return self.corrupt(reason);
        }
        Ok(raw)
    }

    #[inline]
    fn u32_varint(&mut self) -> Result<u32, TraceError> {
        match u32::try_from(self.varint()?) {
            Ok(v) => Ok(v),
            Err(_) => self.corrupt("32-bit field encoded with more than 32 bits"),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-field wire transforms (encode side). Each field has exactly one
// encoder here and one decoder on `Cursor`, applied to the escape slots.
// ---------------------------------------------------------------------------

/// The escape word of a missed pc: its zigzag delta from the previous pc.
#[inline]
fn pc_escape(prev_pc: u32, pc: u32) -> u64 {
    zigzag(pc as i64 - prev_pc as i64)
}

/// The escape word of a missed sized reference: its zigzag delta from the
/// address stream's base, over the two size-code bits.
#[inline]
fn mem_escape(prev_addr: u32, addr: u32, size_code: u8) -> u64 {
    zigzag(addr as i64 - prev_addr as i64) << 2 | size_code as u64
}

/// The escape word of a missed plain address: its zigzag delta alone.
#[inline]
fn plain_escape(prev_addr: u32, addr: u32) -> u64 {
    zigzag(addr as i64 - prev_addr as i64)
}

/// Worst-case varint bytes of one escape: the 33-bit zigzag deltas of pcs
/// and plain addresses, the 35-bit sized-reference words and `u32`
/// immediates all fit five (static words, 23 bits, fit four).
const MAX_ESCAPE_BYTES: usize = 5;

// ---------------------------------------------------------------------------
// Record shape.
// ---------------------------------------------------------------------------

/// How many shared-address-stream slots and immediate values a record
/// with this `code`/`flags` owns, as `(sized_mems, plain_addrs, vals)` —
/// the single map from record shape to column slots, used by the column
/// walks on both sides.
pub(crate) const fn stream_shape(code: u8, flags: u8) -> (u8, u8, u8) {
    match code {
        codes::IMM_TO_MEM
        | codes::MEM_SELF
        | codes::REG_TO_MEM
        | codes::DEST_MEM_OP_REG
        | codes::MEM_TO_REG
        | codes::DEST_REG_OP_MEM
        | codes::CTRL_RET
        | codes::ANN_PRINTF => (1, 0, 0),
        codes::MEM_TO_MEM => (2, 0, 0),
        codes::READ_ONLY | codes::CTRL_INDIRECT => (flags & 1, 0, 0),
        codes::OTHER => ((flags & 1) + ((flags >> 1) & 1), 0, 1),
        codes::ANN_MALLOC | codes::ANN_READ_INPUT => (0, 1, 1),
        codes::ANN_FREE | codes::ANN_LOCK | codes::ANN_UNLOCK => (0, 1, 0),
        codes::ANN_SYSCALL => ((flags >> 1) & 1, 0, 0),
        codes::ANN_THREAD_SWITCH | codes::ANN_THREAD_EXIT => (0, 0, 1),
        _ => (0, 0, 0),
    }
}

/// [`stream_shape`] per `(code, flags & 3)` as one byte — sized address
/// slots in bits 0–1, a plain address slot in bit 2, an immediate in bit
/// 3 — so the column walks read a record's slots with one load. Codes are
/// five bits on the wire and below [`codes::COUNT`] in a batch.
const SHAPES: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut i = 0;
    while i < table.len() {
        let (mems, plains, vals) = stream_shape((i >> 2) as u8, (i & 3) as u8);
        table[i] = mems | plains << 2 | vals << 3;
        i += 1;
    }
    table
};

#[inline]
fn shape(code: u8, flags: u8) -> u8 {
    SHAPES[(code as usize) << 2 | (flags & 3) as usize]
}

/// Address-stream slots (sized and plain) of a [`SHAPES`] byte.
#[inline]
fn shape_addrs(shape: u8) -> usize {
    ((shape & 3) + (shape >> 2 & 1)) as usize
}

/// Validates a decoded `(code, regs, flags)` combination against the
/// record grammar, applied to a static-column escape before it can seed
/// the predictor table and reach the batch columns.
fn validate_static(code: u8, regs: u8, flags: u8) -> Result<(), &'static str> {
    let reg_ok = |r: u8| Reg::try_from_index(r as usize).is_some();
    let flagless = |flags: u8| -> Result<(), &'static str> {
        if flags != 0 {
            return Err("flags byte set on a flagless record");
        }
        Ok(())
    };
    match code {
        codes::IMM_TO_REG | codes::REG_SELF => {
            if !reg_ok(regs) {
                return Err("register index out of range");
            }
            flagless(flags)
        }
        codes::REG_TO_REG | codes::DEST_REG_OP_REG => {
            if !reg_ok(regs >> 4) || !reg_ok(regs & 0x0f) {
                return Err("register index out of range");
            }
            flagless(flags)
        }
        codes::REG_TO_MEM | codes::DEST_MEM_OP_REG | codes::MEM_TO_REG | codes::DEST_REG_OP_MEM => {
            if !reg_ok(regs) {
                return Err("register index out of range");
            }
            flagless(flags)
        }
        codes::IMM_TO_MEM
        | codes::MEM_SELF
        | codes::MEM_TO_MEM
        | codes::CTRL_DIRECT
        | codes::CTRL_RET
        | codes::ANN_PRINTF
        | codes::ANN_MALLOC
        | codes::ANN_READ_INPUT
        | codes::ANN_FREE
        | codes::ANN_LOCK
        | codes::ANN_UNLOCK
        | codes::ANN_THREAD_SWITCH
        | codes::ANN_THREAD_EXIT => {
            if regs != 0 {
                return Err("register byte set on a registerless record");
            }
            flagless(flags)
        }
        codes::READ_ONLY => {
            if flags > 1 {
                return Err("read_only flags byte out of range");
            }
            Ok(())
        }
        codes::OTHER => {
            if flags > 3 {
                return Err("other flags byte out of range");
            }
            Ok(())
        }
        codes::CTRL_INDIRECT => {
            if flags > 1 {
                return Err("jump target kind out of range");
            }
            if flags == 1 {
                if regs != 0 {
                    return Err("register byte set on a memory-indirect jump");
                }
            } else if !reg_ok(regs) {
                return Err("register index out of range");
            }
            Ok(())
        }
        codes::CTRL_COND => {
            if regs != codes::NO_REG && !reg_ok(regs) {
                return Err("register index out of range");
            }
            flagless(flags)
        }
        codes::ANN_SYSCALL => {
            if flags > 3 {
                return Err("syscall flags byte out of range");
            }
            if flags & 1 != 0 {
                if !reg_ok(regs) {
                    return Err("register index out of range");
                }
            } else if regs != codes::NO_REG {
                return Err("syscall register byte without its flag");
            }
            Ok(())
        }
        _ => Err("unknown record tag"),
    }
}

#[inline]
fn pack_static(code: u8, addr_regs: u8, regs: u8, flags: u8) -> u32 {
    code as u32 | (addr_regs as u32) << 8 | (regs as u32) << 16 | (flags as u32) << 24
}

#[inline]
fn unpack_static(v: u32) -> (u8, u8, u8, u8) {
    (v as u8, (v >> 8) as u8, (v >> 16) as u8, (v >> 24) as u8)
}

/// The wire layout of a static-column escape: the packed word's fields
/// re-ordered so the usually-zero ones sit highest — `code | regs<<5 |
/// flags<<13 | addr_regs<<15`, 23 bits — and the varint stays at one or
/// two bytes for ordinary records.
#[inline]
fn static_escape(packed: u32) -> u32 {
    let (code, addr_regs, regs, flags) = unpack_static(packed);
    code as u32 | (regs as u32) << 5 | (flags as u32) << 13 | (addr_regs as u32) << 15
}

/// Inverts [`static_escape`]; `None` for non-canonical words (set bits
/// past the 23 the layout defines).
#[inline]
fn static_unescape(v: u32) -> Option<u32> {
    if v >> 23 != 0 {
        return None;
    }
    Some(pack_static(
        (v & 0x1f) as u8,
        (v >> 15 & 0xff) as u8,
        (v >> 5 & 0xff) as u8,
        (v >> 13 & 0x3) as u8,
    ))
}

// ---------------------------------------------------------------------------
// Value predictors.
// ---------------------------------------------------------------------------

/// log2 of every predictor table's slot count.
const PRED_LOG: u32 = 12;
const PRED_SLOTS: usize = 1 << PRED_LOG;

#[inline]
fn pred_slot(key: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9) >> (32 - PRED_LOG)) as usize
}

#[derive(Clone, Copy, Default)]
struct ValueSlot {
    gen: u32,
    val: u32,
}

#[derive(Clone, Copy, Default)]
struct StrideSlot {
    gen: u32,
    last: u32,
    stride: u32,
    size: u8,
}

/// The codec's predictor tables — a next-pc table chained on the
/// previous pc, last-value tables keyed by pc for the static column and
/// immediates, and per-`(pc, operand-slot)` stride tables for addresses.
///
/// Encoder and decoder each run an identical copy, updated on every slot
/// (hit or miss), so a one-bit "hit" on the wire pins down the field
/// exactly. Tables reset at every frame boundary (cheaply, via a
/// generation tag per slot) to keep frames independently decodable; the
/// struct itself is reusable across frames and streams, and holding one
/// per writer/reader amortizes its ~160 KiB of tables. Hash collisions
/// are harmless — both sides collide identically, costing only hits.
///
/// The encoder keeps its frame scratch here too: hit-bit words per column
/// and one buffer per escape stream, each sized for the worst case of the
/// largest frame seen and reused from frame to frame. The decoder needs
/// none: it writes the batch's columns in place.
pub struct Predictors {
    /// Frame generation; a slot is live iff its tag matches.
    gen: u32,
    next_pc: Table<ValueSlot>,
    statics: Table<ValueSlot>,
    addrs: Table<StrideSlot>,
    vals: Table<ValueSlot>,
    scratch: EncodeScratch,
}

/// One predictor table, a slot per [`pred_slot`] value — sized in its
/// type, so indexing it by a slot needs no bounds check.
type Table<T> = Box<[T; PRED_SLOTS]>;

fn table<T: Copy + Default>() -> Table<T> {
    vec![T::default(); PRED_SLOTS].into_boxed_slice().try_into().ok().expect("PRED_SLOTS slots")
}

/// The encoder's frame buffers ([`Predictors`]).
#[derive(Default)]
struct EncodeScratch {
    /// Hit bits, LSB-first in `u64` words: pc, static, address, value.
    bits: [Vec<u64>; 4],
    /// Escape streams: pc, static, address against the running previous
    /// address, address against the missed slot's prediction, value.
    esc: [Vec<u8>; 5],
}

impl fmt::Debug for Predictors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Predictors").field("gen", &self.gen).finish_non_exhaustive()
    }
}

impl Default for Predictors {
    fn default() -> Predictors {
        Predictors::new()
    }
}

impl Predictors {
    /// Fresh (all-invalid) predictor tables.
    pub fn new() -> Predictors {
        Predictors {
            gen: 0,
            next_pc: table(),
            statics: table(),
            addrs: table(),
            vals: table(),
            scratch: EncodeScratch::default(),
        }
    }

    /// Invalidates every table for a new frame. Bumping the generation
    /// tag is O(1); slots written under older generations read as dead.
    fn begin_frame(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Tag wrap: stale slots from generation-0 frames 2^32 ago
            // would read as live. Clear everything and restart.
            self.next_pc.fill(ValueSlot::default());
            self.statics.fill(ValueSlot::default());
            self.addrs.fill(StrideSlot::default());
            self.vals.fill(ValueSlot::default());
            self.gen = 1;
        }
    }

    /// The stride-table key of a record's address operand `slot`; operand
    /// 0's key is the pc itself, so it shares the pc's table slot.
    #[inline]
    fn addr_key(pc: u32, slot: u8) -> u32 {
        pc ^ (slot as u32).wrapping_mul(0x85EB_CA6B)
    }

    /// The stride-table slot of operand `j` of a record whose pc hashes to
    /// `slot`.
    #[inline]
    fn stride_slot(pc: u32, slot: usize, j: u8) -> usize {
        if j == 0 {
            slot
        } else {
            pred_slot(Predictors::addr_key(pc, j))
        }
    }
}

// ---------------------------------------------------------------------------
// Column encode/decode.
// ---------------------------------------------------------------------------

#[inline]
fn bit(bits: &[u8], i: usize) -> bool {
    bits[i >> 3] >> (i & 7) & 1 != 0
}

/// Hit bits `64·w ..` of a wire bitmap as one word (zero past its end).
#[inline]
fn bit_word(bits: &[u8], w: usize) -> u64 {
    if let Some(word) = bits.get(w * 8..w * 8 + 8) {
        return u64::from_le_bytes(word.try_into().expect("eight bytes"));
    }
    let part = &bits[w * 8..];
    let mut word = [0u8; 8];
    word[..part.len()].copy_from_slice(part);
    u64::from_le_bytes(word)
}

/// Appends the first `nbits` bits of `words` as a wire bitmap.
fn put_bits(out: &mut Vec<u8>, words: &[u64], nbits: usize) {
    let mut left = nbits.div_ceil(8);
    for w in words {
        let take = left.min(8);
        out.extend_from_slice(&w.to_le_bytes()[..take]);
        left -= take;
    }
}

/// Address-escape delta bases, named by the per-frame mode byte
/// (present only when the frame has address slots): escapes delta
/// against the running previous address, or against the missed slot's
/// own prediction. The encoder codes both and ships the smaller.
const ADDR_MODE_GLOBAL: u8 = 0;
const ADDR_MODE_PREDICTED: u8 = 1;

/// The address column's encode state: its hit bits and both candidate
/// escape streams with their delta bases.
struct AddrEncoder<'a> {
    bits: &'a mut [u64],
    global: &'a mut [u8],
    predicted: &'a mut [u8],
    global_at: usize,
    predicted_at: usize,
    prev_global: u32,
    prev_predicted: u32,
    /// The next address slot.
    at: usize,
}

impl AddrEncoder<'_> {
    /// Runs one address slot through its stride predictor `s`: a hit
    /// sets the slot's bit, a miss escapes against both delta bases (a
    /// `sized` reference with its size code, a plain one without).
    #[inline(always)]
    fn slot(&mut self, s: &mut StrideSlot, gen: u32, addr: u32, size: u8, sized: bool) {
        let live = s.gen == gen;
        let pred = s.last.wrapping_add(s.stride);
        if live && pred == addr && s.size == size {
            self.bits[self.at >> 6] |= 1 << (self.at & 63);
        } else {
            if live {
                self.prev_predicted = pred;
            }
            let (global, predicted) = if sized {
                (
                    mem_escape(self.prev_global, addr, size),
                    mem_escape(self.prev_predicted, addr, size),
                )
            } else {
                (plain_escape(self.prev_global, addr), plain_escape(self.prev_predicted, addr))
            };
            put_varint_at(self.global, &mut self.global_at, global);
            put_varint_at(self.predicted, &mut self.predicted_at, predicted);
        }
        self.prev_global = addr;
        self.prev_predicted = addr;
        let stride = if live { addr.wrapping_sub(s.last) } else { 0 };
        *s = StrideSlot { gen, last: addr, stride, size };
        self.at += 1;
    }
}

/// Encodes one chunk's worth of [`TraceBatch`] columns through the value
/// predictors into `out`, in one walk over the records: each record
/// advances all four column predictors, setting its hit bits in `u64`
/// words and writing its escapes by index into buffers sized for the
/// worst case; the frame is then assembled in wire order. `pred_slot(pc)`
/// is computed once per record — it keys the static and value tables and
/// address operand 0, and is the next record's next-pc slot. The address
/// column is coded against both delta bases and the smaller stream
/// ships: regular strided code favors the prediction base (a near miss
/// in a tracked region costs a byte or two, not five), pointer-chasing
/// favors the global one.
fn encode_batch(out: &mut Vec<u8>, batch: &TraceBatch, p: &mut Predictors) {
    p.begin_frame();
    let gen = p.gen;
    let (n, m, v) = (batch.len(), batch.addrs().len(), batch.vals().len());
    let Predictors { next_pc, statics, addrs: strides, vals: last_vals, scratch, .. } = p;
    let [pc_bits, st_bits, addr_bits, val_bits] = &mut scratch.bits;
    let bit_slots = [n, n, m, v];
    for (words, slots) in [&mut *pc_bits, st_bits, addr_bits, val_bits].into_iter().zip(bit_slots) {
        words.clear();
        words.resize(slots.div_ceil(64), 0);
    }
    let [pc_esc, st_esc, global_esc, pred_esc, val_esc] = &mut scratch.esc;
    let esc_slots = [n, n, m, m, v];
    let bufs = [&mut *pc_esc, st_esc, global_esc, pred_esc, val_esc];
    for (buf, slots) in bufs.into_iter().zip(esc_slots) {
        if buf.len() < slots * MAX_ESCAPE_BYTES {
            buf.resize(slots * MAX_ESCAPE_BYTES, 0);
        }
    }

    let (pcs, rcodes, flags) = (&batch.pcs()[..n], &batch.codes()[..n], &batch.flag_bytes()[..n]);
    let (aregs, regs) = (&batch.addr_regs_bits()[..n], &batch.reg_bytes()[..n]);
    let (addrs, sizes, vals) = (batch.addrs(), batch.size_codes(), batch.vals());
    let mut addr = AddrEncoder {
        bits: addr_bits,
        global: global_esc,
        predicted: pred_esc,
        global_at: 0,
        predicted_at: 0,
        prev_global: 0,
        prev_predicted: 0,
        at: 0,
    };
    let (mut prev_pc, mut prev_slot) = (0u32, pred_slot(0));
    let (mut pc_at, mut st_at, mut val_at, mut vi) = (0usize, 0usize, 0usize, 0usize);
    for (w, base) in (0..n).step_by(64).enumerate() {
        let (mut pc_word, mut st_word) = (0u64, 0u64);
        for i in base..n.min(base + 64) {
            let pc = pcs[i];
            let slot = pred_slot(pc);
            let s = &mut next_pc[prev_slot];
            // A hit leaves its slot as it was; only a miss reseeds it.
            if s.gen == gen && s.val == pc {
                pc_word |= 1 << (i & 63);
            } else {
                put_varint_at(pc_esc, &mut pc_at, pc_escape(prev_pc, pc));
                *s = ValueSlot { gen, val: pc };
            }
            (prev_pc, prev_slot) = (pc, slot);

            let (code, fl) = (rcodes[i], flags[i]);
            let packed = pack_static(code, aregs[i], regs[i], fl);
            let s = &mut statics[slot];
            if s.gen == gen && s.val == packed {
                st_word |= 1 << (i & 63);
            } else {
                put_varint_at(st_esc, &mut st_at, static_escape(packed) as u64);
                *s = ValueSlot { gen, val: packed };
            }

            let shape = shape(code, fl);
            for k in 0..shape_addrs(shape) {
                let sized = k < (shape & 3) as usize;
                let (j, size) = if sized { (k as u8, sizes[addr.at]) } else { (0, 2) };
                let s = &mut strides[Predictors::stride_slot(pc, slot, j)];
                addr.slot(s, gen, addrs[addr.at], size, sized);
            }
            if shape & 8 != 0 {
                let val = vals[vi];
                let s = &mut last_vals[slot];
                if s.gen == gen && s.val == val {
                    val_bits[vi >> 6] |= 1 << (vi & 63);
                } else {
                    put_varint_at(val_esc, &mut val_at, val as u64);
                    *s = ValueSlot { gen, val };
                }
                vi += 1;
            }
        }
        pc_bits[w] = pc_word;
        st_bits[w] = st_word;
    }
    debug_assert_eq!(addr.at, m, "batch address column disagrees with the record shapes");
    debug_assert_eq!(vi, v, "batch value column disagrees with the record shapes");

    let AddrEncoder { bits: addr_bits, global, predicted, global_at, predicted_at, .. } = addr;
    let (mode, addr_esc) = if predicted_at < global_at {
        (ADDR_MODE_PREDICTED, &predicted[..predicted_at])
    } else {
        (ADDR_MODE_GLOBAL, &global[..global_at])
    };
    put_bits(out, pc_bits, n);
    out.extend_from_slice(&pc_esc[..pc_at]);
    put_bits(out, st_bits, n);
    out.extend_from_slice(&st_esc[..st_at]);
    if m != 0 {
        out.push(mode);
    }
    put_bits(out, addr_bits, m);
    out.extend_from_slice(addr_esc);
    put_bits(out, val_bits, v);
    out.extend_from_slice(&val_esc[..val_at]);
}

impl Cursor<'_> {
    /// Decodes one address slot through its stride predictor `s`: a hit
    /// takes the prediction (a plain slot only a plain one), a miss
    /// decodes an escape — against the missed slot's prediction when the
    /// frame chose that base — with a size code when `sized`.
    #[inline(always)]
    fn addr_slot(
        &mut self,
        st: &mut CodecState,
        s: &mut StrideSlot,
        gen: u32,
        hit: bool,
        pred_base: bool,
        sized: bool,
    ) -> Result<(u32, u8), TraceError> {
        let live = s.gen == gen;
        let pred = s.last.wrapping_add(s.stride);
        let (addr, size) = if hit {
            if !live {
                return self.corrupt("address hit references an unseeded predictor slot");
            }
            if !sized && s.size != 2 {
                return self.corrupt("plain-address hit on a sized predictor slot");
            }
            st.prev_addr = pred;
            (pred, s.size)
        } else {
            if live && pred_base {
                st.prev_addr = pred;
            }
            if sized {
                self.mem_parts(st)?
            } else {
                (self.addr(st)?, 2)
            }
        };
        let stride = if live { addr.wrapping_sub(s.last) } else { 0 };
        *s = StrideSlot { gen, last: addr, stride, size };
        Ok((addr, size))
    }
}

/// Decodes one frame payload into `out`'s columns, written by index, in
/// two walks over the records: pc and static, then address and value.
/// Each walk runs two cursors side by side; the second section's start is
/// found past the first's `slots − hits` escapes by their varint
/// terminators, without decoding them. Every hit bit must land on a
/// predictor slot the frame itself already seeded (frames share no
/// state), and only grammar-validated static escapes can seed the tables,
/// so the decoded columns satisfy the record grammar's structural
/// invariants.
fn decode_columns(
    records: u32,
    payload: &[u8],
    payload_at: u64,
    out: &mut TraceBatch,
    p: &mut Predictors,
) -> Result<(), TraceError> {
    p.begin_frame();
    let gen = p.gen;
    let n = records as usize;
    let mut st = CodecState::default();

    // Pc and static sections; the record shapes they yield size the rest.
    let mut pc_cur = Cursor { bytes: payload, pos: 0, base: payload_at };
    let pc_bits = pc_cur.bitmap(n)?;
    let mut st_cur = pc_cur.after_escapes(n - popcount(pc_bits))?;
    let st_bits = st_cur.bitmap(n)?;
    let (mut mem_slots, mut val_slots) = (0usize, 0usize);
    let mut prev_slot = pred_slot(0);
    let cols = out.raw_records(n);
    let (pcs, rcodes, aregs) = (&mut cols.pcs[..n], &mut cols.codes[..n], &mut cols.addr_regs[..n]);
    let (regs, flags) = (&mut cols.regs[..n], &mut cols.flags[..n]);
    for (w, base) in (0..n).step_by(64).enumerate() {
        let (pc_word, st_word) = (bit_word(pc_bits, w), bit_word(st_bits, w));
        for i in base..n.min(base + 64) {
            let s = &mut p.next_pc[prev_slot];
            // A hit leaves its slot as it was; only a miss reseeds it.
            let pc = if pc_word >> (i & 63) & 1 != 0 {
                if s.gen != gen {
                    return pc_cur.corrupt("pc hit references an unseeded predictor slot");
                }
                st.prev_pc = s.val;
                s.val
            } else {
                let pc = pc_cur.pc(&mut st)?;
                *s = ValueSlot { gen, val: pc };
                pc
            };
            let slot = pred_slot(pc);
            prev_slot = slot;

            let s = &mut p.statics[slot];
            let packed = if st_word >> (i & 63) & 1 != 0 {
                if s.gen != gen {
                    return st_cur.corrupt("static hit references an unseeded predictor slot");
                }
                s.val
            } else {
                let packed = st_cur.static_word()?;
                *s = ValueSlot { gen, val: packed };
                packed
            };
            let (code, addr_regs, reg_byte, flag_byte) = unpack_static(packed);
            let shape = shape(code, flag_byte);
            mem_slots += shape_addrs(shape);
            val_slots += (shape >> 3) as usize;
            (pcs[i], rcodes[i], aregs[i]) = (pc, code, addr_regs);
            (regs[i], flags[i]) = (reg_byte, flag_byte);
        }
    }
    drop(cols);

    // Address and value sections.
    let mut addr_cur = st_cur;
    let pred_base = if mem_slots != 0 {
        match addr_cur.byte()? {
            ADDR_MODE_GLOBAL => false,
            ADDR_MODE_PREDICTED => true,
            _ => return addr_cur.corrupt("unknown address-escape delta base"),
        }
    } else {
        false
    };
    let addr_bits = addr_cur.bitmap(mem_slots)?;
    let mut val_cur = addr_cur.after_escapes(mem_slots - popcount(addr_bits))?;
    let val_bits = val_cur.bitmap(val_slots)?;
    let RawStreams { pcs, codes: rcodes, flags, addrs, sizes, vals } =
        out.raw_streams(mem_slots, val_slots);
    let (mut ai, mut vi) = (0usize, 0usize);
    for ((&pc, &code), &fl) in pcs.iter().zip(rcodes).zip(flags) {
        let shape = shape(code, fl);
        if shape == 0 {
            continue;
        }
        let slot = pred_slot(pc);
        for k in 0..shape_addrs(shape) {
            let sized = k < (shape & 3) as usize;
            let j = if sized { k as u8 } else { 0 };
            let s = &mut p.addrs[Predictors::stride_slot(pc, slot, j)];
            let hit = bit(addr_bits, ai);
            (addrs[ai], sizes[ai]) = addr_cur.addr_slot(&mut st, s, gen, hit, pred_base, sized)?;
            ai += 1;
        }
        if shape & 8 != 0 {
            let s = &mut p.vals[slot];
            let val = if bit(val_bits, vi) {
                if s.gen != gen {
                    return val_cur.corrupt("value hit references an unseeded predictor slot");
                }
                s.val
            } else {
                let val = val_cur.u32_varint()?;
                if code == codes::OTHER && val > 0xff {
                    return val_cur.corrupt("other-record writes mask exceeds one byte");
                }
                *s = ValueSlot { gen, val };
                val
            };
            vals[vi] = val;
            vi += 1;
        }
    }
    if val_cur.pos != payload.len() {
        return val_cur.corrupt("frame payload has trailing bytes");
    }
    Ok(())
}

/// Verifies a frame payload's checksum and decodes its columns into `out`
/// (replacing what it held; on an error, what is left is unspecified).
fn decode_frame_payload(
    records: u32,
    sum: u32,
    payload: &[u8],
    payload_at: u64,
    out: &mut TraceBatch,
    p: &mut Predictors,
) -> Result<(), TraceError> {
    if checksum(payload) != sum {
        return Err(TraceError::Corrupt { offset: payload_at, reason: "frame checksum mismatch" });
    }
    decode_columns(records, payload, payload_at, out, p)
}

// ---------------------------------------------------------------------------
// Single-frame encode/decode (shared by the writer/reader and `igm-net`,
// whose wire protocol carries these frames verbatim).
// ---------------------------------------------------------------------------

/// Appends one complete frame — header plus encoded payload — for `batch`
/// to `out`, through caller-owned predictor state (reuse one
/// [`Predictors`] per stream to amortize its tables). An empty batch
/// appends nothing (the format has no empty frames). This is the single
/// canonical frame encoder: [`TraceWriter::write_chunk_batch`] writes its
/// output to the stream, and `igm-net` ships it verbatim inside chunk
/// messages.
///
/// # Panics
///
/// If `batch` holds more than [`MAX_FRAME_RECORDS`] records: no reader
/// would accept the frame. Callers that take batches from elsewhere check
/// first, as the writer and `igm-net`'s forwarder do.
pub fn encode_frame_with(p: &mut Predictors, out: &mut Vec<u8>, batch: &TraceBatch) {
    if batch.is_empty() {
        return;
    }
    let start = out.len();
    out.resize(start + FRAME_HEADER_BYTES, 0);
    encode_batch(out, batch, p);
    seal_frame(&mut out[start..], batch.len());
}

/// Fills the header of `frame` — a header's room followed by the payload
/// of `records` records — with its counts and the payload's checksum.
fn seal_frame(frame: &mut [u8], records: usize) {
    assert!(records <= MAX_FRAME_RECORDS as usize, "batch exceeds the frame record bound");
    let records = records as u32;
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
    let len = u32::try_from(payload.len()).expect("frame payload fits a u32 length");
    let words = [records, len, checksum(payload), CODEC_ID];
    for (dst, word) in header.chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
}

/// Appends one frame for `batch` to `out` with throwaway predictor state —
/// a convenience over [`encode_frame_with`] for one-shot callers.
pub fn encode_frame(out: &mut Vec<u8>, batch: &TraceBatch) {
    encode_frame_with(&mut Predictors::new(), out, batch);
}

/// Validates one frame header (shared by every decode path) and returns
/// its `(records, payload_len, checksum)`. `offset` is the header's
/// position in the stream, for error reporting.
pub(crate) fn validate_frame_header(
    header: &[u8; FRAME_HEADER_BYTES],
    offset: u64,
) -> Result<(u32, u32, u32), TraceError> {
    let word = |i: usize| u32::from_le_bytes(header[i * 4..i * 4 + 4].try_into().unwrap());
    let (records, len, sum) = (word(0), word(1), word(2));
    let corrupt = |reason| Err(TraceError::Corrupt { offset, reason });
    if word(3) != CODEC_ID {
        return corrupt("unknown codec id in frame header");
    }
    if records == 0 {
        return corrupt("zero-record frame");
    }
    if len == 0 {
        return corrupt("zero-length frame payload");
    }
    if len > MAX_PAYLOAD_BYTES {
        return corrupt("frame payload length exceeds the format bound");
    }
    // A record count inconsistent with the payload length is corruption:
    // every record spends at least its pc and static hit bits. The
    // checksum covers only the payload, not the header — this check must
    // precede any length-driven allocation, or a flipped count field could
    // drive a multi-gigabyte allocation instead of a typed error.
    if (records as u64).div_ceil(8) * 2 > len as u64 {
        return corrupt("record count inconsistent with frame payload length");
    }
    if records > MAX_FRAME_RECORDS {
        return corrupt("frame record count exceeds the format bound");
    }
    Ok((records, len, sum))
}

/// Decodes exactly one complete frame from the start of `bytes` into
/// `out`'s columns (replacing what they held; empty on an error),
/// returning the bytes consumed. The frame must be whole and `bytes` must
/// hold nothing else: truncation and trailing bytes are both
/// [`TraceError::Corrupt`]. `stream_offset` is where `bytes[0]` sits in
/// the surrounding stream, for error reporting — the inverse of
/// [`encode_frame_with`], used by `igm-net` to decode the frame carried in
/// one chunk message.
pub fn decode_frame_with(
    p: &mut Predictors,
    bytes: &[u8],
    stream_offset: u64,
    out: &mut TraceBatch,
) -> Result<usize, TraceError> {
    let r = decode_whole_frame(p, bytes, stream_offset, out);
    if r.is_err() {
        out.clear();
    }
    r
}

fn decode_whole_frame(
    p: &mut Predictors,
    bytes: &[u8],
    stream_offset: u64,
    out: &mut TraceBatch,
) -> Result<usize, TraceError> {
    let Some(header) = bytes.first_chunk() else {
        return Err(TraceError::Corrupt {
            offset: stream_offset + bytes.len() as u64,
            reason: "stream ends inside a frame header",
        });
    };
    let (records, len, sum) = validate_frame_header(header, stream_offset)?;
    let payload_at = stream_offset + FRAME_HEADER_BYTES as u64;
    let total = FRAME_HEADER_BYTES + len as usize;
    if bytes.len() < total {
        return Err(TraceError::Corrupt {
            offset: stream_offset + bytes.len() as u64,
            reason: "stream ends inside a frame payload",
        });
    }
    if bytes.len() > total {
        return Err(TraceError::Corrupt {
            offset: stream_offset + total as u64,
            reason: "frame payload has trailing bytes",
        });
    }
    decode_frame_payload(records, sum, &bytes[FRAME_HEADER_BYTES..total], payload_at, out, p)?;
    Ok(total)
}

/// Decodes one frame with throwaway predictor state — a convenience over
/// [`decode_frame_with`] for one-shot callers.
pub fn decode_frame(
    bytes: &[u8],
    stream_offset: u64,
    out: &mut TraceBatch,
) -> Result<usize, TraceError> {
    decode_frame_with(&mut Predictors::new(), bytes, stream_offset, out)
}

/// One column's share of a frame ([`frame_columns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Predictor slots: records for the pc and static columns, address
    /// slots and immediates for the other two.
    pub slots: u64,
    /// Slots the predictor hit (one bit each on the wire).
    pub hits: u64,
    /// Escape bytes behind the hit bitmap.
    pub escape_bytes: u64,
}

/// A frame's payload split by column ([`frame_columns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameColumns {
    /// The pc, static, address and value columns, in wire order.
    pub columns: [ColumnStats; 4],
    /// The address-escape delta base the encoder chose: `Some(true)` for
    /// the missed slot's prediction, `Some(false)` for the running
    /// previous address, `None` when the frame has no address slots.
    pub predicted_base: Option<bool>,
}

/// Decodes one whole frame (refusing what [`decode_frame`] refuses) and
/// splits its payload by column — per column, its predictor slots, hits
/// and escape bytes, and the address column's delta base: how the codec
/// compresses, column by column.
pub fn frame_columns(bytes: &[u8]) -> Result<FrameColumns, TraceError> {
    let mut batch = TraceBatch::new();
    decode_frame(bytes, 0, &mut batch)?;
    let payload = &bytes[FRAME_HEADER_BYTES..];
    let slots = [batch.len(), batch.len(), batch.addrs().len(), batch.vals().len()];
    let mut split = FrameColumns::default();
    let mut pos = 0;
    for (c, slots) in slots.into_iter().enumerate() {
        if c == 2 && slots != 0 {
            split.predicted_base = Some(payload[pos] == ADDR_MODE_PREDICTED);
            pos += 1;
        }
        let bits = &payload[pos..pos + slots.div_ceil(8)];
        let hits = popcount(bits);
        let end = skip_varints(payload, pos + bits.len(), slots - hits).expect("a decoded frame");
        let escape_bytes = end - pos - bits.len();
        split.columns[c] = ColumnStats {
            slots: slots as u64,
            hits: hits as u64,
            escape_bytes: escape_bytes as u64,
        };
        pos = end;
    }
    Ok(split)
}

// ---------------------------------------------------------------------------
// Codec metrics.
// ---------------------------------------------------------------------------

/// In-memory bytes per record — the denominator the wire format is
/// measured against.
const RAW_RECORD_BYTES: u64 = std::mem::size_of::<TraceEntry>() as u64;

/// Codec instrumentation handles: raw-vs-wire byte counters (their ratio
/// is the live compression factor) and encode/decode latency histograms.
/// Detached by default; [`CodecMetrics::register`] binds them to a shared
/// [`MetricsRegistry`] so they scrape from `/metrics`.
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    raw_bytes: Counter,
    wire_bytes: Counter,
    encode_nanos: Histogram,
    decode_nanos: Histogram,
}

impl CodecMetrics {
    /// Handles bound to nothing: counters count into a private cell and
    /// the histograms are disabled (no clock reads on the hot path).
    pub fn detached() -> CodecMetrics {
        CodecMetrics {
            raw_bytes: Counter::detached(),
            wire_bytes: Counter::detached(),
            encode_nanos: Histogram::disabled(),
            decode_nanos: Histogram::disabled(),
        }
    }

    /// Handles registered on `registry` under the `igm_codec_*` names.
    /// Registration is idempotent: every clone of a registry hands back
    /// handles over the same underlying series.
    pub fn register(registry: &MetricsRegistry) -> CodecMetrics {
        CodecMetrics {
            raw_bytes: registry.counter(
                "igm_codec_raw_bytes_total",
                "In-memory record bytes through the trace codec (28 B/record), both directions",
            ),
            wire_bytes: registry.counter(
                "igm_codec_wire_bytes_total",
                "Encoded frame bytes through the trace codec, both directions",
            ),
            encode_nanos: registry
                .histogram("igm_codec_encode_nanos", "Frame encode latency (nanoseconds)"),
            decode_nanos: registry
                .histogram("igm_codec_decode_nanos", "Frame decode latency (nanoseconds)"),
        }
    }

    /// Starts an encode timing (no clock read when the histogram is
    /// disabled).
    pub fn start_encode(&self) -> Option<Instant> {
        self.encode_nanos.start()
    }

    /// Completes an encode timing started by
    /// [`CodecMetrics::start_encode`].
    pub fn stop_encode(&self, started: Option<Instant>) {
        self.encode_nanos.stop(started);
    }

    /// Starts a decode timing.
    pub fn start_decode(&self) -> Option<Instant> {
        self.decode_nanos.start()
    }

    /// Completes a decode timing started by
    /// [`CodecMetrics::start_decode`].
    pub fn stop_decode(&self, started: Option<Instant>) {
        self.decode_nanos.stop(started);
    }

    /// Accounts one frame's worth of traffic: `records` decoded or
    /// encoded records against `wire` encoded bytes (frame header
    /// included).
    pub fn count_frame(&self, records: u64, wire: u64) {
        self.raw_bytes.add(records * RAW_RECORD_BYTES);
        self.wire_bytes.add(wire);
    }
}

// ---------------------------------------------------------------------------
// Writer / reader.
// ---------------------------------------------------------------------------

/// Streaming encoder: one [`TraceWriter::write_chunk_batch`] call per
/// transport batch produces one frame. The encode staging buffer and
/// predictor tables are reused across chunks.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    chunks: u64,
    records: u64,
    /// Frame bytes written after the file header (headers + payloads).
    stream_bytes: u64,
    /// Frame-offset index built as frames are written, when requested via
    /// [`TraceWriter::with_index`] (opt-in: long-lived tee/capture
    /// writers that never read it should not accumulate an entry per
    /// frame forever).
    index: Option<crate::index::TraceIndex>,
    /// The index build's scratch buffers, reused frame to frame (empty
    /// and allocation-free unless `index` is set).
    posting_builder: crate::postings::PostingBuilder,
    /// Predictor state, allocated on the first frame.
    predictors: Option<Box<Predictors>>,
    metrics: CodecMetrics,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the file header and readies the encoder.
    pub fn new(mut w: W) -> io::Result<TraceWriter<W>> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            buf: Vec::new(),
            chunks: 0,
            records: 0,
            stream_bytes: 0,
            index: None,
            posting_builder: Default::default(),
            predictors: None,
            metrics: CodecMetrics::detached(),
        })
    }

    /// Like [`TraceWriter::new`], but also builds the frame directory
    /// *and* the per-frame posting lists as frames are written
    /// ([`TraceWriter::index`]) — byte-identical to what
    /// [`crate::index::TraceIndex::scan_records`] would rebuild from the
    /// finished stream.
    pub fn with_index(w: W) -> io::Result<TraceWriter<W>> {
        let mut writer = TraceWriter::new(w)?;
        writer.index = Some(crate::index::TraceIndex::new());
        Ok(writer)
    }

    /// Binds this writer's codec instrumentation (byte counters, encode
    /// latency histogram) to `registry`.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = CodecMetrics::register(registry);
    }

    /// Encodes one columnar [`TraceBatch`] as one frame — the canonical
    /// encoder: the batch's columns run through the frame codec straight
    /// onto the wire ([`encode_frame_with`]). An empty batch writes
    /// nothing (the format has no empty frames); a batch of more than
    /// [`MAX_FRAME_RECORDS`] records writes nothing and fails with
    /// [`io::ErrorKind::InvalidInput`].
    pub fn write_chunk_batch(&mut self, batch: &TraceBatch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if batch.len() > MAX_FRAME_RECORDS as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "batch exceeds the per-frame record bound",
            ));
        }
        self.buf.clear();
        let started = self.metrics.start_encode();
        let p = self.predictors.get_or_insert_with(|| Box::new(Predictors::new()));
        encode_frame_with(p, &mut self.buf, batch);
        self.metrics.stop_encode(started);
        self.w.write_all(&self.buf)?;
        self.metrics.count_frame(batch.len() as u64, self.buf.len() as u64);
        if let Some(index) = self.index.as_mut() {
            index.push_frame_batch(8 + self.stream_bytes, batch, &mut self.posting_builder);
        }
        self.chunks += 1;
        self.records += batch.len() as u64;
        self.stream_bytes += self.buf.len() as u64;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }

    /// Frames written so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Records encoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Encoded bytes written after the file header, frame headers included
    /// — the numerator of the bytes-per-record metric.
    pub fn stream_bytes(&self) -> u64 {
        self.stream_bytes
    }

    /// The frame-offset index accumulated so far (`None` unless the
    /// writer was opened with [`TraceWriter::with_index`]) — one entry
    /// per frame written, byte-identical to what
    /// [`crate::index::TraceIndex::scan_records`] rebuilds from the
    /// finished stream. Save it as a sidecar ([`crate::index::TraceIndex::save`])
    /// to enable seeking replays.
    pub fn index(&self) -> Option<&crate::index::TraceIndex> {
        self.index.as_ref()
    }

    /// Takes ownership of the accumulated index (leaving `None`), for
    /// writers whose sink is consumed by [`TraceWriter::finish`] but
    /// whose index must outlive it — teed captures and ingest lanes save
    /// their sidecar this way once the session's report is in.
    pub fn take_index(&mut self) -> Option<crate::index::TraceIndex> {
        self.index.take()
    }
}

/// Streaming decoder over any [`Read`].
///
/// [`TraceReader::read_chunk_into_batch`] decodes one frame into a
/// caller-owned, reusable batch — the file-sourced twin of the runtime's
/// batch-grain ingest path.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    buf: Vec<u8>,
    offset: u64,
    chunks: u64,
    records: u64,
    /// Predictor state, allocated on the first frame.
    predictors: Option<Box<Predictors>>,
    metrics: CodecMetrics,
}

impl<R: Read> TraceReader<R> {
    /// Validates the file header and readies the decoder.
    pub fn new(mut r: R) -> Result<TraceReader<R>, TraceError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => TraceError::BadMagic,
            _ => TraceError::Io(e),
        })?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => TraceError::BadMagic,
            _ => TraceError::Io(e),
        })?;
        let version = u32::from_le_bytes(ver);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(TraceReader {
            r,
            buf: Vec::new(),
            offset: 8,
            chunks: 0,
            records: 0,
            predictors: None,
            metrics: CodecMetrics::detached(),
        })
    }

    /// Binds this reader's codec instrumentation (byte counters, decode
    /// latency histogram) to `registry`.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = CodecMetrics::register(registry);
    }

    /// Decodes the next frame **directly into** `out`'s columns (replacing
    /// what they held) — the canonical decoder: no intermediate
    /// `Vec<TraceEntry>` is built, the frame's wire streams land in the
    /// batch's columns one-to-one. Returns `false` on a clean end of
    /// stream, `true` when `out` holds a chunk; `out` is empty unless it
    /// holds one.
    pub fn read_chunk_into_batch(&mut self, out: &mut TraceBatch) -> Result<bool, TraceError> {
        let r = self.read_frame(out);
        if !matches!(r, Ok(true)) {
            out.clear();
        }
        r
    }

    fn read_frame(&mut self, out: &mut TraceBatch) -> Result<bool, TraceError> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        match read_exact_or_eof(&mut self.r, &mut header) {
            Ok(0) => return Ok(false),
            Ok(n) if n < FRAME_HEADER_BYTES => {
                return Err(TraceError::Corrupt {
                    offset: self.offset + n as u64,
                    reason: "stream ends inside a frame header",
                })
            }
            Ok(_) => {}
            Err(e) => return Err(TraceError::Io(e)),
        }
        let (records, len, sum) = validate_frame_header(&header, self.offset)?;
        let payload_at = self.offset + FRAME_HEADER_BYTES as u64;
        self.buf.resize(len as usize, 0);
        match read_exact_or_eof(&mut self.r, &mut self.buf) {
            Ok(n) if n < len as usize => {
                return Err(TraceError::Corrupt {
                    offset: payload_at + n as u64,
                    reason: "stream ends inside a frame payload",
                })
            }
            Ok(_) => {}
            Err(e) => return Err(TraceError::Io(e)),
        }
        let started = self.metrics.start_decode();
        let p = self.predictors.get_or_insert_with(|| Box::new(Predictors::new()));
        decode_frame_payload(records, sum, &self.buf, payload_at, out, p)?;
        self.metrics.stop_decode(started);
        self.metrics.count_frame(records as u64, (FRAME_HEADER_BYTES + len as usize) as u64);
        self.offset = payload_at + len as u64;
        self.chunks += 1;
        self.records += records as u64;
        Ok(true)
    }

    /// Decodes the whole remaining stream, chunk structure flattened.
    pub fn read_all(&mut self) -> Result<Vec<TraceEntry>, TraceError> {
        let mut all = Vec::new();
        let mut chunk = TraceBatch::new();
        while self.read_chunk_into_batch(&mut chunk)? {
            all.extend(chunk.iter());
        }
        Ok(all)
    }

    /// Frames decoded so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Byte offset the next frame header will be read at (8 right after
    /// construction: the file header) — the offset
    /// [`crate::index::TraceIndex`] entries store for that frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl<R: Read + io::Seek> TraceReader<R> {
    /// Repositions the reader at the frame described by `entry` (an
    /// [`IndexEntry`](crate::index::IndexEntry) from a
    /// [`TraceIndex`](crate::index::TraceIndex)), so the next
    /// [`TraceReader::read_chunk_into_batch`] decodes that frame — no
    /// prefix decoding. Frames decode independently (delta state and
    /// predictor tables both reset at frame boundaries), so any frame is
    /// a valid entry point.
    pub fn seek_to_frame(&mut self, entry: &crate::index::IndexEntry) -> Result<(), TraceError> {
        self.r.seek(io::SeekFrom::Start(entry.offset)).map_err(TraceError::Io)?;
        self.offset = entry.offset;
        Ok(())
    }
}

/// Like `read_exact`, but distinguishes "no bytes at all" (clean EOF,
/// returns 0) and "some but not enough" (returns the short count) from
/// I/O errors.
pub(crate) fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Convenience: encodes `trace` into an in-memory buffer, one frame per
/// `chunk_bytes`-sized transport batch ([`igm_lba::chunks`]).
pub fn encode_to_vec(trace: impl IntoIterator<Item = TraceEntry>, chunk_bytes: u32) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    let mut chunker = igm_lba::chunks(trace, chunk_bytes);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        w.write_chunk_batch(&batch).expect("writing to a Vec cannot fail");
    }
    w.finish().expect("flushing a Vec cannot fail")
}

/// Convenience: decodes a whole in-memory trace stream.
pub fn decode_from_slice(bytes: &[u8]) -> Result<Vec<TraceEntry>, TraceError> {
    TraceReader::new(bytes)?.read_all()
}

// ---------------------------------------------------------------------------
// The four-pass codec, kept as the differential tests' oracle.
// ---------------------------------------------------------------------------

/// The column-at-a-time codec the one-pass encoder and two-pass decoder
/// replaced: four passes each way, escapes appended with `push`, records
/// decoded through the batch's `push_raw_*` builders. It defines the wire
/// bytes the fused walks must reproduce and the inputs they must refuse.
#[cfg(test)]
mod oracle {
    use super::*;

    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    impl Predictors {
        #[inline]
        fn pc_predict(&self, prev_pc: u32) -> Option<u32> {
            let s = &self.next_pc[pred_slot(prev_pc)];
            (s.gen == self.gen).then_some(s.val)
        }

        #[inline]
        fn pc_update(&mut self, prev_pc: u32, pc: u32) {
            self.next_pc[pred_slot(prev_pc)] = ValueSlot { gen: self.gen, val: pc };
        }

        #[inline]
        fn static_predict(&self, pc: u32) -> Option<u32> {
            let s = &self.statics[pred_slot(pc)];
            (s.gen == self.gen).then_some(s.val)
        }

        #[inline]
        fn static_update(&mut self, pc: u32, packed: u32) {
            self.statics[pred_slot(pc)] = ValueSlot { gen: self.gen, val: packed };
        }

        #[inline]
        fn addr_predict(&self, pc: u32, slot: u8) -> Option<(u32, u8)> {
            let s = &self.addrs[pred_slot(Self::addr_key(pc, slot))];
            (s.gen == self.gen).then_some((s.last.wrapping_add(s.stride), s.size))
        }

        #[inline]
        fn addr_update(&mut self, pc: u32, slot: u8, addr: u32, size: u8) {
            let s = &mut self.addrs[pred_slot(Self::addr_key(pc, slot))];
            let stride = if s.gen == self.gen { addr.wrapping_sub(s.last) } else { 0 };
            *s = StrideSlot { gen: self.gen, last: addr, stride, size };
        }

        #[inline]
        fn val_predict(&self, pc: u32) -> Option<u32> {
            let s = &self.vals[pred_slot(pc)];
            (s.gen == self.gen).then_some(s.val)
        }

        #[inline]
        fn val_update(&mut self, pc: u32, val: u32) {
            self.vals[pred_slot(pc)] = ValueSlot { gen: self.gen, val };
        }
    }

    pub(super) fn encode_batch(out: &mut Vec<u8>, batch: &TraceBatch, p: &mut Predictors) {
        p.begin_frame();
        let mut st = CodecState::default();
        let n = batch.len();
        let pcs = batch.pcs();
        let rcodes = batch.codes();
        let aregs = batch.addr_regs_bits();
        let regs = batch.reg_bytes();
        let flags = batch.flag_bytes();
        let addrs = batch.addrs();
        let sizes = batch.size_codes();
        let vals = batch.vals();

        // Pc column: next-pc chained prediction, delta escapes.
        let bits = out.len();
        out.resize(bits + n.div_ceil(8), 0);
        for (i, &pc) in pcs.iter().enumerate() {
            let prev = st.prev_pc;
            if p.pc_predict(prev) == Some(pc) {
                out[bits + (i >> 3)] |= 1 << (i & 7);
                st.prev_pc = pc;
            } else {
                put_varint(out, pc_escape(st.prev_pc, pc));
                st.prev_pc = pc;
            }
            p.pc_update(prev, pc);
        }

        // Static column: (code, addr_regs, regs, flags) last-value keyed by
        // pc; escapes are the field-reordered word as a varint.
        let bits = out.len();
        out.resize(bits + n.div_ceil(8), 0);
        for (i, &pc) in pcs.iter().enumerate() {
            let packed = pack_static(rcodes[i], aregs[i], regs[i], flags[i]);
            if p.static_predict(pc) == Some(packed) {
                out[bits + (i >> 3)] |= 1 << (i & 7);
            } else {
                put_varint(out, static_escape(packed) as u64);
            }
            p.static_update(pc, packed);
        }

        // Address column: per-(pc, operand-slot) stride prediction over the
        // shared address stream; escapes are the address-stream varints.
        // Each frame codes its escapes against both delta bases — the running
        // previous address, and the missing slot's own prediction — and ships
        // the smaller stream, named by a mode byte ahead of the bitmap:
        // regular strided code favors the prediction base (a near miss in a
        // tracked region costs a byte or two, not five), pointer-chasing
        // favors the global one.
        let m = addrs.len();
        let mode_at = out.len();
        if m != 0 {
            out.push(ADDR_MODE_GLOBAL);
        }
        let bits = out.len();
        out.resize(bits + m.div_ceil(8), 0);
        let esc_at = out.len();
        let mut pred_esc = Vec::new();
        let mut stp = CodecState::default();
        let mut ai = 0usize;
        for (i, &pc) in pcs.iter().enumerate() {
            let (mems, plains, _) = stream_shape(rcodes[i], flags[i]);
            for j in 0..mems {
                let (addr, size) = (addrs[ai], sizes[ai]);
                let pred = p.addr_predict(pc, j);
                if pred == Some((addr, size)) {
                    out[bits + (ai >> 3)] |= 1 << (ai & 7);
                    st.prev_addr = addr;
                    stp.prev_addr = addr;
                } else {
                    put_varint(out, mem_escape(st.prev_addr, addr, size));
                    st.prev_addr = addr;
                    if let Some((pa, _)) = pred {
                        stp.prev_addr = pa;
                    }
                    put_varint(&mut pred_esc, mem_escape(stp.prev_addr, addr, size));
                    stp.prev_addr = addr;
                }
                p.addr_update(pc, j, addr, size);
                ai += 1;
            }
            if plains != 0 {
                let addr = addrs[ai];
                let pred = p.addr_predict(pc, 0);
                if pred == Some((addr, 2)) {
                    out[bits + (ai >> 3)] |= 1 << (ai & 7);
                    st.prev_addr = addr;
                    stp.prev_addr = addr;
                } else {
                    put_varint(out, plain_escape(st.prev_addr, addr));
                    st.prev_addr = addr;
                    if let Some((pa, _)) = pred {
                        stp.prev_addr = pa;
                    }
                    put_varint(&mut pred_esc, plain_escape(stp.prev_addr, addr));
                    stp.prev_addr = addr;
                }
                p.addr_update(pc, 0, addr, 2);
                ai += 1;
            }
        }
        debug_assert_eq!(ai, m, "batch address column disagrees with the record shapes");
        if m != 0 && pred_esc.len() < out.len() - esc_at {
            out[mode_at] = ADDR_MODE_PREDICTED;
            out.truncate(esc_at);
            out.extend_from_slice(&pred_esc);
        }

        // Value column: last-value keyed by pc, raw varint escapes.
        let v = vals.len();
        let bits = out.len();
        out.resize(bits + v.div_ceil(8), 0);
        let mut vi = 0usize;
        for (i, &pc) in pcs.iter().enumerate() {
            let (_, _, nvals) = stream_shape(rcodes[i], flags[i]);
            if nvals != 0 {
                let val = vals[vi];
                if p.val_predict(pc) == Some(val) {
                    out[bits + (vi >> 3)] |= 1 << (vi & 7);
                } else {
                    put_varint(out, val as u64);
                }
                p.val_update(pc, val);
                vi += 1;
            }
        }
        debug_assert_eq!(vi, v, "batch value column disagrees with the record shapes");
    }

    pub(super) fn decode_columns(
        records: u32,
        payload: &[u8],
        payload_at: u64,
        out: &mut TraceBatch,
        p: &mut Predictors,
        pcs: &mut Vec<u32>,
        meta: &mut Vec<(u8, u8)>,
    ) -> Result<(), TraceError> {
        p.begin_frame();
        let n = records as usize;
        let mut cur = Cursor { bytes: payload, pos: 0, base: payload_at };
        let mut st = CodecState::default();

        // Pc column.
        let bits = cur.bitmap(n)?;
        for i in 0..n {
            let prev = st.prev_pc;
            let pc = if bit(bits, i) {
                match p.pc_predict(prev) {
                    Some(pc) => {
                        st.prev_pc = pc;
                        pc
                    }
                    None => return cur.corrupt("pc hit references an unseeded predictor slot"),
                }
            } else {
                cur.pc(&mut st)?
            };
            p.pc_update(prev, pc);
            pcs.push(pc);
        }

        // Static column; the record shapes it yields size the remaining two.
        let bits = cur.bitmap(n)?;
        let mut mem_slots = 0usize;
        let mut val_slots = 0usize;
        for (i, &pc) in pcs.iter().enumerate() {
            let packed = if bit(bits, i) {
                match p.static_predict(pc) {
                    Some(v) => v,
                    None => return cur.corrupt("static hit references an unseeded predictor slot"),
                }
            } else {
                let v = cur.u32_varint()?;
                let Some(raw) = static_unescape(v) else {
                    return cur.corrupt("static escape has nonzero padding bits");
                };
                let (code, _, regs, flags) = unpack_static(raw);
                if let Err(reason) = validate_static(code, regs, flags) {
                    return cur.corrupt(reason);
                }
                raw
            };
            p.static_update(pc, packed);
            let (code, addr_regs, regs, flags) = unpack_static(packed);
            let (mems, plains, vals) = stream_shape(code, flags);
            mem_slots += (mems + plains) as usize;
            val_slots += vals as usize;
            meta.push((code, flags));
            out.push_raw_record(pc, code, addr_regs, regs, flags);
        }

        // Address column.
        let pred_base = if mem_slots != 0 {
            match cur.byte()? {
                ADDR_MODE_GLOBAL => false,
                ADDR_MODE_PREDICTED => true,
                _ => return cur.corrupt("unknown address-escape delta base"),
            }
        } else {
            false
        };
        let bits = cur.bitmap(mem_slots)?;
        let mut ai = 0usize;
        for (&pc, &(code, flags)) in pcs.iter().zip(meta.iter()) {
            let (mems, plains, _) = stream_shape(code, flags);
            for j in 0..mems {
                let pred = p.addr_predict(pc, j);
                let (addr, size) = if bit(bits, ai) {
                    match pred {
                        Some((a, s)) => {
                            st.prev_addr = a;
                            (a, s)
                        }
                        None => {
                            return cur.corrupt("address hit references an unseeded predictor slot")
                        }
                    }
                } else {
                    if let Some((pa, _)) = pred.filter(|_| pred_base) {
                        st.prev_addr = pa;
                    }
                    cur.mem_parts(&mut st)?
                };
                p.addr_update(pc, j, addr, size);
                out.push_raw_addr(addr, size);
                ai += 1;
            }
            if plains != 0 {
                let pred = p.addr_predict(pc, 0);
                let addr = if bit(bits, ai) {
                    match pred {
                        Some((a, 2)) => {
                            st.prev_addr = a;
                            a
                        }
                        Some(_) => {
                            return cur.corrupt("plain-address hit on a sized predictor slot")
                        }
                        None => {
                            return cur.corrupt("address hit references an unseeded predictor slot")
                        }
                    }
                } else {
                    if let Some((pa, _)) = pred.filter(|_| pred_base) {
                        st.prev_addr = pa;
                    }
                    cur.addr(&mut st)?
                };
                p.addr_update(pc, 0, addr, 2);
                out.push_raw_addr(addr, 2);
                ai += 1;
            }
        }

        // Value column.
        let bits = cur.bitmap(val_slots)?;
        let mut vi = 0usize;
        for (&pc, &(code, flags)) in pcs.iter().zip(meta.iter()) {
            let (_, _, nvals) = stream_shape(code, flags);
            if nvals != 0 {
                let val = if bit(bits, vi) {
                    match p.val_predict(pc) {
                        Some(v) => v,
                        None => {
                            return cur.corrupt("value hit references an unseeded predictor slot")
                        }
                    }
                } else {
                    cur.u32_varint()?
                };
                if code == codes::OTHER && val > 0xff {
                    return cur.corrupt("other-record writes mask exceeds one byte");
                }
                p.val_update(pc, val);
                out.push_raw_val(val);
                vi += 1;
            }
        }

        if cur.pos != payload.len() {
            return Err(TraceError::Corrupt {
                offset: payload_at + cur.pos as u64,
                reason: "frame payload has trailing bytes",
            });
        }
        Ok(())
    }

    /// One whole frame for `batch`, laid out as [`encode_frame_with`] lays
    /// it out, through the oracle's encoder.
    pub(super) fn encode_frame(p: &mut Predictors, batch: &TraceBatch) -> Vec<u8> {
        let mut out = vec![0; FRAME_HEADER_BYTES];
        encode_batch(&mut out, batch, p);
        seal_frame(&mut out, batch.len());
        out
    }

    /// Decodes one whole frame as [`decode_frame_with`] does, through the
    /// oracle's decoder.
    pub(super) fn decode_frame(p: &mut Predictors, bytes: &[u8]) -> Result<TraceBatch, TraceError> {
        let header = bytes.first_chunk().expect("a whole frame header");
        let (records, len, sum) = validate_frame_header(header, 0)?;
        let payload = &bytes[FRAME_HEADER_BYTES..];
        assert_eq!(payload.len(), len as usize, "a whole frame");
        if checksum(payload) != sum {
            return Err(TraceError::Corrupt { offset: 16, reason: "frame checksum mismatch" });
        }
        let mut out = TraceBatch::new();
        let (mut pcs, mut meta) = (Vec::new(), Vec::new());
        decode_columns(
            records,
            payload,
            FRAME_HEADER_BYTES as u64,
            &mut out,
            p,
            &mut pcs,
            &mut meta,
        )?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, RegSet, TraceOp};
    use proptest::prelude::*;

    /// splitmix64: a deterministic stream for the batch generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn reg(&mut self) -> Reg {
            Reg::from_index(self.below(8) as usize)
        }
    }

    /// How generated memory operands move: the stride predictor's best
    /// case, its next-best, and the two it cannot predict (random, and a
    /// pointer chase whose every address is a function of the last).
    #[derive(Debug, Clone, Copy)]
    enum Addrs {
        Constant,
        Strided,
        Random,
        PointerChase,
    }

    /// Which records a generated batch holds.
    #[derive(Debug, Clone, Copy)]
    enum Mix {
        /// Every record kind, annotations included.
        All,
        /// Records with two address operands (`MemToMem`, `Other` with both
        /// memory operands, `Syscall` with a memory argument) beside
        /// single-operand ones.
        TwoOperand,
        /// The annotations whose only payload is an immediate
        /// (`ThreadSwitch`, `ThreadExit`) beside ordinary records.
        ValueOnly,
    }

    /// One static instruction of a generated program: its pc, its record
    /// kind, and the per-site state its operands move by.
    struct Site {
        pc: u32,
        kind: u64,
        rs: Reg,
        rd: Reg,
        aregs: RegSet,
        size: MemSize,
        addr: u32,
        stride: u32,
        val: u32,
    }

    const KINDS: u64 = 30;

    fn kind_for(rng: &mut Rng, mix: Mix) -> u64 {
        match mix {
            Mix::All => rng.below(KINDS),
            Mix::TwoOperand => [7, 13, 25, 6, 1][rng.below(5) as usize],
            Mix::ValueOnly => [28, 29, 28, 29, 0, 6, 20][rng.below(7) as usize],
        }
    }

    /// Pcs that all hash to one predictor slot, half of them as address
    /// operand 0 and half through operand 1's key, so every table's slots
    /// are fought over by records of different shapes.
    fn colliding_pcs() -> Vec<u32> {
        let target = pred_slot(0x4000);
        let same = (0x4000u32..).step_by(4).filter(|&pc| pred_slot(pc) == target).take(4);
        let second = (0x8000u32..)
            .step_by(4)
            .filter(|&pc| pred_slot(Predictors::addr_key(pc, 1)) == target)
            .take(4);
        same.chain(second).collect()
    }

    /// A batch of `len` records run from a generated program: mostly in
    /// program order, with a random jump one record in eight, so the
    /// predictors see loops, misses and reseeding alike.
    fn batch(seed: u64, addrs: Addrs, mix: Mix, colliding: bool, len: usize) -> TraceBatch {
        let mut rng = Rng(seed);
        let pcs: Vec<u32> = if colliding {
            colliding_pcs()
        } else {
            (0..1 + rng.below(40)).map(|_| rng.next() as u32).collect()
        };
        let mut sites: Vec<Site> = pcs
            .into_iter()
            .map(|pc| Site {
                pc,
                kind: kind_for(&mut rng, mix),
                rs: rng.reg(),
                rd: rng.reg(),
                aregs: RegSet::from_bits(if rng.below(2) == 0 { 0 } else { rng.next() as u8 }),
                size: [MemSize::B4, MemSize::B4, MemSize::B2, MemSize::B1][rng.below(4) as usize],
                addr: rng.next() as u32,
                stride: [4, 8, 1, 4096, 0xffff_fffc][rng.below(5) as usize],
                val: rng.below(0x100) as u32,
            })
            .collect();
        let mut chase = rng.next() as u32;
        let mut at = 0usize;
        let mut b = TraceBatch::new();
        for _ in 0..len {
            at = if rng.below(8) == 0 { rng.below(sites.len() as u64) as usize } else { at + 1 };
            at %= sites.len();
            let s = &mut sites[at];
            let mut mem = |rng: &mut Rng| {
                let addr = match addrs {
                    Addrs::Constant => s.addr,
                    Addrs::Strided => {
                        s.addr = s.addr.wrapping_add(s.stride);
                        s.addr
                    }
                    Addrs::Random => rng.next() as u32,
                    Addrs::PointerChase => {
                        chase = (chase ^ chase >> 13).wrapping_mul(0x2545_F491) ^ 0x1000;
                        chase
                    }
                };
                let size = if rng.below(16) == 0 { MemSize::B1 } else { s.size };
                MemRef::new(addr, size)
            };
            let val = if rng.below(4) == 0 { rng.next() as u32 } else { s.val };
            let (rs, rd) = (s.rs, s.rd);
            let regs = RegSet::from_bits(val as u8);
            let op = match s.kind {
                0 => TraceOp::Op(OpClass::ImmToReg { rd }),
                1 => TraceOp::Op(OpClass::ImmToMem { dst: mem(&mut rng) }),
                2 => TraceOp::Op(OpClass::RegSelf { rd }),
                3 => TraceOp::Op(OpClass::MemSelf { dst: mem(&mut rng) }),
                4 => TraceOp::Op(OpClass::RegToReg { rs, rd }),
                5 => TraceOp::Op(OpClass::RegToMem { rs, dst: mem(&mut rng) }),
                6 => TraceOp::Op(OpClass::MemToReg { src: mem(&mut rng), rd }),
                7 => TraceOp::Op(OpClass::MemToMem { src: mem(&mut rng), dst: mem(&mut rng) }),
                8 => TraceOp::Op(OpClass::DestRegOpReg { rs, rd }),
                9 => TraceOp::Op(OpClass::DestRegOpMem { src: mem(&mut rng), rd }),
                10 => TraceOp::Op(OpClass::DestMemOpReg { rs, dst: mem(&mut rng) }),
                11 => TraceOp::Op(OpClass::ReadOnly { src: Some(mem(&mut rng)), reads: regs }),
                12 => TraceOp::Op(OpClass::ReadOnly { src: None, reads: regs }),
                13 => TraceOp::Op(OpClass::Other {
                    reads: regs,
                    writes: RegSet::from_bits(s.val as u8),
                    mem_read: Some(mem(&mut rng)),
                    mem_write: Some(mem(&mut rng)),
                }),
                14 => TraceOp::Op(OpClass::Other {
                    reads: regs,
                    writes: RegSet::from_bits(val as u8),
                    mem_read: None,
                    mem_write: (val & 1 != 0).then(|| mem(&mut rng)),
                }),
                15 => TraceOp::Ctrl(CtrlOp::Direct),
                16 => TraceOp::Ctrl(CtrlOp::Indirect { target: JumpTarget::Reg(rd) }),
                17 => TraceOp::Ctrl(CtrlOp::Indirect { target: JumpTarget::Mem(mem(&mut rng)) }),
                18 => TraceOp::Ctrl(CtrlOp::CondBranch { input: (val & 1 != 0).then_some(rs) }),
                19 => TraceOp::Ctrl(CtrlOp::Ret { slot: mem(&mut rng) }),
                20 => TraceOp::Annot(Annotation::Malloc { base: mem(&mut rng).addr, size: val }),
                21 => TraceOp::Annot(Annotation::Free { base: mem(&mut rng).addr }),
                22 => TraceOp::Annot(Annotation::Lock { lock: mem(&mut rng).addr }),
                23 => TraceOp::Annot(Annotation::Unlock { lock: mem(&mut rng).addr }),
                24 => TraceOp::Annot(Annotation::ReadInput { base: mem(&mut rng).addr, len: val }),
                25 => TraceOp::Annot(Annotation::Syscall {
                    arg_reg: (val & 1 != 0).then_some(rs),
                    arg_mem: (val & 2 != 0 || matches!(mix, Mix::TwoOperand))
                        .then(|| mem(&mut rng)),
                }),
                26 => TraceOp::Annot(Annotation::PrintfFormat { fmt: mem(&mut rng) }),
                27 => TraceOp::Annot(Annotation::Syscall { arg_reg: None, arg_mem: None }),
                28 => TraceOp::Annot(Annotation::ThreadSwitch { tid: val }),
                _ => TraceOp::Annot(Annotation::ThreadExit { tid: val }),
            };
            b.push(&TraceEntry { pc: s.pc, op, addr_regs: s.aregs });
        }
        b
    }

    fn arbitrary_batch(seed: u64, family: u8, len: usize) -> TraceBatch {
        let addrs = [Addrs::Constant, Addrs::Strided, Addrs::Random, Addrs::PointerChase];
        let mixes = [Mix::All, Mix::TwoOperand, Mix::ValueOnly];
        let (a, m) = (addrs[family as usize % 4], mixes[family as usize / 4 % 3]);
        batch(seed, a, m, family >= 12, len)
    }

    /// Encodes with the fused walk, through `p`.
    fn encode(p: &mut Predictors, batch: &TraceBatch) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_with(p, &mut out, batch);
        out
    }

    fn decode(p: &mut Predictors, frame: &[u8]) -> Result<TraceBatch, TraceError> {
        let mut out = TraceBatch::new();
        decode_frame_with(p, frame, 0, &mut out).map(|_| out)
    }

    /// Flips, inserts or deletes one payload byte at a position and with a
    /// value drawn from `r`, then re-seals the header (length and
    /// checksum) so the column decoder, not the checksum, meets the
    /// damage.
    fn mutate(frame: &mut Vec<u8>, records: usize, r: u64) {
        let len = frame.len() - FRAME_HEADER_BYTES;
        let at = FRAME_HEADER_BYTES + (r >> 8) as usize % len;
        match r % 3 {
            0 => frame[at] ^= 1 << (r >> 4 & 7),
            1 => frame.insert(at, (r >> 40) as u8),
            _ if len > 1 => {
                frame.remove(at);
            }
            _ => frame[at] ^= 0x80,
        }
        seal_frame(frame, records);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn codec_matches_the_oracle_byte_for_byte(
            seed in any::<u64>(),
            family in 0u8..24,
            len in 1usize..400,
            frames in 1usize..4,
        ) {
            let whole = arbitrary_batch(seed, family, len * frames);
            // One predictor set per side across every frame, as a stream
            // reuses them.
            let (mut enc, mut oracle_enc) = (Predictors::new(), Predictors::new());
            let (mut dec, mut oracle_dec) = (Predictors::new(), Predictors::new());
            for k in 0..frames {
                let part: TraceBatch =
                    whole.iter().skip(k * len).take(len).collect();
                let frame = encode(&mut enc, &part);
                prop_assert_eq!(&frame, &oracle::encode_frame(&mut oracle_enc, &part));
                let decoded = decode(&mut dec, &frame).expect("an encoded frame decodes");
                prop_assert_eq!(&decoded, &part);
                prop_assert_eq!(
                    &decoded,
                    &oracle::decode_frame(&mut oracle_dec, &frame).expect("the oracle decodes")
                );
            }
        }

        #[test]
        fn damaged_frames_are_refused_exactly_when_the_oracle_refuses_them(
            seed in any::<u64>(),
            family in 0u8..24,
            len in 1usize..200,
            damage in 1usize..4,
        ) {
            let part = arbitrary_batch(seed, family, len);
            let good = encode(&mut Predictors::new(), &part);
            let mut rng = Rng(seed ^ 0x5eed);
            let (mut p, mut q) = (Predictors::new(), Predictors::new());
            for _ in 0..48 {
                let mut bad = good.clone();
                for _ in 0..damage {
                    mutate(&mut bad, part.len(), rng.next());
                }
                match (decode(&mut p, &bad), oracle::decode_frame(&mut q, &bad)) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(TraceError::Corrupt { .. }), Err(TraceError::Corrupt { .. })) => {}
                    (a, b) => prop_assert!(false, "fused {a:?} but oracle {b:?}"),
                }
            }
        }
    }

    #[test]
    fn every_address_family_and_mix_round_trips_at_frame_scale() {
        for family in 0..24 {
            let part = arbitrary_batch(family as u64, family, 16 * 1024);
            let frame = encode(&mut Predictors::new(), &part);
            assert_eq!(frame, oracle::encode_frame(&mut Predictors::new(), &part), "{family}");
            assert_eq!(decode(&mut Predictors::new(), &frame).unwrap(), part, "{family}");
        }
    }

    #[test]
    fn frames_across_the_generation_wrap_match_fresh_tables() {
        let parts: Vec<TraceBatch> =
            (0..5).map(|k| arbitrary_batch(k, (k * 5) as u8 % 24, 300)).collect();
        let (mut enc, mut dec) = (Predictors::new(), Predictors::new());
        // Frames run at generations MAX − 1, MAX, then — past the wrap —
        // 1, 2, 3. Seed every table under generation 1 with the very frame
        // that lands there: a wrap that kept those slots would read them
        // as live and code that frame against its own stale predictions.
        let seeded = encode(&mut enc, &parts[2]);
        decode(&mut dec, &seeded).unwrap();
        assert_eq!((enc.gen, dec.gen), (1, 1));
        enc.gen = u32::MAX - 2;
        dec.gen = u32::MAX - 2;
        for part in &parts {
            let frame = encode(&mut enc, part);
            assert_eq!(frame, encode(&mut Predictors::new(), part));
            assert_eq!(&decode(&mut dec, &frame).unwrap(), part);
        }
        assert_eq!((enc.gen, dec.gen), (3, 3), "the frames crossed the wrap");
    }

    /// The streaming checksum over `parts`, one `update` per part.
    fn streamed(parts: &[&[u8]]) -> u32 {
        let mut sum = Checksum::new();
        parts.iter().for_each(|part| sum.update(part));
        sum.finish()
    }

    fn bytes_of(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = Rng(seed);
        (0..len).map(|_| rng.next() as u8).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn streaming_the_checksum_in_three_parts_equals_one_shot(
            seed in any::<u64>(),
            len in 0usize..300,
            a in any::<u32>(),
            b in any::<u32>(),
        ) {
            let buf = bytes_of(seed, len);
            let (a, b) = (a as usize % (len + 1), b as usize % (len + 1));
            let (lo, hi) = (a.min(b), a.max(b));
            let (x, y, z) = (&buf[..lo], &buf[lo..hi], &buf[hi..]);
            let whole = checksum(&buf);
            prop_assert_eq!(streamed(&[x, y, z]), whole);
            prop_assert_eq!(checksum_parts(&[x, y, z]), whole);
            prop_assert_eq!(streamed(&[&buf[..lo], &buf[lo..]]), whole);
        }
    }

    #[test]
    fn every_split_of_a_short_buffer_streams_to_the_one_shot_checksum() {
        // Cuts at every offset of buffers up to three blocks long: inside
        // a word, inside a block, and on both boundaries.
        for len in [0, 1, 3, 4, 31, 32, 33, 64, 95, 97] {
            let buf = bytes_of(len as u64, len);
            let whole = checksum(&buf);
            for lo in 0..=len {
                for hi in lo..=len {
                    let parts = [&buf[..lo], &buf[lo..hi], &buf[hi..]];
                    assert_eq!(streamed(&parts), whole, "len {len} cut at {lo}, {hi}");
                }
            }
        }
    }

    #[test]
    fn the_checksum_covers_the_length_and_both_top_bits_of_a_word_pair() {
        // Trailing zero bytes are still bytes.
        let sums: Vec<u32> = (0..70).map(|len| checksum(&vec![0u8; len])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(!sums[i + 1..].contains(a), "zero runs of {i} bytes and longer collide");
        }
        // A pure multiply would carry a word's top-bit flip to the top bit
        // of the result and no further, so any two would cancel; every pair
        // of top-bit flips over eight blocks must show.
        let buf = bytes_of(7, 256);
        let whole = checksum(&buf);
        for i in (3..buf.len()).step_by(4) {
            for j in (i + 4..buf.len()).step_by(4) {
                let mut bad = buf.clone();
                bad[i] ^= 0x80;
                bad[j] ^= 0x80;
                assert_ne!(checksum(&bad), whole, "top bits of words at {i} and {j}");
            }
        }
    }

    #[test]
    fn a_plain_address_hit_on_a_sized_slot_is_refused_by_both_decoders() {
        // A byte load seeds the pc's stride slot with size code 0; a Free
        // at the same pc then misses it (a plain hit needs size code 2)
        // and escapes a zero delta.
        let part = TraceBatch::from_entries(&[
            TraceEntry::op(0x40, OpClass::MemToReg { src: MemRef::byte(0x100), rd: Reg::Eax }),
            TraceEntry::annot(0x40, Annotation::Free { base: 0x100 }),
        ]);
        let mut frame = encode(&mut Predictors::new(), &part);
        let len = frame.len();
        // Address section: global base, both slots missed, the load's
        // sized escape, the Free's plain one.
        assert_eq!(frame[len - 5..], [ADDR_MODE_GLOBAL, 0b00, 0x80, 0x10, 0x00]);
        // Claim the Free hit instead, dropping its escape.
        frame[len - 4] = 0b10;
        frame.pop();
        seal_frame(&mut frame, part.len());
        for r in [
            decode(&mut Predictors::new(), &frame),
            oracle::decode_frame(&mut Predictors::new(), &frame),
        ] {
            match r {
                Err(TraceError::Corrupt { reason, .. }) => {
                    assert_eq!(reason, "plain-address hit on a sized predictor slot")
                }
                other => panic!("expected a plain-on-sized refusal, got {other:?}"),
            }
        }
    }
}

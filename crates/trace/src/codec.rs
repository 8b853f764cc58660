//! The compact binary record codec and chunk framing.
//!
//! Two payload codecs share one framing layer and one set of per-field
//! wire transforms:
//!
//! * **Codec 1 (delta)** — the original record-interleaved encoding: a
//!   tag byte, a zigzag pc delta, then a variant-specific payload, with
//!   one shared address-delta stream per frame.
//! * **Codec 2 (predicted)** — the paper's value-predicted log. Each
//!   column (pc, static record shape, addresses, immediates) runs
//!   through a per-frame value predictor; a predictor hit costs one bit
//!   in the column's hit bitmap, and a miss escapes into exactly the
//!   codec-1 delta transform for that field. On loopy workloads nearly
//!   every field hits after its first encounter, compressing the stream
//!   from ~4–6 bytes/record to ~1–2.
//!
//! # Codec 1 record encoding
//!
//! One [`TraceEntry`] encodes as:
//!
//! ```text
//! tag          1 byte   bits 0..6: flattened variant id (0..=25)
//!                       bit 7: entry carries a non-empty addr_regs set
//! pc           varint   zigzag(pc − prev_pc)   (delta stream per chunk)
//! [addr_regs]  1 byte   RegSet bitmap, present iff tag bit 7
//! payload      …        variant-specific, see below
//! ```
//!
//! Varints are LEB128 (7 value bits per byte, high bit = continuation).
//! Memory references share one per-chunk address-delta stream: a `MemRef`
//! encodes as `varint(zigzag(addr − prev_addr) << 2 | size_code)` with
//! size codes 0/1/2 for 1/2/4-byte accesses; address-valued annotation
//! payloads (malloc base, lock word, …) ride the same stream without the
//! size bits. Both delta streams reset at every chunk boundary, so chunks
//! decode independently.
//!
//! Registers encode as their dense index; register pairs pack into one
//! byte (`rs << 4 | rd`). Optional fields are announced by a flags byte.
//!
//! # Codec 2 column encoding
//!
//! The frame payload is four column sections, in order — pc, static,
//! address, value — each a hit bitmap (one bit per slot, LSB-first,
//! zero-padded to a byte) followed by that column's escape stream:
//!
//! ```text
//! pc_bits      ⌈n/8⌉ bytes   per record: predicted-next-pc hit?
//! pc_escapes   …             missed pcs, codec-1 zigzag delta varints
//! static_bits  ⌈n/8⌉ bytes   per record: (code, addr_regs, regs, flags) hit?
//! static_esc   …             missed statics, field-reordered varints
//! addr_mode    1 byte, m>0   escape delta base: 0 global, 1 predicted
//! mem_bits     ⌈m/8⌉ bytes   per address slot: stride-predictor hit?
//! mem_escapes  …             missed slots, codec-1 address-stream varints
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
//! # Chunk framing
//!
//! A trace file is a 8-byte header (`b"IGMT"`, `u32` LE version) followed
//! by frames. A version-2 frame:
//!
//! ```text
//! records      u32 LE   entries in this chunk (> 0)
//! payload_len  u32 LE   encoded payload bytes (> 0)
//! checksum     u32 LE   FNV-1a-32 over the payload bytes
//! codec        u32 LE   payload codec (1 = delta, 2 = predicted)
//! payload      payload_len bytes
//! ```
//!
//! Version-1 files carry the same header without the codec field
//! (12 bytes, payloads always codec 1); [`TraceReader`] decodes both.
//!
//! A clean EOF at a frame boundary ends the trace; anything else —
//! truncated header or payload, checksum mismatch, zero-record or
//! zero-length frames, trailing payload bytes, out-of-range field
//! encodings, hit bits referencing predictor slots the frame never
//! seeded — is a [`TraceError::Corrupt`] with the file offset. One
//! frame per transport batch keeps capture and replay chunk-for-chunk
//! identical with the live session that produced the file.

use igm_isa::{codes, MemSize, Reg, TraceEntry};
use igm_lba::TraceBatch;
use igm_obs::{Counter, Histogram, MetricsRegistry};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Instant;

/// The four magic bytes opening every trace file.
pub const MAGIC: [u8; 4] = *b"IGMT";

/// Current format version (16-byte frame headers with a codec field).
pub const FORMAT_VERSION: u32 = 2;

/// The legacy format version (12-byte frame headers, delta payloads).
pub const FORMAT_VERSION_V1: u32 = 1;

/// Upper bound accepted for one frame's payload, so a corrupt length field
/// cannot drive a multi-gigabyte allocation before the checksum catches it.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of version-1 frame header preceding every frame payload
/// (`records`, `payload_len`, `checksum`, each `u32` LE).
pub const FRAME_HEADER_BYTES: usize = 12;

/// Bytes of version-2 frame header: the version-1 fields plus a `u32` LE
/// codec identifier.
pub const FRAME_HEADER_BYTES_V2: usize = 16;

/// Payload codec carried in a version-2 frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Per-record delta streams — the format-1 record encoding.
    Delta = 1,
    /// Value-predicted columns: hit bitmaps plus delta-coded escapes.
    Predicted = 2,
}

impl Codec {
    /// The codec's wire identifier (the frame-header field, and the value
    /// negotiated in the `igm-net` HELLO).
    pub fn wire(self) -> u32 {
        self as u32
    }

    /// Parses a wire codec identifier.
    pub fn from_wire(v: u32) -> Option<Codec> {
        match v {
            1 => Some(Codec::Delta),
            2 => Some(Codec::Predicted),
            _ => None,
        }
    }
}

/// Reads the codec field out of a version-2 frame's first bytes, if
/// enough of the header is present and the field is a known codec.
pub fn frame_codec(frame: &[u8]) -> Option<Codec> {
    if frame.len() < FRAME_HEADER_BYTES_V2 {
        return None;
    }
    Codec::from_wire(u32::from_le_bytes(frame[12..16].try_into().unwrap()))
}

/// Errors produced while reading or writing a trace stream.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's format version is newer than this reader.
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
                    "unsupported trace format version {v} (reader speaks 1..={FORMAT_VERSION})"
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

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// FNV-1a-32 over `bytes` — cheap, dependency-free, and plenty to catch
/// the torn writes and bit rot the framing guards against (it is not a
/// cryptographic integrity check).
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
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
    fn corrupt<T>(&self, reason: &'static str) -> Result<T, TraceError> {
        Err(TraceError::Corrupt { offset: self.base + self.pos as u64, reason })
    }

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

    fn varint(&mut self) -> Result<u64, TraceError> {
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

    /// One register index byte, validated.
    fn reg(&mut self) -> Result<u8, TraceError> {
        let b = self.byte()?;
        if Reg::try_from_index(b as usize).is_none() {
            return self.corrupt("register index out of range");
        }
        Ok(b)
    }

    /// One packed register pair (`rs << 4 | rd`), both nibbles validated.
    fn reg_pair(&mut self) -> Result<u8, TraceError> {
        let b = self.byte()?;
        if Reg::try_from_index((b >> 4) as usize).is_none()
            || Reg::try_from_index((b & 0x0f) as usize).is_none()
        {
            return self.corrupt("register index out of range");
        }
        Ok(b)
    }

    /// One optional-register byte: a register index or [`codes::NO_REG`].
    fn opt_reg(&mut self) -> Result<u8, TraceError> {
        let b = self.byte()?;
        if b != codes::NO_REG && Reg::try_from_index(b as usize).is_none() {
            return self.corrupt("register index out of range");
        }
        Ok(b)
    }

    /// Decodes one pc off the pc delta stream (zigzag varint against the
    /// previous pc) — the one wire transform for the pc field, shared by
    /// codec-1 records and codec-2 escape slots.
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
    fn mem_parts(&mut self, st: &mut CodecState) -> Result<(u32, u8), TraceError> {
        let v = self.varint()?;
        let size_code = (v & 0x3) as u8;
        if MemSize::from_code(size_code).is_none() {
            return self.corrupt("memory access size code out of range");
        }
        let addr = self.resolve_addr(st, unzigzag(v >> 2))?;
        Ok((addr, size_code))
    }

    fn addr(&mut self, st: &mut CodecState) -> Result<u32, TraceError> {
        let delta = unzigzag(self.varint()?);
        self.resolve_addr(st, delta)
    }

    fn resolve_addr(&self, st: &mut CodecState, delta: i64) -> Result<u32, TraceError> {
        match u32::try_from(st.prev_addr as i64 + delta) {
            Ok(addr) => {
                st.prev_addr = addr;
                Ok(addr)
            }
            Err(_) => self.corrupt("address delta leaves the 32-bit address space"),
        }
    }

    fn u32_varint(&mut self) -> Result<u32, TraceError> {
        match u32::try_from(self.varint()?) {
            Ok(v) => Ok(v),
            Err(_) => self.corrupt("32-bit field encoded with more than 32 bits"),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-field wire transforms (encode side). Each field has exactly one
// encoder here and one decoder on `Cursor`; codec 1 applies them
// per-record, codec 2 applies the same transforms to its escape slots.
// ---------------------------------------------------------------------------

/// Tag bit set when the entry carries a non-empty `addr_regs` set.
const TAG_ADDR_REGS: u8 = 0x80;

fn put_pc(out: &mut Vec<u8>, st: &mut CodecState, pc: u32) {
    put_varint(out, zigzag(pc as i64 - st.prev_pc as i64));
    st.prev_pc = pc;
}

fn put_mem_parts(out: &mut Vec<u8>, st: &mut CodecState, addr: u32, size_code: u8) {
    let delta = zigzag(addr as i64 - st.prev_addr as i64);
    put_varint(out, delta << 2 | size_code as u64);
    st.prev_addr = addr;
}

fn put_addr(out: &mut Vec<u8>, st: &mut CodecState, addr: u32) {
    put_varint(out, zigzag(addr as i64 - st.prev_addr as i64));
    st.prev_addr = addr;
}

// ---------------------------------------------------------------------------
// Record shape.
// ---------------------------------------------------------------------------

/// How many shared-address-stream slots and immediate values a record
/// with this `code`/`flags` owns, as `(sized_mems, plain_addrs, vals)` —
/// the single map from record shape to column slots, used by the codec-2
/// column walks on both sides.
pub(crate) fn stream_shape(code: u8, flags: u8) -> (u8, u8, u8) {
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

/// Validates a decoded `(code, regs, flags)` combination against the
/// record grammar — everything the codec-1 per-field decoders enforce
/// structurally, applied to a codec-2 static-column escape before it can
/// seed the predictor table and reach the batch columns.
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
// Value predictors (codec 2).
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

/// The codec-2 predictor tables — a next-pc table chained on the
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
pub struct Predictors {
    /// Frame generation; a slot is live iff its tag matches.
    gen: u32,
    next_pc: Box<[ValueSlot]>,
    statics: Box<[ValueSlot]>,
    addrs: Box<[StrideSlot]>,
    vals: Box<[ValueSlot]>,
    /// Decode scratch (reused across frames so decode stays
    /// allocation-free at steady state).
    scratch_pcs: Vec<u32>,
    scratch_meta: Vec<(u8, u8)>,
    /// Encode scratch for the losing address-escape candidate (the
    /// address column is coded against both delta bases and the smaller
    /// stream wins).
    scratch_esc: Vec<u8>,
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
            next_pc: vec![ValueSlot::default(); PRED_SLOTS].into_boxed_slice(),
            statics: vec![ValueSlot::default(); PRED_SLOTS].into_boxed_slice(),
            addrs: vec![StrideSlot::default(); PRED_SLOTS].into_boxed_slice(),
            vals: vec![ValueSlot::default(); PRED_SLOTS].into_boxed_slice(),
            scratch_pcs: Vec::new(),
            scratch_meta: Vec::new(),
            scratch_esc: Vec::new(),
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
    fn addr_key(pc: u32, slot: u8) -> u32 {
        pc ^ (slot as u32).wrapping_mul(0x85EB_CA6B)
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

// ---------------------------------------------------------------------------
// Codec 1 record encode/decode.
// ---------------------------------------------------------------------------

/// Encodes one chunk's worth of [`TraceBatch`] columns into `out`. The
/// record tags are the batch's `codes` column (plus the addr-regs bit),
/// the pc and address delta streams are the `pcs` and `addrs` columns
/// re-delta'd, and payload bytes come straight off the `regs`/`flags`
/// columns — the wire format and the columnar layout correspond
/// stream-for-stream, so this is a set of cursor walks, not a per-record
/// re-match of the trace vocabulary.
fn encode_batch(out: &mut Vec<u8>, batch: &TraceBatch) {
    let mut st = CodecState::default();
    let pcs = batch.pcs();
    let rcodes = batch.codes();
    let aregs = batch.addr_regs_bits();
    let regs = batch.reg_bytes();
    let flags = batch.flag_bytes();
    let addrs = batch.addrs();
    let sizes = batch.size_codes();
    let vals = batch.vals();
    let (mut ai, mut vi) = (0usize, 0usize);
    macro_rules! mem {
        () => {{
            put_mem_parts(out, &mut st, addrs[ai], sizes[ai]);
            ai += 1;
        }};
    }
    macro_rules! plain_addr {
        () => {{
            put_addr(out, &mut st, addrs[ai]);
            ai += 1;
        }};
    }
    macro_rules! val {
        () => {{
            let v = vals[vi];
            vi += 1;
            v
        }};
    }
    for i in 0..batch.len() {
        let code = rcodes[i];
        let areg = aregs[i];
        out.push(code | if areg != 0 { TAG_ADDR_REGS } else { 0 });
        put_pc(out, &mut st, pcs[i]);
        if areg != 0 {
            out.push(areg);
        }
        match code {
            codes::IMM_TO_REG | codes::REG_SELF => out.push(regs[i] & 0x0f),
            codes::IMM_TO_MEM | codes::MEM_SELF => mem!(),
            codes::REG_TO_REG | codes::DEST_REG_OP_REG => out.push(regs[i]),
            codes::REG_TO_MEM | codes::DEST_MEM_OP_REG => {
                out.push(regs[i] & 0x0f);
                mem!();
            }
            codes::MEM_TO_REG | codes::DEST_REG_OP_MEM => {
                mem!();
                out.push(regs[i] & 0x0f);
            }
            codes::MEM_TO_MEM => {
                mem!();
                mem!();
            }
            codes::READ_ONLY => {
                out.push(flags[i]);
                out.push(regs[i]);
                if flags[i] & 1 != 0 {
                    mem!();
                }
            }
            codes::OTHER => {
                out.push(flags[i]);
                out.push(regs[i]);
                out.push(val!() as u8);
                if flags[i] & 1 != 0 {
                    mem!();
                }
                if flags[i] & 2 != 0 {
                    mem!();
                }
            }
            codes::CTRL_DIRECT => {}
            codes::CTRL_INDIRECT => {
                if flags[i] & 1 != 0 {
                    out.push(1);
                    mem!();
                } else {
                    out.push(0);
                    out.push(regs[i] & 0x0f);
                }
            }
            codes::CTRL_COND => out.push(regs[i]),
            codes::CTRL_RET | codes::ANN_PRINTF => mem!(),
            codes::ANN_MALLOC | codes::ANN_READ_INPUT => {
                plain_addr!();
                put_varint(out, val!() as u64);
            }
            codes::ANN_FREE | codes::ANN_LOCK | codes::ANN_UNLOCK => plain_addr!(),
            codes::ANN_SYSCALL => {
                out.push(flags[i]);
                if flags[i] & 1 != 0 {
                    out.push(regs[i] & 0x0f);
                }
                if flags[i] & 2 != 0 {
                    mem!();
                }
            }
            codes::ANN_THREAD_SWITCH | codes::ANN_THREAD_EXIT => put_varint(out, val!() as u64),
            c => unreachable!("invalid field code {c} in TraceBatch"),
        }
    }
}

/// Decodes one record from the chunk payload **directly into** `out`'s
/// columns: tag byte → `codes`, pc delta → `pcs`, payload bytes →
/// `regs`/`flags`, the shared address-delta stream → `addrs`/`sizes`,
/// immediates → `vals`. No intermediate `TraceEntry` is materialized; the
/// wire streams and the columns line up one-to-one.
fn decode_record(
    cur: &mut Cursor<'_>,
    st: &mut CodecState,
    out: &mut TraceBatch,
) -> Result<(), TraceError> {
    let tag = cur.byte()?;
    let pc = cur.pc(st)?;
    let addr_regs = if tag & TAG_ADDR_REGS != 0 {
        let bits = cur.byte()?;
        if bits == 0 {
            return cur.corrupt("addr_regs flag set but bitmap empty");
        }
        bits
    } else {
        0
    };
    let code = tag & !TAG_ADDR_REGS;
    let mut regs = 0u8;
    let mut flags = 0u8;
    macro_rules! mem {
        () => {{
            let (addr, size_code) = cur.mem_parts(st)?;
            out.push_raw_addr(addr, size_code);
        }};
    }
    macro_rules! plain_addr {
        () => {{
            let addr = cur.addr(st)?;
            out.push_raw_addr(addr, 2);
        }};
    }
    match code {
        codes::IMM_TO_REG | codes::REG_SELF => regs = cur.reg()?,
        codes::IMM_TO_MEM | codes::MEM_SELF => mem!(),
        codes::REG_TO_REG | codes::DEST_REG_OP_REG => regs = cur.reg_pair()?,
        codes::REG_TO_MEM | codes::DEST_MEM_OP_REG => {
            regs = cur.reg()?;
            mem!();
        }
        codes::MEM_TO_REG | codes::DEST_REG_OP_MEM => {
            mem!();
            regs = cur.reg()?;
        }
        codes::MEM_TO_MEM => {
            mem!();
            mem!();
        }
        codes::READ_ONLY => {
            flags = cur.byte()?;
            if flags > 1 {
                return cur.corrupt("read_only flags byte out of range");
            }
            regs = cur.byte()?;
            if flags & 1 != 0 {
                mem!();
            }
        }
        codes::OTHER => {
            flags = cur.byte()?;
            if flags > 3 {
                return cur.corrupt("other flags byte out of range");
            }
            regs = cur.byte()?;
            out.push_raw_val(cur.byte()? as u32);
            if flags & 1 != 0 {
                mem!();
            }
            if flags & 2 != 0 {
                mem!();
            }
        }
        codes::CTRL_DIRECT => {}
        codes::CTRL_INDIRECT => match cur.byte()? {
            0 => regs = cur.reg()?,
            1 => {
                flags = 1;
                mem!();
            }
            _ => return cur.corrupt("jump target kind out of range"),
        },
        codes::CTRL_COND => regs = cur.opt_reg()?,
        codes::CTRL_RET | codes::ANN_PRINTF => mem!(),
        codes::ANN_MALLOC | codes::ANN_READ_INPUT => {
            plain_addr!();
            out.push_raw_val(cur.u32_varint()?);
        }
        codes::ANN_FREE | codes::ANN_LOCK | codes::ANN_UNLOCK => plain_addr!(),
        codes::ANN_SYSCALL => {
            flags = cur.byte()?;
            if flags > 3 {
                return cur.corrupt("syscall flags byte out of range");
            }
            regs = if flags & 1 != 0 { cur.reg()? } else { codes::NO_REG };
            if flags & 2 != 0 {
                mem!();
            }
        }
        codes::ANN_THREAD_SWITCH | codes::ANN_THREAD_EXIT => out.push_raw_val(cur.u32_varint()?),
        _ => return cur.corrupt("unknown record tag"),
    }
    out.push_raw_record(pc, code, addr_regs, regs, flags);
    Ok(())
}

// ---------------------------------------------------------------------------
// Codec 2 column encode/decode.
// ---------------------------------------------------------------------------

#[inline]
fn bit(bits: &[u8], i: usize) -> bool {
    bits[i >> 3] >> (i & 7) & 1 != 0
}

/// Address-escape delta bases, named by the codec-2 per-frame mode byte
/// (present only when the frame has address slots): escapes delta
/// against the running previous address, or against the missed slot's
/// own prediction. The encoder codes both and ships the smaller.
const ADDR_MODE_GLOBAL: u8 = 0;
const ADDR_MODE_PREDICTED: u8 = 1;

/// Encodes one chunk's worth of [`TraceBatch`] columns through the value
/// predictors into `out` — four column passes, each writing its hit
/// bitmap in place and appending escape bytes behind it. Escapes use the
/// same per-field transforms as codec 1 (and keep the delta-coder state
/// advancing on hits), so each field's wire format is defined in exactly
/// one place.
fn encode_batch_v2(out: &mut Vec<u8>, batch: &TraceBatch, p: &mut Predictors) {
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

    // Pc column: next-pc chained prediction, codec-1 delta escapes.
    let bits = out.len();
    out.resize(bits + n.div_ceil(8), 0);
    for (i, &pc) in pcs.iter().enumerate() {
        let prev = st.prev_pc;
        if p.pc_predict(prev) == Some(pc) {
            out[bits + (i >> 3)] |= 1 << (i & 7);
            st.prev_pc = pc;
        } else {
            put_pc(out, &mut st, pc);
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
    // shared address stream; escapes are the codec-1 address varints.
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
    let mut pred_esc = std::mem::take(&mut p.scratch_esc);
    pred_esc.clear();
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
                put_mem_parts(out, &mut st, addr, size);
                if let Some((pa, _)) = pred {
                    stp.prev_addr = pa;
                }
                put_mem_parts(&mut pred_esc, &mut stp, addr, size);
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
                put_addr(out, &mut st, addr);
                if let Some((pa, _)) = pred {
                    stp.prev_addr = pa;
                }
                put_addr(&mut pred_esc, &mut stp, addr);
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
    p.scratch_esc = pred_esc;

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

/// Decodes one codec-2 frame payload into `out`'s columns — four column
/// phases mirroring [`encode_batch_v2`]. Every hit bit must land on a
/// predictor slot the frame itself already seeded (frames share no state),
/// and only grammar-validated static escapes can seed the tables, so the
/// decoded columns satisfy the same structural invariants codec 1
/// enforces per record.
fn decode_columns_v2(
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
                    Some(_) => return cur.corrupt("plain-address hit on a sized predictor slot"),
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
                    None => return cur.corrupt("value hit references an unseeded predictor slot"),
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

/// Verifies a codec-2 frame payload's checksum and decodes its columns
/// into `out` (appended), borrowing `p`'s scratch buffers for the
/// intermediate pc/shape columns.
fn decode_frame_payload_v2(
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
    let mut pcs = std::mem::take(&mut p.scratch_pcs);
    let mut meta = std::mem::take(&mut p.scratch_meta);
    pcs.clear();
    meta.clear();
    let r = decode_columns_v2(records, payload, payload_at, out, p, &mut pcs, &mut meta);
    p.scratch_pcs = pcs;
    p.scratch_meta = meta;
    r
}

// ---------------------------------------------------------------------------
// Single-frame encode/decode (shared by the writer/reader and `igm-net`,
// whose wire protocol carries these frames verbatim).
// ---------------------------------------------------------------------------

/// Appends one complete version-2 frame — header plus encoded payload —
/// for `batch` to `out`, through caller-owned predictor state (reuse one
/// [`Predictors`] per stream to amortize its tables). An empty batch
/// appends nothing (the format has no empty frames). This is the single
/// canonical frame encoder: [`TraceWriter::write_chunk_batch`] writes its
/// output to the stream, and `igm-net` ships it verbatim inside chunk
/// messages.
pub fn encode_frame_with(p: &mut Predictors, codec: Codec, out: &mut Vec<u8>, batch: &TraceBatch) {
    if batch.is_empty() {
        return;
    }
    let start = out.len();
    out.resize(start + FRAME_HEADER_BYTES_V2, 0);
    match codec {
        Codec::Delta => encode_batch(out, batch),
        Codec::Predicted => encode_batch_v2(out, batch, p),
    }
    let records = u32::try_from(batch.len()).expect("batch fits a u32 record count");
    let payload = start + FRAME_HEADER_BYTES_V2;
    let len = u32::try_from(out.len() - payload).expect("frame payload fits a u32 length");
    let sum = checksum(&out[payload..]);
    out[start..start + 4].copy_from_slice(&records.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    out[start + 8..start + 12].copy_from_slice(&sum.to_le_bytes());
    out[start + 12..start + 16].copy_from_slice(&codec.wire().to_le_bytes());
}

/// Appends one predicted (codec 2) version-2 frame for `batch` to `out`
/// with throwaway predictor state — a convenience over
/// [`encode_frame_with`] for one-shot callers.
pub fn encode_frame(out: &mut Vec<u8>, batch: &TraceBatch) {
    encode_frame_with(&mut Predictors::new(), Codec::Predicted, out, batch);
}

/// Appends one complete version-1 frame (12-byte header, delta payload)
/// for `batch` to `out` — the legacy encoder kept for writing format-1
/// streams.
pub fn encode_frame_v1(out: &mut Vec<u8>, batch: &TraceBatch) {
    if batch.is_empty() {
        return;
    }
    let start = out.len();
    out.resize(start + FRAME_HEADER_BYTES, 0);
    encode_batch(out, batch);
    let records = u32::try_from(batch.len()).expect("batch fits a u32 record count");
    let payload = start + FRAME_HEADER_BYTES;
    let len = u32::try_from(out.len() - payload).expect("frame payload fits a u32 length");
    let sum = checksum(&out[payload..]);
    out[start..start + 4].copy_from_slice(&records.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    out[start + 8..start + 12].copy_from_slice(&sum.to_le_bytes());
}

/// Validates one frame header's fields (shared by every decode path).
/// `offset` is the header's position in the stream, for error reporting.
pub(crate) fn validate_frame_header(
    records: u32,
    len: u32,
    offset: u64,
    codec: Codec,
) -> Result<(), TraceError> {
    if records == 0 {
        return Err(TraceError::Corrupt { offset, reason: "zero-record frame" });
    }
    if len == 0 {
        return Err(TraceError::Corrupt { offset, reason: "zero-length frame payload" });
    }
    if len > MAX_PAYLOAD_BYTES {
        return Err(TraceError::Corrupt {
            offset,
            reason: "frame payload length exceeds the format bound",
        });
    }
    // A record count inconsistent with the payload length is corruption:
    // every delta record spends at least two bytes (tag + pc varint), and
    // every predicted record spends at least its pc and static hit bits.
    // The checksum covers only the payload, not the header — this check
    // must precede any length-driven allocation, or a flipped count field
    // could drive a multi-gigabyte allocation instead of a typed error.
    let min_len = match codec {
        Codec::Delta => records as u64 * 2,
        Codec::Predicted => (records as u64).div_ceil(8) * 2,
    };
    if min_len > len as u64 {
        return Err(TraceError::Corrupt {
            offset,
            reason: "record count inconsistent with frame payload length",
        });
    }
    Ok(())
}

/// Verifies a codec-1 frame payload's checksum and decodes its records
/// into `out`'s columns (appended; callers clear first if they want a
/// fresh batch). `payload_at` is the payload's stream offset for error
/// reporting.
fn decode_frame_payload(
    records: u32,
    sum: u32,
    payload: &[u8],
    payload_at: u64,
    out: &mut TraceBatch,
) -> Result<(), TraceError> {
    if checksum(payload) != sum {
        return Err(TraceError::Corrupt { offset: payload_at, reason: "frame checksum mismatch" });
    }
    let mut cur = Cursor { bytes: payload, pos: 0, base: payload_at };
    let mut st = CodecState::default();
    for _ in 0..records {
        decode_record(&mut cur, &mut st, out)?;
    }
    if cur.pos != payload.len() {
        return Err(TraceError::Corrupt {
            offset: payload_at + cur.pos as u64,
            reason: "frame payload has trailing bytes",
        });
    }
    Ok(())
}

/// Decodes exactly one complete version-2 frame from the start of `bytes`
/// into `out`'s columns (cleared first), returning the bytes consumed.
/// The frame must be whole and `bytes` must hold nothing else: truncation
/// and trailing bytes are both [`TraceError::Corrupt`]. `stream_offset`
/// is where `bytes[0]` sits in the surrounding stream, for error
/// reporting — the inverse of [`encode_frame_with`], used by `igm-net` to
/// decode the frame carried in one chunk message.
pub fn decode_frame_with(
    p: &mut Predictors,
    bytes: &[u8],
    stream_offset: u64,
    out: &mut TraceBatch,
) -> Result<usize, TraceError> {
    out.clear();
    if bytes.len() < FRAME_HEADER_BYTES_V2 {
        return Err(TraceError::Corrupt {
            offset: stream_offset + bytes.len() as u64,
            reason: "stream ends inside a frame header",
        });
    }
    let records = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let sum = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let codec = match Codec::from_wire(u32::from_le_bytes(bytes[12..16].try_into().unwrap())) {
        Some(c) => c,
        None => {
            return Err(TraceError::Corrupt {
                offset: stream_offset,
                reason: "unknown codec id in frame header",
            })
        }
    };
    validate_frame_header(records, len, stream_offset, codec)?;
    let payload_at = stream_offset + FRAME_HEADER_BYTES_V2 as u64;
    let total = FRAME_HEADER_BYTES_V2 + len as usize;
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
    let payload = &bytes[FRAME_HEADER_BYTES_V2..total];
    match codec {
        Codec::Delta => decode_frame_payload(records, sum, payload, payload_at, out)?,
        Codec::Predicted => decode_frame_payload_v2(records, sum, payload, payload_at, out, p)?,
    }
    Ok(total)
}

/// Decodes one version-2 frame with throwaway predictor state — a
/// convenience over [`decode_frame_with`] for one-shot callers.
pub fn decode_frame(
    bytes: &[u8],
    stream_offset: u64,
    out: &mut TraceBatch,
) -> Result<usize, TraceError> {
    decode_frame_with(&mut Predictors::new(), bytes, stream_offset, out)
}

/// Decodes exactly one complete version-1 frame (12-byte header, delta
/// payload) from the start of `bytes` — the legacy twin of
/// [`decode_frame`].
pub fn decode_frame_v1(
    bytes: &[u8],
    stream_offset: u64,
    out: &mut TraceBatch,
) -> Result<usize, TraceError> {
    out.clear();
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(TraceError::Corrupt {
            offset: stream_offset + bytes.len() as u64,
            reason: "stream ends inside a frame header",
        });
    }
    let records = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let sum = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    validate_frame_header(records, len, stream_offset, Codec::Delta)?;
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
    decode_frame_payload(records, sum, &bytes[FRAME_HEADER_BYTES..total], payload_at, out)?;
    Ok(total)
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

/// Streaming encoder: one [`TraceWriter::write_chunk`] call per transport
/// batch produces one frame. The encode staging buffer and predictor
/// tables are reused across chunks.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    /// Conversion arena for the array-of-structs [`TraceWriter::write_chunk`]
    /// compatibility path (reused across chunks).
    scratch: TraceBatch,
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
    /// Container format version being written (1 or 2).
    version: u32,
    /// Per-frame payload codec (always [`Codec::Delta`] for version 1).
    codec: Codec,
    /// Predictor state, allocated on first predicted frame.
    predictors: Option<Box<Predictors>>,
    metrics: CodecMetrics,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the file header and readies the encoder — a version-2
    /// stream with value-predicted ([`Codec::Predicted`]) frames.
    pub fn new(w: W) -> io::Result<TraceWriter<W>> {
        TraceWriter::with_format(w, FORMAT_VERSION, Codec::Predicted)
    }

    /// Like [`TraceWriter::new`], but with an explicit per-frame payload
    /// codec (a version-2 container may carry delta frames).
    pub fn with_codec(w: W, codec: Codec) -> io::Result<TraceWriter<W>> {
        TraceWriter::with_format(w, FORMAT_VERSION, codec)
    }

    /// Writes a legacy version-1 stream (12-byte frame headers, delta
    /// payloads), for producing traces older readers understand.
    pub fn new_v1(w: W) -> io::Result<TraceWriter<W>> {
        TraceWriter::with_format(w, FORMAT_VERSION_V1, Codec::Delta)
    }

    fn with_format(mut w: W, version: u32, codec: Codec) -> io::Result<TraceWriter<W>> {
        debug_assert!(version == FORMAT_VERSION || codec == Codec::Delta);
        w.write_all(&MAGIC)?;
        w.write_all(&version.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            buf: Vec::new(),
            scratch: TraceBatch::new(),
            chunks: 0,
            records: 0,
            stream_bytes: 0,
            index: None,
            posting_builder: Default::default(),
            version,
            codec,
            predictors: None,
            metrics: CodecMetrics::detached(),
        })
    }

    /// Like [`TraceWriter::new`], but also builds the frame directory
    /// *and* the per-frame posting lists as frames are written
    /// ([`TraceWriter::index`]) — byte-identical to what
    /// [`crate::index::TraceIndex::scan_records`] would rebuild from the
    /// finished stream (the directory half alone matches the header-only
    /// [`crate::index::TraceIndex::scan`]).
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
    /// nothing (the format has no empty frames).
    pub fn write_chunk_batch(&mut self, batch: &TraceBatch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        let started = self.metrics.start_encode();
        if self.version == FORMAT_VERSION_V1 {
            encode_frame_v1(&mut self.buf, batch);
        } else {
            let p = self.predictors.get_or_insert_with(|| Box::new(Predictors::new()));
            encode_frame_with(p, self.codec, &mut self.buf, batch);
        }
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

    /// Encodes an array-of-structs `batch` as one frame (compatibility
    /// wrapper: scatters the records into a reused column arena and
    /// encodes that, so there is exactly one encoder).
    pub fn write_chunk(&mut self, batch: &[TraceEntry]) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_entries(batch.iter().copied());
        let r = self.write_chunk_batch(&scratch);
        self.scratch = scratch;
        r
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

    /// The container format version being written.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The per-frame payload codec being written.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// The frame-offset index accumulated so far (`None` unless the
    /// writer was opened with [`TraceWriter::with_index`]) — one entry
    /// per frame written, byte-identical to what
    /// [`crate::index::TraceIndex::scan`] rebuilds from the finished
    /// stream. Save it as a sidecar ([`crate::index::TraceIndex::save`])
    /// to enable seeking replays.
    pub fn index(&self) -> Option<&crate::index::TraceIndex> {
        self.index.as_ref()
    }

    /// Takes ownership of the accumulated index (leaving `None`), for
    /// writers whose sink is consumed by [`TraceWriter::finish`] but
    /// whose index must outlive it — the tee'd ingest lanes save their
    /// sidecar this way at lane retirement.
    pub fn take_index(&mut self) -> Option<crate::index::TraceIndex> {
        self.index.take()
    }
}

/// Streaming decoder over any [`Read`] — speaks both format versions, so
/// traces recorded before the predicted codec still replay.
///
/// [`TraceReader::read_chunk_into`] decodes one frame into a caller-owned,
/// reusable buffer — the file-sourced twin of the runtime's batch-grain
/// ingest path.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    buf: Vec<u8>,
    /// Conversion arena for the array-of-structs
    /// [`TraceReader::read_chunk_into`] compatibility path.
    scratch: TraceBatch,
    offset: u64,
    chunks: u64,
    records: u64,
    /// Container format version read from the file header (1 or 2).
    version: u32,
    /// Predictor state, allocated on the first predicted frame.
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
        if version != FORMAT_VERSION_V1 && version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(TraceReader {
            r,
            buf: Vec::new(),
            scratch: TraceBatch::new(),
            offset: 8,
            chunks: 0,
            records: 0,
            version,
            predictors: None,
            metrics: CodecMetrics::detached(),
        })
    }

    /// Binds this reader's codec instrumentation (byte counters, decode
    /// latency histogram) to `registry`.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = CodecMetrics::register(registry);
    }

    /// The container format version read from the file header.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Decodes the next frame **directly into** `out`'s columns (cleared
    /// first) — the canonical decoder: no intermediate `Vec<TraceEntry>`
    /// is built, the frame's wire streams land in the batch's columns
    /// one-to-one. Returns `false` on a clean end of stream, `true` when
    /// `out` holds a chunk.
    pub fn read_chunk_into_batch(&mut self, out: &mut TraceBatch) -> Result<bool, TraceError> {
        out.clear();
        let hlen = if self.version == FORMAT_VERSION_V1 {
            FRAME_HEADER_BYTES
        } else {
            FRAME_HEADER_BYTES_V2
        };
        let mut header = [0u8; FRAME_HEADER_BYTES_V2];
        match read_exact_or_eof(&mut self.r, &mut header[..hlen]) {
            Ok(0) => return Ok(false),
            Ok(n) if n < hlen => {
                return Err(TraceError::Corrupt {
                    offset: self.offset + n as u64,
                    reason: "stream ends inside a frame header",
                })
            }
            Ok(_) => {}
            Err(e) => return Err(TraceError::Io(e)),
        }
        let records = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let sum = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let codec = if self.version == FORMAT_VERSION_V1 {
            Codec::Delta
        } else {
            match Codec::from_wire(u32::from_le_bytes(header[12..16].try_into().unwrap())) {
                Some(c) => c,
                None => {
                    return Err(TraceError::Corrupt {
                        offset: self.offset,
                        reason: "unknown codec id in frame header",
                    })
                }
            }
        };
        validate_frame_header(records, len, self.offset, codec)?;
        let payload_at = self.offset + hlen as u64;
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
        match codec {
            Codec::Delta => decode_frame_payload(records, sum, &self.buf, payload_at, out)?,
            Codec::Predicted => {
                let p = self.predictors.get_or_insert_with(|| Box::new(Predictors::new()));
                decode_frame_payload_v2(records, sum, &self.buf, payload_at, out, p)?;
            }
        }
        self.metrics.stop_decode(started);
        self.metrics.count_frame(records as u64, (hlen + len as usize) as u64);
        self.offset = payload_at + len as u64;
        self.chunks += 1;
        self.records += records as u64;
        Ok(true)
    }

    /// Decodes the next frame into an array-of-structs buffer
    /// (compatibility wrapper over
    /// [`TraceReader::read_chunk_into_batch`]: the columns are decoded
    /// once, then viewed back out as entries).
    pub fn read_chunk_into(&mut self, out: &mut Vec<TraceEntry>) -> Result<bool, TraceError> {
        out.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = self.read_chunk_into_batch(&mut scratch);
        if let Ok(true) = r {
            out.extend(scratch.iter());
        }
        self.scratch = scratch;
        r
    }

    /// Decodes the whole remaining stream, chunk structure flattened.
    pub fn read_all(&mut self) -> Result<Vec<TraceEntry>, TraceError> {
        let mut all = Vec::new();
        let mut chunk = Vec::new();
        while self.read_chunk_into(&mut chunk)? {
            all.extend_from_slice(&chunk);
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

//! The structure-of-arrays record batch: the unit of data on the columnar
//! hot path.
//!
//! The paper's LBA hardware streams *compressed per-field* event records —
//! the program counters, instruction types and data addresses travel as
//! separate delta-coded streams, and the value-indexed tables (IT/ETCT/IF)
//! consume whole fields at a time. [`TraceBatch`] is the software analogue
//! of that wide datapath: instead of a `Vec<TraceEntry>` of 28-byte
//! structs, one transport chunk is a set of parallel columns, so the
//! extraction and gating sweeps touch only the fields they need and the
//! `igm-trace` codec's delta streams decode straight into them.
//!
//! # Column layout
//!
//! Fixed columns, one entry per record:
//!
//! | column      | type  | contents                                        |
//! |-------------|-------|-------------------------------------------------|
//! | `pcs`       | `u32` | program counter                                 |
//! | `codes`     | `u8`  | flattened variant id ([`igm_isa::codes`])       |
//! | `addr_regs` | `u8`  | address-computation [`RegSet`] bitmap           |
//! | `regs`      | `u8`  | register payload byte (see below)               |
//! | `flags`     | `u8`  | optional-field / kind flags (see below)         |
//!
//! Shared streams, consumed per record according to `codes`/`flags`
//! (mirroring the codec's per-chunk delta streams exactly):
//!
//! | stream  | type  | contents                                            |
//! |---------|-------|-----------------------------------------------------|
//! | `addrs` | `u32` | memory-operand and annotation-payload addresses     |
//! | `sizes` | `u8`  | access-size code per `addrs` entry ([`MemSize::code`]) |
//! | `vals`  | `u32` | non-address immediates (malloc size, input length, thread ids, `Other` write-set bits) |
//!
//! `regs` packs the record's register operands: `rd` for single-destination
//! classes, `rs << 4 | rd` for register pairs, `rs` for register-source
//! stores, the `reads` bitmap for `ReadOnly`/`Other`, the conditional-branch
//! input or syscall argument register (with [`codes::NO_REG`] for "absent"),
//! and the register jump target. `flags` carries presence bits for optional
//! memory operands (`ReadOnly` bit 0; `Other`/`Syscall` bits 0–1;
//! `Indirect` bit 0 = memory target). Plain (non-sized) addresses occupy a
//! `sizes` slot with code 2 so the two streams stay index-aligned.
//!
//! Stream entries appear in the order the record's wire encoding emits
//! them (`Other`: mem-read before mem-write; `MemToMem`: source before
//! destination), so the codec's encoder and decoder walk both
//! representations with plain cursors.

use crate::record::{ANNOTATION_RECORD_BYTES, INSTR_RECORD_BYTES};
use igm_isa::{
    codes, Annotation, CtrlOp, JumpTarget, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry,
    TraceOp,
};

/// A reusable structure-of-arrays batch of trace records.
///
/// [`clear`](TraceBatch::clear) retains every column's allocation, so one
/// arena is refilled chunk after chunk on the steady-state path. Per-record
/// [`TraceEntry`] access is a *view*: [`iter`](TraceBatch::iter)
/// reassembles entries on the fly for per-record consumers, while the hot
/// paths ([`crate::extract_batch`], the codec) sweep the columns directly.
///
/// # Example
///
/// ```
/// use igm_isa::{MemRef, OpClass, Reg, TraceEntry};
/// use igm_lba::TraceBatch;
///
/// let entries = vec![
///     TraceEntry::op(0x10, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }),
///     TraceEntry::op(0x14, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
/// ];
/// let batch = TraceBatch::from_entries(&entries);
/// assert_eq!(batch.len(), 2);
/// // The view iterator is the identity over the columns.
/// assert_eq!(batch.iter().collect::<Vec<_>>(), entries);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBatch {
    pcs: Vec<u32>,
    codes: Vec<u8>,
    addr_regs: Vec<u8>,
    regs: Vec<u8>,
    flags: Vec<u8>,
    addrs: Vec<u32>,
    sizes: Vec<u8>,
    vals: Vec<u32>,
    /// Running count of annotation records (for O(1) compressed-size
    /// accounting).
    annots: u32,
}

impl TraceBatch {
    /// An empty batch.
    pub fn new() -> TraceBatch {
        TraceBatch::default()
    }

    /// An empty batch with room for `records` records before the fixed
    /// columns reallocate.
    pub fn with_capacity(records: usize) -> TraceBatch {
        TraceBatch {
            pcs: Vec::with_capacity(records),
            codes: Vec::with_capacity(records),
            addr_regs: Vec::with_capacity(records),
            regs: Vec::with_capacity(records),
            flags: Vec::with_capacity(records),
            addrs: Vec::with_capacity(records),
            sizes: Vec::with_capacity(records),
            vals: Vec::new(),
            annots: 0,
        }
    }

    /// Records in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the batch holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Empties the batch, keeping every column's allocation.
    pub fn clear(&mut self) {
        self.pcs.clear();
        self.codes.clear();
        self.addr_regs.clear();
        self.regs.clear();
        self.flags.clear();
        self.addrs.clear();
        self.sizes.clear();
        self.vals.clear();
        self.annots = 0;
    }

    /// Total compressed-record bytes of the batch under the paper's size
    /// model ([`crate::compressed_size`]), computed from the column lengths
    /// in O(1) — the byte-occupancy accounting of the transport channels.
    #[inline]
    pub fn compressed_bytes(&self) -> u32 {
        let n = self.pcs.len() as u32;
        (n - self.annots) * INSTR_RECORD_BYTES + self.annots * ANNOTATION_RECORD_BYTES
    }

    // -- columns (the sweep surface) ------------------------------------

    /// The program-counter column.
    #[inline]
    pub fn pcs(&self) -> &[u32] {
        &self.pcs
    }

    /// The flattened-variant (opcode) column ([`igm_isa::codes`]).
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The address-computation register-set column (raw [`RegSet`] bits).
    #[inline]
    pub fn addr_regs_bits(&self) -> &[u8] {
        &self.addr_regs
    }

    /// The packed register-operand column.
    #[inline]
    pub fn reg_bytes(&self) -> &[u8] {
        &self.regs
    }

    /// The optional-field flags column.
    #[inline]
    pub fn flag_bytes(&self) -> &[u8] {
        &self.flags
    }

    /// The shared address stream.
    #[inline]
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// The access-size code stream, index-aligned with
    /// [`addrs`](TraceBatch::addrs).
    #[inline]
    pub fn size_codes(&self) -> &[u8] {
        &self.sizes
    }

    /// The non-address immediate stream.
    #[inline]
    pub fn vals(&self) -> &[u32] {
        &self.vals
    }

    // -- raw column builders (codec-grade API) --------------------------

    /// Appends one record's fixed columns. Callers (the trace codec's
    /// decoder) must also append exactly the stream entries
    /// ([`push_raw_addr`](TraceBatch::push_raw_addr) /
    /// [`push_raw_val`](TraceBatch::push_raw_val)) that `code` and `flags`
    /// imply, in wire order; [`push`](TraceBatch::push) is the safe
    /// entry-at-a-time front door.
    #[inline]
    pub fn push_raw_record(&mut self, pc: u32, code: u8, addr_regs: u8, regs: u8, flags: u8) {
        debug_assert!(code < codes::COUNT, "field code out of range");
        self.pcs.push(pc);
        self.codes.push(code);
        self.addr_regs.push(addr_regs);
        self.regs.push(regs);
        self.flags.push(flags);
        self.annots += codes::is_annotation(code) as u32;
    }

    /// Appends one shared-stream address with its size code (use code 2 for
    /// plain, non-sized addresses).
    #[inline]
    pub fn push_raw_addr(&mut self, addr: u32, size_code: u8) {
        self.addrs.push(addr);
        self.sizes.push(size_code);
    }

    /// Appends one immediate to the value stream.
    #[inline]
    pub fn push_raw_val(&mut self, v: u32) {
        self.vals.push(v);
    }

    /// Sizes the fixed columns to `records` records and hands them out for
    /// writing by index (the trace codec's decoder, which knows a frame's
    /// record count before it decodes a field). Slots the caller does not
    /// overwrite hold unspecified (but valid) bytes: a decoder must write
    /// every one, plus exactly the stream entries `codes` and `flags`
    /// imply ([`raw_streams`](TraceBatch::raw_streams)). Dropping the
    /// handle recounts the annotation records from `codes`, so
    /// [`compressed_bytes`](TraceBatch::compressed_bytes) stays exact.
    pub fn raw_records(&mut self, records: usize) -> RawRecords<'_> {
        for col in [&mut self.codes, &mut self.addr_regs, &mut self.regs, &mut self.flags] {
            col.resize(records, 0);
        }
        self.pcs.resize(records, 0);
        RawRecords {
            pcs: &mut self.pcs,
            codes: &mut self.codes,
            addr_regs: &mut self.addr_regs,
            regs: &mut self.regs,
            flags: &mut self.flags,
            annots: &mut self.annots,
        }
    }

    /// Sizes the shared streams to `addrs` address slots and `vals`
    /// immediates and hands them out for writing by index, beside the
    /// fixed columns they follow — the second half of
    /// [`raw_records`](TraceBatch::raw_records), under the same contract.
    pub fn raw_streams(&mut self, addrs: usize, vals: usize) -> RawStreams<'_> {
        self.addrs.resize(addrs, 0);
        self.sizes.resize(addrs, 0);
        self.vals.resize(vals, 0);
        RawStreams {
            pcs: &self.pcs,
            codes: &self.codes,
            flags: &self.flags,
            addrs: &mut self.addrs,
            sizes: &mut self.sizes,
            vals: &mut self.vals,
        }
    }

    // -- converters -----------------------------------------------------

    /// Appends one record, scattering its fields into the columns.
    pub fn push(&mut self, e: &TraceEntry) {
        let code = e.op.field_code();
        let mut regs = 0u8;
        let mut flags = 0u8;
        match &e.op {
            TraceOp::Op(op) => match *op {
                OpClass::ImmToReg { rd } | OpClass::RegSelf { rd } => regs = rd.index() as u8,
                OpClass::ImmToMem { dst } | OpClass::MemSelf { dst } => self.push_mem(dst),
                OpClass::RegToReg { rs, rd } | OpClass::DestRegOpReg { rs, rd } => {
                    regs = (rs.index() as u8) << 4 | rd.index() as u8;
                }
                OpClass::RegToMem { rs, dst } | OpClass::DestMemOpReg { rs, dst } => {
                    regs = rs.index() as u8;
                    self.push_mem(dst);
                }
                OpClass::MemToReg { src, rd } | OpClass::DestRegOpMem { src, rd } => {
                    regs = rd.index() as u8;
                    self.push_mem(src);
                }
                OpClass::MemToMem { src, dst } => {
                    self.push_mem(src);
                    self.push_mem(dst);
                }
                OpClass::ReadOnly { src, reads } => {
                    regs = reads.bits();
                    flags = src.is_some() as u8;
                    if let Some(m) = src {
                        self.push_mem(m);
                    }
                }
                OpClass::Other { reads, writes, mem_read, mem_write } => {
                    regs = reads.bits();
                    flags = mem_read.is_some() as u8 | (mem_write.is_some() as u8) << 1;
                    self.vals.push(writes.bits() as u32);
                    if let Some(m) = mem_read {
                        self.push_mem(m);
                    }
                    if let Some(m) = mem_write {
                        self.push_mem(m);
                    }
                }
            },
            TraceOp::Ctrl(c) => match *c {
                CtrlOp::Direct => {}
                CtrlOp::Indirect { target } => match target {
                    JumpTarget::Reg(r) => regs = r.index() as u8,
                    JumpTarget::Mem(m) => {
                        flags = 1;
                        self.push_mem(m);
                    }
                },
                CtrlOp::CondBranch { input } => {
                    regs = input.map_or(codes::NO_REG, |r| r.index() as u8);
                }
                CtrlOp::Ret { slot } => self.push_mem(slot),
            },
            TraceOp::Annot(a) => match *a {
                Annotation::Malloc { base, size } => {
                    self.push_raw_addr(base, 2);
                    self.vals.push(size);
                }
                Annotation::Free { base } => self.push_raw_addr(base, 2),
                Annotation::Lock { lock } | Annotation::Unlock { lock } => {
                    self.push_raw_addr(lock, 2)
                }
                Annotation::ReadInput { base, len } => {
                    self.push_raw_addr(base, 2);
                    self.vals.push(len);
                }
                Annotation::Syscall { arg_reg, arg_mem } => {
                    regs = arg_reg.map_or(codes::NO_REG, |r| r.index() as u8);
                    flags = arg_reg.is_some() as u8 | (arg_mem.is_some() as u8) << 1;
                    if let Some(m) = arg_mem {
                        self.push_mem(m);
                    }
                }
                Annotation::PrintfFormat { fmt } => self.push_mem(fmt),
                Annotation::ThreadSwitch { tid } | Annotation::ThreadExit { tid } => {
                    self.vals.push(tid)
                }
            },
        }
        self.push_raw_record(e.pc, code, e.addr_regs.bits(), regs, flags);
    }

    #[inline]
    fn push_mem(&mut self, m: MemRef) {
        self.push_raw_addr(m.addr, m.size.code());
    }

    /// Builds a batch from a record slice.
    pub fn from_entries(entries: &[TraceEntry]) -> TraceBatch {
        let mut b = TraceBatch::with_capacity(entries.len());
        b.extend_entries(entries.iter().copied());
        b
    }

    /// Appends every record of `entries`.
    pub fn extend_entries(&mut self, entries: impl IntoIterator<Item = TraceEntry>) {
        for e in entries {
            self.push(&e);
        }
    }

    /// Iterates the records as [`TraceEntry`] views, reassembled from the
    /// columns (the bridge for per-record consumers).
    pub fn iter(&self) -> Records<'_> {
        Records { batch: self, i: 0, ai: 0, vi: 0 }
    }

    /// Collects the batch back into the array-of-structs representation.
    pub fn to_entries(&self) -> Vec<TraceEntry> {
        self.iter().collect()
    }
}

impl From<Vec<TraceEntry>> for TraceBatch {
    fn from(entries: Vec<TraceEntry>) -> TraceBatch {
        TraceBatch::from_entries(&entries)
    }
}

impl<'a> IntoIterator for &'a TraceBatch {
    type Item = TraceEntry;
    type IntoIter = Records<'a>;
    fn into_iter(self) -> Records<'a> {
        self.iter()
    }
}

impl FromIterator<TraceEntry> for TraceBatch {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> TraceBatch {
        let mut b = TraceBatch::new();
        b.extend_entries(iter);
        b
    }
}

/// A [`TraceBatch`]'s fixed columns, writable by index
/// ([`TraceBatch::raw_records`]).
#[derive(Debug)]
pub struct RawRecords<'a> {
    /// Program counters.
    pub pcs: &'a mut [u32],
    /// Field codes ([`igm_isa::codes`]); every one must be below
    /// [`codes::COUNT`].
    pub codes: &'a mut [u8],
    /// Address-computation register sets.
    pub addr_regs: &'a mut [u8],
    /// Packed register operands.
    pub regs: &'a mut [u8],
    /// Optional-field flags.
    pub flags: &'a mut [u8],
    annots: &'a mut u32,
}

impl Drop for RawRecords<'_> {
    fn drop(&mut self) {
        *self.annots = self.codes.iter().filter(|&&c| codes::is_annotation(c)).count() as u32;
    }
}

/// A [`TraceBatch`]'s shared streams, writable by index beside the fixed
/// columns they follow ([`TraceBatch::raw_streams`]).
#[derive(Debug)]
pub struct RawStreams<'a> {
    /// Program counters.
    pub pcs: &'a [u32],
    /// Field codes.
    pub codes: &'a [u8],
    /// Optional-field flags.
    pub flags: &'a [u8],
    /// The shared address stream.
    pub addrs: &'a mut [u32],
    /// Access-size codes, index-aligned with `addrs` (2 for plain
    /// addresses).
    pub sizes: &'a mut [u8],
    /// The immediate stream.
    pub vals: &'a mut [u32],
}

/// Sequential [`TraceEntry`] view over a [`TraceBatch`]'s columns.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    batch: &'a TraceBatch,
    i: usize,
    ai: usize,
    vi: usize,
}

impl<'a> Records<'a> {
    #[inline]
    fn mem(&mut self) -> MemRef {
        let m = MemRef::new(
            self.batch.addrs[self.ai],
            MemSize::from_code(self.batch.sizes[self.ai]).expect("valid size code in batch"),
        );
        self.ai += 1;
        m
    }

    #[inline]
    fn addr(&mut self) -> u32 {
        let a = self.batch.addrs[self.ai];
        self.ai += 1;
        a
    }

    #[inline]
    fn val(&mut self) -> u32 {
        let v = self.batch.vals[self.vi];
        self.vi += 1;
        v
    }
}

impl Iterator for Records<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.i >= self.batch.len() {
            return None;
        }
        let i = self.i;
        self.i += 1;
        let regs = self.batch.regs[i];
        let flags = self.batch.flags[i];
        let rd = || Reg::from_index((regs & 0x0f) as usize);
        let rs = || Reg::from_index((regs >> 4) as usize);
        let op = match self.batch.codes[i] {
            codes::IMM_TO_REG => TraceOp::Op(OpClass::ImmToReg { rd: rd() }),
            codes::IMM_TO_MEM => TraceOp::Op(OpClass::ImmToMem { dst: self.mem() }),
            codes::REG_SELF => TraceOp::Op(OpClass::RegSelf { rd: rd() }),
            codes::MEM_SELF => TraceOp::Op(OpClass::MemSelf { dst: self.mem() }),
            codes::REG_TO_REG => TraceOp::Op(OpClass::RegToReg { rs: rs(), rd: rd() }),
            codes::REG_TO_MEM => TraceOp::Op(OpClass::RegToMem { rs: rd(), dst: self.mem() }),
            codes::MEM_TO_REG => {
                let src = self.mem();
                TraceOp::Op(OpClass::MemToReg { src, rd: rd() })
            }
            codes::MEM_TO_MEM => {
                let src = self.mem();
                TraceOp::Op(OpClass::MemToMem { src, dst: self.mem() })
            }
            codes::DEST_REG_OP_REG => TraceOp::Op(OpClass::DestRegOpReg { rs: rs(), rd: rd() }),
            codes::DEST_REG_OP_MEM => {
                let src = self.mem();
                TraceOp::Op(OpClass::DestRegOpMem { src, rd: rd() })
            }
            codes::DEST_MEM_OP_REG => {
                TraceOp::Op(OpClass::DestMemOpReg { rs: rd(), dst: self.mem() })
            }
            codes::READ_ONLY => {
                let src = if flags & 1 != 0 { Some(self.mem()) } else { None };
                TraceOp::Op(OpClass::ReadOnly { src, reads: RegSet::from_bits(regs) })
            }
            codes::OTHER => {
                let writes = RegSet::from_bits(self.val() as u8);
                let mem_read = if flags & 1 != 0 { Some(self.mem()) } else { None };
                let mem_write = if flags & 2 != 0 { Some(self.mem()) } else { None };
                TraceOp::Op(OpClass::Other {
                    reads: RegSet::from_bits(regs),
                    writes,
                    mem_read,
                    mem_write,
                })
            }
            codes::CTRL_DIRECT => TraceOp::Ctrl(CtrlOp::Direct),
            codes::CTRL_INDIRECT => {
                let target = if flags & 1 != 0 {
                    JumpTarget::Mem(self.mem())
                } else {
                    JumpTarget::Reg(rd())
                };
                TraceOp::Ctrl(CtrlOp::Indirect { target })
            }
            codes::CTRL_COND => {
                let input =
                    if regs == codes::NO_REG { None } else { Some(Reg::from_index(regs as usize)) };
                TraceOp::Ctrl(CtrlOp::CondBranch { input })
            }
            codes::CTRL_RET => TraceOp::Ctrl(CtrlOp::Ret { slot: self.mem() }),
            codes::ANN_MALLOC => {
                let base = self.addr();
                TraceOp::Annot(Annotation::Malloc { base, size: self.val() })
            }
            codes::ANN_FREE => TraceOp::Annot(Annotation::Free { base: self.addr() }),
            codes::ANN_LOCK => TraceOp::Annot(Annotation::Lock { lock: self.addr() }),
            codes::ANN_UNLOCK => TraceOp::Annot(Annotation::Unlock { lock: self.addr() }),
            codes::ANN_READ_INPUT => {
                let base = self.addr();
                TraceOp::Annot(Annotation::ReadInput { base, len: self.val() })
            }
            codes::ANN_SYSCALL => {
                let arg_reg = if flags & 1 != 0 {
                    Some(Reg::from_index((regs & 0x0f) as usize))
                } else {
                    None
                };
                let arg_mem = if flags & 2 != 0 { Some(self.mem()) } else { None };
                TraceOp::Annot(Annotation::Syscall { arg_reg, arg_mem })
            }
            codes::ANN_PRINTF => TraceOp::Annot(Annotation::PrintfFormat { fmt: self.mem() }),
            codes::ANN_THREAD_SWITCH => {
                TraceOp::Annot(Annotation::ThreadSwitch { tid: self.val() })
            }
            codes::ANN_THREAD_EXIT => TraceOp::Annot(Annotation::ThreadExit { tid: self.val() }),
            c => unreachable!("invalid field code {c} in TraceBatch"),
        };
        Some(TraceEntry {
            pc: self.batch.pcs[i],
            op,
            addr_regs: RegSet::from_bits(self.batch.addr_regs[i]),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.batch.len() - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::batch_bytes;

    fn zoo() -> Vec<TraceEntry> {
        let m = MemRef::new(0x9000, MemSize::B2);
        let w = MemRef::word(0xa000);
        let b = MemRef::byte(0xb000);
        vec![
            TraceEntry::op(0x10, OpClass::ImmToReg { rd: Reg::Edi }),
            TraceEntry::op(0x14, OpClass::ImmToMem { dst: m }),
            TraceEntry::op(0x18, OpClass::RegSelf { rd: Reg::Ecx }),
            TraceEntry::op(0x1c, OpClass::MemSelf { dst: w }),
            TraceEntry::op(0x20, OpClass::RegToReg { rs: Reg::Esi, rd: Reg::Ebp }),
            TraceEntry::op(0x24, OpClass::RegToMem { rs: Reg::Eax, dst: b })
                .with_addr_regs(RegSet::from_regs([Reg::Ebx, Reg::Edi])),
            TraceEntry::op(0x28, OpClass::MemToReg { src: m, rd: Reg::Edx }),
            TraceEntry::op(0x2c, OpClass::MemToMem { src: w, dst: b }),
            TraceEntry::op(0x30, OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Eax }),
            TraceEntry::op(0x34, OpClass::DestRegOpMem { src: b, rd: Reg::Esp }),
            TraceEntry::op(0x38, OpClass::DestMemOpReg { rs: Reg::Edx, dst: w }),
            TraceEntry::op(0x3c, OpClass::ReadOnly { src: Some(m), reads: RegSet::ALL }),
            TraceEntry::op(0x40, OpClass::ReadOnly { src: None, reads: RegSet::EMPTY }),
            TraceEntry::op(
                0x44,
                OpClass::Other {
                    reads: RegSet::from_regs([Reg::Eax]),
                    writes: RegSet::from_regs([Reg::Edx, Reg::Esi]),
                    mem_read: Some(w),
                    mem_write: Some(b),
                },
            ),
            TraceEntry::ctrl(0x48, CtrlOp::Direct),
            TraceEntry::ctrl(0x4c, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
            TraceEntry::ctrl(0x50, CtrlOp::Indirect { target: JumpTarget::Mem(w) }),
            TraceEntry::ctrl(0x54, CtrlOp::CondBranch { input: Some(Reg::Ebx) }),
            TraceEntry::ctrl(0x58, CtrlOp::CondBranch { input: None }),
            TraceEntry::ctrl(0x5c, CtrlOp::Ret { slot: w }),
            TraceEntry::annot(0x60, Annotation::Malloc { base: 0x9000, size: 64 }),
            TraceEntry::annot(0x64, Annotation::Free { base: 0x9000 }),
            TraceEntry::annot(0x68, Annotation::Lock { lock: 0x120 }),
            TraceEntry::annot(0x6c, Annotation::Unlock { lock: 0x120 }),
            TraceEntry::annot(0x70, Annotation::ReadInput { base: 0xa000, len: 16 }),
            TraceEntry::annot(
                0x74,
                Annotation::Syscall { arg_reg: Some(Reg::Ebx), arg_mem: Some(m) },
            ),
            TraceEntry::annot(0x78, Annotation::Syscall { arg_reg: None, arg_mem: None }),
            TraceEntry::annot(0x7c, Annotation::PrintfFormat { fmt: b }),
            TraceEntry::annot(0x80, Annotation::ThreadSwitch { tid: 3 }),
            TraceEntry::annot(0x84, Annotation::ThreadExit { tid: 3 }),
        ]
    }

    #[test]
    fn round_trip_is_identity_over_every_variant() {
        let entries = zoo();
        let batch = TraceBatch::from_entries(&entries);
        assert_eq!(batch.len(), entries.len());
        assert_eq!(batch.to_entries(), entries);
        // Owned and borrowing iteration agree.
        assert_eq!(batch.clone().into_iter().collect::<Vec<_>>(), entries);
    }

    #[test]
    fn compressed_bytes_match_the_slice_model() {
        let entries = zoo();
        let batch = TraceBatch::from_entries(&entries);
        assert_eq!(batch.compressed_bytes(), batch_bytes(&entries));
    }

    #[test]
    fn clear_retains_capacity() {
        let entries = zoo();
        let mut batch = TraceBatch::from_entries(&entries);
        let cap = batch.pcs.capacity();
        let addr_cap = batch.addrs.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.compressed_bytes(), 0);
        assert_eq!(batch.pcs.capacity(), cap);
        assert_eq!(batch.addrs.capacity(), addr_cap);
        batch.extend_entries(entries.iter().copied());
        assert_eq!(batch.to_entries(), entries);
    }

    #[test]
    fn raw_columns_written_by_index_equal_the_pushed_batch() {
        let want = TraceBatch::from_entries(&zoo());
        // Start from a larger, unrelated batch: resizing must leave no
        // stale length or annotation count behind.
        let mut got = TraceBatch::from_entries(&[zoo(), zoo()].concat());
        {
            let r = got.raw_records(want.len());
            r.pcs.copy_from_slice(want.pcs());
            r.codes.copy_from_slice(want.codes());
            r.addr_regs.copy_from_slice(want.addr_regs_bits());
            r.regs.copy_from_slice(want.reg_bytes());
            r.flags.copy_from_slice(want.flag_bytes());
        }
        let s = got.raw_streams(want.addrs().len(), want.vals().len());
        assert_eq!(s.codes, want.codes());
        s.addrs.copy_from_slice(want.addrs());
        s.sizes.copy_from_slice(want.size_codes());
        s.vals.copy_from_slice(want.vals());
        assert_eq!(got, want);
        assert_eq!(got.compressed_bytes(), want.compressed_bytes());
    }

    #[test]
    fn from_vec_and_collect_conversions() {
        let entries = zoo();
        let via_from: TraceBatch = entries.clone().into();
        let via_collect: TraceBatch = entries.iter().copied().collect();
        assert_eq!(via_from, via_collect);
        assert_eq!(via_from.to_entries(), entries);
    }
}

//! Compressed log-record size model.
//!
//! An LBA record conceptually contains the program counter, instruction
//! type, operand identifiers and data addresses. The paper's compressor
//! brings the average record below one byte (§3, Table 2: "assuming 1B per
//! compressed record"); we adopt the same working assumption for
//! instruction records and charge a fixed, larger size for software-inserted
//! annotation records, which carry uncompressed payloads (addresses,
//! lengths) and are rare.

use igm_isa::{TraceEntry, TraceOp};

/// Modelled size of a compressed instruction record, in bytes.
pub const INSTR_RECORD_BYTES: u32 = 1;

/// Modelled size of an annotation record, in bytes (type byte + two 32-bit
/// payload words).
pub const ANNOTATION_RECORD_BYTES: u32 = 9;

/// Size in bytes that `entry` occupies in the log buffer.
pub fn compressed_size(entry: &TraceEntry) -> u32 {
    match entry.op {
        TraceOp::Annot(_) => ANNOTATION_RECORD_BYTES,
        _ => INSTR_RECORD_BYTES,
    }
}

/// Groups a record stream into size-bounded batches for block transport.
///
/// Each batch ([`Chunks::next_into_batch`]) occupies at most `max_bytes`
/// of compressed-record space ([`compressed_size`]), except that a single
/// record larger than `max_bytes` is yielded alone (so the chunker always
/// makes progress).
/// This is the producer-side "chunk extraction" used by the streaming
/// runtime (`igm-runtime`): the application core fills a cache-line-sized
/// batch locally and publishes it to the log channel in one operation,
/// amortizing synchronization over many records.
///
/// # Example
///
/// ```
/// use igm_isa::{OpClass, Reg, TraceEntry};
/// use igm_lba::{record::chunks, TraceBatch};
///
/// let rec = TraceEntry::op(0x1000, OpClass::ImmToReg { rd: Reg::Eax });
/// let mut chunker = chunks([rec; 10], 4);
/// let mut batch = TraceBatch::new();
/// let mut sizes = Vec::new();
/// while chunker.next_into_batch(&mut batch) {
///     sizes.push(batch.len());
/// }
/// assert_eq!(sizes, [4, 4, 2]); // one-byte records
/// ```
pub fn chunks<I>(records: I, max_bytes: u32) -> Chunks<I::IntoIter>
where
    I: IntoIterator<Item = TraceEntry>,
{
    assert!(max_bytes > 0, "chunk size must be positive");
    Chunks { inner: records.into_iter(), max_bytes, pending: None }
}

/// Chunker returned by [`chunks`].
#[derive(Debug, Clone)]
pub struct Chunks<I> {
    inner: I,
    max_bytes: u32,
    /// A record that did not fit the previous batch.
    pending: Option<TraceEntry>,
}

impl<I: Iterator<Item = TraceEntry>> Chunks<I> {
    /// Fills `batch` (cleared first) with the next size-bounded chunk,
    /// returning whether one was produced — the one chunker of the
    /// columnar record path: generators and the streaming producers build
    /// their transport batches column-first, reusing one arena's capacity
    /// across the whole stream. A record that does not fit is carried to
    /// the next call; a single record larger than the whole budget is
    /// yielded alone.
    pub fn next_into_batch(&mut self, batch: &mut crate::TraceBatch) -> bool {
        batch.clear();
        let mut used = 0u32;
        if let Some(first) = self.pending.take() {
            used += compressed_size(&first);
            batch.push(&first);
        }
        for entry in self.inner.by_ref() {
            let sz = compressed_size(&entry);
            if !batch.is_empty() && used + sz > self.max_bytes {
                self.pending = Some(entry);
                return true;
            }
            used += sz;
            batch.push(&entry);
            if used >= self.max_bytes {
                return true;
            }
        }
        !batch.is_empty()
    }
}

/// Total compressed size of a batch of records, in bytes.
pub fn batch_bytes(records: &[TraceEntry]) -> u32 {
    records.iter().map(compressed_size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{Annotation, MemRef, OpClass, Reg};

    /// Every chunk of `recs`, drained through one reused batch.
    fn drain(recs: &[TraceEntry], max_bytes: u32) -> Vec<Vec<TraceEntry>> {
        let mut chunker = chunks(recs.iter().copied(), max_bytes);
        let mut batch = crate::TraceBatch::new();
        let mut out = Vec::new();
        while chunker.next_into_batch(&mut batch) {
            out.push(batch.to_entries());
        }
        out
    }

    /// The size rule spelled out once, independently of the chunker: a
    /// chunk closes when the next record would overflow it or when it is
    /// full, and never closes empty.
    fn size_rule(recs: &[TraceEntry], max_bytes: u32) -> Vec<Vec<TraceEntry>> {
        let mut out: Vec<Vec<TraceEntry>> = Vec::new();
        let mut cur = Vec::new();
        for &e in recs {
            if !cur.is_empty() && batch_bytes(&cur) + compressed_size(&e) > max_bytes {
                out.push(std::mem::take(&mut cur));
            }
            cur.push(e);
            if batch_bytes(&cur) >= max_bytes {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    #[test]
    fn chunks_respect_byte_bound_and_preserve_order() {
        let mut recs = Vec::new();
        for pc in 0..100u32 {
            recs.push(TraceEntry::op(pc, OpClass::ImmToReg { rd: Reg::Eax }));
            if pc % 7 == 0 {
                recs.push(TraceEntry::annot(pc, Annotation::Free { base: pc }));
            }
        }
        let batches = drain(&recs, 16);
        for b in &batches {
            assert!(!b.is_empty());
            assert!(batch_bytes(b) <= 16 || b.len() == 1, "oversized multi-record batch");
        }
        let flat: Vec<_> = batches.into_iter().flatten().collect();
        assert_eq!(flat, recs, "chunking must not lose, duplicate or reorder");
    }

    fn lock_stream() -> Vec<TraceEntry> {
        let mut recs = Vec::new();
        for pc in 0..50u32 {
            recs.push(TraceEntry::op(pc, OpClass::ImmToReg { rd: Reg::Eax }));
            if pc % 9 == 0 {
                recs.push(TraceEntry::annot(pc, Annotation::Lock { lock: pc }));
            }
        }
        recs
    }

    /// Refilling one reused batch yields the size rule's chunks, one for
    /// one, and then reports the end of the stream with the batch empty.
    #[test]
    fn next_into_matches_iterator() {
        let recs = lock_stream();
        for max_bytes in [1, 8, 9, 12, 64, 1024] {
            let mut chunker = chunks(recs.iter().copied(), max_bytes);
            let mut batch = crate::TraceBatch::new();
            for want in size_rule(&recs, max_bytes) {
                assert!(chunker.next_into_batch(&mut batch), "chunk availability diverged");
                assert_eq!(batch.to_entries(), want, "chunk contents diverged");
            }
            assert!(!chunker.next_into_batch(&mut batch), "chunk availability diverged");
            assert!(batch.is_empty(), "an exhausted refill must leave the buffer empty");
        }
    }

    /// A refill is the size rule's chunk in size too, and clears what the
    /// batch held before: a batch left full by another stream refills to
    /// the same chunks as a fresh one.
    #[test]
    fn next_into_batch_matches_next_into() {
        let recs = lock_stream();
        let mut dirty = crate::TraceBatch::new();
        let mut other = chunks(recs.iter().rev().copied(), 64);
        assert!(other.next_into_batch(&mut dirty));
        assert!(!dirty.is_empty());
        let mut by_batch = chunks(recs.iter().copied(), 12);
        for want in size_rule(&recs, 12) {
            assert!(by_batch.next_into_batch(&mut dirty), "chunk availability diverged");
            assert_eq!(dirty.to_entries(), want, "chunk contents diverged");
            assert_eq!(dirty.compressed_bytes(), batch_bytes(&want));
        }
        assert!(!by_batch.next_into_batch(&mut dirty), "chunk availability diverged");
    }

    #[test]
    fn oversized_record_is_yielded_alone() {
        let big = TraceEntry::annot(1, Annotation::Malloc { base: 0x9000, size: 64 });
        let small = TraceEntry::op(2, OpClass::ImmToReg { rd: Reg::Eax });
        let batches = drain(&[small, big, small], 4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[1], vec![big]);
    }

    #[test]
    fn instruction_records_are_one_byte() {
        let e = TraceEntry::op(0x1000, OpClass::ImmToReg { rd: Reg::Eax });
        assert_eq!(compressed_size(&e), 1);
        let e = TraceEntry::op(
            0x1000,
            OpClass::MemToMem { src: MemRef::word(0), dst: MemRef::word(4) },
        );
        assert_eq!(compressed_size(&e), 1);
    }

    #[test]
    fn annotation_records_are_larger() {
        let e = TraceEntry::annot(0x1000, Annotation::Malloc { base: 0x9000, size: 64 });
        assert_eq!(compressed_size(&e), ANNOTATION_RECORD_BYTES);
    }
}

//! Sidecar indexes: a frame-offset directory plus per-frame posting lists,
//! for random-access replay *and* replay-free queries.
//!
//! A trace file is a sequence of self-contained frames (delta streams and
//! predictor tables reset at every frame boundary), so any frame is a
//! valid decode entry point — but finding the frame that holds record *k*
//! normally means decoding every frame before it. A [`TraceIndex`] is the
//! missing directory: one `(byte offset, records)` entry per frame, saved
//! as a compact sidecar file.
//!
//! Each frame's entry comes with one
//! [`FramePostings`] section: compressed
//! bitmap posting lists keyed by pc bucket, opcode class, address page and
//! violation site (see [`crate::postings`]), which is what lets the trace
//! lake answer "which records touched page X" without decoding any frame
//! payload. An index is built inline by the indexing writer
//! ([`TraceWriter::with_index`](crate::TraceWriter::with_index)) or rebuilt
//! offline by [`TraceIndex::scan_records`], which decodes every frame's
//! columns; both construction paths serialize byte-identically.
//!
//! With an index, [`replay_window`](crate::capture::replay_window) seeks a
//! [`TraceReader`](crate::TraceReader) straight to the first frame of a
//! record-range window and decodes only the frames the window touches —
//! the prefix is never decoded.

use crate::codec::{checksum_parts, Checksum, TraceError, FRAME_HEADER_BYTES, MAGIC};
use crate::postings::{FramePostings, PostingBuilder};
use igm_lba::TraceBatch;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The four magic bytes opening every index sidecar.
pub const INDEX_MAGIC: [u8; 4] = *b"IGMX";

/// The sidecar format version — the only one this crate reads or writes:
/// a directory plus per-frame posting lists under the lane checksum.
pub const INDEX_VERSION: u32 = 3;

/// One frame's directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the frame header in the trace stream (the 8-byte
    /// file header included, so the offset seeks directly).
    pub offset: u64,
    /// Records decoded by every frame before this one.
    pub first_record: u64,
    /// Records in this frame.
    pub records: u32,
}

/// A frame-offset directory and per-frame posting index over one trace
/// stream.
///
/// # Example
///
/// ```
/// use igm_trace::{encode_to_vec, TraceIndex};
/// use igm_workload::Benchmark;
///
/// let bytes = encode_to_vec(Benchmark::Gzip.trace(5_000), 2048);
/// let index = TraceIndex::scan_records(&bytes[..]).unwrap();
/// assert_eq!(index.total_records(), 5_000);
/// // The frame holding record 3_000, located without decoding anything.
/// let entry = index.frame_for_record(3_000).unwrap();
/// assert!(entry.first_record <= 3_000);
/// assert!(3_000 < entry.first_record + entry.records as u64);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceIndex {
    entries: Vec<IndexEntry>,
    /// Exactly one posting section per entry.
    postings: Vec<FramePostings>,
    total_records: u64,
}

impl TraceIndex {
    /// An empty index.
    pub fn new() -> TraceIndex {
        TraceIndex::default()
    }

    /// Appends one frame's directory entry *and* its posting lists,
    /// extracted from the batch the frame encodes (the indexing writer
    /// and the decoding scan both land here, which is what makes their
    /// sidecars byte-identical).
    pub(crate) fn push_frame_batch(
        &mut self,
        offset: u64,
        batch: &TraceBatch,
        builder: &mut PostingBuilder,
    ) {
        debug_assert_eq!(self.postings.len(), self.entries.len(), "posting/frame misalignment");
        self.entries.push(IndexEntry {
            offset,
            first_record: self.total_records,
            records: batch.len() as u32,
        });
        self.postings.push(builder.frame(batch));
        self.total_records += batch.len() as u64;
    }

    /// The per-frame directory, in stream order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The per-frame posting sections, aligned with [`TraceIndex::entries`].
    pub fn frame_postings(&self) -> &[FramePostings] {
        &self.postings
    }

    /// Frames indexed.
    pub fn frames(&self) -> usize {
        self.entries.len()
    }

    /// Records across all indexed frames.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total encoded posting bytes (directory excluded) — the numerator
    /// of the index-overhead bytes-per-record metric.
    pub fn posting_bytes(&self) -> u64 {
        self.postings.iter().map(|p| p.encoded_len() as u64).sum()
    }

    /// The entry of the frame containing record number `record` (0-based
    /// over the whole trace), or `None` past the end.
    pub fn frame_for_record(&self, record: u64) -> Option<&IndexEntry> {
        if record >= self.total_records {
            return None;
        }
        let i = self.entries.partition_point(|e| e.first_record + e.records as u64 <= record);
        self.entries.get(i)
    }

    /// Whether this directory describes the whole of the trace stream in
    /// `r`, `stream_len` bytes long: the frame header found at the last
    /// entry's offset carries that entry's record count, and its payload
    /// ends exactly at `stream_len` (an empty directory covers only an
    /// empty stream — the file header alone). One frame-header read, no
    /// payload touched: the cheap test that a sidecar still belongs to
    /// the trace beside it, which a stream rewritten longer, appended to
    /// or cut short inside its last frame fails.
    pub fn covers<R: Read + Seek>(&self, mut r: R, stream_len: u64) -> io::Result<bool> {
        let mut file_header = [0u8; 8];
        if crate::codec::read_exact_or_eof(&mut r, &mut file_header)? < 8
            || file_header[..4] != MAGIC
        {
            return Ok(false);
        }
        if u32::from_le_bytes(file_header[4..8].try_into().unwrap()) != crate::FORMAT_VERSION {
            return Ok(false);
        }
        let Some(last) = self.entries.last() else {
            return Ok(stream_len == 8);
        };
        let mut header = [0u8; FRAME_HEADER_BYTES];
        r.seek(SeekFrom::Start(last.offset))?;
        if crate::codec::read_exact_or_eof(&mut r, &mut header)? < FRAME_HEADER_BYTES {
            return Ok(false);
        }
        let records = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let frame_bytes = FRAME_HEADER_BYTES as u64 + len as u64;
        Ok(records == last.records && stream_len.checked_sub(last.offset) == Some(frame_bytes))
    }

    /// Builds the index from a finished trace stream by decoding every
    /// frame's columns — the offline twin of
    /// [`TraceWriter::with_index`](crate::TraceWriter::with_index):
    /// both run the same per-batch extraction, so the two indexes
    /// serialize byte-identically. Payload checksums are verified as a
    /// side effect of decoding.
    pub fn scan_records<R: Read>(r: R) -> Result<TraceIndex, TraceError> {
        let mut reader = crate::codec::TraceReader::new(r)?;
        let mut index = TraceIndex::new();
        let mut batch = TraceBatch::new();
        let mut builder = PostingBuilder::default();
        loop {
            let offset = reader.offset();
            if !reader.read_chunk_into_batch(&mut batch)? {
                return Ok(index);
            }
            index.push_frame_batch(offset, &batch, &mut builder);
        }
    }

    /// Scans (decoding payloads) the trace file at `path`.
    pub fn scan_records_file(path: impl AsRef<Path>) -> Result<TraceIndex, TraceError> {
        TraceIndex::scan_records(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }

    /// Serializes the index: `IGMX`, version, frame count, one `(offset
    /// u64, records u32)` LE pair per frame, a `u64` posting-section
    /// length and each frame's encoded [`FramePostings`], then the
    /// frames' [`checksum`](crate::checksum) (eight word lanes) over the
    /// entry, length and posting bytes, streamed over the three in place.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut entries = Vec::with_capacity(self.entries.len() * 12);
        for e in &self.entries {
            entries.extend_from_slice(&e.offset.to_le_bytes());
            entries.extend_from_slice(&e.records.to_le_bytes());
        }
        let len = self.posting_bytes().to_le_bytes();
        w.write_all(&INDEX_MAGIC)?;
        w.write_all(&INDEX_VERSION.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u64).to_le_bytes())?;
        let mut sum = Checksum::new();
        for bytes in [&entries[..], &len] {
            sum.update(bytes);
            w.write_all(bytes)?;
        }
        // One frame's section at a time, summed and written while it is
        // still in cache.
        let (mut section, mut written) = (Vec::new(), 0u64);
        for p in &self.postings {
            section.clear();
            p.encode(&mut section);
            sum.update(&section);
            w.write_all(&section)?;
            written += section.len() as u64;
        }
        debug_assert_eq!(written.to_le_bytes(), len, "posting_bytes disagrees with encode");
        w.write_all(&sum.finish().to_le_bytes())?;
        w.flush()
    }

    /// Writes the sidecar file at `path`.
    pub fn save_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save(BufWriter::new(File::create(path)?))
    }

    /// Deserializes an index written by [`TraceIndex::save`]; any other
    /// sidecar version is [`TraceError::UnsupportedVersion`].
    ///
    /// The checksum runs over the entry and posting bytes where they were
    /// read, with no copy of the section. Every posting is validated
    /// before it is kept ([`FramePostings::decode`]), without rebuilding
    /// any bitmap: a periodic-XOR body is counted from its diff positions
    /// and a strided run is checked whole. A damaged sidecar is
    /// [`TraceError::Corrupt`] with the reason the first bad byte earns.
    pub fn load<R: Read>(mut r: R) -> Result<TraceIndex, TraceError> {
        let corrupt = |reason| TraceError::Corrupt { offset: 0, reason };
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("index sidecar truncated"),
            _ => TraceError::Io(e),
        })?;
        if magic != INDEX_MAGIC {
            return Err(corrupt("not an igm trace index (bad magic)"));
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word).map_err(TraceError::Io)?;
        let version = u32::from_le_bytes(word);
        if version != INDEX_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut count = [0u8; 8];
        r.read_exact(&mut count).map_err(TraceError::Io)?;
        let count = u64::from_le_bytes(count);
        // 12 bytes per entry: a corrupt count cannot drive an allocation
        // larger than what the stream actually holds.
        let entry_bytes = count.saturating_mul(12);
        let mut entries = Vec::new();
        r.by_ref().take(entry_bytes).read_to_end(&mut entries).map_err(TraceError::Io)?;
        if entries.len() as u64 != entry_bytes {
            return Err(corrupt("index sidecar truncated"));
        }
        let mut len = [0u8; 8];
        r.read_exact(&mut len).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("index sidecar truncated"),
            _ => TraceError::Io(e),
        })?;
        let plen = u64::from_le_bytes(len);
        let mut sections = Vec::new();
        r.by_ref().take(plen).read_to_end(&mut sections).map_err(TraceError::Io)?;
        if sections.len() as u64 != plen {
            return Err(corrupt("index sidecar truncated"));
        }
        r.read_exact(&mut word).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("index sidecar truncated"),
            _ => TraceError::Io(e),
        })?;
        if checksum_parts(&[&entries, &len, &sections]) != u32::from_le_bytes(word) {
            return Err(corrupt("index sidecar checksum mismatch"));
        }
        let mut index = TraceIndex::new();
        let mut pos = 0usize;
        for chunk in entries.chunks_exact(12) {
            let offset = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
            let records = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
            if records == 0 {
                return Err(corrupt("index entry with zero records"));
            }
            // Postings and query frame sets are sized from the count, so a
            // count no frame can carry is refused before it sizes either.
            if records > crate::codec::MAX_FRAME_RECORDS {
                return Err(corrupt("index entry record count exceeds the frame bound"));
            }
            let fp = FramePostings::decode(&sections, &mut pos, records)
                .map_err(|reason| TraceError::Corrupt { offset: pos as u64, reason })?;
            index.entries.push(IndexEntry { offset, first_record: index.total_records, records });
            index.postings.push(fp);
            index.total_records += records as u64;
        }
        if pos != sections.len() {
            return Err(corrupt("trailing bytes after last posting section"));
        }
        Ok(index)
    }

    /// Reads the sidecar file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<TraceIndex, TraceError> {
        TraceIndex::load(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }
}

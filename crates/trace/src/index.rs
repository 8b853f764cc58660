//! Sidecar indexes: frame-offset directories (v1) and per-frame posting
//! lists (v2) for random-access replay *and* replay-free queries.
//!
//! A trace file is a sequence of self-contained frames (both delta streams
//! reset at every frame boundary), so any frame is a valid decode entry
//! point — but finding the frame that holds record *k* normally means
//! decoding every frame before it. A [`TraceIndex`] is the missing
//! directory: one `(byte offset, records)` entry per frame, built as the
//! stream is written ([`TraceWriter::with_index`](crate::TraceWriter::with_index))
//! or rebuilt afterwards by [`TraceIndex::scan`] in one pass that reads
//! only frame *headers*, skipping every payload, and saved as a compact
//! sidecar file.
//!
//! Version 2 sidecars additionally carry one
//! [`FramePostings`](crate::postings::FramePostings) section per frame:
//! compressed bitmap posting lists keyed by pc bucket, opcode class,
//! address page and violation site (see [`crate::postings`]), which is
//! what lets the trace lake answer "which records touched page X"
//! without decoding any frame payload. Postings are built inline by the
//! indexing writer or rebuilt offline by [`TraceIndex::scan_records`]
//! (which *does* decode payloads — it must see the columns); both
//! construction paths serialize byte-identically. Version 1 sidecars
//! (directory only) still load, and an index without postings still
//! saves as v1, so pre-lake sidecars and their producers keep working.
//!
//! With an index, [`replay_window`](crate::capture::replay_window) seeks a
//! [`TraceReader`](crate::TraceReader) straight to the first frame of a
//! record-range window and decodes only the frames the window touches —
//! the prefix is never decoded.

use crate::codec::{checksum, Codec, TraceError, FRAME_HEADER_BYTES, FRAME_HEADER_BYTES_V2, MAGIC};
use crate::postings::{FramePostings, PostingBuilder};
use igm_lba::TraceBatch;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The four magic bytes opening every index sidecar.
pub const INDEX_MAGIC: [u8; 4] = *b"IGMX";

/// Directory-only index format version.
pub const INDEX_VERSION: u32 = 1;

/// Directory + per-frame posting lists format version.
pub const INDEX_VERSION_V2: u32 = 2;

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

/// A frame-offset directory — and, when built from record content, a
/// per-frame posting index — over one trace stream.
///
/// # Example
///
/// ```
/// use igm_trace::{encode_to_vec, TraceIndex};
/// use igm_workload::Benchmark;
///
/// let bytes = encode_to_vec(Benchmark::Gzip.trace(5_000), 2048);
/// let index = TraceIndex::scan(&bytes[..]).unwrap();
/// assert_eq!(index.total_records(), 5_000);
/// // The frame holding record 3_000, located without decoding anything.
/// let entry = index.frame_for_record(3_000).unwrap();
/// assert!(entry.first_record <= 3_000);
/// assert!(3_000 < entry.first_record + entry.records as u64);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceIndex {
    entries: Vec<IndexEntry>,
    /// Either empty (directory-only index) or exactly one section per
    /// entry (posting index).
    postings: Vec<FramePostings>,
    total_records: u64,
}

impl TraceIndex {
    /// An empty index.
    pub fn new() -> TraceIndex {
        TraceIndex::default()
    }

    /// Appends one frame's directory entry (header-only construction:
    /// the scan path and v1 sidecar loads).
    pub(crate) fn push_frame(&mut self, offset: u64, records: u32) {
        debug_assert!(self.postings.is_empty(), "cannot mix directory-only and posting frames");
        self.entries.push(IndexEntry { offset, first_record: self.total_records, records });
        self.total_records += records as u64;
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

    /// Whether this index carries per-frame posting lists (v2 content).
    pub fn has_postings(&self) -> bool {
        !self.postings.is_empty()
    }

    /// The per-frame posting sections, aligned with [`TraceIndex::entries`];
    /// empty for a directory-only index.
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

    /// The position of the frame containing record number `record`, for
    /// pairing an entry with its posting section.
    pub fn frame_pos_for_record(&self, record: u64) -> Option<usize> {
        if record >= self.total_records {
            return None;
        }
        Some(self.entries.partition_point(|e| e.first_record + e.records as u64 <= record))
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
        let hlen = match u32::from_le_bytes(file_header[4..8].try_into().unwrap()) {
            crate::codec::FORMAT_VERSION_V1 => FRAME_HEADER_BYTES,
            crate::FORMAT_VERSION => FRAME_HEADER_BYTES_V2,
            _ => return Ok(false),
        };
        let Some(last) = self.entries.last() else {
            return Ok(stream_len == 8);
        };
        let mut header = [0u8; FRAME_HEADER_BYTES_V2];
        r.seek(SeekFrom::Start(last.offset))?;
        if crate::codec::read_exact_or_eof(&mut r, &mut header[..hlen])? < hlen {
            return Ok(false);
        }
        let records = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let frame_bytes = hlen as u64 + len as u64;
        Ok(records == last.records && stream_len.checked_sub(last.offset) == Some(frame_bytes))
    }

    /// Builds the directory from a finished trace stream in one scan that
    /// reads frame *headers* only — every payload is skipped, not decoded
    /// (payload integrity is still the reader's job at replay time). The
    /// result carries no postings; see [`TraceIndex::scan_records`] for
    /// the full posting index.
    pub fn scan<R: Read>(mut r: R) -> Result<TraceIndex, TraceError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => TraceError::BadMagic,
            _ => TraceError::Io(e),
        })?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver).map_err(TraceError::Io)?;
        let version = u32::from_le_bytes(ver);
        if version != crate::codec::FORMAT_VERSION_V1 && version != crate::FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let hlen = if version == crate::codec::FORMAT_VERSION_V1 {
            FRAME_HEADER_BYTES
        } else {
            FRAME_HEADER_BYTES_V2
        };
        let mut index = TraceIndex::new();
        let mut offset = 8u64;
        let mut header = [0u8; FRAME_HEADER_BYTES_V2];
        loop {
            match read_exact_or_eof(&mut r, &mut header[..hlen])? {
                0 => return Ok(index),
                n if n < hlen => {
                    return Err(TraceError::Corrupt {
                        offset: offset + n as u64,
                        reason: "stream ends inside a frame header",
                    })
                }
                _ => {}
            }
            let records = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
            let codec = if version == crate::codec::FORMAT_VERSION_V1 {
                Codec::Delta
            } else {
                match Codec::from_wire(u32::from_le_bytes(header[12..16].try_into().unwrap())) {
                    Some(c) => c,
                    None => {
                        return Err(TraceError::Corrupt {
                            offset,
                            reason: "unknown codec id in frame header",
                        })
                    }
                }
            };
            crate::codec::validate_frame_header(records, len, offset, codec)?;
            // Skip the payload without materializing it.
            let skipped = io::copy(&mut r.by_ref().take(len as u64), &mut io::sink())
                .map_err(TraceError::Io)?;
            if skipped < len as u64 {
                return Err(TraceError::Corrupt {
                    offset: offset + hlen as u64 + skipped,
                    reason: "stream ends inside a frame payload",
                });
            }
            index.push_frame(offset, records);
            offset += hlen as u64 + len as u64;
        }
    }

    /// Scans the trace file at `path` (directory only).
    pub fn scan_file(path: impl AsRef<Path>) -> Result<TraceIndex, TraceError> {
        TraceIndex::scan(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }

    /// Builds the *full* posting index from a finished trace stream by
    /// decoding every frame's columns — the offline twin of
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

    /// Serializes the index. Directory-only indexes write version 1:
    /// `IGMX`, version, frame count, one `(offset u64, records u32)` LE
    /// pair per frame, an FNV-1a-32 checksum over the entry bytes.
    /// Posting indexes write version 2: the same directory, then a
    /// `u64` posting-section length and each frame's encoded
    /// [`FramePostings`], with the trailing checksum covering entry and
    /// posting bytes both.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        let version = if self.has_postings() { INDEX_VERSION_V2 } else { INDEX_VERSION };
        w.write_all(&INDEX_MAGIC)?;
        w.write_all(&version.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u64).to_le_bytes())?;
        let mut body = Vec::with_capacity(self.entries.len() * 12);
        for e in &self.entries {
            body.extend_from_slice(&e.offset.to_le_bytes());
            body.extend_from_slice(&e.records.to_le_bytes());
        }
        if self.has_postings() {
            let mut sections = Vec::new();
            for p in &self.postings {
                p.encode(&mut sections);
            }
            body.extend_from_slice(&(sections.len() as u64).to_le_bytes());
            body.extend_from_slice(&sections);
        }
        w.write_all(&body)?;
        w.write_all(&checksum(&body).to_le_bytes())?;
        w.flush()
    }

    /// Writes the sidecar file at `path`.
    pub fn save_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save(BufWriter::new(File::create(path)?))
    }

    /// Deserializes an index written by [`TraceIndex::save`] (either
    /// version).
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
        if version != INDEX_VERSION && version != INDEX_VERSION_V2 {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut count = [0u8; 8];
        r.read_exact(&mut count).map_err(TraceError::Io)?;
        let count = u64::from_le_bytes(count);
        // 12 bytes per entry: a corrupt count cannot drive an allocation
        // larger than what the stream actually holds.
        let entry_bytes = count.saturating_mul(12);
        let mut body = Vec::new();
        r.by_ref().take(entry_bytes).read_to_end(&mut body).map_err(TraceError::Io)?;
        if body.len() as u64 != entry_bytes {
            return Err(corrupt("index sidecar truncated"));
        }
        let mut sections = Vec::new();
        if version == INDEX_VERSION_V2 {
            let mut len = [0u8; 8];
            r.read_exact(&mut len).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => corrupt("index sidecar truncated"),
                _ => TraceError::Io(e),
            })?;
            let plen = u64::from_le_bytes(len);
            r.by_ref().take(plen).read_to_end(&mut sections).map_err(TraceError::Io)?;
            if sections.len() as u64 != plen {
                return Err(corrupt("index sidecar truncated"));
            }
            body.extend_from_slice(&len);
            body.extend_from_slice(&sections);
        }
        r.read_exact(&mut word).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => corrupt("index sidecar truncated"),
            _ => TraceError::Io(e),
        })?;
        if checksum(&body) != u32::from_le_bytes(word) {
            return Err(corrupt("index sidecar checksum mismatch"));
        }
        let mut index = TraceIndex::new();
        let mut pos = 0usize;
        for chunk in body[..entry_bytes as usize].chunks_exact(12) {
            let offset = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
            let records = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
            if records == 0 {
                return Err(corrupt("index entry with zero records"));
            }
            if version == INDEX_VERSION_V2 {
                let fp = FramePostings::decode(&sections, &mut pos, records)
                    .map_err(|reason| TraceError::Corrupt { offset: pos as u64, reason })?;
                index.entries.push(IndexEntry {
                    offset,
                    first_record: index.total_records,
                    records,
                });
                index.postings.push(fp);
                index.total_records += records as u64;
            } else {
                index.push_frame(offset, records);
            }
        }
        if version == INDEX_VERSION_V2 && pos != sections.len() {
            return Err(corrupt("trailing bytes after last posting section"));
        }
        Ok(index)
    }

    /// Reads the sidecar file at `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<TraceIndex, TraceError> {
        TraceIndex::load(BufReader::new(File::open(path).map_err(TraceError::Io)?))
    }
}

/// Like `read_exact`, but distinguishes clean EOF (0) and short reads.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TraceError> {
    crate::codec::read_exact_or_eof(r, buf).map_err(TraceError::Io)
}

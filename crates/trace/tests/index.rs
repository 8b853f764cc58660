//! The sidecar frame-offset index: writer-built == scan-built, sidecar
//! round trip, and seeking replay windows without decoding the prefix.

use igm_lba::TraceBatch;
use igm_lifeguards::LifeguardKind;
use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
use igm_trace::{
    checksum, replay_window, TraceError, TraceIndex, TraceReader, TraceWriter, INDEX_VERSION_V2,
};
use igm_workload::Benchmark;
use std::io::Cursor;

const N: u64 = 12_000;
const CHUNK: u32 = 2_048;

/// Encodes a workload and returns (trace bytes, writer-built index).
fn encoded() -> (Vec<u8>, TraceIndex) {
    let mut w = TraceWriter::with_index(Vec::new()).unwrap();
    let mut chunker = igm_lba::chunks(Benchmark::Gzip.trace(N), CHUNK);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        w.write_chunk_batch(&batch).unwrap();
    }
    let index = w.index().expect("index tracking requested").clone();
    (w.finish().unwrap(), index)
}

#[test]
fn writer_index_matches_a_header_scan() {
    let (bytes, written) = encoded();
    let scanned = TraceIndex::scan(&bytes[..]).unwrap();
    // The header-only scan rebuilds the directory half exactly; the
    // writer additionally carries postings (v2 content).
    assert_eq!(written.entries(), scanned.entries());
    assert!(written.has_postings() && !scanned.has_postings());
    assert!(written.frames() > 1, "the workload must span several frames");
    assert_eq!(written.total_records(), N);
    // Entries partition the record space contiguously.
    let mut next = 0u64;
    for e in written.entries() {
        assert_eq!(e.first_record, next);
        assert!(e.records > 0);
        next += e.records as u64;
    }
    assert_eq!(next, N);
}

#[test]
fn sidecar_round_trips_and_rejects_damage() {
    let (_, index) = encoded();
    let mut sidecar = Vec::new();
    index.save(&mut sidecar).unwrap();
    assert_eq!(u32::from_le_bytes(sidecar[4..8].try_into().unwrap()), INDEX_VERSION_V2);
    assert_eq!(TraceIndex::load(&sidecar[..]).unwrap(), index);

    // Bad magic.
    let mut bad = sidecar.clone();
    bad[0] = b'Z';
    assert!(matches!(TraceIndex::load(&bad[..]), Err(TraceError::Corrupt { .. })));
    // Wrong version.
    let mut bad = sidecar.clone();
    bad[4..8].copy_from_slice(&(INDEX_VERSION_V2 + 1).to_le_bytes());
    assert!(matches!(TraceIndex::load(&bad[..]), Err(TraceError::UnsupportedVersion(_))));
    // Flipped entry byte: checksum catches it.
    let mut bad = sidecar.clone();
    let mid = 16 + (bad.len() - 20) / 2;
    bad[mid] ^= 0xff;
    assert!(matches!(TraceIndex::load(&bad[..]), Err(TraceError::Corrupt { .. })));
    // Truncation (inside the posting section and at the tail).
    for cut in [3, sidecar.len() / 3] {
        let bad = &sidecar[..sidecar.len() - cut];
        assert!(matches!(TraceIndex::load(bad), Err(TraceError::Corrupt { .. })));
    }
}

/// Damage the posting section but *repair the checksum*, so only the
/// structural validation inside `FramePostings::decode` stands between
/// the damage and the caller. Structure-level damage (the section's
/// leading count/dim bytes) must be rejected outright; a value-level
/// flip deep inside a container body may decode as a structurally
/// valid posting, but must never silently load as the original index.
#[test]
fn v2_posting_section_damage_is_rejected_structurally() {
    let (_, index) = encoded();
    let mut sidecar = Vec::new();
    index.save(&mut sidecar).unwrap();
    let frames = index.frames();
    // Body layout: 16-byte header, frames*12 directory, 8-byte posting
    // length, postings, 4-byte checksum.
    let postings_at = 16 + frames * 12 + 8;
    let body_range = 16..sidecar.len() - 4;
    let repaired = |victim: usize| {
        let mut bad = sidecar.clone();
        bad[victim] ^= 0x2a;
        let sum = checksum(&bad[body_range.clone()]);
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&sum.to_le_bytes());
        bad
    };
    for victim in [postings_at, postings_at + 1] {
        let bad = repaired(victim);
        assert!(
            matches!(TraceIndex::load(&bad[..]), Err(TraceError::Corrupt { .. })),
            "flipping posting byte at {victim} must not load cleanly"
        );
    }
    let bad = repaired((postings_at + sidecar.len() - 4) / 2);
    match TraceIndex::load(&bad[..]) {
        Err(TraceError::Corrupt { .. }) => {}
        Ok(loaded) => assert_ne!(loaded, index, "damaged sidecar must not load as the original"),
        Err(e) => panic!("unexpected error kind: {e:?}"),
    }
}

// --- hand-built sidecars: one per rejection reason -------------------

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return out;
        }
        out.push(b | 0x80);
    }
}

const RUNS: u8 = 0;
const ARRAY: u8 = 1;
const BITSET: u8 = 2;
const PXOR: u8 = 3;

/// One posting's wire bytes; `len` is the *declared* body length.
fn posting_with_len(dim: u8, key: u64, card: u64, kind: u8, len: u64, body: &[u8]) -> Vec<u8> {
    let mut out = vec![dim];
    out.extend(varint(key));
    out.extend(varint(card));
    out.push(kind);
    out.extend(varint(len));
    out.extend_from_slice(body);
    out
}

fn posting(dim: u8, key: u64, card: u64, kind: u8, body: &[u8]) -> Vec<u8> {
    posting_with_len(dim, key, card, kind, body.len() as u64, body)
}

/// A frame section declaring `n` postings.
fn section(n: u64, postings: &[Vec<u8>]) -> Vec<u8> {
    let mut out = varint(n);
    out.extend(postings.concat());
    out
}

/// A v2 sidecar over frames of the given record counts, checksum valid,
/// so only structural validation stands between it and the caller.
fn sidecar(frames: &[u32], sections: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    for (i, records) in frames.iter().enumerate() {
        body.extend_from_slice(&(8 + 100 * i as u64).to_le_bytes());
        body.extend_from_slice(&records.to_le_bytes());
    }
    body.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    body.extend_from_slice(sections);
    let mut out = b"IGMX".to_vec();
    out.extend_from_slice(&INDEX_VERSION_V2.to_le_bytes());
    out.extend_from_slice(&(frames.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&checksum(&body).to_le_bytes());
    out
}

fn rejection(sidecar: &[u8]) -> &'static str {
    match TraceIndex::load(sidecar) {
        Err(TraceError::Corrupt { reason, .. }) => reason,
        Ok(_) => "(loaded)",
        Err(e) => panic!("unexpected error kind: {e:?}"),
    }
}

/// A bitset body over `records` records with the given bits set.
fn bitset(records: u32, bits: &[u32]) -> Vec<u8> {
    let mut body = vec![0u8; records.div_ceil(8) as usize];
    for b in bits {
        body[(b / 8) as usize] |= 1 << (b % 8);
    }
    body
}

/// A periodic-XOR body: the period, then the diff positions as gaps.
fn pxor(period: u64, diffs: &[u64]) -> Vec<u8> {
    let mut body = varint(period);
    let mut next_min = 0;
    for d in diffs {
        body.extend(varint(d - next_min));
        next_min = d + 1;
    }
    body
}

/// Every reason a posting section can be refused for, each reached by a
/// sidecar built by hand for it (frames of 100 records; checksums
/// valid). The reasons are part of the format's contract: the lake
/// reports them for skipped artifacts, and the word-kernel validation
/// must give the reason the element walk gave.
#[test]
fn every_posting_rejection_keeps_its_reason() {
    const R: u32 = 100;
    let one = |p: Vec<u8>| sidecar(&[R], &section(1, &[p]));
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        // Section structure.
        ("count varint cut short", sidecar(&[R], &[0x80]), "posting section truncated"),
        (
            "count past the section",
            sidecar(&[R], &varint(1000)),
            "posting count larger than section",
        ),
        (
            "second posting missing",
            sidecar(&[R], &section(2, &[posting(0, 1, 1, ARRAY, &[5])])),
            "posting section truncated",
        ),
        ("dimension 9", one(posting(9, 1, 1, ARRAY, &[5])), "unknown posting dimension"),
        ("key above u32", one(posting(0, 1 << 32, 1, ARRAY, &[5])), "posting key out of range"),
        ("cardinality zero", one(posting(0, 1, 0, ARRAY, &[])), "posting cardinality out of range"),
        (
            "cardinality above records",
            one(posting(0, 1, 101, ARRAY, &[5])),
            "posting cardinality out of range",
        ),
        ("container kind 4", one(posting(0, 1, 1, 4, &[5])), "unknown posting container kind"),
        (
            "body length wraps",
            one(posting_with_len(0, 1, 1, ARRAY, u64::MAX, &[5])),
            "posting body length overflow",
        ),
        (
            "body longer than the section",
            one(posting_with_len(0, 1, 1, ARRAY, 50, &[5, 5])),
            "posting body past section end",
        ),
        (
            "same key twice",
            sidecar(
                &[R],
                &section(2, &[posting(0, 1, 1, ARRAY, &[5]), posting(0, 1, 1, ARRAY, &[6])]),
            ),
            "postings not sorted by (dim, key)",
        ),
        // Varint containers: the element walk.
        ("array runs dry", one(posting(0, 1, 3, ARRAY, &[1, 1])), "malformed posting container"),
        (
            "array gap cut short",
            one(posting(0, 1, 1, ARRAY, &[0x80])),
            "malformed posting container",
        ),
        (
            "array index above u32",
            one(posting(0, 1, 1, ARRAY, &varint(1 << 32))),
            "malformed posting container",
        ),
        (
            "array index past frame",
            one(posting(0, 1, 1, ARRAY, &varint(100))),
            "posting index past frame records",
        ),
        (
            "array index u32::MAX",
            one(posting(0, 1, 1, ARRAY, &varint(u32::MAX as u64))),
            "posting index past frame records",
        ),
        ("runs cut short", one(posting(0, 1, 2, RUNS, &[5, 1])), "malformed posting container"),
        (
            "run walks past frame",
            one(posting(0, 1, 3, RUNS, &[98, 2, 0])),
            "posting index past frame records",
        ),
        (
            "run step wraps below its start",
            one(posting(0, 1, 2, RUNS, &[vec![5, 1], varint(u32::MAX as u64 - 3)].concat())),
            "posting indices not strictly ascending",
        ),
        // Bitset: popcounts.
        (
            "bitset short of bits",
            one(posting(0, 1, 3, BITSET, &bitset(R, &[4, 70]))),
            "malformed posting container",
        ),
        (
            "bitset bit past frame",
            one(posting(0, 1, 1, BITSET, &bitset(R, &[101]))),
            "posting index past frame records",
        ),
        (
            "bitset past-frame bit before it runs dry",
            one(posting(0, 1, 3, BITSET, &bitset(R, &[4, 102]))),
            "posting index past frame records",
        ),
        // Periodic-XOR: header, diff list, reconstructed popcount.
        (
            "pxor period zero",
            one(posting(0, 1, 1, PXOR, &pxor(0, &[3]))),
            "malformed posting container",
        ),
        (
            "pxor period not below records",
            one(posting(0, 1, 1, PXOR, &pxor(100, &[3]))),
            "malformed posting container",
        ),
        (
            "pxor period above 4096",
            sidecar(&[5000], &section(1, &[posting(0, 1, 1, PXOR, &pxor(4097, &[3]))])),
            "malformed posting container",
        ),
        (
            "pxor diff past frame",
            one(posting(0, 1, 10, PXOR, &pxor(10, &[3, 100]))),
            "malformed posting container",
        ),
        (
            "pxor gap cut short",
            one(posting(0, 1, 10, PXOR, &[10, 0x83])),
            "malformed posting container",
        ),
        (
            "pxor short of bits",
            one(posting(0, 1, 11, PXOR, &pxor(10, &[3]))),
            "malformed posting container",
        ),
        // Around the sections.
        ("frame of zero records", sidecar(&[0], &section(0, &[])), "index entry with zero records"),
        (
            "bytes after the last section",
            sidecar(&[R], &[section(0, &[]), vec![0]].concat()),
            "trailing bytes after last posting section",
        ),
    ];
    for (what, bytes, reason) in &cases {
        assert_eq!(rejection(bytes), *reason, "{what}");
    }
    // Envelope damage, by cutting and flipping a sound sidecar.
    let sound = one(posting(0, 1, 10, PXOR, &pxor(10, &[3])));
    assert_eq!(rejection(&sound[..sound.len() - 2]), "index sidecar truncated");
    assert_eq!(rejection(&sound[..30]), "index sidecar truncated");
    let mut bad = sound.clone();
    *bad.last_mut().unwrap() ^= 1;
    assert_eq!(rejection(&bad), "index sidecar checksum mismatch");
    bad = sound.clone();
    bad[0] = b'Z';
    assert_eq!(rejection(&bad), "not an igm trace index (bad magic)");

    // Control: sound hand-built containers of every kind load, and
    // iterate to the sets they were built from.
    let every_tenth: Vec<u32> = (0..10).map(|i| 3 + 10 * i).collect();
    let sections = section(
        4,
        &[
            posting(0, 1, 10, PXOR, &pxor(10, &[3])),
            posting(0, 2, 10, RUNS, &[3, 9, 9]),
            posting(0, 3, 10, BITSET, &bitset(R, &every_tenth)),
            posting(0, 4, 2, ARRAY, &[3, 9]),
        ],
    );
    let index = TraceIndex::load(&sidecar(&[R], &sections)[..]).unwrap();
    let postings = index.frame_postings()[0].postings();
    for p in &postings[..3] {
        assert_eq!(p.iter().map(|v| v.unwrap()).collect::<Vec<_>>(), every_tenth, "{}", p.key);
    }
    assert_eq!(postings[3].iter().map(|v| v.unwrap()).collect::<Vec<_>>(), vec![3, 13]);
}

/// Where the popcount validation is *stricter* than the element walk it
/// replaced: the walk stopped after `cardinality` elements and never
/// looked at the rest of a word-shaped body, so surplus bits and
/// off-length bitsets loaded. No writer produces them; they are refused
/// now, so a loaded bitmap always has exactly the declared bits.
#[test]
fn surplus_bits_and_off_length_bitsets_are_refused() {
    const R: u32 = 100;
    let one = |p: Vec<u8>| sidecar(&[R], &section(1, &[p]));
    for (what, bytes, reason) in [
        (
            "bitset with a second bit",
            one(posting(0, 1, 1, BITSET, &bitset(R, &[4, 70]))),
            "posting cardinality mismatch",
        ),
        (
            "bitset with a surplus bit past the frame",
            one(posting(0, 1, 1, BITSET, &bitset(R, &[4, 101]))),
            "posting index past frame records",
        ),
        (
            "bitset a byte short",
            one(posting(0, 1, 1, BITSET, &bitset(R, &[4])[..12])),
            "malformed posting container",
        ),
        (
            "bitset a byte long",
            one(posting(0, 1, 1, BITSET, &bitset(R + 8, &[4]))),
            "malformed posting container",
        ),
        (
            "pxor with more bits than declared",
            one(posting(0, 1, 9, PXOR, &pxor(10, &[3]))),
            "posting cardinality mismatch",
        ),
    ] {
        assert_eq!(rejection(&bytes), reason, "{what}");
    }
}

/// A directory-only index still writes the v1 format, and v1 sidecars
/// (whatever produced them) still load — read-compat for every sidecar
/// written before postings existed.
#[test]
fn v1_sidecars_still_load() {
    let (bytes, written) = encoded();
    let scanned = TraceIndex::scan(&bytes[..]).unwrap();
    let mut v1 = Vec::new();
    scanned.save(&mut v1).unwrap();
    assert_eq!(u32::from_le_bytes(v1[4..8].try_into().unwrap()), 1, "directory-only saves as v1");
    let loaded = TraceIndex::load(&v1[..]).unwrap();
    assert_eq!(loaded, scanned);
    assert!(!loaded.has_postings());
    assert_eq!(loaded.entries(), written.entries());
    // It still drives seeks exactly like the posting-bearing index.
    assert_eq!(loaded.frame_for_record(N / 2).unwrap(), written.frame_for_record(N / 2).unwrap());
}

/// The tentpole byte-identity property: an index built inline by the
/// writer and one rebuilt offline by the decoding scan serialize to the
/// exact same sidecar bytes, across workloads and chunk sizes.
#[test]
fn writer_and_scan_records_sidecars_are_byte_identical() {
    for bench in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Parser] {
        for (n, chunk) in [(1_500u64, 512u32), (9_000, 2_048), (4_096, 4_096)] {
            let mut w = TraceWriter::with_index(Vec::new()).unwrap();
            let mut chunker = igm_lba::chunks(bench.trace(n), chunk);
            let mut batch = TraceBatch::new();
            while chunker.next_into_batch(&mut batch) {
                w.write_chunk_batch(&batch).unwrap();
            }
            let written = w.index().unwrap().clone();
            let bytes = w.finish().unwrap();
            let rescanned = TraceIndex::scan_records(&bytes[..]).unwrap();
            assert_eq!(written, rescanned, "{bench:?} n={n} chunk={chunk}");
            let mut a = Vec::new();
            let mut b = Vec::new();
            written.save(&mut a).unwrap();
            rescanned.save(&mut b).unwrap();
            assert_eq!(a, b, "sidecar bytes diverge for {bench:?} n={n} chunk={chunk}");
        }
    }
}

#[test]
fn frame_lookup_finds_every_record() {
    let (_, index) = encoded();
    for record in [0, 1, N / 3, N / 2, N - 1] {
        let e = index.frame_for_record(record).unwrap();
        assert!(e.first_record <= record && record < e.first_record + e.records as u64);
    }
    assert!(index.frame_for_record(N).is_none());
}

#[test]
fn seeked_window_decodes_exactly_the_requested_records() {
    let (bytes, index) = encoded();
    let full = igm_trace::decode_from_slice(&bytes).unwrap();

    for (start, end) in [(0u64, 100u64), (N / 2 - 7, N / 2 + 1_311), (N - 259, N), (N - 1, N + 50)]
    {
        let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let entry = index.frame_for_record(start).unwrap();
        reader.seek_to_frame(entry).unwrap();
        // Decode frames from the seek point, trimming to the window.
        let mut got = Vec::new();
        let mut pos = entry.first_record;
        let mut batch = TraceBatch::new();
        let end_clamped = end.min(N);
        while pos < end_clamped && reader.read_chunk_into_batch(&mut batch).unwrap() {
            let n = batch.len() as u64;
            let skip = start.saturating_sub(pos).min(n) as usize;
            let take = (end_clamped - pos).min(n) as usize;
            got.extend(batch.iter().skip(skip).take(take.saturating_sub(skip)));
            pos += n;
        }
        assert_eq!(
            got,
            full[start as usize..end_clamped as usize],
            "window [{start}, {end}) diverges from the full decode"
        );
    }
}

#[test]
fn replay_window_matches_a_trimmed_local_run() {
    let (bytes, index) = encoded();
    let full = igm_trace::decode_from_slice(&bytes).unwrap();
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let cfg = SessionConfig::new("window", LifeguardKind::TaintCheck)
        .synthetic()
        .premark(&Benchmark::Gzip.profile().premark_regions());

    let (start, end) = (N / 3 + 5, 2 * N / 3 - 9);
    // Reference: stream exactly the window's records locally.
    let reference = {
        let session = pool.open_session(cfg.clone());
        session.stream(full[start as usize..end as usize].iter().copied()).unwrap();
        session.finish()
    };
    // Seeked replay of the same window straight off the artifact.
    let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
    let replayed = replay_window(&pool, cfg, &mut reader, &index, start..end).unwrap();

    assert_eq!(replayed.records, end - start);
    assert_eq!(replayed.records, reference.records);
    assert_eq!(replayed.violations, reference.violations);

    // An empty or out-of-range window is simply empty.
    let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
    let cfg2 = SessionConfig::new("empty", LifeguardKind::AddrCheck).synthetic();
    let empty = replay_window(&pool, cfg2, &mut reader, &index, N + 10..N + 20).unwrap();
    assert_eq!(empty.records, 0);
    pool.shutdown();
}

//! The two-level shadow memory (paper Figure 6, right).
//!
//! A level-1 table indexed by the high bits of the application address holds
//! pointers to lazily-allocated level-2 chunks of metadata elements. Every
//! structure has a stable *metadata virtual address* in the simulated
//! lifeguard address space so the timing model can replay lifeguard memory
//! traffic: the level-1 table lives at [`crate::LEVEL1_TABLE_BASE`] and
//! chunks are bump-allocated from [`crate::CHUNK_REGION_BASE`].
//!
//! # What the host stores
//!
//! The map keeps two things apart: what the *monitored system's* lifeguard
//! has allocated, and what the host needs to remember about it.
//!
//! * A chunk is **mapped** once anything translates or writes one of its
//!   addresses: it is given the next chunk address in lifeguard space.
//!   [`TwoLevelShadow::allocated_chunks`] and
//!   [`TwoLevelShadow::metadata_bytes`] count mapped chunks — the footprint
//!   the simulated lifeguard pays, whatever the host does.
//! * A chunk's content is either **uniform** — every byte equals one fill
//!   value, which is all the host keeps — or **backed** by a byte store.
//!   Every chunk starts uniform at the map's default byte (an untouched
//!   chunk is simply a uniform chunk that has not been mapped), a range
//!   operation that covers a whole chunk changes the fill in O(1), and a
//!   write gives a chunk its store only when it makes a byte differ from
//!   the fill. Filling a backed chunk whole drops the store again. (The
//!   idea is Memcheck's *distinguished secondary maps*: Nethercote & Seward,
//!   "How to Shadow Every Byte of Memory Used by a Program", VEE 2007.)
//!
//! So pre-marking a loader region of 96 MiB, cloning the map for an epoch
//! snapshot, or testing such a region cost time and memory in the number of
//! chunks, not of bytes, and host memory follows what the metadata
//! *distinguishes* rather than what has been touched.

use crate::layout::{ElemSize, ShadowLayout};
use crate::{CHUNK_REGION_BASE, LEVEL1_TABLE_BASE};

/// What the host keeps of a chunk's metadata bytes.
#[derive(Debug, Clone)]
enum Store {
    /// Every byte of the chunk equals this value.
    Uniform(u8),
    /// The chunk's bytes, [`ShadowLayout::chunk_bytes`] of them.
    Backed(Box<[u8]>),
}

#[derive(Debug, Clone)]
struct Chunk {
    /// Address in lifeguard space, assigned when the chunk is mapped.
    base_va: Option<u32>,
    store: Store,
}

impl Chunk {
    /// The chunk's bytes for writing; a uniform chunk is first given a
    /// store holding its fill.
    fn bytes_mut(&mut self, chunk_bytes: usize) -> &mut [u8] {
        if let Store::Uniform(fill) = self.store {
            self.store = Store::Backed(vec![fill; chunk_bytes].into_boxed_slice());
        }
        match &mut self.store {
            Store::Backed(data) => data,
            Store::Uniform(_) => unreachable!("store was just backed"),
        }
    }

    /// Overwrites the bytes at `off` with `pattern`. A uniform chunk that
    /// already reads as `pattern` there stays uniform.
    #[inline]
    fn write(&mut self, chunk_bytes: usize, off: usize, pattern: &[u8]) {
        if let Store::Uniform(fill) = self.store {
            if pattern.iter().all(|b| *b == fill) {
                return;
            }
        }
        self.bytes_mut(chunk_bytes)[off..off + pattern.len()].copy_from_slice(pattern);
    }

    /// Applies `b = (b & !clear) | set` to bit range `[bit0, bit1)` of the
    /// chunk's bytes (see [`apply_bits`]). Over the whole chunk a uniform
    /// chunk only changes its fill and a plain fill (`clear == 0xff`) drops
    /// a backed chunk's store; over part of it a uniform chunk is backed
    /// only if one of its bytes changes.
    fn update_bits(&mut self, chunk_bytes: usize, bit0: u64, bit1: u64, set: u8, clear: u8) {
        let whole = bit0 == 0 && bit1 == chunk_bytes as u64 * 8;
        match self.store {
            Store::Uniform(fill) => {
                let new = (fill & !clear) | set;
                if whole {
                    self.store = Store::Uniform(new);
                } else if (new ^ fill) & union_mask(bit0, bit1) != 0 {
                    apply_bits(self.bytes_mut(chunk_bytes), bit0, bit1, set, clear);
                }
            }
            Store::Backed(_) if whole && clear == 0xff => self.store = Store::Uniform(set),
            Store::Backed(ref mut data) => apply_bits(data, bit0, bit1, set, clear),
        }
    }
}

/// A two-level shadow map.
///
/// # Example
///
/// ```
/// use igm_shadow::{ShadowLayout, TwoLevelShadow};
/// use igm_shadow::layout::ElemSize;
///
/// // TaintCheck: 2 taint bits per application byte.
/// let mut shadow = TwoLevelShadow::new(ShadowLayout::taintcheck_fig7(), 0);
/// shadow.packed_set(0xb3fb_703a, 0b11);
/// assert_eq!(shadow.packed_get(0xb3fb_703a), 0b11);
/// assert_eq!(shadow.packed_get(0xb3fb_703b), 0b00); // neighbour untouched
/// ```
///
/// Marking a whole chunk's worth of application space maps the chunk for
/// the simulated lifeguard without storing a byte on the host:
///
/// ```
/// use igm_shadow::{ShadowLayout, TwoLevelShadow};
///
/// let layout = ShadowLayout::taintcheck_fig7(); // 64 KiB of application space per chunk
/// let mut shadow = TwoLevelShadow::new(layout, 0);
/// shadow.packed_set_range(0x4000_0000, 0x1_0000, 0b01);
/// assert_eq!(shadow.metadata_bytes(), layout.chunk_bytes() as u64);
/// assert!(!shadow.chunk_is_backed(0x4000_0000));
/// shadow.packed_set(0x4000_0010, 0b01); // rewrites what is there: still one value
/// assert!(!shadow.chunk_is_backed(0x4000_0000));
/// shadow.packed_set(0x4000_0010, 0b10); // now the bytes differ
/// assert!(shadow.chunk_is_backed(0x4000_0000));
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelShadow {
    layout: ShadowLayout,
    /// One entry per level-1 slot, each uniform at the map's default byte
    /// until written.
    chunks: Vec<Chunk>,
    /// How many of `chunks` are mapped.
    allocated: u32,
    next_chunk_va: u32,
}

impl TwoLevelShadow {
    /// Creates an empty shadow map; unwritten metadata reads as
    /// `default_byte` repeated.
    pub fn new(layout: ShadowLayout, default_byte: u8) -> TwoLevelShadow {
        let unmapped = Chunk { base_va: None, store: Store::Uniform(default_byte) };
        TwoLevelShadow {
            layout,
            chunks: vec![unmapped; layout.level1_entries() as usize],
            allocated: 0,
            next_chunk_va: CHUNK_REGION_BASE,
        }
    }

    /// The geometry of this map.
    pub fn layout(&self) -> &ShadowLayout {
        &self.layout
    }

    /// Metadata virtual address of the level-1 table slot consulted when
    /// software-translating `app_addr` (the memory reference charged to the
    /// two-level walk).
    pub fn l1_entry_va(&self, app_addr: u32) -> u32 {
        LEVEL1_TABLE_BASE + self.layout.l1_index(app_addr) * 4
    }

    /// Base metadata virtual address of the chunk covering `app_addr`,
    /// mapping the chunk on first touch. This is the value an M-TLB miss
    /// handler obtains from the level-1 table and inserts with `lma_fill`.
    pub fn chunk_base_va(&mut self, app_addr: u32) -> u32 {
        self.map_chunk(app_addr).base_va.expect("just mapped")
    }

    /// Base metadata virtual address of the chunk covering `app_addr`, or
    /// `None` if it has never been touched.
    pub fn chunk_base_va_if_present(&self, app_addr: u32) -> Option<u32> {
        self.chunks[self.layout.l1_index(app_addr) as usize].base_va
    }

    /// Whether the host holds a byte store for the chunk covering
    /// `app_addr` — that is, whether its metadata bytes have ever differed
    /// from one another since it was last filled whole.
    pub fn chunk_is_backed(&self, app_addr: u32) -> bool {
        matches!(self.store(app_addr), Store::Backed(_))
    }

    /// Metadata virtual address of the element covering `app_addr`
    /// (maps the chunk on first touch). Equals the result of the
    /// hardware `lma` instruction.
    pub fn elem_va(&mut self, app_addr: u32) -> u32 {
        self.chunk_base_va(app_addr) + self.layout.elem_offset_in_chunk(app_addr)
    }

    /// The chunk covering `app_addr`, given its lifeguard-space address if
    /// this is its first touch. Every write goes through here, whether or
    /// not it ends up changing a byte: the simulated lifeguard allocates on
    /// touch.
    #[inline]
    fn map_chunk(&mut self, app_addr: u32) -> &mut Chunk {
        let chunk = &mut self.chunks[self.layout.l1_index(app_addr) as usize];
        if chunk.base_va.is_none() {
            chunk.base_va = Some(self.next_chunk_va);
            // Chunks are laid out back-to-back in lifeguard space.
            self.next_chunk_va = self.next_chunk_va.wrapping_add(self.layout.chunk_bytes());
            self.allocated += 1;
        }
        chunk
    }

    /// What the chunk covering `app_addr` holds. Reads never map a chunk.
    #[inline]
    fn store(&self, app_addr: u32) -> &Store {
        &self.chunks[self.layout.l1_index(app_addr) as usize].store
    }

    /// Reads the element covering `app_addr` as a little-endian integer,
    /// zero-extended to 64 bits.
    pub fn elem_u64(&self, app_addr: u32) -> u64 {
        let size = self.layout.elem_size().bytes() as usize;
        let mut bytes = [0u8; 8];
        match self.store(app_addr) {
            Store::Backed(data) => {
                let off = self.layout.elem_offset_in_chunk(app_addr) as usize;
                bytes[..size].copy_from_slice(&data[off..off + size]);
            }
            Store::Uniform(fill) => bytes[..size].fill(*fill),
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes the element covering `app_addr` from a little-endian integer.
    pub fn set_elem_u64(&mut self, app_addr: u32, v: u64) {
        let size = self.layout.elem_size().bytes() as usize;
        self.write_elem(app_addr, &v.to_le_bytes()[..size]);
    }

    /// Reads the element covering `app_addr` as a `u32` (the record of
    /// 4-byte-element layouts, e.g. LockSet's; other element sizes read
    /// their low 32 bits). Four-byte elements are read directly — one
    /// translation, one load — with no byte-assembly loop.
    #[inline]
    pub fn elem_u32(&self, app_addr: u32) -> u32 {
        if self.layout.elem_size() != ElemSize::B4 {
            return self.elem_u64(app_addr) as u32;
        }
        match self.store(app_addr) {
            Store::Backed(data) => {
                let off = self.layout.elem_offset_in_chunk(app_addr) as usize;
                u32::from_le_bytes(data[off..off + 4].try_into().expect("4-byte element"))
            }
            Store::Uniform(fill) => u32::from_le_bytes([*fill; 4]),
        }
    }

    /// Writes the element covering `app_addr` from a `u32` (directly, for
    /// 4-byte elements).
    #[inline]
    pub fn set_elem_u32(&mut self, app_addr: u32, v: u32) {
        if self.layout.elem_size() != ElemSize::B4 {
            return self.set_elem_u64(app_addr, v as u64);
        }
        self.write_elem(app_addr, &v.to_le_bytes());
    }

    /// Maps the chunk covering `app_addr` and writes `pattern` over its
    /// element.
    #[inline]
    fn write_elem(&mut self, app_addr: u32, pattern: &[u8]) {
        let off = self.layout.elem_offset_in_chunk(app_addr) as usize;
        let chunk_bytes = self.layout.chunk_bytes() as usize;
        self.map_chunk(app_addr).write(chunk_bytes, off, pattern);
    }

    /// Writes `v` (little-endian, element-sized) to every element that
    /// covers an application byte of `[start, start+len)`: the
    /// [`set_elem_u64`](Self::set_elem_u64) loop as one fill per chunk.
    /// Like that loop it maps every chunk it reaches; a chunk covered whole
    /// by a `v` of equal bytes becomes uniform at that byte.
    pub fn set_elem_range(&mut self, start: u32, len: u32, v: u64) {
        if len == 0 {
            return;
        }
        let off_bits = self.layout.offset_bits() as u32;
        if start.checked_add(len - 1).is_none() {
            // Wrap-around keeps the per-element loop and its modular
            // addressing.
            let first = (start >> off_bits) as u64;
            let last = (start as u64 + len as u64 - 1) >> off_bits;
            for e in first..=last {
                self.set_elem_u64((e << off_bits) as u32, v);
            }
            return;
        }
        let size = self.layout.elem_size().bytes() as usize;
        let chunk_bytes = self.layout.chunk_bytes() as usize;
        let pattern = v.to_le_bytes();
        let pattern = &pattern[..size];
        let uniform = pattern.iter().all(|b| *b == pattern[0]);
        for (a, n) in segments(self.layout, start, len) {
            let first = self.layout.elem_offset_in_chunk(a) as usize;
            let last = self.layout.elem_offset_in_chunk(a + (n - 1) as u32) as usize;
            let chunk = self.map_chunk(a);
            if uniform {
                chunk.update_bits(
                    chunk_bytes,
                    first as u64 * 8,
                    (last + size) as u64 * 8,
                    pattern[0],
                    0xff,
                );
            } else {
                for e in chunk.bytes_mut(chunk_bytes)[first..last + size].chunks_exact_mut(size) {
                    e.copy_from_slice(pattern);
                }
            }
        }
    }

    fn packed_geometry(&self, app_addr: u32) -> (u32, u32, u8) {
        let bits = self.layout.bits_per_app_byte();
        debug_assert!(
            matches!(bits, 1 | 2 | 4 | 8),
            "packed accessors require 1/2/4/8 metadata bits per application byte"
        );
        let bit_off = self.layout.offset_in_elem(app_addr) * bits;
        let byte = bit_off / 8;
        let shift = bit_off % 8;
        let mask = ((1u16 << bits) - 1) as u8;
        (byte, shift, mask)
    }

    /// Reads the per-application-byte packed metadata value for `app_addr`
    /// (layouts with 1, 2, 4 or 8 metadata bits per application byte).
    pub fn packed_get(&self, app_addr: u32) -> u8 {
        let (byte, shift, mask) = self.packed_geometry(app_addr);
        let elem_byte = match self.store(app_addr) {
            Store::Backed(data) => {
                data[(self.layout.elem_offset_in_chunk(app_addr) + byte) as usize]
            }
            Store::Uniform(fill) => *fill,
        };
        (elem_byte >> shift) & mask
    }

    /// Writes the per-application-byte packed metadata value for `app_addr`.
    pub fn packed_set(&mut self, app_addr: u32, v: u8) {
        let bits = self.layout.bits_per_app_byte();
        debug_assert!(matches!(bits, 1 | 2 | 4 | 8));
        let (bit0, bit1) = self.bit_range(app_addr, 1);
        let chunk_bytes = self.layout.chunk_bytes() as usize;
        self.map_chunk(app_addr).update_bits(chunk_bytes, bit0, bit1, fill_byte(v, bits), 0xff);
    }

    /// Reads the packed metadata of the `n` application bytes at `app_addr`
    /// (`n` in `1..=4`: one memory reference) at once: field `i` of the
    /// result — `bits_per_app_byte` wide, at bit `i * bits_per_app_byte` —
    /// is `packed_get(app_addr + i)`. A reference inside one chunk costs one
    /// translation and one window load; one that straddles chunks (or wraps
    /// the address space) is assembled per byte. Never maps a chunk.
    #[inline]
    pub fn packed_load(&self, app_addr: u32, n: u32) -> u32 {
        let bits = self.layout.bits_per_app_byte();
        debug_assert!(matches!(bits, 1 | 2 | 4 | 8) && (1..=4).contains(&n));
        let Some((byte, shift)) = self.window(app_addr, n) else {
            return (0..n).fold(0, |w, i| {
                w | (self.packed_get(app_addr.wrapping_add(i)) as u32) << (i * bits)
            });
        };
        let window = match self.store(app_addr) {
            Store::Backed(data) => load_window(data, byte),
            Store::Uniform(fill) => u32::from_le_bytes([*fill; 4]),
        };
        (window >> shift) & low_mask32(n * bits)
    }

    /// Applies `meta = (meta & !clear) | set` to the packed metadata of the
    /// `n` application bytes at `app_addr` (`n` in `1..=4`), with `set` and
    /// `clear` laid out like [`packed_load`](Self::packed_load)'s result.
    /// A byte whose field is zero in both masks is not written, and a chunk
    /// none of whose bytes are written is not mapped — so a caller that
    /// passes only the fields that change maps exactly what a
    /// compare-then-`packed_set` loop would. (Whether a mapped chunk is also
    /// *backed* depends on values alone: rewriting a uniform chunk with what
    /// it already holds leaves it uniform.)
    #[inline]
    pub fn packed_update(&mut self, app_addr: u32, n: u32, set: u32, clear: u32) {
        let bits = self.layout.bits_per_app_byte();
        debug_assert!(matches!(bits, 1 | 2 | 4 | 8) && (1..=4).contains(&n));
        debug_assert_eq!((set | clear) & !low_mask32(n * bits), 0, "mask beyond the reference");
        let Some((byte, shift)) = self.window(app_addr, n) else {
            let field = low_mask32(bits);
            for i in 0..n {
                let (s, c) = ((set >> (i * bits)) & field, (clear >> (i * bits)) & field);
                if s | c != 0 {
                    let a = app_addr.wrapping_add(i);
                    let old = self.packed_get(a);
                    self.packed_set(a, (old & !(c as u8)) | s as u8);
                }
            }
            return;
        };
        if set | clear == 0 {
            return;
        }
        let (set, clear) = (set << shift, clear << shift);
        let chunk_bytes = self.layout.chunk_bytes() as usize;
        let chunk = self.map_chunk(app_addr);
        if let Store::Uniform(fill) = chunk.store {
            // The written fields lie inside the chunk, so comparing whole
            // windows compares exactly the chunk bytes the update reaches.
            let window = u32::from_le_bytes([fill; 4]);
            if (window & !clear) | set == window {
                return;
            }
        }
        let data = chunk.bytes_mut(chunk_bytes);
        let window = load_window(data, byte);
        store_window(data, byte, (window & !clear) | set);
    }

    /// Where the packed fields of the `n` application bytes at `app_addr`
    /// sit in their chunk — byte offset of a 32-bit window and the first
    /// field's shift within it — or `None` when the reference leaves the
    /// chunk. Field widths divide 8, so `shift + n * bits <= 32`.
    #[inline]
    fn window(&self, app_addr: u32, n: u32) -> Option<(usize, u32)> {
        let span = self.layout.chunk_app_span();
        let off = app_addr as u64 & (span - 1);
        if off + n as u64 > span {
            return None;
        }
        let bit = off * self.layout.bits_per_app_byte() as u64;
        Some(((bit / 8) as usize, (bit % 8) as u32))
    }

    /// Whether the packed fast paths apply: a bit-packed layout and a range
    /// that does not wrap the 32-bit application space (wrap-around keeps
    /// the per-byte loop so its modular semantics are preserved).
    fn packed_range_fast(&self, start: u32, len: u32) -> bool {
        matches!(self.layout.bits_per_app_byte(), 1 | 2 | 4 | 8)
            && start.checked_add(len - 1).is_some()
    }

    /// The bit range, within its chunk's packed bitstring, of the `n`
    /// application bytes at `a` (one [`segments`] item): the app byte at
    /// chunk-relative offset `o` owns bits `[o*bits, (o+1)*bits)`.
    fn bit_range(&self, a: u32, n: u64) -> (u64, u64) {
        let bits = self.layout.bits_per_app_byte() as u64;
        let bit0 = (a as u64 & (self.layout.chunk_app_span() - 1)) * bits;
        (bit0, bit0 + n * bits)
    }

    /// Sets the packed metadata of every application byte in
    /// `[start, start+len)` to `v`.
    pub fn packed_set_range(&mut self, start: u32, len: u32, v: u8) {
        self.packed_update_range(start, len, v, 0xff);
    }

    /// Applies `meta = (meta & !clear) | set` to the packed metadata of
    /// every application byte in `[start, start+len)`. `set` and `clear`
    /// are packed-value masks (only the low `bits_per_app_byte` bits are
    /// used); bits in `set` are always written, so `packed_set_range` is
    /// the `clear = full mask` special case. Every chunk the range reaches
    /// is mapped; one it covers whole is updated in O(1) while uniform.
    pub fn packed_update_range(&mut self, start: u32, len: u32, set: u8, clear: u8) {
        if len == 0 {
            return;
        }
        let bits = self.layout.bits_per_app_byte();
        if !self.packed_range_fast(start, len) {
            let mask = low_mask(bits.min(8));
            for i in 0..len {
                let a = start.wrapping_add(i);
                let old = self.packed_get(a);
                self.packed_set(a, (old & !clear & mask) | (set & mask));
            }
            return;
        }
        // The packed metadata of a chunk is one contiguous bitstring, so a
        // range is a head partial byte, a run of fill bytes, and a tail
        // partial byte.
        let set_fill = fill_byte(set, bits);
        let clear_fill = fill_byte(clear, bits) | set_fill;
        let chunk_bytes = self.layout.chunk_bytes() as usize;
        for (a, n) in segments(self.layout, start, len) {
            let (bit0, bit1) = self.bit_range(a, n);
            self.map_chunk(a).update_bits(chunk_bytes, bit0, bit1, set_fill, clear_fill);
        }
    }

    /// Sets the packed metadata of every application byte in
    /// `[start, start+len)` to `v` and returns how many of them changed —
    /// the `if packed_get(a) != v { packed_set(a, v) }` loop, word-wise. A
    /// chunk in which nothing changes is not written, so not mapped.
    pub fn packed_set_range_changed(&mut self, start: u32, len: u32, v: u8) -> u64 {
        if len == 0 {
            return 0;
        }
        let bits = self.layout.bits_per_app_byte();
        if !self.packed_range_fast(start, len) {
            let v = v & low_mask(bits.min(8));
            let mut changed = 0;
            for i in 0..len {
                let a = start.wrapping_add(i);
                if self.packed_get(a) != v {
                    self.packed_set(a, v);
                    changed += 1;
                }
            }
            return changed;
        }
        let fill = fill_byte(v, bits);
        let chunk_bytes = self.layout.chunk_bytes() as usize;
        let mut changed = 0;
        for (a, n) in segments(self.layout, start, len) {
            let differing = self.count_ne(a, n, fill);
            if differing != 0 {
                let (bit0, bit1) = self.bit_range(a, n);
                self.map_chunk(a).update_bits(chunk_bytes, bit0, bit1, fill, 0xff);
                changed += differing;
            }
        }
        changed
    }

    /// How many application bytes in `[start, start+len)` have packed
    /// metadata different from `v` (a popcount over 64-bit words; a
    /// multiplication for a uniform chunk).
    pub fn packed_count_ne(&self, start: u32, len: u32, v: u8) -> u64 {
        if len == 0 {
            return 0;
        }
        let bits = self.layout.bits_per_app_byte();
        if !self.packed_range_fast(start, len) {
            let v = v & low_mask(bits.min(8));
            return (0..len).filter(|i| self.packed_get(start.wrapping_add(*i)) != v).count()
                as u64;
        }
        let fill = fill_byte(v, bits);
        segments(self.layout, start, len).map(|(a, n)| self.count_ne(a, n, fill)).sum()
    }

    /// How many of the `n` application bytes at `a` (one [`segments`] item)
    /// have a field different from the one repeated in `want`.
    fn count_ne(&self, a: u32, n: u64, want: u8) -> u64 {
        let (bit0, bit1) = self.bit_range(a, n);
        count_ne_bits(self.store(a), bit0, bit1, want, self.layout.bits_per_app_byte())
    }

    /// Whether every application byte in `[start, start+len)` has packed
    /// metadata equal to `v`.
    pub fn packed_all(&self, start: u32, len: u32, v: u8) -> bool {
        if len == 0 {
            return true;
        }
        if !self.packed_range_fast(start, len) {
            return (0..len).all(|i| self.packed_get(start.wrapping_add(i)) == v);
        }
        let bits = self.layout.bits_per_app_byte();
        self.packed_check(start, len, fill_byte(v, bits), 0xff)
    }

    /// Whether every application byte in `[start, start+len)` has all the
    /// bits of `bit` set in its packed metadata (a bit-test, not an
    /// equality: `meta & bit == bit` per application byte).
    pub fn packed_test_all(&self, start: u32, len: u32, bit: u8) -> bool {
        if len == 0 || bit == 0 {
            return true;
        }
        let bits = self.layout.bits_per_app_byte();
        if !self.packed_range_fast(start, len) {
            return (0..len).all(|i| self.packed_get(start.wrapping_add(i)) & bit == bit);
        }
        self.packed_check(start, len, 0xff, fill_byte(bit, bits))
    }

    /// Shared masked-compare walk: every application byte in the range must
    /// satisfy `(meta_byte ^ want) & field == 0` on its packed bits.
    fn packed_check(&self, start: u32, len: u32, want: u8, field: u8) -> bool {
        segments(self.layout, start, len).all(|(a, n)| {
            let (bit0, bit1) = self.bit_range(a, n);
            match self.store(a) {
                Store::Backed(data) => check_bits(data, bit0, bit1, want, field),
                // Every byte is the fill, so one masked compare against the
                // union of the in-byte bit positions the range uses decides
                // the whole segment.
                Store::Uniform(fill) => (fill ^ want) & field & union_mask(bit0, bit1) == 0,
            }
        })
    }

    /// Whether any application byte in `[start, start+len)` has packed
    /// metadata equal to `v`.
    pub fn packed_any(&self, start: u32, len: u32, v: u8) -> bool {
        if len == 0 {
            return false;
        }
        if !self.packed_range_fast(start, len) {
            return (0..len).any(|i| self.packed_get(start.wrapping_add(i)) == v);
        }
        let fill = fill_byte(v, self.layout.bits_per_app_byte());
        segments(self.layout, start, len).any(|(a, n)| self.count_ne(a, n, fill) < n)
    }

    /// Number of level-2 chunks the simulated lifeguard has allocated: the
    /// mapped ones, however the host stores them.
    pub fn allocated_chunks(&self) -> u32 {
        self.allocated
    }

    /// Total metadata bytes the simulated lifeguard has allocated (chunks
    /// only; the level-1 table adds `4 * level1_entries()` bytes). Host
    /// memory is at most this: uniform chunks store nothing.
    pub fn metadata_bytes(&self) -> u64 {
        self.allocated_chunks() as u64 * self.layout.chunk_bytes() as u64
    }
}

/// Cuts the non-wrapping application range `[start, start+len)` at chunk
/// boundaries: each item is the first address and the byte count of the
/// part inside one chunk.
fn segments(layout: ShadowLayout, start: u32, len: u32) -> impl Iterator<Item = (u32, u64)> {
    let span = layout.chunk_app_span();
    let end = start as u64 + len as u64;
    let mut a = start as u64;
    std::iter::from_fn(move || {
        if a >= end {
            return None;
        }
        let seg_end = ((a & !(span - 1)) + span).min(end);
        let seg = (a as u32, seg_end - a);
        a = seg_end;
        Some(seg)
    })
}

/// Repeats a `bits`-wide packed value across a full metadata byte.
fn fill_byte(v: u8, bits: u32) -> u8 {
    let mask = ((1u16 << bits) - 1) as u8;
    let mut fill = 0u8;
    let mut s = 0;
    while s < 8 {
        fill |= (v & mask) << s;
        s += bits;
    }
    fill
}

/// `(1 << n) - 1` for `n` in `0..=8`.
#[inline]
fn low_mask(n: u32) -> u8 {
    ((1u16 << n) - 1) as u8
}

/// `(1 << n) - 1` for `n` in `0..=32`.
#[inline]
fn low_mask32(n: u32) -> u32 {
    ((1u64 << n) - 1) as u32
}

/// The (up to) four bytes of `data` from `byte` on, little-endian; fewer
/// at the very end of a chunk.
#[inline]
fn load_window(data: &[u8], byte: usize) -> u32 {
    match data.get(byte..byte + 4) {
        Some(w) => u32::from_le_bytes(w.try_into().expect("4-byte window")),
        None => data[byte..].iter().rev().fold(0, |w, b| w << 8 | *b as u32),
    }
}

/// Writes back what [`load_window`] read.
#[inline]
fn store_window(data: &mut [u8], byte: usize, window: u32) {
    match data.get_mut(byte..byte + 4) {
        Some(w) => w.copy_from_slice(&window.to_le_bytes()),
        None => {
            for (i, b) in data[byte..].iter_mut().enumerate() {
                *b = (window >> (8 * i)) as u8;
            }
        }
    }
}

/// Writes `b = (b & !clear) | set` to bit range `[bit0, bit1)` of `data`,
/// where `set`/`clear` are full-byte fill patterns and the range endpoints
/// are multiples of the packed field width (so field boundaries never
/// straddle the head/tail masks).
fn apply_bits(data: &mut [u8], bit0: u64, bit1: u64, set: u8, clear: u8) {
    let mut byte0 = (bit0 / 8) as usize;
    let byte1 = (bit1 / 8) as usize;
    let head_shift = (bit0 % 8) as u32;
    let tail_bits = (bit1 % 8) as u32;
    if byte0 == byte1 {
        let m = low_mask(tail_bits - head_shift) << head_shift;
        data[byte0] = (data[byte0] & !(clear & m)) | (set & m);
        return;
    }
    if head_shift != 0 {
        let m = 0xffu8 << head_shift;
        data[byte0] = (data[byte0] & !(clear & m)) | (set & m);
        byte0 += 1;
    }
    if clear == 0xff {
        data[byte0..byte1].fill(set);
    } else {
        for b in &mut data[byte0..byte1] {
            *b = (*b & !clear) | set;
        }
    }
    if tail_bits != 0 {
        let m = low_mask(tail_bits);
        data[byte1] = (data[byte1] & !(clear & m)) | (set & m);
    }
}

/// Whether every byte of bit range `[bit0, bit1)` satisfies
/// `(b ^ want) & field == 0` on the range's bits.
fn check_bits(data: &[u8], bit0: u64, bit1: u64, want: u8, field: u8) -> bool {
    let mut byte0 = (bit0 / 8) as usize;
    let byte1 = (bit1 / 8) as usize;
    let head_shift = (bit0 % 8) as u32;
    let tail_bits = (bit1 % 8) as u32;
    if byte0 == byte1 {
        let m = low_mask(tail_bits - head_shift) << head_shift;
        return (data[byte0] ^ want) & field & m == 0;
    }
    if head_shift != 0 {
        if (data[byte0] ^ want) & field & (0xffu8 << head_shift) != 0 {
            return false;
        }
        byte0 += 1;
    }
    let mid_ok = if field == 0xff {
        data[byte0..byte1].iter().all(|&b| b == want)
    } else {
        data[byte0..byte1].iter().all(|&b| (b ^ want) & field == 0)
    };
    if !mid_ok {
        return false;
    }
    tail_bits == 0 || (data[byte1] ^ want) & field & low_mask(tail_bits) == 0
}

/// Union of the in-byte bit positions used by bit range `[bit0, bit1)`.
fn union_mask(bit0: u64, bit1: u64) -> u8 {
    let mut byte0 = (bit0 / 8) as usize;
    let byte1 = (bit1 / 8) as usize;
    let head_shift = (bit0 % 8) as u32;
    let tail_bits = (bit1 % 8) as u32;
    if byte0 == byte1 {
        return low_mask(tail_bits - head_shift) << head_shift;
    }
    let mut m = 0u8;
    if head_shift != 0 {
        m |= 0xffu8 << head_shift;
        byte0 += 1;
    }
    if byte1 > byte0 {
        m |= 0xff;
    }
    if tail_bits != 0 {
        m |= low_mask(tail_bits);
    }
    m
}

/// Given `x = data ^ want`, a word with the low bit of every `bits`-wide
/// field that is non-zero in `x` set: folding a field's bits down onto its
/// low bit only ever pulls from inside the field.
#[inline]
fn ne_fields(x: u64, bits: u32) -> u64 {
    let mut y = x;
    let mut s = 1;
    while s < bits {
        y |= y >> s;
        s <<= 1;
    }
    // The low bit of every field: 0xff…, 0x55…, 0x11…, 0x01… .
    y & (u64::MAX / ((1u64 << bits) - 1))
}

/// Number of `bits`-wide fields in bit range `[bit0, bit1)` of a chunk that
/// differ from the field repeated in `want`: eight metadata bytes per
/// popcount over a backed chunk, one multiplication over a uniform one.
fn count_ne_bits(store: &Store, bit0: u64, bit1: u64, want: u8, bits: u32) -> u64 {
    let ne = |b: u8| ne_fields((b ^ want) as u64, bits);
    let byte = |i: usize| match store {
        Store::Backed(data) => data[i],
        Store::Uniform(fill) => *fill,
    };
    let masked = |i: usize, m: u8| (ne(byte(i)) as u8 & m).count_ones();
    let mut byte0 = (bit0 / 8) as usize;
    let byte1 = (bit1 / 8) as usize;
    let head_shift = (bit0 % 8) as u32;
    let tail_bits = (bit1 % 8) as u32;
    if byte0 == byte1 {
        return masked(byte0, low_mask(tail_bits - head_shift) << head_shift) as u64;
    }
    let mut count = 0u64;
    if head_shift != 0 {
        count += masked(byte0, 0xffu8 << head_shift) as u64;
        byte0 += 1;
    }
    count += match store {
        Store::Backed(data) => {
            let want_word = u64::from_le_bytes([want; 8]);
            let words = data[byte0..byte1].chunks_exact(8);
            let rest: u32 = words.remainder().iter().map(|b| ne(*b).count_ones()).sum();
            let whole: u64 = words
                .map(|w| {
                    let w = u64::from_le_bytes(w.try_into().expect("8-byte word"));
                    ne_fields(w ^ want_word, bits).count_ones() as u64
                })
                .sum();
            whole + rest as u64
        }
        Store::Uniform(fill) => (byte1 - byte0) as u64 * ne(*fill).count_ones() as u64,
    };
    if tail_bits != 0 {
        count += masked(byte1, low_mask(tail_bits)) as u64;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ElemSize;

    fn taint_shadow() -> TwoLevelShadow {
        TwoLevelShadow::new(ShadowLayout::taintcheck_fig7(), 0)
    }

    #[test]
    fn packed_round_trip_neighbouring_bytes() {
        let mut s = taint_shadow();
        // Four app bytes share one element byte (2 bits each).
        for i in 0..4u32 {
            s.packed_set(0x1000_0000 + i, (i as u8) & 0b11);
        }
        for i in 0..4u32 {
            assert_eq!(s.packed_get(0x1000_0000 + i), (i as u8) & 0b11);
        }
        // They all landed in a single element byte.
        assert_eq!(s.elem_u64(0x1000_0000), 0b11_10_01_00);
    }

    #[test]
    fn default_byte_visible_before_allocation() {
        let s = TwoLevelShadow::new(ShadowLayout::taintcheck_fig7(), 0xff);
        assert_eq!(s.packed_get(0xdead_beef), 0b11);
        assert_eq!(s.allocated_chunks(), 0);
        assert_eq!(s.elem_u64(0xdead_beef), 0xff);
    }

    #[test]
    fn chunk_allocation_is_lazy_and_stable() {
        let mut s = taint_shadow();
        assert_eq!(s.allocated_chunks(), 0);
        let va1 = s.elem_va(0x0804_8000);
        assert_eq!(s.allocated_chunks(), 1);
        let va2 = s.elem_va(0x0804_8004);
        assert_eq!(va2, va1 + 1); // next word's element is the next byte
        let va3 = s.elem_va(0xbfff_0000); // far away -> second chunk
        assert_eq!(s.allocated_chunks(), 2);
        assert_ne!(s.layout().l1_index(0x0804_8000), s.layout().l1_index(0xbfff_0000));
        // Re-translation is stable.
        assert_eq!(s.elem_va(0x0804_8000), va1);
        assert_eq!(s.elem_va(0xbfff_0000), va3);
    }

    #[test]
    fn l1_entry_va_is_table_slot() {
        let s = taint_shadow();
        let addr = 0xb3fb_703a;
        assert_eq!(s.l1_entry_va(addr), crate::LEVEL1_TABLE_BASE + 0xb3fb * 4);
    }

    #[test]
    fn elem_va_matches_fig9_arithmetic() {
        let mut s = taint_shadow();
        let addr = 0xb3fb_703a;
        let chunk = s.chunk_base_va(addr);
        assert_eq!(s.elem_va(addr), chunk + 0x1c0e);
    }

    #[test]
    fn range_helpers() {
        let mut s = taint_shadow();
        s.packed_set_range(0x9000, 16, 0b01);
        assert!(s.packed_all(0x9000, 16, 0b01));
        assert!(!s.packed_all(0x8fff, 17, 0b01));
        assert!(s.packed_any(0x8ff0, 17, 0b01));
        assert!(!s.packed_any(0x8ff0, 16, 0b01));
    }

    #[test]
    fn u32_element_round_trip() {
        // LockSet-style: 4-byte records per 4-byte word.
        let layout = ShadowLayout::for_coverage(16, 4, ElemSize::B4).unwrap();
        let mut s = TwoLevelShadow::new(layout, 0);
        s.set_elem_u32(0x9004, 0xdead_beef);
        assert_eq!(s.elem_u32(0x9004), 0xdead_beef);
        assert_eq!(s.elem_u32(0x9005), 0xdead_beef); // same word
        assert_eq!(s.elem_u32(0x9008), 0); // next word
    }

    #[test]
    fn u64_element_round_trip() {
        // Detailed-TaintCheck-style: 8-byte records per 4-byte word.
        let layout = ShadowLayout::for_coverage(16, 4, ElemSize::B8).unwrap();
        let mut s = TwoLevelShadow::new(layout, 0);
        s.set_elem_u64(0x9000, 0x1122_3344_5566_7788);
        assert_eq!(s.elem_u64(0x9000), 0x1122_3344_5566_7788);
        assert_eq!(s.elem_u32(0x9000), 0x5566_7788); // little-endian: the low half
    }

    #[test]
    fn one_bit_per_byte_layout() {
        // AddrCheck: 1 bit per app byte, 8 app bytes per element byte.
        let layout = ShadowLayout::for_coverage(16, 8, ElemSize::B1).unwrap();
        let mut s = TwoLevelShadow::new(layout, 0);
        s.packed_set(0x9003, 1);
        assert_eq!(s.packed_get(0x9003), 1);
        assert_eq!(s.packed_get(0x9002), 0);
        assert_eq!(s.packed_get(0x9004), 0);
        assert_eq!(s.elem_u64(0x9000), 0b0000_1000);
    }

    /// Reference implementations: the per-byte loops the fast range ops
    /// replaced.
    fn slow_all(s: &TwoLevelShadow, start: u32, len: u32, v: u8) -> bool {
        (0..len).all(|i| s.packed_get(start.wrapping_add(i)) == v)
    }
    fn slow_test_all(s: &TwoLevelShadow, start: u32, len: u32, bit: u8) -> bool {
        (0..len).all(|i| s.packed_get(start.wrapping_add(i)) & bit == bit)
    }

    #[test]
    fn fast_range_ops_match_per_byte_loops() {
        // Small-span layouts (64 KiB of app space per chunk) so the slow
        // reference loops stay cheap: 1-bit and 2-bit packed fields.
        for app_bytes_per_elem in [8u32, 4] {
            let layout = ShadowLayout::for_coverage(16, app_bytes_per_elem, ElemSize::B1).unwrap();
            let mask = ((1u16 << layout.bits_per_app_byte()) - 1) as u8;
            let mut fast = TwoLevelShadow::new(layout, 0);
            let mut slow = TwoLevelShadow::new(layout, 0);
            // A messy pile of ranges: chunk-crossing, sub-byte, byte-aligned.
            let span = layout.chunk_app_span() as u32;
            let ranges = [
                (0x9000u32, 3u32),
                (0x9001, 7),
                (0x9000, 64),
                (span - 5, 11),    // crosses the first chunk boundary
                (2 * span - 3, 7), // crosses the second
                (0x9003, 1),
            ];
            for (i, &(start, len)) in ranges.iter().enumerate() {
                let v = (i as u8 + 1) & mask;
                fast.packed_set_range(start, len, v);
                for j in 0..len {
                    slow.packed_set(start.wrapping_add(j), v);
                }
                for &(qs, ql) in &ranges {
                    for q in 0..=mask {
                        assert_eq!(
                            fast.packed_all(qs, ql, q),
                            slow_all(&slow, qs, ql, q),
                            "packed_all({qs:#x}, {ql}, {q}) diverged"
                        );
                        assert_eq!(
                            fast.packed_test_all(qs, ql, q),
                            slow_test_all(&slow, qs, ql, q),
                            "packed_test_all({qs:#x}, {ql}, {q}) diverged"
                        );
                    }
                }
            }
            // Byte-for-byte identical shadow state.
            for &(start, len) in &ranges {
                for j in 0..len {
                    let a = start.wrapping_add(j);
                    assert_eq!(fast.packed_get(a), slow.packed_get(a));
                }
            }
            // A range covering several whole chunks: interior fully set,
            // both exclusive boundaries untouched.
            let (base, big) = (span / 2 + 1, 3 * span + 13);
            fast.packed_set_range(base, big, 1);
            assert!(fast.packed_all(base, big, 1));
            assert_eq!(fast.packed_get(base.wrapping_sub(1)), 0);
            assert_eq!(fast.packed_get(base + big), 0);
        }
    }

    #[test]
    fn packed_update_range_sets_and_clears_fields() {
        // MemCheck-style 2-bit fields: bit0 = allocated, bit1 = uninit.
        let layout = ShadowLayout::for_coverage(12, 4, ElemSize::B1).unwrap();
        let mut s = TwoLevelShadow::new(layout, 0);
        s.packed_update_range(0x9000, 40, 0b01, 0b10); // allocate, mark init-clear
        assert!(s.packed_all(0x9000, 40, 0b01));
        s.packed_update_range(0x9008, 8, 0b10, 0); // taint the middle as uninit
        assert!(s.packed_all(0x9008, 8, 0b11));
        assert!(s.packed_all(0x9000, 8, 0b01), "head untouched");
        assert!(s.packed_all(0x9010, 24, 0b01), "tail untouched");
        s.packed_update_range(0x9000, 40, 0, 0b11); // free everything
        assert!(s.packed_all(0x9000, 40, 0));
    }

    #[test]
    fn fast_ranges_against_absent_chunks_honor_default() {
        let layout = ShadowLayout::for_coverage(12, 8, ElemSize::B1).unwrap();
        let s = TwoLevelShadow::new(layout, 0xff);
        assert!(s.packed_all(0x5000_0000, 4096, 1));
        assert!(s.packed_test_all(0x5000_0000, 4096, 1));
        assert!(!s.packed_all(0x5000_0000, 4096, 0));
        let z = TwoLevelShadow::new(layout, 0);
        assert!(!z.packed_test_all(0x5000_0000, 3, 1));
        assert_eq!(z.allocated_chunks(), 0, "checks never allocate");
    }

    #[test]
    fn wrapping_ranges_fall_back_to_modular_semantics() {
        let layout = ShadowLayout::for_coverage(12, 8, ElemSize::B1).unwrap();
        let mut s = TwoLevelShadow::new(layout, 0);
        // A range wrapping past u32::MAX touches both address-space ends.
        s.packed_set_range(u32::MAX - 2, 6, 1);
        assert_eq!(s.packed_get(u32::MAX), 1);
        assert_eq!(s.packed_get(2), 1);
        assert_eq!(s.packed_get(3), 0);
        assert!(s.packed_all(u32::MAX - 2, 6, 1));
        assert!(s.packed_test_all(u32::MAX - 2, 6, 1));
    }

    #[test]
    fn metadata_accounting() {
        let mut s = taint_shadow();
        s.packed_set(0, 1);
        s.packed_set(0xffff_ffff, 1);
        assert_eq!(s.allocated_chunks(), 2);
        assert_eq!(s.metadata_bytes(), 2 * 16 * 1024);
    }
}

//! `TwoLevelShadow` against a flat oracle.
//!
//! The oracle keeps one value per application byte (per element, for the
//! element layouts) in a hash map and applies every operation as the
//! documented per-byte loop. It also keeps the two things the map promises
//! beyond values:
//!
//! * **what the simulated lifeguard allocated** — a chunk is mapped by the
//!   first write or translation that reaches it, in that order, whether or
//!   not the write changes anything (reads never map);
//! * **what the host must store** — a chunk is backed once a write that
//!   does not cover it whole changes one of its values, a whole-chunk fill
//!   makes it uniform again, and a whole-chunk masked update leaves it as
//!   it was.
//!
//! After every operation the map must agree on the operation's result, on
//! values around it, on `allocated_chunks` / `metadata_bytes`, and on the
//! lifeguard-space address and backing of every chunk seen so far; forks
//! (clones) are checked against the oracle's state at the fork after the
//! original has moved on.

use igm_shadow::layout::ElemSize;
use igm_shadow::{ShadowLayout, TwoLevelShadow, CHUNK_REGION_BASE};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

/// 4 KiB of application space per chunk: ranges of several chunks stay
/// cheap for the per-byte oracle.
const L1_BITS: u8 = 20;
const SPAN: u32 = 1 << (32 - L1_BITS);

#[derive(Debug, Clone)]
enum Op {
    /// `chunk_base_va` / `elem_va`.
    Translate {
        a: u32,
        elem: bool,
    },
    /// Clone the map; `drive_clone` says which of the two goes on.
    Fork {
        drive_clone: bool,
    },
    Set {
        a: u32,
        v: u8,
    },
    Load {
        a: u32,
        n: u32,
    },
    Update {
        a: u32,
        n: u32,
        set: u32,
        clear: u32,
    },
    SetRange {
        a: u32,
        len: u32,
        v: u8,
    },
    UpdateRange {
        a: u32,
        len: u32,
        set: u8,
        clear: u8,
    },
    SetRangeChanged {
        a: u32,
        len: u32,
        v: u8,
    },
    /// `packed_count_ne`, `packed_all`, `packed_test_all`, `packed_any`.
    Query {
        a: u32,
        len: u32,
        v: u8,
    },
    /// `set_elem_u64`, or `set_elem_u32` when `narrow`.
    SetElem {
        a: u32,
        v: u64,
        narrow: bool,
    },
    SetElemRange {
        a: u32,
        len: u32,
        v: u64,
    },
}

/// Addresses around chunk boundaries, inside chunks, and at both ends of
/// the address space, over a handful of chunks so operations meet.
fn addr() -> impl Strategy<Value = u32> {
    let chunk = (0u32..5).prop_map(|c| c * SPAN);
    prop_oneof![
        3 => (chunk, 0u32..SPAN).prop_map(|(c, o)| c + o),
        2 => (0u32..5, 0u32..6).prop_map(|(c, o)| c * SPAN + SPAN - 1 - o),
        2 => (0u32..5, 0u32..6).prop_map(|(c, o)| c * SPAN + o),
        1 => (0u32..10).prop_map(|o| u32::MAX - o),
        1 => 0u32..10,
    ]
}

/// Range lengths: empty, inside an access, inside a chunk, about a chunk,
/// several chunks.
fn len() -> impl Strategy<Value = u32> {
    prop_oneof![
        1 => Just(0u32),
        3 => 1u32..8,
        3 => 1u32..200,
        2 => SPAN - 3..SPAN + 4,
        2 => 2 * SPAN..2 * SPAN + 40,
    ]
}

/// A range that starts on a chunk boundary and covers whole chunks, so
/// whole-chunk fills (and re-fills of backed chunks) are common.
fn aligned() -> impl Strategy<Value = (u32, u32)> {
    (0u32..5, 1u32..3).prop_map(|(c, n)| (c * SPAN, n * SPAN))
}

fn range() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![3 => (addr(), len()), 1 => aligned()]
}

fn common_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (addr(), any::<bool>()).prop_map(|(a, elem)| Op::Translate { a, elem }),
        1 => any::<bool>().prop_map(|drive_clone| Op::Fork { drive_clone }),
    ]
}

fn packed_op() -> impl Strategy<Value = Op> {
    // Half of the values are 0 or all-ones so writes often repeat what is
    // already there.
    let v = || prop_oneof![Just(0u8), Just(0xffu8), any::<u8>()];
    let n = || prop_oneof![Just(1u32), Just(2u32), Just(4u32)];
    prop_oneof![
        2 => common_op(),
        2 => (addr(), v()).prop_map(|(a, v)| Op::Set { a, v }),
        2 => (addr(), n()).prop_map(|(a, n)| Op::Load { a, n }),
        4 => (addr(), n(), any::<u32>(), any::<u32>(), 0u32..3)
            .prop_map(|(a, n, set, clear, empty)| {
                let (set, clear) = if empty == 0 { (0, 0) } else { (set, clear) };
                Op::Update { a, n, set, clear }
            }),
        4 => (range(), v()).prop_map(|((a, len), v)| Op::SetRange { a, len, v }),
        4 => (range(), v(), v())
            .prop_map(|((a, len), set, clear)| Op::UpdateRange { a, len, set, clear }),
        3 => (range(), v()).prop_map(|((a, len), v)| Op::SetRangeChanged { a, len, v }),
        3 => (range(), v()).prop_map(|((a, len), v)| Op::Query { a, len, v }),
    ]
}

fn elem_op() -> impl Strategy<Value = Op> {
    // Equal-byte values can leave a chunk uniform; mixed ones cannot.
    let v = || {
        prop_oneof![Just(0u64), any::<u8>().prop_map(|b| u64::from_le_bytes([b; 8])), any::<u64>(),]
    };
    prop_oneof![
        2 => common_op(),
        4 => (addr(), v(), any::<bool>()).prop_map(|(a, v, narrow)| Op::SetElem { a, v, narrow }),
        4 => (range(), v()).prop_map(|((a, len), v)| Op::SetElemRange { a, len, v }),
    ]
}

/// What a range write means for a chunk it covers whole.
#[derive(Clone, Copy, PartialEq)]
enum Whole {
    /// Every byte gets one value: the chunk is uniform afterwards.
    Fill,
    /// Every byte gets the same masked update: uniform stays uniform,
    /// backed stays backed.
    Update,
    /// The bytes written differ from one another: the chunk is backed.
    Pattern,
}

#[derive(Clone)]
struct Oracle {
    layout: ShadowLayout,
    default_byte: u8,
    /// log2 of the application bytes one stored value stands for: 0 for
    /// the packed layouts, the element's coverage for the element ones.
    unit_shift: u32,
    /// Written values by unit (`addr >> unit_shift`).
    values: HashMap<u32, u64>,
    /// Level-1 indices in first-touch order.
    mapped: Vec<u32>,
    backed: HashSet<u32>,
}

impl Oracle {
    fn new(layout: ShadowLayout, default_byte: u8) -> Oracle {
        let packed = layout.elem_size() == ElemSize::B1;
        Oracle {
            layout,
            default_byte,
            unit_shift: if packed { 0 } else { layout.offset_bits() as u32 },
            values: HashMap::new(),
            mapped: Vec::new(),
            backed: HashSet::new(),
        }
    }

    /// Packed field mask, or the element's value mask.
    fn mask(&self) -> u64 {
        let bits = match self.unit_shift {
            0 => self.layout.bits_per_app_byte(),
            _ => self.layout.elem_size().bytes() * 8,
        };
        u64::MAX >> (64 - bits)
    }

    fn get(&self, a: u32) -> u64 {
        let unit = a >> self.unit_shift;
        self.values.get(&unit).copied().unwrap_or_else(|| {
            let bits = self.layout.bits_per_app_byte();
            match self.unit_shift {
                // The byte's field of the default metadata byte.
                0 => (self.default_byte as u64 >> (a % (8 / bits) * bits)) & self.mask(),
                _ => u64::from_le_bytes([self.default_byte; 8]) & self.mask(),
            }
        })
    }

    fn chunk(a: u32) -> u32 {
        a >> (32 - L1_BITS)
    }

    fn map(&mut self, a: u32) {
        if !self.mapped.contains(&Self::chunk(a)) {
            self.mapped.push(Self::chunk(a));
        }
    }

    fn base_va(&self, chunk: u32) -> Option<u32> {
        let nth = self.mapped.iter().position(|c| *c == chunk)? as u32;
        Some(CHUNK_REGION_BASE + nth * self.layout.chunk_bytes())
    }

    /// One write that does not cover its chunk: maps it, and backs it if
    /// the value changes.
    fn put(&mut self, a: u32, v: u64) {
        self.write_range(a, 1, Whole::Fill, |_| Some(v));
    }

    /// The per-unit loop over `[start, start+len)`, modulo 2^32: `f` gives
    /// the unit's new value, or `None` to leave it alone (unwritten, so not
    /// mapped by this unit). Returns how many units changed.
    fn write_range(
        &mut self,
        start: u32,
        len: u32,
        whole: Whole,
        f: impl Fn(u64) -> Option<u64>,
    ) -> u64 {
        if len == 0 {
            return 0;
        }
        let wraps = start.checked_add(len - 1).is_none();
        let first = (start >> self.unit_shift) as u64;
        let last = (start as u64 + len as u64 - 1) >> self.unit_shift;
        // Per chunk: units covered, written, changed.
        let mut tally: Vec<(u32, u32, bool, u64)> = Vec::new();
        for u in first..=last {
            let a = (u << self.unit_shift) as u32;
            if tally.last().map(|t| t.0) != Some(Self::chunk(a)) {
                tally.push((Self::chunk(a), 0, false, 0));
            }
            let t = tally.last_mut().unwrap();
            t.1 += 1;
            let old = self.get(a);
            if let Some(new) = f(old) {
                let new = new & self.mask();
                t.2 = true;
                t.3 += (new != old) as u64;
                self.map(a);
                self.values.insert(a >> self.unit_shift, new);
            }
        }
        for (chunk, covered, written, changed) in &tally {
            // A range that wraps the address space is applied unit by unit.
            if !wraps && *covered == SPAN >> self.unit_shift && *written {
                match whole {
                    Whole::Fill => drop(self.backed.remove(chunk)),
                    Whole::Update => {}
                    Whole::Pattern => drop(self.backed.insert(*chunk)),
                }
            } else if *changed != 0 {
                self.backed.insert(*chunk);
            }
        }
        tally.iter().map(|t| t.3).sum()
    }
}

/// The map under test, the oracle, and the addresses written so far.
struct Pair {
    shadow: TwoLevelShadow,
    oracle: Oracle,
    touched: BTreeSet<u32>,
}

impl Pair {
    fn read(&self, a: u32) -> (u64, u64) {
        match self.oracle.unit_shift {
            0 => (self.shadow.packed_get(a) as u64, self.oracle.get(a)),
            _ => (self.shadow.elem_u64(a), self.oracle.get(a)),
        }
    }

    /// Values at `probes` and what the simulated lifeguard and the host
    /// hold for every chunk seen so far.
    fn check(&self, probes: impl IntoIterator<Item = u32>, what: &str) {
        let (shadow, oracle) = (&self.shadow, &self.oracle);
        for a in probes {
            let (got, want) = self.read(a);
            assert_eq!(got, want, "{what}: value at {a:#x}");
            if oracle.layout.elem_size() == ElemSize::B4 {
                assert_eq!(shadow.elem_u32(a) as u64, want, "{what}: elem_u32 at {a:#x}");
            }
        }
        assert_eq!(shadow.allocated_chunks() as usize, oracle.mapped.len(), "{what}: mapped");
        assert_eq!(
            shadow.metadata_bytes(),
            oracle.mapped.len() as u64 * oracle.layout.chunk_bytes() as u64,
            "{what}: metadata_bytes"
        );
        let chunks: BTreeSet<u32> = self.touched.iter().map(|a| Oracle::chunk(*a)).collect();
        for chunk in chunks {
            let a = chunk << (32 - L1_BITS);
            assert_eq!(
                shadow.chunk_base_va_if_present(a),
                oracle.base_va(chunk),
                "{what}: address of chunk {chunk:#x} (first-touch order)"
            );
            assert_eq!(
                shadow.chunk_is_backed(a),
                oracle.backed.contains(&chunk),
                "{what}: backing of chunk {chunk:#x}"
            );
        }
    }

    fn apply(&mut self, op: &Op, forks: &mut Vec<Pair>) {
        let what = format!("{op:?}");
        let (shadow, oracle) = (&mut self.shadow, &mut self.oracle);
        let bits = oracle.layout.bits_per_app_byte();
        let field = oracle.mask();
        let (at, span) = match *op {
            Op::Translate { a, elem } => {
                oracle.map(a);
                let base = oracle.base_va(Oracle::chunk(a)).unwrap();
                let got = if elem { shadow.elem_va(a) } else { shadow.chunk_base_va(a) };
                let off = if elem { oracle.layout.elem_offset_in_chunk(a) } else { 0 };
                assert_eq!(got, base + off, "{what}");
                (a, 0)
            }
            Op::Fork { drive_clone } => {
                let mut fork = Pair {
                    shadow: shadow.clone(),
                    oracle: oracle.clone(),
                    touched: self.touched.clone(),
                };
                if drive_clone {
                    std::mem::swap(self, &mut fork);
                }
                // One frozen copy at a time keeps the test's memory small.
                forks.clear();
                forks.push(fork);
                return;
            }
            Op::Set { a, v } => {
                shadow.packed_set(a, v);
                oracle.put(a, v as u64);
                (a, 0)
            }
            Op::Load { a, n } => {
                let want =
                    (0..n).fold(0u64, |w, i| w | oracle.get(a.wrapping_add(i)) << (i * bits));
                assert_eq!(shadow.packed_load(a, n) as u64, want, "{what}");
                (a, n)
            }
            Op::Update { a, n, set, clear } => {
                let keep = (u64::MAX >> (64 - n * bits)) as u32;
                let (set, clear) = (set & keep, clear & keep);
                shadow.packed_update(a, n, set, clear);
                for i in 0..n {
                    let s = (set >> (i * bits)) as u64 & field;
                    let c = (clear >> (i * bits)) as u64 & field;
                    if s | c != 0 {
                        let b = a.wrapping_add(i);
                        oracle.put(b, (oracle.get(b) & !c) | s);
                    }
                }
                (a, n)
            }
            Op::SetRange { a, len, v } => {
                shadow.packed_set_range(a, len, v);
                oracle.write_range(a, len, Whole::Fill, |_| Some(v as u64));
                (a, len)
            }
            Op::UpdateRange { a, len, set, clear } => {
                shadow.packed_update_range(a, len, set, clear);
                let (s, c) = (set as u64 & field, clear as u64 & field);
                let whole = if s | c == field { Whole::Fill } else { Whole::Update };
                oracle.write_range(a, len, whole, |old| Some((old & !c) | s));
                (a, len)
            }
            Op::SetRangeChanged { a, len, v } => {
                let v = v as u64 & field;
                let changed = oracle.write_range(a, len, Whole::Fill, |o| (o != v).then_some(v));
                assert_eq!(shadow.packed_set_range_changed(a, len, v as u8), changed, "{what}");
                (a, len)
            }
            Op::Query { a, len, v } => {
                let v = v & field as u8;
                let each = || (0..len).map(|i| oracle.get(a.wrapping_add(i)) as u8);
                let ne = each().filter(|m| *m != v).count() as u64;
                assert_eq!(shadow.packed_count_ne(a, len, v), ne, "{what}: count_ne");
                assert_eq!(shadow.packed_all(a, len, v), ne == 0, "{what}: all");
                assert_eq!(shadow.packed_any(a, len, v), ne < len as u64, "{what}: any");
                assert_eq!(
                    shadow.packed_test_all(a, len, v),
                    each().all(|m| m & v == v),
                    "{what}: test_all"
                );
                (a, len)
            }
            Op::SetElem { a, v, narrow } => {
                if narrow {
                    shadow.set_elem_u32(a, v as u32);
                    oracle.put(a, v as u32 as u64);
                } else {
                    shadow.set_elem_u64(a, v);
                    oracle.put(a, v);
                }
                (a, 0)
            }
            Op::SetElemRange { a, len, v } => {
                shadow.set_elem_range(a, len, v);
                let size = oracle.layout.elem_size().bytes() as usize;
                let bytes = v.to_le_bytes();
                let equal = bytes[..size].iter().all(|b| *b == bytes[0]);
                let whole = if equal { Whole::Fill } else { Whole::Pattern };
                oracle.write_range(a, len, whole, |_| Some(v));
                (a, len)
            }
        };
        // The operation's edges, a step through its interior, and a few
        // bytes either side.
        let last = at.wrapping_add(span.saturating_sub(1));
        let mut probes: Vec<u32> = (0..16).map(|d| at.wrapping_sub(8).wrapping_add(d)).collect();
        probes.extend((0..16).map(|d| last.wrapping_sub(8).wrapping_add(d)));
        probes.extend((0..span).step_by(61).map(|i| at.wrapping_add(i)));
        self.touched.extend((0..span.max(1)).step_by(SPAN as usize).map(|i| at.wrapping_add(i)));
        self.touched.extend([at, last]);
        self.check(probes, &what);
    }
}

fn run(layout: ShadowLayout, default_byte: u8, ops: &[Op]) {
    let mut pair = Pair {
        shadow: TwoLevelShadow::new(layout, default_byte),
        oracle: Oracle::new(layout, default_byte),
        touched: BTreeSet::new(),
    };
    let mut forks = Vec::new();
    for op in ops {
        pair.apply(op, &mut forks);
    }
    // Everything ever written, in the driven map and in the frozen fork.
    forks.push(pair);
    for pair in &forks {
        let shift = pair.oracle.unit_shift;
        pair.check(pair.oracle.values.keys().map(|unit| unit << shift), "final sweep");
    }
}

fn default_byte() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(0xffu8), any::<u8>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 1, 2, 4 and 8 metadata bits per application byte.
    #[test]
    fn packed_operations_match_the_flat_oracle(
        width in 0u32..4,
        default_byte in default_byte(),
        ops in proptest::collection::vec(packed_op(), 1..60),
    ) {
        let layout = ShadowLayout::for_coverage(L1_BITS, 8 >> width, ElemSize::B1).unwrap();
        run(layout, default_byte, &ops);
    }

    /// 4- and 8-byte elements per 4-byte application word.
    #[test]
    fn element_operations_match_the_flat_oracle(
        wide in any::<bool>(),
        default_byte in default_byte(),
        ops in proptest::collection::vec(elem_op(), 1..60),
    ) {
        let size = if wide { ElemSize::B8 } else { ElemSize::B4 };
        let layout = ShadowLayout::for_coverage(L1_BITS, 4, size).unwrap();
        run(layout, default_byte, &ops);
    }
}

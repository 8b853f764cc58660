//! Design-space exploration: the paper's PIN-based profiling study (§7.3).
//!
//! The paper instruments benchmark executables with PIN to obtain event
//! streams, then feeds them through *functional* models of the three
//! accelerators while sweeping design parameters. This module does the
//! same with the synthetic workload traces and the functional models from
//! `igm-core`:
//!
//! * [`it_pass`] / [`it_reduction`] — % of propagation (update) events
//!   removed by Inheritance Tracking (Figure 13(a), Figure 12 column 2),
//!   with the tracker's counters;
//! * [`if_reduction`] — % of memory-access check events removed by an
//!   Idempotent Filter of a given entry count and associativity, keyed as
//!   a lifeguard's ETCT keys its loads and stores: one check category for
//!   both (AddrCheck, Figure 13(b)) or one each (LockSet, Figure 13(c));
//! * [`mtlb_miss_rate`] / [`mtlb_flexible`] — M-TLB miss rates while
//!   varying the level-1 index width and the entry count, for the fixed and
//!   the footprint-adaptive designs (Figure 14).
//!
//! Each varies a geometry or a policy per run, which a co-simulated
//! [`SimReport`](crate::SimReport) cannot give. Figure 12's `LMA` column
//! needs no sweep: it compares two reports' `timing.handler_instrs`.

use igm_core::{
    IdempotentFilter, IfGeometry, IfOutcome, InheritanceTracker, ItConfig, ItStats, MetadataTlb,
};
use igm_isa::TraceEntry;
use igm_lba::{extract_events, Event, IfEventConfig};
use igm_lifeguards::LifeguardKind;
use igm_shadow::layout::ElemSize;
use igm_shadow::{choose_level1_bits, footprint_pages, ShadowLayout, TwoLevelShadow};
use std::collections::BTreeSet;

/// One Inheritance Tracking pass over a trace: the fraction of propagation
/// events absorbed (the Figure 13(a) metric) and the tracker's counters.
/// Only events a propagation-tracking lifeguard would register (everything
/// but the self/read-only classes) count as baseline deliveries, matching
/// Figure 4's accounting.
pub fn it_pass(trace: impl IntoIterator<Item = TraceEntry>, cfg: ItConfig) -> (f64, ItStats) {
    let mut it = InheritanceTracker::new(cfg);
    let mut raw = Vec::new();
    let mut out = Vec::new();
    let mut baseline = 0u64;
    let mut delivered = 0u64;
    for entry in trace {
        raw.clear();
        extract_events(&entry, &mut raw);
        for dev in &raw {
            match dev.event {
                Event::Prop(op) => {
                    use igm_isa::OpClass::*;
                    if !matches!(op, RegSelf { .. } | MemSelf { .. } | ReadOnly { .. }) {
                        baseline += 1;
                    }
                    out.clear();
                    it.process(dev.pc, dev.event, &mut out);
                    // Everything IT emits reaches the lifeguard: transformed
                    // propagation events, conflict materializations, and
                    // (MemCheck-style) eager source checks.
                    delivered += out.len() as u64;
                }
                Event::Annot(_) => {
                    out.clear();
                    it.flush_all(dev.pc, &mut out);
                    delivered += out.len() as u64;
                }
                _ => {}
            }
        }
    }
    let reduction = if baseline == 0 { 0.0 } else { 1.0 - delivered as f64 / baseline as f64 };
    (reduction, *it.stats())
}

/// The reduction of one [`it_pass`].
pub fn it_reduction(trace: impl IntoIterator<Item = TraceEntry>, cfg: ItConfig) -> f64 {
    it_pass(trace, cfg).0
}

/// Fraction of memory-access check events filtered by an Idempotent Filter
/// of the given geometry, with loads and stores keyed by the `MemRead` and
/// `MemWrite` rows of `kind`'s ETCT, and every annotation invalidating the
/// whole filter.
pub fn if_reduction(
    trace: impl IntoIterator<Item = TraceEntry>,
    geometry: IfGeometry,
    kind: LifeguardKind,
) -> f64 {
    let mut filter = IdempotentFilter::new(geometry);
    let etct = kind.etct();
    let inval = IfEventConfig::invalidates_all();
    let mut raw = Vec::new();
    let mut checks = 0u64;
    let mut filtered = 0u64;
    for entry in trace {
        raw.clear();
        extract_events(&entry, &mut raw);
        for dev in &raw {
            let cfg = match dev.event {
                Event::MemRead(_) | Event::MemWrite(_) => etct.if_config(dev.event.event_type()),
                Event::Annot(_) => {
                    filter.process(dev.pc, &dev.event, &inval);
                    continue;
                }
                _ => continue,
            };
            checks += 1;
            if filter.process(dev.pc, &dev.event, cfg) == IfOutcome::Filtered {
                filtered += 1;
            }
        }
    }
    if checks == 0 {
        0.0
    } else {
        filtered as f64 / checks as f64
    }
}

/// M-TLB miss rate for a trace under a given level-1 width and capacity,
/// translating every memory access of the trace (1-1 metadata assumption of
/// Figure 14).
pub fn mtlb_miss_rate(
    trace: impl IntoIterator<Item = TraceEntry>,
    level1_bits: u8,
    entries: usize,
) -> f64 {
    let layout =
        ShadowLayout::for_coverage(level1_bits, 4, ElemSize::B4).expect("sweep layouts are valid");
    let mut tlb = MetadataTlb::new(entries);
    tlb.lma_config(layout);
    let mut shadow = TwoLevelShadow::new(layout, 0);
    for entry in trace {
        for m in [entry.mem_read(), entry.mem_write()].into_iter().flatten() {
            let _ = tlb.lma_or_fill(m.addr, || shadow.chunk_base_va(m.addr));
        }
    }
    tlb.stats().miss_rate()
}

/// The touched-page footprint of a trace (for the flexible level-1
/// sizing).
pub fn trace_footprint(trace: impl IntoIterator<Item = TraceEntry>) -> BTreeSet<u32> {
    footprint_pages(
        trace.into_iter().flat_map(|e| [e.mem_read(), e.mem_write()]).flatten().map(|m| m.addr),
    )
}

/// The flexible design point of Figure 14(b): the chosen level-1 width for
/// a trace footprint under the paper's policy, and the resulting miss rate
/// at `entries`. `None` when the trace touches no memory: there is no
/// footprint to size for.
pub fn mtlb_flexible(
    footprint: &BTreeSet<u32>,
    trace: impl IntoIterator<Item = TraceEntry>,
    entries: usize,
) -> Option<(u8, f64)> {
    if footprint.is_empty() {
        return None;
    }
    let bits = choose_level1_bits(footprint);
    Some((bits, mtlb_miss_rate(trace, bits, entries)))
}

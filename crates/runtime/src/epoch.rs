//! Epoch-chunked parallel monitoring of a single hot application.
//!
//! The trace is cut into fixed-size *epochs*. A sequential **spine** applies
//! only the metadata-*updating* events (propagation and annotations) to a
//! lifeguard instance, snapshotting the full shadow state at every epoch
//! boundary (an [`AnyLifeguard`] clone). Each epoch is
//! then **checked** on a pool worker: the worker replays the epoch's full
//! event stream — updates *and* checks — against the boundary snapshot, so
//! every check observes exactly the shadow state the sequential monitor
//! would have shown it. Epoch results merge back in epoch order, yielding a
//! violation sequence identical to sequential monitoring.
//!
//! The spine may elide an event only when its handler is metadata-pure —
//! then skipping it cannot perturb the shadow-state evolution. That is the
//! runtime's per-lifeguard, per-event capability mask (the analogue of the
//! paper's Figure 2 applicability matrix,
//! [`LifeguardKind::spine_elides`]): AddrCheck and both TaintChecks elide
//! every check; MemCheck elides only its accessibility checks (its `Check`
//! handlers write cascade-suppression state and stay on the spine); LockSet
//! elides nothing — its spine runs the full stream, and the parallelism it
//! gains is the overlap between consecutive epochs' check replays. Every
//! lifeguard takes the parallel path; there is no sequential fallback.
//!
//! The per-core accelerators (IT, IF) are hardware units whose state spans
//! epoch boundaries on a single consumer core; the epoch-parallel software
//! path masks them off (keeping `LMA`/M-TLB, which is a pure translation
//! cache). Epoch throughput therefore trades accelerator filtering for
//! parallel width.

use crate::pool::{EpochJob, MonitorPool, SessionConfig};
use igm_core::{AccelConfig, DispatchPipeline};
use igm_isa::TraceEntry;
use igm_lba::{Event, EventBuf, TraceBatch};
use igm_lifeguards::{AnyLifeguard, CostSink, Lifeguard, LifeguardKind, Violation};
use std::sync::mpsc;

/// Default records per epoch.
pub const DEFAULT_EPOCH_RECORDS: usize = 8_192;

/// How epoch record budgets are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochConfig {
    /// Every epoch holds exactly this many records (the default).
    Fixed(usize),
    /// The next epoch's record budget scales with the *check density* the
    /// previous epoch observed ([`adaptive_next_budget`]): check-heavy
    /// phases get shorter epochs (snapshots amortize over less replayed
    /// work, results merge back sooner), check-light phases get longer
    /// ones (fewer shadow-state snapshots per record). The first epoch
    /// uses `initial`; every budget is clamped to `[min, max]`.
    Adaptive {
        /// First epoch's record budget.
        initial: usize,
        /// Lower clamp for every budget.
        min: usize,
        /// Upper clamp for every budget.
        max: usize,
        /// Check events an epoch should deliver — the feedback target.
        target_checks: u64,
    },
}

impl Default for EpochConfig {
    fn default() -> EpochConfig {
        EpochConfig::Fixed(DEFAULT_EPOCH_RECORDS)
    }
}

impl EpochConfig {
    /// A reasonable adaptive configuration centred on
    /// [`DEFAULT_EPOCH_RECORDS`]: budgets float between 1/8× and 8× the
    /// default, targeting the check volume a default epoch of a
    /// typical (≈1 check/record) workload would deliver.
    pub fn adaptive() -> EpochConfig {
        EpochConfig::Adaptive {
            initial: DEFAULT_EPOCH_RECORDS,
            min: DEFAULT_EPOCH_RECORDS / 8,
            max: DEFAULT_EPOCH_RECORDS * 8,
            target_checks: DEFAULT_EPOCH_RECORDS as u64,
        }
    }

    pub(crate) fn initial_budget(&self) -> usize {
        match *self {
            EpochConfig::Fixed(n) => n,
            EpochConfig::Adaptive { initial, min, max, .. } => initial.clamp(min, max),
        }
    }

    /// The budget following an epoch that held `records` records and
    /// delivered `checks` check events.
    pub(crate) fn next_budget(&self, records: usize, checks: u64) -> usize {
        match *self {
            EpochConfig::Fixed(n) => n,
            EpochConfig::Adaptive { min, max, target_checks, .. } => {
                adaptive_next_budget(records, checks, target_checks, min, max)
            }
        }
    }

    /// Re-clamps a budget carried over from an earlier pipelined stretch.
    /// The pool keeps a session's last adaptive budget across pipeline
    /// exit/re-entry so a hot phase resumes where it left off, but the
    /// carried value must still honor the configuration's `min`/`max` (the
    /// config may not be the one that produced it).
    pub(crate) fn clamp_budget(&self, budget: usize) -> usize {
        match *self {
            EpochConfig::Fixed(n) => n,
            EpochConfig::Adaptive { min, max, .. } => budget.clamp(min, max),
        }
    }
}

/// The adaptive feedback rule: the next epoch's record budget is the
/// record count at which the *previous* epoch's observed check density
/// (`checks / records`) would deliver exactly `target_checks` checks,
/// clamped to `[min, max]`. An epoch that observed no checks at all jumps
/// straight to `max` (nothing to amortize against), so idle phases are
/// spanned by the longest epochs the configuration allows.
pub fn adaptive_next_budget(
    records: usize,
    checks: u64,
    target_checks: u64,
    min: usize,
    max: usize,
) -> usize {
    if records == 0 || checks == 0 {
        return max.max(min);
    }
    // next = target / density = target * records / checks, in integer
    // arithmetic (u128 so huge targets cannot overflow).
    let next = (target_checks as u128 * records as u128 / checks as u128) as usize;
    next.clamp(min, max)
}

/// Outcome of an epoch-parallel run.
#[derive(Debug)]
pub struct EpochReport {
    /// Which lifeguard ran.
    pub lifeguard: LifeguardKind,
    /// Number of epochs executed.
    pub epochs: usize,
    /// Records monitored.
    pub records: u64,
    /// Events delivered to handlers across all epoch jobs.
    pub delivered: u64,
    /// Violations in sequential trace order.
    pub violations: Vec<Violation>,
}

/// Is `ev` a checking event? This classification feeds the adaptive epoch
/// sizing (check density) for every lifeguard; whether the spine may *skip*
/// the event is the separate, per-lifeguard [`LifeguardKind::spine_elides`].
pub(crate) fn is_check_event(ev: &Event) -> bool {
    matches!(ev, Event::Check { .. } | Event::MemRead(_) | Event::MemWrite(_))
}

/// Runs `trace` under `cfg.lifeguard`, checking epochs of `epoch_records`
/// records in parallel on `pool`'s workers.
///
/// The session's accelerator request is masked down to translation-only
/// (no IT/IF) in both paths, so parallel and fallback results are directly
/// comparable and independent of cross-epoch accelerator state.
pub fn monitor_epoch_parallel(
    pool: &MonitorPool,
    cfg: &SessionConfig,
    trace: impl IntoIterator<Item = TraceEntry>,
    epoch_records: usize,
) -> EpochReport {
    monitor_epoch_parallel_with(pool, cfg, trace, EpochConfig::Fixed(epoch_records))
}

/// Like [`monitor_epoch_parallel`], with the epoch sizing policy made
/// explicit — [`EpochConfig::Adaptive`] re-budgets every epoch from the
/// previous epoch's observed check density.
pub fn monitor_epoch_parallel_with(
    pool: &MonitorPool,
    cfg: &SessionConfig,
    trace: impl IntoIterator<Item = TraceEntry>,
    epoch: EpochConfig,
) -> EpochReport {
    match epoch {
        EpochConfig::Fixed(n) => assert!(n > 0, "epochs must hold at least one record"),
        EpochConfig::Adaptive { initial, min, max, .. } => {
            assert!(min > 0 && initial > 0, "epochs must hold at least one record");
            assert!(min <= max, "adaptive epoch bounds must satisfy min <= max");
        }
    }
    let accel =
        AccelConfig { it: None, if_geometry: None, ..cfg.lifeguard.mask_config(&cfg.accel) };
    let cfg = SessionConfig { accel, ..cfg.clone() };
    run_parallel(pool, &cfg, trace, epoch)
}

fn run_parallel(
    pool: &MonitorPool,
    cfg: &SessionConfig,
    trace: impl IntoIterator<Item = TraceEntry>,
    epoch: EpochConfig,
) -> EpochReport {
    let lifeguard = cfg.build_lifeguard();
    let pipeline = DispatchPipeline::new(lifeguard.etct(), &cfg.accel);
    let mut spine = Spine {
        lifeguard,
        pipeline,
        cost: CostSink::discarding(),
        events: EventBuf::new(),
        updates: Vec::new(),
    };
    let (tx, rx) = mpsc::channel();

    // The update-only spine is much cheaper per record than the full
    // replay the workers do, so without backpressure it would clone and
    // queue nearly the whole trace as in-flight epochs. Bound outstanding
    // jobs (each holding an epoch's record buffer) to a small multiple of
    // the worker count, collecting results as we go.
    let max_in_flight = 2 * pool.workers() + 1;
    let mut in_flight = 0usize;
    let mut results: Vec<crate::pool::EpochResult> = Vec::new();
    // Completed jobs hand their record buffers back through the result;
    // recycling them caps the run at ~max_in_flight epoch-sized
    // allocations total instead of one per epoch.
    let mut recycled: Vec<TraceBatch> = Vec::new();
    let collect_one = |results: &mut Vec<crate::pool::EpochResult>,
                       recycled: &mut Vec<TraceBatch>| {
        // A worker that panicked drops its job's sender without
        // replying; fail loudly instead of hanging on a result that
        // never comes.
        let mut r: crate::pool::EpochResult = rx
            .recv_timeout(std::time::Duration::from_secs(300))
            .expect("an epoch worker failed or stalled (see stderr); aborting merge");
        assert!(!r.failed, "epoch {} job panicked; the violation set would be incomplete", r.index);
        recycled.append(&mut r.records);
        results.push(r);
    };

    let mut epochs = 0usize;
    let mut records = 0u64;
    let mut budget = epoch.initial_budget();
    let mut buf = TraceBatch::with_capacity(budget);
    for entry in trace {
        buf.push(&entry);
        records += 1;
        if buf.len() >= budget {
            let epoch_len = buf.len();
            let empty = recycled.pop().unwrap_or_default();
            let first = records - epoch_len as u64;
            let checks = dispatch_epoch(pool, cfg, &mut spine, &mut buf, empty, epochs, first, &tx);
            // Adaptive sizing: re-budget the next epoch from the check
            // density this one observed (a no-op under Fixed sizing).
            budget = epoch.next_budget(epoch_len, checks);
            epochs += 1;
            in_flight += 1;
            while in_flight >= max_in_flight {
                collect_one(&mut results, &mut recycled);
                in_flight -= 1;
            }
        }
    }
    if !buf.is_empty() {
        let empty = recycled.pop().unwrap_or_default();
        let first = records - buf.len() as u64;
        dispatch_epoch(pool, cfg, &mut spine, &mut buf, empty, epochs, first, &tx);
        epochs += 1;
        in_flight += 1;
    }
    while in_flight > 0 {
        collect_one(&mut results, &mut recycled);
        in_flight -= 1;
    }
    drop(tx);

    // Merge in epoch order: the concatenation equals the sequential
    // violation sequence.
    results.sort_by_key(|r| r.index);
    // A missing epoch means a worker dropped the job (lifeguard panic):
    // refuse to return a silently truncated violation set.
    assert_eq!(
        results.len(),
        epochs,
        "epoch worker(s) failed: only {}/{} epochs reported; the violation set would be incomplete",
        results.len(),
        epochs
    );
    let delivered = results.iter().map(|r| r.delivered).sum();
    let violations = results.into_iter().flat_map(|r| r.violations).collect();
    EpochReport { lifeguard: cfg.lifeguard, epochs, records, delivered, violations }
}

/// The sequential update-only spine: a lifeguard advanced over propagation
/// and annotation events only, with reusable batch staging buffers.
struct Spine {
    lifeguard: AnyLifeguard,
    pipeline: DispatchPipeline,
    cost: CostSink,
    events: EventBuf,
    updates: Vec<igm_lba::DeliveredEvent>,
}

/// Ships `buf` as epoch `index`: snapshot → advance the spine over the
/// epoch's updating events (one columnar dispatch pass) → hand the epoch's
/// record batch itself to the parallel check job, leaving the (recycled)
/// `empty` arena in its place — no per-epoch record copy. Returns the
/// number of *check* events the epoch delivered, the signal the adaptive
/// sizing feedback rule consumes.
#[allow(clippy::too_many_arguments)]
fn dispatch_epoch(
    pool: &MonitorPool,
    cfg: &SessionConfig,
    spine: &mut Spine,
    buf: &mut TraceBatch,
    mut empty: TraceBatch,
    index: usize,
    first_record: u64,
    tx: &mpsc::Sender<crate::pool::EpochResult>,
) -> u64 {
    // The snapshot is an ordinary clone of the spine's shadow state at the
    // epoch *boundary* (AnyLifeguard is Clone), taken before the spine
    // advances; the worker replays the epoch's full event stream against
    // it.
    let snapshot = spine.lifeguard.clone();
    let pipeline = DispatchPipeline::new(snapshot.etct(), &cfg.accel);
    // Spine advance with per-lifeguard elision: events whose handlers are
    // metadata-pure for this lifeguard are skipped here — the epoch job
    // replays them against the snapshot instead.
    spine.pipeline.dispatch_batch(buf, &mut spine.events);
    spine.updates.clear();
    spine
        .updates
        .extend(spine.events.events().iter().filter(|d| !cfg.lifeguard.spine_elides(&d.event)));
    let checks = spine.events.events().iter().filter(|d| is_check_event(&d.event)).count() as u64;
    spine.cost.clear();
    spine.lifeguard.handle_batch(&spine.updates, &mut spine.cost);
    // Spine-side violations are duplicates of what the epoch job will
    // report with exact state (non-elided handlers may report); discard so
    // snapshots always start with an empty violation list.
    let _ = spine.lifeguard.take_violations();
    empty.clear();
    let records = std::mem::replace(buf, empty);
    pool.submit_epoch(EpochJob {
        index,
        lifeguard: snapshot,
        pipeline,
        first_record,
        records: vec![records],
        done: tx.clone(),
        pipelined: None,
    });
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{Annotation, MemRef, OpClass, Reg};

    #[test]
    fn check_event_classification() {
        assert!(is_check_event(&Event::MemRead(MemRef::word(0x9000))));
        assert!(is_check_event(&Event::MemWrite(MemRef::word(0x9000))));
        assert!(!is_check_event(&Event::Prop(OpClass::ImmToReg { rd: Reg::Eax })));
        assert!(!is_check_event(&Event::Annot(Annotation::Free { base: 0x9000 })));
    }

    /// Pins the adaptive feedback rule: next budget = the record count at
    /// which the previous epoch's check density hits the target, clamped.
    #[test]
    fn adaptive_feedback_rule_is_pinned() {
        // Density 0.5 checks/record, target 2_000 checks → 4_000 records.
        assert_eq!(adaptive_next_budget(1_000, 500, 2_000, 64, 65_536), 4_000);
        // Density 2.0, same target → 1_000 records.
        assert_eq!(adaptive_next_budget(1_000, 2_000, 2_000, 64, 65_536), 1_000);
        // Density exactly at target → budget unchanged.
        assert_eq!(adaptive_next_budget(8_192, 4_096, 4_096, 64, 65_536), 8_192);
        // Clamping engages on both sides.
        assert_eq!(adaptive_next_budget(1_000, 1, 1_000_000, 64, 65_536), 65_536);
        assert_eq!(adaptive_next_budget(1_000, 1_000_000, 10, 64, 65_536), 64);
        // A check-free epoch jumps straight to the upper bound.
        assert_eq!(adaptive_next_budget(1_000, 0, 2_000, 64, 65_536), 65_536);
        // Degenerate zero-record input cannot divide by zero.
        assert_eq!(adaptive_next_budget(0, 0, 2_000, 64, 65_536), 65_536);
    }

    #[test]
    fn epoch_config_budgets() {
        let fixed = EpochConfig::Fixed(4_096);
        assert_eq!(fixed.initial_budget(), 4_096);
        assert_eq!(fixed.next_budget(4_096, 1), 4_096, "fixed sizing ignores feedback");
        let adaptive =
            EpochConfig::Adaptive { initial: 1_024, min: 256, max: 16_384, target_checks: 2_048 };
        assert_eq!(adaptive.initial_budget(), 1_024);
        assert_eq!(adaptive.next_budget(1_024, 512), 4_096);
        assert_eq!(EpochConfig::default(), EpochConfig::Fixed(DEFAULT_EPOCH_RECORDS));
    }

    /// Satellite of the pipelining work: a budget carried across a
    /// pipeline exit/re-entry must be re-clamped to the (possibly
    /// different) configuration's bounds before the first epoch runs.
    #[test]
    fn carried_budgets_are_reclamped_on_pipeline_reentry() {
        let adaptive =
            EpochConfig::Adaptive { initial: 1_024, min: 256, max: 16_384, target_checks: 2_048 };
        assert_eq!(adaptive.clamp_budget(64), 256, "below min clamps up");
        assert_eq!(adaptive.clamp_budget(1_000_000), 16_384, "above max clamps down");
        assert_eq!(adaptive.clamp_budget(4_096), 4_096, "in-range budgets carry over");
        assert_eq!(EpochConfig::Fixed(4_096).clamp_budget(9), 4_096, "fixed ignores carryover");
    }
}

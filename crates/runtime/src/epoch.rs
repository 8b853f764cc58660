//! Epoch sizing for intra-session epoch pipelining.
//!
//! A pipelined session ([`crate::pool::PipelineMode`]) cuts its record
//! stream into epochs: its owning worker advances an update-only spine and
//! ships each epoch, with the shadow state and dispatch pipeline
//! snapshotted at the epoch's boundary, as a job that replays the epoch's
//! full event stream on any pool worker. [`EpochConfig`] decides how many
//! records each epoch holds. The next epoch's budget follows the *check
//! density* the previous one observed and is clamped to `[min, max]`;
//! fixed sizing is the special case `min == max`.

use igm_lba::Event;

/// Default records per epoch: the centre of [`EpochConfig::adaptive`] and
/// the grain the pool sizes its per-worker epoch staging buffers for.
pub(crate) const DEFAULT_EPOCH_RECORDS: usize = 8_192;

/// How epoch record budgets are chosen.
///
/// Check-heavy phases get shorter epochs (snapshots amortize over less
/// replayed work, results merge back sooner), check-light phases longer
/// ones (fewer shadow-state snapshots per record). The first epoch uses
/// `initial`; every budget is clamped to `[min, max]`, which
/// [`MonitorPool::new`](crate::MonitorPool::new) requires to be a non-empty
/// range of positive record counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// First epoch's record budget.
    pub initial: usize,
    /// Lower clamp for every budget.
    pub min: usize,
    /// Upper clamp for every budget.
    pub max: usize,
    /// Check events an epoch should deliver — the feedback target.
    pub target_checks: u64,
}

impl EpochConfig {
    /// The pool default, centred on 8 192 records: budgets float between
    /// 1/8× and 8× that, targeting the check volume such an epoch of a
    /// typical (≈1 check/record) workload would deliver.
    pub fn adaptive() -> EpochConfig {
        EpochConfig {
            initial: DEFAULT_EPOCH_RECORDS,
            min: DEFAULT_EPOCH_RECORDS / 8,
            max: DEFAULT_EPOCH_RECORDS * 8,
            target_checks: DEFAULT_EPOCH_RECORDS as u64,
        }
    }

    /// Every epoch holds `records` records: `min == max` leaves the
    /// feedback rule nothing to choose.
    pub fn fixed(records: usize) -> EpochConfig {
        EpochConfig { initial: records, min: records, max: records, target_checks: records as u64 }
    }

    pub(crate) fn initial_budget(&self) -> usize {
        self.clamp_budget(self.initial)
    }

    /// The budget following an epoch that held `records` records and
    /// delivered `checks` check events.
    pub(crate) fn next_budget(&self, records: usize, checks: u64) -> usize {
        adaptive_next_budget(records, checks, self.target_checks, self.min, self.max)
    }

    /// Re-clamps a budget carried over from an earlier pipelined stretch.
    /// The pool keeps a session's last budget across pipeline exit/re-entry
    /// so a hot phase resumes where it left off, but the carried value must
    /// still honor the configuration's `min`/`max` (the config may not be
    /// the one that produced it).
    pub(crate) fn clamp_budget(&self, budget: usize) -> usize {
        budget.clamp(self.min, self.max)
    }
}

/// The feedback rule: the next epoch's record budget is the record count at
/// which the *previous* epoch's observed check density (`checks / records`)
/// would deliver exactly `target_checks` checks, clamped to `[min, max]`.
/// An epoch that observed no checks at all jumps straight to `max` (nothing
/// to amortize against), so idle phases are spanned by the longest epochs
/// the configuration allows.
pub(crate) fn adaptive_next_budget(
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

/// Is `ev` a checking event? This classification feeds the check density
/// the sizing rule consumes, for every lifeguard; whether the spine may
/// *skip* the event is the separate, per-lifeguard
/// [`igm_lifeguards::LifeguardKind::spine_elides`].
pub(crate) fn is_check_event(ev: &Event) -> bool {
    matches!(ev, Event::Check { .. } | Event::MemRead(_) | Event::MemWrite(_))
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
        let fixed = EpochConfig::fixed(4_096);
        assert_eq!(fixed.initial_budget(), 4_096);
        assert_eq!(fixed.next_budget(4_096, 1), 4_096, "fixed sizing ignores feedback");
        assert_eq!(fixed.next_budget(4_096, 1_000_000), 4_096, "fixed sizing ignores feedback");
        assert_eq!(fixed.next_budget(4_096, 0), 4_096, "a check-free epoch keeps the budget");
        let adaptive = EpochConfig { initial: 1_024, min: 256, max: 16_384, target_checks: 2_048 };
        assert_eq!(adaptive.initial_budget(), 1_024);
        assert_eq!(adaptive.next_budget(1_024, 512), 4_096);
    }

    /// Satellite of the pipelining work: a budget carried across a
    /// pipeline exit/re-entry must be re-clamped to the (possibly
    /// different) configuration's bounds before the first epoch runs.
    #[test]
    fn carried_budgets_are_reclamped_on_pipeline_reentry() {
        let adaptive = EpochConfig { initial: 1_024, min: 256, max: 16_384, target_checks: 2_048 };
        assert_eq!(adaptive.clamp_budget(64), 256, "below min clamps up");
        assert_eq!(adaptive.clamp_budget(1_000_000), 16_384, "above max clamps down");
        assert_eq!(adaptive.clamp_budget(4_096), 4_096, "in-range budgets carry over");
        assert_eq!(EpochConfig::fixed(4_096).clamp_budget(9), 4_096, "fixed ignores carryover");
    }
}

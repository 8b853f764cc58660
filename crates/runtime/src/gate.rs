//! The entry decision behind [`PipelineMode::Auto`](crate::PipelineMode::Auto),
//! as a pure function of what the pool measured.
//!
//! Epoch pipelining replays every record a second time (the spine runs the
//! updates, the epoch job the full stream), so it only pays while some
//! worker would otherwise sit idle. When a plain session has been hot for a
//! few turns the pool asks [`entry`] whether to switch it: only if another
//! worker is parked right now. The caller (`ActiveSession::entry_decision`
//! in `pool.rs`) gathers the inputs and acts on the verdict; the outcome
//! never changes a session's results, only where its cycles go.
//!
//! A stretch, once entered, runs until the session's backlog drains.
//! Ending one early because it measures slower than plain pumping is not
//! decided here: `pipeline_enter` / `pipeline_exit` carry the two rates, and
//! no workload has yet been measured where such a rule would pay.

/// Consecutive pump turns a session's log channel must be at least half
/// full before the gate considers pipelining it — long enough that one
/// bursty chunk train does not pay the snapshot cost, short enough that a
/// genuinely hot tenant is looked at within a few turns.
pub(crate) const HOT_TURNS_TO_PIPELINE: u32 = 3;

/// The `reason` label of `igm_epoch_pipeline_declined_total` when every
/// other worker is busy (or there is no other worker): the replay would be
/// paid for out of the session's own worker.
pub(crate) const DECLINED_NO_IDLE_WORKER: &str = "no_idle_worker";

/// Verdict on a plain session at the start of a pump turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// Not hot for long enough yet.
    Wait,
    /// Switch to the pipelined path.
    Enter,
    /// Hot for long enough, but no worker is idle: stay plain; the hot-turn
    /// count restarts.
    Decline,
}

/// Should a session whose channel has been hot for `hot_turns` turns enter
/// the pipelined path, given `parked_workers` other workers parked on
/// their doorbells?
pub(crate) fn entry(hot_turns: u32, parked_workers: usize) -> Entry {
    if hot_turns < HOT_TURNS_TO_PIPELINE {
        Entry::Wait
    } else if parked_workers == 0 {
        Entry::Decline
    } else {
        Entry::Enter
    }
}

/// `records` over `nanos` as whole records per second (0 when no time has
/// passed).
pub(crate) fn records_per_sec(records: u64, nanos: u64) -> u64 {
    if nanos == 0 {
        return 0;
    }
    u64::try_from(u128::from(records) * 1_000_000_000 / u128::from(nanos)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_table() {
        use Entry::{Decline, Enter, Wait};
        // (hot_turns, parked_workers) → verdict
        let table = [
            ((0, 3), Wait),
            ((HOT_TURNS_TO_PIPELINE - 1, 3), Wait),
            ((HOT_TURNS_TO_PIPELINE - 1, 0), Wait),
            // One worker, or every other worker busy: never, however hot.
            ((HOT_TURNS_TO_PIPELINE, 0), Decline),
            ((1_000, 0), Decline),
            ((HOT_TURNS_TO_PIPELINE, 1), Enter),
            ((HOT_TURNS_TO_PIPELINE + 7, 3), Enter),
        ];
        for ((hot, parked), want) in table {
            assert_eq!(entry(hot, parked), want, "entry({hot}, {parked})");
        }
    }

    #[test]
    fn rates_round_down_and_survive_zero_time() {
        assert_eq!(records_per_sec(32_768, 1_000_000), 32_768_000);
        assert_eq!(records_per_sec(1, 3), 333_333_333);
        assert_eq!(records_per_sec(5, 0), 0);
        assert_eq!(records_per_sec(u64::MAX, 1), u64::MAX);
    }
}

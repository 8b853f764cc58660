//! Aggregated runtime statistics and per-session reports.
//!
//! Since the `igm-obs` integration, [`PoolStats`] is a *view over the
//! pool's metrics registry* rather than parallel bookkeeping: each field
//! is an [`igm_obs::Counter`] handle registered under an `igm_pool_*`
//! name, so [`PoolStatsSnapshot`] and the `/metrics` scrape read the same
//! atomics. Cloning a `PoolStats` (`PoolStats::per_worker`) claims a
//! fresh counter stripe per handle, so each worker thread increments
//! disjoint cache lines.

use crate::pool::SessionId;
use crate::spsc::ChannelStatsSnapshot;
use igm_core::DispatchStats;
use igm_lifeguards::{LifeguardKind, Violation};
use igm_obs::{Counter, MetricsRegistry};
use std::time::{Duration, Instant};

/// Pool-wide monotone counters: registry handles, updated by the workers
/// with relaxed striped atomics — the hot path never takes a lock for
/// accounting.
#[derive(Debug, Clone)]
pub struct PoolStats {
    pub(crate) records: Counter,
    pub(crate) events_delivered: Counter,
    pub(crate) violations: Counter,
    pub(crate) sessions_opened: Counter,
    pub(crate) sessions_closed: Counter,
    pub(crate) epoch_jobs: Counter,
    pub(crate) steals: Counter,
    pub(crate) parks: Counter,
    pub(crate) helped_turns: Counter,
    started: Instant,
}

impl PoolStats {
    /// Registers the pool counter family on `registry`; the pool's own
    /// stats snapshot reads them back.
    pub(crate) fn new(registry: &MetricsRegistry) -> PoolStats {
        PoolStats {
            records: registry
                .counter("igm_pool_records_total", "records processed across sessions"),
            events_delivered: registry.counter(
                "igm_pool_events_delivered_total",
                "events delivered to lifeguard handlers",
            ),
            violations: registry.counter("igm_pool_violations_total", "violations reported"),
            sessions_opened: registry
                .counter("igm_pool_sessions_opened_total", "sessions ever opened"),
            sessions_closed: registry
                .counter("igm_pool_sessions_closed_total", "sessions finalized"),
            epoch_jobs: registry.counter("igm_pool_epoch_jobs_total", "epoch jobs executed"),
            steals: registry
                .counter("igm_pool_steals_total", "sessions migrated by the stealing scheduler"),
            parks: registry.counter("igm_pool_parks_total", "times an idle worker parked"),
            helped_turns: registry.counter(
                "igm_pool_helped_turns_total",
                "session turns run by a waiting producer instead of a worker",
            ),
            started: Instant::now(),
        }
    }

    /// A per-worker clone: every counter handle claims its own stripe, so
    /// the worker's hot increments touch cache lines no other worker does.
    pub(crate) fn per_worker(&self) -> PoolStats {
        self.clone()
    }

    pub(crate) fn snapshot(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            records: self.records.value(),
            events_delivered: self.events_delivered.value(),
            violations: self.violations.value(),
            sessions_opened: self.sessions_opened.value(),
            sessions_closed: self.sessions_closed.value(),
            epoch_jobs: self.epoch_jobs.value(),
            steals: self.steals.value(),
            parks: self.parks.value(),
            helped_turns: self.helped_turns.value(),
            uptime: self.started.elapsed(),
        }
    }
}

/// A point-in-time view of a pool's aggregate counters.
#[derive(Debug, Clone, Copy)]
pub struct PoolStatsSnapshot {
    /// Records processed across all sessions (an epoch job re-runs records
    /// its session already counted, so it adds none).
    pub records: u64,
    /// Events delivered to lifeguard handlers (finalized sessions; open
    /// sessions contribute on close).
    pub events_delivered: u64,
    /// Violations reported.
    pub violations: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions finalized.
    pub sessions_closed: u64,
    /// Epoch jobs executed for pipelined sessions.
    pub epoch_jobs: u64,
    /// Sessions migrated between workers by the work-stealing scheduler
    /// (each steal transfers the session's pending batches *and* its shadow
    /// shard to the thief).
    pub steals: u64,
    /// Times an idle worker parked waiting for work (a measure of how often
    /// the pool went to sleep vs. spun through work).
    pub parks: u64,
    /// Session turns a waiting producer ran on its own thread
    /// ([`MonitorPool::help`](crate::MonitorPool::help)): a blocked
    /// `send_batch`, an idle `Ingestor` pass or a pending `finish`. Their
    /// records count into `records` once, like a worker's.
    pub helped_turns: u64,
    /// Time since the pool started.
    pub uptime: Duration,
}

impl PoolStatsSnapshot {
    /// Aggregate records per second since the pool started.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records as f64 / secs
        }
    }
}

/// Everything one finished tenant session produced.
#[derive(Debug)]
pub struct SessionReport {
    /// Pool-wide session id.
    pub id: SessionId,
    /// Tenant label.
    pub name: String,
    /// Which lifeguard monitored the tenant.
    pub lifeguard: LifeguardKind,
    /// Records processed.
    pub records: u64,
    /// Dispatch pipeline counters.
    pub dispatch: DispatchStats,
    /// Violations reported, in trace order.
    pub violations: Vec<Violation>,
    /// Parallel to `violations`: each violation's global record id
    /// ([`igm_span::RecordId`]), exact — the record whose events held the
    /// one the lifeguard was handling when it reported the violation,
    /// which is the record a one-record-at-a-time `Monitor` would have
    /// just observed, on plain and pipelined sessions alike. `None` for
    /// end-of-run properties (leaks).
    pub violation_records: Vec<Option<igm_span::RecordId>>,
    /// Final lifeguard metadata footprint in bytes.
    pub metadata_bytes: u64,
    /// Log-channel transport counters (stalls, peak occupancy, depth).
    pub channel: ChannelStatsSnapshot,
    /// Wall-clock session duration (open → finalize).
    pub wall: Duration,
}

impl SessionReport {
    /// Records per wall-clock second for this session.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records as f64 / secs
        }
    }

    /// One formatted row for [`stats_table`].
    pub fn table_row(&self) -> String {
        format!(
            "{:<10} {:<28} {:>10} {:>12.0} {:>7} {:>8} {:>10}",
            self.name,
            self.lifeguard.name(),
            self.records,
            self.records_per_sec(),
            self.violations.len(),
            self.channel.stall_events,
            self.channel.peak_bytes,
        )
    }
}

/// Renders finished sessions as the aggregated stats table the examples
/// print.
pub fn stats_table(reports: &[SessionReport]) -> String {
    let mut out = format!(
        "{:<10} {:<28} {:>10} {:>12} {:>7} {:>8} {:>10}\n",
        "tenant", "lifeguard", "records", "records/s", "viols", "stalls", "peak B"
    );
    for r in reports {
        out.push_str(&r.table_row());
        out.push('\n');
    }
    let records: u64 = reports.iter().map(|r| r.records).sum();
    let viols: usize = reports.iter().map(|r| r.violations.len()).sum();
    out.push_str(&format!("total      {records} records, {viols} violations\n"));
    out
}

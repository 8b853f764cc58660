//! The correctness gate: a sequential `Monitor` reference per tenant, and
//! the counter every workload tallies its checked operations into.
//!
//! Every execution strategy must return the violations and `DispatchStats`
//! the sequential monitor returns for the same records; each operation that
//! does not counts as failed.

use crate::inputs::Tenant;
use igm::accel::{AccelConfig, DispatchStats};
use igm::lba::TraceBatch;
use igm::lifeguards::{Lifeguard, LifeguardKind, Violation};
use igm::runtime::SessionReport;
use igm::sim::Monitor;
use std::time::Instant;

/// Attempted and failed operations (sessions, connections, queries,
/// replays, planted violations), with the first few failure messages.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Gate {
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Counts one operation; `ok == false` fails it with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(why());
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What the sequential monitor produced for one tenant.
#[derive(Debug, Clone)]
pub struct Reference {
    pub violations: Vec<Violation>,
    pub dispatch: DispatchStats,
    pub records: u64,
    /// Seconds inside `observe_trace_batch` for the whole trace.
    pub secs: f64,
}

/// Runs `batches` through a fresh single-threaded [`Monitor`] under the
/// lifeguard state a pool session for the same tenant starts from.
pub fn sequential<'a>(
    kind: LifeguardKind,
    accel: &AccelConfig,
    premark: &[(u32, u32)],
    batches: impl IntoIterator<Item = &'a TraceBatch>,
) -> Reference {
    let mut monitor = fresh_monitor(kind, accel, premark);
    let mut records = 0u64;
    let started = Instant::now();
    for batch in batches {
        records += batch.len() as u64;
        monitor.observe_trace_batch(batch);
    }
    let secs = started.elapsed().as_secs_f64();
    Reference {
        violations: monitor.violations().to_vec(),
        dispatch: monitor.dispatch_stats().clone(),
        records,
        secs,
    }
}

/// A monitor in the state every session starts from: synthetic-workload
/// mode on, loader regions pre-marked.
pub fn fresh_monitor(
    kind: LifeguardKind,
    accel: &AccelConfig,
    premark: &[(u32, u32)],
) -> Monitor<igm::lifeguards::AnyLifeguard> {
    let mut lifeguard = kind.build_any(accel);
    lifeguard.set_synthetic_workload_mode(true);
    for (base, len) in premark {
        lifeguard.premark_region(*base, *len);
    }
    Monitor::new(lifeguard, accel)
}

/// The reference for a whole tenant.
pub fn for_tenant(t: &Tenant) -> Reference {
    sequential(t.kind, &t.accel, &t.trace.premark, &t.trace.batches)
}

/// Gates one finished session against its reference: same violations in
/// the same order, same dispatch counters, same record count.
pub fn check_session(gate: &mut Gate, what: &str, report: &SessionReport, want: &Reference) {
    gate.check(
        report.records == want.records
            && report.violations == want.violations
            && report.dispatch == want.dispatch,
        || {
            format!(
                "{what}: session {} got records {} violations {} delivered {}, reference has {} / {} / {}",
                report.name,
                report.records,
                report.violations.len(),
                report.dispatch.delivered,
                want.records,
                want.violations.len(),
                want.dispatch.delivered
            )
        },
    );
}

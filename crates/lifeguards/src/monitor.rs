//! The lifeguard core as one unit (LBA §3): `nlba` dispatch through the
//! ETCT and the accelerators, then the handlers. [`Monitor`] is the one
//! place a lifeguard meets its [`DispatchPipeline`]; the co-simulator, pool
//! sessions, epoch jobs, the examples and every sequential reference in the
//! tests build on it.

use crate::{AnyLifeguard, CostSink, Lifeguard, LifeguardKind, Violation};
use igm_core::{AccelConfig, DispatchPipeline, DispatchStats};
use igm_isa::TraceEntry;
use igm_lba::{EventBuf, TraceBatch};

/// Records per dispatch batch in [`Monitor::observe_all`].
const OBSERVE_BATCH_RECORDS: usize = 1_024;

/// A lifeguard attached to its masked dispatch pipeline, with staging
/// buffers reused across batches. A clone snapshots both halves (an epoch
/// boundary). The generic parameter keeps the concrete lifeguard
/// accessible (e.g. [`crate::TaintCheckDetailed::taint_trail`]).
#[derive(Debug, Clone)]
pub struct Monitor<L: Lifeguard> {
    lifeguard: L,
    pipeline: DispatchPipeline,
    cost: CostSink,
    events: EventBuf,
    /// Column arena [`Monitor::observe_all`] buffers its records in.
    batch: TraceBatch,
}

impl Monitor<AnyLifeguard> {
    /// `kind` under `accel`, in synthetic-workload mode if `synthetic`
    /// ([`Lifeguard::set_synthetic_workload_mode`]), `premark` pre-marked.
    pub fn build(
        kind: LifeguardKind,
        accel: &AccelConfig,
        synthetic: bool,
        premark: &[(u32, u32)],
    ) -> Self {
        let mut lifeguard = kind.build_any(accel);
        if synthetic {
            lifeguard.set_synthetic_workload_mode(true);
        }
        for &(base, len) in premark {
            lifeguard.premark_region(base, len);
        }
        Monitor::new(lifeguard, accel)
    }
}

impl<L: Lifeguard> Monitor<L> {
    /// Attaches `lifeguard` under `accel` (masked by the lifeguard's
    /// Figure 2 applicability row).
    pub fn new(lifeguard: L, accel: &AccelConfig) -> Monitor<L> {
        let masked = lifeguard.kind().mask_config(accel);
        let pipeline = DispatchPipeline::new(lifeguard.etct(), &masked);
        Monitor {
            lifeguard,
            pipeline,
            // Nothing here reads handler costs; a caller that feeds them to
            // the timing model passes its own sink to `observe_into`.
            cost: CostSink::discarding(),
            events: EventBuf::new(),
            batch: TraceBatch::new(),
        }
    }

    /// The one dispatch + handle pass: `batch` through the pipeline into
    /// `events`, then one handler pass over them into `cost` (cleared
    /// first). Pipeline and lifeguard state carry across calls.
    pub fn observe_into(&mut self, batch: &TraceBatch, events: &mut EventBuf, cost: &mut CostSink) {
        self.pipeline.dispatch_batch(batch, events);
        cost.clear();
        self.lifeguard.handle_batch(events.events(), cost);
    }

    /// Observes a whole columnar [`TraceBatch`] on the hot path:
    /// [`Monitor::observe_into`] on the Monitor's own staging buffers.
    pub fn observe_trace_batch(&mut self, batch: &TraceBatch) {
        let (mut events, mut cost) =
            (std::mem::take(&mut self.events), std::mem::take(&mut self.cost));
        self.observe_into(batch, &mut events, &mut cost);
        (self.events, self.cost) = (events, cost);
    }

    /// Observes a whole trace, buffering it column-first at
    /// `OBSERVE_BATCH_RECORDS` grain.
    pub fn observe_all<I: IntoIterator<Item = TraceEntry>>(&mut self, trace: I) {
        let mut buf = std::mem::take(&mut self.batch);
        buf.clear();
        for e in trace {
            buf.push(&e);
            if buf.len() == OBSERVE_BATCH_RECORDS {
                self.observe_trace_batch(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.observe_trace_batch(&buf);
        }
        self.batch = buf;
    }

    /// The record sequence of each violation held, all reported by the last
    /// pass over `events`, whose first record is `first_record`: the record
    /// holding the event its handler ran on ([`Lifeguard::violation_events`]).
    /// A violation without a pc (a leak) anchors to no record.
    pub fn record_seqs(&self, events: &EventBuf, first_record: u64) -> Vec<Option<u64>> {
        let seq = |at: u32| first_record + events.record_of(at as usize) as u64;
        self.violations()
            .iter()
            .zip(self.lifeguard.violation_events())
            .map(|(v, &at)| v.pc().map(|_| seq(at)))
            .collect()
    }

    /// The events the last [`Monitor::observe_trace_batch`] delivered.
    pub fn events(&self) -> &EventBuf {
        &self.events
    }

    /// The dispatch pipeline (its IT and IF counters).
    pub fn pipeline(&self) -> &DispatchPipeline {
        &self.pipeline
    }

    /// The pipeline, for a caller that handles only some of what it
    /// dispatches (a pipelined session's spine).
    pub fn pipeline_mut(&mut self) -> &mut DispatchPipeline {
        &mut self.pipeline
    }

    /// The monitored lifeguard.
    pub fn lifeguard(&self) -> &L {
        &self.lifeguard
    }

    /// Mutable access to the lifeguard (pre-marking regions, draining
    /// violations).
    pub fn lifeguard_mut(&mut self) -> &mut L {
        &mut self.lifeguard
    }

    /// Violations reported so far.
    pub fn violations(&self) -> &[Violation] {
        self.lifeguard.violations()
    }

    /// Pipeline counters.
    pub fn dispatch_stats(&self) -> &DispatchStats {
        self.pipeline.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaintCheck;
    use igm_isa::asm::{Addressing, ProgramBuilder};
    use igm_isa::{Annotation, Machine, MemSize, Reg};

    /// End-to-end: machine executes a program that jumps through a tainted
    /// pointer; TaintCheck under the full pipeline catches it.
    #[test]
    fn machine_trace_through_monitor_detects_hijack() {
        let mut p = ProgramBuilder::new(0x0804_8000);
        p.annot(Annotation::ReadInput { base: 0x9000, len: 4 });
        p.load(Reg::Eax, Addressing::abs(0x9000, MemSize::B4));
        p.jmp_ind_reg(Reg::Eax);
        p.halt();
        let mut m = Machine::new(p.build());
        m.feed_input(&0x0804_800cu32.to_le_bytes()); // target: the halt
        m.run().unwrap();

        for accel in [AccelConfig::baseline(), AccelConfig::full()] {
            let mut mon = Monitor::new(TaintCheck::new(&accel), &accel);
            mon.observe_all(m.trace().iter().copied());
            assert_eq!(
                mon.violations().len(),
                1,
                "accel {}: tainted jump must be flagged",
                accel.label()
            );
        }
    }

    #[test]
    fn acceleration_does_not_change_verdicts_on_clean_code() {
        let mut p = ProgramBuilder::new(0x0804_8000);
        p.mov_ri(Reg::Eax, 0x1234);
        p.store(Addressing::abs(0x9000, MemSize::B4), Reg::Eax);
        p.load(Reg::Ecx, Addressing::abs(0x9000, MemSize::B4));
        p.halt();
        let mut m = Machine::new(p.build());
        m.run().unwrap();
        for accel in [AccelConfig::baseline(), AccelConfig::full()] {
            let mut mon = Monitor::new(TaintCheck::new(&accel), &accel);
            mon.observe_all(m.trace().iter().copied());
            assert!(mon.violations().is_empty());
        }
    }
}

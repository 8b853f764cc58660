//! Functional (untimed) monitoring of real machine traces.
//!
//! [`Monitor`] wires a concrete lifeguard to the dispatch pipeline without
//! the timing model — the configuration used by the examples and the
//! bug-detection tests, where what matters is *what* is detected, not how
//! fast. The generic parameter keeps the concrete lifeguard accessible
//! (e.g. [`igm_lifeguards::TaintCheckDetailed::taint_trail`]).

use igm_core::{AccelConfig, DispatchPipeline, DispatchStats};
use igm_isa::TraceEntry;
use igm_lba::{EventBuf, TraceBatch};
use igm_lifeguards::{CostSink, Lifeguard, Violation};

/// Records per dispatch batch in [`Monitor::observe_all`].
const OBSERVE_BATCH_RECORDS: usize = 1_024;

/// A lifeguard attached to a dispatch pipeline.
#[derive(Debug)]
pub struct Monitor<L: Lifeguard> {
    lifeguard: L,
    pipeline: DispatchPipeline,
    cost: CostSink,
    events: EventBuf,
    /// Column conversion arena for the entry-slice compatibility paths.
    batch: TraceBatch,
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
            // Nothing here reads handler costs; `Simulator` is the path
            // that feeds them to the timing model.
            cost: CostSink::discarding(),
            events: EventBuf::new(),
            batch: TraceBatch::new(),
        }
    }

    /// Observes a whole columnar [`TraceBatch`] on the hot path: one
    /// column-sweep pipeline pass, one handler pass, staging buffers
    /// reused across calls.
    pub fn observe_trace_batch(&mut self, batch: &TraceBatch) {
        self.pipeline.dispatch_batch(batch, &mut self.events);
        self.cost.clear();
        self.lifeguard.handle_batch(self.events.events(), &mut self.cost);
    }

    /// Observes a whole chunk of retired-instruction records held as an
    /// entry slice (compatibility path: the records are scattered into a
    /// reused column arena first).
    pub fn observe_batch(&mut self, entries: &[TraceEntry]) {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.extend_entries(entries.iter().copied());
        self.observe_trace_batch(&batch);
        self.batch = batch;
    }

    /// Observes one retired-instruction record.
    pub fn observe(&mut self, entry: &TraceEntry) {
        self.observe_batch(std::slice::from_ref(entry));
    }

    /// Observes a whole trace, buffering it column-first at
    /// [`OBSERVE_BATCH_RECORDS`] grain.
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

    /// Recovers the lifeguard.
    pub fn into_lifeguard(self) -> L {
        self.lifeguard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_core::ItConfig;
    use igm_isa::asm::{Addressing, ProgramBuilder};
    use igm_isa::{Annotation, Machine, MemSize, Reg};
    use igm_lifeguards::TaintCheck;

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

        for accel in [AccelConfig::baseline(), AccelConfig::full(ItConfig::taint_style())] {
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
        for accel in [AccelConfig::baseline(), AccelConfig::full(ItConfig::taint_style())] {
            let mut mon = Monitor::new(TaintCheck::new(&accel), &accel);
            mon.observe_all(m.trace().iter().copied());
            assert!(mon.violations().is_empty());
        }
    }
}

//! The producer/consumer co-simulation.
//!
//! One pass over the trace computes three timelines:
//!
//! * the **stand-alone** application (no monitoring; its own cache
//!   hierarchy) — the denominator of every slowdown;
//! * the **monitored producer** — same instruction stream plus log-write
//!   traffic and wrapper/annotation overheads, stalled when the log buffer
//!   fills and at system calls until the consumer drains;
//! * the **consumer** — hardware dispatch per record plus, for every
//!   delivered event, the `nlba` dispatch and the handler's reported
//!   instructions and metadata references (played against the consumer's
//!   L1 and the *shared* L2).
//!
//! Buffer coupling uses the classic bounded-queue recurrence: the producer
//! cannot append record *i* until the consumer has freed enough bytes; the
//! consumer cannot start record *i* before the producer finishes it.

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::params::*;
use igm_isa::{Annotation, TraceEntry, TraceOp};
use igm_lba::record::{compressed_size, ANNOTATION_RECORD_BYTES};
use std::collections::VecDeque;

/// Private caches of one core.
#[derive(Debug)]
struct CoreCaches {
    l1i: Cache,
    l1d: Cache,
}

impl CoreCaches {
    fn new(cfg: &SystemConfig) -> CoreCaches {
        CoreCaches { l1i: Cache::new(cfg.l1i), l1d: Cache::new(cfg.l1d) }
    }
}

/// Timing outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct TimingReport {
    /// Stand-alone application time, in cycles.
    pub app_alone_cycles: u64,
    /// Monitored application finish time, in cycles.
    pub monitored_cycles: u64,
    /// Consumer finish time, in cycles.
    pub consumer_cycles: u64,
    /// Producer cycles lost to a full log buffer.
    pub producer_stall_cycles: u64,
    /// Producer cycles lost to system-call drains.
    pub syscall_drain_cycles: u64,
    /// Records processed.
    pub records: u64,
    /// Events delivered to handlers.
    pub delivered_events: u64,
    /// Handler instructions executed on the consumer.
    pub handler_instrs: u64,
}

impl TimingReport {
    /// Monitored / stand-alone time: the paper's slowdown metric.
    pub fn slowdown(&self) -> f64 {
        if self.app_alone_cycles == 0 {
            1.0
        } else {
            self.monitored_cycles as f64 / self.app_alone_cycles as f64
        }
    }
}

/// The co-simulator. Drive it with [`CoSim::step_record`] once per trace
/// record, then call [`CoSim::finish`].
#[derive(Debug)]
pub struct CoSim {
    cfg: SystemConfig,
    prod: CoreCaches,
    cons: CoreCaches,
    shared_l2: Cache,
    alone: CoreCaches,
    alone_l2: Cache,
    /// In-flight records: (consumer finish tick, size in bytes).
    inflight: VecDeque<(u64, u32)>,
    occupied_bytes: u32,
    prod_time: u64,
    cons_time: u64,
    alone_time: u64,
    stall_ticks: u64,
    drain_ticks: u64,
    records: u64,
    delivered: u64,
    handler_instrs: u64,
}

impl CoSim {
    /// Creates a co-simulator for `cfg`.
    ///
    /// # Panics
    ///
    /// If `cfg.log_buffer_bytes` cannot hold the largest record
    /// ([`ANNOTATION_RECORD_BYTES`]): the backpressure loop could then
    /// never make room for it.
    pub fn new(cfg: SystemConfig) -> CoSim {
        assert!(
            cfg.log_buffer_bytes >= ANNOTATION_RECORD_BYTES,
            "SystemConfig::log_buffer_bytes is {} but one annotation record needs \
             ANNOTATION_RECORD_BYTES = {ANNOTATION_RECORD_BYTES}",
            cfg.log_buffer_bytes
        );
        CoSim {
            prod: CoreCaches::new(&cfg),
            cons: CoreCaches::new(&cfg),
            shared_l2: Cache::new(cfg.l2),
            alone: CoreCaches::new(&cfg),
            alone_l2: Cache::new(cfg.l2),
            cfg,
            inflight: VecDeque::new(),
            occupied_bytes: 0,
            prod_time: 0,
            cons_time: 0,
            alone_time: 0,
            stall_ticks: 0,
            drain_ticks: 0,
            records: 0,
            delivered: 0,
            handler_instrs: 0,
        }
    }

    /// Extra ticks beyond the pipelined L1 access for one data reference.
    fn data_penalty(l1: &mut Cache, l2: &mut Cache, mem_latency: u32, addr: u32) -> u64 {
        if l1.access(addr) {
            0
        } else if l2.access(addr) {
            l2.config().latency as u64 * TICKS_PER_CYCLE
        } else {
            (l2.config().latency as u64 + mem_latency as u64) * TICKS_PER_CYCLE
        }
    }

    /// Producer-side cost of one record (instruction execution, cache
    /// behaviour, wrapper overheads), charged to the chosen core state.
    fn producer_cost(
        entry: &TraceEntry,
        core: &mut CoreCaches,
        l2: &mut Cache,
        mem_latency: u32,
    ) -> u64 {
        let mut ticks;
        match &entry.op {
            TraceOp::Annot(a) => {
                ticks = ANNOTATION_TICKS;
                match a {
                    Annotation::Malloc { .. } | Annotation::Free { .. } => ticks += MALLOC_TICKS,
                    Annotation::Syscall { .. } | Annotation::ReadInput { .. } => {
                        ticks += SYSCALL_TICKS
                    }
                    Annotation::ThreadSwitch { .. } | Annotation::ThreadExit { .. } => {
                        ticks += THREAD_SWITCH_TICKS
                    }
                    _ => {}
                }
            }
            _ => {
                ticks = PRODUCER_INSTR_TICKS;
                ticks += Self::data_penalty(&mut core.l1i, l2, mem_latency, entry.pc);
                if let Some(m) = entry.mem_read() {
                    ticks += Self::data_penalty(&mut core.l1d, l2, mem_latency, m.addr);
                }
                if let Some(m) = entry.mem_write() {
                    ticks += Self::data_penalty(&mut core.l1d, l2, mem_latency, m.addr);
                }
            }
        }
        ticks
    }

    /// Advances both timelines by one record.
    ///
    /// `delivered_events`, `handler_instrs` and `handler_mem` describe the
    /// consumer-side work this record caused after acceleration (from the
    /// dispatch pipeline and the lifeguard's [`CostSink`]); pass zeros for
    /// an unmonitored run.
    ///
    /// [`CostSink`]: https://docs.rs/igm-lifeguards
    pub fn step_record(
        &mut self,
        entry: &TraceEntry,
        delivered_events: u32,
        handler_instrs: u64,
        handler_mem: &[u32],
    ) {
        self.records += 1;
        self.delivered += delivered_events as u64;
        self.handler_instrs += handler_instrs;
        let mem_latency = self.cfg.mem_latency;

        // --- stand-alone timeline (own cache hierarchy, no log) ---
        self.alone_time +=
            Self::producer_cost(entry, &mut self.alone, &mut self.alone_l2, mem_latency);

        // --- monitored producer ---
        let size = compressed_size(entry);
        // Backpressure: free space by waiting for the consumer to finish
        // the oldest in-flight records.
        while self.occupied_bytes + size > self.cfg.log_buffer_bytes {
            let (finish, freed) =
                self.inflight.pop_front().expect("occupied bytes imply in-flight records");
            self.occupied_bytes -= freed;
            if finish > self.prod_time {
                self.stall_ticks += finish - self.prod_time;
                self.prod_time = finish;
            }
        }
        // System-call containment: drain the buffer before entering the
        // kernel (paper §3).
        if let TraceOp::Annot(a) = &entry.op {
            if a.is_sync_point() && self.cons_time > self.prod_time {
                self.drain_ticks += self.cons_time - self.prod_time;
                self.prod_time = self.cons_time;
            }
        }
        let mut pcost =
            Self::producer_cost(entry, &mut self.prod, &mut self.shared_l2, mem_latency);
        // Log-write traffic: the record buffer drains one 64 B line to the
        // L2 per LOG_LINE_RECORDS records; the store buffer hides all but
        // about a cycle of it.
        if self.records.is_multiple_of(LOG_LINE_RECORDS) {
            pcost += TICKS_PER_CYCLE;
        }
        self.prod_time += pcost;

        // --- consumer ---
        let mut ccost = DISPATCH_TICKS_PER_RECORD;
        if self.records.is_multiple_of(LOG_LINE_RECORDS) {
            // Fetch the next log line from the L2-resident buffer.
            ccost += self.cfg.l2.latency as u64 * TICKS_PER_CYCLE;
        }
        ccost += delivered_events as u64 * NLBA_TICKS;
        ccost += handler_instrs * HANDLER_INSTR_TICKS;
        for &va in handler_mem {
            ccost += Self::data_penalty(&mut self.cons.l1d, &mut self.shared_l2, mem_latency, va);
        }
        let start = self.cons_time.max(self.prod_time);
        self.cons_time = start + ccost;
        self.inflight.push_back((self.cons_time, size));
        self.occupied_bytes += size;
    }

    /// Finalizes the run: the application's completion additionally waits
    /// for the lifeguard to finish checking (the final drain).
    pub fn finish(mut self) -> TimingReport {
        if self.cons_time > self.prod_time {
            self.drain_ticks += self.cons_time - self.prod_time;
            self.prod_time = self.cons_time;
        }
        TimingReport {
            app_alone_cycles: self.alone_time / TICKS_PER_CYCLE,
            monitored_cycles: self.prod_time / TICKS_PER_CYCLE,
            consumer_cycles: self.cons_time / TICKS_PER_CYCLE,
            producer_stall_cycles: self.stall_ticks / TICKS_PER_CYCLE,
            syscall_drain_cycles: self.drain_ticks / TICKS_PER_CYCLE,
            records: self.records,
            delivered_events: self.delivered,
            handler_instrs: self.handler_instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{MemRef, OpClass, Reg};

    fn instr(i: u32) -> TraceEntry {
        TraceEntry::op(0x1000 + (i % 16) * 4, OpClass::ImmToReg { rd: Reg::Eax })
    }

    fn load(i: u32) -> TraceEntry {
        TraceEntry::op(
            0x1000,
            OpClass::MemToReg { src: MemRef::word(0x9000 + (i % 16) * 4), rd: Reg::Eax },
        )
    }

    #[test]
    fn unmonitored_run_has_unit_slowdown() {
        let mut sim = CoSim::new(SystemConfig::isca08());
        for i in 0..10_000 {
            sim.step_record(&instr(i), 0, 0, &[]);
        }
        let r = sim.finish();
        // Hardware dispatch is faster than the producer: only the ~1.6%
        // log-capture overhead remains.
        assert!(r.slowdown() < 1.03, "slowdown {}", r.slowdown());
    }

    #[test]
    fn heavy_handlers_make_the_consumer_the_bottleneck() {
        let mut sim = CoSim::new(SystemConfig::isca08());
        for i in 0..50_000 {
            // Every record delivers one event with a 10-instruction handler.
            sim.step_record(&load(i), 1, 10, &[0x2000_0000 + (i % 8) * 64]);
        }
        let r = sim.finish();
        // Producer ~1 cycle/record; consumer ~12+ cycles/record.
        assert!(r.slowdown() > 5.0, "slowdown {}", r.slowdown());
        assert!(r.producer_stall_cycles + r.syscall_drain_cycles > 0);
    }

    #[test]
    fn slowdown_scales_with_handler_cost() {
        let run = |instrs: u64| {
            let mut sim = CoSim::new(SystemConfig::isca08());
            for i in 0..20_000 {
                sim.step_record(&load(i), 1, instrs, &[]);
            }
            sim.finish().slowdown()
        };
        let light = run(2);
        let heavy = run(12);
        assert!(heavy > light * 1.5, "light {light}, heavy {heavy}");
    }

    #[test]
    fn filtered_events_cost_nothing() {
        let run = |delivered: u32| {
            let mut sim = CoSim::new(SystemConfig::isca08());
            for i in 0..20_000 {
                sim.step_record(&load(i), delivered, delivered as u64 * 8, &[]);
            }
            sim.finish().slowdown()
        };
        assert!(run(0) < run(1));
    }

    #[test]
    fn syscalls_drain_the_buffer() {
        let mut sim = CoSim::new(SystemConfig::isca08());
        for i in 0..1000 {
            sim.step_record(&load(i), 1, 50, &[]);
        }
        let sys = TraceEntry::annot(0, Annotation::Syscall { arg_reg: None, arg_mem: None });
        sim.step_record(&sys, 0, 5, &[]);
        let r = sim.finish();
        assert!(r.syscall_drain_cycles > 0);
    }

    #[test]
    fn cold_cache_misses_show_up_in_alone_time() {
        let mut sim = CoSim::new(SystemConfig::isca08());
        // Pointer-chase over 8 MB: most loads miss to memory.
        for i in 0..10_000u32 {
            let addr = 0x4000_0000 + (i.wrapping_mul(2_654_435_761) % (8 << 20));
            let e = TraceEntry::op(
                0x1000,
                OpClass::MemToReg { src: MemRef::word(addr & !3), rd: Reg::Eax },
            );
            sim.step_record(&e, 0, 0, &[]);
        }
        let r = sim.finish();
        // >> 1 cycle per instruction.
        assert!(r.app_alone_cycles > 10_000 * 50, "alone {}", r.app_alone_cycles);
    }

    #[test]
    fn smallest_legal_log_buffer_runs_annotations() {
        let cfg =
            SystemConfig { log_buffer_bytes: ANNOTATION_RECORD_BYTES, ..SystemConfig::isca08() };
        let mut sim = CoSim::new(cfg);
        let malloc = TraceEntry::annot(0, Annotation::Malloc { base: 0x9000, size: 16 });
        for i in 0..10 {
            sim.step_record(&malloc, 1, 5, &[]);
            sim.step_record(&instr(i), 0, 0, &[]);
        }
        assert_eq!(sim.finish().records, 20);
    }

    #[test]
    #[should_panic(expected = "log_buffer_bytes is 8 but one annotation record needs \
                               ANNOTATION_RECORD_BYTES = 9")]
    fn log_buffer_smaller_than_one_record_is_rejected() {
        let _ = CoSim::new(SystemConfig { log_buffer_bytes: 8, ..SystemConfig::isca08() });
    }

    #[test]
    fn report_accounting() {
        let mut sim = CoSim::new(SystemConfig::isca08());
        for i in 0..100 {
            sim.step_record(&instr(i), 2, 6, &[]);
        }
        let r = sim.finish();
        assert_eq!(r.records, 100);
        assert_eq!(r.delivered_events, 200);
        assert_eq!(r.handler_instrs, 600);
        assert!(r.consumer_cycles >= r.monitored_cycles.min(r.consumer_cycles));
    }
}

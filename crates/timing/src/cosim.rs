//! The producer/consumer co-simulation.
//!
//! One pass over the trace computes three timelines:
//!
//! * the **stand-alone** application (no monitoring; its own L2) — the
//!   denominator of every slowdown;
//! * the **monitored producer** — same instruction stream plus log-write
//!   traffic and wrapper/annotation overheads, stalled when the log buffer
//!   fills and at system calls until the consumer drains;
//! * the **consumer** — hardware dispatch per record plus, for every
//!   delivered event, the `nlba` dispatch and the handler's reported
//!   instructions and metadata references (played against the consumer's
//!   L1 and the *shared* L2).
//!
//! The two producer timelines share one L1 pair. Both run the same
//! references through identically configured L1s — the pc, then the read,
//! then the write of every instruction record (annotations touch no cache,
//! and log writes are a fixed charge, not an access) — and an L1's contents
//! depend only on its own reference stream, so two copies would agree at
//! every step. One lookup therefore decides both timelines; only an L1 miss
//! goes on, to the stand-alone L2 and to the shared L2, which thus sees the
//! same accesses in the same order as with a private L1 pair per timeline.
//!
//! Buffer coupling uses the classic bounded-queue recurrence: the producer
//! cannot append record *i* until the consumer has freed enough bytes; the
//! consumer cannot start record *i* before the producer finishes it.

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::params::*;
use igm_isa::{Annotation, TraceEntry, TraceOp};
use igm_lba::record::{compressed_size, ANNOTATION_RECORD_BYTES, INSTR_RECORD_BYTES};
use std::collections::VecDeque;

/// Timing outcome of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// The application core's L1s, shared by the stand-alone and the
    /// monitored timelines (see the module docs).
    l1i: Cache,
    l1d: Cache,
    /// The consumer core's data L1.
    cons_l1d: Cache,
    shared_l2: Cache,
    alone_l2: Cache,
    /// In-flight records: (consumer finish tick, size in bytes). Sized for
    /// a buffer full of the smallest records, so stepping never allocates.
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
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            cons_l1d: Cache::new(cfg.l1d),
            shared_l2: Cache::new(cfg.l2),
            alone_l2: Cache::new(cfg.l2),
            cfg,
            inflight: VecDeque::with_capacity((cfg.log_buffer_bytes / INSTR_RECORD_BYTES) as usize),
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

    /// Extra ticks of an access that missed the L1.
    fn l2_penalty(l2: &mut Cache, mem_latency: u32, addr: u32) -> u64 {
        let latency = l2.config().latency as u64;
        if l2.access(addr) {
            latency * TICKS_PER_CYCLE
        } else {
            (latency + mem_latency as u64) * TICKS_PER_CYCLE
        }
    }

    /// Extra ticks beyond the pipelined L1 access for one reference of the
    /// application core: (stand-alone, monitored). An L1 hit costs neither
    /// timeline anything; a miss goes to each timeline's own L2.
    fn producer_penalty(
        l1: &mut Cache,
        alone_l2: &mut Cache,
        shared_l2: &mut Cache,
        mem_latency: u32,
        addr: u32,
    ) -> (u64, u64) {
        if l1.access(addr) {
            (0, 0)
        } else {
            (
                Self::l2_penalty(alone_l2, mem_latency, addr),
                Self::l2_penalty(shared_l2, mem_latency, addr),
            )
        }
    }

    /// Producer-side cost of one record (instruction execution, cache
    /// behaviour, wrapper overheads) on the stand-alone and the monitored
    /// timelines, in that order.
    fn producer_cost(&mut self, entry: &TraceEntry) -> (u64, u64) {
        match &entry.op {
            TraceOp::Annot(a) => {
                let ticks = ANNOTATION_TICKS
                    + match a {
                        Annotation::Malloc { .. } | Annotation::Free { .. } => MALLOC_TICKS,
                        Annotation::Syscall { .. } | Annotation::ReadInput { .. } => SYSCALL_TICKS,
                        Annotation::ThreadSwitch { .. } | Annotation::ThreadExit { .. } => {
                            THREAD_SWITCH_TICKS
                        }
                        _ => 0,
                    };
                (ticks, ticks)
            }
            _ => {
                let mem_latency = self.cfg.mem_latency;
                let (l2a, l2s) = (&mut self.alone_l2, &mut self.shared_l2);
                let (mut alone, mut monitored) =
                    Self::producer_penalty(&mut self.l1i, l2a, l2s, mem_latency, entry.pc);
                for m in [entry.mem_read(), entry.mem_write()].into_iter().flatten() {
                    let (a, p) =
                        Self::producer_penalty(&mut self.l1d, l2a, l2s, mem_latency, m.addr);
                    alone += a;
                    monitored += p;
                }
                (PRODUCER_INSTR_TICKS + alone, PRODUCER_INSTR_TICKS + monitored)
            }
        }
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

        // --- stand-alone timeline (no log) and the monitored producer's
        // instruction cost ---
        let (alone_cost, mut pcost) = self.producer_cost(entry);
        self.alone_time += alone_cost;

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
            if !self.cons_l1d.access(va) {
                ccost += Self::l2_penalty(&mut self.shared_l2, self.cfg.mem_latency, va);
            }
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

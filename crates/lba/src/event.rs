//! The event vocabulary delivered to lifeguards, and record→event extraction.
//!
//! Each log record corresponds to one or more events ("we extend our
//! original LBA design with the capability of delivering multiple events per
//! log record", paper §7.1). The extraction implemented here is the "event
//! mux" of the paper's Figure 1:
//!
//! * every data-flow instruction yields a **propagation event** carrying its
//!   [`OpClass`] (the Figure 5 vocabulary) — consumed by propagation-tracking
//!   lifeguards and by the Inheritance Tracking hardware;
//! * every memory operand additionally yields a **memory-access check
//!   event** ([`Event::MemRead`] / [`Event::MemWrite`]) — consumed by
//!   address-checking lifeguards and the Idempotent Filter;
//! * registers used in address computations, conditional-branch inputs,
//!   indirect-jump targets, system-call arguments and format strings yield
//!   **source-check events** ([`Event::Check`]);
//! * wrapper-library records yield **annotation events**.
//!
//! Check events are emitted *before* the propagation event of the same
//! record, so a lifeguard observes metadata in its pre-instruction state when
//! checking.

use crate::TraceBatch;
use igm_isa::{
    codes, Annotation, CtrlOp, JumpTarget, MemRef, MemSize, OpClass, Reg, RegSet, TraceEntry,
    TraceOp,
};

/// Where a checked value's metadata lives: a register or a memory location.
///
/// The Inheritance Tracking hardware rewrites `Reg` sources into `Mem`
/// sources (when the register inherits from memory) or drops the check
/// entirely (when the register is known clean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaSource {
    /// The metadata of a register.
    Reg(Reg),
    /// The metadata of a memory range.
    Mem(MemRef),
}

/// What invariant a source-check event verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// A source of a non-unary computation (MemCheck's eager uninitialized
    /// check; generated by Inheritance Tracking, paper §4.2).
    NonUnaryInput,
    /// A base/index register of an address computation (MemCheck).
    AddrCompute,
    /// The input of a conditional test (MemCheck).
    CondBranchInput,
    /// The target of an indirect control transfer (TaintCheck).
    JumpTarget,
    /// A system-call argument (MemCheck and TaintCheck).
    SyscallArg,
    /// A `printf`-style format string (TaintCheck).
    FormatString,
}

/// One event delivered towards the lifeguard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Metadata-update (propagation) event carrying the instruction class.
    Prop(OpClass),
    /// A memory load to be checked.
    MemRead(MemRef),
    /// A memory store to be checked.
    MemWrite(MemRef),
    /// A source-check event.
    Check { kind: CheckKind, source: MetaSource },
    /// A high-level annotation.
    Annot(Annotation),
}

/// An event paired with the program counter of its originating record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredEvent {
    /// Program counter of the originating instruction.
    pub pc: u32,
    /// The event payload.
    pub event: Event,
}

impl DeliveredEvent {
    /// Convenience constructor.
    #[inline]
    pub fn new(pc: u32, event: Event) -> DeliveredEvent {
        DeliveredEvent { pc, event }
    }
}

/// Dense event-type identifiers indexing the [ETCT](crate::Etct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventType {
    // Propagation events (Figure 5 vocabulary).
    ImmToReg = 0,
    ImmToMem,
    RegSelf,
    MemSelf,
    RegToReg,
    RegToMem,
    MemToReg,
    MemToMem,
    DestRegOpReg,
    DestRegOpMem,
    DestMemOpReg,
    ReadOnly,
    Other,
    // Memory-access check events.
    MemRead,
    MemWrite,
    // Source-check events.
    CheckNonUnary,
    CheckAddrCompute,
    CheckCondBranch,
    CheckJumpTarget,
    CheckSyscallArg,
    CheckFormatString,
    // Annotations.
    Malloc,
    Free,
    Lock,
    Unlock,
    ReadInput,
    Syscall,
    PrintfFormat,
    ThreadSwitch,
    ThreadExit,
}

/// Number of distinct [`EventType`]s (size of the ETCT).
pub const NUM_EVENT_TYPES: usize = 30;

impl EventType {
    /// The dense index in `0..NUM_EVENT_TYPES`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All event types, in index order.
    pub fn all() -> impl Iterator<Item = EventType> {
        use EventType::*;
        [
            ImmToReg,
            ImmToMem,
            RegSelf,
            MemSelf,
            RegToReg,
            RegToMem,
            MemToReg,
            MemToMem,
            DestRegOpReg,
            DestRegOpMem,
            DestMemOpReg,
            ReadOnly,
            Other,
            MemRead,
            MemWrite,
            CheckNonUnary,
            CheckAddrCompute,
            CheckCondBranch,
            CheckJumpTarget,
            CheckSyscallArg,
            CheckFormatString,
            Malloc,
            Free,
            Lock,
            Unlock,
            ReadInput,
            Syscall,
            PrintfFormat,
            ThreadSwitch,
            ThreadExit,
        ]
        .into_iter()
    }

    /// Whether this is a propagation (metadata-update) event type.
    #[inline]
    pub fn is_propagation(self) -> bool {
        (self as u8) <= (EventType::Other as u8)
    }

    /// Whether this is a check event type (memory-access or source check).
    #[inline]
    pub const fn is_check(self) -> bool {
        let i = self as u8;
        i >= EventType::MemRead as u8 && i <= EventType::CheckFormatString as u8
    }

    /// Whether this is an annotation event type.
    #[inline]
    pub fn is_annotation(self) -> bool {
        (self as u8) >= (EventType::Malloc as u8)
    }
}

impl Event {
    /// The [`EventType`] used for ETCT lookup.
    #[inline]
    pub fn event_type(&self) -> EventType {
        match self {
            Event::Prop(op) => match op {
                OpClass::ImmToReg { .. } => EventType::ImmToReg,
                OpClass::ImmToMem { .. } => EventType::ImmToMem,
                OpClass::RegSelf { .. } => EventType::RegSelf,
                OpClass::MemSelf { .. } => EventType::MemSelf,
                OpClass::RegToReg { .. } => EventType::RegToReg,
                OpClass::RegToMem { .. } => EventType::RegToMem,
                OpClass::MemToReg { .. } => EventType::MemToReg,
                OpClass::MemToMem { .. } => EventType::MemToMem,
                OpClass::DestRegOpReg { .. } => EventType::DestRegOpReg,
                OpClass::DestRegOpMem { .. } => EventType::DestRegOpMem,
                OpClass::DestMemOpReg { .. } => EventType::DestMemOpReg,
                OpClass::ReadOnly { .. } => EventType::ReadOnly,
                OpClass::Other { .. } => EventType::Other,
            },
            Event::MemRead(_) => EventType::MemRead,
            Event::MemWrite(_) => EventType::MemWrite,
            Event::Check { kind, .. } => match kind {
                CheckKind::NonUnaryInput => EventType::CheckNonUnary,
                CheckKind::AddrCompute => EventType::CheckAddrCompute,
                CheckKind::CondBranchInput => EventType::CheckCondBranch,
                CheckKind::JumpTarget => EventType::CheckJumpTarget,
                CheckKind::SyscallArg => EventType::CheckSyscallArg,
                CheckKind::FormatString => EventType::CheckFormatString,
            },
            Event::Annot(a) => match a {
                Annotation::Malloc { .. } => EventType::Malloc,
                Annotation::Free { .. } => EventType::Free,
                Annotation::Lock { .. } => EventType::Lock,
                Annotation::Unlock { .. } => EventType::Unlock,
                Annotation::ReadInput { .. } => EventType::ReadInput,
                Annotation::Syscall { .. } => EventType::Syscall,
                Annotation::PrintfFormat { .. } => EventType::PrintfFormat,
                Annotation::ThreadSwitch { .. } => EventType::ThreadSwitch,
                Annotation::ThreadExit { .. } => EventType::ThreadExit,
            },
        }
    }

    /// The memory address field of this event, if it has one (used for
    /// Idempotent Filter keying).
    #[inline]
    pub fn addr_field(&self) -> Option<MemRef> {
        match self {
            Event::MemRead(m) | Event::MemWrite(m) => Some(*m),
            Event::Check { source: MetaSource::Mem(m), .. } => Some(*m),
            _ => None,
        }
    }

    /// The register field of this event, if it has one (used for Idempotent
    /// Filter keying).
    #[inline]
    pub fn reg_field(&self) -> Option<Reg> {
        match self {
            Event::Check { source: MetaSource::Reg(r), .. } => Some(*r),
            _ => None,
        }
    }
}

/// A reusable arena of extracted events with record boundaries.
///
/// The batch-grain analogue of the hardware's decompression staging buffer:
/// one flat [`DeliveredEvent`] vector plus the end offset of every record,
/// so a whole chunk of log records expands into events with no per-record
/// allocation. [`clear`](EventBuf::clear) retains the allocations; steady
/// state reuses the same backing storage batch after batch.
#[derive(Debug, Clone, Default)]
pub struct EventBuf {
    events: Vec<DeliveredEvent>,
    record_ends: Vec<u32>,
}

impl EventBuf {
    /// An empty buffer.
    pub fn new() -> EventBuf {
        EventBuf::default()
    }

    /// An empty buffer with room for `events` events across `records`
    /// records before reallocating.
    pub fn with_capacity(events: usize, records: usize) -> EventBuf {
        EventBuf { events: Vec::with_capacity(events), record_ends: Vec::with_capacity(records) }
    }

    /// Empties the buffer, keeping its allocations.
    pub fn clear(&mut self) {
        self.events.clear();
        self.record_ends.clear();
    }

    /// Events the buffer can hold before reallocating.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Empties the buffer and releases capacity beyond `events` events /
    /// `records` record boundaries. Long-lived consumers that occasionally
    /// process an oversized batch (an epoch job spanning tens of thousands
    /// of records) call this afterwards so one outlier does not pin
    /// epoch-grain staging capacity for the consumer's whole lifetime.
    pub fn shrink_to(&mut self, events: usize, records: usize) {
        self.clear();
        self.events.shrink_to(events);
        self.record_ends.shrink_to(records);
    }

    /// Appends one event to the current (open) record.
    #[inline]
    pub fn push(&mut self, ev: DeliveredEvent) {
        self.events.push(ev);
    }

    /// Closes the current record (possibly empty: a record all of whose
    /// events were filtered still occupies a boundary slot).
    #[inline]
    pub fn end_record(&mut self) {
        self.record_ends.push(self.events.len() as u32);
    }

    /// All events, flat, in delivery order.
    pub fn events(&self) -> &[DeliveredEvent] {
        &self.events
    }

    /// Total events buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of closed records.
    pub fn records(&self) -> usize {
        self.record_ends.len()
    }

    /// The events of closed record `i` (in `0..records()`).
    pub fn record(&self, i: usize) -> &[DeliveredEvent] {
        let end = self.record_ends[i] as usize;
        let start = if i == 0 { 0 } else { self.record_ends[i - 1] as usize };
        &self.events[start..end]
    }

    /// The closed record holding event `event` (an index into
    /// [`EventBuf::events`]).
    pub fn record_of(&self, event: usize) -> usize {
        self.record_ends.partition_point(|&end| end as usize <= event)
    }

    /// Iterates the closed records as event slices.
    pub fn record_slices(&self) -> impl Iterator<Item = &[DeliveredEvent]> + '_ {
        (0..self.records()).map(|i| self.record(i))
    }
}

/// A monomorphized consumer of the column sweep: one call per event, in
/// extraction order, with the event's [`EventType`] known **statically at
/// the emission site** and the payload built lazily. This is what lets
/// the dispatch pipeline fuse ETCT gating into the sweep itself — the
/// gate tests a precomputed table row per site instead of re-deriving
/// each event's type from its payload, and events the lifeguard never
/// registered are dropped without ever being constructed.
pub trait EventSink {
    /// One event of type `et` at `pc`; `make` builds the payload on
    /// demand (sinks that drop the event never call it).
    fn event(&mut self, pc: u32, et: EventType, make: impl FnOnce() -> Event);
    /// Closes the current record.
    fn end_record(&mut self);
}

/// A flat event list is a sink with no record structure: every event is
/// constructed and appended, record boundaries are ignored. This is what
/// lets record-at-a-time callers (the design-space sweeps of
/// `igm_sim::sweep`, the property tests) hand the accelerator units a plain
/// `Vec`.
impl EventSink for Vec<DeliveredEvent> {
    #[inline]
    fn event(&mut self, pc: u32, _et: EventType, make: impl FnOnce() -> Event) {
        self.push(DeliveredEvent::new(pc, make()));
    }
    #[inline]
    fn end_record(&mut self) {}
}

/// Plain extraction sink: constructs and stores every event.
struct ExtractSink<'a> {
    out: &'a mut EventBuf,
}

impl EventSink for ExtractSink<'_> {
    #[inline(always)]
    fn event(&mut self, pc: u32, _et: EventType, make: impl FnOnce() -> Event) {
        self.out.events.push(DeliveredEvent::new(pc, make()));
    }
    #[inline(always)]
    fn end_record(&mut self) {
        self.out.end_record();
    }
}

/// Expands a whole [`TraceBatch`] into `out` (cleared first) by sweeping
/// the columns ([`sweep_batch`] with a store-everything sink). Event
/// content and order are identical to per-record [`extract_events`] over
/// the batch's entry views; the win is the memory traffic — ~9 fixed
/// bytes per record instead of a 28-byte `TraceEntry`, no nested-enum
/// matching, and an address-register scan that is a single byte test in
/// the (overwhelmingly common) empty case.
pub fn extract_batch(batch: &TraceBatch, out: &mut EventBuf) {
    out.clear();
    let mut sink = ExtractSink { out };
    sweep_batch(batch, &mut sink);
}

/// The columnar event mux: one pass over the `codes` column classifies
/// every record's event shape, and tight per-shape arms read only the
/// columns that shape touches (program counters, the shared address/size
/// streams, the packed register bytes), feeding `sink` one event at a
/// time in canonical extraction order. Monomorphized per sink:
/// [`extract_batch`] stores everything; the dispatch pipeline's gating
/// sink filters at the emission sites.
pub fn sweep_batch<S: EventSink>(batch: &TraceBatch, sink: &mut S) {
    let n = batch.len();
    let pcs = batch.pcs();
    let rcodes = batch.codes();
    let aregs = batch.addr_regs_bits();
    let regs = batch.reg_bytes();
    let flags = batch.flag_bytes();
    let addrs = batch.addrs();
    let sizes = batch.size_codes();
    let vals = batch.vals();
    let (mut ai, mut vi) = (0usize, 0usize);
    // Local cursor over the shared address stream; the size code is always
    // valid by TraceBatch construction.
    macro_rules! mem {
        () => {{
            let m = MemRef::new(addrs[ai], MemSize::from_code(sizes[ai]).expect("valid size code"));
            ai += 1;
            m
        }};
    }
    macro_rules! val {
        () => {{
            let v = vals[vi];
            vi += 1;
            v
        }};
    }
    for i in 0..n {
        let pc = pcs[i];
        let rb = regs[i];
        let fl = flags[i];
        // Address-computation checks: one byte test skips the whole scan
        // for the common addr-reg-free record.
        let mut bits = aregs[i];
        while bits != 0 {
            let r = Reg::from_index(bits.trailing_zeros() as usize);
            sink.event(pc, EventType::CheckAddrCompute, || Event::Check {
                kind: CheckKind::AddrCompute,
                source: MetaSource::Reg(r),
            });
            bits &= bits - 1;
        }
        // Low-nibble destination register; only valid (and only read) in
        // the arms whose layout defines it — CTRL_COND/SYSCALL store the
        // NO_REG sentinel there instead.
        let rd = || Reg::from_index((rb & 0x0f) as usize);
        match rcodes[i] {
            codes::IMM_TO_REG => {
                sink.event(pc, EventType::ImmToReg, || Event::Prop(OpClass::ImmToReg { rd: rd() }));
            }
            codes::IMM_TO_MEM => {
                let dst = mem!();
                sink.event(pc, EventType::MemWrite, || Event::MemWrite(dst));
                sink.event(pc, EventType::ImmToMem, || Event::Prop(OpClass::ImmToMem { dst }));
            }
            codes::REG_SELF => {
                sink.event(pc, EventType::RegSelf, || Event::Prop(OpClass::RegSelf { rd: rd() }));
            }
            codes::MEM_SELF => {
                let dst = mem!();
                sink.event(pc, EventType::MemRead, || Event::MemRead(dst));
                sink.event(pc, EventType::MemWrite, || Event::MemWrite(dst));
                sink.event(pc, EventType::MemSelf, || Event::Prop(OpClass::MemSelf { dst }));
            }
            codes::REG_TO_REG => {
                sink.event(pc, EventType::RegToReg, || {
                    let rs = Reg::from_index((rb >> 4) as usize);
                    Event::Prop(OpClass::RegToReg { rs, rd: rd() })
                });
            }
            codes::REG_TO_MEM => {
                let dst = mem!();
                sink.event(pc, EventType::MemWrite, || Event::MemWrite(dst));
                sink.event(pc, EventType::RegToMem, || {
                    Event::Prop(OpClass::RegToMem { rs: rd(), dst })
                });
            }
            codes::MEM_TO_REG => {
                let src = mem!();
                sink.event(pc, EventType::MemRead, || Event::MemRead(src));
                sink.event(pc, EventType::MemToReg, || {
                    Event::Prop(OpClass::MemToReg { src, rd: rd() })
                });
            }
            codes::MEM_TO_MEM => {
                let src = mem!();
                let dst = mem!();
                sink.event(pc, EventType::MemRead, || Event::MemRead(src));
                sink.event(pc, EventType::MemWrite, || Event::MemWrite(dst));
                sink.event(pc, EventType::MemToMem, || Event::Prop(OpClass::MemToMem { src, dst }));
            }
            codes::DEST_REG_OP_REG => {
                sink.event(pc, EventType::DestRegOpReg, || {
                    let rs = Reg::from_index((rb >> 4) as usize);
                    Event::Prop(OpClass::DestRegOpReg { rs, rd: rd() })
                });
            }
            codes::DEST_REG_OP_MEM => {
                let src = mem!();
                sink.event(pc, EventType::MemRead, || Event::MemRead(src));
                sink.event(pc, EventType::DestRegOpMem, || {
                    Event::Prop(OpClass::DestRegOpMem { src, rd: rd() })
                });
            }
            codes::DEST_MEM_OP_REG => {
                let dst = mem!();
                sink.event(pc, EventType::MemRead, || Event::MemRead(dst));
                sink.event(pc, EventType::MemWrite, || Event::MemWrite(dst));
                sink.event(pc, EventType::DestMemOpReg, || {
                    Event::Prop(OpClass::DestMemOpReg { rs: rd(), dst })
                });
            }
            codes::READ_ONLY => {
                // Pure flag-setters: a read check when a memory source is
                // present, never a propagation event.
                if fl & 1 != 0 {
                    let src = mem!();
                    sink.event(pc, EventType::MemRead, || Event::MemRead(src));
                }
            }
            codes::OTHER => {
                let writes = RegSet::from_bits(val!() as u8);
                let mem_read = if fl & 1 != 0 { Some(mem!()) } else { None };
                let mem_write = if fl & 2 != 0 { Some(mem!()) } else { None };
                if let Some(m) = mem_read {
                    sink.event(pc, EventType::MemRead, || Event::MemRead(m));
                }
                if let Some(m) = mem_write {
                    sink.event(pc, EventType::MemWrite, || Event::MemWrite(m));
                }
                sink.event(pc, EventType::Other, || {
                    Event::Prop(OpClass::Other {
                        reads: RegSet::from_bits(rb),
                        writes,
                        mem_read,
                        mem_write,
                    })
                });
            }
            codes::CTRL_DIRECT => {}
            codes::CTRL_INDIRECT => {
                if fl & 1 != 0 {
                    let m = mem!();
                    sink.event(pc, EventType::MemRead, || Event::MemRead(m));
                    sink.event(pc, EventType::CheckJumpTarget, || Event::Check {
                        kind: CheckKind::JumpTarget,
                        source: MetaSource::Mem(m),
                    });
                } else {
                    sink.event(pc, EventType::CheckJumpTarget, || Event::Check {
                        kind: CheckKind::JumpTarget,
                        source: MetaSource::Reg(rd()),
                    });
                }
            }
            codes::CTRL_COND => {
                if rb != codes::NO_REG {
                    sink.event(pc, EventType::CheckCondBranch, || Event::Check {
                        kind: CheckKind::CondBranchInput,
                        source: MetaSource::Reg(Reg::from_index(rb as usize)),
                    });
                }
            }
            codes::CTRL_RET => {
                let slot = mem!();
                sink.event(pc, EventType::MemRead, || Event::MemRead(slot));
                sink.event(pc, EventType::CheckJumpTarget, || Event::Check {
                    kind: CheckKind::JumpTarget,
                    source: MetaSource::Mem(slot),
                });
            }
            codes::ANN_MALLOC => {
                let base = addrs[ai];
                ai += 1;
                let size = val!();
                sink.event(pc, EventType::Malloc, || {
                    Event::Annot(Annotation::Malloc { base, size })
                });
            }
            codes::ANN_FREE => {
                let base = addrs[ai];
                ai += 1;
                sink.event(pc, EventType::Free, || Event::Annot(Annotation::Free { base }));
            }
            codes::ANN_LOCK => {
                let lock = addrs[ai];
                ai += 1;
                sink.event(pc, EventType::Lock, || Event::Annot(Annotation::Lock { lock }));
            }
            codes::ANN_UNLOCK => {
                let lock = addrs[ai];
                ai += 1;
                sink.event(pc, EventType::Unlock, || Event::Annot(Annotation::Unlock { lock }));
            }
            codes::ANN_READ_INPUT => {
                let base = addrs[ai];
                ai += 1;
                let len = val!();
                sink.event(pc, EventType::ReadInput, || {
                    Event::Annot(Annotation::ReadInput { base, len })
                });
            }
            codes::ANN_SYSCALL => {
                let arg_reg =
                    if fl & 1 != 0 { Some(Reg::from_index((rb & 0x0f) as usize)) } else { None };
                if let Some(r) = arg_reg {
                    sink.event(pc, EventType::CheckSyscallArg, || Event::Check {
                        kind: CheckKind::SyscallArg,
                        source: MetaSource::Reg(r),
                    });
                }
                let arg_mem = if fl & 2 != 0 { Some(mem!()) } else { None };
                if let Some(m) = arg_mem {
                    sink.event(pc, EventType::CheckSyscallArg, || Event::Check {
                        kind: CheckKind::SyscallArg,
                        source: MetaSource::Mem(m),
                    });
                }
                sink.event(pc, EventType::Syscall, || {
                    Event::Annot(Annotation::Syscall { arg_reg, arg_mem })
                });
            }
            codes::ANN_PRINTF => {
                let fmt = mem!();
                sink.event(pc, EventType::CheckFormatString, || Event::Check {
                    kind: CheckKind::FormatString,
                    source: MetaSource::Mem(fmt),
                });
                sink.event(pc, EventType::PrintfFormat, || {
                    Event::Annot(Annotation::PrintfFormat { fmt })
                });
            }
            codes::ANN_THREAD_SWITCH => {
                let tid = val!();
                sink.event(pc, EventType::ThreadSwitch, || {
                    Event::Annot(Annotation::ThreadSwitch { tid })
                });
            }
            codes::ANN_THREAD_EXIT => {
                let tid = val!();
                sink.event(pc, EventType::ThreadExit, || {
                    Event::Annot(Annotation::ThreadExit { tid })
                });
            }
            c => unreachable!("invalid field code {c} in TraceBatch"),
        }
        sink.end_record();
    }
}

/// Expands one log record into its events, appending to `out`.
///
/// Emission order per record: address-computation checks, control-flow
/// source checks, memory-access checks (read before write), then the
/// propagation event. Annotations additionally expand system-call argument
/// and format-string checks before the annotation event itself.
pub fn extract_events(entry: &TraceEntry, out: &mut Vec<DeliveredEvent>) {
    let pc = entry.pc;
    let mut push = |e: Event| out.push(DeliveredEvent::new(pc, e));

    for r in entry.addr_regs.iter() {
        push(Event::Check { kind: CheckKind::AddrCompute, source: MetaSource::Reg(r) });
    }

    match &entry.op {
        TraceOp::Op(op) => {
            if let Some(m) = op.mem_read() {
                push(Event::MemRead(m));
            }
            // mem_self and dest_mem_op_reg also write their memory operand;
            // report the write access for address-checking lifeguards even
            // when it equals the read.
            if let Some(m) = op.mem_write() {
                push(Event::MemWrite(m));
            }
            match op {
                // Pure flag-setters have no metadata effect; no propagation
                // event is delivered for them.
                OpClass::ReadOnly { .. } => {}
                _ => push(Event::Prop(*op)),
            }
        }
        TraceOp::Ctrl(c) => match c {
            CtrlOp::Direct => {}
            CtrlOp::CondBranch { input } => {
                if let Some(r) = input {
                    push(Event::Check {
                        kind: CheckKind::CondBranchInput,
                        source: MetaSource::Reg(*r),
                    });
                }
            }
            CtrlOp::Indirect { target } => match target {
                JumpTarget::Reg(r) => {
                    push(Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(*r) })
                }
                JumpTarget::Mem(m) => {
                    push(Event::MemRead(*m));
                    push(Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Mem(*m) });
                }
            },
            CtrlOp::Ret { slot } => {
                push(Event::MemRead(*slot));
                push(Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Mem(*slot) });
            }
        },
        TraceOp::Annot(a) => {
            match a {
                Annotation::Syscall { arg_reg, arg_mem } => {
                    if let Some(r) = arg_reg {
                        push(Event::Check {
                            kind: CheckKind::SyscallArg,
                            source: MetaSource::Reg(*r),
                        });
                    }
                    if let Some(m) = arg_mem {
                        push(Event::Check {
                            kind: CheckKind::SyscallArg,
                            source: MetaSource::Mem(*m),
                        });
                    }
                }
                Annotation::PrintfFormat { fmt } => {
                    push(Event::Check {
                        kind: CheckKind::FormatString,
                        source: MetaSource::Mem(*fmt),
                    });
                }
                _ => {}
            }
            push(Event::Annot(*a));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{MemSize, RegSet};

    fn events_of(entry: TraceEntry) -> Vec<Event> {
        let mut out = Vec::new();
        extract_events(&entry, &mut out);
        out.into_iter().map(|d| d.event).collect()
    }

    #[test]
    fn load_yields_addr_check_read_then_prop() {
        let src = MemRef::word(0x9000);
        let entry = TraceEntry::op(0x1000, OpClass::MemToReg { src, rd: Reg::Eax })
            .with_addr_regs(RegSet::from_regs([Reg::Ebx]));
        let evs = events_of(entry);
        assert_eq!(
            evs,
            vec![
                Event::Check { kind: CheckKind::AddrCompute, source: MetaSource::Reg(Reg::Ebx) },
                Event::MemRead(src),
                Event::Prop(OpClass::MemToReg { src, rd: Reg::Eax }),
            ]
        );
    }

    #[test]
    fn store_yields_write_then_prop() {
        let dst = MemRef::word(0x9000);
        let evs = events_of(TraceEntry::op(0, OpClass::RegToMem { rs: Reg::Eax, dst }));
        assert_eq!(
            evs,
            vec![Event::MemWrite(dst), Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst })]
        );
    }

    #[test]
    fn mem_to_mem_yields_read_write_prop() {
        let src = MemRef::word(0x9000);
        let dst = MemRef::word(0xa000);
        let evs = events_of(TraceEntry::op(0, OpClass::MemToMem { src, dst }));
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0], Event::MemRead(src));
        assert_eq!(evs[1], Event::MemWrite(dst));
    }

    #[test]
    fn mem_self_reports_both_accesses_but_still_propagates_mem_self() {
        let dst = MemRef::word(0x9000);
        let evs = events_of(TraceEntry::op(0, OpClass::MemSelf { dst }));
        assert_eq!(
            evs,
            vec![Event::MemRead(dst), Event::MemWrite(dst), Event::Prop(OpClass::MemSelf { dst })]
        );
    }

    #[test]
    fn read_only_yields_no_propagation_event() {
        let src = MemRef::word(0x9000);
        let evs = events_of(TraceEntry::op(
            0,
            OpClass::ReadOnly { src: Some(src), reads: RegSet::from_regs([Reg::Eax]) },
        ));
        assert_eq!(evs, vec![Event::MemRead(src)]);
    }

    #[test]
    fn register_only_ops_yield_single_prop() {
        let evs = events_of(TraceEntry::op(0, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }));
        assert_eq!(evs, vec![Event::Prop(OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx })]);
    }

    #[test]
    fn indirect_jump_through_memory_checks_both_access_and_target() {
        let m = MemRef::word(0xbfff_0000);
        let evs = events_of(TraceEntry::ctrl(0, CtrlOp::Indirect { target: JumpTarget::Mem(m) }));
        assert_eq!(
            evs,
            vec![
                Event::MemRead(m),
                Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Mem(m) }
            ]
        );
    }

    #[test]
    fn ret_checks_stack_slot() {
        let slot = MemRef::word(0xbfff_0000);
        let evs = events_of(TraceEntry::ctrl(0, CtrlOp::Ret { slot }));
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[1], Event::Check { kind: CheckKind::JumpTarget, .. }));
    }

    #[test]
    fn cond_branch_with_input_checks_register() {
        let evs = events_of(TraceEntry::ctrl(0, CtrlOp::CondBranch { input: Some(Reg::Edx) }));
        assert_eq!(
            evs,
            vec![Event::Check {
                kind: CheckKind::CondBranchInput,
                source: MetaSource::Reg(Reg::Edx)
            }]
        );
        let evs = events_of(TraceEntry::ctrl(0, CtrlOp::CondBranch { input: None }));
        assert!(evs.is_empty());
    }

    #[test]
    fn direct_jump_yields_nothing() {
        assert!(events_of(TraceEntry::ctrl(0, CtrlOp::Direct)).is_empty());
    }

    #[test]
    fn syscall_annotation_expands_argument_checks() {
        let m = MemRef::new(0x9000, MemSize::B4);
        let evs = events_of(TraceEntry::annot(
            0,
            Annotation::Syscall { arg_reg: Some(Reg::Ebx), arg_mem: Some(m) },
        ));
        assert_eq!(evs.len(), 3);
        assert!(matches!(
            evs[0],
            Event::Check { kind: CheckKind::SyscallArg, source: MetaSource::Reg(Reg::Ebx) }
        ));
        assert!(matches!(
            evs[1],
            Event::Check { kind: CheckKind::SyscallArg, source: MetaSource::Mem(_) }
        ));
        assert!(matches!(evs[2], Event::Annot(Annotation::Syscall { .. })));
    }

    #[test]
    fn printf_annotation_expands_format_check() {
        let fmt = MemRef::word(0x8100_0000);
        let evs = events_of(TraceEntry::annot(0, Annotation::PrintfFormat { fmt }));
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0], Event::Check { kind: CheckKind::FormatString, .. }));
    }

    #[test]
    fn event_type_classification_is_total_and_consistent() {
        let mut seen = std::collections::HashSet::new();
        for et in EventType::all() {
            assert!(et.index() < NUM_EVENT_TYPES);
            assert!(seen.insert(et.index()), "duplicate index for {et:?}");
            let classes = [et.is_propagation(), et.is_check(), et.is_annotation()];
            assert_eq!(
                classes.iter().filter(|c| **c).count(),
                1,
                "{et:?} must belong to exactly one class"
            );
        }
        assert_eq!(seen.len(), NUM_EVENT_TYPES);
    }

    #[test]
    fn event_type_of_events_matches_payload() {
        let m = MemRef::word(8);
        assert_eq!(Event::MemRead(m).event_type(), EventType::MemRead);
        assert_eq!(Event::MemWrite(m).event_type(), EventType::MemWrite);
        assert_eq!(
            Event::Prop(OpClass::DestRegOpMem { src: m, rd: Reg::Eax }).event_type(),
            EventType::DestRegOpMem
        );
        assert_eq!(
            Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(Reg::Eax) }
                .event_type(),
            EventType::CheckJumpTarget
        );
        assert_eq!(
            Event::Annot(Annotation::Malloc { base: 0, size: 1 }).event_type(),
            EventType::Malloc
        );
    }

    #[test]
    fn extract_batch_matches_per_record_extraction_with_boundaries() {
        let src = MemRef::word(0x9000);
        let entries = vec![
            TraceEntry::op(0x10, OpClass::MemToReg { src, rd: Reg::Eax }),
            TraceEntry::ctrl(0x14, CtrlOp::Direct), // extracts to nothing
            TraceEntry::op(0x18, OpClass::RegToMem { rs: Reg::Eax, dst: src }),
        ];
        let mut buf = EventBuf::new();
        extract_batch(&TraceBatch::from_entries(&entries), &mut buf);
        assert_eq!(buf.records(), entries.len());
        let mut flat = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let mut per_record = Vec::new();
            extract_events(e, &mut per_record);
            assert_eq!(buf.record(i), &per_record[..], "record {i}");
            flat.extend(per_record);
        }
        assert_eq!(buf.events(), &flat[..]);
        assert_eq!(buf.record(1), &[], "direct jump record is empty but bounded");
        // Every event maps back to its record, across the empty one.
        for r in 0..buf.records() {
            let start = buf.record_slices().take(r).map(<[_]>::len).sum::<usize>();
            for i in start..start + buf.record(r).len() {
                assert_eq!(buf.record_of(i), r, "event {i}");
            }
        }
        assert_eq!(buf.record_of(2), 2, "the store's first event follows the empty record");
    }

    #[test]
    fn event_buf_reuse_keeps_capacity() {
        let entries = vec![
            TraceEntry::op(
                0,
                OpClass::MemToMem { src: MemRef::word(8), dst: MemRef::word(16) }
            );
            64
        ];
        let batch = TraceBatch::from_entries(&entries);
        let mut buf = EventBuf::new();
        extract_batch(&batch, &mut buf);
        let cap = buf.events.capacity();
        assert!(cap >= buf.len());
        extract_batch(&batch, &mut buf);
        assert_eq!(buf.events.capacity(), cap, "steady-state refill must not reallocate");
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.records(), 0);
        assert_eq!(buf.events.capacity(), cap);
    }

    #[test]
    fn key_fields() {
        let m = MemRef::word(0x40);
        assert_eq!(Event::MemRead(m).addr_field(), Some(m));
        assert_eq!(Event::MemRead(m).reg_field(), None);
        let ck = Event::Check { kind: CheckKind::AddrCompute, source: MetaSource::Reg(Reg::Esi) };
        assert_eq!(ck.reg_field(), Some(Reg::Esi));
        assert_eq!(ck.addr_field(), None);
        assert_eq!(Event::Prop(OpClass::ImmToReg { rd: Reg::Eax }).addr_field(), None);
    }
}

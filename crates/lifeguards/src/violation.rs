//! Violations reported by the lifeguards.

use igm_isa::MemRef;
use std::fmt;

/// What a checked value's metadata belonged to, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceDesc {
    /// A register (by dense index, `igm_isa::Reg::index`).
    Reg(usize),
    /// A memory range.
    Mem(MemRef),
}

impl fmt::Display for SourceDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceDesc::Reg(i) => write!(f, "register #{i}"),
            SourceDesc::Mem(m) => write!(f, "memory {m}"),
        }
    }
}

/// A property violation detected by a lifeguard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// AddrCheck/MemCheck: access to unallocated memory.
    UnallocatedAccess {
        /// Faulting instruction.
        pc: u32,
        /// The access.
        mref: MemRef,
        /// Store (true) or load (false).
        is_write: bool,
    },
    /// AddrCheck/MemCheck: `free` of an already-freed block.
    DoubleFree { pc: u32, base: u32 },
    /// AddrCheck/MemCheck: `free` of a pointer that was never allocated.
    InvalidFree { pc: u32, base: u32 },
    /// AddrCheck/MemCheck: block still allocated at exit.
    Leak { base: u32, size: u32 },
    /// MemCheck: an uninitialized value reached a use (pointer dereference,
    /// conditional test, system call, or — under eager evaluation — any
    /// non-unary computation).
    UninitUse { pc: u32, source: SourceDesc },
    /// TaintCheck: tainted data reached a critical sink.
    TaintedUse {
        pc: u32,
        /// Which sink (jump target, system-call argument, format string).
        sink: TaintSink,
        source: SourceDesc,
    },
    /// LockSet: no common lock protects this shared location.
    DataRace { pc: u32, addr: u32, tid: u32 },
}

/// TaintCheck's critical sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintSink {
    JumpTarget,
    SyscallArg,
    FormatString,
}

impl Violation {
    /// The faulting instruction's pc, when the violation anchors to one
    /// (a [`Violation::Leak`] is an end-of-run property, not a site).
    pub fn pc(&self) -> Option<u32> {
        match self {
            Violation::UnallocatedAccess { pc, .. }
            | Violation::DoubleFree { pc, .. }
            | Violation::InvalidFree { pc, .. }
            | Violation::UninitUse { pc, .. }
            | Violation::TaintedUse { pc, .. }
            | Violation::DataRace { pc, .. } => Some(*pc),
            Violation::Leak { .. } => None,
        }
    }
}

pub(crate) use reports::{Reporting, Reports};

/// Private, so that [`Reports`] and [`Reporting`] are nameable only inside
/// the crate although [`Lifeguard`](crate::Lifeguard) reaches them.
mod reports {
    use super::Violation;

    /// A lifeguard's reported violations, each tagged with the event that
    /// raised it: the index, in the `evs` of the running
    /// [`Lifeguard::handle_batch`](crate::Lifeguard::handle_batch) call, of the
    /// event being handled. The batch loop marks each event with one store
    /// ([`Reports::handling`]); nothing else on the hot path changes.
    #[derive(Debug, Clone, Default)]
    pub struct Reports {
        list: Vec<Violation>,
        /// Parallel to `list`: the event each was reported against.
        events: Vec<u32>,
        /// The event being handled.
        at: u32,
    }

    impl Reports {
        /// Marks `evs[i]` as the event being handled.
        #[inline(always)]
        pub(crate) fn handling(&mut self, i: usize) {
            self.at = i as u32;
        }

        /// Reports `v` against the event being handled.
        pub(crate) fn push(&mut self, v: Violation) {
            self.list.push(v);
            self.events.push(self.at);
        }

        pub(crate) fn list(&self) -> &[Violation] {
            &self.list
        }

        pub(crate) fn events(&self) -> &[u32] {
            &self.events
        }

        /// Drains the violations (and their event tags).
        pub(crate) fn take(&mut self) -> Vec<Violation> {
            self.events.clear();
            std::mem::take(&mut self.list)
        }
    }

    /// A lifeguard's violation list, which [`Lifeguard`](crate::Lifeguard)'s
    /// provided methods report into and drain. Only this crate's lifeguards
    /// implement it, so only they implement [`Lifeguard`](crate::Lifeguard).
    pub trait Reporting {
        fn reports(&self) -> &Reports;
        fn reports_mut(&mut self) -> &mut Reports;
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnallocatedAccess { pc, mref, is_write } => write!(
                f,
                "{} of unallocated memory {mref} at pc {pc:#010x}",
                if *is_write { "store" } else { "load" }
            ),
            Violation::DoubleFree { pc, base } => {
                write!(f, "double free of {base:#010x} at pc {pc:#010x}")
            }
            Violation::InvalidFree { pc, base } => {
                write!(f, "invalid free of {base:#010x} at pc {pc:#010x}")
            }
            Violation::Leak { base, size } => {
                write!(f, "leak: {size} bytes at {base:#010x} never freed")
            }
            Violation::UninitUse { pc, source } => {
                write!(f, "use of uninitialized value from {source} at pc {pc:#010x}")
            }
            Violation::TaintedUse { pc, sink, source } => write!(
                f,
                "tainted data from {source} used as {} at pc {pc:#010x}",
                match sink {
                    TaintSink::JumpTarget => "an indirect jump target",
                    TaintSink::SyscallArg => "a system-call argument",
                    TaintSink::FormatString => "a format string",
                }
            ),
            Violation::DataRace { pc, addr, tid } => write!(
                f,
                "data race: thread {tid} accessed {addr:#010x} with empty lockset at pc {pc:#010x}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::MemSize;

    #[test]
    fn displays_are_informative() {
        let v = Violation::UnallocatedAccess {
            pc: 0x8048000,
            mref: MemRef::new(0x9000, MemSize::B4),
            is_write: true,
        };
        let s = v.to_string();
        assert!(s.contains("store") && s.contains("0x08048000"));

        let v = Violation::TaintedUse {
            pc: 4,
            sink: TaintSink::FormatString,
            source: SourceDesc::Mem(MemRef::byte(0x40)),
        };
        assert!(v.to_string().contains("format string"));

        let v = Violation::DataRace { pc: 0, addr: 0x10, tid: 1 };
        assert!(v.to_string().contains("race"));
    }
}

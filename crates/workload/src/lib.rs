//! Deterministic synthetic benchmark trace generators.
//!
//! The paper evaluates on SPEC2000-int binaries under Simics plus five
//! multithreaded programs (Table 3). Neither is available here, so this
//! crate generates *statistically shaped* retirement traces instead: each
//! benchmark is a weighted mix of instruction **idioms** (array scans, table
//! lookups, register-heavy compute loops, call frames, string copies,
//! pointer chases, …) with per-benchmark working-set sizes, locality
//! structure and annotation rates. See `DESIGN.md` for the substitution
//! argument: the three accelerators observe only stream statistics —
//! instruction-class mix (IT), address reuse (IF), and page-granular
//! footprint (M-TLB) — all of which the idiom mixes control.
//!
//! Generators are deterministic: the same benchmark and instruction budget
//! always produce the identical trace.
//!
//! # Example
//!
//! ```
//! use igm_workload::Benchmark;
//!
//! let trace: Vec<_> = Benchmark::Gzip.trace(10_000).collect();
//! assert_eq!(trace.len(), 10_000);
//! // Determinism: regenerating yields the identical stream.
//! let again: Vec<_> = Benchmark::Gzip.trace(10_000).collect();
//! assert_eq!(trace, again);
//! ```

pub mod gen;
pub mod layout;
pub mod mt;
pub mod profile;

pub use gen::TraceGen;
pub use mt::{MtBenchmark, MtTraceGen};
pub use profile::{Idiom, Profile};

use std::fmt;

/// The eleven SPEC2000 integer benchmarks of the paper's single-threaded
/// studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    Bzip2,
    Crafty,
    Eon,
    Gap,
    Gcc,
    Gzip,
    Mcf,
    Parser,
    Twolf,
    Vortex,
    Vpr,
}

impl Benchmark {
    /// All benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::Bzip2,
        Benchmark::Crafty,
        Benchmark::Eon,
        Benchmark::Gap,
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Parser,
        Benchmark::Twolf,
        Benchmark::Vortex,
        Benchmark::Vpr,
    ];

    /// The benchmark's lowercase SPEC name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Crafty => "crafty",
            Benchmark::Eon => "eon",
            Benchmark::Gap => "gap",
            Benchmark::Gcc => "gcc",
            Benchmark::Gzip => "gzip",
            Benchmark::Mcf => "mcf",
            Benchmark::Parser => "parser",
            Benchmark::Twolf => "twolf",
            Benchmark::Vortex => "vortex",
            Benchmark::Vpr => "vpr",
        }
    }

    /// The workload profile (idiom mix and memory model parameters).
    pub fn profile(self) -> Profile {
        profile::spec_profile(self)
    }

    /// A deterministic trace generator emitting `n` records.
    pub fn trace(self, n: u64) -> TraceGen {
        TraceGen::new(self.profile(), n, self as u64 + 1)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Benchmark::ALL.len());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::Mcf.to_string(), "mcf");
    }
}

//! The reproduction's one invariant, as one matrix: every execution
//! strategy reports what the sequential `Monitor` reports — the same
//! records, violations, `DispatchStats` and metadata footprint, and, where
//! it attributes violations to records, the same `RecordId`s. That is the
//! software form of the paper's claim that LBA's transport and its
//! accelerators do not change what a lifeguard sees (§3–§6).
//!
//! Cells are strategy × lifeguard × accelerator configuration × generator,
//! and each configuration is compared with itself only: whether
//! accelerated and unaccelerated verdicts agree is `tests/properties.rs`'s
//! axis. The oracle's violation count per cell is pinned
//! ([`ORACLE_COUNTS`]). A new strategy or generator is one more entry in
//! [`STRATEGIES`] or [`GENERATORS`].

mod common;

use common::strategies::{self as s, Observed};
use igm::accel::AccelConfig;
use igm::isa::TraceEntry;
use igm::lba::{extract_events, Etct, Event};
use igm::lifeguards::{LifeguardKind, Violation};
use igm::runtime::{EpochConfig, PoolConfig, SessionConfig};
use std::ops::Range;

/// One way of running a lifeguard session over a trace.
struct Strategy {
    name: &'static str,
    /// Runs the session over the whole trace (a windowed strategy cuts its
    /// window itself). The `usize` is the cell's seed, its position along
    /// the matrix's axes: generator + lifeguard + configuration index.
    run: fn(&SessionConfig, &[TraceEntry], usize) -> Observed,
    /// The records of a `len`-record trace it observes; the oracle runs
    /// over the same slice.
    window: fn(usize) -> Range<usize>,
    /// Whether its `metadata_bytes` is the whole run's footprint (see
    /// [`s::pipelined`] for why a pipelined session's may fall short).
    whole_footprint: bool,
}

fn whole(len: usize) -> Range<usize> {
    0..len
}

/// Most epochs a pipelined cell cuts its trace into: each costs a
/// lifeguard snapshot, which dominates a debug build's run.
const MAX_EPOCHS: usize = 128;

/// A pool session pipelined from its first record, its workers, epoch
/// sizing and send size drawn from a fixed set by the cell's seed, which
/// rotates along every axis: each lifeguard and each configuration meets
/// every draw on some generator. Sends grow until the trace takes at most
/// [`MAX_EPOCHS`] epochs, so the 2-record budget cuts the planted
/// generator into 2- and 3-record epochs and the longer ones every few
/// dozen records.
fn pool_always(cfg: &SessionConfig, trace: &[TraceEntry], seed: usize) -> Observed {
    let draws = [
        (2, EpochConfig::fixed(2), 1),
        (1, EpochConfig::fixed(7), 5),
        (3, EpochConfig::fixed(61), 23),
        (4, EpochConfig::fixed(509), 64),
        (2, EpochConfig { initial: 64, min: 16, max: 256, target_checks: 128 }, 23),
        (4, EpochConfig::adaptive(), 256),
    ];
    let (workers, epoch, send) = draws[seed % draws.len()];
    let send = send.max(trace.len() / MAX_EPOCHS);
    let pool = PoolConfig { epoch, ..PoolConfig::with_workers(workers) };
    let (observed, jobs) = s::pipelined(cfg, trace, pool, send);
    // An epoch ships with the send that reaches its budget, or the next
    // one when the job window was full: a floor on the job count.
    let fewest = trace.len().div_ceil(epoch.max + 2 * send);
    assert!(jobs >= fewest as u64, "{}: {jobs} epoch jobs, {epoch:?}, {send}", cfg.name);
    observed
}

/// One `Ingestor` lane teed to a trace file, then the file replayed. Odd
/// seeds feed the lane through a pipe, even ones from a generator.
fn ingest_tee(cfg: &SessionConfig, trace: &[TraceEntry], seed: usize) -> Observed {
    s::ingest_tee(vec![(cfg.clone(), trace.to_vec(), seed % 2 == 1)]).remove(0)
}

/// The oracle first, the record truth second.
const STRATEGIES: [Strategy; 9] = [
    Strategy {
        name: "monitor",
        run: |c, t, _| s::monitor_batched(c, t),
        window: whole,
        whole_footprint: true,
    },
    Strategy {
        name: "per-record",
        run: |c, t, _| s::monitor_per_record(c, t),
        window: whole,
        whole_footprint: true,
    },
    Strategy {
        name: "simulator",
        run: |c, t, _| s::simulated(c, t),
        window: whole,
        whole_footprint: true,
    },
    Strategy {
        name: "pool-never",
        run: |c, t, _| s::pool_never(c, t),
        window: whole,
        whole_footprint: true,
    },
    Strategy { name: "pool-always", run: pool_always, window: whole, whole_footprint: false },
    Strategy { name: "replay", run: s::capture_replay, window: whole, whole_footprint: true },
    Strategy { name: "ingest-tee", run: ingest_tee, window: whole, whole_footprint: true },
    Strategy { name: "wire", run: |c, t, _| s::wire(c, t), window: whole, whole_footprint: true },
    Strategy {
        name: "lake-window",
        run: |c, t, _| s::lake_window(c, t),
        window: s::middle_half,
        whole_footprint: false,
    },
];

/// The accelerator configurations, as requested; each lifeguard masks
/// them to its Figure 2 row.
fn configs() -> [(&'static str, AccelConfig); 5] {
    [
        ("base", AccelConfig::baseline()),
        ("lma", AccelConfig::lma()),
        ("lma_if", AccelConfig::lma_if()),
        ("lma_it", AccelConfig::lma_it()),
        ("full", AccelConfig::full()),
    ]
}

/// A trace family and the session it is monitored in.
struct Generator {
    name: &'static str,
    build: fn(LifeguardKind) -> (SessionConfig, Vec<TraceEntry>),
    /// Fewest violations the oracle must report under every configuration,
    /// per lifeguard in `LifeguardKind::ALL` order: planted bugs must fire.
    min_violations: [usize; 5],
}

const GENERATORS: [Generator; 4] = [
    Generator {
        name: "tenant",
        build: |kind| (common::session_cfg(kind, ""), common::workload_for(kind, 5_000)),
        min_violations: [20, 20, 20, 20, 0],
    },
    Generator {
        name: "planted",
        build: |kind| (SessionConfig::new("", kind), common::planted_trace(kind, 300, 13, 7)),
        min_violations: [23, 23, 0, 0, 23],
    },
    Generator {
        name: "taint-chain",
        build: |kind| {
            let premark = igm::workload::Benchmark::Gcc.profile().premark_regions();
            let cfg = SessionConfig::new("", kind).synthetic().premark(&premark);
            (cfg, common::taint_chains(4_500))
        },
        min_violations: [1, 1, 20, 20, 0],
    },
    Generator {
        name: "annotation-dense",
        build: |kind| (SessionConfig::new("", kind).synthetic(), common::annotation_dense()),
        min_violations: [1; 5],
    },
];

/// The oracle's violations per cell (whole trace / lake window), as
/// [`check`] prints them. Each cell compares a configuration with itself
/// only, so this table is what catches a change to what a configuration
/// reports, such as a slip in how a lifeguard masks a requested
/// configuration. Where a row differs across configurations, the
/// accelerators change the verdicts themselves: TaintCheck's IT cleans
/// non-unary results (taint-chain), the Idempotent Filter drops repeats of
/// a failing check (annotation-dense, and AddrCheck's and MemCheck's lake
/// windows), and MemCheck's IT checks eagerly. The filter's part is
/// asserted as a relation too ([`if_drops`]): under `lma_if` the oracle
/// reports what it reports under `lma` less some repeats, and likewise
/// `full` against `lma_it`.
const ORACLE_COUNTS: &str = "\
tenant                       base          lma       lma_if       lma_it         full
AddrCheck                 20/1161      20/1161       20/947      20/1161       20/947
MemCheck                  23/1262      23/1262      23/1048      44/1380      44/1166
TaintCheck                  20/10        20/10        20/10        20/10        20/10
TaintCheckDetailed          20/10        20/10        20/10        20/10        20/10
LockSet                       0/0          0/0          0/0          0/0          0/0
planted                      base          lma       lma_if       lma_it         full
AddrCheck                   23/88        23/88        23/88        23/88        23/88
MemCheck                    23/88        23/88        23/88       98/125       98/125
TaintCheck                    0/0          0/0          0/0          0/0          0/0
TaintCheckDetailed            0/0          0/0          0/0          0/0          0/0
LockSet                     23/12        23/12        23/12        23/12        23/12
taint-chain                  base          lma       lma_if       lma_it         full
AddrCheck                 134/278      134/278      134/215      134/278      134/215
MemCheck                  134/317      134/317      134/254      134/352      134/289
TaintCheck                  67/34        67/34        67/34        23/11        23/11
TaintCheckDetailed          67/34        67/34        67/34        23/11        23/11
LockSet                       0/0          0/0          0/0          0/0          0/0
annotation-dense             base          lma       lma_if       lma_it         full
AddrCheck                1361/696     1361/696     1360/696     1361/696     1360/696
MemCheck                 1361/696     1361/696     1360/696     1376/712     1375/712
TaintCheck                    1/0          1/0          1/0          1/0          1/0
TaintCheckDetailed            1/0          1/0          1/0          1/0          1/0
LockSet                       1/0          1/0          1/0          1/0          1/0";

/// One window's oracle run for the [`if_drops`] relation: its violations
/// and the record each one faulted on.
fn run(window: &(Range<usize>, Observed, Observed)) -> Run<'_> {
    (&window.1.violations, window.2.seqs.as_deref().unwrap())
}

type Run<'a> = (&'a [Violation], &'a [Option<u64>]);

/// The Idempotent Filter relation (ROADMAP item 1(b)): how many of
/// `unfiltered`'s violations the filter dropped to leave `filtered`, or
/// why `filtered` is not `unfiltered` less repeats. It must be a
/// subsequence, and each violation missing from it an `UnallocatedAccess`
/// to an access the filtered run had already reported, with no event in
/// the records of `trace` between that report and the drop that the
/// lifeguard's `etct` marks as invalidating the filter (`invalidate_all`,
/// or `invalidate_match` on an event touching the same bytes).
fn if_drops(
    (filtered, filtered_seqs): Run,
    (unfiltered, unfiltered_seqs): Run,
    trace: &[TraceEntry],
    etct: &Etct,
) -> Result<usize, String> {
    let (mut kept, mut drops) = (0, 0);
    let mut events = Vec::new();
    for (v, seq) in unfiltered.iter().zip(unfiltered_seqs) {
        if filtered.get(kept) == Some(v) {
            kept += 1;
            continue;
        }
        let Violation::UnallocatedAccess { mref, .. } = v else {
            return Err(format!("dropped {v}, which is no repeated access"));
        };
        let repeat =
            |r: &Violation| matches!(r, Violation::UnallocatedAccess { mref: m, .. } if m == mref);
        let Some(r) = filtered[..kept].iter().rposition(repeat) else {
            return Err(format!("dropped {v}, which repeats no reported access"));
        };
        let (Some(from), Some(to)) = (filtered_seqs[r], *seq) else {
            return Err(format!("dropped {v} or its report has no record"));
        };
        for entry in &trace[from as usize + 1..to as usize] {
            events.clear();
            extract_events(entry, &mut events);
            for ev in &events {
                let cfg = etct.if_config(ev.event.event_type());
                let touches = match ev.event {
                    Event::MemRead(m) | Event::MemWrite(m) => {
                        m.addr < mref.addr + mref.size.bytes()
                            && mref.addr < m.addr + m.size.bytes()
                    }
                    _ => true,
                };
                if cfg.invalidate_all || (cfg.invalidate_match && touches) {
                    return Err(format!(
                        "dropped {v} although {:?} at {:#x} invalidates the filter after its report",
                        ev.event, ev.pc
                    ));
                }
            }
        }
        drops += 1;
    }
    match filtered.get(kept) {
        Some(v) => Err(format!("reported {v}, which the unfiltered run does not")),
        None => Ok(drops),
    }
}

/// Runs every strategy over every lifeguard × configuration of generator
/// `g`. Returns the printed matrix (the oracle's violations per cell, over
/// the whole trace / the lake window), every departing cell, and how many
/// violations the Idempotent Filter dropped across the [`if_drops`] pairs.
fn check(g: usize) -> (String, Vec<String>, usize) {
    let (gen, oracle, per_record) = (&GENERATORS[g], &STRATEGIES[0], &STRATEGIES[1]);
    let (mut failures, mut window_faults, mut drops) = (Vec::new(), false, 0);
    let mut table = format!("{:<20}", gen.name);
    for (label, _) in configs() {
        table += &format!(" {label:>12}");
    }
    for (k, kind) in LifeguardKind::ALL.into_iter().enumerate() {
        let (base, trace) = (gen.build)(kind);
        table += &format!("\n{:<20}", format!("{kind:?}"));
        // The oracle's violations per configuration, per window.
        let mut oracle_runs: Vec<Vec<(Range<usize>, Observed, Observed)>> = Vec::new();
        for (c, (label, accel)) in configs().into_iter().enumerate() {
            let mut cfg = base.clone().accel(accel);
            cfg.name = format!("{}-{kind:?}-{label}", gen.name);
            // The oracle and the record truth, per window in use.
            let mut refs: Vec<(Range<usize>, Observed, Observed)> = Vec::new();
            for (i, strategy) in STRATEGIES.iter().enumerate().skip(1) {
                let window = (strategy.window)(trace.len());
                if !refs.iter().any(|r| r.0 == window) {
                    let slice = &trace[window.clone()];
                    refs.push((
                        window.clone(),
                        (oracle.run)(&cfg, slice, 0),
                        (per_record.run)(&cfg, slice, 0),
                    ));
                }
                let (_, want, truth) = refs.iter().find(|r| r.0 == window).unwrap();
                let got = (i > 1).then(|| (strategy.run)(&cfg, &trace, g + k + c));
                let (seqs, whole_footprint) =
                    (truth.seqs.as_deref().unwrap(), strategy.whole_footprint);
                for d in got.as_ref().unwrap_or(truth).diff(want, seqs, whole_footprint) {
                    failures.push(format!("{} / {}: {d}", cfg.name, strategy.name));
                }
            }
            let fired = refs[0].1.violations.len();
            assert!(fired >= gen.min_violations[k], "{}: only {fired} fire", cfg.name);
            window_faults |= refs[1..].iter().any(|r| !r.1.violations.is_empty());
            let counts: Vec<String> =
                refs.iter().map(|r| r.1.violations.len().to_string()).collect();
            table += &format!(" {:>12}", counts.join("/"));
            oracle_runs.push(refs);
        }
        if kind.accel_support().idempotent_filter {
            let at = |label| configs().iter().position(|(l, _)| *l == label).unwrap();
            for (with, without) in [("lma_if", "lma"), ("full", "lma_it")] {
                let pairs = oracle_runs[at(with)].iter().zip(&oracle_runs[at(without)]);
                for (w, (filtered, unfiltered)) in pairs.enumerate() {
                    let trace = &trace[filtered.0.clone()];
                    match if_drops(run(filtered), run(unfiltered), trace, &kind.etct()) {
                        Ok(n) => drops += n,
                        Err(e) => failures.push(format!(
                            "{} {kind:?} window {w}: {with} vs {without}: {e}",
                            gen.name
                        )),
                    }
                }
            }
        }
    }
    // Window record ids must be compared over a non-empty set somewhere.
    assert!(window_faults, "{}: no lake window faults", gen.name);
    (table, failures, drops)
}

/// One thread per generator. Every lifeguard, LockSet included, must
/// report violations on some generator, so no lifeguard's equality is
/// only over "nothing to report".
#[test]
fn every_strategy_matches_the_sequential_monitor() {
    for (k, kind) in LifeguardKind::ALL.into_iter().enumerate() {
        assert!(GENERATORS.iter().any(|g| g.min_violations[k] > 0), "{kind} fires nowhere");
    }
    let results: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..GENERATORS.len()).map(|g| scope.spawn(move || check(g))).collect();
        runs.into_iter()
            .map(|r| r.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let names = STRATEGIES.map(|strategy| strategy.name).join(", ");
    println!("{names} x 5 lifeguards x 5 configs; oracle violations (whole trace/lake window):");
    let (mut failures, mut tables, mut drops) = (Vec::new(), Vec::new(), 0);
    for (table, departures, dropped) in results {
        println!("{table}");
        tables.push(table);
        failures.extend(departures);
        drops += dropped;
    }
    println!("the Idempotent Filter dropped {drops} repeated violations");
    assert!(failures.is_empty(), "{} cells differ:\n{}", failures.len(), failures.join("\n"));
    // The relation must have been checked over some actual drops.
    assert!(drops > 0, "the Idempotent Filter dropped nothing anywhere");
    assert_eq!(tables.join("\n"), ORACLE_COUNTS, "the oracle's violation counts moved");
}

/// The matrix's generators free a block only right before the next
/// `Malloc`, which flushes the filter anyway, so the `Free` row's own
/// invalidation never decides a verdict there. Here it does: a failing
/// access is reported, another block is freed, and the same access fails
/// again. The `Free` flushes the filter, so the repeat is reported under
/// every configuration, and [`if_drops`] finds nothing dropped; a filter
/// that skipped that flush would drop the repeat across the `Free`, which
/// the relation refuses.
#[test]
fn if_drops_holds_across_an_invalidating_free() {
    use igm::isa::{Annotation, MemRef, OpClass, Reg};
    let wild = OpClass::MemToReg { src: MemRef::word(0x5200_0000), rd: Reg::Eax };
    let trace = [
        TraceEntry::annot(0x100, Annotation::Malloc { base: 0x5000_0000, size: 64 }),
        TraceEntry::op(0x104, wild),
        TraceEntry::annot(0x108, Annotation::Free { base: 0x5000_0000 }),
        TraceEntry::op(0x10c, wild),
    ];
    for kind in [LifeguardKind::AddrCheck, LifeguardKind::MemCheck] {
        let runs: Vec<(Range<usize>, Observed, Observed)> = configs()
            .into_iter()
            .map(|(_, accel)| {
                let cfg = SessionConfig::new("free", kind).accel(accel);
                let (want, truth) =
                    (s::monitor_batched(&cfg, &trace), s::monitor_per_record(&cfg, &trace));
                (0..trace.len(), want, truth)
            })
            .collect();
        let at = |label| configs().iter().position(|(l, _)| *l == label).unwrap();
        for (with, without) in [("lma_if", "lma"), ("full", "lma_it")] {
            let (filtered, unfiltered) = (run(&runs[at(with)]), run(&runs[at(without)]));
            assert_eq!(unfiltered.0.len(), 2, "{kind:?}: both wild loads fail");
            assert_eq!(
                if_drops(filtered, unfiltered, &trace, &kind.etct()),
                Ok(0),
                "{kind:?} {with}"
            );
        }
    }
}

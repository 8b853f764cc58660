//! Steady-state monitoring of a batch performs **no heap allocation** on
//! the dispatch path. This binary installs a counting global allocator;
//! after one warm-up pass over a batch (which sizes the delivered-event
//! buffer, faults in shadow chunks and warms accelerator state),
//! re-dispatching and re-handling the same batch must leave the allocation
//! counter untouched — the fused sweep writes only the caller's event
//! buffer, and that, the caller's column arena and the handler cost sink
//! (its per-event marks included) are all reused. The co-simulator that
//! `Simulator::run_trace` steps on its own thread allocates nothing either.
//!
//! Allocations are counted **per thread**: the exact-zero tests read only
//! the counter of the thread they run on, so neither libtest's own
//! bookkeeping nor another test can show up in their window. The pipelined
//! pool test is multi-threaded by design; it reads the process-wide counter
//! instead, between two points at which the pool is quiescent, and
//! [`SERIAL`] keeps the other tests from allocating meanwhile.

use igm::accel::{AccelConfig, DispatchPipeline};
use igm::isa::{MemRef, OpClass, Reg, TraceEntry};
use igm::lba::{EventBuf, TraceBatch};
use igm::lifeguards::{CostSink, Lifeguard, LifeguardKind, Monitor};
use igm::runtime::{EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One test body at a time: the pipelined test counts process-wide, so the
/// others must not allocate beside it.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]. The mutex guards no data, so a test that failed while
/// holding it has left nothing inconsistent behind: the next test goes on
/// instead of failing on the poison flag.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts every allocation-path entry (alloc, alloc_zeroed, realloc), once
/// for the process and once for the calling thread, and the bytes the
/// calling thread asked for.
struct CountingAllocator;

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread tearing down may allocate after its locals died.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = THREAD_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations made so far by the calling thread.
fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes requested from the allocator so far by the calling thread (a
/// `realloc` counts its whole new size).
fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const HEAP: u32 = 0x9000_0000;

/// A steady-state batch: stores then loads over a premarked region plus
/// register traffic — every event class of the hot path, no rare-path
/// records (malloc/free record-list updates are allowed to allocate).
fn steady_batch(n: u32) -> Vec<TraceEntry> {
    let mut batch = Vec::with_capacity(n as usize);
    for i in 0..n {
        let pc = 0x1000 + 4 * i;
        let addr = HEAP + 4 * (i % 0x200);
        batch.push(match i % 6 {
            0 => TraceEntry::op(pc, OpClass::ImmToMem { dst: MemRef::word(addr) }),
            1 => TraceEntry::op(pc, OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Eax }),
            2 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            3 => TraceEntry::op(pc, OpClass::RegToMem { rs: Reg::Ecx, dst: MemRef::word(addr) }),
            4 => {
                TraceEntry::op(pc, OpClass::DestRegOpMem { src: MemRef::word(addr), rd: Reg::Edx })
            }
            _ => TraceEntry::op(pc, OpClass::ImmToReg { rd: Reg::Ebx }),
        });
    }
    batch
}

#[test]
fn steady_state_columnar_dispatch_allocates_nothing() {
    let _serial = serial();
    let batch = TraceBatch::from_entries(&steady_batch(2_048));
    for kind in LifeguardKind::ALL {
        for accel in [AccelConfig::baseline(), AccelConfig::full()] {
            let mut monitor = Monitor::build(kind, &accel, false, &[(HEAP, 0x1000)]);
            let mut cost = CostSink::new();
            let mut events = EventBuf::new();

            // Warm-up: size the arenas — the caller's, as
            // `Simulator::run_trace` passes them, and the Monitor's own, as
            // a pool session uses them — fault in shadow chunks, warm the
            // M-TLB/IF state. Two passes so capacity growth settles.
            for _ in 0..2 {
                monitor.observe_into(&batch, &mut events, &mut cost);
                monitor.observe_trace_batch(&batch);
            }
            let violations = monitor.lifeguard_mut().take_violations();
            assert!(
                violations.is_empty(),
                "{kind}: steady-state batch must be clean, got {:?}",
                violations.first()
            );

            // Measured steady-state passes: the whole batch through the
            // column sweeps → IT → ETCT → IF → handlers, into the caller's
            // buffers and into the Monitor's own, zero allocations.
            let before = thread_allocations();
            monitor.observe_into(&batch, &mut events, &mut cost);
            monitor.observe_trace_batch(&batch);
            let after = thread_allocations();
            assert_eq!(
                after - before,
                0,
                "{kind} / {}: {} allocation(s) on the steady-state columnar dispatch path",
                accel.label(),
                after - before
            );
            assert!(!events.is_empty(), "{kind}: events must actually flow");
            assert_eq!(cost.marks().len(), events.len(), "{kind}: one cost mark per event");
        }
    }
}

/// The batch can also be *built* allocation-free at steady state: clearing
/// a warm arena and re-scattering the same records must not touch the
/// allocator (column capacity is retained).
#[test]
fn steady_state_batch_build_allocates_nothing() {
    let _serial = serial();
    let entries = steady_batch(2_048);
    let kind = LifeguardKind::AddrCheck;
    let accel = AccelConfig::baseline();
    let mut lifeguard = kind.build_any(&accel);
    lifeguard.premark_region(HEAP, 0x1000);
    let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &kind.mask_config(&accel));
    let mut cost = CostSink::new();
    let mut events = EventBuf::new();
    let mut batch = TraceBatch::new();

    for _ in 0..2 {
        batch.clear();
        batch.extend_entries(entries.iter().copied());
        pipeline.dispatch_batch(&batch, &mut events);
        cost.clear();
        lifeguard.handle_batch(events.events(), &mut cost);
    }

    let before = thread_allocations();
    batch.clear();
    batch.extend_entries(entries.iter().copied());
    pipeline.dispatch_batch(&batch, &mut events);
    cost.clear();
    lifeguard.handle_batch(events.events(), &mut cost);
    let after = thread_allocations();
    assert_eq!(after - before, 0, "batch refill + dispatch must be allocation-free");
    assert_eq!(cost.marks().len(), events.len(), "one cost mark per event");
}

/// The timing stage of `Simulator::run_trace` runs on its own thread and
/// must not allocate there: `CoSim::new` sizes the in-flight record queue
/// for a log buffer full of the smallest records, so stepping through a
/// run that keeps the buffer full (every record delivers a heavy handler)
/// touches the allocator not once.
#[test]
fn co_simulator_steps_allocation_free() {
    let _serial = serial();
    let cfg = igm::timing::SystemConfig::isca08();
    let entries = steady_batch(2_048);
    let mut cosim = igm::timing::CoSim::new(cfg);
    let before = thread_allocations();
    for i in 0..4 * cfg.log_buffer_bytes as usize {
        let va = 0x2000_0000 + 64 * (i as u32 % 512);
        cosim.step_record(&entries[i % entries.len()], 1, 40, &[va]);
    }
    let after = thread_allocations();
    let report = cosim.finish();
    assert!(report.producer_stall_cycles > 0, "the log buffer must fill");
    assert_eq!(after - before, 0, "{} allocation(s) stepping the co-simulator", after - before);
}

/// Blocks until `pool` has nothing in flight: all `sent` records counted by
/// a spine and no epoch backlog. Seen twice, a pause apart, because a spine
/// counts a batch before it dispatches it and adds it to the backlog only
/// after.
fn settle(pool: &MonitorPool, sent: u64) {
    let idle = || {
        pool.stats().records == sent
            && pool.metrics().snapshot().gauge_value("igm_epoch_backlog_records") == Some(0)
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if idle() {
            std::thread::sleep(Duration::from_millis(2));
            if idle() {
                return;
            }
        }
        assert!(Instant::now() < deadline, "the pool never went quiescent");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Intra-session epoch pipelining keeps the arena discipline end to end:
/// every `TraceBatch` a pipelined epoch job drains rides back through its
/// `EpochResult` into the session channel's spare pool, so the producer
/// refills recycled arenas instead of building fresh ones. A threaded
/// pool run cannot be literally zero-alloc (epoch jobs, mpsc nodes and
/// violation vectors allocate per *epoch*), but it must amortize: after
/// a warm-up stretch, streaming another `N` records through the
/// always-pipelined path has to cost well under one allocation per
/// record — without recycling, rebuilding each batch's column arenas
/// alone would blow through that bound.
#[test]
fn pipelined_epochs_recycle_batch_arenas() {
    let _serial = serial();
    let entries = steady_batch(256);
    let pool = MonitorPool::new(PoolConfig {
        workers: 2,
        pipeline: PipelineMode::Always,
        epoch: EpochConfig::fixed(1_024),
        ..PoolConfig::default()
    });
    let session = pool.open_session(
        SessionConfig::new("hot", LifeguardKind::AddrCheck).premark(&[(HEAP, 0x1000)]),
    );

    // Warm-up: circulate enough arenas for the channel, the epoch
    // accumulator and the in-flight jobs, and settle column capacities.
    let warm_up = 64u64;
    for _ in 0..warm_up {
        session.send_batch(entries.clone()).unwrap();
    }
    // First quiescent point: every warm-up record has been through the
    // spine and every epoch it formed has come back, so nothing of the
    // warm-up is still allocating when the window opens.
    settle(&pool, warm_up * entries.len() as u64);
    let chunks = 256u64;
    let before = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..chunks {
        session.send_batch(entries.clone()).unwrap();
    }
    // Second quiescent point: `finish` returns once the session is final.
    let report = session.finish();
    let after = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
    assert!(report.violations.is_empty(), "steady batch must be clean");
    assert!(pool.stats().epoch_jobs > 0, "the pipelined path must actually ship epochs");
    let allocs = after - before;
    let records = chunks * entries.len() as u64;
    assert!(
        allocs < records / 8,
        "pipelined steady state allocated {allocs} times for {records} records — \
         drained arenas are not being recycled"
    );
    pool.shutdown();
}

/// The observability layer keeps the same discipline: a dispatch pass
/// wrapped in registry instrumentation — histogram start/stop timing,
/// counter adds, gauge occupancy updates, an explicit `record`, and span
/// flight-recorder stage writes (the seqlock ring is fixed slots, so
/// recording a sampled frame's stages is pure stores) — stays
/// zero-allocation. (Registration and recorder construction are
/// setup-path; they happen before the measured window, exactly as
/// `MonitorPool::new` registers before any record flows.)
#[test]
fn instrumented_dispatch_stays_allocation_free() {
    let _serial = serial();
    let registry = igm::obs::MetricsRegistry::new();
    let records = registry.counter("igm_records_total", "records dispatched");
    let occupancy = registry.gauge("igm_occupancy_bytes", "live queue bytes");
    let dispatch = registry.histogram("igm_dispatch_batch_nanos", "one batch through dispatch");
    let queue = registry.histogram("igm_queue_latency_nanos", "send to drain");
    let recorder = igm::span::FlightRecorder::new(igm::span::SpanConfig::default());
    let ring = recorder.ring_handle();
    let flow = igm::span::alloc_flow();
    let sampler = recorder.sampler();

    let entries = steady_batch(2_048);
    let batch = TraceBatch::from_entries(&entries);
    let kind = LifeguardKind::TaintCheck;
    let accel = AccelConfig::full();
    let mut lifeguard = kind.build_any(&accel);
    lifeguard.premark_region(HEAP, 0x1000);
    let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &kind.mask_config(&accel));
    let mut cost = CostSink::new();
    let mut events = EventBuf::new();

    for _ in 0..2 {
        pipeline.dispatch_batch(&batch, &mut events);
        cost.clear();
        lifeguard.handle_batch(events.events(), &mut cost);
    }

    let before = thread_allocations();
    occupancy.add(batch.len() as i64);
    let queued = queue.start();
    // The span hot path: one sampling branch, then stage records into the
    // fixed-slot seqlock ring around the dispatch.
    let tag = sampler
        .sample()
        .then_some(igm::span::FrameTag { flow, seq: 0 })
        .expect("the first frame of a flow is always sampled");
    let picked_up = recorder.now();
    let t0 = dispatch.start();
    pipeline.dispatch_batch(&batch, &mut events);
    cost.clear();
    lifeguard.handle_batch(events.events(), &mut cost);
    dispatch.stop(t0);
    recorder.record(
        ring,
        igm::span::Stage::Dispatch,
        igm::span::Track::Worker(0),
        tag,
        picked_up,
        recorder.now(),
    );
    queue.stop(queued);
    records.add(batch.len() as u64);
    occupancy.sub(batch.len() as i64);
    queue.record(37);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "{} allocation(s) on the instrumented steady-state dispatch path",
        after - before
    );
    assert_eq!(records.value(), batch.len() as u64);
    assert_eq!(occupancy.value(), 0);
    assert_eq!(cost.marks().len(), events.len(), "one cost mark per event");
    let snap = registry.snapshot();
    let h = snap.histogram_sample("igm_dispatch_batch_nanos", None).expect("registered");
    assert_eq!(h.hist.count(), 1, "the measured pass was timed");
    let chain = recorder.chain(tag);
    assert_eq!(chain.len(), 1, "the dispatch stage landed in the ring");
    assert_eq!(chain[0].stage, igm::span::Stage::Dispatch);
}

/// mcf's 96 MiB mmap region: whole 1 MiB shadow chunks, which a premark
/// fills without storing a byte.
const MMAP: (u32, u32) = (0x4000_0000, 96 << 20);

/// Pre-marking a loader region costs host memory by what the metadata
/// distinguishes, not by what the region spans. A region of whole chunks
/// allocates next to nothing (the parent memset 12 MiB for AddrCheck and
/// 24 MiB for MemCheck here); mcf's globals and stack are partial ranges of
/// three chunks in all, which have to be backed, and that is all the full
/// premark adds.
#[test]
fn premarking_allocates_by_distinguished_chunks_not_by_bytes() {
    let _serial = serial();
    let regions = igm::workload::Benchmark::Mcf.profile().premark_regions();
    assert!(regions.contains(&MMAP), "mcf's loader regions include the mmap region");
    for kind in [LifeguardKind::AddrCheck, LifeguardKind::MemCheck] {
        for accel in [AccelConfig::baseline(), AccelConfig::full()] {
            let what = format!("{kind} / {}", accel.label());
            let mut lifeguard = kind.build_any(&accel);
            let before = thread_bytes();
            lifeguard.premark_region(MMAP.0, MMAP.1);
            let whole = thread_bytes() - before;
            assert!(whole < 64 << 10, "{what}: {whole} bytes to premark whole chunks");

            let mut lifeguard = kind.build_any(&accel);
            let before = thread_bytes();
            for (base, len) in &regions {
                lifeguard.premark_region(*base, *len);
            }
            let all = thread_bytes() - before;
            assert!(all < 1 << 20, "{what}: {all} bytes to premark mcf's regions");
            // The simulated lifeguard still pays for every chunk it mapped.
            assert!(lifeguard.metadata_bytes() > 12 << 20, "{what}: simulated footprint");
        }
    }
}

/// An epoch-boundary snapshot copies the level-1 table and the backed
/// chunks only: none for the mmap region, three for all of mcf's regions
/// (the parent copied 24.8 MB).
#[test]
fn snapshot_of_a_premarked_memcheck_copies_backed_chunks_only() {
    let _serial = serial();
    let accel = AccelConfig::baseline();
    let mut lifeguard = LifeguardKind::MemCheck.build_any(&accel);
    lifeguard.premark_region(MMAP.0, MMAP.1);
    let before = thread_bytes();
    let snapshot = lifeguard.clone();
    let table_only = thread_bytes() - before;
    assert!(table_only < 128 << 10, "{table_only} bytes: the table (4096 entries), no chunk");
    assert_eq!(snapshot.metadata_bytes(), lifeguard.metadata_bytes());

    for (base, len) in igm::workload::Benchmark::Mcf.profile().premark_regions() {
        lifeguard.premark_region(base, len);
    }
    let before = thread_bytes();
    let snapshot = lifeguard.clone();
    let with_edges = thread_bytes() - before;
    assert!(with_edges < 1 << 20, "{with_edges} bytes: the table and three 256 KiB chunks");
    assert_eq!(snapshot.metadata_bytes(), lifeguard.metadata_bytes());
}

/// Under synthetic-workload (calloc) mode mcf's pointer-chase stores
/// rewrite accessible+initialized bits that the premark already set, so
/// no write ever makes a byte of the mmap region's metadata differ: all
/// 96 chunks stay one value each for the whole run, with and without the
/// accelerators.
#[test]
fn synthetic_mcf_run_leaves_the_premarked_region_unbacked() {
    let _serial = serial();
    let bench = igm::workload::Benchmark::Mcf;
    let records = if cfg!(debug_assertions) { 300_000 } else { 3_000_000 };
    let kind = LifeguardKind::MemCheck;
    for accel in [AccelConfig::baseline(), igm::sim::SimConfig::optimized(kind).accel] {
        let mut memcheck = igm::lifeguards::MemCheck::new(&kind.mask_config(&accel));
        memcheck.set_synthetic_workload_mode(true);
        for (base, len) in bench.profile().premark_regions() {
            memcheck.premark_region(base, len);
        }
        let mut monitor = igm::sim::Monitor::new(memcheck, &accel);
        let mut chunks = igm::lba::chunks(bench.trace(records), 16 * 1024);
        let mut batch = TraceBatch::new();
        let mut stores = 0usize;
        while chunks.next_into_batch(&mut batch) {
            stores +=
                batch.addrs().iter().filter(|a| (MMAP.0..MMAP.0 + MMAP.1).contains(a)).count();
            monitor.observe_trace_batch(&batch);
        }
        assert!(stores > records as usize / 10, "the trace must work the mmap region");
        assert!(monitor.violations().is_empty(), "{}: clean workload", accel.label());
        let shadow = monitor.lifeguard().shadow();
        for chunk in (MMAP.0..MMAP.0 + MMAP.1).step_by(1 << 20) {
            assert!(shadow.chunk_base_va_if_present(chunk).is_some(), "{chunk:#x} is mapped");
            assert!(!shadow.chunk_is_backed(chunk), "{}: {chunk:#x} got a store", accel.label());
        }
    }
}

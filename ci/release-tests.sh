#!/usr/bin/env bash
# The suites that run a second time under the release profile, listed once
# for CI (.github/workflows/ci.yml) and for local runs. `cargo test -q`
# has already run all of them in debug; each is here because optimization
# changes what it can see.
set -euo pipefail
cd "$(dirname "$0")/.."

# Root-package integration tests.
#   alloc_free: the column sweeps only autovectorize (and the zero-alloc
#     claim only matters) under optimization; its allocation budgets run a
#     3 M-record synthetic mcf only in release.
#   equivalence, pipeline_determinism, runtime, batch_equivalence,
#     trace_replay: the pool's hammer tests (the equivalence matrix's pool,
#     replay, wire and lake-window columns, runtime's and the proptests'
#     pipelined sessions, the Auto gate, concurrent tenants, pipelined
#     record ids, and runtime's shutdown hammer over producers that help
#     while they wait, shutdown_while_producers_help_never_hangs_or_
#     orphans_a_session) only see the interleavings the host happens to
#     produce, and optimized workers race far more tightly than debug ones.
#     The same holds for teed sessions, whose frames are written by
#     whichever thread pumps the batch: trace_replay's
#     teed_frames_match_a_calling_thread_writer_while_the_producer_helps
#     and a_full_tee_sink_fails_only_its_own_capture_or_lane, and the
#     matrix's byte comparisons of teed artifacts.
#   golden_sidecar, accel_oracle, shadow_transparency, experiments,
#     cost_sink: posting word kernels, the packed-key filter, the fused IT
#     sweep, the shadow window kernels and the co-simulator's cache kernel
#     (both golden tables and the recorded-cost pins) are shift-and-mask
#     code, exactly what can differ between debug (overflow checks,
#     shift-width panics) and release.
#   properties: the two accelerator-invariance properties run the fused IT
#     sweep and the IF's packed keys over generated programs, the same
#     shift-and-mask code as accel_oracle.
cargo test --release -q -p igm \
    --test alloc_free \
    --test equivalence --test pipeline_determinism --test runtime --test batch_equivalence \
    --test trace_replay \
    --test golden_sidecar --test accel_oracle --test shadow_transparency --test experiments \
    --test cost_sink --test properties

# Per-crate suites, for the same reasons: the gate's decision table and the
# hand-driven pool tests (the Auto gate, a panic inside a helped turn); the
# posting kernels against their scalar oracles and the index properties;
# the trace codec's bitmap, varint and shift
# code, the one decoder every untrusted frame (file or wire chunk) goes
# through, and the wire protocol's hostile-peer paths over it; the
# accelerator units, the shadow map's uniform-chunk arithmetic against its
# flat oracle, and the lifeguards.
# The runtime's unit tests include the ownership-protocol explorer; its
# larger configuration (three workers, or three sessions) is #[ignore]d
# in debug and runs here, with --include-ignored.
cargo test --release -q -p igm-runtime --lib -- --include-ignored
# work_stealing: its steal assertion depends on worker 0 staying inside
# one long batch while the parked worker is woken, a race only release
# timing tightens enough to matter.
cargo test --release -q -p igm-runtime --test work_stealing
# lake: capture_to_lake's frames and IGMX sidecars are now built on pool
# workers (or a helping producer, or a pipelined spine) as each batch is
# monitored, and only release timing tightens how those writes interleave
# with the producer's sends and with helped turns.
cargo test --release -q -p igm-lake --test lake
cargo test --release -q -p igm-trace --lib postings
# The fused codec walks against the four-pass oracle: hit-bit words,
# worst-case escape buffers written by index, and the varint-terminator
# scan that locates a section before it is decoded.
cargo test --release -q -p igm-trace --lib codec
cargo test --release -q -p igm-trace --test index
cargo test --release -q -p igm-trace --test codec
# The net protocol suite with its ignored test: the server's HELLO deadline
# is a 5 s constant, so the silent-peer rejection waits it out and stays out
# of the debug `cargo test` run.
cargo test --release -q -p igm-net --test protocol -- --include-ignored
cargo test --release -q -p igm-core -p igm-shadow -p igm-lifeguards
# igm-sim and igm-timing: `Simulator::run_trace` runs its two stages on two
# threads, whose interleaving optimization tightens, and `Cache` is
# shift-and-mask code.
cargo test --release -q -p igm-sim -p igm-timing

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
#   pipeline_determinism, cost_sink, batch_equivalence: the pool's hammer
#     tests only see the interleavings the host happens to produce, and
#     optimized workers race far more tightly than debug ones.
#   golden_sidecar, accel_oracle, shadow_transparency: posting word
#     kernels, the packed-key filter, the fused IT sweep and the shadow
#     window kernels are shift-and-mask code, exactly what can differ
#     between debug (overflow checks, shift-width panics) and release.
cargo test --release -q -p igm \
    --test alloc_free \
    --test pipeline_determinism --test cost_sink --test batch_equivalence \
    --test golden_sidecar --test accel_oracle --test shadow_transparency

# Per-crate suites, for the same reasons: the gate's decision table and the
# hand-driven pool test; the posting kernels against their scalar oracles
# and the index properties; the accelerator units, the shadow map's
# uniform-chunk arithmetic against its flat oracle, and the lifeguards.
cargo test --release -q -p igm-runtime --lib
cargo test --release -q -p igm-trace --lib postings
cargo test --release -q -p igm-trace --test index
cargo test --release -q -p igm-core -p igm-shadow -p igm-lifeguards

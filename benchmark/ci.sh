#!/usr/bin/env bash
# What a CI workflow would call for this package: offline build, the
# harness's own tests, a --scale 0.01 run of all seven workloads (traced
# too), and a check that the names printed are exactly the names
# /BENCHMARK.json declares.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
out=benchmark/out/ci

cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --scale 0.01 --seconds 0.2 --trace --out "$out"

python3 - "$out/results.json" BENCHMARK.json <<'PY'
import json, sys
results, declared = (json.load(open(p)) for p in sys.argv[1:3])
workloads = [w["name"] for w in declared["workloads"]]
tables = {False: [m["name"] for m in declared["end_to_end"]],
          True: [m["name"] for m in declared["per_layer"]]}
seen = []
for r in results:
    detail, result = r["detail"], r["result"]
    assert result["correct"] and result["failed"] == 0, (detail["workload"], result["failed"])
    assert list(result["metrics"]) == tables[detail["traced"]], detail["workload"]
    seen.append((detail["workload"], detail["traced"]))
assert seen == [(w, t) for w in workloads for t in (False, True)], seen
print(f"names ok: {len(workloads)} workloads, "
      f"{len(tables[False])} end-to-end and {len(tables[True])} per-layer metrics")
PY

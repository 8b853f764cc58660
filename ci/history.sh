#!/usr/bin/env bash
# Checks the benchmark trajectory in BENCH_history.jsonl.
#
#   ci/history.sh [FILE]
#
# FILE (default: BENCH_history.jsonl at the repository root) holds one
# paired campaign per line, as ci/paired.sh writes it, oldest first. Each
# line must record the host it ran on (`nproc`, a positive integer, and
# `cpu`, the CPU model). Exact metrics repeat bit for bit on any host, so
# for every workload a line shares with the line before it, the line's
# exact metrics (its head side: names, units and values) must equal the
# previous line's, except the metrics the line lists under `declared`.
# The exit status is non-zero when any line breaks either rule; each
# problem is printed with its line number.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
file=${1:-$root/BENCH_history.jsonl}

python3 - "$file" <<'EOF'
import json
import sys

path = sys.argv[1]
problems = []
prev = None
lines = 0
with open(path) as f:
    for no, text in enumerate(f, 1):
        if not text.strip():
            continue
        lines += 1
        try:
            line = json.loads(text)
        except json.JSONDecodeError as e:
            problems.append(f"line {no}: not JSON ({e})")
            prev = None
            continue
        nproc = line.get("nproc")
        if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 1:
            problems.append(f"line {no}: no nproc (got {nproc!r})")
        cpu = line.get("cpu")
        if not isinstance(cpu, str) or not cpu.strip():
            problems.append(f"line {no}: no cpu model (got {cpu!r})")
        workloads = line.get("workloads", {})
        if prev is not None:
            declared = set(line.get("declared", []))
            for name in sorted(workloads.keys() & prev.keys()):
                now = workloads[name].get("exact", {}).get("head", {})
                before = prev[name].get("exact", {}).get("head", {})
                for metric in sorted(now.keys() | before.keys()):
                    if metric in declared or now.get(metric) == before.get(metric):
                        continue
                    problems.append(
                        f"line {no}: {name} {metric} moved from {before.get(metric)} "
                        f"to {now.get(metric)} and is not declared"
                    )
        prev = workloads

for p in problems:
    print(p, file=sys.stderr)
if problems:
    sys.exit(1)
print(f"{path}: {lines} campaign line(s), host recorded on each, exact metrics unchanged "
      "between neighbours except where declared")
EOF

#!/usr/bin/env bash
# A paired benchmark campaign against a parent revision.
#
#   ci/paired.sh <parent-rev> <workload>... [--pairs N] [--against REV]
#                [--declared metric,...]
#
# Builds the benchmark harness of <parent-rev> from a `git archive` export
# under $PAIRED_DIR (default ${TMPDIR:-/tmp}/igm-paired; exports are kept
# and reused per commit) and of the working tree (or of REV with
# --against), then runs every workload N times on each side with seeds
# 1..N, alternating which side goes first by seed parity, each run from its
# own checkout root and for BENCHMARK.json's run_seconds. Per metric of
# these untraced runs it prints the median paired ratio
# (this side / parent, same seed), both sides' quartiles, how many pairs
# this side won, and a verdict:
#   gain        at least 10 pairs, won at least 9 of every 10, and the
#               medians differ by more than the parent's interquartile range;
#   loss        the median ratio is worse than the metric's BENCHMARK.json
#               bound (metrics without a bound are never a loss);
#   unresolved  neither. The run-order-sensitive setup_s rows of
#               net_loopback, paced_detect and cosim_figures are always
#               unresolved.
# A metric whose interquartile range on one side is at least twice the
# other side's, and at least 2 % of that side's median, is also marked
# `noisy:<side>` (parent or head): host load that landed on one side's
# runs, whose ratio deserves a rerun before it is read. The floor keeps a
# fixed-rate or near-constant metric, whose ranges are a fraction of a
# percent, from being marked for a ratio of two tiny ranges. The mark
# changes no verdict. A workload with any end-to-end row marked noisy
# has its pairs run once more, with the same seeds and alternation; the
# rerun's table prints under the first, the campaign JSON keeps it as a
# `rerun` object under the workload, and a loss in either pass fails.
# The metrics the harness declares exact (benchmark/src/metrics.rs) are
# per-layer ones, reported only by traced runs, so every workload also gets
# one traced pair (seed 1); its exact metrics must match bit for bit unless
# listed with --declared. The exit status is non-zero on a loss, an
# undeclared exact difference, or a workload with no exact metric compared.
# The campaign ends by writing one JSON object, on one line, to
# $PAIRED_DIR/campaign-<time>.json: both revisions (the working tree as
# HEAD plus a hash of its diff), nproc and the CPU model, per workload and
# metric both sides' median and quartiles, the pairs won, the verdict and
# the noisy side (null when neither), and the traced pair's exact metrics
# verbatim. A line of that form per change is what BENCH_history.jsonl at
# the repository root collects.
set -euo pipefail

usage() {
    sed -n '2,44p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)
workloads=()
pairs=10
against=""
declared=""
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --against) against=$2; shift 2 ;;
        --declared) declared=$2; shift 2 ;;
        -h|--help) usage ;;
        --*) echo "unknown option $1" >&2; usage ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || usage

dir=${PAIRED_DIR:-${TMPDIR:-/tmp}/igm-paired}
mkdir -p "$dir"

# Exports <rev> once per commit and builds its harness; prints the root.
checkout() {
    local sha
    sha=$(git -C "$root" rev-parse --short=12 "$1^{commit}")
    local d=$dir/$sha
    if [ ! -x "$d/benchmark/target/release/igm-benchmark" ]; then
        rm -rf "$d"
        mkdir -p "$d"
        git -C "$root" archive "$sha" | tar -x -C "$d"
        echo "building $1 ($sha) in $d" >&2
        (cd "$d" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    fi
    echo "$d"
}

base=$(checkout "$parent")
parent_rev=$(git -C "$root" rev-parse "$parent^{commit}")
if [ -n "$against" ]; then
    head=$(checkout "$against")
    head_rev=$(git -C "$root" rev-parse "$against^{commit}")
else
    echo "building the working tree" >&2
    (cd "$root" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    head=$root
    head_rev=$(git -C "$root" rev-parse HEAD)
    if [ -n "$(git -C "$root" status --porcelain)" ]; then
        diff_hash=$( (git -C "$root" diff HEAD; git -C "$root" ls-files --others --exclude-standard \
            | xargs -r -I{} cat "$root/{}") | sha1sum | cut -c1-12)
        head_rev="$head_rev+worktree:$diff_hash"
    fi
fi
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)

stamp=$(date +%Y%m%d-%H%M%S)
results=$dir/results-$stamp.tsv
: > "$results"
run() { # side root workload seed trace pass
    local line
    line=$(cd "$2" && benchmark/target/release/igm-benchmark --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace "$5" --out "$dir/out/$1" | tail -n 1)
    printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$3" "$1" "$4" "$5" "$6" "$line" >> "$results"
}
run_pairs() { # workload pass
    for seed in $(seq 1 "$pairs"); do
        echo "$1: pair $seed of $pairs (pass $2)" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$base" "$1" "$seed" 0 "$2"
            run head "$head" "$1" "$seed" 0 "$2"
        else
            run head "$head" "$1" "$seed" 0 "$2"
            run parent "$base" "$1" "$seed" 0 "$2"
        fi
    done
}
# The analysis, in two modes. `noisy RESULTS BENCHMARK.json WORKLOAD` prints
# the workload's first-pass end-to-end rows marked noisy (nothing when none
# is); `report RESULTS BENCHMARK.json METRICS_RS DECLARED OUT PARENT HEAD
# NPROC CPU PAIRS` prints every table and writes the campaign record.
read -r -d '' analysis <<'EOF' || true
import json, re, statistics, sys

mode, results, bench = sys.argv[1:4]
spec = json.load(open(bench))
decl = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
end_to_end = {m["name"] for m in spec["end_to_end"]}
order_rows = {("net_loopback", "setup_s"), ("paced_detect", "setup_s"), ("cosim_figures", "setup_s")}

runs = {}  # (workload, side, seed, pass) -> untraced result object
traced = {}  # (workload, side) -> traced result object
for line in open(results):
    w, side, seed, trace, npass, blob = line.rstrip("\n").split("\t", 5)
    if trace == "1":
        traced[(w, side)] = json.loads(blob)
    else:
        runs[(w, side, int(seed), int(npass))] = json.loads(blob)

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

NOISY_FLOOR = 0.02

def noisy_side(pq, hq):
    """The side whose interquartile range is at least twice the other's and
    at least NOISY_FLOOR of its own median."""
    p_iqr, h_iqr = pq[2] - pq[0], hq[2] - hq[0]
    if h_iqr > 0 and h_iqr >= 2 * p_iqr and h_iqr >= NOISY_FLOOR * abs(hq[1]):
        return "head"
    if p_iqr > 0 and p_iqr >= 2 * h_iqr and p_iqr >= NOISY_FLOOR * abs(pq[1]):
        return "parent"
    return None

def compare(w, npass, show):
    """One pass of a workload's pairs: per-metric rows (printed when
    `show`), and whether the pass failed (a loss, an incorrect run or a
    failed operation)."""
    bad = False
    rows = {}
    seeds = sorted(s for (x, side, s, n) in runs
                   if x == w and n == npass and side == "parent" and (w, "head", s, n) in runs)
    got = lambda side, s: runs[(w, side, s, npass)]
    if show:
        print(f"\n{w}: {len(seeds)} pairs" + (" (rerun)" if npass > 1 else ""))
    for side in ("parent", "head"):
        r = [got(side, s) for s in seeds] + ([traced[(w, side)]] if npass == 1 and (w, side) in traced else [])
        failed = sum(o.get("failed", 0) for o in r)
        if not all(o.get("correct") for o in r) or failed:
            if show:
                print(f"  {side}: correct on {sum(bool(o.get('correct')) for o in r)} of {len(r)} runs, {failed} failed operations")
            bad = True
    names = sorted(set().union(*(got("parent", s)["metrics"] for s in seeds)))
    if show:
        print(f"  {'metric':<44} {'ratio':>7} {'parent q1/q2/q3':>33} {'this q1/q2/q3':>33} {'wins':>6}  verdict")
    for name in names:
        pairs = [(got("parent", s)["metrics"].get(name), got("head", s)["metrics"].get(name)) for s in seeds]
        pairs = [(p["value"], h["value"]) for p, h in pairs if p and h]
        if not pairs:
            continue
        d = decl.get(name, {})
        higher = d.get("better", "higher") == "higher"
        ratios = [h / p for p, h in pairs if p]
        ratio = statistics.median(ratios) if ratios else float("nan")
        wins = sum((h > p) if higher else (h < p) for p, h in pairs)
        pq = quartiles([p for p, _ in pairs])
        hq = quartiles([h for _, h in pairs])
        better_by = (hq[1] - pq[1]) if higher else (pq[1] - hq[1])
        bound = d.get("bound")
        if (w, name) in order_rows:
            verdict = "unresolved (run order)"
        elif bound is not None and ratios and ((ratio < 1 - bound) if higher else (ratio > 1 + bound)):
            verdict = "loss"
            bad = True
        elif len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and better_by > pq[2] - pq[0]:
            verdict = "gain"
        else:
            verdict = "unresolved"
        noisy = noisy_side(pq, hq)
        if show:
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            mark = f" noisy:{noisy}" if noisy else ""
            print(f"  {name:<44} {ratio:>7.3f} {fmt(pq):>33} {fmt(hq):>33} {wins:>3}/{len(pairs):<2}  {verdict}{mark}")
        rows[name] = {
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "head": {"q1": hq[0], "median": hq[1], "q3": hq[2]},
            "ratio": ratio, "wins": wins, "pairs": len(pairs), "verdict": verdict,
            "noisy": noisy}
    return rows, bad

if mode == "noisy":
    rows, _ = compare(sys.argv[4], 1, False)
    print(",".join(n for n, r in rows.items() if n in end_to_end and r["noisy"]))
    sys.exit(0)

metrics_rs, declared, out, parent_rev, head_rev, nproc, cpu, npairs = sys.argv[4:12]
declared = set(filter(None, declared.split(",")))
src = open(metrics_rs).read()
exact = set(re.findall(r'\bexact\("([^"]+)"', src))
exact |= set(re.findall(r'\b(?:share|count)\("([^"]+)",[^)]*\btrue\)', src))
campaign = {"parent": parent_rev, "head": head_rev, "nproc": int(nproc), "cpu": cpu,
            "pairs": int(npairs), "declared": sorted(declared), "workloads": {}}
bad = False
for w in dict.fromkeys(k[0] for k in runs):
    rows, failed = compare(w, 1, True)
    record = campaign["workloads"][w] = {"metrics": rows}
    bad |= failed
    p, h = (traced[(w, side)]["metrics"] for side in ("parent", "head"))
    compared = sorted(n for n in exact if n in p and n in h)
    differs = [n for n in compared if p[n]["value"] != h[n]["value"]]
    record["exact"] = {side: {n: m[n] for n in compared} for side, m in (("parent", p), ("head", h))}
    record["exact_differs"] = differs
    for n in differs:
        print(f"  {n:<44} {'declared' if n in declared else 'EXACT DIFFERS'} (traced pair)")
    print(f"  exact metrics of the traced pair: {len(compared) - len(differs)} of {len(compared)} identical")
    if not compared or any(n not in declared for n in differs):
        bad = True
    if any(k[0] == w and k[3] == 2 for k in runs):
        rows, failed = compare(w, 2, True)
        record["rerun"] = {"metrics": rows}
        bad |= failed
campaign["ok"] = not bad
with open(out, "w") as f:
    f.write(json.dumps(campaign, sort_keys=True) + "\n")
print(f"\ncampaign record: {out}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF

for w in "${workloads[@]}"; do
    run_pairs "$w" 1
    echo "$w: traced pair" >&2
    run parent "$base" "$w" 1 1 1
    run head "$head" "$w" 1 1 1
    noisy=$(python3 -c "$analysis" noisy "$results" "$root/BENCHMARK.json" "$w")
    if [ -n "$noisy" ]; then
        echo "$w: noisy end-to-end rows ($noisy): running the pairs again" >&2
        run_pairs "$w" 2
    fi
done
echo "raw results: $results" >&2

python3 -c "$analysis" report "$results" "$root/BENCHMARK.json" "$root/benchmark/src/metrics.rs" \
    "$declared" "$dir/campaign-$stamp.json" "$parent_rev" "$head_rev" "$(nproc)" "$cpu" "$pairs"

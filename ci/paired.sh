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
# changes no verdict.
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
    sed -n '2,41p' "$0" | sed 's/^# \{0,1\}//' >&2
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
run() { # side root workload seed trace
    local line
    line=$(cd "$2" && benchmark/target/release/igm-benchmark --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace "$5" --out "$dir/out/$1" | tail -n 1)
    printf '%s\t%s\t%s\t%s\t%s\n' "$3" "$1" "$4" "$5" "$line" >> "$results"
}
for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        echo "$w: pair $seed of $pairs" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$base" "$w" "$seed" 0
            run head "$head" "$w" "$seed" 0
        else
            run head "$head" "$w" "$seed" 0
            run parent "$base" "$w" "$seed" 0
        fi
    done
    echo "$w: traced pair" >&2
    run parent "$base" "$w" 1 1
    run head "$head" "$w" 1 1
done
echo "raw results: $results" >&2

python3 - "$results" "$root/BENCHMARK.json" "$root/benchmark/src/metrics.rs" "$declared" \
    "$dir/campaign-$stamp.json" "$parent_rev" "$head_rev" "$(nproc)" "$cpu" "$pairs" <<'EOF'
import json, re, statistics, sys

results, bench, metrics_rs, declared, out, parent_rev, head_rev, nproc, cpu, npairs = sys.argv[1:11]
declared = set(filter(None, declared.split(",")))
spec = json.load(open(bench))
decl = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
src = open(metrics_rs).read()
exact = set(re.findall(r'\bexact\("([^"]+)"', src))
exact |= set(re.findall(r'\b(?:share|count)\("([^"]+)",[^)]*\btrue\)', src))
order_rows = {("net_loopback", "setup_s"), ("paced_detect", "setup_s"), ("cosim_figures", "setup_s")}

runs = {}  # (workload, side, seed) -> untraced result object
traced = {}  # (workload, side) -> traced result object
for line in open(results):
    w, side, seed, trace, blob = line.rstrip("\n").split("\t", 4)
    if trace == "1":
        traced[(w, side)] = json.loads(blob)
    else:
        runs[(w, side, int(seed))] = json.loads(blob)

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

campaign = {"parent": parent_rev, "head": head_rev, "nproc": int(nproc), "cpu": cpu,
            "pairs": int(npairs), "declared": sorted(declared), "workloads": {}}
bad = False
for w in dict.fromkeys(k[0] for k in runs):
    record = campaign["workloads"][w] = {"metrics": {}}
    seeds = sorted(s for (x, side, s) in runs if x == w and side == "parent" and (w, "head", s) in runs)
    print(f"\n{w}: {len(seeds)} pairs")
    for side in ("parent", "head"):
        r = [runs[(w, side, s)] for s in seeds] + [traced[(w, side)]]
        failed = sum(o.get("failed", 0) for o in r)
        if not all(o.get("correct") for o in r) or failed:
            print(f"  {side}: correct on {sum(bool(o.get('correct')) for o in r)} of {len(r)} runs, {failed} failed operations")
            bad = True
    names = sorted(set().union(*(runs[(w, "parent", s)]["metrics"] for s in seeds)))
    print(f"  {'metric':<44} {'ratio':>7} {'parent q1/q2/q3':>33} {'this q1/q2/q3':>33} {'wins':>6}  verdict")
    for name in names:
        pairs = [(runs[(w, "parent", s)]["metrics"].get(name), runs[(w, "head", s)]["metrics"].get(name)) for s in seeds]
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
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        mark = f" noisy:{noisy}" if noisy else ""
        print(f"  {name:<44} {ratio:>7.3f} {fmt(pq):>33} {fmt(hq):>33} {wins:>3}/{len(pairs):<2}  {verdict}{mark}")
        record["metrics"][name] = {
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "head": {"q1": hq[0], "median": hq[1], "q3": hq[2]},
            "ratio": ratio, "wins": wins, "pairs": len(pairs), "verdict": verdict,
            "noisy": noisy}
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
campaign["ok"] = not bad
with open(out, "w") as f:
    f.write(json.dumps(campaign, sort_keys=True) + "\n")
print(f"\ncampaign record: {out}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF

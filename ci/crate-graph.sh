#!/usr/bin/env bash
# Fails when the simulator, the workload generators or the lifeguard layer
# pull in the runtime layers. `igm-sim` and `igm-workload` sit below the
# streaming runtime: the paper's figures and the trace generators must build
# without the pool, the trace codec, the wire protocol or the lake, also
# through a dependency of a dependency. `igm-lifeguards` (home of `Monitor`,
# which both the simulator and the runtime build on) and `igm-core` sit below
# both, so they are held to the same rule.
set -euo pipefail
cd "$(dirname "$0")/.."

forbidden='igm-(runtime|trace|obs|span|net|lake)'
status=0
for crate in igm-sim igm-workload igm-lifeguards igm-core; do
    found=$(cargo tree --offline -e normal -p "$crate" --prefix none --format '{p}' |
        awk '{print $1}' | grep -Ex "$forbidden" | sort -u || true)
    if [ -n "$found" ]; then
        echo "$crate depends on runtime-layer crates:" $found >&2
        status=1
    fi
done
exit $status

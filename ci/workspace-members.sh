#!/usr/bin/env bash
# Fails when the root manifest's `default-members` is not `members` plus
# ".". Plain `cargo build` / `cargo test` (the tier-1 gate) cover only the
# default members, and cargo rejects a `crates/*` glob there, so a crate
# added to `members` alone silently drops out of tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."

# The quoted entries of one top-level `name = [ ... ]` list, sorted.
list() {
    sed -n "/^$1 = \[/,/^\]/p" Cargo.toml | grep -o '"[^"]*"' | sort
}

want=$( { list members; echo '"."'; } | sort)
have=$(list default-members)
if [ "$want" != "$have" ]; then
    echo "Cargo.toml: default-members must equal members plus \".\"" >&2
    diff <(echo "$want") <(echo "$have") >&2 || true
    exit 1
fi

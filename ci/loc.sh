#!/usr/bin/env bash
# Prints the repository's line counts.
#
#   ci/loc.sh [ROOT]
#
# ROOT (default: the repository this script lives in) is any checkout,
# e.g. a `git archive` export of an earlier commit. Two counts:
#   repository  every line of every `.rs` file under crates/, src/, tests/
#               and examples/ (benchmark/ is its own package and is not
#               counted);
#   library     per file under crates/*/src and src/, the lines before the
#               first `#[cfg(test)]` that opens an inline `mod … {` (the
#               unit-test module); files the build includes only under
#               `#[cfg(test)] mod name;` (test-only modules of their own)
#               count zero. A `#[cfg(test)]` on anything else (a test-only
#               helper function, a `mod name;` line) does not end a file.
# Print-only: it checks nothing and always exits 0 on a readable tree.
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}

python3 - "$root" <<'EOF'
import os
import re
import sys

root = sys.argv[1]
opens_mod = re.compile(r'^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{')
declares_mod = re.compile(r'^\s*(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*;')


def rs_files(*dirs):
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(root, d)):
            subdirs.sort()
            for f in sorted(files):
                if f.endswith('.rs'):
                    yield os.path.join(base, f)


def lines(path):
    """The file's lines, as `wc -l` counts them (newline-terminated)."""
    with open(path, encoding='utf-8') as f:
        return f.read().split('\n')[:-1]


def next_item(text, i):
    """Index of the first line after `i` that is not an attribute."""
    i += 1
    while i < len(text) and text[i].strip().startswith('#['):
        i += 1
    return i


def child_path(parent, name):
    """Where `mod name;` declared in `parent` lives."""
    d, f = os.path.split(parent)
    if f not in ('lib.rs', 'main.rs', 'mod.rs'):
        d = os.path.join(d, f[:-3])
    for cand in (os.path.join(d, name + '.rs'), os.path.join(d, name, 'mod.rs')):
        if os.path.exists(cand):
            return cand
    return None


lib_dirs = [os.path.join('crates', c, 'src') for c in sorted(os.listdir(os.path.join(root, 'crates')))
            if os.path.isdir(os.path.join(root, 'crates', c, 'src'))] + ['src']
lib_files = list(rs_files(*lib_dirs))

test_only = set()
for path in lib_files:
    text = lines(path)
    for i, line in enumerate(text):
        if line.strip() == '#[cfg(test)]':
            j = next_item(text, i)
            m = declares_mod.match(text[j]) if j < len(text) else None
            if m:
                child = child_path(path, m.group(3))
                if child:
                    test_only.add(child)

library = 0
for path in lib_files:
    if path in test_only:
        continue
    text = lines(path)
    n = len(text)
    for i, line in enumerate(text):
        if line.strip() == '#[cfg(test)]':
            j = next_item(text, i)
            if j < len(text) and opens_mod.match(text[j]):
                n = i
                break
    library += n

repository = sum(len(lines(p)) for p in rs_files('crates', 'src', 'tests', 'examples'))
print(f'repository {repository}')
print(f'library    {library}')
EOF

#!/usr/bin/env bash
# List the places the library sources seed or hold a random generator.
#
# Every protocol draw is named (crates/mpc/src/stream.rs): a stream is built
# from (seed, domain, shard, step, index) where it is used, and nothing holds a
# generator across draws. This prints each line under crates/*/src (the bench
# crate excluded) that calls `seed_from_u64` or declares a field of type
# `StdRng`, `Option<StdRng>` or `Vec<StdRng>`, up to the file's `mod tests`;
# comment lines are skipped. CI diffs the output, line numbers
# stripped, against scripts/rng_sites.allow.
#
# Usage: scripts/rng_sites.sh   (from anywhere; needs only bash, find, grep, sed)
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' -not -path 'crates/bench/*' \
    -not -path '*/target/*' | sort | while read -r file; do
    sed '/^\s*mod tests\b/,$d' "$file" |
        grep -nE 'seed_from_u64|^\s*(pub(\(crate\))? )?[a-z_][a-z0-9_]*: (Option<|Vec<)?StdRng\b' |
        grep -vE '^[0-9]+:\s*//' |
        sed -E "s|^([0-9]+):\s*|$file:\1: |" || true
done

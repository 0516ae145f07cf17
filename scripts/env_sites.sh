#!/usr/bin/env bash
# List the places the sources read an environment variable.
#
# Every knob a run reads from its environment is a line here: the party mode,
# the trace file, the bench horizon and the elastic binary's two settings. This
# prints each line under crates/*/src (bench binaries included, the perf
# package excluded) that calls `env::var` or `env::var_os`, up to the file's
# `mod tests`; comment lines are skipped. CI diffs the output, line numbers
# stripped, against scripts/env_sites.allow, so a new variable is seen in
# review.
#
# Usage: scripts/env_sites.sh   (from anywhere; needs only bash, find, grep, sed)
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' -not -path 'crates/bench/src/bin/perf/*' \
    -not -path '*/target/*' | sort | while read -r file; do
    sed '/^\s*mod tests\b/,$d' "$file" |
        grep -nE '\benv::var(_os)?\(' |
        grep -vE '^[0-9]+:\s*//' |
        sed -E "s|^([0-9]+):\s*|$file:\1: |" || true
done

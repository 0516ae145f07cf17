#!/usr/bin/env bash
# List the places the library sources charge gates to a cost meter.
#
# Every gate is priced through the AND count of a generated circuit
# (crates/mpc/src/circuit.rs) at its operands' public widths. This prints each
# line under crates/*/src that records kernels, reductions or ANDs on a meter
# (`.kernels(`, `.reductions(`, `.ands(`), charges a network or compaction
# (`.charge(…)`, `.charge_flag_keyed(…)`), or sets a gate count of a
# `CostReport` literal (`secure_compares:`, `secure_swaps:`, `secure_ands:`,
# `secure_adds:`, but not the report's own field-wise algebra over `self`), up
# to the file's `mod tests`; comment lines are skipped. CI diffs the output, line numbers
# stripped, against scripts/price_sites.allow, so a new hand-derived price shows
# up in review.
#
# Usage: scripts/price_sites.sh   (from anywhere; needs only bash, find, grep, sed)
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' -not -path '*/target/*' | sort |
    while read -r file; do
        sed '/^\s*mod tests\b/,$d' "$file" |
            grep -nE '\.(kernels|reductions|ands)\(|\.charge(_flag_keyed)?\([^)]|^\s*secure_(compares|swaps|ands|adds):' |
            grep -vE '^[0-9]+:\s*//|secure_[a-z]+: self\.' |
            sed -E "s|^([0-9]+):\s*|$file:\1: |" || true
    done

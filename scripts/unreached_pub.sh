#!/usr/bin/env bash
# List the `pub` items of the workspace's library crates that nothing outside
# the crate names.
#
# For each library crate under crates/, print every
# `pub fn|struct|enum|trait|type|const|static` declared in its `src/` whose name
# appears as a whole word in no `.rs` file outside that `src/`: other crates,
# every `tests/` directory, `examples/`, the bench bins and the perf package.
# The `suite` crate's blanket re-exports name no item, so they are not a use.
#
# Each printed item is a candidate for `pub(crate)`; after narrowing, rustc's
# `dead_code` lint reports the ones nothing inside the crate reaches either.
# An item rustc requires to be public (it appears in a public signature, or is
# reached through a public alias or a macro) keeps `pub` and is printed still.
#
# Usage: scripts/unreached_pub.sh   (from anywhere; needs only bash, find, grep, sed, sort)
set -euo pipefail
cd "$(dirname "$0")/.."

all_rs=$(mktemp)
trap 'rm -f "$all_rs"' EXIT
find crates tests examples -name '*.rs' -not -path '*/target/*' \
    -not -path 'crates/suite/src/*' | sort >"$all_rs"

for dir in crates/*/; do
    crate=${dir%/}
    [ -f "$crate/src/lib.rs" ] || continue
    [ "$crate" = crates/suite ] && continue
    # The crate's own library sources; its bins are users like any other.
    own=$(grep "^$crate/src/" "$all_rs" | grep -v "^$crate/src/bin/" || true)
    used=$(grep -vxF "$own" "$all_rs" | xargs grep -ohw '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
    # shellcheck disable=SC2086
    grep -nE '^\s*pub (fn|struct|enum|trait|type|const|static) [A-Za-z_]' $own |
        sed -E 's/^([^:]*:[0-9]+):\s*pub (fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 \3/' |
        while read -r loc kind name; do
            grep -qxF "$name" <<<"$used" || echo "$loc: $kind $name"
        done
done

#!/usr/bin/env python3
"""Compare the sweep goldens of a git revision with the working tree, cell by cell.

Rows are paired in order (a re-recording never adds or drops one). For every
numeric field that moved, print how many cells fell and how many rose, per
golden file, then every moved cell of a field outside `--allow`.

Exit status 1 when an allowed field rose in more cells than `--declared` names
for it (the allowed fields are costs: lower is better, so any rise must be
declared) or a field outside `--allow` moved in more cells than `--declared`
names for it; 0 otherwise.

Usage (from the repository root):
    scripts/golden_moves.py --rev HEAD \
        --allow avg_shrink_secs,total_mpc_secs,shuffle_secs \
        --declared query_mix.json:avg_l1_error=4
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

GOLDENS = Path("crates/bench/goldens")


def rows(text):
    """The rows of a golden envelope (a list, or an object holding one)."""
    doc = json.loads(text)
    if isinstance(doc, dict):
        doc = next(v for v in doc.values() if isinstance(v, list))
    return doc


def cells(old, new, path=""):
    """Every (path, old, new) numeric leaf pair of two parallel JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() & new.keys():
            yield from cells(old[key], new[key], key)
    elif isinstance(old, list) and isinstance(new, list):
        for a, b in zip(old, new):
            yield from cells(a, b, path)
    elif isinstance(old, (int, float)) and isinstance(new, (int, float)):
        yield path, old, new


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--allow", default="")
    parser.add_argument("--declared", action="append", default=[])
    args = parser.parse_args()
    allow = set(filter(None, args.allow.split(",")))
    declared = {}
    for spec in args.declared:
        where, count = spec.split("=")
        declared[tuple(where.split(":"))] = int(count)

    failed = False
    for path in sorted(GOLDENS.glob("*.json")):
        show = subprocess.run(
            ["git", "show", f"{args.rev}:{path.as_posix()}"],
            capture_output=True, text=True, check=True,
        )
        old, new = rows(show.stdout), rows(path.read_text())
        if len(old) != len(new):
            print(f"{path.name}: {len(old)} rows → {len(new)}")
            failed = True
        moved = {}
        for field, a, b in cells(old, new):
            if a != b:
                moved.setdefault(field, []).append((a, b))
        for field, pairs in moved.items():
            fell = sum(b < a for a, b in pairs)
            rose = len(pairs) - fell
            print(f"{path.name}: {field}: {fell} fell, {rose} rose")
            if field in allow:
                failed |= rose > declared.get((path.name, field), 0)
                continue
            for a, b in pairs:
                print(f"    {a} → {b}")
            failed |= len(pairs) > declared.get((path.name, field), 0)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

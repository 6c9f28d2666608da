#!/usr/bin/env python3
"""Checks `pasched srclint` against its recorded verdicts.

usage: check_golden.py PASCHED REPO_ROOT

golden_verdicts.json holds, for the repository tree (".") and each fixture
corpus, the findings of every rule family (PSL40x "srclint", PSL50x
"contend", PSL60x "alloc"), the allocation-free claims and the lock-order
graph. It was recorded with the three scanners that the source scanner
replaced, so it pins the merge: each target is scanned with
`PASCHED srclint --root=<target> --json=...`
and every family's findings, the claims and the graph must match.

Fixture corpora must match exactly. On the tree, line numbers are ignored
(any edit to a scanned file moves them); the findings, claim sets and graph
edges must still match. Since nothing checks them, tree entries must not
record `line` keys: one that does is a failure, so stale numbers cannot
creep back. The golden file is recorded data: it is edited only by hand,
never regenerated from the scanner under test.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_verdicts.json")
FAMILIES = {"srclint": "PSL40", "contend": "PSL50", "alloc": "PSL60"}


def scan(tool, root):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "scan.json")
        proc = subprocess.run(
            [tool, "srclint", "--root=" + root, "--json=" + out],
            capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            sys.exit(f"{tool} srclint --root={root} exited {proc.returncode}:\n"
                     f"{proc.stdout}{proc.stderr}")
        with open(out, encoding="utf-8") as f:
            return json.load(f)


def verdicts(report):
    """Splits one merged report into the per-family golden layout."""
    out = {}
    for family, prefix in FAMILIES.items():
        out[family] = {"findings": [d for d in report["findings"]
                                    if d["rule"].startswith(prefix)]}
    out["contend"]["graph"] = report["graph"]
    out["alloc"]["claims"] = report["alloc_claims"]
    return out


def line_keys(value):
    """Counts the `line` keys anywhere inside a golden value."""
    if isinstance(value, dict):
        return ("line" in value) + sum(line_keys(v) for v in value.values())
    if isinstance(value, list):
        return sum(line_keys(v) for v in value)
    return 0


def without_lines(value):
    """Drops line numbers: `line` keys and `path:NN` suffixes."""
    if isinstance(value, dict):
        return {k: without_lines(v) for k, v in value.items() if k != "line"}
    if isinstance(value, list):
        return [without_lines(v) for v in value]
    if isinstance(value, str):
        return re.sub(r":\d+", ":#", value)
    return value


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    tool, repo = sys.argv[1], sys.argv[2]
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    targets = [t for t in golden if not t.startswith("_")]

    failures = 0
    for t in targets:
        got = verdicts(scan(tool, os.path.join(repo, t)))
        for family, expected in golden[t].items():
            for key, want in expected.items():
                have = got[family][key]
                if t == ".":
                    if line_keys(want):
                        failures += 1
                        print(f"UNCHECKED LINES {t} {family}.{key}: the tree "
                              f"golden records {line_keys(want)} `line` "
                              f"keys that are never compared; delete them")
                    want, have = without_lines(want), without_lines(have)
                if have != want:
                    failures += 1
                    print(f"MISMATCH {t} {family}.{key}\n  expected: "
                          f"{json.dumps(want, indent=1)}\n  got: "
                          f"{json.dumps(have, indent=1)}")
    print(f"check_golden: {len(targets)} targets, {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

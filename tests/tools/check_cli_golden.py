#!/usr/bin/env python3
"""Checks every pasched subcommand against its recorded verdicts.

usage: check_cli_golden.py PASCHED --validated=ON|OFF

golden_cli.json holds, for a fixed set of invocations, the exit status and
the JSON report that the per-tool binaries gave before they became
`pasched` subcommands. Each entry runs as `PASCHED <args> --json=FILE`.

An entry marked "needs_validation" is skipped, by name, when --validated=OFF:
its verdict comes from checks a -DPASCHED_VALIDATE=OFF build compiles out.
The golden file is recorded data: it is edited only by hand, never
regenerated from the tool under test.
"""
import json
import os
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def check(pasched, entry):
    """Runs one entry; returns a list of mismatch descriptions."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        cmd = [pasched] + entry["args"] + ["--json=" + report]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)
        problems = []
        if proc.returncode != entry["exit"]:
            problems.append(f"exit {proc.returncode}, expected "
                            f"{entry['exit']}\n{proc.stdout}{proc.stderr}")
        if not os.path.exists(report):
            return problems + ["no JSON report written"]
        with open(report, encoding="utf-8") as f:
            got = json.load(f)
        if got != entry["json"]:
            problems.append("JSON differs\n  expected: "
                            f"{json.dumps(entry['json'], sort_keys=True)}\n"
                            f"  got: {json.dumps(got, sort_keys=True)}")
        return problems


def main(argv):
    if len(argv) != 3 or argv[2] not in ("--validated=ON", "--validated=OFF"):
        print(__doc__.strip(), file=sys.stderr)
        return 64
    pasched = os.path.abspath(argv[1])
    validated = argv[2] == "--validated=ON"
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)

    failures = 0
    for entry in golden["entries"]:
        if entry.get("needs_validation") and not validated:
            print(f"SKIP {entry['name']}: needs a -DPASCHED_VALIDATE=ON build")
            continue
        problems = check(pasched, entry)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {entry['name']}: "
              f"pasched {' '.join(entry['args'])}")
        for p in problems:
            print("  " + p)
    print(f"check_cli_golden: {len(golden['entries'])} entries, "
          f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

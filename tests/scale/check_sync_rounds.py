#!/usr/bin/env python3
"""Gate the per-pair window planner's fig5 sync-round count.

usage: check_sync_rounds.py PASCHED

Runs `PASCHED scale --scenario=fig5 --calls=120` and requires its sync-round
count (`rounds` in the JSON report) to be at least MIN_CUT times below the
count of the retired one-window-per-round planner on the same scenario.
Round counts are schedule-derived, so both figures are bit-identical on any
machine and the ratio is a hard gate rather than a timing heuristic.
"""
import json
import os
import subprocess
import sys
import tempfile

# `rounds` of `pasched-scale --scenario=fig5 --calls=120` under the global
# (one-window-per-round) planner, recorded at commit 5abd368, the last tree
# that still carried it.
RECORDED_GLOBAL_ROUNDS = 2011
MIN_CUT = 3.0


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fig5.json")
        run = subprocess.run(
            [argv[1], "scale", "--scenario=fig5", "--calls=120",
             "--json=" + path],
            stdout=subprocess.DEVNULL, check=False)
        if run.returncode != 0:
            print(f"pasched scale exited {run.returncode}")
            return 1
        with open(path, encoding="utf-8") as f:
            rounds = json.load(f)[0]["rounds"]
    cut = RECORDED_GLOBAL_ROUNDS / rounds if rounds > 0 else 0.0
    print(f"sync rounds: perpair {rounds} vs recorded global "
          f"{RECORDED_GLOBAL_ROUNDS} = {cut:.2f}x")
    if rounds <= 0 or cut < MIN_CUT:
        print(f"per-pair planner only cut sync rounds {cut:.2f}x "
              f"(< {MIN_CUT:g}x)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

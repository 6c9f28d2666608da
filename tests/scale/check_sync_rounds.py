#!/usr/bin/env python3
"""Gate the window planner's sync-round count on fig5 and fig3.

usage: check_sync_rounds.py PASCHED [fig5|fig3]

Runs `pasched scale` on one scenario and requires its sync-round count
(`rounds` in the JSON report) to be at least MIN_CUT times below a recorded
count of an older planner on the same scenario:

  fig5  `--scenario=fig5 --calls=120`: 3x below the retired global
        (one-window-per-round) planner's rounds;
  fig3  `--scenario=fig3 --calls=24`: 10x below the next-event planner's
        rounds, i.e. windows planned on next event times instead of on
        when a shard can next post. A tree that drops the earliest-output
        bound (sim::ShardedEngine::OutputBound) fails this leg.

Round counts are schedule-derived, so both figures are bit-identical on any
machine and the ratio is a hard gate rather than a timing heuristic. The
scenario defaults to fig5.
"""
import json
import os
import subprocess
import sys
import tempfile

# scenario -> (pasched scale flags, recorded rounds, required cut, planner
# the recorded count belongs to).
LEGS = {
    # Recorded at commit 5abd368, the last tree that still carried the
    # global planner.
    "fig5": (["--scenario=fig5", "--calls=120"], 2011, 3.0, "global"),
    # Recorded at commit bcc6d9b, the last tree whose windows were planned
    # on next event times.
    "fig3": (["--scenario=fig3", "--calls=24"], 28862, 10.0, "next-event"),
}


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] not in LEGS):
        print(__doc__.strip(), file=sys.stderr)
        return 64
    scenario = argv[2] if len(argv) == 3 else "fig5"
    flags, recorded, min_cut, old = LEGS[scenario]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, scenario + ".json")
        run = subprocess.run([argv[1], "scale"] + flags + ["--json=" + path],
                             stdout=subprocess.DEVNULL, check=False)
        if run.returncode != 0:
            print(f"pasched scale exited {run.returncode}")
            return 1
        with open(path, encoding="utf-8") as f:
            rounds = json.load(f)[0]["rounds"]
    cut = recorded / rounds if rounds > 0 else 0.0
    print(f"{scenario} sync rounds: {rounds} vs recorded {old} {recorded} "
          f"= {cut:.2f}x")
    if rounds <= 0 or cut < min_cut:
        print(f"the planner only cut {scenario} sync rounds {cut:.2f}x "
              f"(< {min_cut:g}x)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Builds the e2e benchmark and runs it.

  python3 e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2e/run.py --smoke [--e2e BINARY] [--goldens FILE]

Run from the repository root. The first form configures and builds
.bench_build (Release, PASCHED_VALIDATE=OFF) when needed, times one workload
for about S seconds, and ends its standard output with e2e's one-line JSON
result: the end-to-end metrics, or with --trace 1 the per-layer metrics.
The second form runs the 4-node smoke of every workload with tracing on.
Both forms fail unless e2e printed every metric BENCHMARK.json names for
what they ran. Build output goes to standard error.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no simulator sources next to {HERE}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DPASCHED_VALIDATE=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "e2e", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "e2e")


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def run(cmd):
    # e2e writes its JSON file into the build directory. Its own process
    # group lets a timeout, or a SIGTERM to run.py, also stop the runs e2e
    # spawned.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         cwd=os.path.dirname(cmd[0]), start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e did not finish within {TIMEOUT_S} s")
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return p.returncode, out


def timed(args):
    exe = build()
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace")
    code, out = run(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(code or 1)
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m for m in metric_names(kind) if m not in result["metrics"]]
    if missing:
        fail(f"e2e printed no {', '.join(missing)}")


def smoke(args):
    exe = os.path.abspath(args.e2e) if args.e2e else build()
    cmd = [exe, "--smoke", "--trace"]
    if args.goldens:
        cmd.append(f"--goldens={os.path.abspath(args.goldens)}")
    code, out = run(cmd)
    if code != 0:
        sys.exit(code)
    printed = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4:
            printed.setdefault(parts[0], set()).add(parts[1])
    names = metric_names("end_to_end") + metric_names("per_layer")
    for workload, got in sorted(printed.items()):
        missing = [m for m in names if m not in got]
        if missing:
            fail(f"{workload}: e2e printed no {', '.join(missing)}")
    if len(printed) != 4:
        fail(f"expected 4 workloads, e2e printed {sorted(printed)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--e2e", help="prebuilt e2e binary (smoke only)")
    ap.add_argument("--goldens", help="golden fingerprint file (smoke only)")
    args = ap.parse_args()
    if args.smoke:
        smoke(args)
    elif args.workload:
        timed(args)
    else:
        ap.error("give --workload or --smoke")


if __name__ == "__main__":
    main()

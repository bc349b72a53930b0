#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

Run from the checkout root:

    python3 perfbench/run.py --workload serve_hot_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (host, inputs, per-phase accounting). --trace 1 reports the
per-layer metrics instead of the end-to-end ones. --self-check runs every
workload of BENCHMARK.json in a shrunken form, in both trace modes, and
checks each result against the metric names and units BENCHMARK.json
declares. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=850)
    return out


def run_workload(binaries, workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(os.path.dirname(binaries), f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(binaries, "seqfm_perfbench"),
           f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--replica={os.path.join(binaries, 'seqfm_replica')}",
           f"--work-dir={work}"]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def self_check(binaries):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_workload(binaries, wl["name"], 1, 2, trace,
                                       quick=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            problems = []
            if code != 0 or not lines:
                problems.append(f"exit code {code}")
            else:
                res = json.loads(lines[-1])
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(res)}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    problems.append(f"metrics differ: missing "
                                    f"{sorted(set(want) - set(got))}, extra "
                                    f"{sorted(set(got) - set(want))}, units "
                                    f"{[k for k in want if k in got and got[k] != want[k]]}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append("run not correct")
            ok = ok and not problems
            status = "ok" if not problems else "; ".join(problems)
            print(f"self-check {wl['name']} trace={trace}: {status}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    for rel in ("src/serve/predictor.h", "tools/replica_main.cc",
                "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} is missing: run from a full checkout of the "
                 f"repository")
    if not args.self_check and not args.workload:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    try:
        binaries = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build failed: {e}", 1)
    if args.self_check:
        return self_check(binaries)
    code, lines = run_workload(binaries, args.workload, args.seed,
                               args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

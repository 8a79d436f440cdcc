#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny]

Run from the root of a checkout. The simulator and the benchmark binary
are built (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the first run pays
for the build, later runs reuse it. Everything the binary prints is
passed through, followed by a line saying whether the run's simulated
identity matches the one recorded in perfbench/spec.json for this
workload and seed; the binary's JSON result stays the last line. The
exit code is the binary's, or 2 when the build fails.
"""

import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then build incrementally; logs go to stderr."""
    os.makedirs(out, exist_ok=True)
    # Concurrent runs in one checkout must not build at the same time.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def identity_line(output, workload, seed):
    """Compare the binary's `identity:` line with the recorded one."""
    m = re.search(r"^identity: sim_events=(\d+) digest=([0-9a-f]+)$",
                  output, re.M)
    if not m:
        return "identity check: no identity printed"
    with open(os.path.join(HERE, "spec.json")) as f:
        recorded = json.load(f)["identities"].get(workload, {})
    want = recorded.get(str(seed))
    if want is None:
        return "identity check: seed %s not recorded for %s" % (seed,
                                                                workload)
    same = (want["sim_events"] == int(m.group(1))
            and want["digest"] == m.group(2))
    return "identity check: %s the recorded sim_events=%d digest=%s" % (
        "matches" if same else "DIFFERS FROM", want["sim_events"],
        want["digest"])


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "perfbench")
    cmd = [binary] + argv
    if args.get("--trace") == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (args.get("--workload"),
                                        args.get("--seed")))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line)
    if result is not None:
        print(identity_line(proc.stdout, args.get("--workload"),
                            args.get("--seed")))
        print(result)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

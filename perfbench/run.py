#!/usr/bin/env python3
"""Builds and runs the DQM engine benchmark (perfbench).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles the library sources one directory up) into
.bench_build/; later runs only re-check the build. Each run gets a fresh
scratch directory for durable state, on the /dev/shm tmpfs when it exists
(the durable workload measures the program, not a shared disk's fsync), and
removes it afterwards. The last line printed is the program's JSON result,
after checking that its metrics are exactly the ones BENCHMARK.json lists.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("hot_session", "many_sessions", "durable_replicated")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def scratch_dir(build_dir):
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return Path(tempfile.mkdtemp(prefix="dqm-perfbench-", dir=shm))
    print("perfbench: WARNING: no writable /dev/shm tmpfs; durable state goes "
          "to disk and durable_replicated figures include the device",
          file=sys.stderr)
    (build_dir / "state").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=build_dir / "state"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not (root / needed).exists():
            fail(f"{root / needed} is missing: run from a full source checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")

    traces = build_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    state = scratch_dir(build_dir)
    try:
        proc = subprocess.run(
            [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--state_dir={state}",
             f"--spans_out={traces / f'{args.workload}-seed{args.seed}.jsonl'}"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys")
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"metrics {sorted(result['metrics'])} are not BENCHMARK.json's "
             f"{sorted(expected)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench and p2prange_node from this checkout's sources (CMake,
into $CARGO_TARGET_DIR or .bench_build), runs one workload, and prints
one line per metric followed by a JSON result line. With --trace 0 the
JSON holds the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. The spans of a workload's latest traced run are kept
in <build dir>/traces/<workload>.jsonl. Exits non-zero when the build,
the run or a correctness check fails. See perfbench/README.md.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_paper", "engine_churn", "live_lookup", "live_cache_on_miss")
# Once built, the whole command must end within 180 s.
RUN_DEADLINE_S = 170.0


def build(build_dir):
    cmake_dir = build_dir / "perfbench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(cmake_dir), "--target", "perfbench",
         "p2prange_node", "-j", "4"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return cmake_dir


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("BENCHMARK.json not found at the checkout root", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmake_dir = build(build_dir)
    if cmake_dir is None:
        print("perfbench build failed", file=sys.stderr)
        return 1

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = build_dir / "work" / f"{run_name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    command = [
        str(cmake_dir / "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        "--metrics=" + ",".join(f"{m['name']}:{m['unit']}" for m in metrics),
        f"--work_dir={work_dir}",
        f"--node_bin={cmake_dir / 'p2prange' / 'tools' / 'p2prange_node'}",
    ]
    # Its own process group, so a timeout takes the daemons down too.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # An up-to-date build takes a second or two and counts against the
    # deadline; a first build may take minutes and does not.
    budget = RUN_DEADLINE_S - min(time.monotonic() - started, 10.0)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench exceeded {budget:.0f} s", file=sys.stderr)
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1

    spans = work_dir / "spans.jsonl"
    if spans.is_file():
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        shutil.move(str(spans), str(traces / f"{args.workload}.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    expected = {m["name"] for m in metrics}
    if (not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}
            or set(result["metrics"]) != expected):
        sys.stdout.write(out or "")
        print("perfbench did not print a complete result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

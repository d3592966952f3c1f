"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/pbgpair`` must be present;
nothing is installed).  Set-up is timed as the median of several fresh
interpreter launches that import ``pbgpair.cli`` and build the workload's
inputs.  The workload itself then runs in one more fresh process
(``workload.py``), which times the operations and checks every output.

Prints one line per metric (name, value, unit), the environment, and as the
last line a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Scratch files go to ``.perfbench_run/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOAD_PY = os.path.join(HERE, "workload.py")
SETUP_LAUNCHES = 7
RUN_LIMIT_S = 170.0
IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| ( *)(\S+)")

sys.path.insert(0, HERE)
from inputs import WORKLOADS  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def workload_env(workload: str, nproc: int) -> dict:
    """BLAS threads x worker processes <= nproc."""
    workers = nproc if workload == "sweep_random" else 1
    blas = str(max(1, nproc // workers))
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, THREADS=str(workers), OPENBLAS_NUM_THREADS=blas,
               OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
    return env


def run_child(argv, env, timeout, **kw):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{os.path.basename(argv[-1])} timed out after {timeout:.0f}s") from None
    finally:
        try:  # nothing the child started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{err[-3000:]}")
    return out, err


def import_times(stderr: str):
    """(total, scipy) import seconds from ``python -X importtime`` output."""
    total = scipy = 0
    for line in stderr.splitlines():
        m = IMPORTTIME_RE.match(line)
        if m:
            us = int(m.group(1))
            total += us
            if m.group(3).split(".")[0] == "scipy":
                scipy += us
    return total / 1e6, scipy / 1e6


def setup_launches(args, env, run_dir):
    """Time fresh interpreters that import pbgpair.cli and build the inputs."""
    walls, imports = [], []
    for i in range(SETUP_LAUNCHES):
        argv = [sys.executable] + (["-X", "importtime"] if args.trace else []) + [
            WORKLOAD_PY, "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--out", os.path.join(run_dir, f"setup{i}")]
        t0 = time.perf_counter()
        _, err = run_child(argv, env, timeout=60)
        walls.append(time.perf_counter() - t0)
        imports.append(import_times(err))
    return walls, imports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "pbgpair", "cli.py")):
        print(f"perfbench: no pbgpair sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    nproc = len(os.sched_getaffinity(0))
    env = workload_env(args.workload, nproc)
    run_dir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    try:
        walls, imports = setup_launches(args, env, run_dir)
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        run_child([sys.executable, WORKLOAD_PY, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", run_dir], env, timeout=budget)
        with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_s"] = statistics.median(t for t, _ in imports)
        metrics["setup.scipy_import_s"] = statistics.median(s for _, s in imports)
        wanted = per_layer
    else:
        metrics["setup_s"] = statistics.median(walls)
        result["info"]["setup_launches_s"] = walls
        wanted = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench {args.workload}: metrics not produced: {missing}", file=sys.stderr)
        return 1

    for m in wanted:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{args.workload} info " + json.dumps(result["info"]))
    print(f"{args.workload} env " + json.dumps(result["env"]))
    print(f"{args.workload} inputs " + json.dumps(result["inputs"]))
    for failure in result["failures"]:
        print(f"{args.workload} failure " + json.dumps(failure))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

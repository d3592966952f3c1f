"""Run the benchmark on ten seeds and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py WORKLOAD

Runs ``run.py`` with seeds 1 to 10, ``--seconds`` from BENCHMARK.json and
``--trace 0``.  For every metric it prints the median over the runs and the
interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.  Exits
non-zero when a run fails or reports incorrect outputs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402

SEEDS = range(1, 11)


def main(workload: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        rel = spread(vals) if med else 0.0
        print(f"{workload} {name}: median {med:.6g}  spread {rel:.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1].strip())
    sys.exit(main(sys.argv[1]))

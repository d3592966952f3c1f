"""One workload run in a fresh process, one client, closed loop.

Started by ``run.py``, which sets PYTHONPATH, the BLAS thread count and
THREADS.  Operations are in-process ``pbgpair.cli.main`` calls made one at a
time; each output is checked after its pass, outside the timed region.

* ``--trace 0``: passes over the fixed list of operations until
  ``--seconds`` have elapsed, timing each operation and each pass.
* ``--trace 1``: cycles of one untraced pass and one traced pass (on
  ``sweep_random`` also a traced pass with THREADS=1, so that the work done
  per value is recorded in this process).  ``oracle_check`` makes one traced
  pass and repeats its cheapest operation untraced.

``--setup-only`` imports ``pbgpair.cli``, builds the inputs and exits; it is
what ``run.py`` times as set-up.  Results go to ``<out>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import logging
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import inputs
import stats
from checks import DEVIATION_RE, Checker
from speed import SpeedProbe
from tracing import Tracer, self_times

MIN_FIGURES_PASSES = 6  # 6 x 17 = 102 operations: ten samples beyond p90


class LogCapture(logging.Handler):
    """Keeps the program's log lines of the current operation."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class Runner:
    def __init__(self, workload, out_dir, tracer=None):
        from pbgpair import cli

        self.cli = cli
        self.wl = workload
        self.out_dir = out_dir
        self.tracer = tracer
        self.checker = Checker()
        self.capture = LogCapture()
        logging.getLogger("pbgpair").addHandler(self.capture)
        self.passes = []          # {"phase", "wall", "ops": [(name, seconds)]}
        self.ops_attempted = 0
        self.ops_failed = 0
        self.failures = {}        # failure description -> times seen
        self.outputs_attempted = 0
        self.outputs_failed = 0
        self.known_defects = 0
        self._op_counter = 0

    def _clear_outputs(self):
        for entry in os.scandir(self.out_dir):
            if entry.is_dir():
                shutil.rmtree(entry.path)
            else:
                os.unlink(entry.path)

    def _call(self, op):
        """Run one operation; returns (seconds, ok, engine deviation)."""
        self.capture.messages.clear()
        if self.tracer is not None:
            self.tracer.op = self._op_counter
        self._op_counter += 1
        self.ops_attempted += 1
        t0 = time.perf_counter()
        try:
            ok = self.cli.main(list(op.argv)) == 0
            error = None if ok else "non-zero exit code"
        except Exception:
            ok, error = False, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        if not ok:
            self.ops_failed += 1
            self._fail({"op": op.name, "error": error})
        deviation = None
        for msg in self.capture.messages:
            m = DEVIATION_RE.search(msg)
            if m:
                deviation = float(m.group(1))
        return seconds, ok, deviation

    def run_pass(self, phase, ops=None, traced=False, threads=None):
        ops = self.wl.ops if ops is None else ops
        self._clear_outputs()
        saved = os.environ.get("THREADS")
        if threads is not None:
            os.environ["THREADS"] = str(threads)
        timings, results = [], []
        try:
            if traced:
                self.tracer.phase = phase
                with self.tracer.installed():
                    t0 = time.perf_counter()
                    for op in ops:
                        results.append(self._call(op))
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                for op in ops:
                    results.append(self._call(op))
                wall = time.perf_counter() - t0
        finally:
            if saved is None:
                os.environ.pop("THREADS", None)
            else:
                os.environ["THREADS"] = saved
        for op, (seconds, ok, deviation) in zip(ops, results):
            timings.append((op.name, seconds))
            for output in op.outputs:
                self._check(output, ok, deviation)
        self.passes.append({"phase": phase, "start": t0, "wall": wall, "ops": timings})
        return wall

    def _check(self, output, op_ok, deviation):
        self.outputs_attempted += 1
        if not op_ok:
            self.outputs_failed += 1
            return
        res = self.checker.check(output, self.out_dir, deviation)
        if not res.ok:
            self.outputs_failed += 1
            self.known_defects += res.known_defect
            self._fail({"output": res.name, "reasons": res.reasons,
                        "known_defect": res.known_defect})

    def _fail(self, entry):
        key = json.dumps(entry, sort_keys=True)
        self.failures[key] = self.failures.get(key, 0) + 1

    def warm_up(self):
        if self.wl.warmup is not None:
            self._clear_outputs()
            self._call(self.wl.warmup)
        else:
            self.run_pass("warmup")

    def loop(self, seconds, cycle, min_cycles=1):
        """Repeat ``cycle`` while the next one is expected to end in time."""
        start = time.perf_counter()
        done = 0
        while True:
            t0 = time.perf_counter()
            cycle()
            done += 1
            now = time.perf_counter()
            if done >= min_cycles and now - start + (now - t0) > seconds:
                break

    def phase(self, name):
        return [p for p in self.passes if p["phase"] == name]

    @property
    def correct(self) -> bool:
        return self.ops_failed == 0 and self.outputs_failed == self.known_defects


def rss_peak_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children
    (the sweep's worker processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "THREADS": os.environ.get("THREADS"),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def untraced_metrics(r: Runner, probe: SpeedProbe) -> dict:
    """Pass and operation times, each scaled by the host-speed factor the
    probe measured during its pass (see speed.py); the raw medians go to
    the info line."""
    timed = r.phase("timed")
    lat = [s for p in timed for _, s in p["ops"]]
    p90 = stats.percentile(lat, 90)
    factors = [probe.factor(p["start"], p["start"] + p["wall"]) for p in timed]
    return {
        "metrics": {
            "wall_s": statistics.median(f * p["wall"] for f, p in zip(factors, timed)),
            "op_p50_s": statistics.median(f * s for f, p in zip(factors, timed)
                                          for _, s in p["ops"]),
            "rss_peak_mb": rss_peak_mb(),
            "outputs_ok_frac": 1.0 - r.outputs_failed / r.outputs_attempted,
        },
        "info": {"passes": len(timed), "pass_walls_s": [p["wall"] for p in timed],
                 "ops_timed": len(lat), "op_p90_s": p90,
                 "pass_median_s": statistics.median(p["wall"] for p in timed),
                 "op_median_s": statistics.median(lat),
                 "speed_factors": factors, "probe_samples": len(probe.samples)},
    }


# Layers that run inside the sweep's value workers; on sweep_random they are
# read from the THREADS=1 traced passes.
WORKER_SIDE = ("pipeline.", "poles.", "inversion.", "transform.", "negativity.",
               "csvio.format", "bath.")


def layer_metrics(r: Runner, spans) -> dict:
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    sweep = r.wl.name == "sweep_random"

    def source(name):
        return "serial" if sweep and name.startswith(WORKER_SIDE) else "traced"

    n_pass = {ph: max(1, len(r.phase(ph))) for ph in ("traced", "serial")}

    def pick(name):
        ph = source(name)
        return [s for s in spans if s.name == name and s.phase == ph], n_pass[ph]

    def busy(name):
        ss, n = pick(name)
        return sum(s.duration for s in ss) / n

    def calls(name):
        ss, n = pick(name)
        return len(ss) / n

    def total(name, key):
        ss, n = pick(name)
        return sum(s.attrs.get(key, 0) for s in ss) / n

    def ratio(a, b):
        return a / b if b else 0.0

    poles_calls = calls("poles.find_poles")
    oracle_runs = [s for s in pick("pipeline.run_spec")[0]
                   if s.attrs.get("engine") in ("both", "oracle")]
    integrate = pick("bath.integrate")[0]
    builds = pick("bath.build_bath")[0]
    workers = [min(s.attrs["workers"], by_id[s.parent].attrs.get("values", 0))
               for s in pick("sweep.worker_count")[0] if s.parent in by_id]
    n_workers = max(workers, default=0)
    # untraced sweep call wall time: run_sweep plus argument and run-file parsing
    untraced_sweep = sum(
        statistics.median([s for p in r.phase("untraced")
                           for name, s in p["ops"] if name == op.name])
        for op in r.wl.ops) if sweep else 0.0
    serial_sweep = sum(s.duration for s in spans
                       if s.name == "sweep.run_sweep" and s.phase == "serial") / n_pass["serial"]
    cli_spans, cli_passes = pick("cli.main")
    return {
        "poles.find_poles.busy_s": busy("poles.find_poles"),
        "poles.find_poles.calls": poles_calls,
        "poles.ms_per_config": 1e3 * ratio(busy("poles.find_poles"), poles_calls),
        "poles.dynamic_per_config": ratio(total("poles.find_poles", "dynamic"), poles_calls),
        "inversion.amplitudes_analytic.busy_s": busy("inversion.amplitudes_analytic"),
        "inversion.residue_sum.busy_s": busy("inversion.residue_sum"),
        "inversion.cut_build.busy_s": busy("inversion.cut_build"),
        "inversion.cut_eval.busy_s": busy("inversion.cut_eval"),
        "inversion.cut_nodes": total("inversion.cut_discontinuity", "nodes"),
        "inversion.points": total("inversion.amplitudes_analytic", "points"),
        "transform.solve_system.calls": calls("transform.solve_system"),
        "transform.solve_system.rows": total("transform.solve_system", "rows"),
        "transform.solve_system.busy_s": busy("transform.solve_system"),
        "negativity.entanglement_series.busy_s": busy("negativity.entanglement_series"),
        "negativity.points": total("negativity.entanglement_series", "points"),
        "negativity.us_per_point": 1e6 * ratio(busy("negativity.entanglement_series"),
                                               total("negativity.entanglement_series", "points")),
        "csvio.format.busy_s": busy("csvio.format"),
        "csvio.write_atomic.busy_s": busy("csvio.write_atomic"),
        "csvio.bytes": total("csvio.write_atomic", "bytes"),
        "bath.build_bath.busy_s": busy("bath.build_bath"),
        "bath.integrate.busy_s": busy("bath.integrate"),
        "bath.modes": total("bath.build_bath", "modes"),
        "bath.block_dim_max": max((s.attrs["block_dim_max"] for s in integrate), default=0),
        "bath.eigh_gflop_computed": total("bath.integrate", "eigh_gflop"),
        "bath.horizon": max((s.attrs["horizon"] for s in builds), default=0.0),
        "bath.clip_frac": 1.0 - ratio(sum(s.attrs["t_max"] for s in integrate),
                                      sum(s.attrs["t_max"] for s in oracle_runs))
        if oracle_runs else 0.0,
        "sweep.run_sweep.busy_s": busy("sweep.run_sweep"),
        "sweep.values": total("sweep.run_sweep", "values"),
        "sweep.workers": n_workers,
        "sweep.parallel_eff": ratio(serial_sweep, n_workers * untraced_sweep),
        "config.parse_run_file.busy_s": busy("config.parse_run_file"),
        "presets.get_preset.busy_s": busy("presets.get_preset"),
        "pipeline.run_spec.busy_s": busy("pipeline.run_spec"),
        "cli.main.self_s": sum(selfs[s.id] for s in cli_spans) / cli_passes,
        "inversion.completeness_max": r.checker.completeness_max,
        "bath.engine_dev_max": r.checker.engine_dev_max,
        "poles.table_err_max": r.checker.table_err_max,
        "trace.overhead_frac": overhead_frac(r),
    }


def overhead_frac(r: Runner) -> float:
    """Traced over untraced time of the operations run both ways, minus 1
    (medians per operation, summed)."""
    def medians(phase):
        per = {}
        for p in r.phase(phase):
            for name, s in p["ops"]:
                per.setdefault(name, []).append(s)
        return {k: statistics.median(v) for k, v in per.items()}

    traced, untraced = medians("traced"), medians("untraced")
    common = sorted(set(traced) & set(untraced))
    return sum(traced[k] for k in common) / sum(untraced[k] for k in common) - 1.0


def run(args) -> dict:
    in_dir = os.path.join(args.out, "inputs")
    out_dir = os.path.join(args.out, "outputs")
    os.makedirs(out_dir, exist_ok=True)
    wl = inputs.build(args.workload, args.seed, in_dir)
    os.chdir(out_dir)
    tracer = Tracer() if args.trace else None
    r = Runner(wl, out_dir, tracer)
    r.warm_up()
    if not args.trace:
        min_passes = MIN_FIGURES_PASSES if wl.name == "figures" else 1
        with SpeedProbe() as probe:
            r.loop(args.seconds, lambda: r.run_pass("timed"), min_passes)
        result = untraced_metrics(r, probe)
    else:
        if wl.name == "oracle_check":
            def cycle():
                r.run_pass("traced", traced=True)
                # the reduced-bath run file is the cheapest operation
                r.run_pass("untraced", ops=wl.ops[-1:])
        elif wl.name == "sweep_random":
            def cycle():
                r.run_pass("untraced")
                r.run_pass("traced", traced=True)
                r.run_pass("serial", traced=True, threads=1)
        else:
            def cycle():
                r.run_pass("untraced")
                r.run_pass("traced", traced=True)
        r.loop(args.seconds, cycle)
        result = {"metrics": layer_metrics(r, tracer.spans), "info": {}}
        tracer.write(os.path.join(args.out, "spans.jsonl.gz"))
    os.chdir(args.out)
    shutil.rmtree(out_dir)
    result["info"].update({
        "ops_attempted": r.ops_attempted, "ops_failed": r.ops_failed,
        "outputs_attempted": r.outputs_attempted, "outputs_failed": r.outputs_failed,
        "ops_failed_frac": r.outputs_failed / max(1, r.outputs_attempted),
        "known_defect_outputs": r.known_defects,
    })
    result.update({"correct": r.correct, "attempted": r.ops_attempted,
                   "failed": r.ops_failed,
                   "failures": [dict(json.loads(k), count=n) for k, n in r.failures.items()],
                   "env": environment(), "inputs": wl.inputs})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.setup_only:
        from pbgpair import cli  # noqa: F401

        inputs.build(args.workload, args.seed, os.path.join(args.out, "inputs"))
        return 0
    result = run(args)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Parameter sweeps: one entanglement CSV per value plus a summary table.

Values run in parallel across processes: the values are cut into one
contiguous share per process, the calling process runs the first share
and forked workers one share each.  THREADS and the CPUs this process may
run on cap the number of processes.  Outputs are independent of it: results
are taken in input order, and the calling process writes every file once
every value has run.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

from . import csvio, negativity
from .config import RunSpec
from .errors import DomainError
from .pipeline import check_budgets, run_spec

SWEEP_PARAMS = ("gamma", "eta", "omega1c_omega2c_pair")
INTEGRAL_WINDOW = 500.0


def worker_count() -> int:
    """Processes a sweep may compute on: the CPUs this process may run on,
    capped by THREADS."""
    cap = os.environ.get("THREADS")
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise DomainError(f"THREADS must be an integer, got {cap!r}") from None
    return n


def parse_values(parameter: str, text: str):
    """Scalar lists are comma separated; detuning pairs use 'a:b;c:d'."""
    text = text.strip()
    if not text:
        return []
    try:
        if parameter == "omega1c_omega2c_pair":
            pairs = []
            for tok in text.split(";"):
                a, sep, b = tok.partition(":")
                if not sep:
                    raise DomainError(f"pair value {tok!r} must look like '-0.6:-1'")
                pairs.append((float(a), float(b)))
            return pairs
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"could not parse sweep values {text!r}: {exc}") from None


def apply_parameter(spec: RunSpec, parameter: str, value) -> RunSpec:
    cfg = spec.config
    if parameter == "gamma":
        cfg = replace(cfg, gamma1=float(value), gamma2=float(value))
    elif parameter == "eta":
        cfg = replace(cfg, eta=math.radians(float(value)))
    elif parameter == "omega1c_omega2c_pair":
        w1c, w2c = value
        cfg = replace(cfg, omega1c=w1c, omega2c=w2c, omega12=w1c - w2c)
    else:
        raise DomainError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    return replace(spec, config=cfg)


def value_label(parameter: str, value) -> str:
    if parameter == "omega1c_omega2c_pair":
        return f"{value[0]:g}_{value[1]:g}"
    return f"{value:g}"


def _run_one(job):
    label, spec = job
    series, traj, _ = run_spec(spec)
    hl = negativity.half_life(series.times, series.log_negativity)
    ien = negativity.integrated_en(series.times, series.log_negativity,
                                   min(INTEGRAL_WINDOW, spec.t_max))
    return label, hl, ien, csvio.entanglement_csv(series, traj)


def _raise_failure(pending):
    """Raise the error of the first worker share that has failed, if any."""
    for share in pending:
        if share.ready() and not share.successful():
            share.get()


def run_sweep(spec: RunSpec, parameter: str, values, out_dir) -> list:
    """Run every value, write per-value CSVs and the summary; returns rows.

    Every value's run, its size budgets and its label (two values may not
    share a file) and THREADS are checked before ``out_dir`` is created.
    With ``n = worker_count()`` the values go in contiguous shares of
    ceil(len(values) / n), at most ``n`` of them: this process runs the
    first share while a pool with one worker per other share runs the
    rest, and the results are taken in input order.  A value that fails
    ends the workers without waiting for their shares: at once in this
    process's share, else before this process's next value or, once it has
    run its own share, within 0.05 s.  Nothing is written unless every
    value ran.
    """
    if parameter not in SWEEP_PARAMS:
        raise DomainError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    jobs, seen = [], {}
    for value in values:
        label = value_label(parameter, value)
        if label in seen:
            raise DomainError(f"sweep values {seen[label]!r} and {value!r} share the "
                              f"label {label!r}")
        seen[label] = value
        run = apply_parameter(spec, parameter, value)
        check_budgets(run)
        jobs.append((label, run))
    n_workers = min(worker_count(), len(jobs))
    os.makedirs(out_dir, exist_ok=True)
    if n_workers > 1:
        from multiprocessing import Pool
        size = -(-len(jobs) // n_workers)
        starts = range(size, len(jobs), size)
        with Pool(len(starts)) as pool:
            pending = [pool.map_async(_run_one, jobs[k:k + size], chunksize=size)
                       for k in starts]
            results = []
            for job in jobs[:size]:
                _raise_failure(pending)
                results.append(_run_one(job))
            for share in pending:
                while not share.ready():
                    _raise_failure(pending)
                    share.wait(0.05)
                results += share.get()
    else:
        results = [_run_one(j) for j in jobs]
    entries = []
    for label, hl, ien, text in results:
        csvio.write_atomic(os.path.join(out_dir, f"{parameter}_{label}.csv"), text)
        entries.append((label, hl, ien))
    csvio.write_atomic(os.path.join(out_dir, "summary.csv"),
                       csvio.sweep_summary_csv(entries))
    return entries

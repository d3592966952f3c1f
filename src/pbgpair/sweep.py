"""Parameter sweeps: one entanglement CSV per value plus a summary table.

The values run in contiguous shares on up to THREADS processes
(``_results``); each writes its values' CSVs to names one ``csvio.publish``
drew and keeps only their summary rows.  Outputs do not depend on THREADS.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import replace

from . import csvio, negativity
from .config import RunSpec
from .errors import DomainError, NumericalError
from .pipeline import check_budgets, run_spec

SWEEP_PARAMS = ("gamma", "eta", "omega1c_omega2c_pair")
INTEGRAL_WINDOW = 500.0


def worker_count() -> int:
    """Processes a sweep may compute on: the CPUs this process may run on,
    capped by THREADS."""
    cap = os.environ.get("THREADS")
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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
    return f"{value[0]:g}_{value[1]:g}" if parameter == "omega1c_omega2c_pair" else f"{value:g}"


def _run_one(job):
    """Run ``job`` = (label, run, tmp) and write its CSV to ``tmp``; the run's
    log lines start with the label."""
    label, spec, tmp = job

    def labelled(record):
        record.msg, record.args = f"{label}: {record.getMessage()}", None
        return True

    log = logging.getLogger("pbgpair")
    log.addFilter(labelled)
    try:
        series, traj, _ = run_spec(spec)
    finally:
        log.removeFilter(labelled)
    csvio.write_text(tmp, csvio.entanglement_csv(series, traj))
    hl = negativity.half_life(series.times, series.log_negativity)
    ien = negativity.integrated_en(series.times, series.log_negativity,
                                   min(INTEGRAL_WINDOW, spec.t_max))
    return label, hl, ien


def _run_share(conn, jobs):
    """A worker's share: send on ``conn`` its results, or the index in
    ``jobs`` of its first failure and that failure's ``<type>: <message>``."""
    results = []
    try:
        for job in jobs:
            results.append(_run_one(job))
    except Exception as exc:
        results = len(results), f"{type(exc).__name__}: {' '.join(str(exc).split())}"
    conn.send(results)


def _results(jobs, n_workers):
    """The (label, half_life, integrated_en) of ``jobs`` in input order: this
    process runs the first of ``n_workers`` contiguous shares, and one
    forked worker each other share, answering in one message on its pipe,
    polled between this process's values, then waited on.  A worker's
    failed value is run again here, to raise its exception here; one that
    does not recur, or a pipe closed with no message, raises a
    NumericalError.  A failure ends the workers that have not answered;
    all are joined before this returns or raises."""
    if n_workers <= 1:
        return [_run_one(job) for job in jobs]
    import multiprocessing
    from multiprocessing.connection import wait

    size = -(-len(jobs) // n_workers)
    workers, shares = {}, {}

    def collect(timeout):
        for conn in wait([c for c, (k, _) in workers.items() if k not in shares], timeout):
            k, process = workers[conn]
            try:
                message = conn.recv()
            except EOFError:
                process.join()
                labels = ", ".join(job[0] for job in jobs[k:k + size])
                raise NumericalError(f"the worker of values {labels} ended with exit code "
                                     f"{process.exitcode} before it sent its results") from None
            if isinstance(message, tuple):
                i, line = message
                _run_one(jobs[k + i])  # raises the failure here if it recurs
                raise NumericalError(f"value {jobs[k + i][0]} failed only in its worker: "
                                     f"{line}")
            shares[k] = message

    try:
        for k in range(size, len(jobs), size):
            conn, child_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(target=_run_share, daemon=True,
                                              args=(child_conn, jobs[k:k + size]))
            process.start()
            child_conn.close()
            workers[conn] = k, process
        results = []
        for job in jobs[:size]:
            collect(0)
            results.append(_run_one(job))
        while len(shares) < len(workers):
            collect(None)
    finally:
        # ended before its pipe closes, a worker that is still sending
        # dies without a BrokenPipeError traceback
        for conn, (k, process) in workers.items():
            if k not in shares:
                process.terminate()
            process.join()
            conn.close()
    for k in sorted(shares):
        results += shares[k]
    return results


def run_sweep(spec: RunSpec, parameter: str, values, out_dir) -> list:
    """Run every value and publish its CSVs and the summary together; returns
    the summary rows.  Every value's run, budgets and label (two values may
    not share a file) and THREADS are checked before ``out_dir`` is made."""
    if parameter not in SWEEP_PARAMS:
        raise DomainError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    runs, seen = {}, {}
    for value in values:
        label = value_label(parameter, value)
        if label in seen:
            raise DomainError(f"sweep values {seen[label]!r} and {value!r} share the "
                              f"label {label!r}")
        seen[label] = value
        runs[label] = apply_parameter(spec, parameter, value)
        check_budgets(runs[label])
    n_workers = min(worker_count(), len(runs))
    os.makedirs(out_dir, exist_ok=True)
    with csvio.publish([os.path.join(out_dir, f"{parameter}_{label}.csv") for label in runs]
                       + [os.path.join(out_dir, "summary.csv")]) as tmps:
        entries = _results(list(zip(runs, runs.values(), tmps)), n_workers)
        csvio.write_text(tmps[-1], csvio.sweep_summary_csv(entries))
    return entries

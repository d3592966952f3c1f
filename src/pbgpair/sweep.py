"""Parameter sweeps: one entanglement CSV per value plus a summary table.

Values run in parallel across processes: the values are cut into one
contiguous share per process, the calling process runs the first share,
and one forked worker runs each other share and sends back its results as
one message on a one-way pipe, or only which value failed, for the
calling process to run again.  THREADS and the CPUs this process may run
on cap the number of processes.  Outputs are independent of it: results
are taken in input order, and the calling process writes every file once
every value has run.
"""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def _results(jobs, n_workers):
    """The results of ``jobs`` in input order, in ``n_workers`` contiguous
    shares of ceil(len(jobs) / n_workers): this process runs the first
    share, and one forked worker runs each other share and answers with
    one message on its pipe.

    The pipes are polled between this process's values, then waited on.
    A worker's failed value is run again here, so that its exception is
    raised in this process; one that does not recur raises a NumericalError
    that names the value and carries the worker's ``<type>: <message>``.
    A failure, a worker's or this process's, or a pipe that closes without
    a message ends the workers that have not answered.  Every worker is
    joined when the ``with`` block ends, so that the exit of those that
    answered overlaps the caller's use of the results.
    """
    if n_workers <= 1:
        yield [_run_one(job) for job in jobs]
        return
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
                labels = ", ".join(label for label, _ in jobs[k:k + size])
                raise NumericalError(f"the worker of values {labels} ended with exit "
                                     f"code {process.exitcode} before it sent its "
                                     f"results") from None
            if isinstance(message, tuple):
                i, line = message
                label, _ = jobs[k + i]
                _run_one(jobs[k + i])  # raises the failure here if it recurs
                raise NumericalError(f"value {label} failed only in its worker: {line}")
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
        for k in sorted(shares):
            results += shares[k]
        yield results
    finally:
        # ended before its pipe closes, a worker that is still sending
        # dies without a BrokenPipeError traceback
        for conn, (k, process) in workers.items():
            if k not in shares:
                process.terminate()
            process.join()
            conn.close()


def run_sweep(spec: RunSpec, parameter: str, values, out_dir) -> list:
    """Run every value, write per-value CSVs and the summary; returns rows.

    Every value's run, its size budgets and its label (two values may not
    share a file) and THREADS are checked before ``out_dir`` is created.
    With ``n = worker_count()`` the values go in contiguous shares of
    ceil(len(values) / n), at most ``n`` of them: this process runs the
    first share while one forked worker per other share runs the rest,
    and the results are taken in input order.  A value that fails ends
    the workers without waiting for their shares: at once in this
    process's share, else as soon as the worker's failure arrives, which
    this process sees before its next value or, once it has run its own
    share, at once; it runs a worker's failed value again and raises its
    exception, or a NumericalError that names the value if the failure
    does not recur.  A worker that dies without a result ends the sweep
    the same way, with a NumericalError that names its values and exit
    code.  Nothing is written unless every value ran.
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
    entries = []
    with _results(jobs, n_workers) as results:
        for label, hl, ien, text in results:
            csvio.write_atomic(os.path.join(out_dir, f"{parameter}_{label}.csv"), text)
            entries.append((label, hl, ien))
        csvio.write_atomic(os.path.join(out_dir, "summary.csv"),
                           csvio.sweep_summary_csv(entries))
    return entries

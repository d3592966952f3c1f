"""Parameter sweeps: one entanglement CSV per value plus a summary table.

Values run in parallel across processes; the worker count is capped by the
THREADS environment variable.  Outputs are independent of the worker count
(each value writes its own file and the summary preserves input order).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import csvio, negativity
from .config import RunSpec
from .errors import DomainError
from .pipeline import run_spec

SWEEP_PARAMS = ("gamma", "eta", "omega1c_omega2c_pair")
INTEGRAL_WINDOW = 500.0


def worker_count() -> int:
    cap = os.environ.get("THREADS")
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


def _run_one(args):
    spec, parameter, value, n_modes = args
    sub = apply_parameter(spec, parameter, value)
    series, traj, _ = run_spec(sub, n_modes=n_modes)
    hl = negativity.half_life(series.times, series.log_negativity)
    ien = negativity.integrated_en(series.times, series.log_negativity,
                                   min(INTEGRAL_WINDOW, sub.t_max))
    label = value_label(parameter, value)
    return label, hl, ien, csvio.entanglement_csv(series, traj)


def run_sweep(spec: RunSpec, parameter: str, values, out_dir, n_modes: int) -> list:
    """Run every value, write per-value CSVs and the summary; returns rows.

    ``n_modes`` sizes the oracle bath of engine=oracle|both runs.  Values
    whose labels coincide would write one file; they raise DomainError
    before any value runs.
    """
    if parameter not in SWEEP_PARAMS:
        raise DomainError(f"sweep parameter must be one of {SWEEP_PARAMS}, got {parameter!r}")
    seen = {}
    for value in values:
        label = value_label(parameter, value)
        if label in seen:
            raise DomainError(f"sweep values {seen[label]!r} and {value!r} share the "
                              f"label {label!r}")
        seen[label] = value
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(spec, parameter, value, n_modes) for value in values]
    if not jobs:
        csvio.write_atomic(os.path.join(out_dir, "summary.csv"),
                           csvio.sweep_summary_csv([]))
        return []
    n_workers = min(worker_count(), len(jobs))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]
    entries = []
    for label, hl, ien, text in results:
        csvio.write_atomic(os.path.join(out_dir, f"{parameter}_{label}.csv"), text)
        entries.append((label, hl, ien))
    csvio.write_atomic(os.path.join(out_dir, "summary.csv"),
                       csvio.sweep_summary_csv(entries))
    return entries

"""Output checks, run outside the timed operations.

Every CSV an operation writes is one output.  A check never raises: a
problem becomes a failure reason on that output.  Checks:

* header and row count of every CSV;
* series: 0 <= field_prob <= 1, N >= 0, field_prob = 1 - sum |A_i|^2 and
  E_N = log2(1 + 2N), all to 1e-9;
* series: inversion completeness, the t -> 0+ limit of the analytic engine
  (Richardson from t = 1e-5 and 2e-5) equal to the initial amplitudes to
  1e-6, once per configuration;
* presets: the reference rows kept with the benchmark, to 1e-8 absolute;
* pole tables: the criterion-1 dressed levels to 0.05;
* engine=both: the logged engine deviation at most 5e-3.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from inputs import ENGINE_DEV_TOL

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
SERIES_HEADER = "t,N,E_N,field_prob,abs_A1,abs_A2,abs_A3,abs_A4"
POLES_HEADER = "function_tag,re_x,im_x,class,residue_re,residue_im"
INVARIANT_TOL = 1e-9
REFERENCE_TOL = 1e-8
COMPLETENESS_TOL = 1e-6
LEVEL_TOL = 0.05
RICHARDSON_T = (1e-5, 2e-5)
DEVIATION_RE = re.compile(r"engine=both: max amplitude deviation (\S+)")


@dataclass
class OutputResult:
    name: str
    reasons: list = field(default_factory=list)
    known_defect: bool = False

    @property
    def ok(self) -> bool:
        return not self.reasons


def case_spec(case: dict):
    """(SystemConfig, InitialState, t_max, dt_out) of an output's case."""
    from pbgpair.config import SystemConfig, preset_initial
    from pbgpair.presets import get_preset

    if "preset" in case:
        p = get_preset(case["preset"])
        return p.config, p.init, p.t_max, p.dt_out
    w1c, w2c = case["omega1c"], case["omega2c"]
    cfg = SystemConfig(gamma1=case["gamma"], gamma2=case["gamma"], omega12=w1c - w2c,
                       omega1c=w1c, omega2c=w2c, eta=math.radians(case["eta_degrees"]))
    return cfg, preset_initial(case["initial"]), case["t_max"], case["dt_out"]


def is_dark_pole_config(config) -> bool:
    """The configurations of ROADMAP item 1, where find_poles misses the
    purely imaginary root below the branch point: cos^2 eta = 1,
    omega12 = 0 and gamma1 = gamma2."""
    return (config.cos_eta ** 2 == 1.0 and config.omega12 == 0.0
            and config.gamma1 == config.gamma2)


def completeness_residual(config, init) -> float:
    from pbgpair.inversion import amplitudes_analytic

    traj = amplitudes_analytic(np.array(RICHARDSON_T), config, init)
    limit = 2.0 * traj.amps[0] - traj.amps[1]
    return float(np.max(np.abs(limit - np.asarray(init.as_tuple(), dtype=complex))))


def _grid_rows(t_max, dt_out) -> int:
    return int(math.floor(t_max / dt_out + 1e-9)) + 1


@functools.lru_cache(maxsize=None)
def read_reference(name):
    """(row indices, rows) of a kept reference file, or None when absent."""
    path = os.path.join(REFERENCE_DIR, f"{name}.csv")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [int(r[0]) for r in rows[1:]], [r[1:] for r in rows[1:]]


def _compare_rows(got, want, reasons, label):
    worst = 0.0
    for g, w in zip(got, want):
        if len(g) != len(w):
            reasons.append(f"{label}: row has {len(g)} fields, reference {len(w)}")
            return
        for a, b in zip(g, w):
            try:
                worst = max(worst, abs(float(a) - float(b)))
            except ValueError:
                if a != b:
                    reasons.append(f"{label}: field {a!r} differs from reference {b!r}")
                    return
    if not worst <= REFERENCE_TOL:
        reasons.append(f"{label}: differs from reference rows by {worst:.3g}")


class Checker:
    """Checks outputs; keeps per-configuration results and accuracy maxima."""

    def __init__(self):
        self._completeness = {}
        self.completeness_max = 0.0
        self.table_err_max = 0.0
        self.engine_dev_max = 0.0

    def completeness(self, config, init) -> float:
        key = (config, init)
        if key not in self._completeness:
            self._completeness[key] = completeness_residual(config, init)
            self.completeness_max = max(self.completeness_max, self._completeness[key])
        return self._completeness[key]

    def check(self, output, out_dir, deviation=None) -> OutputResult:
        res = OutputResult(output.name)
        try:
            path = os.path.join(out_dir, output.path)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if output.kind == "poles":
                self._check_poles(output, lines, res)
            else:
                self._check_series(output, lines, res, deviation)
        except Exception as exc:  # a check reports; it never stops the run
            res.reasons.append(f"check raised {type(exc).__name__}: {exc}")
        return res

    def _check_series(self, output, lines, res, deviation):
        config, init, t_max, dt_out = case_spec(output.case)
        if not lines or lines[0] != SERIES_HEADER:
            res.reasons.append("bad header")
            return
        rows = [ln.split(",") for ln in lines[1:]]
        data = np.array(rows, dtype=float).reshape(len(rows), -1)
        if data.shape != (_grid_rows(t_max, dt_out), 8):
            res.reasons.append(f"shape {data.shape}, expected ({_grid_rows(t_max, dt_out)}, 8)")
            return
        t, n, en, fp = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
        amps = data[:, 4:]
        tol = INVARIANT_TOL
        if np.max(np.abs(t - dt_out * np.arange(t.size))) > tol * max(1.0, t_max):
            res.reasons.append("time column off the output grid")
        if np.min(fp) < -tol or np.max(fp) > 1 + tol:
            res.reasons.append(f"field_prob outside [0, 1]: [{np.min(fp):.3g}, {np.max(fp):.3g}]")
        if np.min(n) < -tol:
            res.reasons.append(f"negative N {np.min(n):.3g}")
        if np.max(np.abs(fp - (1.0 - np.sum(amps ** 2, axis=1)))) > tol:
            res.reasons.append("field_prob != 1 - sum |A_i|^2")
        if np.max(np.abs(en - np.log2(1.0 + 2.0 * n))) > tol:
            res.reasons.append("E_N != log2(1 + 2N)")
        if output.reference:
            ref = read_reference(output.reference)
            if ref is None:
                res.reasons.append(f"reference {output.reference!r} missing")
            else:
                idx, want = ref
                _compare_rows([rows[i] for i in idx], want, res.reasons, "reference")
        if output.both:
            if deviation is None:
                res.reasons.append("no engine deviation logged")
            else:
                self.engine_dev_max = max(self.engine_dev_max, deviation)
                if not deviation <= ENGINE_DEV_TOL:
                    res.reasons.append(f"engine deviation {deviation:.3g} > {ENGINE_DEV_TOL}")
        resid = self.completeness(config, init)
        if not resid <= COMPLETENESS_TOL:
            known = not res.reasons and is_dark_pole_config(config)
            res.reasons.append(f"completeness residual {resid:.3g} > {COMPLETENESS_TOL}")
            res.known_defect = known

    def _check_poles(self, output, lines, res):
        if not lines or lines[0] != POLES_HEADER:
            res.reasons.append("bad header")
            return
        rows = [ln.split(",") for ln in lines[1:]]
        ref = read_reference(output.reference)
        if ref is None:
            res.reasons.append(f"reference {output.reference!r} missing")
        elif len(ref[1]) != len(rows):
            res.reasons.append(f"{len(rows)} rows, reference has {len(ref[1])}")
        else:
            _compare_rows(rows, ref[1], res.reasons, "reference")
        if output.levels:
            ys = [float(r[2]) for r in rows if abs(float(r[1])) < 1e-9]
            err = max(min((abs(y - lv) for y in ys), default=math.inf)
                      for lv in output.levels)
            self.table_err_max = max(self.table_err_max, err)
            if not err <= LEVEL_TOL:
                res.reasons.append(f"criterion-1 level error {err:.3g} > {LEVEL_TOL}")

"""Workload inputs: the operations of one pass and the outputs they produce.

Everything here is derived from the workload name and the seed alone, so the
same seed always yields the same operations, values and run files.  Nothing
here imports pbgpair: the program only ever receives the generated inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("figures", "sweep_random", "oracle_check")

SERIES_PRESETS = (
    "fig2a", "fig2b", "fig2c", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b",
    "fig5c", "fig7a", "fig7b", "fig7c", "fig7d",
)
POLE_PRESETS = ("poles3a", "poles3b", "poles6a", "poles6b")

# Dressed levels quoted by acceptance criterion 1 (units of beta).
CRITERION1_LEVELS = {
    "poles3b": (-3.4, -6.0, -5.6, 6.0),
    "poles6a": (-10.0, -9.6),
    "poles6b": (-4.6, -6.0, -5.6, 6.0),
}

# Sweep template: gap levels, anti-parallel dipoles, bright start.  With
# eta = 180 degrees an equal-detuning pair is the dark-pole configuration of
# ROADMAP item 1.
SWEEP_TEMPLATE = {"gamma": 6.0, "eta_degrees": 180.0, "omega1c": -0.6,
                  "omega2c": -1.0, "initial": "bright", "t_max": 300.0,
                  "dt_out": 0.5}
SWEEP_VALUES = 16
ETA_RANGE = (0.0, 180.0)
PAIR_RANGE = (-2.0, 1.0)

ORACLE_RUN = {"gamma": 6.0, "eta_degrees": 120.0, "omega1c": -0.6,
              "omega2c": -1.0, "initial": "bright", "t_max": 300.0,
              "dt_out": 0.5}
ORACLE_RUN_MODES = 1000
ENGINE_DEV_TOL = 5e-3


@dataclass(frozen=True)
class Output:
    """One CSV an operation writes, with what is needed to check it.

    ``case`` describes the configuration: either ``{"preset": name}`` or a
    run-file dictionary like :data:`SWEEP_TEMPLATE`.
    """

    name: str
    kind: str                       # 'series' or 'poles'
    path: str                       # relative to the pass output directory
    case: dict
    reference: str | None = None    # reference file name, if one is kept
    levels: tuple = ()              # criterion-1 levels for pole tables
    both: bool = False              # engine=both: engine deviation is checked


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    outputs: tuple = field(default_factory=tuple)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    inputs: dict                    # the generated values, recorded with results
    warmup: Op | None = None        # untimed first call when a full pass is too costly


def run_file_text(case: dict, engine: str | None = None) -> str:
    lines = [
        f"gamma1 = {case['gamma']!r}",
        f"gamma2 = {case['gamma']!r}",
        f"omega12 = {case['omega1c'] - case['omega2c']!r}",
        f"omega1c = {case['omega1c']!r}",
        f"omega2c = {case['omega2c']!r}",
        f"eta_degrees = {case['eta_degrees']!r}",
        f"initial = {case['initial']}",
        f"t_max = {case['t_max']!r}",
        f"dt_out = {case['dt_out']!r}",
    ]
    if engine:
        lines.append(f"engine = {engine}")
    return "\n".join(lines) + "\n"


def _label(value) -> str:
    # the file-name label the sweep driver uses (format 'g')
    if isinstance(value, tuple):
        return f"{value[0]:g}_{value[1]:g}"
    return f"{value:g}"


def sweep_values(seed: int):
    """Seeded eta values (degrees) and detuning pairs, labels all distinct.

    The eta list holds both endpoints; the pair list holds one equal pair
    (w, w).  Rounding keeps every value exact in its file-name label.
    """
    rng = random.Random(seed)

    def fill(values, draw):
        labels = {_label(v) for v in values}
        while len(values) < SWEEP_VALUES:
            v = draw()
            if _label(v) not in labels:
                labels.add(_label(v))
                values.append(v)
        rng.shuffle(values)
        return values

    etas = fill([ETA_RANGE[0], ETA_RANGE[1]],
                lambda: round(rng.uniform(*ETA_RANGE), 3) + 0.0)

    def pair():
        return (round(rng.uniform(*PAIR_RANGE), 4) + 0.0,
                round(rng.uniform(*PAIR_RANGE), 4) + 0.0)

    w = round(rng.uniform(*PAIR_RANGE), 4) + 0.0
    pairs = [(w, w)]
    while len(pairs) < SWEEP_VALUES:  # the random pairs themselves are unequal
        p = pair()
        if p[0] != p[1] and _label(p) not in {_label(q) for q in pairs}:
            pairs.append(p)
    rng.shuffle(pairs)
    return etas, pairs


def _figures():
    ops = []
    for name in SERIES_PRESETS:
        path = f"{name}.csv"
        ops.append(Op(name, ("preset", name, "-o", path),
                      (Output(name, "series", path, {"preset": name}, reference=name),)))
    for name in POLE_PRESETS:
        path = f"{name}.csv"
        ops.append(Op(name, ("preset", name, "-o", path),
                      (Output(name, "poles", path, {"preset": name}, reference=name,
                              levels=CRITERION1_LEVELS.get(name, ())),)))
    return ops, {}, None


def _sweep(seed, in_dir):
    etas, pairs = sweep_values(seed)
    template = os.path.join(in_dir, "sweep_template.cfg")
    with open(template, "w", encoding="utf-8") as fh:
        fh.write(run_file_text(SWEEP_TEMPLATE))
    ops = []
    for param, values in (("eta", etas), ("omega1c_omega2c_pair", pairs)):
        if param == "eta":
            text = ",".join(repr(v) for v in values)
            cases = [dict(SWEEP_TEMPLATE, eta_degrees=v) for v in values]
        else:
            text = ";".join(f"{a!r}:{b!r}" for a, b in values)
            cases = [dict(SWEEP_TEMPLATE, omega1c=a, omega2c=b) for a, b in values]
        out_dir = f"sweep_{param}"
        outputs = tuple(
            Output(f"{param}={_label(v)}", "series",
                   os.path.join(out_dir, f"{param}_{_label(v)}.csv"), case)
            for v, case in zip(values, cases)
        )
        ops.append(Op(f"sweep_{param}",
                      ("sweep", template, "--param", param, f"--values={text}", "-o", out_dir),
                      outputs))
    return ops, {"eta_degrees": etas, "omega1c_omega2c_pairs": [list(p) for p in pairs]}, None


def _oracle(in_dir):
    run_file = os.path.join(in_dir, "oracle_eta120.cfg")
    with open(run_file, "w", encoding="utf-8") as fh:
        fh.write(run_file_text(ORACLE_RUN, engine="both"))
    ops = []
    for name in ("fig2b", "fig5b"):
        path = f"both_{name}.csv"
        ops.append(Op(f"both_{name}", ("preset", name, "--engine", "both", "-o", path),
                      (Output(f"both_{name}", "series", path, {"preset": name},
                              reference=name, both=True),)))
    path = "both_eta120.csv"
    ops.append(Op("both_eta120",
                  ("run", run_file, "--modes", str(ORACLE_RUN_MODES), "-o", path),
                  (Output("both_eta120", "series", path, dict(ORACLE_RUN), both=True),)))
    # a short, small-bath call that loads the oracle's code paths before timing
    warmup = Op("warmup", ("run", run_file, "--modes", "100", "--tmax", "5",
                           "-o", "warmup.csv"))
    return ops, {"oracle_run": dict(ORACLE_RUN), "oracle_run_modes": ORACLE_RUN_MODES}, warmup


def build(workload: str, seed: int, in_dir: str) -> Workload:
    """Generate the workload's operations; run files are written to in_dir."""
    os.makedirs(in_dir, exist_ok=True)
    if workload == "figures":
        ops, inputs, warmup = _figures()
    elif workload == "sweep_random":
        ops, inputs, warmup = _sweep(seed, in_dir)
    elif workload == "oracle_check":
        ops, inputs, warmup = _oracle(in_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Workload(workload, seed, ops, dict(inputs, seed=seed), warmup)

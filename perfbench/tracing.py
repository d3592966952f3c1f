"""Spans recorded around calls into pbgpair's public functions.

The tracer patches module attributes from outside the package: every
module attribute that refers to a wrapped function (including the names
``cli``, ``pipeline`` and ``sweep`` import directly) is pointed at a
wrapper while the tracer is installed, and restored afterwards.  A span
holds name, start, end, parent span and operation id, plus counts taken
from the call's arguments or result.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    phase: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its child spans.

    Spans come from one call stack, so the children of a span run one after
    another inside it.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


# --- what is counted at each boundary --------------------------------------

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_find_poles(args, kwargs, result):
    return {"dynamic": len(result.dynamic())}


def _count_nodes(args, kwargs, result):
    return {"nodes": int(np.size(args[0]))}


def _count_rows(args, kwargs, result):
    return {"rows": int(np.size(args[0]))}


def _count_times(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _count_series(args, kwargs, result):
    return {"points": int(np.size(args[0].times))}


def _count_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


def _count_bath(args, kwargs, result):
    return {"modes": result.n_modes, "horizon": float(result.recurrence_time())}


def _oracle_blocks(config, n_modes):
    """Sizes of the dense blocks the eigendecomposition path builds.

    Computed from the block structure (coupled when cos(eta) != 0, else two
    split blocks; a second mode family only when sin(eta) != 0), not
    measured inside the oracle.
    """
    from pbgpair.bath import SIN_ETA_FLOOR

    has_b = abs(config.sin_eta) > SIN_ETA_FLOOR
    if config.cos_eta == 0.0:
        return [2 + n_modes, 2 + n_modes * has_b]
    return [4 + n_modes * (1 + has_b)]


def _count_integrate(args, kwargs, result):
    config, bath = args[0], _arg(args, kwargs, 2, "bath")
    blocks = _oracle_blocks(config, bath.n_modes)
    return {"t_max": float(_arg(args, kwargs, 3, "t_max")),
            "block_dim_max": max(blocks),
            # ~9 n^3 flops for a symmetric eigendecomposition with vectors
            "eigh_gflop": sum(9.0 * n ** 3 for n in blocks) / 1e9}


def _count_run_spec(args, kwargs, result):
    spec = args[0]
    attrs = {"t_max": float(spec.t_max), "engine": spec.engine}
    if result[2] is not None:
        attrs["deviation"] = float(result[2])
    return attrs


def _count_values(args, kwargs, result):
    return {"values": len(_arg(args, kwargs, 2, "values"))}


def _count_workers(args, kwargs, result):
    return {"workers": int(result)}


# (span name, module, attribute, count function); a dotted attribute names a
# method on a class of that module.
TARGETS = (
    ("cli.main", "pbgpair.cli", "main", None),
    ("config.parse_run_file", "pbgpair.config", "parse_run_file", None),
    ("presets.get_preset", "pbgpair.presets", "get_preset", None),
    ("pipeline.run_spec", "pbgpair.pipeline", "run_spec", _count_run_spec),
    ("poles.find_poles", "pbgpair.poles", "find_poles", _count_find_poles),
    ("inversion.amplitudes_analytic", "pbgpair.inversion", "amplitudes_analytic",
     _count_times),
    ("inversion.residue_sum", "pbgpair.inversion", "residue_sum", None),
    ("inversion.cut_discontinuity", "pbgpair.inversion", "cut_discontinuity", _count_nodes),
    ("inversion.cut_build", "pbgpair.inversion", "CutIntegrator.__init__", None),
    ("inversion.cut_eval", "pbgpair.inversion", "CutIntegrator.evaluate", None),
    ("transform.solve_system", "pbgpair.transform", "solve_system", _count_rows),
    ("negativity.entanglement_series", "pbgpair.negativity", "entanglement_series",
     _count_series),
    ("csvio.format", "pbgpair.csvio", "entanglement_csv", None),
    ("csvio.format", "pbgpair.csvio", "poles_csv", None),
    ("csvio.write_atomic", "pbgpair.csvio", "write_atomic", _count_bytes),
    ("bath.build_bath", "pbgpair.bath", "build_bath", _count_bath),
    ("bath.integrate", "pbgpair.bath", "integrate", _count_integrate),
    ("sweep.run_sweep", "pbgpair.sweep", "run_sweep", _count_values),
    ("sweep.worker_count", "pbgpair.sweep", "worker_count", _count_workers),
)


class Tracer:
    """In-memory span recorder; ``installed()`` patches the targets."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.phase = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = Span(sid, name, start, end, parent, tracer.op, tracer.phase)
                tracer.spans.append(span)
            if count is not None:
                span.attrs = count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, mod_name, attr, count in TARGETS:
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != "pbgpair" and not mname.startswith("pbgpair."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "phase": s.phase, **s.attrs,
                }) + "\n")

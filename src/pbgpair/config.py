"""Physical parameters, initial states and run files, checked when built.

All frequencies are dimensionless, expressed in units of the band-edge
coupling constant beta, and times in units of 1/beta.  Sign
conventions follow the band-edge kernel beta' = 1 / (i sqrt(-i x - omega1c)):
``omega1c``/``omega2c`` are the detunings of the two upper levels from the
band edge, negative values placing a level inside the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DomainError,
    InconsistentDetunings,
    NormalizationError,
    ParseError,
    UnknownPreset,
)

DETUNING_TOL = 1e-9
NORM_TOL = 1e-12


def _snap_trig(value: float) -> float:
    """Clamp cos/sin of the dipole angle to exact 0 or +-1 near the
    special orientations, so orthogonal dipoles decouple identically
    instead of at the 1e-16 floating-point level."""
    for target in (0.0, 1.0, -1.0):
        if abs(value - target) < 1e-12:
            return target
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of the two-atom / band-edge problem, in units of beta,
    checked when built (by ``dataclasses.replace`` too).

    gamma1, gamma2
        Resonant dipole-dipole exchange strengths of the two transitions.
    omega12
        Upper-level splitting, omega13 - omega23.
    omega1c, omega2c
        Detunings of the upper levels from the band edge.
    eta
        Angle between the two dipole transition unit vectors, radians.
    """

    gamma1: float
    gamma2: float
    omega12: float
    omega1c: float
    omega2c: float
    eta: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise DomainError(
                f"gamma1/gamma2 must be non-negative, got {self.gamma1}, {self.gamma2}"
            )
        if not (0.0 <= self.eta <= math.pi):
            raise DomainError(f"eta must lie in [0, pi], got {self.eta}")
        mismatch = self.omega1c - self.omega2c - self.omega12
        if abs(mismatch) > DETUNING_TOL:
            raise InconsistentDetunings(
                "omega1c - omega2c != omega12 "
                f"({self.omega1c} - {self.omega2c} != {self.omega12})"
            )

    @property
    def cos_eta(self) -> float:
        return _snap_trig(math.cos(self.eta))

    @property
    def sin_eta(self) -> float:
        return _snap_trig(math.sin(self.eta))


@dataclass(frozen=True)
class InitialState:
    """Complex amplitudes of |a1 a6>, |a2 a6>, |a3 a4>, |a3 a5> at t=0."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a1), complex(self.a2), complex(self.a3), complex(self.a4))

    @property
    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.as_tuple())


@dataclass
class AmplitudeTrajectory:
    """Time grid with the four atomic amplitudes."""

    times: "object"
    amps: "object"  # shape (n_times, 4) complex
    meta: dict = field(default_factory=dict)

    @property
    def field_prob(self):
        """1 - sum_i |A_i|^2 at every time, by unitarity the one-photon weight."""
        return 1.0 - np.sum(np.abs(self.amps) ** 2, axis=1)


_PRESET_STATES = {
    "unentangled": (1.0, 0.0, 0.0, 0.0),
    "bright": (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0),
}


def preset_initial(name: str) -> InitialState:
    """Named initial state: 'unentangled' -> |a1 a6>, 'bright' -> symmetric pair."""
    try:
        a1, a2, a3, a4 = _PRESET_STATES[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown initial-state preset {name!r}; "
            f"choose from {sorted(_PRESET_STATES)}"
        ) from None
    return InitialState(a1, a2, a3, a4)


# Key-value run file: one `key = value` per line, '#' comments allowed.
_SCALAR_KEYS = {
    "gamma1",
    "gamma2",
    "omega12",
    "omega1c",
    "omega2c",
    "eta_degrees",
    "t_max",
    "dt_out",
}
_AMP_KEYS = {
    f"a{i}_{part}" for i in (1, 2, 3, 4) for part in ("re", "im")
}
ENGINES = ("analytic", "oracle", "both")
DEFAULT_MODES = 4000  # the oracle bath size


@dataclass(frozen=True)
class RunSpec:
    """A run: physics, initial state, output grid, engine and bath size, checked when built."""

    config: SystemConfig
    init: InitialState
    t_max: float
    dt_out: float
    engine: str = "analytic"
    n_modes: int = DEFAULT_MODES  # the oracle's, checked by bath.build_bath

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise DomainError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if not abs(self.init.norm_sq - 1.0) <= NORM_TOL:
            raise NormalizationError(
                f"initial amplitudes have norm^2 = {self.init.norm_sq!r}, expected 1"
            )
        if not (0 < self.t_max < math.inf and 0 < self.dt_out < math.inf):
            raise DomainError(f"t_max and dt_out must be positive and finite, "
                              f"got {self.t_max}, {self.dt_out}")


def n_points(t_max: float, dt_out: float) -> int:
    """Number of points of the output grid [0, dt_out, ..., <= t_max]."""
    return int(np.floor(t_max / dt_out + 1e-9)) + 1


def time_grid(t_max: float, dt_out: float):
    return np.arange(n_points(t_max, dt_out)) * dt_out


def parse_run_file(path) -> RunSpec:
    """Parse a key-value run file into a checked :class:`RunSpec`.

    Required keys: gamma1, gamma2, omega12, omega1c, omega2c, eta_degrees,
    initial, t_max, dt_out.  `initial = custom` additionally requires
    a1_re .. a4_im.  Optional: engine = analytic|oracle|both.  Unknown and
    repeated keys, and a line that is not UTF-8 text, raise ParseError with
    the offending line number.
    """
    values: dict[str, float | str] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text ({exc.reason})", lineno) from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.count("=") != 1:
                raise ParseError(f"expected exactly one '=' in {raw.strip()!r}", lineno)
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key in values:
                raise ParseError(f"duplicate key {key!r}", lineno)
            if key == "initial":
                if val not in (*_PRESET_STATES, "custom"):
                    raise ParseError(f"initial must be {'|'.join(_PRESET_STATES)}|custom, got {val!r}", lineno)
                values[key] = val
            elif key == "engine":
                if val not in ENGINES:
                    raise ParseError(f"engine must be one of {ENGINES}, got {val!r}", lineno)
                values[key] = val
            elif key in _SCALAR_KEYS or key in _AMP_KEYS:
                try:
                    values[key] = float(val)
                except ValueError:
                    raise ParseError(f"could not parse number {val!r} for {key!r}", lineno) from None
                if not math.isfinite(values[key]):
                    raise ParseError(f"{key} must be finite, got {val!r}", lineno)
            else:
                raise ParseError(f"unknown key {key!r}", lineno)

    missing = sorted(k for k in _SCALAR_KEYS if k not in values)
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}")
    if "initial" not in values:
        raise ParseError("missing required key: initial")

    if values["initial"] == "custom":
        missing_amp = sorted(k for k in _AMP_KEYS if k not in values)
        if missing_amp:
            raise ParseError(
                f"initial = custom requires amplitude keys: {', '.join(missing_amp)}"
            )
        init = InitialState(
            *(
                complex(values[f"a{i}_re"], values[f"a{i}_im"])
                for i in (1, 2, 3, 4)
            )
        )
    else:
        extra_amp = sorted(k for k in _AMP_KEYS if k in values)
        if extra_amp:
            raise ParseError(
                f"amplitude keys only allowed with initial = custom: {', '.join(extra_amp)}"
            )
        init = preset_initial(values["initial"])

    config = SystemConfig(
        gamma1=values["gamma1"],
        gamma2=values["gamma2"],
        omega12=values["omega12"],
        omega1c=values["omega1c"],
        omega2c=values["omega2c"],
        eta=math.radians(values["eta_degrees"]),
    )
    return RunSpec(
        config=config,
        init=init,
        t_max=values["t_max"],
        dt_out=values["dt_out"],
        engine=values.get("engine", "analytic"),
    )


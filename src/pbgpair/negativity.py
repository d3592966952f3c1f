"""Negativity and logarithmic negativity of the two-atom state.

The joint state lives in the single-excitation sector.  Tracing out the
field leaves the two-qutrit state

    rho = |psi><psi| + p |a3 a6><a3 a6|,
    psi = A1 |a1 a6> + A2 |a2 a6> + A3 |a3 a4> + A4 |a3 a5>,

with the one-photon weight p = 1 - sum |A_i|^2 (exact by unitarity)
collapsed onto the double ground state: the zero- and one-photon sectors
are orthogonal under the field trace, which kills every cross coherence.

Transposing the second atom moves the coherences A_i A_j^* (i in {1, 2},
j in {3, 4}) into the block {|a3 a6>, |a1 a4>, |a1 a5>, |a2 a4>, |a2 a5>},
an arrow matrix with p on its corner and zeros on the rest of its
diagonal.  Its one negative eigenvalue solves lambda (lambda - p) = X Y
with X = |A1|^2 + |A2|^2 and Y = |A3|^2 + |A4|^2; every other eigenvalue
of the partial transpose is non-negative.  The negativity (Vidal &
Werner, PRA 65, 032314 (2002)) is therefore

    N = (sqrt(p^2 + 4XY) - p) / 2 = 2XY / (p + sqrt(p^2 + 4XY)),

evaluated in the second form, which does not cancel when p -> 1 and XY
is small, and E_N = log2(1 + 2N).  N depends on the |A_i| alone, so the
optical phase pattern of the state expansion (a local unitary) drops out.
"""

from __future__ import annotations

import numpy as np

from .config import AmplitudeTrajectory
from .errors import NormError

NORM_SLACK = 1e-9


class EntanglementSeries:
    """Time series of negativity and logarithmic negativity."""

    def __init__(self, times, negativity, log_negativity):
        self.times = np.asarray(times, dtype=float)
        self.negativity = np.asarray(negativity, dtype=float)
        self.log_negativity = np.asarray(log_negativity, dtype=float)


def entanglement_series(trajectory: AmplitudeTrajectory) -> EntanglementSeries:
    """Negativity and E_N at every trajectory point.

    Raises NormError where the amplitudes exceed unit total probability by
    more than NORM_SLACK.  Within that slack the field weight p is clipped
    at 0: it is a probability, and a negative value is rounding only.
    """
    amps = np.asarray(trajectory.amps, dtype=complex)
    times = np.asarray(trajectory.times, dtype=float)
    prob = np.abs(amps) ** 2
    norm = np.sum(prob, axis=1)
    if np.any(norm > 1.0 + NORM_SLACK):
        k = int(np.argmax(norm))
        raise NormError(f"amplitude norm {norm[k]!r} exceeds 1 at t={times[k]:g}")
    p = np.maximum(1.0 - norm, 0.0)
    xy = (prob[:, 0] + prob[:, 1]) * (prob[:, 2] + prob[:, 3])
    den = p + np.sqrt(p * p + 4.0 * xy)
    n_vals = np.divide(2.0 * xy, den, out=np.zeros_like(xy), where=xy > 0.0)
    en = np.log1p(2.0 * n_vals) / np.log(2.0)
    return EntanglementSeries(times, n_vals, en)


def half_life(times, en) -> float:
    """First time after which E_N stays below half its global maximum.

    This is a settling time, not a lifetime: a persistent plateau that
    lies below half the peak gives a finite value (fig2b: 44, plateau
    0.274 under a half level of 0.306).  Returns inf when E_N never
    settles below the half level inside the horizon, and inf for
    identically zero series.
    """
    times = np.asarray(times, dtype=float)
    en = np.asarray(en, dtype=float)
    peak = float(np.max(en))
    if peak <= 0.0:
        return float("inf")
    below = en < 0.5 * peak
    # last index where E_N is at or above the half level
    above_idx = np.nonzero(~below)[0]
    last_above = int(above_idx[-1])
    if last_above == times.size - 1:
        return float("inf")
    return float(times[last_above + 1])


def integrated_en(times, en, t_upper: float) -> float:
    """Trapezoidal integral of E_N over [0, t_upper] (clipped to the grid)."""
    times = np.asarray(times, dtype=float)
    en = np.asarray(en, dtype=float)
    mask = times <= t_upper + 1e-12
    return float(np.trapezoid(en[mask], times[mask]))

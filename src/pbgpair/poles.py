"""Dressed-state pole location and classification, all in closed form.

Two families of roots are collected into one :class:`PoleSet`, the table
that the ``poles`` CSVs and the acceptance tests read:

* the dressed-level table: roots x = i*y of the classification functions
  G1/H1, at y = gamma1, omega12 + gamma2 (their prefactors, the exchange
  poles), -gamma1, omega12 - gamma2 (the exchange-split lower levels) and
  y = omega1c - 4 (the band-edge interference factor 1 + 2*beta').
  These are what the pole report lists and the regression tables quote.
  On the axis the table takes the principal S = sqrt(y - omega1c),
  +i sqrt(omega1c - y) below the edge (the value on the cut from above).

* the dynamic poles of the transform amplitudes on the inversion sheet:
  the exchange poles x = i*gamma1 and x = i*(gamma2 + omega12), and the
  roots of the symmetric determinant Delta.  With S = sqrt(-i x - omega1c),
  arg S in (-3pi/4, pi/4] on the sheet, and frequencies in units of beta,

      -S^2 Delta = (S^3 + a1 S - 2)(S^3 + a2 S - 2) - 4 cos^2(eta),
      a1 = omega1c + gamma1,  a2 = omega1c - omega12 + gamma2

  (John & Quang's band-edge reduction, PRA 50, 1764 (1994), for both
  transitions).  :func:`symmetric_sectors` returns these polynomials with
  all their roots, finished once (paired and polished), which is all that
  the closed form of :mod:`pbgpair.inversion` reads.  The ``u`` poles of
  the table are the roots on the sheet (``Sector.sheet``) at
  x = i (S^2 + omega1c): S > 0 is a bound state above the branch point,
  any other S a decaying pole.

A ``u`` pole on an exchange pole is a simple pole of another sector, and
both are kept.  With identical transitions (a1 = a2) the sextic factors
into the cubics P -/+ 2 cos(eta), P = S^3 + a1 S - 2, whose roots are
the poles of u1 + u2 and u1 - u2 ('u+' and 'u-' records, weight
1/(f +/- 2 beta' cos eta)' with f = x + i gamma1 + 2 beta').  At
cos^2 eta = 1 one combination is dark: its denominator is x + i gamma1,
a pole at x = -i gamma1 below the branch point with weight 1, like the
exchange poles.  At cos(eta) = 0 the cubics coincide and each root is a
simple pole of both combinations.  Otherwise roots closer than
DOUBLE_ROOT_TOL (nearly identical, nearly orthogonal transitions) cannot
be told from a double root and raise DegeneratePole.

The exchange poles are the G1 and H1 prefactor rows; a ``u`` pole on
another table root is merged into one record.  Table rows are
``localized`` below the band edge and ``bandpass`` otherwise; the other
``u`` rows are ``localized`` on the imaginary axis, ``propagating`` off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePole, NumericalError

MERGE_TOL = 1e-8
AXIS_TOL = 1e-9
BRANCH_TOL = 1e-6  # |S| at or below: a root at the branch point (x within 1e-12 of it)
RESIDUE_FLOOR = 1e-15  # |S|^2 / |P'(S)| at or below: such a root carries no residue
DOUBLE_ROOT_TOL = 1e-6  # in S; np.roots resolves a near-double pair to ~1e-8
PAIR_TOL = 1e-5  # relative distance below which two roots enter as a double root
POLISH_STEPS = 2
# |omega1c|, |omega2c| above: refused.  x = i (S^2 + omega1c) and the phase
# e^{i omega1c t} of the closed form cancel to about 0.5 EPS |omega| t, under
# 1e-9 at |omega| = 1e3 up to t = 4,200 (the longest preset window); at 1e18
# the bound states move to x = 0 and a run decays into the field.
MAX_DETUNING = 1e3


@dataclass(frozen=True)
class PoleRecord:
    """One root: location, family tag, class label and structural weight.

    ``weight`` is the reciprocal slope of the relevant denominator at the
    root (1/Delta' for symmetric-sector poles, 1/(f +/- 2 beta' cos eta)'
    for the split sector of identical transitions, 1 for the exchange
    poles, 1/H1' for table-only rows).  ``dynamic`` marks roots that are
    true singularities of the transform amplitudes; only those enter
    residue sums.  ``kind`` is one of 'v1', 'v2', 'u', 'u+', 'u-', 'table'.
    """

    tag: str
    x: complex
    klass: str
    weight: complex
    dynamic: bool
    kind: str


@dataclass(frozen=True)
class PoleSet:
    records: tuple
    config: "object" = field(repr=False)

    def dynamic(self):
        return [r for r in self.records if r.dynamic]


def _table_roots(config):
    """The H1 roots x that are no exchange pole: the lower exchange levels
    and 1 + 2 beta' = 0."""
    levels = [-config.gamma1, config.omega12 - config.gamma2, config.omega1c - 4.0]
    return [complex(0.0, y) for y in levels]


def _table_weight(x, config):
    """Reciprocal slope of H1 = i * prefactor * lower1 * lower2 *
    (1 + 2 beta') at its root x = i y, by the product rule: with the
    principal S = sqrt(y - omega1c), 1 + 2 beta' = 1 - 2i/S has slope 1/S^3.

    Factors within MERGE_TOL of zero count as zero, and only the term of
    the one vanishing factor is formed (beside the branch point the slope
    1/S^3 of another factor overflows); the weight is 0 at a double root
    (slope 0) and at the branch point (slope unbounded).  It is divided by
    one factor at a time: past exchange strengths of about 1e102 their
    product overflows, while the weight only underflows towards 0.
    """
    s = np.sqrt(complex(x.imag - config.omega1c))
    if s == 0:
        return 0j
    ix = 1j * x
    pre = config.omega12 + config.gamma2
    factors = [ix + pre, ix - config.gamma1, ix + config.omega12 - config.gamma2, 1 - 2j / s]
    zero = [k for k, f in enumerate(factors) if abs(f) <= MERGE_TOL]
    if len(zero) != 1:
        return 0j
    k = zero[0]
    slope = 1 / s ** 3 if k == 3 else 1j
    weight = 1 / complex(1j * slope)
    for f in factors[:k] + factors[k + 1:]:
        weight /= f
    return weight


@dataclass(frozen=True)
class Sector:
    """One factor of the symmetric determinant, a polynomial in S.

    ``kind`` is 'u' for the sextic of distinct transitions and 'u+'/'u-'
    for the cubics of identical ones; ``roots`` are all the final roots of
    ``coeffs`` (see :func:`_sector`), polished bar the near-double ``pairs``
    (index pairs); ``sheet`` the polished roots on the inversion sheet.  A
    dark cubic (1 +/- cos eta = 0) has no coefficients and no roots: its
    pole x = -i gamma1 is not a root in S.
    """

    kind: str
    coeffs: np.ndarray
    roots: np.ndarray
    sheet: np.ndarray
    pairs: tuple

    @property
    def dark(self):
        return self.coeffs.size == 0


def _branch_cluster(coeffs, s):
    """The roots with the k roots within BRANCH_TOL of S = 0 recomputed from
    the k + 1 lowest coefficients.

    np.roots resolves roots only to about 1e-16 of the largest coefficient,
    and may return a cluster of tiny roots as exact zeros, which carry no
    weight and would drop the cluster's O(1) residue.  Near S = 0 the
    lowest terms alone fix them to full relative accuracy.
    """
    small = np.abs(s) <= BRANCH_TOL
    k = int(np.count_nonzero(small))
    if k > 1:
        low = np.roots(coeffs[-(k + 1):])
        if low.size == k:
            s = s.astype(complex)
            s[small] = low
    return s


def _pair_index(s):
    """Index pairs (j, k), j < k, of roots closer than PAIR_TOL relative to
    their mean and to no other root; a root with two such neighbours stays
    single."""
    close = np.abs(s[:, None] - s[None, :]) < 0.5 * PAIR_TOL * np.abs(s[:, None] + s[None, :])
    np.fill_diagonal(close, False)
    lone = close.sum(axis=1) == 1
    partner = close.argmax(axis=1)
    return tuple((j, int(k)) for j, k in enumerate(partner) if lone[j] and lone[k] and j < k)


def _sector(kind, coeffs):
    """The sector of ``coeffs`` with its final roots.  Raises NumericalError where a
    term of the polynomial overflows at a root (detunings or exchange
    strengths from about 1e102 for the sextic, 1e205 for the cubics), since
    polishing the roots and their weights evaluate it there.

    The sheet holds the roots with arg S in (-3pi/4, pi/4], bar those within
    BRANCH_TOL of the branch point S = 0 whose residue, of order
    |S|^2 / |P'(S)|, is below RESIDUE_FLOOR: the structural root S = 0 of
    the sextic at cos^2 eta = 1 and the roots that a nearly parallel pair
    moves off it.  A cluster of roots there (the quasi-dark pole of nearly
    identical transitions) carries an O(1) residue and is kept.  Raises
    DegeneratePole when two sheet roots are closer than DOUBLE_ROOT_TOL.
    Both are decided on the unpolished roots, which are then polished once,
    bar the pairs closer than PAIR_TOL relative: Newton steps would move
    them apart, and the closed form enters them by their exact mean.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if not coeffs.size:
        empty = np.zeros(0, dtype=complex)
        return Sector(kind, coeffs, empty, empty, ())
    s = _branch_cluster(coeffs, np.roots(coeffs)).astype(complex)
    with np.errstate(over="ignore"):
        size = np.polyval(np.abs(coeffs), np.abs(s))
    if not np.all(np.isfinite(size)):
        raise NumericalError(f"the symmetric determinant overflows at its root "
                             f"|S| = {np.max(np.abs(s)):.3g}")
    arg = np.angle(s)
    keep = (arg > -0.75 * np.pi) & (arg <= 0.25 * np.pi)
    negligible = np.abs(s) ** 2 <= RESIDUE_FLOOR * np.abs(np.polyval(np.polyder(coeffs), s))
    keep &= ~((np.abs(s) <= BRANCH_TOL) & negligible)
    sheet = s[keep]
    close = np.abs(sheet[:, None] - sheet[None, :]) + np.eye(sheet.size) < DOUBLE_ROOT_TOL
    if close.any():
        raise DegeneratePole(f"double root of the symmetric determinant at "
                             f"S={sheet[close.any(axis=1)][0]:.9g} (exceptional point)")
    pairs = _pair_index(s)
    polished = polish(coeffs, s)
    final = np.where(np.isin(np.arange(s.size), pairs), s, polished)
    return Sector(kind, coeffs, final, polished[keep], pairs)


def polish(coeffs, s):
    """POLISH_STEPS Newton steps in S towards the roots of ``coeffs``.  A
    point stays put where it is a root already, where the step would exceed
    |S| (it would not polish) and where the derivative is zero or
    subnormal."""
    deriv = np.polyder(coeffs)
    for _ in range(POLISH_STEPS):
        p, d = np.polyval(coeffs, s), np.polyval(deriv, s)
        ok = ((p != 0) & (np.abs(d) >= np.finfo(float).tiny)
              & (np.abs(p) <= np.abs(d) * np.abs(s)))
        s = s - np.divide(p, d, out=np.zeros_like(s), where=ok)
    return s


def sector_parameters(config):
    """(a1, a2, cos eta) of the cubic factors S^3 + a_i S - 2.  A subnormal
    a_i is taken as 0: numpy's complex division overflows on the quotients
    of subnormals that the weights of its roots would be."""
    a = (config.omega1c + config.gamma1, config.omega1c - config.omega12 + config.gamma2)
    a1, a2 = (ai if abs(ai) >= np.finfo(float).tiny else 0.0 for ai in a)
    return a1, a2, config.cos_eta


def symmetric_sectors(config):
    """The sextic of distinct transitions, or the two cubics P -/+ 2 cos eta
    of identical ones (a1 = a2), with all their roots.

    Raises NumericalError, after the sectors' own checks, for a level more
    than MAX_DETUNING from the band edge.
    """
    a1, a2, c = sector_parameters(config)
    if a1 != a2:
        sectors = (_sector("u", [1.0, 0.0, a1 + a2, -4.0, a1 * a2, -2.0 * (a1 + a2),
                                 4.0 * (1.0 - c * c)]),)
    else:
        sectors = tuple(_sector(kind, [] if k == 0.0 else [1.0, 0.0, a1, -2.0 * k])
                        for kind, k in (("u+", 1.0 + c), ("u-", 1.0 - c)))
    detuning = max(abs(config.omega1c), abs(config.omega2c))
    if detuning > MAX_DETUNING:
        raise NumericalError(f"a level {detuning:.3g} from the band edge exceeds "
                             f"{MAX_DETUNING:g}, beyond which the closed form loses "
                             "accuracy")
    return sectors


def _snap(x):
    return complex(0.0, x.imag) if abs(x.real) <= AXIS_TOL else complex(x)


def _u_poles(config, sectors):
    """(kind, x, weight) of the symmetric-sector poles.

    Weights follow from dS/dx = -i/(2S) without touching the kernel near
    its branch point: Delta = -Q(S)/S^2 has slope i Q'(S)/(2 S^3) at a
    root, and f +/- 2 beta' cos eta = (i/S) C(S) has slope C'(S)/(2 S^2).
    """
    out = []
    for sec in sectors:
        if sec.dark:  # f - 2 beta' |cos eta| = x + i gamma1 has no kernel
            out.append((sec.kind, complex(0.0, -config.gamma1), 1.0 + 0j))
            continue
        s = sec.sheet
        d = np.polyval(np.polyder(sec.coeffs), s)
        num = -2j * s ** 3 if sec.kind == "u" else 2 * s * s
        out += [(sec.kind, _snap(1j * (si * si + config.omega1c)), complex(ni / di))
                for si, ni, di in zip(s, num, d)]
    return out


def find_poles(config) -> PoleSet:
    """Locate, merge and classify all table and dynamic roots.

    Raises DegeneratePole at a (near-)double root of the symmetric
    determinant that the sectors do not split.  Two roots merge when they
    lie within MERGE_TOL max(1, |x|) of each other: relative to |x| for
    large exchange strengths, whose roots carry rounding of that order.
    """
    edge = config.omega1c
    records = [PoleRecord(tag, x, "localized" if x.imag + edge < 0 else "bandpass",
                          1.0 + 0j, True, kind)
               for tag, kind, x in (("G1", "v1", complex(0.0, config.gamma1)),
                                    ("H1", "v2", complex(0.0, config.gamma2 + config.omega12)))]
    table = _table_roots(config)
    used_table = set()
    for kind, x, weight in _u_poles(config, symmetric_sectors(config)):
        tag, klass = "G1", "localized" if x.real == 0.0 else "propagating"
        for k, tx in enumerate(table):
            if k not in used_table and abs(tx - x) < MERGE_TOL * max(1.0, abs(x)):
                tag, klass = "H1", "localized" if x.imag + edge < 0 else "bandpass"
                used_table.add(k)
                break
        records.append(PoleRecord(tag, x, klass, weight, True, kind))

    for k, x in enumerate(table):
        if k in used_table or any(abs(x - r.x) < MERGE_TOL * max(1.0, abs(x))
                                  for r in records):
            continue
        klass = "localized" if x.imag + edge < 0 else "bandpass"
        records.append(PoleRecord("H1", x, klass, _table_weight(x, config), False, "table"))

    records.sort(key=lambda r: (-r.x.imag, r.x.real, r.tag))
    return PoleSet(records=tuple(records), config=config)

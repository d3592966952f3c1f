"""Dressed-state pole location and classification, all in closed form.

Two families of roots are collected into one :class:`PoleSet`:

* the dressed-level table: roots x = i*y of the classification functions
  G1/H1, at y = gamma1, omega12 + gamma2, -gamma1, omega12 - gamma2 (the
  exchange-split level factors and their prefactors) and
  y = omega1c - 4*beta^3 (the band-edge interference factor 1 + 2*beta').
  These are what the pole report lists and the regression tables quote.

* the dynamic poles of the transform amplitudes on the inversion sheet:
  the exchange poles x = i*gamma1 and x = i*(gamma2 + omega12), and the
  roots of the symmetric determinant Delta.  With S = sqrt(-i x - omega1c),
  arg S in (-3pi/4, pi/4] on the sheet, and b = beta^{3/2},

      -S^2 Delta = (S^3 + a1 S - 2b)(S^3 + a2 S - 2b) - 4 b^2 cos^2(eta),
      a1 = omega1c + gamma1,  a2 = omega1c - omega12 + gamma2

  (John & Quang's band-edge reduction, PRA 50, 1764 (1994), for both
  transitions).  The ``u`` poles are its roots on the sheet, polished by
  Newton steps in S, at x = i (S^2 + omega1c): S > 0 is a bound state
  above the branch point, any other S a decaying pole.  Roots at the
  branch point S ~ 0 whose residue is negligible are dropped (the root
  S = 0 itself at cos^2 eta = 1 is no pole); a cluster there, the
  quasi-dark pole of transitions that differ by rounding, is kept.
  The residue sum of the previous analytic route uses these and only
  these.  The closed form of :mod:`pbgpair.inversion` uses every root of
  the sextic, on the sheet or not: the :class:`Sector` polynomials and
  their roots come with the :class:`PoleSet`, from the same np.roots call.

A ``u`` pole on an exchange pole is a simple pole of another sector, and
both are kept.  With identical transitions (a1 = a2) the sextic factors
into the cubics P -/+ 2 b cos(eta), P = S^3 + a1 S - 2b, whose roots are
the poles of u1 + u2 and u1 - u2 ('u+' and 'u-' records, weight
1/(f +/- 2 beta' cos eta)' with f = x + i gamma1 + 2 beta').  At
cos^2 eta = 1 one combination is dark: its denominator is x + i gamma1,
a pole at x = -i gamma1 below the branch point with weight 1, like the
exchange poles.  At cos(eta) = 0 the cubics coincide and each root is a
simple pole of both combinations.  Otherwise roots closer than
DOUBLE_ROOT_TOL (nearly identical, nearly orthogonal transitions) cannot
be told from a double root and raise DegeneratePole.

A dynamic pole on a table root (the exchange poles always are) is merged
into one record.  Table rows are ``localized`` below the band edge and
``bandpass`` otherwise; dynamic-only rows are ``localized`` on the
imaginary axis and ``propagating`` off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import DegeneratePole

MERGE_TOL = 1e-8
AXIS_TOL = 1e-9
BRANCH_TOL = 1e-6  # |S| at or below: a root at the branch point (x within 1e-12 of it)
RESIDUE_FLOOR = 1e-15  # |S|^2 / |P'(S)| at or below: such a root carries no residue
DOUBLE_ROOT_TOL = 1e-6  # in S; np.roots resolves a near-double pair to ~1e-8
POLISH_STEPS = 2


@dataclass(frozen=True)
class PoleRecord:
    """One root: location, family tag, class label and structural weight.

    ``weight`` is the reciprocal slope of the relevant denominator at the
    root (1/Delta' for symmetric-sector poles, 1/(f +/- 2 beta' cos eta)'
    for the split sector of identical transitions, 1 for the exchange
    poles, 1/G_tag' for table-only rows).  ``dynamic`` marks roots that are
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
    config: "object" = field(repr=False, default=None)
    sectors: tuple = field(repr=False, default=(), compare=False)

    def dynamic(self):
        return [r for r in self.records if r.dynamic]

    def by_class(self, klass):
        return [r for r in self.records if r.klass == klass]

    @property
    def localized(self):
        return self.by_class("localized")

    @property
    def propagating(self):
        return self.by_class("propagating")

    @property
    def bandpass(self):
        return self.by_class("bandpass")

    def counts(self):
        out = {"localized": 0, "propagating": 0, "bandpass": 0}
        for r in self.records:
            out[r.klass] += 1
        return out


def _table_roots(config):
    """(tag, x) of the imaginary-axis roots of the classification factors."""
    levels = [
        ("G1", config.gamma1),                            # G prefactor
        ("H1", config.omega12 + config.gamma2),           # H prefactor
        ("H1", -config.gamma1),                           # lower exchange level 1
        ("H1", config.omega12 - config.gamma2),           # lower exchange level 2
        ("H1", config.omega1c - 4.0 * config.beta ** 3),  # 1 + 2 beta' = 0
    ]
    return [(tag, complex(0.0, y)) for tag, y in levels]


def _table_weight(tag, x, config):
    """Reciprocal slope of G1/H1 = i * prefactor * lower1 * lower2 *
    (1 + 2 beta') at its root x, by the product rule (principal kernel).

    Factors within MERGE_TOL of zero count as zero; the weight is 0 at a
    double root (slope 0) and at the branch point (slope unbounded).
    """
    w = x - 1j * config.omega1c
    if w == 0:
        return 0j
    g = kernel.beta_prime(x, config.omega1c, config.beta)
    ix = 1j * x
    pre = config.gamma1 if tag == "G1" else config.omega12 + config.gamma2
    factors = [ix + pre, ix - config.gamma1, ix + config.omega12 - config.gamma2, 1 + 2 * g]
    factors = [f if abs(f) > MERGE_TOL else 0j for f in factors]
    slopes = [1j, 1j, 1j, -g / w]
    deriv = 1j * sum(slopes[k] * np.prod(factors[:k] + factors[k + 1:]) for k in range(4))
    return 0j if deriv == 0 else complex(1.0 / deriv)


@dataclass(frozen=True)
class Sector:
    """One factor of the symmetric determinant, a polynomial in S.

    ``kind`` is 'u' for the sextic of distinct transitions and 'u+'/'u-'
    for the cubics of identical ones; ``roots`` are all the roots of
    ``coeffs`` as one np.roots call returns them.  A dark cubic
    (1 +/- cos eta = 0) has no coefficients and no roots: its pole
    x = -i gamma1 is not a root in S.
    """

    kind: str
    coeffs: np.ndarray
    roots: np.ndarray

    @property
    def dark(self):
        return self.coeffs.size == 0


def _sector(kind, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    roots = np.roots(coeffs) if coeffs.size else np.zeros(0, dtype=complex)
    return Sector(kind, coeffs, roots)


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
    """(a1, a2, b, cos eta) of the cubic factors S^3 + a_i S - 2b."""
    return (config.omega1c + config.gamma1,
            config.omega1c - config.omega12 + config.gamma2,
            config.beta ** 1.5, config.cos_eta)


def symmetric_sectors(config):
    """The sextic of distinct transitions, or the two cubics P -/+ 2 b cos eta
    of identical ones (a1 = a2), with all their roots."""
    a1, a2, b, c = sector_parameters(config)
    if a1 != a2:
        return (_sector("u", [1.0, 0.0, a1 + a2, -4.0 * b, a1 * a2, -2.0 * b * (a1 + a2),
                              4.0 * b * b * (1.0 - c * c)]),)
    out = []
    for kind, sign in (("u+", 1.0), ("u-", -1.0)):
        k = 1.0 + sign * c
        out.append(_sector(kind, [] if k == 0.0 else [1.0, 0.0, a1, -2.0 * b * k]))
    return tuple(out)


def _sheet_roots(sector):
    """Roots S of a sector that lie on the inversion sheet, polished, and
    the polynomial's derivative there.

    A root within BRANCH_TOL of the branch point S = 0 is dropped when its
    residue, of order |S|^2 / |P'(S)|, is below RESIDUE_FLOOR: the
    structural root S = 0 of the sextic at cos^2 eta = 1 and the roots that
    a nearly parallel pair moves off it.  A cluster of roots there (the
    quasi-dark pole of nearly identical transitions) carries an O(1)
    residue and is kept.
    """
    s = sector.roots
    deriv = np.polyder(sector.coeffs)
    arg = np.angle(s)
    keep = (arg > -0.75 * np.pi) & (arg <= 0.25 * np.pi)
    negligible = np.abs(s) ** 2 <= RESIDUE_FLOOR * np.abs(np.polyval(deriv, s))
    keep &= ~((np.abs(s) <= BRANCH_TOL) & negligible)
    s = s[keep]
    close = np.abs(s[:, None] - s[None, :]) + np.eye(s.size) < DOUBLE_ROOT_TOL
    if close.any():
        raise DegeneratePole(f"double root of the symmetric determinant at "
                             f"S={s[close.any(axis=1)][0]:.9g} (exceptional point)")
    s = polish(sector.coeffs, s)
    return s, np.polyval(deriv, s)


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
        s, d = _sheet_roots(sec)
        num = -2j * s ** 3 if sec.kind == "u" else 2 * s * s
        out += [(sec.kind, _snap(1j * (si * si + config.omega1c)), complex(ni / di))
                for si, ni, di in zip(s, num, d)]
    return out


def find_poles(config) -> PoleSet:
    """Locate, merge and classify all table and dynamic roots.

    Raises DegeneratePole at a (near-)double root of the symmetric
    determinant that the sectors do not split.
    """
    edge = config.omega1c
    table = _table_roots(config)
    sectors = symmetric_sectors(config)
    dynamic = [
        ("v1", complex(0.0, config.gamma1), 1.0 + 0j),
        ("v2", complex(0.0, config.gamma2 + config.omega12), 1.0 + 0j),
    ] + _u_poles(config, sectors)

    records = []
    used_table = set()
    for kind, x, weight in dynamic:
        tag = None
        for k, (ttag, tx) in enumerate(table):
            if k not in used_table and abs(tx - x) < MERGE_TOL:
                tag, used_table = ttag, used_table | {k}
                break
        if tag is not None:
            klass = "localized" if x.imag + edge < 0 else "bandpass"
        else:
            tag = "H1" if kind == "v2" else "G1"
            klass = "localized" if x.real == 0.0 else "propagating"
        records.append(PoleRecord(tag, x, klass, weight, True, kind))

    for k, (tag, x) in enumerate(table):
        if k in used_table:
            continue
        if any(abs(x - r.x) < MERGE_TOL for r in records):
            continue
        klass = "localized" if x.imag + edge < 0 else "bandpass"
        records.append(PoleRecord(tag, x, klass, _table_weight(tag, x, config), False, "table"))

    records.sort(key=lambda r: (-r.x.imag, r.x.real, r.tag))
    return PoleSet(records=tuple(records), config=config, sectors=sectors)

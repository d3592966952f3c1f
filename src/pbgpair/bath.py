"""Discretized-bath reference integrator (independent ground truth).

The band-edge continuum is replaced by discrete modes on a grid uniform in
u = sqrt(omega - omega_c), which resolves the density of states
J = 1 / (pi u) (frequencies in units of beta) with constant per-mode
weights.  A geometrically stretched far tail is appended so that the
discrete resolvent sum reproduces the transform-domain kernel to the
contracted tolerance; a sharp cutoff at omega_c + 50 would miss ~9% of
the kernel and visibly shift the bound-state frequencies.

Two independent mode families realize the kernel triple
(Gamma11, Gamma22, Gamma12) = beta' * (1, 1, cos eta): family ``a``
couples to transition 1 with g and to transition 2 with g cos(eta);
family ``b`` couples only to transition 2 with g sin(eta).  A single real
family cannot produce Gamma12^2 < Gamma11 * Gamma22.

The amplitude equations are integrated in the co-rotating mode variables
C_n = B^a_n e^{-i(omega_n - omega13) t}, D_n = B^b_n e^{-i(omega_n -
omega23) t}, an exact substitution that leaves a linear autonomous
Hermitian system.  Propagation is its exact unitary evolution, built from
the generator's structure instead of the generator: the exchange-
antisymmetric combinations see no modes, and the symmetric sector's
eigenvalues are the roots of scalar secular equations, one per mode
interval, found in memory linear in the number of modes (R.-C. Li 1993;
Gu & Eisenstat 1994, the scheme of LAPACK dlaed4).  Each root starts from
the phase shift of an evenly spaced ladder of poles at its own interval's
gap and weight (Bixon & Jortner 1968); the smooth rest of the sum drops
out because the principal value of the band's 1/(pi sqrt nu) density
vanishes above the edge.  A root is measured from whichever pole its
iterate lies nearer to: about three evaluation passes per root, with no
pass spent on finding that pole.  Each secular sum is
split into a near field, the poles of the root's own panel of PANEL poles
and its neighbours, and a far field taken from Chebyshev interpolants at
the panel's own points, built once per set of poles and shared by the
equations on it (Greengard & Rokhlin 1987; Gu & Eisenstat 1995).  Dyadic
groups of panels far enough from the root's panel are summed through
CHEB_DEGREE + 1 Chebyshev proxy poles each, in the near field and into
the far field's interpolants alike, and the rest directly.  The groups of
all panels are decided one tree level at a time, and the proxies' weights
come from one upward pass, a group's from its two children's proxies
(Dutt, Gu & Rokhlin 1996), so each pole enters them once.  The build
costs O(N log N), every panel sums a few hundred near terms, the panels
of the geometric tail too, and an evaluation pass costs O(N PANEL)
instead of O(N^2), with the roots sorted by panel once per pass.
Unitarity shows as the atomic parts of the eigenvectors resolving the
identity, which every run checks.  The sum over the roots at every output
time is blocked into two short tables of running products, from two
exponentials per root, and one complex matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AmplitudeTrajectory, time_grid
from .errors import (
    DiscretizationError,
    DomainError,
    RecurrenceHorizonExceeded,
    StepSizeError,
)

RESOLVENT_TOL = 1e-3
WEIGHT_DEFECT_TOL = 1e-8   # on |sum_k a_k a_k^T - I| of the atomic eigenvector parts
# The tail cutoff sets a kernel deficit ~ (2/pi)/TAIL_U_FACTOR that shifts
# bound-state frequencies; 2^16 keeps the t=50 phase error well under the
# engine-agreement budget at a cost of ~240 extra modes.
TAIL_U_FACTOR = 65536.0
TAIL_RATIO = 1.045
DENSE_WINDOW = 50.0     # densely sampled window above the edge
# Below this |sin eta| the second mode family is dropped: its coupling
# g sin(eta) changes the dynamics by O(sin^2 eta) < 1e-16, and the secular
# branches (slopes up to 1/sin^2 eta) could not be located in double precision.
SIN_ETA_FLOOR = 1e-8
EPS = np.finfo(float).eps
SECULAR_MAX_ITER = 100
# Roots per block of the secular iteration; it also sizes the barycentric
# blocks of a pass and the time sum's chunks, so that no work array grows
# with the bath (_secular_roots, _evaluate, _time_sum).
BLOCK = 2048
# Far field of the secular sums: panels of PANEL consecutive poles; a pole
# at least ADMISSIBLE half-widths from a panel's centre is summed through
# Chebyshev interpolants of degree CHEB_DEGREE on the panel's interval, and
# a group of poles at least ADMISSIBLE of its half-widths from a panel
# through CHEB_DEGREE + 1 proxies on the group's interval.  Their error for
# a pole at 3 half-widths falls as (3 + sqrt 8)^-degree, 4e-19 at degree 24.
PANEL = 64
CHEB_DEGREE = 24
ADMISSIBLE = 3.0
_CHEB_THETA = np.pi * (np.arange(CHEB_DEGREE + 1) + 0.5) / (CHEB_DEGREE + 1)
_CHEB_X = np.cos(_CHEB_THETA)    # Chebyshev points of the first kind
# their barycentric weights (Berrut & Trefethen 2004)
_CHEB_LAMBDA = (-1.0) ** np.arange(CHEB_DEGREE + 1) * np.sin(_CHEB_THETA)


@dataclass
class DiscreteBath:
    """Mode grid and couplings for the two channel families.

    ``nu`` are mode frequencies measured from the band edge; ``g`` the raw
    couplings of family a to transition 1.  Family a couples to
    transition 2 with ``g*cos(eta)``; family b (same grid) couples to
    transition 2 with ``g*sin(eta)`` only.
    """

    nu: np.ndarray
    g: np.ndarray
    n_main: int

    @property
    def n_modes(self) -> int:
        return int(self.nu.size)

    def recurrence_time(self) -> float:
        """Earliest rephasing time of the main grid, 2 pi / max spacing."""
        main = self.nu[: self.n_main]
        return 2.0 * np.pi / float(np.max(np.diff(main)))

    def resolvent(self, x, omega1c):
        """Discrete kernel sum  sum_n g_n^2 / (x + i (nu_n - omega1c))."""
        x = np.asarray(x, dtype=complex)
        den = x[..., None] + 1j * (self.nu - omega1c)
        return np.sum(self.g ** 2 / den, axis=-1)


def _tail_count(u_max) -> int:
    """Number of geometric tail cells from u_max up to TAIL_U_FACTOR."""
    return int(np.ceil(np.log(TAIL_U_FACTOR / u_max) / np.log(TAIL_RATIO)))


def block_dim(config, n_modes: int) -> int:
    """Dimension of the largest coupled block of the generator (atoms plus
    modes) for ``build_bath(config, n_modes)``, worked out without building
    it.  ``integrate`` never forms the block; its secular root count and
    the cost of summing over the roots grow with it."""
    n = n_modes + _tail_count(np.sqrt(DENSE_WINDOW))
    if config.cos_eta == 0.0:
        return 2 + n
    return 4 + n * (2 if abs(config.sin_eta) > SIN_ETA_FLOOR else 1)


def build_bath(config, n_modes: int) -> DiscreteBath:
    """Discretize the band-edge continuum for the given configuration.

    The window of DENSE_WINDOW above the edge is sampled densely, and a
    geometric tail of TAIL_RATIO cells reaches on to TAIL_U_FACTOR^2.
    Raises DiscretizationError when the resolvent sum fails to reproduce
    the kernel.
    """
    if n_modes < 100:
        raise DomainError(f"n_modes must be at least 100, got {n_modes}")
    weight = 2.0 / np.pi  # exact integral of J over a unit u-cell

    u_max = np.sqrt(DENSE_WINDOW)
    du = u_max / n_modes
    u_mid = (np.arange(n_modes) + 0.5) * du
    edges = u_max * TAIL_RATIO ** np.arange(_tail_count(u_max) + 1)
    e0, e1 = edges[:-1], edges[1:]
    # frequency at the J-weighted cell centroid keeps the first moment exact
    nu = np.concatenate([u_mid ** 2, (e0 * e0 + e0 * e1 + e1 * e1) / 3.0])
    g2 = np.concatenate([np.full(n_modes, weight * du), weight * (e1 - e0)])

    bath = DiscreteBath(nu=nu, g=np.sqrt(g2), n_main=n_modes)

    test_x = np.array([0.5, 1.0, 2.0, 0.5 + 1j, 1.0 - 0.7j])
    # beta' = 1 / (i S); Re x != 0 keeps every test point off the cut
    target = 1 / (1j * np.sqrt(-1j * test_x - config.omega1c))
    err = np.max(np.abs(bath.resolvent(test_x, config.omega1c) - target))
    if err > RESOLVENT_TOL:
        raise DiscretizationError(
            f"discrete resolvent misses the kernel by {err:.3g} (tol {RESOLVENT_TOL})"
        )
    return bath


@dataclass
class _FarField:
    """Near/far split of the secular sums over panels of PANEL consecutive poles.

    Panel P holds the roots whose nearer pole lies in it, on the interval
    [d[anchor], d[anchor] + 2 half] from the pole before its first to the
    pole after its last.  Its near range is the panel, its two neighbours
    and every panel with a pole closer than ADMISSIBLE half-widths to the
    interval's centre.  The poles outside the near range are its far
    field, and ``values[P]`` holds their four sums sum w/(d - z) and
    sum w/(d - z)^2, below and above, at the Chebyshev points of the
    interval, shape (panels, CHEB_DEGREE + 1, 4).  The near range is
    summed from the sources ``ptr[P]:ptr[P + 1]``, each a pole
    ``base + offset`` of weight ``weight``: the poles themselves (offset 0)
    and the CHEB_DEGREE + 1 proxies of each group of panels far enough
    from the interval, as offsets from the group's first pole, in order of
    position.  The far sums are taken through the same groups, whose
    proxy weights come from one upward pass over the tree of panel groups
    (``_far_field``, ``_upward``).
    """

    anchor: np.ndarray
    half: np.ndarray
    values: np.ndarray
    ptr: np.ndarray
    base: np.ndarray
    offset: np.ndarray
    weight: np.ndarray


def _barycentric(x):
    """The barycentric terms q_m = lambda_m / (x - X_m) at each x (rows) and
    their row sums: the Lagrange basis of the Chebyshev points is
    l_m(x) = q_m / sum_k q_k, a few rounding errors at most (Higham 2004)."""
    q = x[:, None] - _CHEB_X
    # on a node the formula tends to that node's value
    q[q == 0.0] = 1e-30
    np.divide(_CHEB_LAMBDA, q, out=q)
    return q, q.sum(axis=1)


def _proxy_weights(offset, weight, h):
    """Proxy weights W_m = sum_j weight_j l_m(x_j) of groups of sources, one
    group per row of ``offset`` and ``weight``: the sources lie at
    ``offset`` from their group's first pole, x_j = offset_j / h - 1 on a
    group of half-width ``h``."""
    x = offset / h[:, None] - 1.0
    q, total = _barycentric(x.ravel())
    return np.matmul((weight.ravel() / total).reshape(x.shape[0], 1, -1),
                     q.reshape(*x.shape, CHEB_DEGREE + 1))[:, 0]


def _upward(d, w, levels):
    """The proxies of every group of ``levels``, from the panels up: per
    level, their (groups x CHEB_DEGREE + 1) offsets h (1 + X_m) from their
    group's first pole and their weights W_m = sum_j w_j l_m(x_j).

    A panel's weights come from its poles.  A larger group's come from the
    proxies of its two children: the group's Lagrange basis polynomial l_m
    has degree CHEB_DEGREE, so it equals its interpolant on a child's
    points, and sum_j w_j l_m(x_j) over the child's poles is sum_k W_k
    l_m(y_k) over its proxies y_k, exactly in exact arithmetic (Dutt, Gu &
    Rokhlin 1996).  Each pole then enters once, not once per level.  A
    level's sources are one (groups x sources) table: a panel's poles, or
    the two children's proxies, padded with weight 0.  A group of
    CHEB_DEGREE + 1 poles or fewer, the last of a level at most, keeps its
    poles, with weight 0 in the rows left over.  The groups go BLOCK
    sources at a time, so no barycentric table exceeds BLOCK x 25 (0.4 MB).
    """
    m = CHEB_DEGREE + 1
    out = []
    for k, (a, b, h) in enumerate(levels):
        if k == 0:  # the panels' poles, padded to PANEL with weight 0
            pad = a.size * PANEL - d.size
            src = np.append(d, np.full(pad, d[-1])).reshape(a.size, PANEL)
            src -= src[:, :1]
            sw = np.append(w, np.zeros(pad)).reshape(a.size, PANEL)
        else:       # the two children's proxies
            ca, (coff, cw) = levels[k - 1][0], out[k - 1]
            if ca.size % 2:
                ca = np.append(ca, ca[-1])
                coff, cw = (np.concatenate([x, np.zeros((1, m))]) for x in (coff, cw))
            src = ((d[ca] - np.repeat(d[a], 2))[:, None] + coff).reshape(a.size, 2 * m)
            sw = cw.reshape(a.size, 2 * m)
        off = h[:, None] * (1.0 + _CHEB_X)
        W = np.zeros_like(off)
        few = b[-1] - a[-1] <= m        # the last group keeps its poles
        step = max(1, BLOCK // src.shape[1])
        for s in range(0, a.size - few, step):
            e = min(s + step, a.size - few)
            W[s:e] = _proxy_weights(src[s:e], sw[s:e], h[s:e])
        if few:
            off[-1] = 0.0
            off[-1, :b[-1] - a[-1]] = d[a[-1]:] - d[a[-1]]
            W[-1, :b[-1] - a[-1]] = w[a[-1]:]
        out.append((off, W))
    return out


def _expand(src, length):
    """The indices src[i], src[i] + 1, ..., src[i] + length[i] - 1 of every i, in order."""
    idx = np.repeat(src - np.cumsum(length) + length, length)
    idx += np.arange(idx.size)
    return idx


def _runs(cuts, ends, limit):
    """Runs [i, j) of consecutive steps of ``cuts``, each of at most
    ``limit`` entries ends[cuts[j]] - ends[cuts[i]], or of one step."""
    edge, i = ends[cuts], 0
    while i < cuts.size - 1:
        j = max(i + 1, int(np.searchsorted(edge, edge[i] + limit, side="right")) - 1)
        yield i, j
        i = j


def _far_field(d, w) -> _FarField:
    """Panels, far-field interpolants and near sources of the poles ``d``
    with weights ``w`` (Greengard & Rokhlin 1987).

    The groups of panels form a dyadic tree: level k holds the groups of
    2^k panels [j 2^k, (j + 1) 2^k), poles [a, b) on [d[a], d[a] + 2 h].
    Each panel's groups are decided one level at a time, from the group of
    all panels down, for all panels at once: a group is summed when it lies
    wholly inside or wholly outside the panel's near range and either is
    admissible, its centre at least ADMISSIBLE h from every point of the
    panel's interval and its poles more than CHEB_DEGREE + 1, or is one
    panel; otherwise its two children go on to the next level.  An
    admissible group is summed as CHEB_DEGREE + 1 proxies d[a] + h (1 + X_m)
    at its Chebyshev points X_m, with weights W_m = sum_j w_j l_m(x_j): the
    Chebyshev interpolant of 1/(d - z) and 1/(d - z)^2 in d, with the error
    bound of the target side.  The weights of every group come from one
    upward pass (``_upward``).  A panel's groups, in order of position, in
    its near range are its near sources; those outside it are summed at the
    Chebyshev points of its interval into ``values``, one pair of
    matrix-vector products per panel and side, so a far group costs
    CHEB_DEGREE + 1 terms per point in place of its poles, and the build
    O(N log N).  The sources are gathered 2 BLOCK at a time.
    """
    n = d.size
    first = np.arange(0, n, PANEL)
    panel = np.arange(first.size)
    anchor = np.maximum(first - 1, 0)
    half = 0.5 * (d[np.minimum(first + PANEL, n - 1)] - d[anchor])
    centre = d[anchor] + half
    inner = np.searchsorted(d, centre - ADMISSIBLE * half, side="right")
    outer = np.searchsorted(d, centre + ADMISSIBLE * half, side="left")
    # the near range [start, stop), in panels
    start = np.maximum(np.minimum(panel - 1, inner // PANEL), 0)
    stop = np.minimum(np.maximum(panel + 1, (outer - 1) // PANEL) + 1, first.size)
    lo, hi = d[anchor], d[anchor] + 2.0 * half
    m = CHEB_DEGREE + 1
    levels = []
    for k in range((first.size - 1).bit_length() + 1):
        a = first[::1 << k]
        b = np.minimum(a + (PANEL << k), n)
        levels.append((a, b, 0.5 * (d[b - 1] - d[a])))
    # every source as base + offset with its weight: the poles, then the
    # proxies of each level's groups
    tables = _upward(d, w, levels)
    pool = (np.concatenate([d] + [np.repeat(d[a], m) for a, _, _ in levels]),
            np.concatenate([np.zeros(n)] + [off.ravel() for off, _ in tables]),
            np.concatenate([w] + [W.ravel() for _, W in tables]))
    del tables
    at = n + m * np.cumsum([0] + [a.size for a, _, _ in levels])

    # the interaction lists: (panel, group j of level k) pairs, level by level;
    # a decided group is kept as (panel, first panel, first source, sources,
    # side: 0 near, 1 below, 2 above)
    leaves, p, j = [], panel, np.zeros_like(panel)
    for k in reversed(range(len(levels))):
        a, b, h = (x[j] for x in levels[k])
        g, size, da = j << k, 1 << k, d[a]
        admissible = (b - a > m) & (np.maximum(lo[p] - da - h, da + h - hi[p]) >= ADMISSIBLE * h)
        below, above = g + size <= start[p], g >= stop[p]
        inside = (start[p] <= g) & (g + size <= stop[p])
        done = (admissible | (b - a <= PANEL)) & (inside | below | above)
        leaves.append(np.stack([p, g, np.where(admissible, at[k] + m * j, a),
                               np.where(admissible, m, b - a), 2 * above + below])[:, done])
        p, j = p[~done], 2 * j[~done]
        if k:
            right = j + 1 < levels[k - 1][0].size
            p, j = np.concatenate([p, p[right]]), np.concatenate([j, j[right] + 1])
    p, g, src, length, side = leaves = np.concatenate(leaves, axis=1)
    # the near groups of every panel, then its groups below and above, each
    # in order of position
    order = np.argsort((((side > 0) * first.size + p) * 3 + side) * (1 << (len(levels) - 1)) + g)
    p, g, src, length, side = leaves = leaves[:, order]
    ends = np.concatenate([[0], np.cumsum(length)])
    n_near = np.count_nonzero(side == 0)
    ptr = ends[np.concatenate([[0], np.searchsorted(p[:n_near], panel, side="right")])]

    near = np.empty((3, ptr[-1]))
    for l0, l1 in _runs(np.arange(n_near + 1), ends, 2 * BLOCK):
        e0, e1 = ends[l0], ends[l1]
        idx = _expand(src[l0:l1], length[l0:l1])
        for x, into in zip(pool, near):
            into[e0:e1] = np.take(x, idx)
    # the far sums of each (panel, side) run of groups
    cut = n_near + np.flatnonzero(np.diff(2 * p[n_near:] + side[n_near:], prepend=-1))
    cut = np.append(cut, p.size)
    values = np.zeros((first.size, m, 4))
    t = half[:, None] * (1.0 + _CHEB_X)
    seg_panel, seg_col = p[cut[:-1]].tolist(), (2 * side[cut[:-1]] - 2).tolist()
    edge = ends[cut].tolist()
    for i0, i1 in _runs(cut, ends, 2 * BLOCK):
        l0, l1 = cut[i0], cut[i1]
        idx = _expand(src[l0:l1], length[l0:l1])
        # the sources' offsets from their panel's anchor pole, as for the roots
        pos = np.take(pool[0], idx)
        pos -= np.repeat(lo[p[l0:l1]], length[l0:l1])
        pos += np.take(pool[1], idx)
        wt = np.take(pool[2], idx)
        e0 = edge[i0]
        for i in range(i0, i1):
            s = slice(edge[i] - e0, edge[i + 1] - e0)
            r = pos[s][None, :] - t[seg_panel[i]][:, None]
            np.reciprocal(r, out=r)
            values[seg_panel[i], :, seg_col[i]] = r @ wt[s]
            r *= r
            values[seg_panel[i], :, seg_col[i] + 1] = r @ wt[s]
    return _FarField(anchor, half, values, ptr, *near)


def _evaluate(d, w, value, origin, tau, far: _FarField):
    """Secular function F(z) = mu(z) - sum_j w_j / (z - d_j) at z = d[origin] + tau.

    Returns F, F', the share of s2 = sum_j w_j / (z - d_j)^2 from the
    poles below z, s2 itself, mu'(z), an estimate of the rounding error of
    F and sigma(z) = sum_j w_j / (z - d_j).  The estimate is not a bound
    beside a pole, where one term dominates a long dot product: against
    ``math.fsum`` of the same terms the direct sum over every pole exceeds
    it by up to 1.7 times.  This route's shorter sums stayed within 0.88
    of it at the 1,212,000 points of two 1,500-example runs, which proves
    no bound.  The roots go in one group per panel: they are sorted by
    group once, each group is a slice of the sorted rows, the barycentric
    terms of the roots inside their panels' intervals come from one call
    per block of BLOCK sorted rows (0.4 MB), so that no table grows with
    the number of roots, and the four sums go back to the roots' order in
    one scatter.  Its memory is then about 180 bytes per root (9.1 MB
    traced for the 51,207 interior roots of fig2c at 51,000 modes in one
    call), and ``_secular_roots`` passes it at most BLOCK roots.  A group
    takes its far field from the panel's Chebyshev interpolants
    (``far``), one (rows x CHEB_DEGREE + 1) by (CHEB_DEGREE + 1 x 4)
    product, and its near field from the panel's sources in one
    (rows x sources) block, with the differences z - d_j
    formed as ((base - d[origin]) + offset) - tau: for a direct pole that
    is (d_j - d[origin]) - tau, accurate to relative rounding even beside
    the pole, and a proxy keeps its offset from a pole of its group to the
    same accuracy.  A root outside its panel's interval (the two outer
    roots) takes every pole directly.
    """
    mu, mu_p = value(d[origin] + tau)
    panel = origin // PANEL
    with np.errstate(divide="ignore", invalid="ignore"):
        x = ((d[origin] - d[far.anchor[panel]]) + tau) / far.half[panel] - 1.0
    outside = far.anchor.size
    group = np.where(np.abs(x) <= 1.0, panel, outside)
    # the rows sorted by group once, so that each group is a slice a:b
    order = np.argsort(group, kind="stable")
    group, x, dz, tz = group[order], x[order], d[origin[order]], tau[order]
    cuts = np.flatnonzero(np.diff(group)) + 1
    n_inside = np.searchsorted(group, outside)
    # s1, s1lo, s2, s2lo: the four sums, from all poles and from those below z,
    # in sorted order
    part = np.zeros((4, tau.size))
    start = stop = 0
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), tau.size]):
        g = group[a]
        if g < outside:
            if b > stop:
                # the barycentric terms of the next BLOCK sorted rows (0.4 MB),
                # or more to end on a whole group
                start, stop = a, min(max(b, a + BLOCK), n_inside)
                q, total = _barycentric(x[start:stop])
            # columns s1lo, s2lo, s1hi, s2hi of the far field
            lo1, lo2, hi1, hi2 = ((q[a - start:b - start] @ far.values[g])
                                  / total[a - start:b - start, None]).T
            part[:, a:b] = lo1 + hi1, lo1, lo2 + hi2, lo2
            src = slice(far.ptr[g], far.ptr[g + 1])
            base, offset, weight = far.base[src], far.offset[src], far.weight[src]
        else:
            base, offset, weight = d, np.zeros(d.size), w
        r = base[None, :] - dz[a:b, None]
        r += offset
        r -= tz[a:b, None]
        np.reciprocal(r, out=r)          # 1 / (d_j - z)
        lower = np.minimum(r, 0.0)       # the poles below z
        part[0, a:b] += r @ weight
        part[1, a:b] += lower @ weight
        r *= r
        lower *= lower
        part[2, a:b] += r @ weight
        part[3, a:b] += lower @ weight
    sums = np.empty_like(part)
    sums[:, order] = part
    s1, s1lo, s2, s2lo = sums
    # s1 - 2 s1lo = sum_j w_j / |d_j - z| scales the rounding of the sum
    err = EPS * (8.0 * (np.abs(mu) + s1 - 2.0 * s1lo) + 2.0 * np.abs(d[origin] + tau) * mu_p)
    return mu + s1, mu_p + s2, s2lo, s2, mu_p, err, -s1


def _lattice_start(d, w, value, gap):
    """Starts of the interior roots of F(z) = mu(z) - sum_j w_j / (z - d_j),
    from a lattice model of each interval (d[k-1], d[k]) of gap D:
    evenly spaced poles of weight rho D with rho = (w[k-1] + w[k]) / (2 D),
    whose sum is pi rho cot(pi theta) at z = d[k-1] + theta D (the
    quasi-continuum of an evenly spaced level ladder, Bixon & Jortner
    1968).  The smooth rest of the sum is left out: the principal value of
    the band's 1/(pi sqrt nu) density vanishes above the edge, the a = 1/2
    case of PV int_0^inf x^(a-1)/(1 - x) dx = pi cot(pi a).  So
    F ~ mu(z) - pi rho cot(pi theta) vanishes at theta = arctan2(pi rho,
    mu(z)) / pi, refined twice through ``value`` from the midpoint, with no
    pole sums.  Returns ``up``, whether each root starts nearer to d[k],
    and its offset from that pole, a fraction arctan2(pi rho, |mu|) / pi
    of the gap ``gap`` = d[k] - d[k-1], in full precision beside the pole.
    """
    pi_rho = 0.5 * np.pi * (w[:-1] + w[1:]) / gap
    z = d[:-1] + 0.5 * gap
    path = [0.5 * gap]                   # the starts, as offsets from d[k-1]
    for _ in range(3):
        mu = value(z)[0]
        up = mu < 0.0
        tau = np.where(up, -gap, gap) * (np.arctan2(pi_rho, np.abs(mu)) / np.pi)
        z = np.where(up, d[1:], d[:-1]) + tau
        path.append(np.where(up, gap + tau, tau))
    # theta falls as mu rises, so each start lies beyond the model's root
    # from the one before; one that does not fall between the two before,
    # where mu steps across the interval, starts from the midpoint instead
    path = np.array(path)
    unsettled = np.any((path[2:] - path[:-2]) * (path[2:] - path[1:-1]) > 0.0, axis=0)
    return up & ~unsettled, np.where(unsettled, 0.5 * gap, tau)


def _secular_roots(d, w, value, far: _FarField):
    """All roots of F(z) = mu(z) - sum_j w_j / (z - d_j), one per pole interval.

    ``d`` ascending and distinct, ``w`` positive, ``value(z)`` returns
    mu(z) and mu'(z) > 0.  F then increases from -inf to +inf across each
    of the n + 1 intervals (-inf, d_0), (d_0, d_1), ..., (d_{n-1}, +inf),
    so each holds exactly one root.  A root is kept as its nearer pole
    ``d[origin]`` and the offset ``tau`` from it, found by the two-pole
    rational "middle way" iteration (R.-C. Li 1993; Gu & Eisenstat 1994,
    the scheme of LAPACK dlaed4) inside a bisection bracket; only roots
    not yet converged are iterated, and every iteration reuses the far
    field ``far`` of the poles (``_far_field``), which the caller builds
    once and shares between the equations on the same poles.

    An interior root starts from a lattice model of its interval
    (``_lattice_start``), with the whole interval as its bracket, and an
    iterate that crosses its interval's midpoint is measured from the
    other pole.  So no pass over the roots only finds which pole each
    lies nearer to, and a root takes about three passes where a start
    from the midpoints took four or five.  Returns (origin, tau, sigma,
    s2, rows) with sigma = sum_j w_j / (z - d_j) and s2 = sum_j w_j /
    (z - d_j)^2 at the root, and ``rows`` the roots evaluated over all
    evaluation passes (``_evaluate``).  The steps that bracket the two
    outer roots take the sign of F from a direct sum and are not counted.

    A root's iteration needs its own interval and the far field, nothing
    of the other roots (as in dlaed4, which finds one root per call), so
    the roots are iterated in blocks of BLOCK consecutive roots, the outer
    two included, each block to convergence before the next.  The state of
    a pass is then BLOCK roots long; the far field, the lattice start, the
    brackets and the returned roots are the arrays that grow with the
    bath.  On fig2c at 51,000 modes the passes peak at 12.8 MB traced, over
    the far-field build (12.0 MB) and under the lattice start (14.4 MB).
    """
    n = d.size
    k = np.arange(n + 1)                 # root k lies between d[k-1] and d[k]
    origin = np.clip(k - 1, 0, n - 1)
    tau, lo, hi = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    rows = 0
    # the outer roots: step away from the outer poles until F changes sign,
    # its sign from one direct sum per step, with the differences taken from
    # the pole as in _evaluate
    for kk, sign in ((0, -1.0), (n, 1.0)):
        h, prev, o = (d[1] - d[0] if n > 1 else 1.0), 0.0, origin[kk]
        for _ in range(200):
            f = value(d[o] + sign * h)[0] - np.sum(w / (sign * h - (d - d[o])))
            if sign * f > 0.0:
                break
            h, prev = 4.0 * h, h
        else:
            raise StepSizeError("secular equation: no sign change beyond the outer poles")
        tau[kk] = sign * h
        lo[kk], hi[kk] = sorted((sign * prev, sign * h))

    # the gap of each root's interval; infinite for the outer roots, which
    # never move to the other pole
    span = np.concatenate([[np.inf], np.diff(d), [np.inf]])
    gap = span[1:n]
    up, tau[1:n] = _lattice_start(d, w, value, gap)
    origin[1:n] += up
    lo[1:n], hi[1:n] = np.where(up, -gap, 0.0), np.where(up, 0.0, gap)

    s2_root, sigma_root = np.empty(n + 1), np.empty(n + 1)
    for first in range(0, n + 1, BLOCK):
        act = k[first:first + BLOCK]
        for _ in range(SECULAR_MAX_ITER):
            F, Fp, s2lo, s2, mu_p, err, sigma = _evaluate(d, w, value, origin[act], tau[act],
                                                          far)
            rows += act.size
            kk, o, t = k[act], origin[act], tau[act]
            lo[act] = np.where(F < 0.0, np.maximum(lo[act], t), lo[act])
            hi[act] = np.where(F < 0.0, hi[act], np.minimum(hi[act], t))
            with np.errstate(all="ignore"):
                # offsets of the interval's ends from z; +-inf past the outer poles
                dlo = np.where(kk > 0, d[np.maximum(kk - 1, 0)] - d[o] - t, -np.inf)
                dhi = np.where(kk < n, d[np.minimum(kk, n - 1)] - d[o] - t, np.inf)
                # model c + S_lo/(dlo - eta) + S_hi/(dhi - eta) matching F and F';
                # mu' goes with the far end, as do the poles beyond it
                psi = s2lo + np.where(o == kk - 1, 0.0, mu_p)
                c = F - dlo * psi - dhi * (Fp - psi)
                a = (dlo + dhi) * F - dlo * dhi * Fp
                b = dlo * dhi * F
                q = 0.5 * (a + np.copysign(np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0)), a))
                eta = np.where((q / c > dlo) & (q / c < dhi), q / c, b / q)
                # the outer intervals: a one-pole model at the single adjacent pole
                one = np.where(kk == 0, dhi, dlo)
                eta = np.where((kk == 0) | (kk == n), one * F / (F - one * Fp), eta)
                new = t + eta
            # F at rounding level: the last step polishes t at most, and so does
            # not leave t's half of the interval
            small = np.abs(F) <= err
            inside = ((new > lo[act]) & (new < hi[act])
                      & ~(small & (np.abs(new) > 0.5 * span[kk])))
            new = np.where(inside, new, np.where(small, t, 0.5 * (lo[act] + hi[act])))
            tau[act] = new
            # sigma moved to the new tau to first order (sigma' = -s2)
            s2_root[act], sigma_root[act] = s2, sigma - s2 * (new - t)
            width = hi[act] - lo[act]
            done = (small | (inside & (np.abs(eta) <= 4.0 * EPS * np.abs(new)))
                    | (width <= 4.0 * EPS * np.maximum(np.abs(lo[act]), np.abs(hi[act]))))
            # an iterate past its interval's midpoint is measured from the other
            # pole: tau and the bracket end beyond the midpoint shift by the gap
            # exactly (Sterbenz), the end left behind is rounded outwards and
            # kept inside the interval, so that the bracket still holds the root
            cross = np.abs(new) > 0.5 * span[kk]
            moved, g, rise = act[cross], span[kk][cross], (o < kk)[cross]
            origin[moved] += np.where(rise, 1, -1)
            tau[moved] -= np.where(rise, g, -g)
            lo[moved] = np.where(rise, np.maximum(np.nextafter(lo[moved] - g, -np.inf), -g),
                                 lo[moved] + g)
            hi[moved] = np.where(rise, hi[moved] - g,
                                 np.minimum(np.nextafter(hi[moved] + g, np.inf), g))
            act = act[~done]
            if act.size == 0:
                break
        else:
            raise StepSizeError(f"secular equation: {act.size} roots unconverged after "
                                f"{SECULAR_MAX_ITER} iterations")
    return origin, tau, sigma_root, s2_root, rows


@dataclass
class _Spectrum:
    """Eigenpairs of the exchange-symmetric sector with their atomic parts.

    Eigenvalue ``base + tau`` (``base`` its nearer pole); ``atom`` the
    (u1, u2) parts of the normalised eigenvectors, one row each; ``proj``
    the projector onto the atomic subspace they resolve; ``rows`` the
    roots evaluated over all passes of its secular equations.
    """

    base: np.ndarray
    tau: np.ndarray
    atom: np.ndarray
    proj: np.ndarray
    rows: int = 0

    @classmethod
    def join(cls, parts, proj):
        """The spectrum of ``parts``, each (base, tau, atom, rows)."""
        if not parts:
            return cls(np.zeros(0), np.zeros(0), np.zeros((0, 2)), proj)
        *arrays, rows = zip(*parts)
        base, tau, atom = (np.concatenate(x) for x in arrays)
        return cls(base, tau, atom, proj, sum(rows))


def _arrowhead(d, w, h, kappa, vector, far: _FarField):
    """Roots of (z - h)/kappa = sum_j w_j / (z - d_j): eigenpairs of an
    arrowhead with head h, whose atomic parts are vector(base, tau), scaled
    to unit head component, over sqrt(1 + kappa s2)."""
    origin, tau, _, s2, rows = _secular_roots(
        d, w, lambda z: ((z - h) / kappa, np.full(np.shape(z), 1.0 / kappa)), far)
    base = d[origin]
    return base, tau, vector(base, tau) / np.sqrt(1.0 + kappa * s2)[:, None], rows


def _negligible(h12, h22, w) -> bool:
    """An atomic coupling below the rounding of the level it couples and of
    the largest mode coupling."""
    return abs(h12) <= EPS * max(abs(h22), np.sqrt(w.max()))


def _split(delta, w, heads, kappas, vectors, u0) -> _Spectrum:
    """The sector when h_u and Mc share the eigenvectors ``vectors``: one
    arrowhead (z - head)/kappa = sigma(z) per vector that u0 populates, or
    the exact eigenvalue ``head`` where kappa = 0 (no coupling to modes).
    The arrowheads share one far field."""
    parts, proj, far = [], np.zeros((2, 2)), None
    for h, kappa, e in zip(heads, kappas, vectors):
        if e @ u0 == 0:
            continue
        proj += np.outer(e, e)
        if kappa == 0.0:
            parts.append((np.array([h]), np.zeros(1), e[None, :], 0))
            continue
        if far is None:
            far = _far_field(delta, w)
        parts.append(_arrowhead(delta, w, h, kappa,
                                lambda base, tau, e=e: np.tile(e, (base.size, 1)), far))
    return _Spectrum.join(parts, proj)


def _parallel(delta, w, g, h22, h12, e, f) -> _Spectrum:
    """Spectrum for parallel or anti-parallel dipoles (one mode family).

    Mc = 4 e e^T: f sees no modes and couples only to e, with h12, so it
    becomes one more pole h22 of weight h12^2/4 of the arrowhead on e.  On
    a mode frequency that pole is deflated into the mode's.
    """
    parts = []
    d, wd, d_h = delta, w, h22
    n = int(np.searchsorted(delta, h22))
    near = [j for j in (n - 1, n) if 0 <= j < delta.size
            and abs(delta[j] - h22) <= 4.0 * EPS * abs(h22)]
    if near:
        # mode j absorbs the pole; (h12 mode_j - 2 g_j f)/r stays at delta_j
        j = near[0]
        d_h, wd = delta[j], w.copy()
        wd[j] += 0.25 * h12 * h12
        r = np.sqrt(4.0 * w[j] + h12 * h12)
        parts.append((delta[j:j + 1], np.zeros(1), -(2.0 * g[j] / r) * f[None, :], 0))
    else:
        d, wd = np.insert(delta, n, h22), np.insert(w, n, 0.25 * h12 * h12)
    parts.append(_arrowhead(
        d, wd, h22, 4.0, lambda base, tau: e + np.multiply.outer(h12 / ((base - d_h) + tau), f),
        _far_field(d, wd)))
    return _Spectrum.join(parts, np.eye(2))


def _branch(delta, w, h22, h, c, s, dp, dm, sign, far: _FarField):
    """Roots of sigma(z) = mu(z) on one branch of the pencil
    det(z - h_u - mu Mc) = 0 (``sign`` +1: the larger mu; both branches
    increase with z).

    On e+- = (1, +-1)/sqrt2, Mc = diag(dp, dm) and z - h_u = m I + h X
    with m = z - h22.  For the iteration the symmetric 2x2
    D^-1/2 (z - h_u) D^-1/2 is diagonalised by one Jacobi rotation, whose
    inputs P - R = -m cos eta / sin^2 eta and Q = h / (2 |sin eta|) are
    free of cancellation.  The atomic parts come from the null vector of
    z - h_u - sigma D at the root, whose diagonal is rebuilt from the
    determinant condition instead of from the cancelling differences:
    sigma is smooth where a branch is steep (slope up to 1/sin^2 eta), and
    near-degenerate branches (small h and cos eta) stay resolved.
    """
    q = h / (2.0 * abs(s))

    def pencil(z):
        m = z - h22
        zeta = m * c / (s * s) / (2.0 * q)     # (R - P) / 2Q
        t = np.where(zeta >= 0.0, 1.0, -1.0) / (np.abs(zeta) + np.hypot(1.0, zeta))
        l1, l2 = m / dp - t * q, m / dm + t * q    # on (1, -t) and (t, 1), scaled by D^-1/2
        first = (l1 >= l2) == (sign > 0)
        v1, v2 = np.where(first, 1.0, t), np.where(first, -t, 1.0)
        mu_p = (v1 * v1 / dp + v2 * v2 / dm) / (v1 * v1 + v2 * v2)
        return np.where(first, l1, l2), mu_p

    origin, tau, sigma, s2, rows = _secular_roots(delta, w, pencil, far)
    base = delta[origin]
    # z - h_u - sigma D = [[X, h], [h, Y]] at the root: Y - X = 4 sigma cos eta
    # and X Y = h^2, so X is a root of X^2 + 2 p X - h^2 (p = 2 sigma cos eta),
    # the one nearer the directly computed (cancelling) m - sigma dp
    p = 2.0 * sigma * c
    x1 = -p - np.copysign(np.hypot(p, h), p)
    x2 = -h * h / x1
    direct = ((base - h22) + tau) - sigma * dp
    first = np.abs(direct - x1) <= np.abs(direct - x2)
    X, Y = np.where(first, x1, x2), -np.where(first, x2, x1)
    y1 = np.where(np.abs(X) >= np.abs(Y), h, Y)
    y2 = np.where(np.abs(X) >= np.abs(Y), -X, -h)
    mu_p = (y1 * y1 + y2 * y2) / (dp * y1 * y1 + dm * y2 * y2)    # |x|^2 / x^T Mc x
    x = np.stack([y1 + y2, y1 - y2], axis=1)
    x /= np.hypot(x[:, 0], x[:, 1])[:, None]
    return base, tau, x * np.sqrt(mu_p / (mu_p + s2))[:, None], rows


def _symmetric_spectrum(config, bath: DiscreteBath, u0) -> _Spectrum:
    """Eigenpairs of the exchange-symmetric sector that u0 populates.

    In u = (A1 + A3, A2 + A4)/sqrt2 the sector is h_u = diag(gamma1,
    gamma2 - omega12) coupled to the modes through Mc = 2 [[1, cos eta],
    [cos eta, 1]], so its eigenvalues solve det(z - h_u - sigma(z) Mc) = 0
    with sigma(z) = sum_n g_n^2 / (z - delta_n).  Where h_u and Mc share
    eigenvectors (orthogonal dipoles, or h12 = (gamma1 - h2)/2 = 0) the
    sector splits into two arrowheads, of which one that u0 does not
    populate is not solved; parallel dipoles give one arrowhead with an
    extra pole, any other angle two pencil branches.
    """
    delta = bath.nu - config.omega1c
    w = bath.g ** 2
    g1, h2 = config.gamma1, config.gamma2 - config.omega12
    h22, h12 = 0.5 * (g1 + h2), 0.5 * (g1 - h2)
    c, s = config.cos_eta, config.sin_eta
    if not np.any(u0):
        return _Spectrum.join([], np.zeros((2, 2)))
    if c == 0.0:
        return _split(delta, w, (g1, h2), (2.0, 2.0), np.eye(2), u0)
    if abs(s) <= SIN_ETA_FLOOR:
        # Mc = 4 e e^T with e = (1, +-1)/sqrt2, and f = (1, -+1)/sqrt2 sees no modes
        e, f = np.array([[1.0, np.sign(c)], [1.0, -np.sign(c)]]) / np.sqrt(2.0)
        if _negligible(h12, h22, w):
            return _split(delta, w, (h22, h22), (4.0, 0.0), (e, f), u0)
        return _parallel(delta, w, bath.g, h22, h12, e, f)
    # Mc = diag(dp, dm) on e+- = (1, +-1)/sqrt2; 1 -+ cos eta from sin^2 eta where it cancels
    dp = 2.0 * (1.0 + c) if c >= 0.0 else 2.0 * s * s / (1.0 - c)
    dm = 2.0 * (1.0 - c) if c <= 0.0 else 2.0 * s * s / (1.0 + c)
    if _negligible(h12, h22, w):
        return _split(delta, w, (h22, h22), (dp, dm),
                      np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), u0)
    far = _far_field(delta, w)
    return _Spectrum.join([_branch(delta, w, h22, -h12, c, s, dp, dm, sign, far)
                           for sign in (1.0, -1.0)], np.eye(2))


def _time_sum(lam, x, n_times, dt):
    """u(t) = sum_k x_k e^{-i lam_k t} at t = 0, dt, ..., (n_times - 1) dt for
    each column of ``x`` (roots x columns).

    The grid is blocked as t = (q B + r) dt with B ~ sqrt(n_times), so
    e^{-i lam t} = e^{-i lam q B dt} e^{-i lam r dt}.  The two factors are
    powers of e^{-i lam B dt} and e^{-i lam dt}, taken as running products
    (``np.cumprod``) from two exponentials per root, and the sum over roots
    becomes one complex matrix product per chunk of roots: (Q x roots) by
    (roots x B columns).  The products round like the phases lam t
    themselves: against exp(-i t lam) @ x for 1,000 roots over the dense
    window, 4e-14 of sum_k |x_k| at 503 points and 9e-13 at 8,401.  The
    chunks' work arrays hold 16 BLOCK complex entries (0.5 MB): 360 roots
    a chunk at 503 points and two columns, 89 at 8,401.
    """
    block = int(np.ceil(np.sqrt(n_times)))
    rows = -(-n_times // block)
    cols = x.shape[1]
    out = np.zeros((rows, block * cols), dtype=complex)
    step = max(1, 16 * BLOCK // (rows + block * (cols + 1)))
    for a in range(0, lam.size, step):
        z = lam[a:a + step]
        inner = np.ones((z.size, block), dtype=complex)
        inner[:, 1:] = np.exp(-1j * (z * dt))[:, None]
        np.cumprod(inner, axis=1, out=inner)
        outer = np.ones((rows, z.size), dtype=complex)
        outer[1:] = np.exp(-1j * (z * (block * dt)))
        np.cumprod(outer, axis=0, out=outer)
        out += outer @ (inner[:, :, None] * x[a:a + step, None, :]).reshape(z.size, -1)
    return out.reshape(rows * block, cols)[:n_times]


def integrate(config, init, bath: DiscreteBath, t_max: float,
              dt_out: float) -> AmplitudeTrajectory:
    """Exact unitary propagation of the amplitude equations against the bath.

    Basis: [A1, A2 e^{i w12 t}, A3, A4 e^{i w12 t}, C_1..C_N, D_1..D_N]
    with C/D the co-rotating mode amplitudes referenced to the first
    transition.  In this frame the generator is a constant real-symmetric
    matrix, which is never formed.  The exchange-antisymmetric
    combinations A1 - A3 and A2 - A4 see no modes and evolve as
    e^{i gamma1 t} and e^{i (omega12 + gamma2) t}.  The symmetric sector's
    eigenvalues are the roots of a scalar secular equation, one per mode
    interval and branch (``_symmetric_spectrum``).  The proxies,
    far-field interpolants and near sources of the poles are built once
    per spectrum and shared by its one or two equations: the proxy weights
    in one upward pass of about 45 barycentric terms per pole, and the far
    sums at each panel's CHEB_DEGREE + 1 points from its far sources,
    about 14 per pole at 51,000 modes and 9 at 4,000, growing as
    log2(N / PANEL).  Every iteration then costs a few hundred near terms
    per root (at most 367 at 4,000 modes, 492 at 51,000) and one far-field
    product per panel.  The atomic amplitudes are sums over those
    eigenpairs at every output time (``_time_sum``, two exponentials per
    root and output points x N multiply-adds).  A part of the sector whose
    initial amplitudes vanish is not solved.

    Samples every ``dt_out``.  Raises RecurrenceHorizonExceeded when
    ``t_max`` exceeds the bath rephasing time, and StepSizeError when the
    atomic parts a_k of the eigenvectors fail to resolve the identity:
    the Frobenius norm of sum_k a_k a_k^T - I (``weight_defect`` in
    ``meta``, with ``n_roots`` and ``horizon``) above WEIGHT_DEFECT_TOL.
    ``secular_passes`` in ``meta`` is the number of roots evaluated over
    the evaluation passes of the secular equations, divided by
    ``n_roots``; it counts evaluation passes only, not the direct sums
    that bracket the two outer roots.
    """
    horizon = bath.recurrence_time()
    if t_max > horizon:
        raise RecurrenceHorizonExceeded(
            f"t_max={t_max:g} exceeds the bath recurrence time {horizon:g}; "
            "increase n_modes or shorten the run"
        )
    times = time_grid(t_max, dt_out)
    a0 = np.asarray(init.as_tuple(), dtype=complex)
    u0 = (a0[:2] + a0[2:]) / np.sqrt(2.0)
    v0 = (a0[:2] - a0[2:]) / np.sqrt(2.0)

    sp = _symmetric_spectrum(config, bath, u0)
    weight_defect = float(np.linalg.norm(sp.atom.T @ sp.atom - sp.proj))
    if not weight_defect <= WEIGHT_DEFECT_TOL:
        raise StepSizeError(f"secular spectrum misses unit atomic weight by {weight_defect:.3g}")

    g1, g2, w12 = config.gamma1, config.gamma2, config.omega12
    coef = sp.atom @ u0
    u = _time_sum(sp.base + sp.tau, coef[:, None] * sp.atom, times.size, dt_out)
    v = v0 * np.exp(1j * np.outer(times, [g1, w12 + g2]))

    shift = np.exp(-1j * w12 * times)
    amps = np.empty((times.size, 4), dtype=complex)
    amps[:, :2] = (u + v) / np.sqrt(2.0)
    amps[:, 2:] = (u - v) / np.sqrt(2.0)
    amps[:, 1] *= shift
    amps[:, 3] *= shift
    n_roots = int(sp.tau.size)
    meta = {"engine": "oracle", "horizon": horizon, "weight_defect": weight_defect,
            "n_roots": n_roots, "secular_passes": sp.rows / max(n_roots, 1)}
    return AmplitudeTrajectory(times=times, amps=amps, meta=meta)

import logging
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pbgpair import bath, pipeline
from pbgpair.config import InitialState, RunSpec, SystemConfig, preset_initial
from pbgpair.errors import (
    DiscretizationError,
    DomainError,
    RecurrenceHorizonExceeded,
    StepSizeError,
)
from pbgpair.presets import get_preset
from reference_routes import (beta_prime, evaluate_direct, integrate_dense, integrate_rk4,
                              mode_probs, mode_spectrum)

PI = math.pi
FIG2B = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.2, eta=PI)


def test_build_bath_resolvent_reproduction():
    b = bath.build_bath(FIG2B, n_modes=4000)
    xs = np.array([1.0 + 0j, 0.5 + 0j, 2.0 + 0j, 1.0 + 1.0j])
    target = beta_prime(xs, FIG2B.omega1c)
    err = np.max(np.abs(b.resolvent(xs, FIG2B.omega1c) - target))
    assert err <= 1e-3


def test_build_bath_without_tail_misses_kernel():
    # the dense window of build_bath alone, cut off at DENSE_WINDOW beta
    n = 4000
    du = np.sqrt(bath.DENSE_WINDOW) / n
    untailed = bath.DiscreteBath(nu=((np.arange(n) + 0.5) * du) ** 2,
                                 g=np.full(n, np.sqrt(2.0 / np.pi * du)), n_main=n)
    xs = np.array([0.5, 1.0, 2.0, 0.5 + 1j, 1.0 - 0.7j])
    err = np.max(np.abs(untailed.resolvent(xs, FIG2B.omega1c)
                        - beta_prime(xs, FIG2B.omega1c)))
    assert err > bath.RESOLVENT_TOL


def test_build_bath_raises_when_resolvent_misses(monkeypatch):
    monkeypatch.setattr(bath, "RESOLVENT_TOL", 1e-12)
    with pytest.raises(DiscretizationError, match="misses the kernel"):
        bath.build_bath(FIG2B, n_modes=100)


def test_build_bath_refinement_does_not_worsen():
    # the dense-grid error saturates against the fixed tail quadrature at
    # the few-1e-5 level; refinement must never degrade the reproduction
    errs = []
    for n in (1000, 2000):
        b = bath.build_bath(FIG2B, n_modes=n)
        x = np.array([1.0 + 0j])
        errs.append(abs(b.resolvent(x, FIG2B.omega1c)[0] - beta_prime(1.0, FIG2B.omega1c)))
    assert errs[1] <= errs[0] + 1e-6
    assert errs[0] < 2e-4


def test_build_bath_domain_checks():
    with pytest.raises(DomainError):
        bath.build_bath(FIG2B, n_modes=50)


def test_near_free_limit_rabi_oscillation():
    # exchange 1/s times the band-edge coupling, times of order s: pure
    # exchange Rabi flopping
    s = 1e-4
    config = SystemConfig(gamma1=1.5 / s, gamma2=1.5 / s, omega12=0.4,
                          omega1c=0.6, omega2c=0.2, eta=PI)
    init = InitialState(1, 0, 0, 0)
    b = bath.build_bath(config, n_modes=400)
    tr = bath.integrate(config, init, b, t_max=10.0 * s, dt_out=0.5 * s)
    ref1 = np.cos(config.gamma1 * tr.times)
    ref3 = -1j * np.sin(config.gamma1 * tr.times)
    assert np.max(np.abs(tr.amps[:, 0] - ref1)) < 2e-3
    assert np.max(np.abs(tr.amps[:, 2] - ref3)) < 2e-3
    assert np.max(tr.field_prob) < 1e-3


def test_orthogonal_dipoles_exact_null():
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI / 2)
    init = InitialState(1, 0, 0, 0)
    b = bath.build_bath(config, n_modes=600)
    tr = bath.integrate(config, init, b, t_max=20.0, dt_out=1.0)
    assert np.max(np.abs(tr.amps[:, [1, 3]])) == 0.0


def test_norm_conservation_default_path():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=800)
    tr = bath.integrate(FIG2B, init, b, t_max=30.0, dt_out=0.5)
    probs = mode_probs(FIG2B, init, b, tr.times)
    norms = np.sum(np.abs(tr.amps) ** 2, axis=1) + probs.sum(axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_rk4_agrees_with_unitary_path():
    init = preset_initial("bright")
    config = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI)
    b = bath.build_bath(config, n_modes=600)
    te = bath.integrate(config, init, b, t_max=4.0, dt_out=0.5)
    tr = integrate_rk4(config, init, b, t_max=4.0, dt=2e-4, dt_out=0.5)
    assert np.max(np.abs(te.amps - tr.amps)) < 1e-5


def test_rk4_step_size_guard():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=300)
    with pytest.raises(StepSizeError):
        integrate_rk4(FIG2B, init, b, t_max=4.0, dt=0.1, dt_out=2.0)


def test_recurrence_horizon_guard():
    b = bath.build_bath(FIG2B, n_modes=150)
    with pytest.raises(RecurrenceHorizonExceeded):
        bath.integrate(FIG2B, preset_initial("unentangled"), b, t_max=1e5, dt_out=0.5)


def test_bath_size_convergence():
    init = preset_initial("unentangled")
    runs = []
    for n in (1000, 2000):
        b = bath.build_bath(FIG2B, n_modes=n)
        runs.append(bath.integrate(FIG2B, init, b, t_max=20.0, dt_out=0.5).amps)
    assert np.max(np.abs(runs[0] - runs[1])) < 1e-3


def test_mode_spectrum_probabilities():
    init = preset_initial("unentangled")
    b = bath.build_bath(FIG2B, n_modes=800)
    tr = bath.integrate(FIG2B, init, b, t_max=10.0, dt_out=1.0)
    probs = mode_probs(FIG2B, init, b, tr.times)
    nu, p0 = mode_spectrum(probs, tr.times, b, 0.0)
    assert np.max(p0) < 1e-20
    nu, p = mode_spectrum(probs, tr.times, b, 10.0)
    assert p.sum() == pytest.approx(tr.field_prob[-1], abs=1e-6)
    with pytest.raises(DomainError):
        mode_spectrum(probs, tr.times, b, 0.37)


def test_deep_gap_spectrum_line_positions():
    # strong exchange pushes the symmetric level into the band: the photon
    # leaves in a line at nu = omega1c + gamma, not at the edge
    config = SystemConfig(gamma1=5, gamma2=5, omega12=1.0, omega1c=-1.6,
                          omega2c=-2.6, eta=PI / 2)
    init = preset_initial("bright")
    b = bath.build_bath(config, n_modes=1200)
    tr = bath.integrate(config, init, b, t_max=40.0, dt_out=2.0)
    nu, p = mode_spectrum(mode_probs(config, init, b, tr.times), tr.times, b, 40.0)
    total = p.sum()
    line = config.omega1c + config.gamma1
    assert p[np.abs(nu - line) < 1.6].sum() > 0.55 * total
    assert p[nu < 1.0].sum() < 0.25 * total

    # weak exchange keeps the shifted level inside the gap: the leaked
    # radiation is edge-weighted instead
    config2 = SystemConfig(gamma1=1.0, gamma2=1.0, omega12=1.0, omega1c=-1.6,
                           omega2c=-2.6, eta=PI / 2)
    b2 = bath.build_bath(config2, n_modes=1200)
    tr2 = bath.integrate(config2, init, b2, t_max=40.0, dt_out=2.0)
    nu2, p2 = mode_spectrum(mode_probs(config2, init, b2, tr2.times), tr2.times, b2, 40.0)
    assert p2[nu2 < 1.0].sum() > 0.4 * p2.sum()


def _h22_on_a_mode():
    """Anti-parallel config whose uncoupled level (gamma1 + gamma2 - omega12)/2
    equals a mode frequency delta_j of the 300-mode bath exactly."""
    b = bath.build_bath(FIG2B, n_modes=300)
    delta = b.nu - FIG2B.omega1c
    for j in np.flatnonzero(delta > 0.5):
        g2 = 2.0 * delta[j] + 0.4 - 1.0
        for k in range(-4, 5):
            g2k = g2 + k * np.spacing(g2)
            if 0.5 * (1.0 + (g2k - 0.4)) == delta[j]:
                return SystemConfig(gamma1=1.0, gamma2=g2k, omega12=0.4, omega1c=0.6,
                                    omega2c=0.2, eta=PI)
    raise AssertionError("no mode frequency is reachable exactly")


SECULAR_CASES = {
    "orthogonal": (SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=-0.6,
                                omega2c=-1.0, eta=PI / 2), InitialState(1, 0, 0, 0)),
    "anti-parallel": (FIG2B, preset_initial("unentangled")),
    "parallel": (SystemConfig(gamma1=3, gamma2=5, omega12=0.4, omega1c=-0.6,
                              omega2c=-1.0, eta=0.0), preset_initial("bright")),
    "h12=0": (SystemConfig(gamma1=5.6, gamma2=6, omega12=0.4, omega1c=0.6,
                           omega2c=0.2, eta=PI), preset_initial("unentangled")),
    "h22 on a mode": (_h22_on_a_mode(), InitialState(0.6, 0.8, 0, 0)),
    "eta=60": (SystemConfig(gamma1=3, gamma2=5, omega12=0.4, omega1c=-0.6,
                            omega2c=-1.0, eta=PI / 3), preset_initial("bright")),
    "eta=120": (SystemConfig(gamma1=3, gamma2=5, omega12=0.4, omega1c=-0.6,
                             omega2c=-1.0, eta=2 * PI / 3), preset_initial("unentangled")),
}


@pytest.mark.parametrize("name", SECULAR_CASES)
def test_secular_spectrum_matches_dense(name):
    config, init = SECULAR_CASES[name]
    b = bath.build_bath(config, n_modes=300)
    tr = bath.integrate(config, init, b, t_max=15.0, dt_out=0.5)
    ref = integrate_dense(config, init, b, t_max=15.0, dt_out=0.5, store_modes=True)
    assert np.max(np.abs(tr.amps - ref.amps)) <= 1e-5
    probs = mode_probs(config, init, b, tr.times)
    assert np.max(np.abs(probs - ref.meta["mode_probs"])) <= 1e-6
    assert tr.meta["weight_defect"] <= 1e-12
    if name == "orthogonal":
        # the unpopulated (A2, A4) arrowhead is skipped and stays exactly zero
        assert tr.meta["n_roots"] == b.n_modes + 1
        assert np.max(np.abs(tr.amps[:, [1, 3]])) == 0.0
    if name == "h22 on a mode":
        assert len(bath._symmetric_spectrum(config, b, np.ones(2)).pinned) == 1


@pytest.mark.parametrize("name", ["anti-parallel", "eta=120", "orthogonal"])
def test_secular_roots_decimal_residual(name):
    # Newton corrections of det(z - h_u - sigma(z) Mc) at 40 digits for the
    # five eigenvalues of largest atomic weight
    config, _ = SECULAR_CASES[name]
    b = bath.build_bath(config, n_modes=300)
    sp = bath._symmetric_spectrum(config, b, np.ones(2))
    with localcontext() as ctx:
        ctx.prec = 40
        delta = [Decimal(x) for x in b.nu - config.omega1c]
        w = [Decimal(x) ** 2 for x in b.g]
        c = Decimal(config.cos_eta)
        h1, h2 = Decimal(config.gamma1), Decimal(config.gamma2 - config.omega12)
        for k in np.argsort(np.sum(sp.atom ** 2, axis=1))[-5:]:
            lam = Decimal(sp.base[k]) + Decimal(sp.tau[k])
            sig = sum(wj / (lam - dj) for wj, dj in zip(w, delta))
            dsig = -sum(wj / (lam - dj) ** 2 for wj, dj in zip(w, delta))
            a1, a2 = lam - h1 - 2 * sig, lam - h2 - 2 * sig
            det = a1 * a2 - 4 * c * c * sig * sig
            ddet = (1 - 2 * dsig) * (a1 + a2) - 8 * c * c * sig * dsig
            assert abs(det / ddet) <= Decimal("1e-15") * max(1, abs(lam))


@st.composite
def oracle_cases(draw):
    """Random configurations, with draws forced onto eta at and next to
    {0, pi/2, pi}, gamma1 = gamma2 - omega12 up to a tiny offset
    (near-degenerate pencil branches), and a random normalised state."""
    gamma1 = draw(st.floats(0.0, 10.0))
    w12 = draw(st.floats(-1.0, 1.0))
    offset = draw(st.sampled_from([0.0, 1e-16, -1e-12, 1e-8]))
    gamma2 = gamma1 + w12 + offset if draw(st.booleans()) and gamma1 + w12 + offset >= 0 \
        else draw(st.floats(0.0, 10.0))
    w1c = draw(st.floats(-2.0, 1.5))
    eta = draw(st.one_of(st.sampled_from([0.0, PI / 2, PI, 3e-8, PI / 2 - 2e-11, PI - 1e-6]),
                         st.floats(0.0, PI)))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    v = parts[:4] + 1j * parts[4:]
    if np.linalg.norm(v) < 0.1:
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    config = SystemConfig(gamma1=gamma1, gamma2=gamma2, omega12=w12, omega1c=w1c,
                          omega2c=w1c - w12, eta=eta)
    return config, InitialState(*(v / np.linalg.norm(v)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(oracle_cases())
def test_weight_defect_property(case):
    config, init = case
    b = bath.build_bath(config, n_modes=100)
    tr = bath.integrate(config, init, b, t_max=1.0, dt_out=0.5)
    assert tr.meta["weight_defect"] <= 1e-8
    assert np.max(np.abs(tr.field_prob)) <= 1.0 + 1e-12


def test_lost_root_fails_completeness(monkeypatch):
    # a root dropped from an arrowhead leaves its atomic weight unresolved
    arrowhead = bath._arrowhead

    def drop_heaviest(*args):
        base, tau, atom = arrowhead(*args)
        keep = np.arange(tau.size) != np.argmax(np.sum(atom ** 2, axis=1))
        return base[keep], tau[keep], atom[keep]

    monkeypatch.setattr(bath, "_arrowhead", drop_heaviest)
    b = bath.build_bath(FIG2B, n_modes=150)
    with pytest.raises(StepSizeError, match="atomic weight"):
        bath.integrate(FIG2B, preset_initial("unentangled"), b, t_max=5.0, dt_out=0.5)


def test_mode_spectrum_matches_dense():
    config, init = SECULAR_CASES["eta=120"]
    b = bath.build_bath(config, n_modes=800)
    tr = bath.integrate(config, init, b, t_max=20.0, dt_out=1.0)
    probs = mode_probs(config, init, b, tr.times)
    ref = integrate_dense(config, init, b, t_max=20.0, dt_out=1.0, store_modes=True)
    for t in (5.0, 20.0):
        nu, p = mode_spectrum(probs, tr.times, b, t)
        nu_ref, p_ref = mode_spectrum(ref.meta["mode_probs"], ref.times, b, t)
        assert np.array_equal(nu, nu_ref)
        assert np.max(np.abs(p - p_ref)) <= 1e-6


def test_oracle_reports_spectral_completeness(caplog):
    with caplog.at_level(logging.INFO, logger="pbgpair"):
        _, tr, _ = pipeline.run_spec(RunSpec(FIG2B, preset_initial("unentangled"), 5.0,
                                             0.5, engine="oracle", n_modes=150))
    assert tr.meta["n_roots"] == bath.block_dim(FIG2B, 150) - 2
    assert 0.0 <= tr.meta["weight_defect"] <= 1e-8
    assert any("secular roots" in r.getMessage() and "weight defect" in r.getMessage()
               for r in caplog.records)


def bath_poles(w1c, n_modes):
    """Poles and weights of the secular sums of a bath grid."""
    config = SystemConfig(gamma1=1.0, gamma2=1.0, omega12=0.4, omega1c=w1c,
                          omega2c=w1c - 0.4, eta=PI)
    b = bath.build_bath(config, n_modes=n_modes)
    return b.nu - w1c, b.g ** 2


@st.composite
def pole_sets(draw):
    """Ascending distinct poles with positive weights: a uniform-in-u bath
    grid with its geometric tail, a set below one panel (all near field),
    a grid with the extra h22 pole of ``_parallel``, or clusters at
    spacing 1e-10 among scattered poles."""
    kind = draw(st.sampled_from(["bath", "one panel", "h22", "clusters"]))
    if kind in ("bath", "h22"):
        d, w = bath_poles(draw(st.floats(-2.0, 1.5)), draw(st.integers(100, 700)))
        if kind == "h22":
            k = draw(st.integers(0, d.size - 2))
            h22 = d[k] + draw(st.floats(0.01, 0.99)) * (d[k + 1] - d[k])
            d = np.insert(d, k + 1, h22)
            w = np.insert(w, k + 1, 0.25 * draw(st.floats(1e-6, 10.0)) ** 2)
        return d, w
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "one panel":
        d = np.unique(rng.uniform(-5.0, 5.0, draw(st.integers(1, bath.PANEL - 1))))
    else:
        parts = [rng.uniform(-10.0, 10.0, draw(st.integers(50, 400)))]
        for _ in range(draw(st.integers(1, 4))):
            parts.append(rng.uniform(-10.0, 10.0) + 1e-10 * np.arange(draw(st.integers(2, 150))))
        d = np.unique(np.concatenate(parts))
    return d, rng.uniform(1e-4, 1.0, d.size) * 10.0 ** rng.integers(-6, 2, d.size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pole_sets(), st.floats(-3.0, 3.0), st.floats(0.1, 8.0))
# 191 panels: far groups from every level of an eight-level tree
@example(bath_poles(0.6, 12000), 0.7, 2.0)
def test_far_field_matches_direct_sums(poles, h, kappa):
    # F, F', s2lo and sigma at points across every pole interval (as offsets
    # from the nearer pole, beside the pole too) and past the outer poles
    d, w = poles
    n = d.size
    rng = np.random.default_rng(n)
    value = lambda z: ((z - h) / kappa, np.full(np.shape(z), 1.0 / kappa))  # noqa: E731
    # the gaps below and above each pole, 1 past the outer poles
    below, above = np.concatenate([[1.0], np.diff(d)]), np.concatenate([np.diff(d), [1.0]])
    origin = rng.integers(0, n, 400)
    frac = np.concatenate([rng.uniform(-0.5, 0.5, 300), 1e-9 * rng.uniform(-1, 1, 100)])
    tau = frac * np.where(frac < 0, below[origin], above[origin])
    origin = np.concatenate([origin, [0, 0, n - 1, n - 1]])
    tau = np.concatenate([tau, [-1e-3, -7.0, 1e-3, 7.0]])

    F, Fp, s2lo, s2, _, _, sigma = bath._evaluate(d, w, value, origin, tau,
                                                 bath._far_field(d, w))
    _, Fp0, s2lo0, s2_0, _, err0, sigma0 = evaluate_direct(d, w, value, origin, tau)
    # F against the correctly rounded sum of the same offset terms: beside a
    # pole the direct dot products carry more than err of rounding
    terms = w / ((d[None, :] - d[origin, None]) - tau[:, None])
    exact = value(d[origin] + tau)[0] + np.array([math.fsum(row) for row in terms])
    assert np.all(np.abs(F - exact) <= err0)
    assert np.max(np.abs(Fp - Fp0) / Fp0) <= 1e-13
    assert np.max(np.abs(s2 - s2_0) / s2_0) <= 1e-13
    assert np.max(np.abs(s2lo - s2lo0) / np.where(s2lo0 > 0, s2lo0, 1.0)) <= 1e-13
    # sigma sums terms of both signs: relative to sum_j w_j / |d_j - z|
    assert np.max(np.abs(sigma - sigma0) / np.abs(terms).sum(axis=1)) <= 1e-13


def test_proxies_beside_clusters_match_direct_sums():
    # clusters at spacing 1e-10 near |d| = 10 that fill whole panels, among
    # scattered poles: a panel beside a cluster sums the cluster's panels
    # through proxies about 1e-8 away, where positions rounded at |d| = 10
    # would be off by 1e-7 relative
    rng = np.random.default_rng(2024)
    panels = lambda at, k: at + 1e-10 * np.arange(k * bath.PANEL)  # noqa: E731
    d = np.concatenate([panels(-9.9, 2), np.sort(rng.uniform(-9.5, 9.5, 3 * bath.PANEL)),
                        panels(9.6, 4), np.sort(rng.uniform(9.7, 10.5, 3 * bath.PANEL))])
    w = rng.uniform(1e-4, 1.0, d.size) * 10.0 ** rng.integers(-6, 2, d.size)
    h, kappa = 0.3, 2.0
    value = lambda z: ((z - h) / kappa, np.full(np.shape(z), 1.0 / kappa))  # noqa: E731
    far = bath._far_field(d, w)

    # the intervals at the clusters' ends, from beside the lower pole to
    # beside the upper one, as offsets from the nearer pole
    frac = np.array([1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9])
    origin, tau = [], []
    for k in (2 * bath.PANEL, 5 * bath.PANEL, 9 * bath.PANEL):
        gap = d[k] - d[k - 1]
        origin += [k - 1 if f < 0.5 else k for f in frac]
        tau += [gap * f if f < 0.5 else -gap * (1.0 - f) for f in frac]
    origin = np.array(origin)
    tau = np.array(tau)
    # the roots' panels sum cluster panels through proxies: the smallest
    # offset of a group's proxies is 0.002 of its width
    tiny = [np.min(off[off > 0], initial=1.0) < 1e-10
            for off in np.split(far.offset, far.ptr[1:-1])]
    assert sum(tiny[p] for p in set(origin // bath.PANEL)) >= 3

    F, Fp, s2lo, s2, _, _, sigma = bath._evaluate(d, w, value, origin, tau, far)
    _, Fp0, s2lo0, s2_0, _, err0, sigma0 = evaluate_direct(d, w, value, origin, tau)
    terms = w / ((d[None, :] - d[origin, None]) - tau[:, None])
    exact = value(d[origin] + tau)[0] + np.array([math.fsum(row) for row in terms])
    assert np.all(np.abs(F - exact) <= err0)
    assert np.max(np.abs(Fp - Fp0) / Fp0) <= 1e-13
    assert np.max(np.abs(s2lo - s2lo0) / np.where(s2lo0 > 0, s2lo0, 1.0)) <= 1e-13
    assert np.max(np.abs(sigma - sigma0) / np.abs(terms).sum(axis=1)) <= 1e-13


def test_near_field_size():
    # proxies stand in for the dense window below the geometric tail: every
    # panel sums at most 600 near terms, where the window's poles alone
    # number 4,000
    p = get_preset("fig2b")
    b = bath.build_bath(p.config, n_modes=4000)
    far = bath._far_field(b.nu - p.config.omega1c, b.g ** 2)
    assert far.ptr.size == -(-b.n_modes // bath.PANEL) + 1
    assert np.max(np.diff(far.ptr)) <= 600


def test_evaluate_does_not_depend_on_order():
    # the roots of one arrowhead, the two outer roots among them, evaluated
    # all at once, as a random subset and shuffled: each root's outputs
    # agree to rounding, so every row's sums go back to its own root
    config = SECULAR_CASES["orthogonal"][0]
    b = bath.build_bath(config, n_modes=1000)
    d, w = b.nu - config.omega1c, b.g ** 2
    sp = bath._symmetric_spectrum(config, b, np.array([1.0, 0.0]))
    origin, tau = np.searchsorted(d, sp.base), sp.tau
    value = lambda z: ((z - config.gamma1) / 2.0, np.full(np.shape(z), 0.5))  # noqa: E731
    far = bath._far_field(d, w)
    full = bath._evaluate(d, w, value, origin, tau, far)
    # F and sigma sum terms of both signs: relative to |mu| + sum_j w_j / |d_j - z|
    z = d[origin] + tau
    scale = np.abs(full[0] + full[6]) + np.abs(w / (d[None, :] - z[:, None])).sum(axis=1)
    rng = np.random.default_rng(7)
    subset = np.union1d(rng.choice(tau.size, tau.size // 3, replace=False), [0, tau.size - 1])
    for rows in (subset, rng.permutation(tau.size)):
        part = bath._evaluate(d, w, value, origin[rows], tau[rows], far)
        for k, (a, p) in enumerate(zip(full, part)):
            ref = scale[rows] if k in (0, 6) else np.where(a[rows] > 0, a[rows], 1.0)
            assert np.max(np.abs(a[rows] - p) / ref) <= 4.0 * bath.EPS


@pytest.mark.parametrize("config, init", [
    (SECULAR_CASES["eta=120"][0], preset_initial("bright")),
    (SECULAR_CASES["orthogonal"][0], InitialState(0.6, 0.8, 0, 0)),
    (get_preset("fig2b").config, get_preset("fig2b").init),
], ids=["two pencil branches", "two arrowheads", "fig2b"])
def test_spectrum_builds_one_far_field(monkeypatch, config, init):
    # the secular equations of one spectrum share their poles, and so one
    # far field; fig2b's single equation has the extra h22 pole
    far_field, calls = bath._far_field, []
    monkeypatch.setattr(bath, "_far_field", lambda d, w: calls.append(d.size) or far_field(d, w))
    b = bath.build_bath(config, n_modes=300)
    bath.integrate(config, init, b, t_max=5.0, dt_out=0.5)
    assert len(calls) == 1


@pytest.mark.parametrize("cols", [1, 2])
@pytest.mark.parametrize("n_times", [1, 2, 503, 8401])
def test_time_sum_matches_direct_sum(monkeypatch, n_times, cols):
    # several chunks of roots, against exp(-i t lam) @ x; the bound, relative
    # to sum_k |x_k|, grows with the largest phase, whose rounding both
    # routes carry: measured up to 0.4 of it over 30 seeds
    monkeypatch.setattr(bath, "CHUNK_ELEMS", 1 << 12)
    rng = np.random.default_rng(n_times)
    lam = rng.uniform(-1.0, bath.DENSE_WINDOW, 300)
    x = rng.normal(size=(300, cols)) + 1j * rng.normal(size=(300, cols))
    t = np.arange(n_times) * 0.5
    got = bath._time_sum(lam, x, n_times, 0.5)
    ref = np.concatenate([np.exp(-1j * np.outer(part, lam)) @ x
                          for part in np.array_split(t, 8) if part.size])
    bound = 1e-15 + bath.EPS * np.max(np.abs(lam)) * t[-1] / 10.0
    assert np.all(np.abs(got - ref) <= bound * np.abs(x).sum(axis=0))


@pytest.mark.parametrize("n_modes", [4000, 12000])
def test_integrate_memory_peak(n_modes):
    # the time sum's work arrays are bounded by CHUNK_ELEMS entries, a
    # pass's by a panel's rows x its near sources and its barycentric terms
    # by 8,192 rows x (CHEB_DEGREE + 1), and the far-field build's by a panel's
    # far sources (CHEB_DEGREE + 1 rows by at most 1,061 columns at 99,790
    # modes); a (points x roots) phase array or a (roots x poles) evaluation
    # would take 295 MB and 1.2 GB at 12,000 modes
    p = get_preset("fig2b")
    b = bath.build_bath(p.config, n_modes=n_modes)
    t_max = p.dt_out * math.floor(min(p.t_max, b.recurrence_time()) / p.dt_out)
    tracemalloc.start()
    try:
        bath.integrate(p.config, p.init, b, t_max=t_max, dt_out=p.dt_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_evaluation_pass_memory_peak():
    # the first pass of fig2c's equation at 51,000 modes, over all 51,207
    # interior roots: its barycentric terms come in blocks of 8,192 rows, so
    # it holds the pass's per-root arrays (about 9 MB) and no
    # (roots x CHEB_DEGREE + 1) table, which took it to 18.9 MB (a whole
    # traced integrate there takes about 6 s, too slow for Tier-1)
    p = get_preset("fig2c")
    b = bath.build_bath(p.config, n_modes=51000)
    d, w = b.nu - p.config.omega1c, b.g ** 2
    far = bath._far_field(d, w)
    tracemalloc.start()
    try:
        bath._evaluate(d, w, lambda z: (z, np.ones(z.shape)), np.arange(d.size - 1),
                       0.5 * np.diff(d), far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6

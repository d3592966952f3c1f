import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbgpair import inversion, negativity as neg
from pbgpair.config import AmplitudeTrajectory, SystemConfig, preset_initial, time_grid
from pbgpair.errors import NormError
from reference_routes import (log_negativity, oscillation_envelope, partial_transpose_B,
                              reduced_density_matrix)

FIG2B = SystemConfig(gamma1=6, gamma2=6, omega12=0.4, omega1c=0.6,
                     omega2c=0.2, eta=math.pi)

BRIGHT = (1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0)


def test_bright_state_is_rank_one_projector():
    rho = reduced_density_matrix(BRIGHT)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    eig = np.linalg.eigvalsh(rho)
    assert eig[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(eig[:-1] < 1e-12)


def test_fully_decayed_state():
    rho = reduced_density_matrix((0, 0, 0, 0))
    expected = np.zeros((9, 9))
    expected[8, 8] = 1.0
    assert np.allclose(rho, expected, atol=1e-15)


def test_partial_population_matrix_elements():
    a1, a3 = math.sqrt(0.35), math.sqrt(0.15)
    rho = reduced_density_matrix((a1, 0, a3, 0))
    assert rho[2, 2] == pytest.approx(0.35, abs=1e-14)
    assert rho[6, 6] == pytest.approx(0.15, abs=1e-14)
    assert rho[8, 8] == pytest.approx(0.5, abs=1e-14)
    assert rho[2, 6] == pytest.approx(math.sqrt(0.35 * 0.15), abs=1e-14)


def test_partial_trace_against_toy_field():
    # explicit two-mode field: atoms (9) x field {vac, 1_a, 1_b} (3);
    # tracing the field must reproduce the reduced-matrix construction,
    # including the exact vanishing of cross-sector coherences.
    rng = np.random.default_rng(4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    norm = math.sqrt(np.sum(np.abs(amps) ** 2) + np.sum(np.abs(b) ** 2))
    amps, b = amps / norm, b / norm
    psi = np.zeros((9, 3), dtype=complex)
    for val, idx in zip(amps, (2, 5, 6, 7)):
        psi[idx, 0] = val
    psi[8, 1], psi[8, 2] = b
    full = np.einsum("af,bg->afbg", psi, psi.conj())
    traced = np.einsum("afbf->ab", full)
    direct = reduced_density_matrix(tuple(amps))
    assert np.max(np.abs(traced - direct)) < 1e-14


def test_norm_error_raised():
    with pytest.raises(NormError):
        reduced_density_matrix((1.0, 0.2, 0, 0))
    with pytest.raises(NormError, match="t=1"):
        neg.entanglement_series(_traj([0.0, 1.0], [(1, 0, 0, 0), (1.0, 0.2, 0, 0)]))


def test_partial_transpose_properties():
    diag = np.diag(np.linspace(0.0, 0.3, 9))
    assert np.array_equal(partial_transpose_B(diag), diag)
    rng = np.random.default_rng(8)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    pt = partial_transpose_B(rho)
    assert np.max(np.abs(partial_transpose_B(pt) - rho)) == 0.0
    assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_bright_pt_eigenvalue_minus_half():
    rho = reduced_density_matrix(BRIGHT)
    lam = np.linalg.eigvalsh(partial_transpose_B(rho))
    assert lam[0] == pytest.approx(-0.5, abs=1e-12)


def test_log_negativity_reference_states():
    n, en = log_negativity(reduced_density_matrix(BRIGHT))
    assert n == pytest.approx(0.5, abs=1e-12)
    assert en == pytest.approx(1.0, abs=1e-12)
    n, en = log_negativity(reduced_density_matrix((1, 0, 0, 0)))
    assert n == 0.0 and en == 0.0
    # half Bell, half double-ground: closed-form 2x2 block eigenvalue
    amps = tuple(a / math.sqrt(2) for a in BRIGHT)
    rho = reduced_density_matrix(amps)
    n, en = log_negativity(rho)
    expected_n = (math.sqrt(0.5) - 0.5) / 2
    assert n == pytest.approx(expected_n, abs=1e-12)
    assert en == pytest.approx(math.log2(1 + 2 * expected_n), abs=1e-12)
    assert en == pytest.approx(0.2716, abs=5e-4)


def test_local_phase_invariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v *= rng.uniform(0.2, 1.0) / np.linalg.norm(v)
        t = rng.uniform(0, 50)
        bare = log_negativity(reduced_density_matrix(v))[1]
        phased = log_negativity(
            reduced_density_matrix(v, t=t, config=FIG2B))[1]
        assert abs(bare - phased) < 1e-10


def test_separable_diagonal_mixtures_have_zero_negativity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.random(5)
        w /= w.sum()
        rho = np.zeros((9, 9))
        for weight, idx in zip(w, (2, 5, 6, 7, 8)):
            rho[idx, idx] = weight
        n, en = log_negativity(rho)
        assert n == 0.0 and en == 0.0


def test_negativity_bounds():
    rng = np.random.default_rng(31)
    bound = math.log2(3.0)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v *= rng.uniform(0, 1.0) / np.linalg.norm(v)
        n, en = log_negativity(reduced_density_matrix(v))
        assert n >= 0.0
        assert en <= bound


def test_eigensolver_cross_check():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = 0.5 * (m + m.conj().T)
        lam, vec = np.linalg.eigh(h)
        assert abs(lam.sum() - np.trace(h).real) < 1e-10 * max(1, abs(np.trace(h)))
        res = h @ vec - vec * lam
        assert np.max(np.abs(res)) < 1e-10


def _traj(times, amps):
    return AmplitudeTrajectory(times=np.asarray(times, float),
                               amps=np.asarray(amps, dtype=complex))


def test_series_initial_values():
    cfg = FIG2B
    init = preset_initial("unentangled")
    traj = inversion.amplitudes_analytic(time_grid(5.0, 0.5), cfg, init)
    s = neg.entanglement_series(traj)
    assert s.log_negativity[0] == 0.0
    assert s.log_negativity[1] > 0.0  # entangled as soon as t > 0
    bright = preset_initial("bright")
    traj_b = inversion.amplitudes_analytic(time_grid(2.0, 0.5), cfg, bright)
    sb = neg.entanglement_series(traj_b)
    assert sb.log_negativity[0] == pytest.approx(1.0, abs=1e-9)


def test_series_matches_pointwise_measure():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    amps *= (rng.uniform(0.2, 1.0, size=(6, 1)) /
             np.linalg.norm(amps, axis=1, keepdims=True))
    traj = _traj(np.arange(6.0), amps)
    series = neg.entanglement_series(traj)
    times, n_vals, en = series.times, series.negativity, series.log_negativity
    for k in range(6):
        rho = reduced_density_matrix(amps[k], t=times[k], config=FIG2B)
        n_ref, en_ref = log_negativity(rho)
        assert n_vals[k] == pytest.approx(n_ref, abs=1e-12)
        assert en[k] == pytest.approx(en_ref, abs=1e-12)


def test_weak_exchange_oscillations_decay_by_t100():
    # unentangled start, gamma = 1.5: the leaky transient dies on a ~30/beta
    # scale, so the E_N swing at t~100 is far below the early swing (the
    # persistent plateau itself does not decay)
    from pbgpair.presets import get_preset

    p = get_preset("fig2a")
    traj = inversion.amplitudes_analytic(time_grid(120.0, 0.25), p.config, p.init)
    s = neg.entanglement_series(traj)
    early = oscillation_envelope(s.times, s.log_negativity, 10.0, 8.0)
    late = oscillation_envelope(s.times, s.log_negativity, 100.0, 8.0)
    assert late < 0.4 * early


def test_half_life_and_window_metrics():
    times = np.arange(0.0, 10.5, 0.5)
    en = np.exp(-times)
    assert neg.half_life(times, en) == pytest.approx(1.0, abs=0.51)
    assert neg.half_life(times, np.ones_like(times)) == math.inf
    assert neg.half_life(times, np.zeros_like(times)) == math.inf
    val = neg.integrated_en(times, np.ones_like(times), 5.0)
    assert val == pytest.approx(5.0, abs=1e-12)
    env = oscillation_envelope(times, np.sin(times), 5.0, 4.0)
    assert env == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        oscillation_envelope(times, en, 100.0, 1.0)


@st.composite
def sub_normalised_states(draw):
    """Amplitudes with total probability in [0, 1], with draws forced onto
    X = 0, Y = 0, p = 0 and p -> 1 with a tiny XY."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    v = parts[:4] + 1j * parts[4:]
    case = draw(st.sampled_from(["free", "x0", "y0", "p0", "p1"]))
    if case == "x0":
        v[:2] = 0.0
    elif case == "y0":
        v[2:] = 0.0
    if np.linalg.norm(v) < 1e-3:
        v = np.array([0.6, 0.0, 0.0, 0.8j])
    scale = {"p0": 1.0, "p1": draw(st.floats(1e-9, 1e-5))}.get(case)
    if scale is None:
        scale = draw(st.floats(0.0, 1.0))
    return v * (scale / np.linalg.norm(v)), draw(st.floats(0.0, 50.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sub_normalised_states())
def test_closed_form_matches_partial_transpose_property(case):
    # against the most negative eigenvalue of the 9x9 partial transpose of
    # the phased state, without the reference's clamp
    amps, t = case
    series = neg.entanglement_series(_traj([t], [amps]))
    lam = np.linalg.eigvalsh(partial_transpose_B(reduced_density_matrix(amps, t, FIG2B)))
    n_ref = max(0.0, -lam[0])
    assert abs(series.negativity[0] - n_ref) <= 1e-14
    assert abs(series.log_negativity[0] - math.log2(1.0 + 2.0 * n_ref)) <= 1e-14
    if np.sum(np.abs(amps[:2])) == 0.0 or np.sum(np.abs(amps[2:])) == 0.0:
        assert series.negativity[0] == 0.0


def test_cancellation_case_against_50_digits():
    # fig5c at t = 7: p = 1 - 1.2e-6 and N = 3.6e-13, where the textbook
    # form (sqrt(p^2 + 4XY) - p)/2 cancels about four digits
    from pbgpair.presets import get_preset

    p = get_preset("fig5c")
    traj = inversion.amplitudes_analytic(time_grid(7.0, p.dt_out), p.config, p.init)
    assert traj.times[-1] == 7.0
    n_closed = neg.entanglement_series(traj).negativity[-1]
    with localcontext() as ctx:
        ctx.prec = 50
        prob = [Decimal(float(a.real)) ** 2 + Decimal(float(a.imag)) ** 2
                for a in traj.amps[-1]]
        x, y = prob[0] + prob[1], prob[2] + prob[3]
        field = 1 - sum(prob)
        exact = ((field * field + 4 * x * y).sqrt() - field) / 2
    assert 1e-6 < float(field) < 1.0 and 1e-13 < float(exact) < 1e-12
    assert abs(Decimal(float(n_closed)) - exact) <= Decimal("1e-12") * exact


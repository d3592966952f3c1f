import math

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from pbgpair import bath, csvio, inversion, transform
from pbgpair.cli import main
from pbgpair.config import InitialState, SystemConfig, preset_initial
from pbgpair.errors import DegeneratePole, NumericalError
from pbgpair.poles import MAX_DETUNING, MERGE_TOL, find_poles, symmetric_sectors
from reference_routes import residue_by_limit, residue_weight_fd, table_weight_kernel

PI = math.pi


def cfg(gamma, eta, w1c, w2c):
    return SystemConfig(gamma1=gamma, gamma2=gamma, omega12=w1c - w2c,
                        omega1c=w1c, omega2c=w2c, eta=eta)


def completeness(config, init):
    """|A(0+) - A(0)|, the t -> 0+ limit Richardson-extrapolated from the
    analytic engine at t = 1e-5 and 2e-5."""
    traj = inversion.amplitudes_analytic(np.array([1e-5, 2e-5]), config, init)
    limit = 2 * traj.amps[0] - traj.amps[1]
    return float(np.max(np.abs(limit - np.array(init.as_tuple()))))


def engine_deviation(config, init, n_modes=800, t_max=10.0):
    """Largest amplitude difference between the discretised-bath oracle and
    the analytic engine over [0, t_max] (horizon 50 at 800 modes)."""
    b = bath.build_bath(config, n_modes=n_modes)
    oracle = bath.integrate(config, init, b, t_max=t_max, dt_out=0.5)
    analytic = inversion.amplitudes_analytic(oracle.times, config, init)
    return float(np.max(np.abs(oracle.amps - analytic.amps)))


# identical transitions, both levels above the edge: cos^2 eta = 1 makes a
# symmetric combination dark (a root of Delta at x = -3i, below the branch
# point); cos eta = 0 makes Delta the square of one sector factor
DARK = {eta: cfg(3, eta, 0.5, 0.5) for eta in (0.0, PI)}
ORTHOGONAL = cfg(3, PI / 2, 0.5, 0.5)


QUOTED = [
    (cfg(6, PI, 0.6, 0.2), (-3.4, -6.0, -5.6, 6.0)),
    (cfg(6, PI, -0.6, -1.0), (-4.6, -6.0, -5.6, 6.0)),
    (cfg(1.5, PI / 2, -0.6, -1.0), (-1.5, -1.1)),
    (cfg(10, PI / 2, -0.6, -1.0), (-10.0, -9.6)),
]


@pytest.mark.parametrize("config,expected", QUOTED)
def test_quoted_dressed_state_tables(config, expected):
    ps = find_poles(config)
    ys = [r.x.imag for r in ps.records if abs(r.x.real) < 1e-9]
    for target in expected:
        assert any(abs(y - target) < 0.05 for y in ys), (target, ys)


def test_classification_of_reference_table():
    records = find_poles(cfg(6, PI, 0.6, 0.2)).records
    loc = {round(r.x.imag, 4) for r in records if r.klass == "localized" and not r.dynamic}
    assert {-3.4, -6.0, -5.6} <= loc
    band = {round(r.x.imag, 4) for r in records if r.klass == "bandpass"}
    assert 6.0 in band
    assert any(r.klass == "propagating" for r in records)


def test_dynamic_pole_invariants():
    for config, _ in QUOTED:
        ps = find_poles(config)
        for r in ps.records:
            if not r.dynamic:
                continue
            if abs(r.x.real) <= 1e-9:
                if r.kind == "u":
                    # photon-atom bound roots sit above the branch point
                    assert r.x.imag > config.omega1c
            else:
                assert r.klass == "propagating"
                assert r.x.real < 0
                assert r.x.imag < config.omega1c


def test_residue_weight_dual_route():
    config = cfg(6, PI, 0.6, 0.2)
    ps = find_poles(config)
    for r in ps.dynamic():
        fd = residue_weight_fd(r, config)
        assert abs(fd - r.weight) <= 1e-8 * max(1.0, abs(r.weight))


def test_residues_match_limit_route():
    rng = np.random.default_rng(11)
    for config in (cfg(6, PI, 0.6, 0.2), cfg(6, PI / 2, -0.6, -1.0)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        init = InitialState(*v)
        ps = find_poles(config)
        for r in ps.dynamic():
            direct = transform.residue_numerators(r, config, init) * r.weight
            limit = residue_by_limit(r, config, init)
            assert np.max(np.abs(direct - limit)) < 1e-8


def test_table_rows_have_zero_dynamic_residue():
    config = cfg(6, PI, 0.6, 0.2)
    init = preset_initial("unentangled")
    ps = find_poles(config)
    for r in ps.records:
        if r.dynamic:
            continue
        limit = residue_by_limit(r, config, init)
        assert np.max(np.abs(limit)) < 1e-7


def test_table_row_at_the_branch_point():
    # gamma1 = -omega1c puts the table root x = -i gamma1 on the branch
    # point, where the slope of H1 is unbounded: the row has weight 0
    config = SystemConfig(gamma1=0.6, gamma2=0.6, omega12=0.4, omega1c=-0.6,
                          omega2c=-1.0, eta=PI)
    rows = "".join(csvio.poles_csv(find_poles(config))).splitlines()
    assert "H1,0,-0.6,localized,0,0" in rows


def test_coincident_poles_of_separate_sectors_invert():
    # the symmetric-sector bound root lands exactly on the exchange poles at
    # x = 2i: (4 - 2g)^2 = 4g^2 at g = 1, i.e. w1c = 1.  A1 = (u1 + v1)/2 is
    # then a sum of two simple poles, not a double pole
    config = SystemConfig(gamma1=2, gamma2=2, omega12=0.0, omega1c=1.0,
                          omega2c=1.0, eta=PI)
    at_2i = sorted(r.kind for r in find_poles(config).dynamic() if abs(r.x - 2j) < 1e-12)
    assert at_2i == ["u-", "v1", "v2"]
    init = preset_initial("unentangled")
    assert completeness(config, init) <= 1e-6
    assert engine_deviation(config, init) <= 5e-3


def test_exchange_poles_always_present():
    config = cfg(3, 1.1, 0.2, -0.2)
    ps = find_poles(config)
    kinds = {r.kind: r for r in ps.records if r.dynamic}
    assert kinds["v1"].x == pytest.approx(3j, abs=1e-12)
    assert kinds["v2"].x == pytest.approx(1j * (3 + 0.4), abs=1e-12)
    assert kinds["v1"].weight == 1.0


@pytest.mark.parametrize("eta", [0.0, PI])
def test_dark_pair_is_complete_and_matches_oracle(eta):
    config = DARK[eta]
    dark = [r for r in find_poles(config).dynamic() if abs(r.x + 3j) < 1e-12]
    # u1 - u2 is dark for parallel dipoles, u1 + u2 for anti-parallel ones
    assert [(r.kind, r.klass) for r in dark] == [("u-" if eta == 0.0 else "u+", "localized")]
    init = preset_initial("unentangled")  # populates the dark combination
    assert completeness(config, init) <= 1e-6
    assert engine_deviation(config, init) <= 5e-3


@pytest.mark.parametrize("eta", [1e-5, PI - 1e-5])
def test_nearly_parallel_pair_drops_the_branch_point_root(eta):
    # sin^2 eta = 1e-10 moves the spurious root S = 0 to |S| ~ 1e-10, where
    # x = i (S^2 + omega1c) rounds onto the branch point itself
    config = cfg(3, eta, 0.5, 0.5)
    assert completeness(config, preset_initial("unentangled")) <= 1e-6


@pytest.mark.parametrize("omega12", [1e-17, 1e-16, 1e-15, 1e-13, 1e-9])
def test_quasi_dark_pole_at_the_branch_point(omega12):
    # gamma = omega1c = 0, parallel dipoles: the dark pole x = -i gamma1 sits
    # on the branch point, and transitions that differ by omega12 alone turn
    # it into a cluster of sextic roots around S = 0 carrying the 0.25 of
    # the unentangled start; on the cut the symmetric determinant must not
    # cancel its 4 beta'^2 terms
    config = SystemConfig(gamma1=0.0, gamma2=0.0, omega12=omega12, omega1c=0.0,
                          omega2c=-omega12, eta=0.0)
    init = preset_initial("unentangled")
    assert completeness(config, init) <= 1e-6
    if omega12 == 1e-16:
        assert engine_deviation(config, init) <= 5e-3


def test_identical_orthogonal_pair_splits_sectors():
    # Delta = f^2: every root is double, yet a simple pole of u1 + u2 and
    # of u1 - u2 each
    sym = [r for r in find_poles(ORTHOGONAL).dynamic() if r.kind.startswith("u")]
    assert sorted(r.kind for r in sym) == ["u+", "u+", "u-", "u-"]
    assert sym[0].x == sym[1].x
    rng = np.random.default_rng(5)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    init = InitialState(*(v / np.linalg.norm(v)))
    assert completeness(ORTHOGONAL, init) <= 1e-6
    assert engine_deviation(ORTHOGONAL, preset_initial("bright")) <= 5e-3


@pytest.mark.parametrize("config", [DARK[0.0], DARK[PI], ORTHOGONAL,
                                    cfg(2, PI, 1.0, 1.0), cfg(6, PI / 2, -0.6, -1.0)])
def test_weights_and_residues_match_reference_routes(config):
    init = InitialState(0.5, 0.5j, -0.5, 0.5)
    dyn = find_poles(config).dynamic()
    for r in dyn:
        fd = residue_weight_fd(r, config)
        assert abs(fd - r.weight) <= 1e-8 * max(1.0, abs(r.weight))
        # the limit route sees every pole sitting at r.x at once
        direct = sum(transform.residue_numerators(q, config, init) * q.weight
                     for q in dyn if abs(q.x - r.x) < MERGE_TOL)
        limit = residue_by_limit(r, config, init)
        assert np.max(np.abs(direct - limit)) < 1e-8


def test_near_double_root_raises_degenerate_pole(tmp_path):
    # nearly identical transitions (gamma2 - gamma1 = 1e-13) with orthogonal
    # dipoles: Delta has root pairs 1e-13 apart, which cannot be told from
    # the double roots of the identical pair and are not split by sector
    config = SystemConfig(gamma1=3.0, gamma2=3.0000000000001, omega12=0.0,
                          omega1c=0.5, omega2c=0.5, eta=PI / 2)
    with pytest.raises(DegeneratePole):
        find_poles(config)
    run_file = tmp_path / "near.cfg"
    run_file.write_text("gamma1 = 3\ngamma2 = 3.0000000000001\nomega12 = 0\n"
                        "omega1c = 0.5\nomega2c = 0.5\neta_degrees = 90\n"
                        "initial = bright\nt_max = 5\ndt_out = 0.5\n")
    assert main(["poles", str(run_file), "-o", str(tmp_path / "p.csv")]) == 4


@pytest.mark.parametrize("w1c,w2c", [(MAX_DETUNING, 0.0), (0.0, -MAX_DETUNING)])
def test_detuning_bound(w1c, w2c):
    symmetric_sectors(cfg(5.0, PI / 2, w1c, w2c))
    with pytest.raises(NumericalError, match="band edge"):
        symmetric_sectors(cfg(5.0, PI / 2, np.nextafter(w1c, 2 * w1c),
                              np.nextafter(w2c, 2 * w2c)))


@st.composite
def configs_and_states(draw):
    """Valid configurations with draws forced onto cos^2 eta in {0, 1},
    omega12 = 0 and gamma1 = gamma2, plus a random normalised state."""
    gamma1 = draw(st.floats(0.0, 10.0))
    w1c = draw(st.floats(-2.0, 1.5))
    if draw(st.booleans()):
        gamma2, w12 = gamma1, 0.0
    else:
        gamma2, w12 = draw(st.floats(0.0, 10.0)), draw(st.floats(-1.0, 1.0))
    eta = draw(st.one_of(st.sampled_from([0.0, PI / 2, PI]), st.floats(0.0, PI)))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    v = parts[:4] + 1j * parts[4:]
    if np.linalg.norm(v) < 0.1:
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    config = SystemConfig(gamma1=gamma1, gamma2=gamma2, omega12=w12, omega1c=w1c,
                          omega2c=w1c - w12, eta=eta)
    return config, InitialState(*(v / np.linalg.norm(v)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs_and_states())
def test_completeness_property(case):
    config, init = case
    assert completeness(config, init) <= 1e-6


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs_and_states())
def test_closed_form_completeness_property(case):
    # the t -> 0+ limit of the closed form, i sum_j r_j S_j plus the simple
    # poles, against the initial amplitudes
    config, init = case
    traj = inversion.amplitudes_analytic(np.array([0.0, 1.0]), config, init)
    assert traj.meta["completeness"] <= 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs_and_states())
def test_exchange_poles_are_rows_of_their_own(case):
    # v1 is the G1 prefactor row at i gamma1 and v2 the H1 one at
    # i (gamma2 + omega12): once each, weight 1, classed by the band edge
    config, _ = case
    records = find_poles(config).records
    for kind, tag, y in (("v1", "G1", config.gamma1),
                         ("v2", "H1", config.gamma2 + config.omega12)):
        rows = [r for r in records if r.kind == kind]
        assert [(r.tag, r.x, r.weight, r.dynamic) for r in rows] == [(tag, 1j * y, 1.0, True)]
        assert rows[0].klass == ("localized" if y + config.omega1c < 0 else "bandpass")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs_and_states())
@example((SystemConfig(gamma1=1.5, gamma2=1.5, omega12=0.4, omega1c=-1.5, omega2c=-1.9,
                       eta=PI / 3), InitialState(1.0, 0.0, 0.0, 0.0)))
def test_table_weights_in_s_match_the_kernel_route(case):
    # the table-only rows are weighted in S; the principal kernel's product
    # rule is the reference, and a row at the branch point (gamma1 = -omega1c
    # in the example) has weight 0 on both
    config, _ = case
    rows = [r for r in find_poles(config).records if r.kind == "table"]
    for r in rows:
        ref = table_weight_kernel(r.x, config)
        assert abs(r.weight - ref) <= 1e-14 * abs(ref)
        if r.x.imag == config.omega1c:
            assert r.weight == ref == 0

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from pbgpair import csvio
from reference_routes import (entanglement_csv_by_field, poles_csv_by_field,
                              sweep_summary_csv_by_field, trajectory_csv_by_field)

B = csvio.BLOCK_ROWS
SPECIAL = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
    0.1 + 0.2, 1.0 - 1e-16, 0.1234567890125, 123456789012.5, 999999999999.5, 1e12, 1e16,
]


@st.composite
def tables(draw):
    """A row count at the block edges and (rows x 10) floats mixing the
    special values with values drawn over the whole double range."""
    rows = draw(st.sampled_from([0, 1, B - 1, B, B + 1]))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                         min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = rng.uniform(-1.7, 1.7, (rows, 10)) * 10.0 ** rng.uniform(-320, 308, (rows, 10))
    picked = rng.choice(np.array(pool, dtype=float), size=(rows, 10))
    return np.where(rng.random((rows, 10)) < 0.5, picked, wide)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tables(), st.integers(0, 2**32 - 1))
def test_writers_match_per_field_reference(v, seed):
    rows = len(v)
    amps = np.empty((rows, 4), dtype=complex)
    amps.real, amps.imag = v[:, 1:9:2], v[:, 2:9:2]
    traj = SimpleNamespace(times=v[:, 0], amps=amps, field_prob=v[:, 9])
    series = SimpleNamespace(times=v[:, 0], negativity=v[:, 1], log_negativity=v[:, 2])
    assert csvio.entanglement_csv(series, traj) == entanglement_csv_by_field(series, traj)
    assert csvio.trajectory_csv(traj) == trajectory_csv_by_field(traj)

    rng = np.random.default_rng(seed)
    tags = rng.choice(["G1", "H1", "u", "v2"], size=rows).tolist()
    klasses = rng.choice(["localized", "bandpass", "propagating"], size=rows).tolist()
    records = [SimpleNamespace(tag=tags[k], x=complex(v[k, 3], v[k, 4]), klass=klasses[k],
                               weight=complex(v[k, 5], v[k, 6])) for k in range(rows)]
    poles = SimpleNamespace(records=records)
    assert csvio.poles_csv(poles) == poles_csv_by_field(poles)

    entries = [(f"{v[k, 0]:g}", float(v[k, 7]), float(v[k, 8])) for k in range(rows)]
    assert csvio.sweep_summary_csv(entries) == sweep_summary_csv_by_field(entries)

import ast
import os
import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbgpair import csvio, inversion, negativity
from pbgpair.presets import get_preset
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
    assert "".join(csvio.entanglement_csv(series, traj)) == entanglement_csv_by_field(series, traj)
    assert "".join(csvio.trajectory_csv(traj)) == trajectory_csv_by_field(traj)

    rng = np.random.default_rng(seed)
    tags = rng.choice(["G1", "H1", "u", "v2"], size=rows).tolist()
    klasses = rng.choice(["localized", "bandpass", "propagating"], size=rows).tolist()
    records = [SimpleNamespace(tag=tags[k], x=complex(v[k, 3], v[k, 4]), klass=klasses[k],
                               weight=complex(v[k, 5], v[k, 6])) for k in range(rows)]
    poles = SimpleNamespace(records=records)
    assert "".join(csvio.poles_csv(poles)) == poles_csv_by_field(poles)

    entries = [(f"{v[k, 0]:g}", float(v[k, 7]), float(v[k, 8])) for k in range(rows)]
    assert "".join(csvio.sweep_summary_csv(entries)) == sweep_summary_csv_by_field(entries)


def test_write_atomic_memory_peak(tmp_path):
    # the 2.3 MB text of fig2b at 20,001 rows stays in blocks of BLOCK_ROWS
    # rows, written one by one at a peak of 0.12 MB; joined into one string
    # first it peaks at 4.5 MB
    p, rows = get_preset("fig2b"), 20_001
    traj = inversion.amplitudes_analytic(np.linspace(0.0, p.t_max, rows), p.config, p.init)
    blocks = csvio.entanglement_csv(negativity.entanglement_series(traj), traj)
    assert len(blocks) == 1 + len(range(0, rows, B))
    path = tmp_path / "fig2b.csv"
    tracemalloc.start()
    try:
        csvio.write_atomic(path, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == rows + 1
    assert peak <= 1e6


@pytest.mark.parametrize("target_exists", [True, False], ids=["file", "dangling"])
def test_write_atomic_refuses_a_symlink_at_its_temporary_name(tmp_path, monkeypatch,
                                                              target_exists):
    # a link planted at the temporary name (its random part fixed here) is
    # neither followed nor removed: the write fails and the link's target
    # stays as it was
    monkeypatch.setattr(os, "urandom", bytes)
    path, target = tmp_path / "out.csv", tmp_path / "target"
    if target_exists:
        target.write_text("kept\n", encoding="utf-8")
    tmp = str(tmp_path / f".pbgpair-{os.getpid()}-000000000000-out.csv.tmp")
    os.symlink(target, tmp)
    with pytest.raises(FileExistsError):
        csvio.write_atomic(str(path), ["a\n"])
    assert os.path.islink(tmp) and not path.exists()
    if target_exists:
        assert target.read_text(encoding="utf-8") == "kept\n"
    else:
        assert not target.exists()


def test_failed_write_leaves_no_file(tmp_path):
    # a block that is not a str fails the write after the file is made: the
    # file is removed, and write_atomic leaves no temporary file either
    path, text = str(tmp_path / "out.csv"), ["a\n", b"b\n"]
    with pytest.raises(TypeError):
        csvio.write_text(path, text)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(TypeError):
        csvio.write_atomic(path, text)
    assert list(tmp_path.iterdir()) == []


def test_publish_commits_every_path_or_none(tmp_path):
    # the block's names are renamed in order once it ends; a failure in the
    # block or at a later rename removes the paths renamed and every
    # temporary file, and an OSError names the path given, not a temporary
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    with csvio.publish(paths) as tmps:
        assert [os.path.dirname(t) for t in tmps] == [str(tmp_path)] * 3
        assert all(os.path.basename(t).startswith(f".pbgpair-{os.getpid()}-") for t in tmps)
        for tmp, name in zip(tmps, "abc"):
            csvio.write_text(tmp, [name + "\n"])
    assert [p.read_text(encoding="utf-8") for p in paths] == ["a\n", "b\n", "c\n"]

    with pytest.raises(KeyboardInterrupt):
        with csvio.publish(paths) as tmps:
            csvio.write_text(tmps[0], ["new\n"])
            raise KeyboardInterrupt
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv", "c.csv"]
    assert paths[0].read_text(encoding="utf-8") == "a\n"

    paths[2].unlink()
    paths[2].mkdir()
    with pytest.raises(IsADirectoryError) as info:
        with csvio.publish(paths) as tmps:
            for tmp in tmps:
                csvio.write_text(tmp, ["new\n"])
    assert info.value.filename == str(paths[2]) and info.value.filename2 is None
    assert str(info.value) == f"[Errno {info.value.errno}] {info.value.strerror}: '{paths[2]}'"
    assert sorted(os.listdir(tmp_path)) == ["c.csv"]


def test_only_csvio_renames_unlinks_or_opens_files():
    # the decision to commit or remove an output file is made in one module:
    # no other module of the package calls these functions of os
    names = {"replace", "unlink", "open", "remove", "rename"}
    calls = []
    for path in sorted(pathlib.Path(csvio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                calls += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in names]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                calls.append(f"{path.name}:{node.lineno} os.{node.attr}")
    assert any(c.startswith("csvio.py:") for c in calls)
    assert [c for c in calls if not c.startswith("csvio.py:")] == []

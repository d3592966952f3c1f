"""Deterministic CSV emission (fixed 12-digit formatting) and ``publish``,
the one routine that commits output files: all of a command's, or none.

A CSV text is built and written as a list of blocks, never joined: for
100,001 rows the joined copy would add 11 MB."""

from __future__ import annotations

import contextlib
import os

import numpy as np

# rows formatted by one '%' call; bounds the transient Python floats
BLOCK_ROWS = 1024


class CsvText(list):
    """The blocks of a CSV text.  ``encode`` encodes their join, as str.encode
    would the text (the byte counter of ``perfbench/tracing.py`` calls it)."""

    def encode(self, encoding):
        return "".join(self).encode(encoding)


def _table(header: str, columns, text=()) -> CsvText:
    """``header`` and one CSV row per entry of the equal-length ``columns``.

    The columns whose indices are in ``text`` hold strings, printed as they
    are; the others are taken as floats and printed with '%.12g', after
    adding 0.0, which prints -0 as 0.  Each block of ``BLOCK_ROWS`` rows is
    one '%' call on the row template repeated over the block.
    """
    row = ",".join("%s" if j in text else "%.12g" for j in range(len(columns))) + "\n"
    nums = [j for j in range(len(columns)) if j not in text]
    table = np.stack([np.asarray(columns[j], dtype=float) for j in nums], axis=-1)
    table += 0.0
    if text:
        values, table = table, np.empty((len(table), len(columns)), dtype=object)
        table[:, nums] = values
        for j in text:
            table[:, j] = columns[j]
    parts = CsvText([header + "\n"])
    for a in range(0, len(table), BLOCK_ROWS):
        block = table[a:a + BLOCK_ROWS]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return parts


def write_text(path, text):
    """Write ``text``'s blocks to the new file ``path``, removed if the write
    fails; O_EXCL refuses a file already there, a symlink included."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
    except BaseException:
        os.unlink(path)
        raise


@contextlib.contextmanager
def publish(paths):
    """Yield a new temporary name beside each of ``paths``, for ``write_text``,
    and rename them to ``paths`` in order when the block ends.  The names,
    ``.pbgpair-<pid>-<hex>-<name>.tmp``, are drawn here, so this process knows
    those its workers write; the random ``<hex>`` keeps clear of a killed
    process's files.  Any failure removes the paths renamed and every
    temporary file but one a write found taken (not this run's), and an
    OSError on a temporary name is raised again naming its path."""
    tmps = {os.path.join(os.path.dirname(p), f".pbgpair-{os.getpid()}-{os.urandom(6).hex()}-"
                         f"{os.path.basename(p)}.tmp"): p for p in paths}
    done = []
    try:
        yield list(tmps)
        for tmp, path in tmps.items():
            os.replace(tmp, path)
            done.append(path)
    except BaseException as exc:
        taken = exc.filename if isinstance(exc, FileExistsError) else None
        for path in done + [tmp for tmp in tmps if tmp != taken]:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if taken is None and isinstance(exc, OSError) and exc.filename in tmps:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(tmps[exc.filename])) from None
        raise


def write_atomic(path, text):
    """``write_text`` to a temporary name that ``publish`` renames to ``path``."""
    with publish([path]) as (tmp,):
        write_text(tmp, text)


def entanglement_csv(series, trajectory) -> CsvText:
    """t, N, E_N, field_prob, |A1|..|A4| — one row per output time."""
    amps = np.abs(np.asarray(trajectory.amps))
    return _table("t,N,E_N,field_prob,abs_A1,abs_A2,abs_A3,abs_A4",
                  [series.times, series.negativity, series.log_negativity,
                   trajectory.field_prob, *amps.T])


def poles_csv(pole_set) -> CsvText:
    """function_tag, re_x, im_x, class, residue_re, residue_im."""
    recs = pole_set.records
    x = np.array([r.x for r in recs], dtype=complex)
    w = np.array([r.weight for r in recs], dtype=complex)
    return _table("function_tag,re_x,im_x,class,residue_re,residue_im",
                  [[r.tag for r in recs], x.real, x.imag, [r.klass for r in recs],
                   w.real, w.imag], text=(0, 3))


def trajectory_csv(trajectory) -> CsvText:
    """t, re/im of all four amplitudes, field_prob (oracle dump format)."""
    amps = np.asarray(trajectory.amps)
    reim = np.stack([amps.real, amps.imag], axis=-1).reshape(len(amps), 8)
    return _table("t,re_a1,im_a1,re_a2,im_a2,re_a3,im_a3,re_a4,im_a4,field_prob",
                  [trajectory.times, *reim.T, trajectory.field_prob])


def sweep_summary_csv(entries) -> CsvText:
    """value, E_N half-life, integrated E_N over the sweep window."""
    return _table("value,half_life,integrated_EN",
                  [[e[0] for e in entries], [e[1] for e in entries],
                   [e[2] for e in entries]], text=(0,))

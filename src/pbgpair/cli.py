"""Command-line interface.

Verbs: ``run`` (key-value config file), ``preset`` (named scenario),
``poles`` (dressed-state table), ``sweep`` (parameter ladder).  Exit
codes: 0 success, 2 usage/validation, 3 I/O, 4 numerical failure (the
message names the failing operation; numpy's LinAlgError, a
FloatingPointError and a MemoryError count as numerical failures).
THREADS caps the processes a sweep computes on.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import traceback
from dataclasses import replace

from numpy.linalg import LinAlgError

from . import csvio, sweep as sweep_mod
from .config import DEFAULT_MODES, ENGINES, parse_run_file, RunSpec
from .errors import ConfigError, NumericalError
from .pipeline import run_spec
from .poles import find_poles
from .presets import PRESET_NAMES, get_preset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


@functools.cache
def _parser():
    p = argparse.ArgumentParser(
        prog="pbgpair",
        description="Entanglement dynamics of two V-type atoms near a photonic band edge",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def engine_options(sp):
        sp.add_argument("--engine", choices=ENGINES,
                        help="trajectory engine (default from the run file, else analytic)")
        sp.add_argument("--tmax", type=float, help="override horizon (units 1/beta)")
        sp.add_argument("--dt", type=float, help="override output spacing")
        sp.add_argument("--modes", type=int,
                        help=f"override the oracle bath size (default {DEFAULT_MODES})")

    def series_options(sp):
        sp.add_argument("-o", "--output", required=True, help="output CSV path")
        engine_options(sp)
        sp.add_argument("--amplitudes", metavar="PATH",
                        help="also dump the raw amplitude trajectory CSV")

    sp = sub.add_parser("run", help="run a key-value config file")
    sp.add_argument("config", help="path to the run file")
    series_options(sp)

    sp = sub.add_parser("preset", help=f"run a named scenario ({', '.join(PRESET_NAMES)})")
    sp.add_argument("name")
    series_options(sp)

    sp = sub.add_parser("poles", help="emit the dressed-state pole table of a config file")
    sp.add_argument("config")
    sp.add_argument("-o", "--output", required=True, help="output CSV path")

    sp = sub.add_parser("sweep", help="sweep one parameter over a list of values")
    sp.add_argument("config", help="template run file")
    sp.add_argument("--param", required=True, choices=sweep_mod.SWEEP_PARAMS)
    sp.add_argument("--values", required=True,
                    help="comma list (pairs: 'w1c:w2c;w1c:w2c'); eta in degrees; give "
                         "a list that starts with '-' as --values='-0.6:-1;-1:-1'")
    sp.add_argument("-o", "--output", required=True, help="output directory")
    engine_options(sp)
    return p


def _apply_overrides(spec: RunSpec, args) -> RunSpec:
    """``spec`` with the --engine, --tmax, --dt and --modes given, checked as one run."""
    return replace(spec, engine=args.engine or spec.engine,
                   t_max=spec.t_max if args.tmax is None else args.tmax,
                   dt_out=spec.dt_out if args.dt is None else args.dt,
                   n_modes=spec.n_modes if args.modes is None else args.modes)


def _emit_series(spec: RunSpec, args) -> int:
    """Run ``spec`` under the options given; write its CSVs."""
    series, traj, _ = run_spec(_apply_overrides(spec, args))
    csvio.write_atomic(args.output, csvio.entanglement_csv(series, traj))
    if args.amplitudes:
        csvio.write_atomic(args.amplitudes, csvio.trajectory_csv(traj))
    return EXIT_OK


def _emit_poles(config, path) -> int:
    csvio.write_atomic(path, csvio.poles_csv(find_poles(config)))
    return EXIT_OK


def _cmd_run(args) -> int:
    return _emit_series(parse_run_file(args.config), args)


def _cmd_preset(args) -> int:
    preset = get_preset(args.name)
    if isinstance(preset, RunSpec):
        return _emit_series(preset, args)
    given = [f"--{k}" for k in ("amplitudes", "engine", "tmax", "dt", "modes")
             if getattr(args, k) is not None]
    if given:
        raise ConfigError(f"{args.name} is a pole table; {', '.join(given)} "
                          "apply to series presets only")
    return _emit_poles(preset, args.output)


def _cmd_poles(args) -> int:
    return _emit_poles(parse_run_file(args.config).config, args.output)


def _cmd_sweep(args) -> int:
    spec = _apply_overrides(parse_run_file(args.config), args)
    values = sweep_mod.parse_values(args.param, args.values)
    sweep_mod.run_sweep(spec, args.param, values, args.output)
    return EXIT_OK


def _stage(exc) -> str:
    """``module.function`` of the innermost frame of this package that
    ``exc`` passed through.  A sweep value that failed in a worker is run
    again in this process, so its frames are here too."""
    here = os.path.dirname(os.path.abspath(__file__))
    frames = [(f.filename, f.name) for f in traceback.extract_tb(exc.__traceback__)
              if os.path.dirname(os.path.abspath(f.filename)) == here]
    if not frames:
        return "an unknown stage"
    path, name = frames[-1]
    return f"{os.path.splitext(os.path.basename(path))[0]}.{name}"


_COMMANDS = {"run": _cmd_run, "preset": _cmd_preset, "poles": _cmd_poles,
             "sweep": _cmd_sweep}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    command = args.command
    # the log lines of this call go to its own sys.stderr
    log, handler = logging.getLogger("pbgpair"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("pbgpair: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _COMMANDS[command](args)
    except ConfigError as exc:
        print(f"pbgpair {command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pbgpair {command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"pbgpair {command}: numerical failure in {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except (LinAlgError, FloatingPointError, MemoryError) as exc:
        # one line; the interpreter's own MemoryError has no message
        message = " ".join(str(exc).split())
        failure = f"{type(exc).__name__}: {message}" if message else type(exc).__name__
        print(f"pbgpair {command}: numerical failure in {_stage(exc)}: {failure}",
              file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points: simulate a run, analyze it, print its summary.

    fairsample simulate --config run.json [--output-dir DIR] [--jobs N]
    fairsample analyze --manifest DIR/manifest.json [--window TICKS]
                       [--alpha-level 0.01] [--output-dir DIR] [--jobs N]
    fairsample report --dir DIR

`report` prints the report.md that `analyze` wrote into DIR.
Exit codes: 0 success, 2 configuration error (a bad config file or option
value), 3 data error (missing or corrupt files, including a malformed
manifest or one of a schema other than 2).  `analyze` reads only the
manifest's ``data`` block, its optional ``model`` block and its point list,
and echoes the ``simulation`` block's policy, so it needs no run config.
``--jobs`` defaults to the number of CPUs the process may use; outputs are
identical at any value, and ``--jobs 1`` works on one point at a time.
The default output directory for `simulate` is taken from --output-dir,
then the config's ``output_dir`` field, then the FAIRSAMPLE_OUTPUT_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import sys
from pathlib import Path

from .coincidence import CoincidenceWindow
from .config import ConfigError, load_config
from .fits import check_alpha_level
from .pipeline import REPORT_NAME, _check_jobs, analyze_run, simulate_run

OUTPUT_DIR_ENV = "FAIRSAMPLE_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# glibc's mallopt parameters for the free memory kept at the top of a heap
# and for the most malloc arenas the process may have.
_M_TOP_PAD = -2
_M_ARENA_MAX = -8
# Free memory the heap keeps at its top instead of returning it to the
# kernel.  It exceeds one scan point's working set (a dense benchmark point
# traces at about 12 MB to analyze and 5.5 MB to simulate), so the arrays of
# each point reuse the pages the previous point freed instead of faulting
# fresh ones in.  Pages of the pad that are never touched are never resident.
# With one arena, every pool thread allocates from the main heap and shares
# this one pad; an arena per thread would keep each thread's last working
# set resident under a pad of its own.
_HEAP_TOP_PAD = 64 * 2**20


def _keep_heap_resident() -> None:
    """Ask the C library for one malloc arena that keeps ``_HEAP_TOP_PAD`` free.

    Called before any pool thread starts, so that no thread has an arena
    of its own yet.  The CLI owns its process, so it tunes the allocator;
    the library does not.  A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    mallopt(_M_ARENA_MAX, 1)


def _checked(convert, check):
    """An argparse ``type`` that converts its text, then runs the library's
    own ``check`` on the value; a ValueError of either is a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    return parse


_jobs = _checked(int, _check_jobs)
_window = _checked(int, CoincidenceWindow)
_alpha_level = _checked(float, check_alpha_level)
_JOBS_HELP = "scan points worked on at once (default: the usable CPUs)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsample",
        description="Simulate entangled-pair runs and test fair sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a run to TTG1 files")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument(
        "--output-dir",
        default=None,
        help="run directory (default: config output_dir, then "
        f"${OUTPUT_DIR_ENV})",
    )
    p_sim.add_argument("--jobs", type=_jobs, default=None, help=_JOBS_HELP)

    p_ana = sub.add_parser("analyze", help="analyze a run's TTG1 files")
    p_ana.add_argument("--manifest", required=True, help="run manifest path")
    p_ana.add_argument(
        "--window",
        type=_window,
        default=None,
        help="coincidence window in ticks (default: the manifest's data.window_ticks)",
    )
    p_ana.add_argument(
        "--alpha-level",
        type=_alpha_level,
        default=0.01,
        help="significance threshold for the no-signalling verdict",
    )
    p_ana.add_argument(
        "--output-dir", default=None, help="where to write analysis tables"
    )
    p_ana.add_argument("--jobs", type=_jobs, default=None, help=_JOBS_HELP)

    p_rep = sub.add_parser("report", help="print an analyzed run's report.md")
    p_rep.add_argument("--dir", required=True, help="analysis output directory")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = args.output_dir or cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if not out_dir:
        raise ConfigError(
            "output_dir",
            f"not set (use --output-dir, the config field, or ${OUTPUT_DIR_ENV})",
        )
    manifest = simulate_run(cfg, out_dir, jobs=args.jobs)
    print(f"wrote {cfg.n_points} point(s); manifest: {manifest}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    result = analyze_run(
        args.manifest,
        window_ticks=args.window,
        alpha_level=args.alpha_level,
        output_dir=args.output_dir,
        jobs=args.jobs,
    )
    for name, path in result.files.items():
        print(f"{name}: {path}")
    if result.fit_note:
        print(result.fit_note)
    elif result.nosignalling is not None:
        verdict = "consistent" if result.nosignalling.consistent else "violated"
        print(f"no-signalling verdict (distant marginals): {verdict}")
    for index, reason in result.skipped:
        print(f"point {index} skipped in fits: {reason}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.dir) / REPORT_NAME
    try:
        print(path.read_text(encoding="utf-8"), end="")
    except FileNotFoundError:
        found = f"no analysis artifacts found in {path.parent}"
        raise FileNotFoundError(errno.ENOENT, found, str(path)) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return EXIT_OK


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    _keep_heap_resident()
    handlers = {
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"data error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

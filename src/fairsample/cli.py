"""Command-line entry points: simulate a run, analyze it, print its summary.

    fairsample simulate --config run.json [--output-dir DIR] [--jobs N]
    fairsample analyze --manifest DIR/manifest.json [--window TICKS]
                       [--alpha-level 0.01] [--output-dir DIR] [--jobs N]
    fairsample report --dir DIR

`report` prints the report.md that `analyze` wrote into DIR.
Exit codes: 0 success, 2 configuration error (a bad config file or option
value), 3 data error (missing or corrupt files, including a manifest whose
embedded config is malformed).
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

from .config import ConfigError, load_config
from .pipeline import REPORT_NAME, analyze_run, simulate_run

OUTPUT_DIR_ENV = "FAIRSAMPLE_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# glibc's mallopt parameter for the free memory kept at the top of a heap.
_M_TOP_PAD = -2
# Free memory each heap keeps at its top instead of returning it to the
# kernel.  It exceeds one scan point's working set (a dense benchmark point
# traces at about 26 MB to analyze and 12 MB to simulate), so the arrays of
# each point reuse the pages the previous point freed instead of faulting
# fresh ones in.  Pages of the pad that are never touched are never resident.
_HEAP_TOP_PAD = 64 * 2**20


def _keep_heap_resident() -> None:
    """Ask the C library to keep ``_HEAP_TOP_PAD`` free at each heap's top.

    The CLI owns its process, so it tunes the allocator; the library does
    not.  A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def _checked(convert, accept, requirement: str):
    """An argparse ``type`` that converts, then rejects values not ``accept``ed."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_jobs = _checked(int, lambda v: v >= 1, "at least 1")
_window = _checked(int, lambda v: 0 <= v <= 2**64 - 1, "in 0..2**64 - 1")
_alpha_level = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
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

    p_ana = sub.add_parser("analyze", help="analyze a simulated run")
    p_ana.add_argument("--manifest", required=True, help="run manifest path")
    p_ana.add_argument(
        "--window",
        type=_window,
        default=None,
        help="coincidence window in ticks (default: value from the run config)",
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

"""Command-line front end: parse instances, run analyses, emit reports.

Each command reads its input file once, so input_digest is the sha256
of the bytes parsed.  This module runs decide; the analysis commands'
handlers are in analysis_io, imported only when one of them runs.

Exit codes are frozen: 0 = a periodic witness exists, 1 = empty,
2 = undecided within budget or a failed self-check (no verified
verdict), 3 = input/usage error, 4 = domain error, 5 = the report
could not be written (standard output was closed).
Every setting comes from argv and is checked by argparse, so a bad
option is a usage error (exit 3, empty stdout).  Each command prints one
report, canonical JSON (sorted keys); only wall_time_s varies between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

from . import serialize as ser
from .grid import CertificateError, DiscreteDomain, OutOfWindow, Vec2
from .sft import DEFAULT_BUDGET, Empty, NonEmptyPeriodic, decide_with_usage

EXIT_NONEMPTY = 0
EXIT_EMPTY = 1
EXIT_UNDECIDED = 2
EXIT_INPUT_ERROR = 3
EXIT_DOMAIN_ERROR = 4
EXIT_UNWRITTEN = 5

# a schema message quotes the offending value, which can be as large as
# the input; report details are cut to this many characters after the path
_DETAIL_CHARS = 200

# The command line's ceiling on balanced_search's area_budget: building
# the candidates takes about 0.4 s at 6 cells, 1.6 s and 51 MB at 7 and
# 5.2 s and 152 MB at 8, growing 3-4x per cell.
MAX_AREA_BUDGET = 7

# The ceiling on a --shape, --window or --support box, checked before a
# cell is built: `complexity` on a 500x500 window peaks at 89 MB in 1.0 s.
# It also caps balanced's --n x --m rectangle: on a 2x2 block, 500 x 500
# exits 4 in 0.14-0.24 s at 49 MB, since it does not fit the default
# 12x12 window, and 490 x 490 in a 500x500 window takes 4-9 s and 144 MB
# (2-core shared VM, whose speed varies in phases).  It caps decide's
# first square too, side shape extent + 1, whose geometry takes about
# 215 B per cell.
MAX_BOX_CELLS = 250_000

# The ceiling on determinism's --R: the probe's head geometry keeps one
# blame bit per earlier step for each check, so memory grows as R^4
# (checkerboard at budget 1: 48 MB at R = 50, 454 MB at 100, 6.6 GB at 200).
MAX_PROBE_RADIUS = 50


try:  # the bare C module imports in a fraction of hashlib's time
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def _read_input(path: str, report: dict):
    """The JSON document at path, from one read; input_digest, set first,
    is the sha256 of the bytes that are parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    report["input_digest"] = "sha256:" + sha256(data).hexdigest()
    try:  # decoded as open(path, encoding="utf-8") would, newlines too
        return json.loads(
            data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise ser.SchemaError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # over 4,300 digits, or not UTF-8
        raise ser.SchemaError(f"{path}: {exc}") from None
    except RecursionError:
        raise ser.SchemaError(f"{path}: JSON nested too deeply") from None


def _bounded(detail: str) -> str:
    path, sep, message = detail.partition(": ")
    if len(message) <= _DETAIL_CHARS:
        return detail
    return f"{path}{sep}{message[:_DETAIL_CHARS]}..."


def _parse_vec(text: str) -> Vec2:
    try:
        x, y = text.split(",")
        return Vec2(int(x), int(y))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'x,y' integers, got {text!r}") from None


def _positive_int(limit: int | None = None, what: str = ""):
    """An argparse type: a positive integer, of at most `limit` if given."""
    def positive_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # else argparse names this function
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"expected a positive integer, got {text!r}")
        if limit is not None and value > limit:
            raise argparse.ArgumentTypeError(
                f"expected {what} of at most {limit}, got {text!r}")
        return value
    return positive_int


def _parse_box(text: str) -> DiscreteDomain:
    """Size spec 'WxH' with optional origin '@x,y', at most MAX_BOX_CELLS."""
    try:
        size, _, origin = text.partition("@")
        w, h = map(int, size.lower().split("x"))
        if origin:
            ox, oy = origin.split(",")
            anchor = Vec2(int(ox), int(oy))
        else:
            anchor = Vec2(0, 0)
        if w * h > MAX_BOX_CELLS:
            raise argparse.ArgumentTypeError(
                f"expected a box of at most {MAX_BOX_CELLS} cells, got {text!r}")
        return DiscreteDomain.rect(w, h, anchor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'WxH' or 'WxH@x,y', got {text!r}") from None


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecraft",
        description="Decision engine and analysis toolkit for "
                    "pattern-defined colorings of the grid.")
    sub = parser.add_subparsers(dest="command", required=True)
    box = f"'WxH' or 'WxH@x,y', at most {MAX_BOX_CELLS} cells"

    p = sub.add_parser("decide", help="emptiness/periodicity decision")
    p.add_argument("input", metavar="pattern_set_file",
                   help="pattern set JSON whose first square, of side "
                        f"shape extent + 1, has at most {MAX_BOX_CELLS} cells")
    p.add_argument("--budget", type=_positive_int(), default=DEFAULT_BUDGET)

    p = sub.add_parser("complexity", help="pattern count on a shape")
    p.add_argument("input", metavar="config_file")
    p.add_argument("--shape", type=_parse_box, required=True, help=box)
    p.add_argument("--window", type=_parse_box, required=True, help=box)

    p = sub.add_parser("annihilator", help="find or build an annihilator")
    p.add_argument("input", metavar="config_file")
    p.add_argument("--support", type=_parse_box, default=None, help=box)
    p.add_argument("--window", type=_parse_box, default=None, help=box)

    p = sub.add_parser("determinism", help="direction forcing probe")
    p.add_argument("input", metavar="pattern_set_file")
    p.add_argument("--dir", type=_parse_vec, required=True, dest="direction")
    p.add_argument("--k", type=_positive_int(), default=2)
    p.add_argument("--R", dest="radius", default=4,
                   type=_positive_int(MAX_PROBE_RADIUS, "a probe radius"),
                   help=f"probe radius, from --k to {MAX_PROBE_RADIUS} "
                        "(default: %(default)s)")
    p.add_argument("--budget", type=_positive_int(), default=DEFAULT_BUDGET)

    p = sub.add_parser("balanced", help="balanced-set search")
    p.add_argument("input", metavar="config_file")
    p.add_argument("--u", type=_parse_vec, required=True, dest="direction")
    p.add_argument("--n", type=_positive_int(), required=True,
                   help="rectangle width")
    p.add_argument("--m", type=_positive_int(), required=True,
                   help="rectangle height; --n x --m is at most "
                        f"{MAX_BOX_CELLS} cells")
    p.add_argument("--window", type=_parse_box, default=None, help=box)
    p.add_argument("--area-budget", default=6,
                   type=_positive_int(MAX_AREA_BUDGET, "an area budget"),
                   help="largest candidate set in cells, from 1 to "
                        f"{MAX_AREA_BUDGET} (default: %(default)s)")
    return parser


def _cmd_decide(args, report: dict, doc) -> int:
    ps = ser.pattern_set_from_json(doc)
    side = ps.shape.max_extent() + 1
    if side * side > MAX_BOX_CELLS:
        raise ser.SchemaError(
            f"expected a first square of at most {MAX_BOX_CELLS} cells, got "
            f"side {side} from a shape of extent {side - 1}")
    outcome, nodes = decide_with_usage(ps, args.budget)
    report["outcome"] = ser.outcome_to_json(outcome)
    report["budget"] = {"limit": args.budget, "nodes_used": nodes}
    if isinstance(outcome, NonEmptyPeriodic):
        report["render"] = ser.render_rows(outcome.witness.values, ps.alphabet)
        return EXIT_NONEMPTY
    if isinstance(outcome, Empty):
        return EXIT_EMPTY
    return EXIT_UNDECIDED


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "determinism" and args.radius < args.k:
            parser.error("--R must be at least --k")
        if args.command == "balanced" and args.n * args.m > MAX_BOX_CELLS:
            parser.error(f"--n x --m must be at most {MAX_BOX_CELLS} cells")
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; 2 collides
        # with the undecided exit code, so usage errors map to 3
        return 0 if exc.code == 0 else EXIT_INPUT_ERROR
    handler = _cmd_decide
    if args.command != "decide":  # analysis_io is imported only here
        from .analysis_io import HANDLERS
        handler = HANDLERS[args.command]
    started = time.monotonic()
    report = {"command": list(argv)}
    try:
        with warnings.catch_warnings():  # one stderr line per warning
            warnings.showwarning = lambda message, category, *_: print(
                f"tilecraft: warning: {category.__name__}: {message}",
                file=sys.stderr)
            code = handler(args, report, _read_input(args.input, report))
    except (OSError, ser.SchemaError) as exc:
        report["error"] = str(exc)
        if isinstance(exc, ser.SchemaError) and exc.errors:
            report["error_details"] = [_bounded(d) for d in exc.errors]
        code = EXIT_INPUT_ERROR
    except CertificateError as exc:  # no verified verdict
        report["error"] = str(exc)
        code = EXIT_UNDECIDED
    except (OutOfWindow, ValueError) as exc:
        report["error"] = str(exc)
        code = EXIT_DOMAIN_ERROR
    report["wall_time_s"] = round(time.monotonic() - started, 6)
    try:
        print(ser.canonical_json(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; as Python's signal docs advise, point stdout
        # at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_UNWRITTEN
    return code


if __name__ == "__main__":
    sys.exit(main())

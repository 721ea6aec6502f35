"""Command-line front end: parse instances, run analyses, emit reports.

Exit codes are frozen: 0 = a periodic witness exists, 1 = empty,
2 = undecided within budget, 3 = input/usage error, 4 = domain error.
Reports are canonical JSON (sorted keys); the only nondeterministic
field is wall_time_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import balanced as bal
from . import serialize as ser
from .algebra import annihilator_search, periodic_annihilator
from .grid import (DiscreteDomain, EmptyWindow, OutOfWindow, PeriodicConfig,
                   Vec2, ZeroVector, is_low_complexity)
from .sft import (DEFAULT_BUDGET, Empty, NonEmptyPeriodic,
                  classify_directions, decide_with_usage)

EXIT_NONEMPTY = 0
EXIT_EMPTY = 1
EXIT_UNDECIDED = 2
EXIT_INPUT_ERROR = 3
EXIT_DOMAIN_ERROR = 4


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ser.SchemaError(
                f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        except RecursionError:
            raise ser.SchemaError(f"{path}: JSON nested too deeply") from None


def _parse_vec(text: str) -> Vec2:
    try:
        x, y = text.split(",")
        return Vec2(int(x), int(y))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'x,y' integers, got {text!r}") from None


def _parse_box(text: str) -> DiscreteDomain:
    """Size spec 'WxH' with optional origin '@x,y'."""
    try:
        size, _, origin = text.partition("@")
        w, h = size.lower().split("x")
        if origin:
            ox, oy = origin.split(",")
            anchor = Vec2(int(ox), int(oy))
        else:
            anchor = Vec2(0, 0)
        return DiscreteDomain.rect(int(w), int(h), anchor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'WxH' or 'WxH@x,y', got {text!r}") from None


def _budget(args) -> int:
    """--budget, else TILECRAFT_BUDGET, else the default; must be positive."""
    text = args.budget
    if text is None:
        text = os.environ.get("TILECRAFT_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ser.SchemaError(
            f"node budget must be a positive integer, got {text!r}")
    return budget


def _emit(report: dict, args, started: float) -> None:
    report["wall_time_s"] = round(time.monotonic() - started, 6)
    if args.ascii:
        _print_ascii(report)
    else:
        print(ser.canonical_json(report))


def _print_ascii(report: dict) -> None:
    for key, value in sorted(report.items()):
        if key in ("render",):
            continue
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    if "render" in report:
        print(report["render"])


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecraft",
        description="Decision engine and analysis toolkit for "
                    "pattern-defined colorings of the grid.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="emptiness/periodicity decision")
    p.add_argument("pattern_set_file")
    p.add_argument("--budget")
    p.add_argument("--symmetry-pruning", action="store_true")

    p = sub.add_parser("complexity", help="pattern count on a shape")
    p.add_argument("config_file")
    p.add_argument("--shape", type=_parse_box, required=True)
    p.add_argument("--window", type=_parse_box, required=True)

    p = sub.add_parser("annihilator", help="find or build an annihilator")
    p.add_argument("config_file")
    p.add_argument("--support", type=_parse_box, default=None)
    p.add_argument("--window", type=_parse_box, default=None)

    p = sub.add_parser("determinism", help="direction forcing probe")
    p.add_argument("pattern_set_file")
    p.add_argument("--dir", type=_parse_vec, required=True, dest="direction")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--R", type=int, default=4, dest="radius")
    p.add_argument("--budget")

    p = sub.add_parser("balanced", help="balanced-set search")
    p.add_argument("config_file")
    p.add_argument("--u", type=_parse_vec, required=True, dest="direction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window", type=_parse_box, default=None)
    p.add_argument("--area-budget", type=int, default=6)

    for sp in sub.choices.values():
        sp.add_argument("--ascii", action="store_true", default=False)
    return parser


def _cmd_decide(args, report: dict) -> int:
    ps = ser.pattern_set_from_json(_load_json(args.pattern_set_file))
    budget = _budget(args)
    outcome, nodes = decide_with_usage(ps, budget,
                                       symmetry_pruning=args.symmetry_pruning)
    report["outcome"] = ser.outcome_to_json(outcome)
    report["budget"] = {"limit": budget, "nodes_used": nodes}
    if isinstance(outcome, NonEmptyPeriodic):
        report["render"] = ser.render_rows(outcome.witness.values, ps.alphabet)
        return EXIT_NONEMPTY
    if isinstance(outcome, Empty):
        return EXIT_EMPTY
    return EXIT_UNDECIDED


def _cmd_complexity(args, report: dict) -> int:
    config = ser.configuration_from_json(_load_json(args.config_file))
    rep = is_low_complexity(config, args.shape, args.window)
    report["outcome"] = {
        "count": rep.count,
        "bound": rep.bound,
        "window_cells": rep.window_cells,
        "low_complexity": rep.low,
    }
    return 0


def _cmd_annihilator(args, report: dict) -> int:
    config = ser.configuration_from_json(_load_json(args.config_file))
    if isinstance(config, PeriodicConfig):
        cert = periodic_annihilator(config)
        report["outcome"] = {"found": True, "mode": "periodic",
                             **ser.certificate_to_json(cert)}
        return 0
    if args.support is None or args.window is None:
        raise ser.SchemaError(
            "window configurations need --support and --window")
    cert = annihilator_search(config, args.window, args.support)
    if cert is None:
        report["outcome"] = {"found": False, "mode": "search"}
    else:
        report["outcome"] = {"found": True, "mode": "search",
                             **ser.certificate_to_json(cert)}
    return 0


def _cmd_determinism(args, report: dict) -> int:
    ps = ser.pattern_set_from_json(_load_json(args.pattern_set_file))
    budget = _budget(args)
    (cl,) = classify_directions(ps, [args.direction], args.k, args.radius,
                                budget)
    report["outcome"] = ser.classification_to_json(cl)
    report["budget"] = {"limit": budget}
    return 0


def _cmd_balanced(args, report: dict) -> int:
    config = ser.configuration_from_json(_load_json(args.config_file))
    window = args.window
    if window is None:
        if not isinstance(config, PeriodicConfig):
            window = config.domain()
        else:
            window = DiscreteDomain.rect(4 * config.span_x + 4,
                                         4 * config.span_y + 4)
    rect_report = bal.is_balanced(config,
                                  DiscreteDomain.rect(args.n, args.m),
                                  args.direction, window)
    result = bal.balanced_search(config, args.n, args.m, args.direction,
                                 window, args.area_budget)
    outcome = {"rectangle": ser.balanced_report_to_json(rect_report)}
    if result is None:
        outcome["search"] = {"found": False}
    else:
        outcome["search"] = {"found": True,
                             **ser.balanced_result_to_json(result)}
    report["outcome"] = outcome
    return 0


_HANDLERS = {
    "decide": (_cmd_decide, "pattern_set_file"),
    "complexity": (_cmd_complexity, "config_file"),
    "annihilator": (_cmd_annihilator, "config_file"),
    "determinism": (_cmd_determinism, "pattern_set_file"),
    "balanced": (_cmd_balanced, "config_file"),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; 2 collides
        # with the undecided exit code, so usage errors map to 3
        return 0 if exc.code == 0 else EXIT_INPUT_ERROR
    handler, input_attr = _HANDLERS[args.command]
    started = time.monotonic()
    report = {"command": list(argv)}
    try:
        report["input_digest"] = _digest(getattr(args, input_attr))
        code = handler(args, report)
    except (OSError, ser.SchemaError) as exc:
        report["error"] = str(exc)
        if isinstance(exc, ser.SchemaError) and exc.errors:
            report["error_details"] = exc.errors
        _emit(report, args, started)
        return EXIT_INPUT_ERROR
    except (ZeroVector, EmptyWindow, OutOfWindow, bal.NotConvex,
            bal.DoesNotFit, ValueError) as exc:
        report["error"] = str(exc)
        _emit(report, args, started)
        return EXIT_DOMAIN_ERROR
    _emit(report, args, started)
    return code


if __name__ == "__main__":
    sys.exit(main())

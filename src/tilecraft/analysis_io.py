"""The analysis commands: configuration and report JSON, CLI handlers.

A document the command line reads keeps a reader and a writer, a report
only its writer and only while a command emits it.  So configurations
have configuration_from_json (checked as serialize checks a pattern set)
and configuration_to_json; annihilator certificates, their polynomials
and the determinism and balanced reports have only *_to_json.  HANDLERS
maps each analysis command to its handler, called with the document
cli.main has read; cli.main imports this module only when one of those
commands runs, so a decision never loads it, nor colorings or probes.
"""

from __future__ import annotations

from .colorings import (PeriodicConfig, WindowConfig, _lattice_hnf,
                        is_low_complexity)
from .grid import DiscreteDomain, Vec2
from .serialize import SchemaError, _validate, pattern_set_from_json

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:  # annotations only: each command loads what it runs
    from .algebra import AnnihilatorCertificate, LaurentPoly
    from .balanced import BalancedReport, BalancedSearchResult
    from .probes import DeterminismReport, DirectionClassification

# The ceiling on annihilator_search's exact elimination, window cells x
# support cells x the smaller of the two: an n x n support on an n x n
# 3-color window takes about 1 s at n = 13 (4.8M), 1.6 s at 14 and 35 s at
# 20, where products of integers hundreds of digits long dominate.
MAX_ELIMINATION_WORK = 5_000_000


def configuration_to_json(c) -> dict:
    if isinstance(c, PeriodicConfig):
        return {
            "kind": "periodic",
            "p1": [c.p1.x, c.p1.y],
            "p2": [c.p2.x, c.p2.y],
            "block": [list(row) for row in c.block],
        }
    if isinstance(c, WindowConfig):
        return {
            "kind": "window",
            "origin": [c.rect.x0, c.rect.y0],
            "rows": [list(row) for row in c.values],
        }
    raise TypeError(f"not a configuration: {c!r}")


def configuration_from_json(data):
    _validate(data, "configuration")
    window = data["kind"] == "window"
    rows = data["rows"] if window else data["block"]
    if any(len(row) != len(rows[0]) for row in rows):
        raise SchemaError(f"{'window' if window else 'block'} rows must all "
                          f"have the same length")
    if window:
        origin = Vec2(*map(int, data.get("origin", (0, 0))))
        return WindowConfig.from_rows(rows, origin)
    rows = [list(map(int, row)) for row in rows]
    p1 = Vec2(*map(int, data.get("p1", (len(rows[0]), 0))))
    p2 = Vec2(*map(int, data.get("p2", (0, len(rows)))))
    if p1.cross(p2) == 0:
        raise SchemaError("periods must be linearly independent")
    # the block rows must cover the reduced fundamental rectangle
    a, b, c = _lattice_hnf([p1, p2])
    if len(rows[0]) < a or len(rows) < c:
        raise SchemaError(
            f"block rows must cover the {a}x{c} reduced fundamental "
            f"rectangle of the declared periods")
    config = PeriodicConfig(a, b, c, tuple(tuple(r[:a]) for r in rows[:c]))
    for j, row in enumerate(rows):
        for i, v in enumerate(row):
            if config.color_at(Vec2(i, j)) != v:
                raise SchemaError(
                    f"block value at ({i},{j}) is inconsistent with the "
                    f"declared periods")
    return config


def poly_to_json(f: LaurentPoly) -> dict:
    return {"terms": [[e.x, e.y, f.coefficient(e)] for e in f.support()]}


def certificate_to_json(cert: AnnihilatorCertificate) -> dict:
    from .algebra import format_poly

    # a certificate only exists after the zero check on its window
    return {
        "poly": poly_to_json(cert.poly),
        "text": format_poly(cert.poly),
        "window_cells": len(cert.window),
        "verified": True,
    }


def determinism_report_to_json(rep: DeterminismReport) -> dict:
    out = {
        "direction": [rep.direction.x, rep.direction.y],
        "k": rep.k,
        "radius": rep.radius,
        "verdict": rep.verdict,
        "box_cells": [[c.x, c.y] for c in rep.box.cells],
        "box_colorings": rep.box_colorings,
        "nodes_used": rep.nodes_used,
        "note": rep.note,
    }
    if rep.witness is not None:
        out["witness"] = {
            "box_pattern": [[c.x, c.y, v] for c, v in rep.witness.box_pattern.items()],
            "centers": list(rep.witness.centers),
        }
    return out


def classification_to_json(cl: DirectionClassification) -> dict:
    return {
        "direction": [cl.u.x, cl.u.y],
        "label": cl.label,
        "forward": determinism_report_to_json(cl.forward),
        "backward": determinism_report_to_json(cl.backward),
    }


def balanced_report_to_json(rep: BalancedReport) -> dict:
    return {
        "direction": [rep.direction.x, rep.direction.y],
        "pattern_count": rep.pattern_count,
        "size": rep.size,
        "inner_pattern_count": rep.inner_pattern_count,
        "edge_size": rep.edge_size,
        "min_line_count": rep.min_line_count,
        "edge_cells": [[c.x, c.y] for c in rep.edge_cells.cells],
        "conditions": [rep.cond_low_complexity, rep.cond_edge_extension,
                       rep.cond_line_length],
        "balanced": rep.balanced,
    }


def balanced_result_to_json(res: BalancedSearchResult) -> dict:
    return {
        "domain": [[c.x, c.y] for c in res.domain.cells],
        "orientation": [res.orientation.x, res.orientation.y],
        "report": balanced_report_to_json(res.report),
    }


def _cmd_complexity(args, report: dict, doc) -> int:
    config = configuration_from_json(doc)
    rep = is_low_complexity(config, args.shape, args.window)
    report["outcome"] = {
        "count": rep.count,
        "bound": rep.bound,
        "window_cells": rep.window_cells,
        "low_complexity": rep.low,
    }
    return 0


def _cmd_annihilator(args, report: dict, doc) -> int:
    from .algebra import annihilator_search, periodic_annihilator

    config = configuration_from_json(doc)
    if isinstance(config, PeriodicConfig):
        cert = periodic_annihilator(config)
        report["outcome"] = {"found": True, "mode": "periodic",
                             "scope": "global", **certificate_to_json(cert)}
        return 0
    if args.support is None or args.window is None:
        raise SchemaError(
            "window configurations need --support and --window")
    rows, cols = len(args.window), len(args.support)
    if rows * cols * min(rows, cols) > MAX_ELIMINATION_WORK:
        raise SchemaError(
            f"expected window cells x support cells x the smaller of the two "
            f"to be at most {MAX_ELIMINATION_WORK}, got {rows} window and "
            f"{cols} support cells")
    cert = annihilator_search(config, args.window, args.support)
    report["outcome"] = {"found": cert is not None, "mode": "search",
                         "scope": "window"}
    if cert is not None:
        report["outcome"].update(certificate_to_json(cert))
    return 0


def _cmd_determinism(args, report: dict, doc) -> int:
    from .probes import classify_directions

    ps = pattern_set_from_json(doc)
    (cl,) = classify_directions(ps, [args.direction], args.k, args.radius,
                                args.budget)
    report["outcome"] = classification_to_json(cl)
    report["budget"] = {"limit": args.budget}
    return 0


def _cmd_balanced(args, report: dict, doc) -> int:
    from . import balanced as bal

    config = configuration_from_json(doc)
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
    outcome = {"rectangle": balanced_report_to_json(rect_report)}
    if result is None:
        outcome["search"] = {"found": False}
    else:
        outcome["search"] = {"found": True,
                             **balanced_result_to_json(result)}
    report["outcome"] = outcome
    return 0


HANDLERS = {"complexity": _cmd_complexity, "annihilator": _cmd_annihilator,
            "determinism": _cmd_determinism, "balanced": _cmd_balanced}

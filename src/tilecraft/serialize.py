"""JSON encoding/decoding of the toolkit's types, plus ASCII rendering.

The JSON forms are canonical: keys sorted, sets emitted in canonical
order, so serializing the same object twice gives identical bytes.
Input documents are checked first against the JSON Schemas in
src/tilecraft/schemas/, then for what a schema cannot state: patterns
cover the shape, colors are in the alphabet, and so on.
"""

from __future__ import annotations

import functools
import json
import os
import re

from .algebra import AnnihilatorCertificate, format_poly, poly_to_json
from .balanced import BalancedReport, BalancedSearchResult
from .grid import (Alphabet, DiscreteDomain, Pattern, PeriodicConfig, Vec2,
                   WindowConfig, _lattice_hnf)
from .sft import (DeterminismReport, DirectionClassification, Empty,
                  NonEmptyPeriodic, PatternSet, TorusWitness, Undecided)


class SchemaError(ValueError):
    """Input document violates the expected structure."""

    def __init__(self, message: str, errors: list[str] | None = None):
        super().__init__(message)
        self.errors = errors or []


@functools.cache
def _schema(name: str) -> dict:
    path = os.path.join(os.path.dirname(__file__), "schemas",
                        f"{name}.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _is_type(value, name: str) -> bool:
    if name == "integer":
        # as in JSON Schema: 1.0 is an integer, true is not
        return (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    return isinstance(value, {"object": dict, "array": list, "string": str}[name])


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each schema keyword that value fails.

    Interprets the JSON Schema keywords the shipped schemas use, with
    the semantics and messages of a Draft 2020-12 validator: every
    keyword is checked, even after a type failure, and a failed oneOf
    is a single error.
    """
    if "type" in schema and not _is_type(value, schema["type"]):
        yield path, f"{value!r} is not of type {schema['type']!r}"
    if "const" in schema and value != schema["const"]:
        yield path, f"{schema['const']!r} was expected"
    if isinstance(value, str) and "pattern" in schema \
            and not re.search(schema["pattern"], value):
        yield path, f"{value!r} does not match {schema['pattern']!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                yield from _schema_errors(value[key], sub, path + (key,))
        extras = sorted(k for k in value if k not in properties)
        if schema.get("additionalProperties") is False and extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 \
                else "is too short"
            yield path, f"{value!r} {short}"
        if len(value) > schema.get("maxItems", len(value)):
            yield path, f"{value!r} is too long"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _schema_errors(item, schema["items"], path + (i,))
    if "oneOf" in schema:
        valid = sum(next(_schema_errors(value, sub, path), None) is None
                    for sub in schema["oneOf"])
        if valid != 1:
            how = "not valid under any" if valid == 0 \
                else "valid under more than one"
            yield path, f"{value!r} is {how} of the given schemas"


def _validate(data, name: str) -> None:
    """Raise SchemaError listing every '$.path: message' violation."""
    errors = sorted(_schema_errors(data, _schema(name)))
    if errors:
        raise SchemaError(f"{name} schema validation failed", [
            f"$.{'.'.join(map(str, path))}: {message}" if path
            else f"$: {message}" for path, message in errors])


_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def color_glyph(alphabet: Alphabet, color: int) -> str:
    idx = alphabet.index(color)
    return _GLYPHS[idx] if idx < len(_GLYPHS) else "?"


def render_rows(rows, alphabet: Alphabet) -> str:
    """One character per cell, highest row printed first (y grows up)."""
    return "\n".join(
        "".join(color_glyph(alphabet, v) for v in row)
        for row in reversed(rows))


# --- domains and shapes ----------------------------------------------------


def shape_to_json(domain: DiscreteDomain):
    if domain.is_rectangle():
        r = domain.bounding_rect()
        if (r.x0, r.y0) == (0, 0):
            return f"rect {r.width} {r.height}"
    return [[c.x, c.y] for c in domain.cells]


def shape_from_json(data) -> DiscreteDomain:
    """A schema-valid shape: 'rect w h' or a list of [x, y] cells."""
    if isinstance(data, str):
        _, w, h = data.split()
        return DiscreteDomain.rect(int(w), int(h))
    return DiscreteDomain(tuple(Vec2(int(x), int(y)) for x, y in data))


def _pattern_to_json(pattern: Pattern):
    dom = pattern.domain
    if dom.is_rectangle():
        r = dom.bounding_rect()
        values = {c: v for c, v in pattern.items()}
        return [[values[Vec2(x, y)] for x in range(r.x0, r.x1 + 1)]
                for y in range(r.y0, r.y1 + 1)]
    return [[c.x, c.y, v] for c, v in pattern.items()]


def _pattern_from_json(data, shape: DiscreteDomain) -> Pattern:
    """Row-major rows (for rectangle shapes) or [x, y, color] cell lists.

    Row-major takes precedence when the dimensions match the shape's
    rectangle; otherwise a cell list is expected.
    """
    rect_form = False
    if shape.is_rectangle():
        r = shape.bounding_rect()
        rect_form = (len(data) == r.height
                     and all(len(row) == r.width for row in data))
    if rect_form:
        r = shape.bounding_rect()
        cells = {Vec2(r.x0 + i, r.y0 + j): int(v)
                 for j, row in enumerate(data) for i, v in enumerate(row)}
    elif all(len(row) == 3 for row in data):
        cells = {Vec2(int(x), int(y)): int(v) for x, y, v in data}
    else:
        raise SchemaError(f"bad pattern {data!r}")
    if set(cells) != set(shape.cells):
        raise SchemaError("pattern cells do not cover the shape")
    return Pattern.of(shape, cells)


# --- pattern sets ----------------------------------------------------------


def pattern_set_to_json(ps: PatternSet) -> dict:
    return {
        "shape": shape_to_json(ps.shape),
        "alphabet": list(ps.alphabet.colors),
        "allowed": [_pattern_to_json(p) for p in ps.sorted_allowed()],
    }


def pattern_set_from_json(data) -> PatternSet:
    _validate(data, "pattern_set")
    shape = shape_from_json(data["shape"])
    try:
        alphabet = Alphabet.of(data["alphabet"])
    except ValueError as exc:
        raise SchemaError(f"bad alphabet: {exc}") from None
    patterns = [_pattern_from_json(p, shape) for p in data["allowed"]]
    for p in patterns:
        for v in p.values:
            if v not in alphabet:
                raise SchemaError(f"pattern color {v} not in alphabet")
    return PatternSet(shape, alphabet, frozenset(patterns))


# --- configurations --------------------------------------------------------


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


# --- results ---------------------------------------------------------------


def period_scan_to_json(scan) -> dict:
    return {"periods": [[t.x, t.y] for t in scan.periods],
            "skipped": [[t.x, t.y] for t in scan.skipped]}


def two_periodic_report_to_json(rep) -> dict:
    return {
        "two_periodic": rep.two_periodic,
        "horizontal": [rep.horizontal.x, rep.horizontal.y] if rep.horizontal else None,
        "vertical": [rep.vertical.x, rep.vertical.y] if rep.vertical else None,
        "scan": period_scan_to_json(rep.scan),
    }


def witness_to_json(w: TorusWitness) -> dict:
    return {"p": w.p, "q": w.q, "values": [list(row) for row in w.values]}


def witness_from_json(data: dict) -> TorusWitness:
    return TorusWitness(int(data["p"]), int(data["q"]),
                        tuple(tuple(int(v) for v in row) for row in data["values"]))


def outcome_to_json(outcome) -> dict:
    if isinstance(outcome, Empty):
        return {"kind": "empty", "n": outcome.n}
    if isinstance(outcome, NonEmptyPeriodic):
        return {"kind": "non_empty_periodic",
                "witness": witness_to_json(outcome.witness)}
    if isinstance(outcome, Undecided):
        return {"kind": "undecided", "nodes_used": outcome.nodes_used,
                "max_n_tried": outcome.max_n_tried,
                "max_pq_tried": outcome.max_pq_tried,
                "low_complexity": outcome.low_complexity}
    raise TypeError(f"not a decision outcome: {outcome!r}")


def certificate_to_json(cert: AnnihilatorCertificate) -> dict:
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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

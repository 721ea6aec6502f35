"""JSON encoding/decoding of pattern sets and decisions, ASCII rendering.

The JSON forms are canonical: keys sorted, sets emitted in canonical
order, so serializing the same object twice gives identical bytes.
Input documents are checked first against the JSON Schemas in
src/tilecraft/schemas/, then for what a schema cannot state: patterns
cover the shape, colors are in the alphabet, and so on.  A document the
command line reads keeps a reader and a writer (pattern_set_*); a result
keeps only its writer.  The forms of configurations and of the analysis
reports are in analysis_io, which a decision never loads.
"""

from __future__ import annotations

import functools
import json
import os
import re

from .grid import Alphabet, DiscreteDomain, Vec2
from .sft import Empty, NonEmptyPeriodic, PatternSet, TorusWitness, Undecided


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


def render_rows(rows, alphabet: Alphabet) -> str:
    """One character per cell, highest row printed first (y grows up); the
    alphabet's colors take _GLYPHS in order, and '?' after the 62nd."""
    glyph = dict(zip(alphabet.colors, _GLYPHS.ljust(len(alphabet), "?")))
    return "\n".join("".join(glyph[v] for v in row) for row in reversed(rows))


# --- domains and shapes ----------------------------------------------------


def shape_to_json(domain: DiscreteDomain):
    if domain.is_rectangle():
        r = domain.bounding_rect()
        if (r.x0, r.y0) == (0, 0):
            return f"rect {r.width} {r.height}"
    return [[c.x, c.y] for c in domain.cells]


def shape_from_json(data) -> DiscreteDomain:
    """A schema-valid shape: 'rect w h' or a list of distinct [x, y] cells."""
    if isinstance(data, str):
        _, w, h = data.split()
        return DiscreteDomain.rect(int(w), int(h))
    shape = DiscreteDomain(tuple(Vec2(int(x), int(y)) for x, y in data))
    if len(shape) != len(data):
        raise SchemaError("shape names a cell more than once")
    return shape


def _pattern_to_json(shape: DiscreteDomain, values: tuple):
    """Row-major rows for rectangle shapes, whose canonical (y, x) cell
    order is row-major; [x, y, color] cells otherwise."""
    if shape.is_rectangle():
        w = shape.bounding_rect().width
        return [list(values[i:i + w]) for i in range(0, len(values), w)]
    return [[c.x, c.y, v] for c, v in zip(shape.cells, values)]


def _pattern_from_json(data, shape: DiscreteDomain, index: int) -> tuple:
    """Values in shape.cells order from row-major rows (for rectangle
    shapes) or [x, y, color] cell lists.

    Row-major takes precedence when the dimensions match the shape's
    rectangle; otherwise a cell list is expected.  Errors name the
    pattern by its index in ``allowed``, since the pattern itself can be
    as large as the input.
    """
    if shape.is_rectangle():
        r = shape.bounding_rect()
        if len(data) == r.height and all(len(row) == r.width for row in data):
            return tuple(v for row in data for v in row)
    if not all(len(row) == 3 for row in data):
        raise SchemaError(f"allowed[{index}] is neither rows of the shape's "
                          f"rectangle nor [x, y, color] cells")
    cells = {(int(x), int(y)): v for x, y, v in data}
    if len(cells) != len(data) or cells.keys() != set(shape.cells):
        raise SchemaError(f"allowed[{index}] does not name each cell of "
                          f"the shape once")
    return tuple(cells[c] for c in shape.cells)


# --- pattern sets ----------------------------------------------------------


def pattern_set_to_json(ps: PatternSet) -> dict:
    return {
        "shape": shape_to_json(ps.shape),
        "alphabet": list(ps.alphabet.colors),
        "allowed": [_pattern_to_json(ps.shape, t)
                    for t in sorted(ps.value_tuples)],
    }


def pattern_set_from_json(data) -> PatternSet:
    _validate(data, "pattern_set")
    shape = shape_from_json(data["shape"])
    try:
        alphabet = Alphabet.of(data["alphabet"])
    except ValueError as exc:
        raise SchemaError(f"bad alphabet: {exc}") from None
    values = [_pattern_from_json(p, shape, i)
              for i, p in enumerate(data["allowed"])]
    try:
        return PatternSet.from_value_tuples(alphabet, shape, values)
    except ValueError as exc:  # a color outside the alphabet
        raise SchemaError(str(exc)) from None


# --- results ---------------------------------------------------------------


def witness_to_json(w: TorusWitness) -> dict:
    return {"p": w.p, "q": w.q, "values": [list(row) for row in w.values]}


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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

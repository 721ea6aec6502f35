import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecraft import serialize
from tilecraft.analysis_io import (configuration_from_json,
                                   configuration_to_json)
from tilecraft.grid import (Alphabet, DiscreteDomain, PeriodicConfig, Vec2,
                            WindowConfig)
from tilecraft.serialize import (SchemaError, canonical_json,
                                 pattern_set_from_json,
                                 pattern_set_to_json, render_rows,
                                 shape_from_json, shape_to_json)
from tilecraft.sft import PatternSet


def test_shape_roundtrip_rect():
    d = DiscreteDomain.rect(3, 2)
    assert shape_to_json(d) == "rect 3 2"
    assert shape_from_json("rect 3 2") == d


def test_shape_roundtrip_cells():
    d = DiscreteDomain([(0, 0), (1, 0), (0, 1)])
    assert shape_from_json(shape_to_json(d)) == d


def test_pattern_set_roundtrip(checkerboard_set):
    data = pattern_set_to_json(checkerboard_set)
    assert pattern_set_from_json(data) == checkerboard_set
    # twice through is the identity
    again = pattern_set_to_json(pattern_set_from_json(data))
    assert again == data


def test_pattern_set_cell_list_form():
    data = {
        "shape": [[0, 0], [1, 0], [0, 1]],
        "alphabet": [0, 1],
        "allowed": [[[0, 0, 1], [1, 0, 0], [0, 1, 1]]],
    }
    ps = pattern_set_from_json(data)
    assert len(ps.allowed) == 1
    assert pattern_set_to_json(ps)["allowed"] == data["allowed"]
    assert pattern_set_from_json(pattern_set_to_json(ps)) == ps


def test_pattern_set_errors():
    with pytest.raises(SchemaError):
        pattern_set_from_json({"shape": "rect 2 2", "alphabet": [0, 1]})
    with pytest.raises(SchemaError):
        pattern_set_from_json({"shape": "sphere", "alphabet": [0],
                               "allowed": []})
    with pytest.raises(SchemaError, match="^pattern color 9 not in alphabet$"):
        pattern_set_from_json({"shape": "rect 2 2", "alphabet": [0],
                               "allowed": [[[0, 9], [0, 0]]]})


def test_pattern_set_repeated_cell_is_schema_error():
    # three [x, y, color] cells on a two-cell shape, (1, 0) named twice
    with pytest.raises(SchemaError, match=r"^allowed\[0\] does not name "):
        pattern_set_from_json({"shape": [[0, 0], [1, 0]], "alphabet": [0, 1],
                               "allowed": [[[0, 0, 0], [1, 0, 1], [1, 0, 0]]]})


def test_configuration_roundtrip_window(five_pattern_window):
    data = configuration_to_json(five_pattern_window)
    assert configuration_from_json(data) == five_pattern_window


def test_configuration_roundtrip_periodic(checkerboard):
    data = configuration_to_json(checkerboard)
    back = configuration_from_json(data)
    assert back == checkerboard


def test_configuration_random_periodic_roundtrip():
    rng = random.Random(23)
    for _ in range(30):
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        block = [[rng.randint(0, 3) for _ in range(w)] for _ in range(h)]
        c = PeriodicConfig.from_block(block)
        assert configuration_from_json(configuration_to_json(c)) == c


@st.composite
def _pattern_sets(draw):
    # shapes anywhere near the origin: rectangles (at the origin they
    # serialize as "rect w h") and arbitrary cell sets
    origin = draw(st.sampled_from([Vec2(0, 0), Vec2(-1, 2), Vec2(3, -2)]))
    if draw(st.booleans()):
        shape = DiscreteDomain.rect(draw(st.integers(1, 3)),
                                    draw(st.integers(1, 3)), origin)
    else:
        box = [origin + (x, y) for y in range(3) for x in range(3)]
        shape = DiscreteDomain(draw(st.sets(st.sampled_from(box),
                                            min_size=1)))
    alphabet = Alphabet.of(draw(st.sets(st.integers(-50, 50), min_size=1,
                                        max_size=4)))
    values = st.tuples(*[st.sampled_from(alphabet.colors)] * len(shape))
    return PatternSet.from_value_tuples(alphabet, shape,
                                        draw(st.lists(values, max_size=6)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_pattern_sets())
def test_pattern_set_roundtrip_random(ps):
    assert pattern_set_from_json(pattern_set_to_json(ps)) == ps


@st.composite
def _configurations(draw):
    colors = st.integers(-50, 50)
    if draw(st.booleans()):
        a, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        b = draw(st.integers(0, a - 1))  # b > 0 shears the lattice
        block = draw(st.lists(st.lists(colors, min_size=a, max_size=a),
                              min_size=c, max_size=c))
        return PeriodicConfig(a, b, c, block)
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(colors, min_size=w, max_size=w),
                         min_size=h, max_size=h))
    origin = Vec2(draw(st.integers(-5, 5)), draw(st.integers(-5, 5)))
    return WindowConfig.from_rows(rows, origin)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_configurations())
def test_configuration_roundtrip_random(c):
    back = configuration_from_json(configuration_to_json(c))
    assert type(back) is type(c)
    cells = (c.domain() if isinstance(c, WindowConfig)
             else DiscreteDomain.rect(12, 12, Vec2(-6, -6)))
    assert [back.color_at(v) for v in cells] == [c.color_at(v) for v in cells]


def test_configuration_periodic_consistency_checked():
    bad = {"kind": "periodic", "p1": [1, 0], "p2": [0, 1],
           "block": [[0, 1], [0, 0]]}
    with pytest.raises(SchemaError):
        configuration_from_json(bad)


def test_configuration_dependent_periods_are_schema_error():
    data = {"kind": "periodic", "p1": [2, 0], "p2": [4, 0],
            "block": [[0, 1]]}
    with pytest.raises(SchemaError, match="linearly independent"):
        configuration_from_json(data)


def test_configuration_skew_periods():
    data = {"kind": "periodic", "p1": [1, 1], "p2": [2, 0],
            "block": [[0, 1], [1, 0]]}
    c = configuration_from_json(data)
    assert c == PeriodicConfig.from_block([[0, 1], [1, 0]])


def test_render_rows():
    a = Alphabet.of([0, 1])
    # highest row first
    assert render_rows(((0, 1), (1, 0)), a) == "10\n01"


def test_canonical_json_stable():
    obj = {"b": [3, 2], "a": {"y": 1, "x": 2}}
    assert canonical_json(obj) == canonical_json(
        {"a": {"x": 2, "y": 1}, "b": [3, 2]})


# --- schema validation against jsonschema as the oracle -----------------------

VALID_DOCS = {
    "pattern_set": [
        {"shape": "rect 2 2", "alphabet": [0, 1],
         "allowed": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]},
        {"shape": [[0, 0], [1, 0], [0, 1]], "alphabet": [0, 1, 2],
         "allowed": [[[0, 0, 1], [1, 0, 2], [0, 1, 0]]]},
    ],
    "configuration": [
        {"kind": "window", "origin": [1, -2], "rows": [[0, 1], [1, 0]]},
        {"kind": "periodic", "p1": [2, 0], "p2": [0, 1], "block": [[0, 1]]},
    ],
}

_SCALARS = [0, -7, 1.0, 1.5, True, False, None, "", "rect 2 2",
            "rect 2 2\n", "rect x 2", "window", "periodic", [], {}, [0],
            [[0, 1]], [0, 0, 0], {"kind": "window"}]
_KEYS = ["shape", "alphabet", "allowed", "kind", "rows", "origin", "block",
         "p1", "p2", "extra"]


def _containers(doc, out):
    if isinstance(doc, (list, dict)):
        out.append(doc)
        for child in (doc.values() if isinstance(doc, dict) else doc):
            _containers(child, out)
    return out


def _copy(value):
    return json.loads(json.dumps(value))


def _mutate(doc, rng):
    """One random edit somewhere in doc (in place); returns the new root."""
    nodes = _containers(doc, [])
    if not nodes or rng.random() < 0.05:
        return _copy(rng.choice(_SCALARS))
    node = rng.choice(nodes)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = rng.randrange(4)
    if op == 0 and keys:
        node[rng.choice(keys)] = _copy(rng.choice(_SCALARS))
    elif op == 1 and keys:
        del node[rng.choice(keys)]
    elif isinstance(node, dict):
        node[rng.choice(_KEYS)] = _copy(rng.choice(_SCALARS))
    elif op == 2 and keys:
        node.append(_copy(node[rng.choice(keys)]))
    else:
        node.append(_copy(rng.choice([0, 1.0, "0", [0], [0, 1, 2]])))
    return doc


def mutated_docs(seed: int, count: int):
    """(schema name, document) pairs: valid documents after 1-3 edits."""
    rng = random.Random(seed)
    names = sorted(VALID_DOCS)
    for i in range(count):
        name = names[i % 2]
        doc = _copy(rng.choice(VALID_DOCS[name]))
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        yield name, doc


def test_schema_check_matches_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema_dir = Path(serialize.__file__).parent / "schemas"
    oracles = {name: jsonschema.Draft202012Validator(json.loads(
        (schema_dir / f"{name}.schema.json").read_text()))
        for name in VALID_DOCS}
    mismatches = []
    n_invalid = 0
    for name, doc in mutated_docs(seed=2, count=20_000):
        errors = sorted(oracles[name].iter_errors(doc),
                        key=lambda e: (list(e.absolute_path), e.message))
        expected = [
            f"$.{'.'.join(map(str, e.absolute_path))}: {e.message}"
            if e.absolute_path else f"$: {e.message}" for e in errors]
        try:
            serialize._validate(doc, name)
            got = []
        except SchemaError as exc:
            got = exc.errors
        if got != expected:
            mismatches.append((name, doc, got, expected))
        n_invalid += bool(expected)
    assert mismatches[:3] == []
    # the corpus exercises both outcomes
    assert 2_000 < n_invalid < 18_000


def test_render_rows_past_the_glyphs():
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    a = Alphabet.of(range(64))
    assert render_rows((tuple(range(64)),), a) == glyphs + "??"


def test_render_rows_negative_colors():
    a = Alphabet.of([5, -2, -1])
    # glyphs follow the sorted alphabet: -2 -> 0, -1 -> 1, 5 -> 2
    assert render_rows(((-2, 5), (-1, -2)), a) == "10\n02"

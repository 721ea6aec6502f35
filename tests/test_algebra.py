import copy
import pickle
import random
import re
import tracemalloc
import warnings

import pytest

from tilecraft import algebra
from tilecraft.algebra import (AnnihilatorCertificate, LaurentPoly,
                               TrivialAnnihilatorWarning, ZeroSeriesWarning,
                               annihilates, annihilator_search, apply,
                               difference_poly, format_poly,
                               periodic_annihilator)
from tilecraft.analysis_io import poly_to_json
from tilecraft.grid import (DiscreteDomain, OutOfWindow, PeriodicConfig, Rect,
                            Vec2, WindowConfig, ZeroVector, find_periods)

import oracles



def random_poly(rng, max_terms=4, span=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = Vec2(rng.randint(-span, span), rng.randint(-span, span))
        terms[e] = rng.randint(-5, 5)
    return LaurentPoly(terms)


def convolve_reference(f, g):
    # independent expansion: iterate all exponent pairs explicitly
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = (e1.x + e2.x, e1.y + e2.y)
            acc[key] = acc.get(key, 0) + c1 * c2
    return LaurentPoly({Vec2(*k): v for k, v in acc.items()})


# --- multiplication ---------------------------------------------------------

def test_mul_identity():
    f = LaurentPoly({(1, 0): 1, (0, 0): -1})
    assert f * LaurentPoly.one() == f


def test_mul_difference_of_squares():
    x_minus = LaurentPoly({(1, 0): 1, (0, 0): -1})
    x_plus = LaurentPoly({(1, 0): 1, (0, 0): 1})
    assert x_minus * x_plus == LaurentPoly({(2, 0): 1, (0, 0): -1})


def test_mul_laurent_cross_terms():
    f = LaurentPoly({(2, -1): 1, (0, 0): -1})
    g = LaurentPoly({(-1, 3): 1, (0, 0): -1})
    expected = LaurentPoly({(1, 2): 1, (2, -1): -1, (-1, 3): -1, (0, 0): 1})
    assert f * g == expected
    assert convolve_reference(f, g) == expected


def test_ring_laws_random():
    rng = random.Random(5)
    for _ in range(60):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


# --- difference_poly --------------------------------------------------------

def test_difference_poly_values():
    assert difference_poly(Vec2(2, 0)) == LaurentPoly({(2, 0): 1, (0, 0): -1})
    assert difference_poly(Vec2(0, 3)) == LaurentPoly({(0, 3): 1, (0, 0): -1})
    with pytest.raises(ZeroVector):
        difference_poly(Vec2(0, 0))


# --- apply / annihilates ----------------------------------------------------

def test_apply_checkerboard(checkerboard):
    f = difference_poly(Vec2(1, 1))
    out = apply(f, checkerboard, DiscreteDomain.rect(5, 5))
    assert set(out.values()) == {0}


def test_apply_constant(constant_zero):
    out = apply(difference_poly(Vec2(1, 0)), constant_zero,
                DiscreteDomain.rect(4, 4))
    assert set(out.values()) == {0}


def test_apply_stripes_never_zero(vertical_stripes):
    out = apply(difference_poly(Vec2(1, 0)), vertical_stripes,
                DiscreteDomain.rect(5, 5))
    assert set(out.values()) == {-1, 1}


def test_apply_on_a_sparse_window_reads_only_its_cells(checkerboard):
    # two far-apart cells: reading their bounding rectangle would build
    # about four million values
    f = difference_poly(Vec2(1, 0))
    window = DiscreteDomain((Vec2(0, 0), Vec2(2000, 2000)))
    tracemalloc.start()
    try:
        out = apply(f, checkerboard, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert out == {n: sum(coeff * checkerboard.color_at(n - e)
                          for e, coeff in f.terms.items())
                   for n in window.cells}


def test_annihilates_period_product(vertical_stripes):
    c = PeriodicConfig.from_periods(Vec2(2, 0), Vec2(0, 3),
                                    lambda x, y: (x % 2) + 2 * (y % 3))
    f = difference_poly(Vec2(2, 0)) * difference_poly(Vec2(0, 3))
    assert annihilates(f, c, DiscreteDomain.rect(10, 10))
    assert not annihilates(difference_poly(Vec2(1, 0)), vertical_stripes,
                           DiscreteDomain.rect(10, 10))


def test_annihilates_zero_poly_warns(checkerboard):
    with pytest.warns(TrivialAnnihilatorWarning):
        assert annihilates(LaurentPoly.zero(), checkerboard,
                           DiscreteDomain.rect(3, 3))


def test_annihilator_ideal_properties(checkerboard):
    rng = random.Random(9)
    w_big = DiscreteDomain.rect(8, 8, Vec2(-4, -4))
    w_small = DiscreteDomain.rect(4, 4, Vec2(-2, -2))
    f = difference_poly(Vec2(1, 1))
    g = f * LaurentPoly({(1, 0): 2})  # another annihilator
    assert annihilates(f, checkerboard, w_big)
    assert annihilates(g, checkerboard, w_big)
    window = DiscreteDomain(c for c in w_big if c in w_small)
    assert annihilates(f + g, checkerboard, window)
    for _ in range(20):
        h = random_poly(rng, max_terms=3, span=1)
        hf = h * f
        if hf.is_zero:
            continue
        assert annihilates(hf, checkerboard, w_small)


def test_difference_poly_iff_period():
    rng = random.Random(13)
    for _ in range(30):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        block = [[rng.randint(0, 2) for _ in range(w)] for _ in range(h)]
        c = PeriodicConfig.from_block(block)
        window = DiscreteDomain.rect(12, 12)
        scan = find_periods(c, None, 3)
        for t in (Vec2(x, y) for y in range(-3, 4) for x in range(-3, 4)):
            if t.is_zero():
                continue
            assert annihilates(difference_poly(t), c, window) == (t in scan)


# --- periodic_annihilator ---------------------------------------------------

def test_periodic_annihilator_axis():
    c = PeriodicConfig.from_periods(Vec2(2, 0), Vec2(0, 3),
                                    lambda x, y: (x % 2) + 2 * (y % 3))
    cert = periodic_annihilator(c)
    expected = difference_poly(Vec2(2, 0)) * difference_poly(Vec2(0, 3))
    assert cert.poly == expected
    assert format_poly(cert.poly) == "x^2*y^3 - x^2 - y^3 + 1"


def test_periodic_annihilator_checkerboard(checkerboard):
    cert = periodic_annihilator(checkerboard)
    expected = difference_poly(Vec2(2, 0)) * difference_poly(Vec2(1, 1))
    assert cert.poly == expected
    assert annihilates(cert.poly, checkerboard, DiscreteDomain.rect(8, 8))


def test_periodic_annihilator_constant(constant_zero):
    cert = periodic_annihilator(constant_zero)
    assert cert.poly == (difference_poly(Vec2(1, 0))
                         * difference_poly(Vec2(0, 1)))


def test_certificate_requires_nonzero():
    with pytest.raises(ValueError):
        AnnihilatorCertificate(LaurentPoly.zero(), DiscreteDomain.rect(2, 2))


def sheared_lattices(seed=25, count=120):
    """Periodic colorings on stored lattices (a, 0), (b, h) with a, h <= 5
    and 0 <= b < a; every third block repeats a smaller block, which the
    constructor often reduces to a finer lattice."""
    rng = random.Random(seed)
    for k in range(count):
        a, h = rng.randint(1, 5), rng.randint(1, 5)
        b = rng.randrange(a)
        if k % 3:
            block = [[rng.randrange(3) for _ in range(a)] for _ in range(h)]
        else:
            sx, sy = rng.randint(1, a), rng.randint(1, h)
            small = [[rng.randrange(3) for _ in range(sx)] for _ in range(sy)]
            block = [[small[y % sy][x % sx] for x in range(a)]
                     for y in range(h)]
        yield (a, b, h), PeriodicConfig(a, b, h, block)


def test_periodic_annihilator_is_the_period_product_on_sheared_lattices():
    reduced = 0
    for stored, c in sheared_lattices():
        reduced += (c.span_x, c.shear, c.span_y) != stored
        cert = periodic_annihilator(c)
        assert cert.poly == difference_poly(c.p1) * difference_poly(c.p2)
    assert reduced >= 20


def test_periodic_certificate_matches_the_public_constructor():
    for _stored, c in sheared_lattices(seed=26, count=40):
        cert = periodic_annihilator(c)
        kept = pickle.loads(pickle.dumps(cert))  # the window still unread
        public = AnnihilatorCertificate(
            difference_poly(c.p1) * difference_poly(c.p2),
            DiscreteDomain.rect(2 * c.span_x, 2 * c.span_y))
        assert len(cert.window) == 4 * c.span_x * c.span_y
        assert cert.window == public.window
        for other in (cert, kept, copy.deepcopy(cert),
                      pickle.loads(pickle.dumps(cert))):
            assert other == public and public == other
            assert hash(other) == hash(public)
            assert repr(other) == repr(public)


def test_periodic_certificate_builds_its_window_on_first_read(monkeypatch):
    c = PeriodicConfig(3, 1, 2, [[0, 1, 2], [2, 1, 0]])
    calls = []
    rect = DiscreteDomain.rect

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return rect(*args, **kwargs)

    monkeypatch.setattr(DiscreteDomain, "rect", classmethod(counting))
    cert = periodic_annihilator(c)
    assert calls == []
    window = cert.window
    assert calls == [(6, 4)]
    assert cert.window is window and calls == [(6, 4)]


# --- annihilator_search -----------------------------------------------------

def test_search_checkerboard_support():
    rows = [[(i + j) % 2 for i in range(6)] for j in range(6)]
    c = WindowConfig.from_rows(rows)
    support = DiscreteDomain.rect(2, 2)
    window = DiscreteDomain.rect(4, 4, Vec2(1, 1))
    cert = annihilator_search(c, window, support)
    assert cert is not None
    assert annihilates(cert.poly, c, window)
    # the solution space contains both x*y - 1 and x - y
    assert annihilates(difference_poly(Vec2(1, 1)), c, window)
    assert annihilates(LaurentPoly({(1, 0): 1, (0, 1): -1}), c, window)


def test_search_full_complexity_not_found(de_bruijn_window):
    support = DiscreteDomain.rect(2, 2)
    window = DiscreteDomain.rect(4, 4, Vec2(1, 1))
    assert annihilator_search(de_bruijn_window, window, support) is None


def test_search_zero_series_warns(constant_zero):
    support = DiscreteDomain.rect(2, 2)
    window = DiscreteDomain.rect(3, 3)
    with pytest.warns(ZeroSeriesWarning):
        cert = annihilator_search(constant_zero, window, support)
    assert cert.poly == LaurentPoly({(0, 0): 1})  # smallest support cell


def test_search_primitive_normalization():
    # doubled checkerboard colors: kernel vectors scale, result stays primitive
    rows = [[2 * ((i + j) % 2) for i in range(6)] for j in range(6)]
    c = WindowConfig.from_rows(rows)
    cert = annihilator_search(c, DiscreteDomain.rect(4, 4, Vec2(1, 1)),
                              DiscreteDomain.rect(2, 2))
    coeffs = sorted(cert.poly.terms.values())
    import math
    assert math.gcd(*coeffs) == 1


def test_search_empty_window_is_an_error(checkerboard):
    # with no equation every nonzero polynomial would annihilate
    with pytest.raises(ValueError, match="^window must be nonempty$"):
        annihilator_search(checkerboard, DiscreteDomain(()),
                           DiscreteDomain.rect(2, 2))


# --- row reads against per-cell references ----------------------------------

def random_periodic(rng):
    a, h = rng.randint(1, 4), rng.randint(1, 4)
    block = [[rng.randrange(3) for _ in range(a)] for _ in range(h)]
    return PeriodicConfig(a, rng.randrange(a), h, block)


def random_window(rng, span=4, side=7):
    """A rectangle with an origin that may be negative, or a ragged,
    holed subset of one."""
    r = DiscreteDomain.rect(rng.randint(1, side), rng.randint(1, side),
                            Vec2(rng.randint(-span, span), rng.randint(-span, span)))
    if rng.random() < 0.5:
        return r
    return DiscreteDomain(n for n in r if rng.random() < 0.7)


def per_cell_apply(f, c, window):
    """The cell-by-cell sum, reading c through color_at."""
    items = [(e, f.coefficient(e)) for e in f.support()]
    return {n: sum(coeff * c.color_at(n - e) for e, coeff in items)
            for n in window.cells}


def outcome(call):
    try:
        return list(call().items())
    except OutOfWindow as exc:
        return ("OutOfWindow", str(exc))


def test_periodic_apply_matches_block_color_oracle():
    rng = random.Random(2003)
    sheared = 0
    for _ in range(400):
        c = random_periodic(rng)
        sheared += c.shear > 0
        f = random_poly(rng, max_terms=5, span=3)
        window = random_window(rng)
        a, b, h, block = c.span_x, c.shear, c.span_y, c.block
        expected = [(n, sum(coeff * oracles.block_color(a, b, h, block, n - e)
                            for e, coeff in f.terms.items()))
                    for n in window.cells]
        assert list(apply(f, c, window).items()) == expected
    assert sheared > 50


def test_window_apply_matches_per_cell_path():
    rng = random.Random(2011)
    rows_read = outside = 0
    for _ in range(600):
        w, h = rng.randint(4, 12), rng.randint(4, 12)
        c = WindowConfig(Rect.of_size(w, h, Vec2(rng.randint(-6, 0),
                                                 rng.randint(-6, 0))),
                         [[rng.randint(-4, 4) for _ in range(w)]
                          for _ in range(h)])
        f = random_poly(rng, max_terms=4, span=2)
        window = random_window(rng, span=2, side=5)
        expected = outcome(lambda: per_cell_apply(f, c, window))
        assert outcome(lambda: apply(f, c, window)) == expected
        if window.is_rectangle() and not f.is_zero:
            if isinstance(expected, tuple):
                outside += 1
            else:
                rows_read += 1
    assert rows_read > 50 and outside > 50


def test_block_check_agrees_with_annihilates_on_two_blocks():
    rng = random.Random(2027)
    verdicts = set()
    for _ in range(400):
        c = random_periodic(rng)
        f = random_poly(rng, max_terms=3, span=2)
        if rng.random() < 0.5:  # a multiple of a lattice vector's difference
            t = rng.randint(-2, 2) * c.p1 + rng.randint(-2, 2) * c.p2
            f = f * difference_poly(t) if not t.is_zero() else f
        if f.is_zero:
            continue
        window = DiscreteDomain.rect(2 * c.span_x, 2 * c.span_y)
        vanishes = not any(map(any, algebra._fc_block(f, c)))
        assert vanishes == annihilates(f, c, window)
        verdicts.add(vanishes)
    assert verdicts == {True, False}


def test_search_rows_match_color_at(monkeypatch):
    systems = []
    monkeypatch.setattr(algebra, "nullspace_vector",
                        lambda rows: systems.append(rows))
    rng = random.Random(2039)
    rows_read = outside = 0
    for _ in range(400):
        w, h = rng.randint(4, 12), rng.randint(4, 12)
        c = WindowConfig(Rect.of_size(w, h, Vec2(rng.randint(-6, 0),
                                                 rng.randint(-6, 0))),
                         [[rng.randrange(3) for _ in range(w)]
                          for _ in range(h)])
        window = random_window(rng, span=2, side=5)
        support = random_window(rng, span=1, side=3)
        if not len(window) or not len(support):
            continue
        try:
            expected = [[c.color_at(n - t) for t in support] for n in window]
        except OutOfWindow as exc:
            with pytest.raises(OutOfWindow, match=f"^{re.escape(str(exc))}$"):
                annihilator_search(c, window, support)
            outside += 1
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroSeriesWarning)
            assert annihilator_search(c, window, support) is None
        assert systems.pop() == expected
        # all reads of two rectangles lie in c.rect, so the rows were read
        rows_read += window.is_rectangle() and support.is_rectangle()
    assert rows_read > 50 and outside > 50


# --- text and json round trips ----------------------------------------------

def test_format_examples():
    f = (LaurentPoly({(2, -1): 1, (0, 0): -1})
         * LaurentPoly({(-1, 3): 1, (0, 0): -1}))
    assert format_poly(f) == "-x^2*y^-1 + x*y^2 + 1 - x^-1*y^3"
    assert format_poly(LaurentPoly.zero()) == "0"
    assert format_poly(LaurentPoly({(0, 0): -7})) == "-7"


def test_roundtrip_random():
    rng = random.Random(17)
    for _ in range(200):
        f = random_poly(rng, max_terms=5, span=3)
        terms = poly_to_json(f)["terms"]
        assert LaurentPoly({(a, b): k for a, b, k in terms}) == f
        assert [Vec2(a, b) for a, b, _ in terms] == list(f.support())

"""Decision engine and analysis toolkit for low-complexity grid colorings.

Colorings of the two-dimensional integer grid are constrained by a
finite set of allowed local patterns.  The package decides whether any
coloring satisfies the constraints (emptiness certificate or periodic
torus witness), and provides the supporting machinery: pattern
complexity counts, exact Laurent-polynomial annihilators, direction
forcing probes, and balanced-set geometry.

The names of the analysis modules, ``algebra`` and ``balanced`` (and
``linalg`` beneath them), load on first use, so a decision never
imports them.
"""

from .grid import (Alphabet, CertificateError, ComplexityReport,
                   Configuration, DiscreteDomain, EmptyWindow, OutOfWindow,
                   Pattern, PeriodScan, PeriodicConfig, Rect,
                   TwoPeriodicReport, Vec2, WindowConfig, ZeroVector,
                   color_at, find_periods, is_low_complexity,
                   is_two_periodic, patterns_of, translate)
from .sft import (BUDGET_EXCEEDED, DEFAULT_BUDGET, DecisionOutcome,
                  DeterminismReport, DirectionClassification, Empty,
                  NonEmptyPeriodic, NonForcedWitness, PatternSet,
                  TorusWitness, Undecided, box_cells, classify_directions,
                  decide, decide_with_usage, determinism_probe, torus_search,
                  valid_square, validate_witness)

__version__ = "0.1.0"

# name -> the module it is read from on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("algebra", "balanced", "linalg"), None),
    **dict.fromkeys((
        "AnnihilatorCertificate", "LaurentPoly", "TrivialAnnihilatorWarning",
        "X", "Y", "ZeroSeriesWarning", "annihilates", "annihilator_search",
        "apply", "difference_poly", "format_poly", "parse_poly",
        "periodic_annihilator", "poly_mul"), "algebra"),
    **dict.fromkeys((
        "BalancedReport", "BalancedSearchResult", "DoesNotFit", "NotConvex",
        "NotLowComplexityWarning", "Stripe", "StripeScenarioReport",
        "balanced_search", "edge", "fits", "is_balanced", "is_convex",
        "stripe_scenario_check"), "balanced"),
}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = _LAZY[name]
    if module is None:  # a submodule: importing it binds it here
        return import_module(f"{__name__}.{name}")
    value = globals()[name] = getattr(
        import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

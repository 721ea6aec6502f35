"""Decision engine and analysis toolkit for low-complexity grid colorings.

Colorings of the two-dimensional integer grid are constrained by a
finite set of allowed local patterns.  The package decides whether any
coloring satisfies the constraints (emptiness certificate or periodic
torus witness), and provides the supporting machinery: pattern
complexity counts, exact Laurent-polynomial annihilators, direction
forcing probes, and balanced-set geometry.

``import tilecraft`` loads the decision path only: the values of grid
and the decision of sft.  The names of colorings, probes, algebra and
balanced, and the algebra, balanced and linalg modules themselves,
load on first use, so a decision never imports them.
"""

from . import grid, sft
from .grid import (Alphabet, CertificateError, DiscreteDomain, EmptyWindow,
                   OutOfWindow, Pattern, Rect, Vec2, ZeroVector, _lazy)
from .sft import (BUDGET_EXCEEDED, DEFAULT_BUDGET, DecisionOutcome, Empty,
                  NonEmptyPeriodic, PatternSet, TorusWitness, Undecided,
                  decide, decide_with_usage, torus_search, valid_square,
                  validate_witness)

__version__ = "0.1.0"

# name -> the module it is read from on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("algebra", "balanced", "linalg"), None),
    **grid._MOVED,  # the colorings names
    **sft._MOVED,  # the probes names
    **dict.fromkeys((
        "AnnihilatorCertificate", "LaurentPoly", "TrivialAnnihilatorWarning",
        "ZeroSeriesWarning", "annihilates", "annihilator_search", "apply",
        "difference_poly", "format_poly", "periodic_annihilator"), "algebra"),
    **dict.fromkeys((
        "BalancedReport", "BalancedSearchResult", "NotConvex",
        "NotLowComplexityWarning", "balanced_search", "edge", "is_balanced",
        "is_convex"), "balanced"),
}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY))
__getattr__ = _lazy(globals(), _LAZY)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

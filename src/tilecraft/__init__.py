"""Decision engine and analysis toolkit for low-complexity grid colorings.

Colorings of the two-dimensional integer grid are constrained by a
finite set of allowed local patterns.  The package decides whether any
coloring satisfies the constraints (emptiness certificate or periodic
torus witness), and provides the supporting machinery: pattern
complexity counts, exact Laurent-polynomial annihilators, direction
forcing probes, and balanced-set geometry.
"""

from .grid import (Alphabet, CertificateError, ComplexityReport,
                   Configuration, DiscreteDomain, EmptyWindow, OutOfWindow,
                   Pattern, PeriodScan, PeriodicConfig, Rect,
                   TwoPeriodicReport, Vec2, WindowConfig, ZeroVector,
                   color_at, find_periods, is_low_complexity,
                   is_two_periodic, patterns_of, translate)
from .algebra import (AnnihilatorCertificate, LaurentPoly,
                      TrivialAnnihilatorWarning, X, Y, ZeroSeriesWarning,
                      annihilates, annihilator_search, apply, difference_poly,
                      format_poly, parse_poly, periodic_annihilator, poly_mul)
from .sft import (BUDGET_EXCEEDED, DEFAULT_BUDGET, DecisionOutcome,
                  DeterminismReport, DirectionClassification, Empty,
                  NonEmptyPeriodic, NonForcedWitness, PatternSet,
                  TorusWitness, Undecided, box_cells, classify_directions,
                  decide, decide_with_usage, determinism_probe, torus_search,
                  valid_square, validate_witness)
from .balanced import (BalancedReport, BalancedSearchResult, DoesNotFit,
                       NotConvex, NotLowComplexityWarning, Stripe,
                       StripeScenarioReport, balanced_search, edge, fits,
                       is_balanced, is_convex, stripe_scenario_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

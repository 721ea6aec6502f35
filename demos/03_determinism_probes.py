"""Direction forcing probes: does a half-plane side determine the rest?

The probe checks, at a finite radius, whether the contents of a
discrete box next to a cell force that cell's color in every locally
valid coloring.  Forced both ways along a direction corresponds to
expansivity; the full shift is non-deterministic in every direction.
"""

from tilecraft import Alphabet, DiscreteDomain, Vec2
from tilecraft.probes import box_cells, classify_directions
from tilecraft.sft import PatternSet

alphabet = Alphabet.of([0, 1])
square = DiscreteDomain.rect(2, 2)

print("probe box for direction (0,1), width 2:",
      [tuple(c) for c in box_cells(Vec2(0, 1), 2)])
print("probe box for direction (-1,2), width 10 has",
      len(box_cells(Vec2(-1, 2), 10)), "cells")
print()

sets = {
    "checkerboard": PatternSet.from_value_tuples(
        alphabet, square, [(0, 1, 1, 0), (1, 0, 0, 1)]),
    "full shift": PatternSet.full_shift(alphabet, square),
    "all-zero": PatternSet.from_value_tuples(alphabet, square, [(0, 0, 0, 0)]),
}

directions = [Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)]
for name, ps in sets.items():
    results = classify_directions(ps, directions, k=2, radius=4,
                                  budget=200_000)
    labels = ", ".join(f"{tuple(r.u)}: {r.label}" for r in results)
    print(f"{name:13s} {labels}")

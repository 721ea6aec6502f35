"""Balanced-set geometry: edges, convexity and the three conditions.

A convex cell set is balanced for a direction when the coloring is low
complexity on it, removing its directional edge loses almost nothing,
and no perpendicular cut is much shorter than that edge.  Balanced
sets drive the periodicity argument; the bounded search below looks
for one in canonical order.
"""

from tilecraft import (DiscreteDomain, PeriodicConfig, Vec2, WindowConfig,
                       balanced_search, edge, find_periods, is_balanced,
                       is_convex)

triangle = DiscreteDomain([(0, 0), (1, 0), (0, 1)])
print("triangle convex:", is_convex(triangle))
print("gap {(0,0),(2,0)} convex:", is_convex(DiscreteDomain([(0, 0), (2, 0)])))
print("edge of the triangle toward (1,1):",
      [tuple(c) for c in edge(triangle, Vec2(1, 1))])
print()

window = DiscreteDomain.rect(10, 10)
checkerboard = PeriodicConfig.from_block([[0, 1], [1, 0]])
report = is_balanced(checkerboard, DiscreteDomain.rect(2, 2), Vec2(0, 1),
                     window)
print("checkerboard 2x2 toward (0,1):",
      f"patterns={report.pattern_count}, inner={report.inner_pattern_count},",
      f"edge={report.edge_size} -> balanced: {report.balanced}")

result = balanced_search(checkerboard, 2, 2, Vec2(1, 0), window)
print("first balanced set found:", [tuple(c) for c in result.domain],
      "oriented", tuple(result.orientation))
print()

# the stripe argument: two colorings that agree on the interior of the
# width-3 band -3 < x <= 0 but not on its edge column x = 0 point to a
# period perpendicular to the band's direction (1, 0)
rows_d = [[x % 2 for x in range(-4, 4)] for _ in range(6)]
rows_e = [list(r) for r in rows_d]
for r in rows_e:
    r[4] ^= 1  # disturb the band's edge column x = 0
d = WindowConfig.from_rows(rows_d, Vec2(-4, 0))
e = WindowConfig.from_rows(rows_e, Vec2(-4, 0))


def agree(columns):
    return all(d.color_at(Vec2(x, y)) == e.color_at(Vec2(x, y))
               for x in columns for y in range(6))


print("band interior x = -2, -1 agrees:", agree((-2, -1)))
print("band edge column x = 0 differs:", not agree((0,)))
scan = find_periods(d, DiscreteDomain.rect(8, 6, Vec2(-4, 0)), 2)
print("periods perpendicular to (1, 0):",
      [tuple(p) for p in scan if p.dot(Vec2(1, 0)) == 0])

"""A midpoint-convexity probe: the shape of a function on a grid, for tests."""

from itertools import pairwise


def midpoint_shape(fn, grid):
    """"convex", "concave" or "neither": fn at each midpoint of `grid` against the
    chord over its two grid neighbours, with ties within 1e-12 (below quadrature
    noise, above rounding noise).  Affine data counts as convex, a NaN as neither.
    This is falsification on the grid, never a proof."""
    xs = grid.points()
    chords = [0.5 * (fa + fb) for fa, fb in pairwise(map(fn, xs))]
    gaps = [fn(0.5 * (a + b)) - chord for (a, b), chord in zip(pairwise(xs), chords)]
    above = not all(gap <= 1e-12 for gap in gaps)  # a NaN gap is above and below
    below = not all(gap >= -1e-12 for gap in gaps)
    return "neither" if above and below else "concave" if above else "convex"

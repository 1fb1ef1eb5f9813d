"""Hermite-Hadamard sandwiches for means and the catalog chains.

For a representation pair (M, N) with n(u)/u convex the sandwich
H(A, N) <= M <= N^{1/2} holds, sharpened below by the four-argument
harmonic mean H(A, N^{1/2}, N^{1/2}, N); concave n(u)/u reverses it, and
the (T, C) / (NS, R) pairs get their reversed sandwich from closed-form
envelope lemmas instead.
"""

import math

from meanlab import (
    PAIR_CATALOG,
    builtin_chain,
    default_pair_grid,
    envelope_lemma,
    hh_bounds,
    hh_refined_lower,
    run_chain_suite,
)

x, y = 1.0, 3.0
print(f"sandwich bounds at ({x:g}, {y:g}):")
for mean_id in ("G", "H", "C", "R", "V"):
    lower, upper = hh_bounds(mean_id, x, y)
    refined = hh_refined_lower(mean_id, x, y)
    print(f"  N = {mean_id:2s}:  H(A,N) = {lower:.12f}   refined = {refined:.12f}"
          f"   N^(1/2) = {upper:.12f}")

print()
print("all built-in chains on the default grid (110 pairs, margins relative")
print("to the local arithmetic mean):")
for entry in PAIR_CATALOG:
    spec = builtin_chain(entry.chain)
    report = run_chain_suite(spec)
    labels = " <= ".join(label for label, _ in spec.terms)
    status = "ok" if report.passed else "FAILED"
    print(f"  {entry.chain:9s} [{entry.form:8s}] min margin {report.min_margin:9.3e}"
          f"  {status}")
    print(f"            {labels}")

print()
print("spot values at (1, 3) for the logarithmic-mean chain:")
spec = builtin_chain("hh-L-H")
values = [fn(x, y) for _, fn in spec.terms]
print("  " + " <= ".join(f"{v:.6f}" for v in values))
print(f"  (12/7 = {12 / 7:.6f}, 360/201 = {360 / 201:.6f}, "
      f"2/ln3 = {2 / math.log(3):.6f}, 15/8 = {15 / 8:.6f})")

print()
print("envelope lemmas backing the reversed chains:")
for kind, target in (("arctan", math.atan), ("arsinh", math.asinh)):
    u = 0.5
    lower, upper = envelope_lemma(kind, u)
    print(f"  {kind}: {upper:.6f} > {target(u):.6f} > {lower:.6f}   at u = {u}")
worst = min(min(envelope_lemma("arctan", k / 1000.0)[1] - math.atan(k / 1000.0),
                math.atan(k / 1000.0) - envelope_lemma("arctan", k / 1000.0)[0])
            for k in range(1, 1000))
print(f"  smallest arctan gap over 999 points: {worst:.3e} (strictly positive)")

print()
print("rescaling invariance: the same chain margins at 1000x the scale:")
report_small = run_chain_suite(builtin_chain("hh-L-H"), [(1.0, 3.0)])
report_large = run_chain_suite(builtin_chain("hh-L-H"), [(1000.0, 3000.0)])
print(f"  (1, 3):       {[f'{m:.3e}' for m in report_small.points[0].margins]}")
print(f"  (1000, 3000): {[f'{m:.3e}' for m in report_large.points[0].margins]}")
print()
print(f"default grid size: {len(default_pair_grid())} pairs "
      f"(100 canonical + 10 rescaled)")

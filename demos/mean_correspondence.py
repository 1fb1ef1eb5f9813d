"""Tour of the mean catalog and the Seiffert-function correspondence.

Every symmetric homogeneous mean M corresponds to a function
f_M(z) = z / M(1-z, 1+z) inside the band z/(1+z) <= f <= z/(1-z), and the
mean is recovered as M(x, y) = |x-y| / (2 f(z)) with z = |x-y|/(x+y).
This script walks through the catalog, checks the band, round-trips every
mean, and shows the midpoint deformation M^{t}.
"""

import math

from meanlab import (
    CATALOG,
    GridSpec,
    MEAN_IDS,
    deform_mean,
    eval_mean,
    mean_of_seiffert,
    relative_half_spread,
    seiffert_bounds,
    seiffert_of_mean,
)

x, y = 1.0, 3.0
z = relative_half_spread(x, y)

print(f"pair (x, y) = ({x:g}, {y:g}), half-spread z = {z:g}")
print()
print(f"{'id':10s} {'M(1,3)':>18s} {'f_M(0.5)':>18s}  display")
for mean_id in MEAN_IDS:
    desc = CATALOG[mean_id]
    f = seiffert_of_mean(mean_id)
    print(f"{mean_id:10s} {desc(x, y):18.15f} {f(z):18.15f}  {desc.display}")

print()
print("the catalog is totally ordered at this pair; larger mean <=> smaller")
print("Seiffert function:")
by_value = sorted(MEAN_IDS, key=lambda m: eval_mean(m, x, y))
print("  means ascending: ", " <= ".join(by_value))
by_f = sorted(MEAN_IDS, key=lambda m: seiffert_of_mean(m)(z), reverse=True)
print("  f descending:    ", " <= ".join(by_f))

print()
print("band check: z/(1+z) <= f_M(z) <= z/(1-z) on a probe grid")
zs = GridSpec(0.01, 0.99, 99).points()
worst = 1.0
for mean_id in MEAN_IDS:
    f = seiffert_of_mean(mean_id)
    for zi in zs:
        lower, upper = seiffert_bounds(zi)
        value = f(zi)
        worst = min(worst, value - lower, upper - value)
print(f"  smallest distance to a band edge over the whole catalog: {worst:.3e}")

print()
print("round-trip mean -> Seiffert function -> mean:")
worst = 0.0
for mean_id in MEAN_IDS:
    rebuilt = mean_of_seiffert(seiffert_of_mean(mean_id))
    for zi in GridSpec(1e-4, 0.99, 50, "log").points():
        a, b = 1.0 - zi, 1.0 + zi
        ref = eval_mean(mean_id, a, b)
        worst = max(worst, abs(rebuilt(a, b) - ref) / ref)
print(f"  max relative deviation over {len(MEAN_IDS)} means x 50 pairs: {worst:.3e}")

print()
print("midpoint deformation M^t pulls the pair toward its arithmetic mean:")
for t in (1.0, 0.75, 0.5, 0.25):
    g_t = deform_mean("G", t)(x, y)
    c_t = deform_mean("C", t)(x, y)
    print(f"  t = {t:4.2f}:  G^t(1,3) = {g_t:.12f}   C^t(1,3) = {c_t:.12f}")
print("  (t = 1/2 gives the closed forms sqrt(3A^2+G^2)/2 = "
      f"{math.sqrt(3.75):.12f} and (5A^2-G^2)/(4A) = {17 / 8:.12f})")

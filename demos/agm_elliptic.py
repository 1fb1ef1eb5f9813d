"""The AGM iteration, complete elliptic integrals, and the mean V.

Gauss's identity AGM(1-z, 1+z) = pi/(2 K(z)) makes the Seiffert function
of the AGM mean equal to (2/pi) z K(z).  Its derivative series has
coefficients c_m = (2m+1) [(2m-1)!!/(2m)!!]^2 with the exact ratio
(2m+1)(2m+3)/(2m+2)^2 < 1, which pins the derivative inside the band and
hands the AGM mean its harmonic representation V = pi H / (2 E(z)).
"""

import math
from fractions import Fraction

from meanlab import (
    agm,
    agm_coefficient,
    agm_coefficient_ratio,
    agm_seiffert_prime,
    ellip_e,
    ellip_k,
    ellip_k_prime,
    seiffert_of_mean,
    v_mean,
)

print("the coupled iteration a <- (a+b)/2, b <- sqrt(ab) converges quadratically:")
a, b = 1.0, 3.0
step = 0
while b - a > 1e-15 * b:
    print(f"  step {step}: a = {a:.15f}   b = {b:.15f}   gap = {b - a:.3e}")
    a, b = math.sqrt(a * b), 0.5 * (a + b)
    step += 1
print(f"  AGM(1, 3) = {agm(1, 3):.15f}")

print()
print("three independent routes to K agree:")
for z in (0.25, 0.5, 0.75, 0.9):
    via_agm = ellip_k(z)
    via_series = ellip_k(z, method="series")
    via_quad = ellip_k(z, method="quadrature")
    spread = max(via_agm, via_series, via_quad) - min(via_agm, via_series, via_quad)
    print(f"  z = {z:4.2f}:  K = {via_agm:.15f}   route spread = {spread:.2e}")

print()
print("Gauss identity AGM(1-z, 1+z) * (2/pi) K(z) = 1:")
for z in (0.1, 0.5, 0.9):
    product = agm(1.0 - z, 1.0 + z) * (2.0 / math.pi) * ellip_k(z, method="series")
    print(f"  z = {z:3.1f}:  product - 1 = {product - 1.0:+.2e}")

print()
print("derivative formula K'(z) = E/(z(1-z^2)) - K/z against differences:")
for z in (0.3, 0.6, 0.9):
    fd = (ellip_k(z + 1e-5) - ellip_k(z - 1e-5)) / 2e-5
    print(f"  z = {z:3.1f}:  formula {ellip_k_prime(z):.12f}   "
          f"difference {fd:.12f}")

print()
print("series coefficients of the AGM Seiffert derivative:")
print(f"  c_1 = {agm_coefficient(1)} (exactly {Fraction(agm_coefficient(1))})")
print(f"  c_2/c_1 = {agm_coefficient_ratio(1)}")
for m in (1, 2, 5, 10, 100, 1000):
    print(f"  c_{m:<4d} = {agm_coefficient(m):.15f}  (< 1)")
print("  so 1 < f'(z) < 1/(1-z): the AGM mean admits a harmonic representation")

print()
print("the Seiffert function f(z) = z / AGM(1-z, 1+z) = (2/pi) z K(z), its derivative:")
f = seiffert_of_mean("AGM")
for z in (0.2, 0.5, 0.8):
    print(f"  z = {z:3.1f}:  f = {f(z):.12f}   "
          f"f' = {agm_seiffert_prime(z):.12f}   band: (1, {1 / (1 - z):.3f})")

print()
print("the representer V(x, y) = pi H(x, y) / (2 E(z)):")
print(f"  E(0.5) = {ellip_e(0.5):.15f}")
print(f"  V(1, 3) = {v_mean(1, 3):.15f}")
print(f"  AGM(1, 3) = {agm(1, 3):.15f}  (V < AGM < A, as a representer must)")

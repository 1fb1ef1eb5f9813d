"""Harmonic representations: which means admit one, and verifying them.

N represents M when 1/M(x,y) equals the integral of dt/N^{t}(x,y) over
t in [0,1]; equivalently m = I(n) for the Seiffert functions, where
I(f)(z) integrates f(u)/u.  Representability reduces to the derivative
band 1/(1+z) <= m'(z) <= 1/(1-z), and then n(z) = z m'(z).
"""

from meanlab import (
    PAIR_CATALOG,
    GridSpec,
    apply_i_operator,
    check_representable,
    construct_candidate,
    default_pairs,
    i_envelope,
    log_envelope_check,
    make_envelope_gap_example,
    seiffert_of_mean,
    verify_identity,
)

print("the integral operator I maps representer to represented:")
for represented, representer in (("P", "G"), ("T", "C"), ("L", "H")):
    n = seiffert_of_mean(representer)
    m = seiffert_of_mean(represented)
    z = 0.5
    print(f"  I(f_{representer})({z}) = {apply_i_operator(n, z):.15f}   "
          f"f_{represented}({z}) = {m(z):.15f}")

print()
print("candidate construction n(z) = z m'(z) recovers each representer:")
for entry in PAIR_CATALOG:
    candidate = construct_candidate(seiffert_of_mean(entry.represented))
    target = seiffert_of_mean(entry.representer)
    dev = max(abs(candidate(z) - target(z)) for z in (0.1, 0.5, 0.9))
    print(f"  {entry.represented:4s} -> {entry.representer:9s} "
          f"max |candidate - f_N| = {dev:.2e}")

print()
print("the defining identity, verified by quadrature on 20 pairs:")
for entry in PAIR_CATALOG:
    report = verify_identity(entry.represented, entry.representer,
                             default_pairs(20), tol=1e-9)
    status = "ok" if report.passed else "FAILED"
    print(f"  1/{entry.represented} = integral dt/{entry.representer}^t : "
          f"{status}  (max deviation {report.max_deviation:.2e})")

print()
print("two catalog means admit no representation:")
for mean_id in ("TANH", "G"):
    verdict = check_representable(seiffert_of_mean(mean_id))
    print(f"  {mean_id:5s}: {verdict.status} at witness z = {verdict.witness_z}, "
          f"band distance {verdict.margin:.3e}")

print()
print("the log envelope is necessary but not sufficient:")
envelope = log_envelope_check("G", default_pairs(20))
print(f"  G satisfies the envelope on 20 pairs (min margin "
      f"{envelope.min_margin:.3e}) yet is falsified above.")
gap = make_envelope_gap_example()
grid = GridSpec(0.001, 0.999, 999)
inside = min(min(gap(z) - lower, upper - gap(z))
             for z in grid.points() for lower, upper in (i_envelope(z),))
print(f"  a synthetic g {'stays inside' if inside > 0 else 'LEAVES'} "
      f"log(1+z) < g(z) < -log(1-z) on {grid.count} grid points")
print(f"  in [{grid.start}, {grid.end}] (smallest gap {inside:.3e}; on this grid only),")
verdict = check_representable(gap)
print(f"  yet it is likewise {verdict.status} (witness z = {verdict.witness_z}).")

"""The full reproduction suite behind `meanlab suite --all`.

Each check function returns CheckRecords; `run_full_suite` concatenates
them in fixed order.  Check names carry numeric prefixes so that sorting
by name preserves the intended order.  Everything here is deterministic
(seeded grids, no wall-clock dependence beyond the report timestamp).
"""

from __future__ import annotations

import math
import operator

from . import elliptic
from .calculus import (
    QUADRATURE_TOL,
    GridSpec,
    _i_operator_on_each,
    derivative_estimate,
    i_envelope,
)
from .harmonic import (
    PAIR_CATALOG,
    check_representable,
    default_pairs,
    log_envelope_check,
    verify_identity,
)
from .inequalities import (CHAIN_NAMES, builtin_chain, default_pair_grid, envelope_lemma,
                           run_chain_suite)
from .means import CATALOG, MEAN_IDS, get_mean, mean_of_seiffert, seiffert_of_mean, worst
from .reporting import CheckRecord

__all__ = ["run_full_suite", "SUITE_CHECKS"]

# Frozen reference values, computed independently at high precision from
# the defining closed forms.
_REF_SPOTS = {
    # chain of   (x, y)   expected ascending term values
    "L": ((1.0, 3.0), (12.0 / 7.0, 360.0 / 201.0, 1.8204784532536749, 1.875)),
    "T": ((1.0, 3.0), (2.125, 2.15681043229161, 20.0 / 9.0)),
    "AGM": ((1.0, 3.0), (1.7812447845327388, 1.8636167832448964, 1.9051258377996882)),
}

_SECH2_AT_1 = 0.41997434161402606  # 1/cosh(1)^2


def check_roundtrip() -> list[CheckRecord]:
    """Mean -> Seiffert function -> mean reproduces every catalog mean."""
    records = []
    tol = 1e-12
    pairs = default_pairs(50, 1e-4, 0.99)
    for mean_id in MEAN_IDS:
        original = get_mean(mean_id)
        rebuilt = mean_of_seiffert(seiffert_of_mean(original))
        devs = []
        for x, y in pairs:
            ref = original(x, y)
            devs.append(abs(rebuilt(x, y) - ref) / ref)
        dev = worst(max, devs)
        records.append(CheckRecord.within("01-roundtrip", mean_id, dev, tol,
                                          f"max relative deviation {dev:.3e}"))
    return records


def check_harmonic_identities() -> list[CheckRecord]:
    """The defining integral identity for the eight catalog pairs."""
    records = []
    pairs = default_pairs(20)
    for entry in PAIR_CATALOG:
        report = verify_identity(entry.represented, entry.representer, pairs)
        dev = report.max_deviation
        records.append(CheckRecord.within(
            "02-harmonic-identities", f"{entry.represented}~{entry.representer}",
            dev, report.tol, f"max deviation {dev:.3e} on {len(pairs)} pairs"))
    return records


def _falsified(mean_id: str, broken_side) -> CheckRecord:
    """Check 03's record that a mean is falsified, with the witness z at which
    `broken_side(z)`, a closed form of its own, confirms the band side it breaks."""
    verdict = check_representable(seiffert_of_mean(mean_id))
    w = verdict.witness_z
    falsified = verdict.status == "falsified"
    return CheckRecord("03-negative-results", f"{mean_id}-falsified",
                       falsified and w is not None and broken_side(w),
                       margin=-verdict.margin if falsified else None,
                       z=w, detail=f"status={verdict.status}, witness z={w}")


def check_negative_results() -> list[CheckRecord]:
    """TANH and G are falsified, with the documented witnesses."""
    # TANH's derivative sech^2 falls below the band's lower side 1/(1+z)
    records = [_falsified("TANH", lambda w: math.cosh(w) ** -2 < 1.0 / (1.0 + w))]

    est = derivative_estimate(math.tanh, 1.0, domain=(0.0, 1.0))
    records.append(CheckRecord.within(
        "03-negative-results", "TANH-derivative-at-1", abs(est - _SECH2_AT_1), 5e-5,
        f"one-sided estimate {est:.10f} vs {_SECH2_AT_1:.10f}", z=1.0))

    # G's derivative (1 - z^2)^(-3/2) rises above the band's upper side 1/(1-z)
    records.append(_falsified("G", lambda w: (1.0 - w * w) ** -1.5 > 1.0 / (1.0 - w)))

    candidate = 0.9 * (1.0 - 0.81) ** -1.5  # z m'(z) for the G candidate at z=0.9
    bound = 0.9 / 0.1
    records.append(CheckRecord(
        "03-negative-results", "G-candidate-at-0.9", candidate > bound,
        margin=candidate - bound, z=0.9,
        detail=f"candidate {candidate:.6f} exceeds band bound {bound:.1f}"))
    return records


def check_gauss_identity() -> list[CheckRecord]:
    """AGM(1-z, 1+z) * (2/pi) K(z) = 1, with K summed independently."""
    records = []
    tol = 1e-12
    for z in [0.05 * k for k in range(1, 20)]:
        k_series = elliptic.ellip_k(z, method="series")
        product = CATALOG["AGM"](1.0 - z, 1.0 + z) * (2.0 / math.pi) * k_series
        dev = abs(product - 1.0)
        records.append(CheckRecord.within("04-gauss-identity", f"z={z:.2f}", dev, tol,
                                          f"|product - 1| = {dev:.3e}", z=z))
    return records


def check_elliptic_cross_validation() -> list[CheckRecord]:
    """Three K routes agree pairwise; the K' formula matches differences."""
    records = []
    tol = 1e-12
    devs = {"agm-vs-series": [], "agm-vs-quadrature": [], "series-vs-quadrature": []}
    for z in [0.05 * k for k in range(0, 19)]:  # 0.0 .. 0.90
        k_agm = elliptic.ellip_k(z, method="agm")
        k_series = elliptic.ellip_k(z, method="series")
        k_quad = elliptic.ellip_k(z, method="quadrature")
        devs["agm-vs-series"].append(abs(k_agm - k_series) / k_agm)
        devs["agm-vs-quadrature"].append(abs(k_agm - k_quad) / k_agm)
        devs["series-vs-quadrature"].append(abs(k_series - k_quad) / k_agm)
    for name, values in devs.items():
        dev = worst(max, values)
        records.append(CheckRecord.within("05-elliptic-cross-validation", f"K-{name}",
                                          dev, tol,
                                          f"max relative deviation {dev:.3e} for z <= 0.9"))

    fd_tol = 1e-6
    for k in range(1, 10):
        z = 0.1 * k
        formula = elliptic.ellip_k_prime(z)
        h = 1e-5
        fd = (elliptic.ellip_k(z + h) - elliptic.ellip_k(z - h)) / (2.0 * h)
        dev = abs(formula - fd) / abs(formula)
        records.append(CheckRecord.within("05-elliptic-cross-validation",
                                          f"Kprime-fd-z={z:.1f}", dev, fd_tol,
                                          f"relative deviation {dev:.3e}", z=z))
    return records


def check_coefficient_facts() -> list[CheckRecord]:
    """c_1 = 3/4; the exact ratio identity; c_m < 1 throughout."""
    records = []
    max_m = 1000
    records.append(CheckRecord("06-series-coefficients", "c1-exact",
                                elliptic.agm_coefficient(1) == 0.75,
                                detail="c_1 = 3/4"))

    # The ratio recurrence from c_0 = 1, carried exactly as c_m = num / den,
    # against an independent route: the double-factorial ratio in lowest terms,
    # (2m-1)!!/(2m)!! = C(2m, m)/4^m, so c_m = (2m+1) C(2m, m)^2 / 2^(4m),
    # compared by cross-multiplication.
    ok_ratio = True
    below_one = True
    num = den = 1
    for m in range(1, max_m + 1):
        ratio_num, ratio_den = elliptic._c_ratio(m)
        num *= ratio_num
        den *= ratio_den
        if (m <= 60 or m == max_m) and (
                (2 * m + 1) * math.comb(2 * m, m) ** 2 * den != num << (4 * m)):
            ok_ratio = False
        if not num < den:
            below_one = False
    records.append(CheckRecord("06-series-coefficients", "ratio-identity", ok_ratio,
                                detail="recurrence matches the double-factorial form"))
    records.append(CheckRecord("06-series-coefficients", "cm-below-1", below_one,
                                detail=f"c_m < 1 for all m <= {max_m} (exact rationals)"))
    return records


def check_inequality_chains() -> list[CheckRecord]:
    """All built-in chains pass with strictly positive margins; spot values."""
    records = []
    pairs = default_pair_grid()
    for name in CHAIN_NAMES:
        report = run_chain_suite(builtin_chain(name), pairs)
        strict = report.passed and report.min_margin > 0.0
        records.append(CheckRecord("07-inequality-chains", name, strict,
                                    margin=report.min_margin,
                                    detail=f"min margin {report.min_margin:.3e} "
                                           f"over {len(report.points)} pairs"))
    chain_of = {e.represented: e.chain for e in PAIR_CATALOG}
    for mean_id, ((x, y), expected) in _REF_SPOTS.items():
        name = chain_of[mean_id]
        values = [term(x, y) for _, term in builtin_chain(name).terms]
        dev = worst(max, [abs(v - e) / abs(e) for v, e in zip(values, expected)])
        records.append(CheckRecord.within(
            "07-inequality-chains", f"{name}-spot-values", dev, 5e-6,
            f"max relative deviation {dev:.3e} against frozen references", x=x, y=y))
    return records


def check_envelope_lemmas() -> list[CheckRecord]:
    """Strict lemma orderings on a 1000-point grid, and their coincidence
    with the Hermite-Hadamard expressions 2n(u/2) and (u + n(u))/2."""
    records = []
    us = GridSpec(0.0005, 0.9995, 1000).points()
    halves = [u / 2.0 for u in us]
    for kind, target, mean_id in (("arctan", math.atan, "C"), ("arsinh", math.asinh, "R")):
        column = seiffert_of_mean(mean_id).column  # n at all u, and at all u/2
        gaps = []
        devs = []
        for u, n_u, n_half in zip(us, column(us), column(halves)):
            lower, upper = envelope_lemma(kind, u)
            value = target(u)
            gaps += upper - value, value - lower
            devs += abs(upper - 2.0 * n_half), abs(lower - 0.5 * (u + n_u))
        order_margin = worst(min, gaps)
        coincide_dev = worst(max, devs)
        records.append(CheckRecord("08-envelope-lemmas", f"{kind}-strict-order",
                                    order_margin > 0.0, margin=order_margin,
                                    detail=f"min gap {order_margin:.3e} on 1000 points"))
        records.append(CheckRecord.within("08-envelope-lemmas", f"{kind}-hh-coincidence",
                                          coincide_dev, 1e-12,
                                          f"max deviation {coincide_dev:.3e}"))
    return records


def check_operator_properties() -> list[CheckRecord]:
    """Monotonicity, envelope, vanishing limit, and shape preservation of I."""
    records = []
    slack = 2.0 * QUADRATURE_TOL

    premise_zs = GridSpec(0.01, 0.99, 99).points()
    probe_zs = [0.1 * k for k in range(1, 10)]
    # every point read below lies in (0, 1): the unchecked `func` and column forms
    seifferts = {mean_id: seiffert_of_mean(mean_id) for mean_id in MEAN_IDS}
    values = {mean_id: s.column(premise_zs) for mean_id, s in seifferts.items()}
    # I of every mean at once, as running sums at 1e-6 and the probe points
    i_rows = dict(zip(seifferts, _i_operator_on_each(seifferts.values(), [1e-6, *probe_zs])))
    i_values = {mean_id: row[1:] for mean_id, row in i_rows.items()}

    mono_pairs = 0
    mono_gaps = [math.inf]  # the worst gap is inf when no pair is ordered
    for i, id1 in enumerate(MEAN_IDS):
        for id2 in MEAN_IDS[i + 1:]:
            if all(map(operator.le, values[id1], values[id2])):
                lo_id, hi_id = id1, id2
            elif all(map(operator.ge, values[id1], values[id2])):
                lo_id, hi_id = id2, id1
            else:
                continue
            mono_pairs += 1
            mono_gaps += [hi - lo for lo, hi in zip(i_values[lo_id], i_values[hi_id])]
    worst_mono = worst(min, mono_gaps)
    records.append(CheckRecord("09-operator-properties", "I-monotone", worst_mono >= -slack,
                                margin=worst_mono,
                                detail=f"{mono_pairs} ordered pairs, worst gap "
                                       f"{worst_mono:.3e}"))

    env_gaps = []
    for mean_id in MEAN_IDS:
        for z, value in zip(probe_zs, i_values[mean_id]):
            lower, upper = i_envelope(z)
            env_gaps += value - lower, upper - value
    env_margin = worst(min, env_gaps)
    records.append(CheckRecord("09-operator-properties", "I-envelope",
                                env_margin > -slack, margin=env_margin,
                                detail=f"worst envelope gap {env_margin:.3e}"))

    # I(f)(z) = z + O(z^3) for every Seiffert function
    vanish_dev = worst(max, [abs(row[0] - 1e-6) for row in i_rows.values()])
    records.append(CheckRecord.within("09-operator-properties", "I-vanishes-at-0",
                                      vanish_dev, slack,
                                      f"max |I(f)(1e-6) - 1e-6| = {vanish_dev:.3e}"))

    # I(f)' = f(z)/z, so I(f) is convex exactly where f/z is nondecreasing
    shape_of = {(True, True): "affine", (True, False): "convex", (False, True): "concave"}
    for mean_id in MEAN_IDS:
        shape = CATALOG[mean_id].shape
        f = seifferts[mean_id].func
        slopes = list(map(operator.truediv, values[mean_id], premise_zs))
        found = shape_of.get((all(map(operator.le, slopes, slopes[1:])),
                              all(map(operator.ge, slopes, slopes[1:]))), "neither")
        gaps = []
        for z, value in zip(probe_zs, i_values[mean_id]):
            if shape == "concave":
                gaps += z - value, value - f(z)
            else:
                gaps += value - z, f(z) - value
        sandwich = worst(min, gaps)
        # I(f) = f = z up to quadrature when affine
        shape_ok = found == shape and (abs(sandwich) <= slack if shape == "affine"
                                       else sandwich > -slack)
        records.append(CheckRecord("09-operator-properties",
                                    f"shape-preserved-{mean_id}", shape_ok,
                                    margin=sandwich,
                                    detail=f"expected {shape}, I' = f/z is {found} "
                                           f"on {len(slopes)} points"))
    return records


def check_one_directional() -> list[CheckRecord]:
    """G satisfies the log envelope on the default grid yet is falsified."""
    records = []
    envelope = log_envelope_check("G", default_pairs(20))
    records.append(CheckRecord("10-one-directional", "G-log-envelope-passes",
                                envelope.passed, margin=envelope.min_margin,
                                detail=f"min margin {envelope.min_margin:.3e} "
                                       f"on 20 pairs"))
    verdict = check_representable(seiffert_of_mean("G"))
    records.append(CheckRecord("10-one-directional", "G-still-falsified",
                                verdict.status == "falsified",
                                margin=verdict.margin, z=verdict.witness_z,
                                detail=f"status={verdict.status}"))
    return records


SUITE_CHECKS = (
    check_roundtrip,
    check_harmonic_identities,
    check_negative_results,
    check_gauss_identity,
    check_elliptic_cross_validation,
    check_coefficient_facts,
    check_inequality_chains,
    check_envelope_lemmas,
    check_operator_properties,
    check_one_directional,
)


def run_full_suite() -> list[CheckRecord]:
    """Run every check and return the concatenated records."""
    records: list[CheckRecord] = []
    for check in SUITE_CHECKS:
        records.extend(check())
    return records

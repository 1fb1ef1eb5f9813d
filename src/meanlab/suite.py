"""The full reproduction suite behind `meanlab suite --all`.

Each check function returns CheckRecords; `run_full_suite` concatenates
them in fixed order.  Check names carry numeric prefixes so that sorting
by name preserves the intended order.  Everything here is deterministic
(seeded grids, no wall-clock dependence beyond the report timestamp).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import elliptic
from .calculus import (
    DEFAULT_QUADRATURE,
    GridSpec,
    apply_i_operator,
    derivative_estimate,
    probe_shape,
)
from .harmonic import (
    PAIR_CATALOG,
    check_representable,
    default_pairs,
    log_envelope_check,
    verify_identity,
)
from .inequalities import CHAIN_NAMES, builtin_chain, envelope_lemma, run_chain_suite
from .means import (
    MEAN_IDS,
    SEIFFERT_SHAPE,
    get_mean,
    mean_of_seiffert,
    seiffert_of_mean,
)
from .reporting import CheckRecord

__all__ = ["run_full_suite", "SUITE_CHECKS"]

# Frozen reference values, computed independently at high precision from
# the defining closed forms.
_REF_SPOTS = {
    # chain       (x, y)   expected ascending term values
    "hh-L-H": ((1.0, 3.0), (12.0 / 7.0, 360.0 / 201.0,
                            1.8204784532536749, 1.875)),
    "hh-T-C": ((1.0, 3.0), (2.125, 2.15681043229161, 20.0 / 9.0)),
    "hh-AGM-V": ((1.0, 3.0), (1.7812447845327388, 1.8636167832448964,
                              1.9051258377996882)),
}

_SECH2_AT_1 = 0.41997434161402606  # 1/cosh(1)^2


def _record(check: str, name: str, passed: bool, margin: float | None = None,
            detail: str = "", x: float | None = None, y: float | None = None,
            z: float | None = None) -> CheckRecord:
    return CheckRecord(check=check, name=name, passed=passed, x=x, y=y, z=z,
                       margin=margin, detail=detail)


def _roundtrip_pairs(count: int = 50) -> list[tuple[float, float]]:
    return [(1.0 - z, 1.0 + z) for z in GridSpec(1e-4, 0.99, count, "log").points()]


def check_roundtrip(tol: float = 1e-12) -> list[CheckRecord]:
    """Mean -> Seiffert function -> mean reproduces every catalog mean."""
    records = []
    pairs = _roundtrip_pairs()
    for mean_id in MEAN_IDS:
        original = get_mean(mean_id)
        rebuilt = mean_of_seiffert(seiffert_of_mean(original))
        worst = 0.0
        for x, y in pairs:
            ref = original(x, y)
            worst = max(worst, abs(rebuilt(x, y) - ref) / ref)
        records.append(_record("01-roundtrip", mean_id, worst <= tol,
                               margin=tol - worst,
                               detail=f"max relative deviation {worst:.3e}"))
    return records


def check_harmonic_identities(tol: float = 1e-9) -> list[CheckRecord]:
    """The defining integral identity for the eight catalog pairs."""
    records = []
    pairs = default_pairs(20)
    for entry in PAIR_CATALOG:
        report = verify_identity(entry.represented, entry.representer,
                                 pairs, tol=tol)
        records.append(_record(
            "02-harmonic-identities",
            f"{entry.represented}~{entry.representer}",
            report.passed, margin=tol - report.max_deviation,
            detail=f"max deviation {report.max_deviation:.3e} on {len(pairs)} pairs"))
    return records


def check_negative_results() -> list[CheckRecord]:
    """TANH and G are falsified, with the documented witnesses."""
    records = []

    tanh_verdict = check_representable(seiffert_of_mean("TANH"))
    w = tanh_verdict.witness_z
    lower_side = (w is not None
                  and math.cosh(w) ** -2 < 1.0 / (1.0 + w))
    records.append(_record(
        "03-negative-results", "TANH-falsified",
        tanh_verdict.status == "falsified" and lower_side,
        margin=-(tanh_verdict.margin) if tanh_verdict.status == "falsified" else None,
        z=w, detail=f"status={tanh_verdict.status}, witness z={w}"))

    est = derivative_estimate(math.tanh, 1.0, domain=(0.0, 1.0))
    dev = abs(est - _SECH2_AT_1)
    records.append(_record(
        "03-negative-results", "TANH-derivative-at-1", dev <= 5e-5,
        margin=5e-5 - dev, z=1.0,
        detail=f"one-sided estimate {est:.10f} vs {_SECH2_AT_1:.10f}"))

    g_verdict = check_representable(seiffert_of_mean("G"))
    gw = g_verdict.witness_z
    upper_side = (gw is not None
                  and (1.0 - gw * gw) ** -1.5 > 1.0 / (1.0 - gw))
    records.append(_record(
        "03-negative-results", "G-falsified",
        g_verdict.status == "falsified" and upper_side,
        margin=-(g_verdict.margin) if g_verdict.status == "falsified" else None,
        z=gw, detail=f"status={g_verdict.status}, witness z={gw}"))

    candidate = 0.9 * (1.0 - 0.81) ** -1.5  # z m'(z) for the G candidate at z=0.9
    bound = 0.9 / 0.1
    records.append(_record(
        "03-negative-results", "G-candidate-at-0.9", candidate > bound,
        margin=candidate - bound, z=0.9,
        detail=f"candidate {candidate:.6f} exceeds band bound {bound:.1f}"))
    return records


def check_gauss_identity(tol: float = 1e-12) -> list[CheckRecord]:
    """AGM(1-z, 1+z) * (2/pi) K(z) = 1, with K summed independently."""
    records = []
    for z in [0.05 * k for k in range(1, 20)]:
        k_series = elliptic.ellip_k(z, method="series")
        product = elliptic.agm(1.0 - z, 1.0 + z) * (2.0 / math.pi) * k_series
        dev = abs(product - 1.0)
        records.append(_record("04-gauss-identity", f"z={z:.2f}", dev <= tol,
                               margin=tol - dev, z=z,
                               detail=f"|product - 1| = {dev:.3e}"))
    return records


def check_elliptic_cross_validation() -> list[CheckRecord]:
    """Three K routes agree pairwise; the K' formula matches differences."""
    from .calculus import QuadratureConfig

    records = []
    tight = QuadratureConfig(abs_tolerance=1e-13, max_depth=60)
    tol = 1e-12
    worst = {"agm-vs-series": 0.0, "agm-vs-quadrature": 0.0, "series-vs-quadrature": 0.0}
    for z in [0.05 * k for k in range(0, 19)]:  # 0.0 .. 0.90
        k_agm = elliptic.ellip_k(z, method="agm")
        k_series = elliptic.ellip_k(z, method="series")
        k_quad = elliptic.ellip_k(z, method="quadrature", cfg=tight)
        worst["agm-vs-series"] = max(worst["agm-vs-series"],
                                     abs(k_agm - k_series) / k_agm)
        worst["agm-vs-quadrature"] = max(worst["agm-vs-quadrature"],
                                         abs(k_agm - k_quad) / k_agm)
        worst["series-vs-quadrature"] = max(worst["series-vs-quadrature"],
                                            abs(k_series - k_quad) / k_agm)
    for name, dev in worst.items():
        records.append(_record("05-elliptic-cross-validation", f"K-{name}",
                               dev <= tol, margin=tol - dev,
                               detail=f"max relative deviation {dev:.3e} for z <= 0.9"))

    fd_tol = 1e-6
    for k in range(1, 10):
        z = 0.1 * k
        formula = elliptic.ellip_k_prime(z)
        h = 1e-5
        fd = (elliptic.ellip_k(z + h) - elliptic.ellip_k(z - h)) / (2.0 * h)
        dev = abs(formula - fd) / abs(formula)
        records.append(_record("05-elliptic-cross-validation",
                               f"Kprime-fd-z={z:.1f}", dev <= fd_tol,
                               margin=fd_tol - dev, z=z,
                               detail=f"relative deviation {dev:.3e}"))
    return records


def check_coefficient_facts(max_m: int = 1000) -> list[CheckRecord]:
    """c_1 = 3/4; the exact ratio identity; c_m < 1 throughout."""
    records = []
    records.append(_record("06-series-coefficients", "c1-exact",
                           elliptic.agm_coefficient_exact(1) == Fraction(3, 4)
                           and elliptic.agm_coefficient(1) == 0.75,
                           detail="c_1 = 3/4"))

    # Independent route: double factorials through ordinary factorials,
    # c_m = (2m+1) ((2m)! / (2^(2m) (m!)^2))^2, compared with the ratio
    # recurrence at exact rational precision.
    ok_ratio = True
    below_one = True
    c = Fraction(3, 4)
    for m in range(1, max_m + 1):
        if m <= 60 or m == max_m:
            direct = ((2 * m + 1)
                      * Fraction(math.factorial(2 * m),
                                 2 ** (2 * m) * math.factorial(m) ** 2) ** 2)
            if direct != c:
                ok_ratio = False
        if not c < 1:
            below_one = False
        c *= elliptic.agm_coefficient_ratio(m)
    records.append(_record("06-series-coefficients", "ratio-identity", ok_ratio,
                           detail="recurrence matches the double-factorial form"))
    records.append(_record("06-series-coefficients", "cm-below-1", below_one,
                           detail=f"c_m < 1 for all m <= {max_m} (exact rationals)"))
    return records


def check_inequality_chains() -> list[CheckRecord]:
    """All built-in chains pass with strictly positive margins; spot values."""
    records = []
    for name in CHAIN_NAMES:
        report = run_chain_suite(builtin_chain(name))
        strict = report.passed and report.min_margin > 0.0
        records.append(_record("07-inequality-chains", name, strict,
                               margin=report.min_margin,
                               detail=f"min margin {report.min_margin:.3e} "
                                      f"over {len(report.points)} pairs"))
    for name, ((x, y), expected) in _REF_SPOTS.items():
        spec = builtin_chain(name)
        values = [fn(x, y) for _, fn in spec.terms]
        dev = max(abs(v - e) / abs(e) for v, e in zip(values, expected))
        records.append(_record("07-inequality-chains", f"{name}-spot-values",
                               dev <= 5e-6, margin=5e-6 - dev, x=x, y=y,
                               detail=f"max relative deviation {dev:.3e} "
                                      f"against frozen references"))
    return records


def check_envelope_lemmas() -> list[CheckRecord]:
    """Strict lemma orderings on a 1000-point grid, and their coincidence
    with the Hermite-Hadamard expressions 2n(u/2) and (u + n(u))/2."""
    records = []
    us = GridSpec(0.0005, 0.9995, 1000).points()
    n_c = seiffert_of_mean("C")
    n_r = seiffert_of_mean("R")
    for kind, target, n in (("arctan", math.atan, n_c), ("arsinh", math.asinh, n_r)):
        order_margin = math.inf
        coincide_dev = 0.0
        for u in us:
            lower, upper = envelope_lemma(kind, u)
            value = target(u)
            order_margin = min(order_margin, upper - value, value - lower)
            coincide_dev = max(coincide_dev,
                               abs(upper - 2.0 * n(u / 2.0)),
                               abs(lower - 0.5 * (u + n(u))))
        records.append(_record("08-envelope-lemmas", f"{kind}-strict-order",
                               order_margin > 0.0, margin=order_margin,
                               detail=f"min gap {order_margin:.3e} on 1000 points"))
        records.append(_record("08-envelope-lemmas", f"{kind}-hh-coincidence",
                               coincide_dev <= 1e-12, margin=1e-12 - coincide_dev,
                               detail=f"max deviation {coincide_dev:.3e}"))
    return records


def check_operator_properties() -> list[CheckRecord]:
    """Monotonicity, envelope, vanishing limit, and shape preservation of I."""
    records = []
    slack = 2.0 * DEFAULT_QUADRATURE.abs_tolerance

    premise_zs = GridSpec(0.01, 0.99, 99).points()
    probe_zs = [0.1 * k for k in range(1, 10)]
    funcs = {mean_id: seiffert_of_mean(mean_id) for mean_id in MEAN_IDS}
    values = {mean_id: [f(z) for z in premise_zs]
              for mean_id, f in funcs.items()}
    i_values = {mean_id: [apply_i_operator(f, z) for z in probe_zs]
                for mean_id, f in funcs.items()}

    mono_ok = True
    mono_pairs = 0
    worst_mono = math.inf
    ids = list(MEAN_IDS)
    for i, id1 in enumerate(ids):
        for id2 in ids[i + 1:]:
            if all(a <= b for a, b in zip(values[id1], values[id2])):
                lo_id, hi_id = id1, id2
            elif all(a >= b for a, b in zip(values[id1], values[id2])):
                lo_id, hi_id = id2, id1
            else:
                continue
            mono_pairs += 1
            gap = min(hi - lo for lo, hi in zip(i_values[lo_id], i_values[hi_id]))
            worst_mono = min(worst_mono, gap)
            if gap < -slack:
                mono_ok = False
    records.append(_record("09-operator-properties", "I-monotone", mono_ok,
                           margin=worst_mono,
                           detail=f"{mono_pairs} ordered pairs, worst gap "
                                  f"{worst_mono:.3e}"))

    env_margin = math.inf
    for mean_id in MEAN_IDS:
        for z, value in zip(probe_zs, i_values[mean_id]):
            env_margin = min(env_margin,
                             value - math.log1p(z), -math.log1p(-z) - value)
    records.append(_record("09-operator-properties", "I-envelope",
                           env_margin > -slack, margin=env_margin,
                           detail=f"worst envelope gap {env_margin:.3e}"))

    vanish_worst = max(abs(apply_i_operator(funcs[mean_id], 1e-6))
                       for mean_id in MEAN_IDS)
    records.append(_record("09-operator-properties", "I-vanishes-at-0",
                           vanish_worst <= 2e-6, margin=2e-6 - vanish_worst,
                           detail=f"max |I(f)(1e-6)| = {vanish_worst:.3e}"))

    probe_grid = GridSpec(0.01, 0.99, 41)
    for mean_id in MEAN_IDS:
        shape = SEIFFERT_SHAPE[mean_id]
        f = funcs[mean_id]

        def i_of_f(z: float, _f=f) -> float:
            return apply_i_operator(_f, z)

        verdict = probe_shape(i_of_f, probe_grid)
        sandwich = math.inf
        for z in probe_zs:
            value = apply_i_operator(f, z)
            if shape == "concave":
                sandwich = min(sandwich, z - value, value - f(z))
            else:
                sandwich = min(sandwich, value - z, f(z) - value)
        if shape == "affine":
            shape_ok = abs(sandwich) <= slack  # I(f) = f = z up to quadrature
        else:
            shape_ok = verdict.classification == shape and sandwich > -slack
        records.append(_record("09-operator-properties",
                               f"shape-preserved-{mean_id}", shape_ok,
                               margin=sandwich,
                               detail=f"expected {shape}, probe says "
                                      f"{verdict.classification}"))
    return records


def check_one_directional() -> list[CheckRecord]:
    """G satisfies the log envelope on the default grid yet is falsified."""
    records = []
    envelope = log_envelope_check("G", default_pairs(20))
    records.append(_record("10-one-directional", "G-log-envelope-passes",
                           envelope.passed, margin=envelope.min_margin,
                           detail=f"min margin {envelope.min_margin:.3e} "
                                  f"on 20 pairs"))
    verdict = check_representable(seiffert_of_mean("G"))
    records.append(_record("10-one-directional", "G-still-falsified",
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

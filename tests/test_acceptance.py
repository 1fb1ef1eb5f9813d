"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np

from meanlab import (
    CHAIN_NAMES,
    MEAN_IDS,
    PAIR_CATALOG,
    agm,
    agm_coefficient,
    agm_coefficient_ratio,
    builtin_chain,
    check_representable,
    construct_candidate,
    default_pairs,
    derivative_estimate,
    ellip_k,
    ellip_k_prime,
    get_mean,
    log_envelope_check,
    mean_of_seiffert,
    run_chain_suite,
    seiffert_of_mean,
    verify_identity,
)
from meanlab.suite import check_operator_properties


def report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_correspondence_roundtrip():
    pairs = [(1.0 - float(z), 1.0 + float(z)) for z in np.geomspace(1e-4, 0.99, 50)]
    worst = 0.0
    for mean_id in MEAN_IDS:
        original = get_mean(mean_id)
        rebuilt = mean_of_seiffert(seiffert_of_mean(original))
        for x, y in pairs:
            ref = original(x, y)
            worst = max(worst, abs(rebuilt(x, y) - ref) / ref)
    report(1, f"round-trip over {len(MEAN_IDS)} catalog means on 50 pairs "
              f"(max rel dev {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_02_harmonic_identities():
    pairs = default_pairs(20)
    worst = 0.0
    ok = True
    for entry in PAIR_CATALOG:
        rep = verify_identity(entry.represented, entry.representer, pairs, tol=1e-9)
        worst = max(worst, rep.max_deviation)
        ok = ok and rep.passed
    report(2, f"all 8 harmonic identities at 1e-9 on 20 pairs "
              f"(max dev {worst:.2e})", ok)


def test_criterion_03_negative_results():
    tanh_verdict = check_representable(seiffert_of_mean("TANH"))
    w = tanh_verdict.witness_z
    tanh_ok = (tanh_verdict.status == "falsified" and w is not None
               and math.cosh(w) ** -2 < 1.0 / (1.0 + w))
    est = derivative_estimate(math.tanh, 1.0, domain=(0.0, 1.0))
    deriv_ok = abs(est - 0.41997) < 5e-5

    g_verdict = check_representable(seiffert_of_mean("G"))
    gw = g_verdict.witness_z
    g_ok = (g_verdict.status == "falsified" and gw is not None
            and (1.0 - gw * gw) ** -1.5 > 1.0 / (1.0 - gw))
    candidate = construct_candidate(seiffert_of_mean("G"))(0.9)
    cand_ok = candidate > 0.9 / 0.1 and abs(candidate - 10.867061078079242) < 1e-9

    report(3, f"TANH falsified below the band (witness z={w}), derivative at 1 "
              f"= {est:.5f} ~ 0.41997; G falsified above (candidate(0.9) "
              f"= {candidate:.4f} > 9)", tanh_ok and deriv_ok and g_ok and cand_ok)


def test_criterion_04_gauss_identity():
    worst = 0.0
    for z in [0.05 * k for k in range(1, 20)]:
        product = agm(1.0 - z, 1.0 + z) * (2.0 / math.pi) * ellip_k(z, method="series")
        worst = max(worst, abs(product - 1.0))
    report(4, f"Gauss identity at 19 moduli (max dev {worst:.2e} <= 1e-12)",
           worst <= 1e-12)


def test_criterion_05_elliptic_cross_validation():
    worst_k = 0.0
    for z in [0.05 * k for k in range(0, 19)]:
        k_agm = ellip_k(z, method="agm")
        k_series = ellip_k(z, method="series")
        k_quad = ellip_k(z, method="quadrature")
        worst_k = max(worst_k,
                      abs(k_agm - k_series) / k_agm,
                      abs(k_agm - k_quad) / k_agm,
                      abs(k_series - k_quad) / k_agm)
    worst_fd = 0.0
    for k in range(1, 10):
        z = 0.1 * k
        fd = (ellip_k(z + 1e-5) - ellip_k(z - 1e-5)) / 2e-5
        worst_fd = max(worst_fd, abs(ellip_k_prime(z) - fd) / abs(ellip_k_prime(z)))
    report(5, f"K routes agree pairwise (max rel dev {worst_k:.2e} <= 1e-12); "
              f"K' vs finite differences (max rel dev {worst_fd:.2e} <= 1e-6)",
           worst_k <= 1e-12 and worst_fd <= 1e-6)


def test_criterion_06_coefficient_facts():
    c1_ok = Fraction(agm_coefficient(1)) == Fraction(3, 4)
    ratio_ok = True
    float_ok = True
    below_one = True
    c = Fraction(3, 4)
    for m in range(1, 1001):
        if m <= 60:  # the ratio walk against (2m+1) ((2m)! / (4^m (m!)^2))^2
            direct = (2 * m + 1) * Fraction(math.factorial(2 * m),
                                            4 ** m * math.factorial(m) ** 2) ** 2
            ratio_ok = ratio_ok and c == direct
            float_ok = float_ok and math.isclose(agm_coefficient(m), float(direct),
                                                 rel_tol=1e-13)
        expected = Fraction((2 * m + 1) * (2 * m + 3), (2 * m + 2) ** 2)
        if agm_coefficient_ratio(m) != expected:
            ratio_ok = False
        below_one = below_one and c < 1
        c *= agm_coefficient_ratio(m)
    report(6, "c1 = 3/4 exactly; ratio identity exact for m <= 1000 and the ratio "
              "walk equal to the factorial form for m <= 60 (floats within 1e-13); "
              "hence every c_m < 1", c1_ok and ratio_ok and float_ok and below_one)


def test_criterion_07_inequality_chains():
    ok = True
    worst = math.inf
    for name in CHAIN_NAMES:
        rep = run_chain_suite(builtin_chain(name))
        ok = ok and rep.passed and rep.min_margin > 0.0
        worst = min(worst, rep.min_margin)

    # spot values at (1, 3) to 5 significant digits, references computed
    # independently from the defining closed forms
    spots = {
        "hh-L-H": (12.0 / 7.0, 360.0 / 201.0, 1.8204784532536749, 1.875),
        "hh-T-C": (2.125, 2.15681043229161, 20.0 / 9.0),
        "hh-AGM-V": (1.7812447845327388, 1.8636167832448964, 1.9051258377996882),
    }
    spots_ok = True
    for name, expected in spots.items():
        values = [fn(1.0, 3.0) for _, fn in builtin_chain(name).terms]
        for value, ref in zip(values, expected):
            spots_ok = spots_ok and abs(value - ref) / abs(ref) <= 5e-6
    report(7, f"all 8 chains strictly positive on the default grid "
              f"(min margin {worst:.2e}); (1,3) spot values to 5 digits",
           ok and spots_ok)


def test_criterion_08_envelope_lemmas():
    from meanlab import envelope_lemma

    order_ok = True
    coincide_ok = True
    n_c = seiffert_of_mean("C")
    n_r = seiffert_of_mean("R")
    for kind, target, n in (("arctan", math.atan, n_c), ("arsinh", math.asinh, n_r)):
        for k in range(1, 1001):
            u = k / 1001.0
            lower, upper = envelope_lemma(kind, u)
            order_ok = order_ok and upper > target(u) > lower
            coincide_ok = (coincide_ok
                           and abs(upper - 2.0 * n(u / 2.0)) <= 1e-12
                           and abs(lower - 0.5 * (u + n(u))) <= 1e-12)
    report(8, "both envelope lemmas strict on 1000 points and coincide with "
              "the Hermite-Hadamard expressions to 1e-12", order_ok and coincide_ok)


def test_criterion_09_operator_properties():
    records = check_operator_properties()
    ok = all(r.passed for r in records)
    failing = [r.name for r in records if not r.passed]
    report(9, f"operator monotonicity, envelope, vanishing limit, and shape "
              f"preservation across all {len(MEAN_IDS)} catalog Seiffert "
              f"functions{'' if ok else ' (failing: ' + ', '.join(failing) + ')'}",
           ok)


def test_criterion_10_one_directional_implication():
    envelope = log_envelope_check("G", default_pairs(20))
    verdict = check_representable(seiffert_of_mean("G"))
    report(10, "G passes the log envelope on 20 pairs yet is falsified by the "
               "representability check", envelope.passed
           and verdict.status == "falsified")


def test_criterion_11_cli_determinism():
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "meanlab", "suite", "--all", "--format", "json"],
            capture_output=True, text=True)
        assert result.returncode == 0
        runs.append(result.stdout)
    stripped = [re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', out)
                for out in runs]
    payload = json.loads(runs[0])
    report(11, f"two `meanlab suite --all` runs byte-identical apart from the "
               f"timestamp; exit 0 with {payload['summary']['pass']} checks",
           stripped[0] == stripped[1] and payload["summary"]["fail"] == 0)

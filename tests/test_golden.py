"""The golden outputs of tests/golden against what the code computes now.

Each report is written in-process through `cli.run_command`, its timestamp
blanked, and compared byte for byte; so is the whole digest file.  A
mismatch prints a unified diff.  After a change that moves outputs on
purpose, `python tests/golden/regen.py` rewrites the files, and the change's
own diff shows what moved.  The `pairs` benchmark text is compared in
test_pairs_traffic.py, and each digest line on its own in
test_pair_decided_once.py.

The files record glibc's libm on x86-64: on a platform whose `math.sin`
rounds differently, these tests fail, as they should.
"""

import math

import pytest

import goldens
from meanlab import CATALOG, MEAN_IDS
from meanlab._frozen import set_field

REPORT_ARGVS = goldens.report_argvs()


def test_the_recorded_reports_are_the_reports():
    assert sorted(p.name for p in goldens.REPORTS.iterdir()) == sorted(REPORT_ARGVS)


@pytest.mark.parametrize("name", REPORT_ARGVS)
def test_report(name):
    goldens.check_same(name, goldens.recorded(goldens.REPORTS / name),
                       goldens.report(REPORT_ARGVS[name]))


def test_digests():
    goldens.check_same("digests.txt", goldens.recorded(goldens.DIGESTS_FILE),
                       goldens.digests_text())


@pytest.mark.parametrize("mean_id", MEAN_IDS)
def test_one_ulp_in_a_catalog_evaluator_moves_its_digests(mean_id):
    desc = CATALOG[mean_id]
    evaluator = desc.evaluator
    keys = [f"eval_mean {mean_id}", f"seiffert_of_mean {mean_id}"]
    golden = goldens.read_digests()
    set_field(desc, "evaluator", lambda lo, hi: math.nextafter(evaluator(lo, hi), math.inf))
    try:
        now = {key: goldens.DIGEST_JOBS[key]() for key in keys}
    finally:
        set_field(desc, "evaluator", evaluator)
    for key in keys:
        with pytest.raises(AssertionError, match=f"^{key} moved"):
            goldens.check_same(key, golden[key], now[key])

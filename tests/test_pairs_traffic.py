"""The `pairs` benchmark traffic, run in-process: no evaluation fails, and
each seed's batch digests and counts are those of tests/golden/pairs.txt.

The workload stores an evaluation that raised as its output, and the
exception's traceback holds the frames that hold the whole batch output, so
every raising op left a reference cycle for a full garbage collection to
free.  Rescaling the far-out pairs leaves nothing to raise and no cycle.
"""

import gc
import sys
from pathlib import Path

import pytest

import goldens

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

PAIRS_GOLDEN = goldens.pairs_sections(goldens.recorded(goldens.PAIRS_FILE))


@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", goldens.PAIRS_SEEDS)
def test_no_evaluation_fails_and_nothing_is_left_for_gc(seed, gc_disabled):
    work = workloads.PairsWorkload(seed)
    outputs = []
    for i in range(work.items):
        output = work.run(i)
        work.check(i, output)
        outputs.append(output)
    assert work.evals_attempted > 0
    assert (work.evals_failed, dict(work.breakdown)) == (0, {})
    assert work.failed == 0 and work.problems == []
    for evals, _, deforms, bounds, chains in outputs:
        values = [*(v for row in evals for v in row), *deforms,
                  *(v for row in bounds for pair in row for v in pair)]
        assert not [v for v in values if isinstance(v, BaseException)]
        assert all(report.skipped == () for report in chains)
    goldens.check_same(f"pairs.txt, seed {seed}", PAIRS_GOLDEN[seed],
                       goldens.pairs_section(seed, work))
    del outputs, work
    assert gc.collect() == 0

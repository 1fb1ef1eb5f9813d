"""Prints what the `pairs` benchmark workload computes for seeds 1, 7, 13 and 31:
each batch's output digest, then the op and evaluation failure counts and
the breakdown of the failed evaluations by call group and id.

usage: python .github/pairs-outputs.py
  meanlab comes from PYTHONPATH; perfbench/workloads.py is imported from
  the checkout that holds this script, unchanged.  Two trees that compute
  the same bits print the same text.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 7, 13, 31)

for seed in SEEDS:
    work = workloads.PairsWorkload(seed)
    for i in range(work.items):
        work.check(i, work.run(i))
    print(f"seed {seed}")
    for item, output_digest in sorted(work.digests.items()):
        print(f"  batch {item}: {output_digest}")
    print(f"  ops: {work.failed} of {work.attempted} failed")
    print(f"  evaluations: {work.evals_failed} of {work.evals_attempted} failed")
    for key, failed in sorted(work.breakdown.items()):
        print(f"    {key}: {failed}")
    for problem in work.problems:
        print(f"  problem: {problem}")

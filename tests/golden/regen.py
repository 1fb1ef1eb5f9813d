"""Rewrites the golden outputs in this directory from the code in `src/`.

usage: python tests/golden/regen.py

Run it after a change that moves outputs on purpose: `git diff tests/golden`
then shows every report line and every digest that moved.  It needs only the
standard library, so any supported interpreter runs it, with or without an
installed meanlab or pytest.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "perfbench")]

import goldens  # noqa: E402
import workloads  # noqa: E402


def write(path: Path, text: str) -> None:
    path.write_bytes(text.encode())


def main() -> None:
    goldens.REPORTS.mkdir(exist_ok=True)
    reports = {name: goldens.report(argv) for name, argv in goldens.report_argvs().items()}
    for stale in goldens.REPORTS.iterdir():
        if stale.name not in reports:
            stale.unlink()
    for name, text in reports.items():
        write(goldens.REPORTS / name, text)

    sections = []
    for seed in goldens.PAIRS_SEEDS:
        work = workloads.PairsWorkload(seed)
        for i in range(work.items):
            work.check(i, work.run(i))
        sections.append(goldens.pairs_section(seed, work))
    write(goldens.PAIRS_FILE, "".join(sections))

    write(goldens.DIGESTS_FILE, goldens.digests_text())


if __name__ == "__main__":
    main()

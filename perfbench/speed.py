"""Machine-speed references, to report times at a fixed machine speed.

On a shared machine the speed of Python code can drift by a factor of
two within a minute (measured on a 2-core Xeon VM).  Each timed op is
bracketed by runs of a reference, a fixed piece of work that shares no
code with meanlab, and its time is reported scaled to the speed at which
the reference takes its nominal time:

    normalized = measured * nominal / (median reference time around it)

In-process ops use `kernel_ns`, pure-Python numeric work with the
instruction mix of meanlab's own hot code (closures, small objects, float
math, recursive quadrature, dicts).  A CLI op is mostly interpreter
start-up and imports, numpy's above all, and that cost drifts
differently: in a test where the kernel missed the drift of a `meanlab
eval` process by up to 20%, and a bare interpreter start by up to 4%, an
interpreter that imports numpy (`interpreter_ns`) followed it within 2%.
CLI ops use that, and so do set-up times, which start an interpreter and
import meanlab and numpy in every workload.  Changing a reference or its
nominal time changes every normalized figure: treat it as a change to the
benchmark.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

_NODE = 0.7745966692414834  # sqrt(3/5), 3-point Gauss-Legendre


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def __call__(self, x: float) -> float:
        return self.a * x + self.b


def _panel(f, a: float, b: float) -> float:
    m = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return h * (5.0 * f(m - _NODE * h) + 8.0 * f(m) + 5.0 * f(m + _NODE * h)) / 9.0


def _adapt(f, a: float, b: float, whole: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    left = _panel(f, a, m)
    right = _panel(f, m, b)
    if abs(left + right - whole) <= tol or depth == 0:
        return left + right
    return (_adapt(f, a, m, left, 0.5 * tol, depth - 1)
            + _adapt(f, m, b, right, 0.5 * tol, depth - 1))


def _work(rounds: int) -> float:
    total = 0.0
    for r in range(rounds):
        table = {}
        for k in range(1, 40):
            z = k / (41.0 + r)
            line = _Affine(z, 1.0)

            def f(u: float, line=line) -> float:
                return math.sqrt(line(u)) / (1.0 + u * u)

            value = _adapt(f, 0.0, z, _panel(f, 0.0, z), 1e-10, 30)
            table[(k, z)] = (value, min(value, z), max(value, z))
            total += value
    return total


#: Rounds of work that take about 10 ms at nominal speed.
ROUNDS = 7

#: _work(ROUNDS), so that a run of the kernel can be checked.
CHECKSUM = _work(ROUNDS)


def kernel_ns() -> int:
    """Run the reference work once and return how long it took, in ns."""
    t0 = time.perf_counter_ns()
    value = _work(ROUNDS)
    elapsed = time.perf_counter_ns() - t0
    if value != CHECKSUM:
        raise RuntimeError("reference kernel gave a different result")
    return elapsed


def interpreter_ns() -> int:
    """Start an interpreter that imports numpy, wait for it, and return how
    long it took, in ns."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter_ns() - t0


@dataclass(frozen=True)
class Reference:
    """A reference and its time, in ms, at the speed figures are scaled to."""

    run: Callable[[], int]
    nominal_ms: float

    def median_ns(self, budget_ms: float = 30.0) -> float:
        """Median of reference runs, as many as fit in `budget_ms` (at least one)."""
        runs = [self.run()]
        while sum(runs) < budget_ms * 1e6:
            runs.append(self.run())
        return statistics.median(runs)


KERNEL = Reference(kernel_ns, 10.0)
INTERPRETER = Reference(interpreter_ns, 150.0)
FOR_WORKLOAD = {"cli": INTERPRETER, "suite": KERNEL, "pairs": KERNEL}

#: A timed op is scaled by the median of this many reference runs around
#: it, half before and half after.  Of 2, 4, 8, 16 and 32, 4 gave the
#: steadiest tail over 30-second stretches of a 4-minute `suite` and
#: `pairs` run; the machine's speed changes within seconds.
WINDOW = 4


def normalize(measured_ns: list[int], reference_ns: list[int], nominal_ms: float) -> list[float]:
    """Scale each measurement to the speed at which the reference takes `nominal_ms`.

    `reference_ns[i]` and `reference_ns[i + 1]` are the reference runs just
    before and after measurement i.  Single runs jitter, so the speed at
    measurement i is the median of the WINDOW runs around it (fewer at the
    ends of a short run).
    """
    if len(reference_ns) != len(measured_ns) + 1:
        raise ValueError("need a reference run before each measurement and after the last")
    scaled = []
    for i, ns in enumerate(measured_ns):
        lo = max(0, min(i - WINDOW // 2 + 1, len(reference_ns) - WINDOW))
        around = reference_ns[lo:lo + WINDOW]
        scaled.append(ns * nominal_ms * 1e6 / statistics.median(around))
    return scaled

"""One worker process of the benchmark: set up, one warm-up op, timed ops.

Usage (started by run.py, from the root of the checkout, with src/ on
PYTHONPATH):

    python perfbench/worker.py --workload W --seed N --seconds S --start I
                               --trace 0|1 --out DIR

It imports meanlab, builds the workload's inputs, runs one untimed op,
prints "ready", waits for a line on stdin, and then runs ops I, I+1, ...
until S seconds have passed, with a run of the workload's speed
reference (see speed.py) after each.  The last line it prints is a JSON object with the op
latencies (measured and normalized to nominal speed), counts, output
digests and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

#: A traced worker stops early once it holds this many spans (28 bytes each).
MAX_SPANS = 3_000_000


def _layer_metrics(ops: list[dict], items: list[dict], latency_ns: int) -> dict[str, float]:
    """Per-layer metrics of the traced ops.

    Times are means per op over `ops`.  Work counts are exact, so each is
    the mean over `items`, the counts of each distinct input met once; when
    a run meets every input of the cycle, the figure repeats exactly.
    """
    def time_ms(value):
        return sum(value(op) for op in ops) / len(ops) / 1e6

    def fn_ms(name):
        return time_ms(lambda op: op["fn_ns"].get(name, 0))

    def count(*names):
        return sum(c.get(name, 0) for c in items for name in names) / len(items)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    import meanlab.elliptic
    import meanlab.suite

    metrics = {f"{layer}.self_ms": time_ms(lambda op, layer=layer: op["self_ns"][layer])
               for layer in tracing.LAYERS}
    means_ms = metrics["means.self_ms"]
    mean_calls = count(tracing.MEAN_CALL)
    metrics.update({
        "cli.run_command_ms": fn_ms("cli.run_command"),
        "means.calls": mean_calls,
        "means.check_pair_calls": count("means.check_pair"),
        "means.eval_us": per(means_ms * 1e3, mean_calls),
        "elliptic.calls": count(*(f"elliptic.{name}" for name in meanlab.elliptic.__all__)),
        "elliptic.agm_calls": count("elliptic.agm"),
        "elliptic.ellip_k_agm_calls": count("elliptic.ellip_k.agm"),
        "elliptic.ellip_k_series_calls": count("elliptic.ellip_k.series"),
        "elliptic.ellip_k_quadrature_calls": count("elliptic.ellip_k.quadrature"),
        "elliptic.ellip_e_calls": count("elliptic.ellip_e"),
        "calculus.integrate_calls": count("calculus.integrate"),
        "calculus.integrand_evals": count(tracing.INTEGRAND),
        "calculus.evals_per_integrate": per(count(tracing.INTEGRAND),
                                            count("calculus.integrate")),
        "calculus.i_operator_calls": count("calculus.apply_i_operator"),
        "calculus.probe_shape_ms": fn_ms("calculus.probe_shape"),
        "harmonic.verify_identity_ms": fn_ms("harmonic.verify_identity"),
        "harmonic.check_representable_ms": fn_ms("harmonic.check_representable"),
        "inequalities.chain_points": count(tracing.CHAIN_POINTS),
        "inequalities.skipped_points": count(tracing.SKIPPED_POINTS),
        "inequalities.run_chain_suite_ms": fn_ms("inequalities.run_chain_suite"),
        "reporting.build_ms": fn_ms("reporting.build_report"),
        "reporting.render_ms": fn_ms("reporting.render_report"),
        "trace.spans_per_op": sum(op["spans"] for op in ops) / len(ops),
    })
    for check in meanlab.suite.SUITE_CHECKS:
        name = check.__name__
        metrics[f"suite.{name.removeprefix('check_')}_ms"] = fn_ms(f"suite.{name}")
    if metrics["cli.run_command_ms"]:
        # share of a traced invocation's wall time spent outside run_command
        metrics["cli.startup_share"] = 1.0 - metrics["cli.run_command_ms"] * 1e6 / latency_ns
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--start", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import meanlab

    src = Path.cwd() / "src"
    if src not in Path(meanlab.__file__).resolve().parents:
        print(f"meanlab imported from {meanlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    trace_dir = None
    if args.trace:
        if args.workload == "cli":
            trace_dir = args.out / "cli-ops"
            trace_dir.mkdir(parents=True, exist_ok=True)
            for old in trace_dir.iterdir():
                old.unlink()
        else:
            tracer = tracing.Tracer()
            tracer.install()
    workload = workloads.build(args.workload, args.seed, dict(os.environ), trace_dir)
    workload.check(args.start, workload.run(args.start), timed=False)
    print("ready", flush=True)
    sys.stdin.readline()  # the parent times the speed reference, then says go

    reference = speed.FOR_WORKLOAD[args.workload]
    latencies = []
    references = [reference.run()]
    i = args.start
    deadline = time.perf_counter() + args.seconds
    clock = time.perf_counter_ns
    while True:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        output = workload.run(i)
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        references.append(reference.run())
        latencies.append(t1 - t0)
        workload.check(i, output)
        i += 1
        if time.perf_counter() >= deadline:
            break
        if tracer is not None and len(tracer.name) > MAX_SPANS:
            break

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "latencies_ns": latencies,
        "normalized_ns": speed.normalize(latencies, references, reference.nominal_ms),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "evals_attempted": workload.evals_attempted,
        "evals_failed": workload.evals_failed,
        "breakdown": dict(workload.breakdown),
        "group_attempted": dict(workload.group_attempted),
        "digests": workload.digests,
        "problems": workload.problems[:20],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if args.trace:
        if tracer is not None:
            tracer.dump(args.out / f"trace-{args.workload}")
            ops = tracing.summarize(tracer)
        else:
            ops = {}
            for op in range(args.start, i):
                ops.update(tracing.summarize(tracing.load(trace_dir / f"op{op}")))
        # work counts are exact: every op on the same input must repeat them
        items: dict[int, dict] = {}
        for op in sorted(ops):
            counts = items.setdefault(op % workload.items, ops[op]["counts"])
            if counts != ops[op]["counts"]:
                result["failed"] += 1
                result["problems"].append(f"op {op}: work counts differ from its input's first op")
        result["layers"] = _layer_metrics([ops[op] for op in sorted(ops)], list(items.values()),
                                          sum(latencies) // len(latencies))
        result["inputs_traced"] = len(items)
        result["counts_digest"] = workloads.digest(sorted(items.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

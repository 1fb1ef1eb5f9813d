"""Tests of the benchmark's pure parts.

Run from the root of the repository: python -m pytest perfbench
"""

import json
import math
import random
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

MEAN_IDS = ["A", "G", "H", "AGM"]
CHAINS = ["hh-L-H", "hh-AGM-V"]
PAIRS = [("L", "H"), ("AGM", "V")]


def test_pair_batches_are_seeded():
    first = workloads.generate_batches(5, MEAN_IDS)
    assert first == workloads.generate_batches(5, MEAN_IDS)
    assert first != workloads.generate_batches(6, MEAN_IDS)
    assert len(first) == workloads.BATCHES


def test_pairs_are_positive_and_wide_ones_are_placed_by_index():
    lo_scale, hi_scale = workloads.NARROW_SCALE
    for batch in workloads.generate_batches(1, MEAN_IDS):
        assert len(batch["pairs"]) == workloads.PAIRS_PER_BATCH
        assert batch["deform"][0] in MEAN_IDS and 0.0 < batch["deform"][1] <= 1.0
        for j, (x, y) in enumerate(batch["pairs"]):
            assert 0.0 < x <= y and math.isfinite(y)
            if not workloads.is_wide(j):  # (x + y) / 2 is the scale
                assert lo_scale * (1 - 1e-9) <= (x + y) / 2 <= hi_scale * (1 + 1e-9)
    wide = [j for j in range(20) if workloads.is_wide(j)]
    assert wide == [9, 19]


def test_wide_pairs_reach_both_ends_of_the_doubles():
    rng = random.Random(3)
    xs = [workloads.generate_pair(rng, wide=True)[0] for _ in range(2000)]
    assert min(xs) < 1e-250 and max(xs) > 1e250


def test_cli_argvs_are_seeded_and_hold_every_kind():
    first = workloads.generate_argvs(9, MEAN_IDS, CHAINS, PAIRS)
    assert first == workloads.generate_argvs(9, MEAN_IDS, CHAINS, PAIRS)
    assert first != workloads.generate_argvs(10, MEAN_IDS, CHAINS, PAIRS)
    assert len(first) == len(workloads.CLI_KINDS) * workloads.CLI_KIND_REPEATS
    verbs = [tuple(argv[:2]) for argv in first]
    for verb in (("harmonic", "check"), ("harmonic", "construct"), ("harmonic", "verify"),
                 ("ineq", "run")):
        assert verbs.count(verb) == workloads.CLI_KIND_REPEATS
    for argv in first:
        if argv[:2] in (["harmonic", "check"], ["harmonic", "verify"], ["ineq", "run"]):
            assert argv[-2:] == ["--format", "csv"]


@pytest.mark.parametrize("n", [11, 12, 40, 131, 1000])
def test_tail_keeps_ten_samples_beyond_it(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) >= run.TAIL_BEYOND
    assert sum(v >= value for v in values) == run.TAIL_BEYOND + 1
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_times_on_nested_spans():
    # root [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 50]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    parent = [-1, 0, 0, 2]
    assert list(tracing.self_times(start, end, parent)) == [50, 20, 25, 5]


def test_self_times_count_overlapping_children_once_and_clip_them():
    start = [0, 10, 20, 90]
    end = [100, 30, 40, 120]
    parent = [-1, 0, 0, 0]
    # children cover [10, 40] and [90, 100] of the root
    assert list(tracing.self_times(start, end, parent))[0] == 60


def test_tracer_records_spans_counts_and_layer_self_time():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer._spanning(inner, "elliptic.inner")

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer._spanning(outer, "means.outer")
    assert wrapped_outer(1) == 4  # inactive: no spans
    assert len(tracer.name) == 0
    tracer.begin_op(7)
    assert wrapped_outer(1) == 4
    assert wrapped_outer(2) == 6
    tracer.end_op()
    assert [tracer.names[n] for n in tracer.name] == ["means.outer", "elliptic.inner"] * 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert list(tracer.op) == [7] * 4
    assert tracer.op_counts[7] == {"means.outer": 2, "elliptic.inner": 2}
    ops = tracing.summarize(tracer)
    total = sum(tracer.end[i] - tracer.start[i] for i in (0, 2))
    assert sum(ops[7]["self_ns"].values()) == total
    assert ops[7]["spans"] == 4


def test_tracer_dump_and_load_round_trip(tmp_path):
    tracer = tracing.Tracer()
    f = tracer._spanning(lambda: None, "cli.f")
    tracer.begin_op(0)
    f()
    tracer.end_op()
    tracer.dump(tmp_path / "t")
    back = tracing.load(tmp_path / "t")
    assert back.names == tracer.names and back.op_counts == tracer.op_counts
    assert list(back.start) == list(tracer.start) and list(back.end) == list(tracer.end)


def test_normalize_scales_by_the_median_reference_around_each_op():
    nominal = 10.0
    refs = [10_000_000] * 8 + [20_000_000] * 5  # the machine halves its speed
    measured = [50_000_000] * 12
    scaled = speed.normalize(measured, refs, nominal)
    assert scaled[0] == pytest.approx(50_000_000)
    assert scaled[-1] == pytest.approx(25_000_000)
    with pytest.raises(ValueError):
        speed.normalize(measured, refs[:-1], nominal)


def test_kernel_repeats_its_work():
    assert speed.kernel_ns() > 0


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

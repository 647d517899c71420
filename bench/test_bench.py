"""Tests of the benchmark's own logic: python3 -m pytest bench/test_bench.py"""

import json
import os

import pytest

from child import COUNT_NAMES
from run import (PROBE_REF_MS, Run, error_rate, import_seconds, relative_speed, report,
                 tally)
from spans import Tracer, covered_ns, self_times_ns, tail_percentile, tail_value
from workloads import (WORKLOADS, check_features, check_rfe_trace,
                       check_zero_lr_unlearnable, derive_seed)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_covered_ns_merges_overlaps_and_skips_empty_intervals():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20
    assert covered_ns([(20, 25), (0, 10), (10, 12)]) == 17


def test_self_time_subtracts_children_only_within_the_parent():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 30, 0],
        ["a.inner", 12, 20, 1],
        ["b", 25, 40, 0],  # overlaps a: counted once
        ["c", 90, 120, 0],  # runs past the parent's end: clipped to 90..100
    ]
    assert self_times_ns(spans) == [100 - (40 - 10) - 10, 20 - 8, 8, 15, 30]


def test_tracer_charges_counter_time_to_neither_call_nor_caller():
    tracer = Tracer()

    def counter(t, args, kwargs, result):
        t.count("things", result)

    wrapped = tracer.wrap(lambda x: x * 2, "double", counter)
    assert tracer.call("outer", lambda: wrapped(3) + wrapped(4)) == 14
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "double", "bench.counters", "double", "bench.counters"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0, 0]
    assert tracer.counts == {"things": 14}
    outer_self = self_times_ns(tracer.spans)[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert outer_self == tracer.spans[0][2] - tracer.spans[0][1] - children


@pytest.mark.parametrize("n, label", [
    (0, None), (19, None), (20, "p50"), (99, "p50"), (100, "p90"),
    (999, "p90"), (1000, "p99"), (9999, "p99"), (10000, "p99.9"),
    (100000, "p99.99"),
])
def test_tail_is_the_highest_percentile_with_ten_calls_beyond(n, label):
    chosen = tail_percentile(n)
    assert (chosen[0] if chosen else None) == label


def test_tail_value_leaves_exactly_the_required_calls_beyond():
    durations = list(range(1000, 0, -1))  # 1..1000, unsorted
    label, value = tail_value(durations)
    assert label == "p99"
    assert sum(1 for d in durations if d > value) == 10
    assert tail_value(list(range(1, 120))) == ("p90", 108)  # 11 beyond
    assert tail_value([5, 9, 7]) == ("max", 9)
    assert tail_value([]) == ("none", 0)


def _features_csv(tmp_path, cell):
    os.makedirs(tmp_path / "extract")
    names = [f"f{i}" for i in range(94)]
    with open(tmp_path / "extract" / "features.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(["sample_id", "label"] + names) + "\n")
        fh.write(",".join(["s0", "0"] + ["1.5"] * 94) + "\n")
        fh.write(",".join(["s1", "1"] + ["1.5"] * 93 + [cell]) + "\n")


def test_features_check_rejects_non_finite_values(tmp_path):
    _features_csv(tmp_path, "2.0")
    assert check_features(str(tmp_path)) is None
    for bad in ("nan", "inf", "-inf"):
        other = tmp_path / bad
        _features_csv(other, bad)
        assert "non-finite" in check_features(str(other))


def test_failed_check_counts_in_error_rate(tmp_path):
    _features_csv(tmp_path, "nan")
    run = Run(str(tmp_path), WORKLOADS["extract-96"], seed=1, seconds=1, trace=False)
    run.ops += [{"name": "cli.phantom", "ok": True, "detail": ""},
                {"name": "cli.extract", "ok": True, "detail": ""},
                {"name": "cli.filter", "ok": True, "detail": ""}]
    run.check("check_features", check_features(str(tmp_path)))
    assert tally(run.ops) == (4, 1)
    assert error_rate(run.ops) == 0.25


def test_rfe_trace_check_wants_one_step_per_feature_down_to_empty(tmp_path):
    os.makedirs(tmp_path / "rfe")
    names = [f"f{i}" for i in range(94)]
    steps = [{"subset": names[:k], "cv_accuracy": 0.5} for k in range(93, -1, -1)]
    path = tmp_path / "rfe" / "rfe_trace.json"
    path.write_text(json.dumps({"initial_ranking": names, "steps": steps}))
    assert check_rfe_trace(str(tmp_path)) is None
    path.write_text(json.dumps({"initial_ranking": names, "steps": steps[:-1]}))
    assert check_rfe_trace(str(tmp_path)) is not None


def test_zero_lr_check_wants_unlearnable(tmp_path):
    for case, verdict in (("healthy", "learnable"), ("zero_lr", "inconclusive"),
                          ("no_visible_cue", "unlearnable"),
                          ("transfer_frozen_conv1", "learnable")):
        os.makedirs(tmp_path / case)
        (tmp_path / case / "diagnosis.json").write_text(json.dumps({"verdict": verdict}))
    assert "zero_lr" in check_zero_lr_unlearnable(str(tmp_path))
    (tmp_path / "zero_lr" / "diagnosis.json").write_text('{"verdict": "unlearnable"}')
    assert check_zero_lr_unlearnable(str(tmp_path)) is None


def test_config_seeds_depend_only_on_the_benchmark_seed():
    a = WORKLOADS["pipeline-default"].config(7)
    assert a == WORKLOADS["pipeline-default"].config(7)
    assert a != WORKLOADS["pipeline-default"].config(8)
    assert all(0 <= v < 2 ** 31 for v in a["seeds"].values())
    assert derive_seed(7, "forest") != derive_seed(7, "rfe")


def test_import_seconds_sums_the_least_nested_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy.ndimage._a",
        "import time:        50 |        300 |         scipy.ndimage._b",
        "import time:        40 |         40 |           scipy.ndimage._c",
        "import time:       900 |       2000 |   radlearn",
        "import time:       500 |       3000 | radlearn.cli",
    ])
    assert import_seconds(stderr, "scipy.ndimage") == pytest.approx(400e-6)
    assert import_seconds(stderr, "radlearn") == pytest.approx(3000e-6)
    assert import_seconds(stderr, "numpy") == 0.0


def test_relative_speed_averages_the_middle_half_over_a_widened_window():
    ref_ns = int(PROBE_REF_MS * 1e6)
    # six loops at half speed, one cut short, one stretched, one far outside
    samples = [[t, t + 2 * ref_ns] for t in range(0, 6_000_000, 1_000_000)]
    samples += [[6_000_000, 6_000_000 + ref_ns // 10], [7_000_000, 7_000_000 + 50 * ref_ns],
                [9_000_000_000, 9_000_000_000 + ref_ns]]
    assert relative_speed(samples, (0, 8_000_000)) == pytest.approx(0.5)
    # a 1 ms interval is widened to PROBE_MIN_WINDOW_S around its middle
    assert relative_speed(samples, (3_000_000, 4_000_000)) == pytest.approx(0.5)
    assert relative_speed(samples, (5_000_000_000, 5_000_000_001)) is None


def _fake_rep(traced):
    spans = [["cli.rfe", 2_000_000_000, 2_000_000_010, -1]] if traced else []
    return {"traced": traced, "digests": {"a": "0"}, "result": {
        "wall_ns": [1_000_000_000, 4_000_000_000], "peak_rss_mb": 60.0,
        "versions": {"python": "3", "numpy": "2", "scipy": "1"},
        "spans": spans, "counts": {}, "ops": []}}


def test_benchmark_json_matches_the_workloads_and_every_metric_resolves(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    # the probe ran at twice the reference loop time: reported times halve
    probe = [[t, t + int(2 * PROBE_REF_MS * 1e6)] for t in range(0, 5_000_000_000, 50_000_000)]
    measured = {"setups": [(0, 400_000_000)], "importtimes": [(0.5, 0.3)],
                "reps": [_fake_rep(False), _fake_rep(True)], "probe": probe}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        run = Run(str(tmp_path), WORKLOADS["pipeline-default"], seed=1, seconds=1, trace=trace)
        metrics, detail = report(run, spec, measured)
        assert list(metrics) == [m["name"] for m in spec[section]]
        assert all(op["ok"] for op in run.ops)
    assert detail["metrics"]["wall_s"] == pytest.approx(1.5)
    assert detail["metrics"]["bench.wall_measured_s"] == pytest.approx(3.0)
    assert detail["metrics"]["setup_s"] == pytest.approx(0.2)
    assert metrics["cli.rfe.s"]["value"] == 1e-8
    assert set(COUNT_NAMES) <= set(metrics)

"""Tests of the benchmark's own arithmetic on tiny synthetic inputs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_nested_and_adjacent_children():
    spans = [
        _span("p", "table", 0.0, 10.0),
        _span("a", "harness", 1.0, 3.0, "p"),
        _span("b", "harness", 3.0, 6.0, "p"),  # adjacent to a
        _span("g", "engine", 1.5, 2.5, "a"),  # nested in a
    ]
    own = stats.self_times(spans)
    assert own["table"] == pytest.approx(5.0)
    assert own["harness"] == pytest.approx(1.0 + 3.0)
    assert own["engine"] == pytest.approx(1.0)
    # Self times partition the root span exactly.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [
        _span("p", "exec", 0.0, 10.0),
        _span("a", "io", 1.0, 4.0, "p"),
        _span("b", "io", 2.0, 5.0, "p"),  # overlaps a (another thread)
        _span("c", "io", 9.0, 12.0, "p"),  # runs past its parent
    ]
    assert stats.self_times(spans)["exec"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert stats.self_times([_span("x", "store.read", 2.0, 2.5)]) == {
        "store.read": pytest.approx(0.5)}


@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90),
    (99, 75), (40, 75), (20, 50), (19, None),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summary_reports_the_well_sampled_tail_only():
    assert set(stats.summary(list(range(200)))) == {"n", "p50", "p95"}
    assert set(stats.summary(list(range(19)))) == {"n", "p50"}
    assert stats.summary([]) == {"n": 0}


def test_failures_count_refusals_errors_and_failed_checks():
    statuses = [200, 201, 429, 503, 500, 599, 200, 200]
    attempted, failed = stats.count_failures(statuses, checks_failed=2)
    assert (attempted, failed) == (10, 6)
    assert stats.failed_frac(attempted, failed) == pytest.approx(0.6)
    assert stats.count_failures([200, 204]) == (2, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)


def test_outcome_counts_failed_checks():
    outcome = run.Outcome()
    outcome.add(True, "ok")
    outcome.add(False, "T1: law check")
    outcome.add_counts(10, 3, "HTTP 429")
    assert (outcome.attempted, outcome.failed) == (12, 4)
    assert outcome.reasons == ["T1: law check", "HTTP 429"]


def test_end_to_end_reports_zero_when_every_pass_failed():
    failed = {"wall": 2.0, "cpu": 1.5, "latencies": [], "reads": [], "units": 0}
    values, _ = run.end_to_end([0.4, 0.5, 0.6], [failed, dict(failed, wall=4.0)], 80.0)
    assert values["setup_s"] == 0.5 and values["wall_s"] == 3.0
    assert values["submit_to_done_p50_ms"] == 0.0 and values["read_p50_ms"] == 0.0
    assert values["runs_per_s"] == 0.0 and values["peak_rss_mb"] == 80.0
    assert set(values) == set(run.END_TO_END)


def test_end_to_end_skips_passes_without_samples():
    ok = {"wall": 2.0, "cpu": 1.0, "latencies": [10.0, 30.0], "reads": [1.0], "units": 2}
    failed = dict(ok, latencies=[], reads=[], units=0)
    values, _ = run.end_to_end([0.5], [ok, failed], 80.0)
    assert values["submit_to_done_p50_ms"] == 20.0 and values["read_p50_ms"] == 1.0


def test_batched_reps_counted_by_position_or_keyword():
    sys.path.insert(0, str(HERE / "tracehook"))
    import _perfbench_tracer as tracer

    def engine(policy, n, adversary, reps, max_slots, root_seed=None):
        return None

    assert tracer._counts("engine.batched", engine, (None, 64, None, 256, 900), {},
                          None) == {"reps": 256}
    assert tracer._counts("engine.batched", engine, (None, 64, None),
                          {"reps": 128, "max_slots": 9}, None) == {"reps": 128}

    def write(path, text):
        return None

    assert tracer._counts("io.checkpoint", write, ("p",), {"text": "héllo"},
                          None) == {"bytes": 6}


class _Table:
    def __init__(self, rows):
        self.rows = rows

    def column_values(self, key):
        return [row.get(key) for row in self.rows]


def test_table_laws():
    t1 = _Table([{"adversary": "none", "n": n, "median_slots": m, "success_rate": 1.0}
                 for n, m in ((64, 70), (256, 100), (1024, 136))])
    t2_bad = _Table([{"eps": e, "median_slots": m, "success_rate": 1.0}
                     for e, m in ((0.3, 237), (0.5, 137), (0.8, 150))])
    f2 = _Table([{"budget": b, "success_rate": s}
                 for b, s in ((64, 0.0), (128, 0.2), (192, 1.0))])
    f2_short = _Table([{"budget": b, "success_rate": s} for b, s in ((64, 0.0), (128, 0.9))])
    t5_miss = _Table([{"success_rate": 1.0}, {"success_rate": 0.98}])
    checks = dict(run.table_checks(
        {"T1": t1, "T2": t2_bad, "F2": f2, "A1": f2_short, "T5": t5_miss}))
    assert checks == {"T1": True, "T2": False, "F2": True, "A1": True, "T5": False}
    assert dict(run.table_checks({"F2": f2_short})) == {"F2": False}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

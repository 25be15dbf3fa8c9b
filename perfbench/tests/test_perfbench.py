"""Tests of the benchmark's own arithmetic, tracing and workloads.

Run from the checkout root:  python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import run, stats
from perfbench.tracer import Tracer, layer_metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _span(start, end, parent=None):
    return SimpleNamespace(start=start, end=end, parent=parent)


# ---------------------------------------------------------------------------
# the tail rule
# ---------------------------------------------------------------------------


def test_tail_reports_highest_percentile_with_ten_beyond():
    xs = list(range(1, 31))  # 30 samples
    t = stats.tail(xs)
    assert (t.value, t.beyond, t.n) == (20, 10, 30)
    assert t.percentile == pytest.approx(100 * 19 / 29)
    assert sum(x > t.value for x in xs) == 10


def test_tail_at_exactly_twenty_one_samples_is_the_median():
    t = stats.tail(range(21))
    assert (t.value, t.percentile, t.beyond) == (10, 50.0, 10)


@pytest.mark.parametrize("n, beyond", [(20, 10), (5, 2), (4, 2), (2, 1)])
def test_tail_falls_back_to_median_below_twenty_one_samples(n, beyond):
    xs = list(range(n))
    t = stats.tail(xs)
    assert t.percentile == 50.0
    assert t.value == np.median(xs)
    assert t.beyond == beyond == sum(x > t.value for x in xs)


def test_tail_of_one_sample():
    assert stats.tail([3.0]) == stats.Tail(3.0, 50.0, 0, 1)


def test_tail_is_order_independent():
    xs = list(np.random.default_rng(1).random(57))
    assert stats.tail(xs) == stats.tail(sorted(xs, reverse=True))


# ---------------------------------------------------------------------------
# failure ratio and ratios with their base
# ---------------------------------------------------------------------------


def test_failure_ratio_counts_every_failure():
    assert stats.failure_ratio(0, 5) == 0.0
    assert stats.failure_ratio(2, 8) == 0.25
    assert stats.failure_ratio(3, 3) == 1.0


@pytest.mark.parametrize("failed, attempted", [(0, 0), (4, 3), (-1, 3)])
def test_failure_ratio_rejects_impossible_counts(failed, attempted):
    with pytest.raises(ValueError):
        stats.failure_ratio(failed, attempted)


def test_ratio_is_reported_with_both_bases():
    out = stats.Ratio(3.0, 12.0).metrics("x.y", base_unit="s")
    assert out == {"x.y": (0.25, "ratio"), "x.y.num": (3.0, "s"), "x.y.den": (12.0, "s")}


def test_ratio_over_an_empty_base_is_zero():
    r = stats.Ratio(0, 0)
    assert r.value == 0.0
    assert r.metrics("z")["z.den"] == (0.0, "count")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([(0, 10), (2, 3)]) == 10
    assert stats.union_length([(-5, 2), (8, 20)], lo=0, hi=10) == 4
    assert stats.union_length([]) == 0


def test_self_time_of_nested_spans():
    a = _span(0.0, 10.0)
    b = _span(2.0, 8.0, a)
    c = _span(3.0, 4.0, b)
    st = stats.self_times([a, b, c])
    assert st[id(a)] == pytest.approx(4.0)
    assert st[id(b)] == pytest.approx(5.0)
    assert st[id(c)] == pytest.approx(1.0)


def test_self_time_with_thread_overlapping_children():
    # two pool threads' children overlap in time: covered part is their union
    p = _span(0.0, 10.0)
    kids = [_span(1.0, 5.0, p), _span(3.0, 8.0, p), _span(9.0, 12.0, p)]
    st = stats.self_times([p, *kids])
    assert st[id(p)] == pytest.approx(10.0 - 7.0 - 1.0)
    assert sum(st[id(k)] for k in kids) == pytest.approx(4 + 5 + 3)


def test_tracer_adopts_load_generator_span_on_pool_threads(tmp_path):
    tracer = Tracer()
    nap = tracer.wrap(lambda s: time.sleep(s), "leaf", "leaf")

    def study():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(nap, [0.05, 0.05]))

    tracer.op = 0
    tracer.wrap(study, "parent", "parent")()
    leaves = [s for s in tracer.spans if s.role == "leaf"]
    parent = next(s for s in tracer.spans if s.role == "parent")
    assert len(leaves) == 2 and all(s.parent is parent for s in leaves)
    assert {s.op for s in tracer.spans} == {0}
    st = stats.self_times(tracer.spans)
    covered = stats.union_length([(s.start, s.end) for s in leaves])
    assert covered < sum(s.end - s.start for s in leaves)  # the two sleeps overlapped
    assert st[id(parent)] == pytest.approx(parent.end - parent.start - covered)
    tracer.dump(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    top = next(r["i"] for r in rows if r["role"] == "parent")
    assert [r["parent"] for r in rows if r["role"] == "leaf"] == [top, top]


def test_layer_metrics_of_an_empty_trace_are_zero():
    out = layer_metrics(Tracer(), {})
    assert all(value == 0 for value, _unit in out.values())


# ---------------------------------------------------------------------------
# workloads and the result contract
# ---------------------------------------------------------------------------


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in _benchmark_spec()["workloads"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_every_oracle_check_on_a_new_seed(name, tmp_path):
    wl = WORKLOADS[name]()
    seed = 20_261_017
    state, _ = run.timed_setup(wl, tmp_path, seed)
    assert all(state.checks.values())
    phase = run.run_phase(wl, state, np.random.default_rng([seed, 1]), 1e-3)
    assert len(phase.samples) == wl.cycle
    assert phase.failures == []


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_untraced_metrics_match_benchmark_json(tmp_path):
    metrics, attempted, failed, checks = run.untraced_run(
        WORKLOADS["ns-emu-n8"](), tmp_path, 5, 0.5, 0.1, {})
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {k: u for k, (_v, u) in metrics.items()} == spec
    assert all(v > 0 for v, _u in metrics.values())
    assert failed == 0 and attempted >= 1


def test_traced_metrics_match_benchmark_json(tmp_path):
    metrics, attempted, failed, checks = run.traced_run(
        WORKLOADS["ns-emu-n8"](), tmp_path, 6, 0.5, {}, tmp_path / "spans.jsonl")
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {k: u for k, (_v, u) in metrics.items()} == spec
    assert metrics["fno.forward.calls"][0] == 1.0
    assert metrics["navier_stokes.simulate.calls"][0] == 1.0
    assert failed == 0
    roles = {json.loads(line)["role"]
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()}
    assert {"fno.forward", "navier_stokes.simulate"} <= roles


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ns-emu-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import types
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import measure
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def test_span_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3];  root > c [6, 9]
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(
        measure.span_self_times(start, end, parent), [3.0, 3.0, 1.0, 3.0]
    )


def test_aggregate_spans_sums_calls_total_and_self_per_name():
    names = ["root", "f", "g"]
    name_id = [0, 1, 2, 1]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    agg = measure.aggregate_spans(names, name_id, start, end, parent)
    assert agg["f"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert agg["g"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert agg["root"]["self_s"] == 3.0


def test_tracer_nests_spans_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("m.inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    after = lambda t, args, kwargs, result: t.count("m.outer.calls_seen", 1)  # noqa: E731
    traced_outer = tracer.wrap("m.outer", outer, after)
    assert traced_outer(1) == 4
    assert traced_outer(2) == 6
    agg = measure.aggregate_spans(
        tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent
    )
    # each outer span lasts 3 ticks, its inner child 1
    assert agg["m.outer"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}
    assert agg["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert tracer.counters == {"m.outer.calls_seen": 2}


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert np.isfinite(tracer.end[0])
    assert tracer._stack() == []


def test_empirical_tv_against_exact_law():
    support = np.array([[0, 2], [1, 1], [2, 0]])
    logp = np.log([0.25, 0.5, 0.25])
    draws = np.array([[0, 2], [1, 1], [1, 1], [1, 1]])
    # frequencies 0.25, 0.75, 0: TV = 0.5 * (0 + 0.25 + 0.25)
    assert measure.empirical_tv(draws, support, logp) == pytest.approx(0.25)
    exact = np.repeat(support, [1, 2, 1], axis=0)
    assert measure.empirical_tv(exact, support, logp) == pytest.approx(0.0)
    assert measure.empirical_tv(np.array([[3, -1]]), support, logp) == float("inf")


def test_body_hash_ignores_leading_comment_lines(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_text("# config_hash=aaa\nreplicate,g,z\n0,s0,1\n")
    b.write_text("# config_hash=bbb\nreplicate,g,z\n0,s0,1\n")
    c.write_text("# config_hash=aaa\nreplicate,g,z\n0,s0,2\n")
    assert measure.body_sha256(a) == measure.body_sha256(b)
    assert measure.body_sha256(a) != measure.body_sha256(c)


def test_ledger_error_rate_counts_failed_over_attempted():
    ledger = measure.Ledger()
    assert ledger.error_rate == 0.0
    ledger.record("call", True)
    ledger.record("check", False, "bad")
    ledger.record("check", True)
    ledger.record("check", True)
    assert (ledger.attempted, ledger.failed, ledger.error_rate) == (4, 1, 0.25)


def test_a_crashing_check_counts_as_one_failed_operation():
    holder = types.SimpleNamespace(ledger=measure.Ledger())
    run.Run.check(holder, "ok", lambda: (True, ""))
    run.Run.check(holder, "crash", lambda: 1 / 0)
    assert (holder.ledger.attempted, holder.ledger.failed) == (2, 1)
    assert "ZeroDivisionError" in holder.ledger.records[1]["detail"]


@pytest.mark.parametrize("strata,total", [(2, 1), (2, 5), (3, 4), (4, 3)])
def test_neighbor_pairs_matches_enumeration(strata, total):
    pairs = 0
    for y in product(range(total + 1), repeat=strata):
        if sum(y) == total:
            pairs += sum(1 for v in y if v > 0) * (strata - 1)
    assert measure.neighbor_pairs(strata, total) == pairs


def test_read_long_replicates_maps_keys_in_any_row_order(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(
        "# config_hash=x\nreplicate,a,b,z\n1,k,2,7\n0,k,1,3\n0,k,2,4\n1,k,1,6\n"
    )
    z = measure.read_long_replicates(path, [("k", "1"), ("k", "2")])
    assert z.tolist() == [[3, 4], [6, 7]]
    path.write_text("replicate,a,b,z\n0,k,1,3\n0,k,1,4\n")
    with pytest.raises(ValueError):
        measure.read_long_replicates(path, [("k", "1"), ("k", "2")])
    path.write_text("replicate,a,b,z\n0,k,1,3\n1,k,1,3\n1,k,2,3\n")
    with pytest.raises(ValueError):
        measure.read_long_replicates(path, [("k", "1"), ("k", "2")])


def test_spawn_reports_the_childs_own_rusage(tmp_path):
    big = bytearray(300 * 10**6)  # this process's peak must not leak into the child's
    small = measure.spawn(
        [sys.executable, "-c", "import sys; sys.exit(3)"], env=None, cwd=tmp_path,
        log_path=tmp_path / "small.log", timeout_s=60,
    )
    large = measure.spawn(
        [sys.executable, "-c", "b = bytearray(80 * 10**6)"], env=None, cwd=tmp_path,
        log_path=tmp_path / "large.log", timeout_s=60,
    )
    del big
    assert small.returncode == 3 and large.returncode == 0
    assert small.peak_rss_mb < 50
    assert 80 < large.peak_rss_mb < 150
    assert small.wall_s > 0 and small.user_s >= 0


def test_spawn_kills_a_child_past_its_timeout(tmp_path):
    res = measure.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], env=None, cwd=tmp_path,
        log_path=tmp_path / "log", timeout_s=0.5,
    )
    assert res.returncode == -9
    assert res.wall_s < 10


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_traced_command_covers_its_wall_time(tmp_path):
    """A traced calibrate: root span, layer spans and counters all land."""
    (tmp_path / "s.csv").write_text("group,population,count\na,1000,10\nb,5000,90\n")
    (tmp_path / "r.csv").write_text("group,rate\na,0.015\nb,0.017\n")
    prefix = str(tmp_path / "spans")
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), prefix, "--", "calibrate",
         "--strata", "s.csv", "--rates", "r.csv", "--epsilon", "1.0", "--out", "c.json"],
        cwd=tmp_path, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    agg, meta = run.load_spans(prefix)
    assert agg["cli.calibrate"]["calls"] == 1
    assert agg["calibration.solve_hyperparameters"]["calls"] == 1
    assert agg["strata.from_csv"]["calls"] == 2
    assert meta["counters"]["calibration.sweeps"] >= 1
    main_s = meta["main_end"] - meta["main_start"]
    assert 0 < agg["cli.calibrate"]["self_s"] < main_s
    assert meta["children_s"] + agg["cli.calibrate"]["self_s"] == pytest.approx(
        main_s, abs=1e-3
    )

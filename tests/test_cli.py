"""End-to-end command line checks, run in process via main(argv)."""

import dataclasses
import hashlib
import itertools
import json
import logging
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pgsynth.cli import (
    _FIELD,
    COMMANDS,
    SETTINGS,
    RunConfig,
    _dims,
    _epsilons,
    _integer,
    _real,
    _resolve,
    _text,
    build_parser,
    main,
)
import pgsynth.cli as cli_mod
import pgsynth.synthesizer as synth
from pgsynth.errors import CalibrationError
from pgsynth.fixtures import FixtureSpec, demo_rates, demo_table, generate_fixture
from pgsynth.strata import RatesTable, StrataTable


@pytest.fixture()
def demo_files(tmp_path):
    strata = tmp_path / "strata.csv"
    rates = tmp_path / "rates.csv"
    demo_table().to_csv(strata)
    demo_rates().to_csv(rates)
    return {"strata": str(strata), "rates": str(rates), "dir": tmp_path}


def run(argv):
    return main(argv)


class TestCalibrate:
    def test_untruncated_anchors(self, demo_files, tmp_path):
        out = tmp_path / "calib.json"
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        a = [s["a"] for s in doc["strata"]]
        assert a[0] == pytest.approx(116.18635101, abs=1e-6)
        assert a[1] == pytest.approx(58.19767069, abs=1e-6)
        assert doc["converged"]
        assert doc["config_hash"]
        assert doc["config"]["epsilon"] == [1.0]

    def test_truncated_anchors_and_boxes(self, demo_files, tmp_path):
        out = tmp_path / "calib.json"
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "truncated",
            "--alpha", "1e-4", "--c", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["strata"][0]["a"] == pytest.approx(14.179281254, abs=1e-6)
        assert doc["strata"][1]["a"] == pytest.approx(0.001)
        # exchange boxes: each interval meets the other reflected in the total
        assert [s["L"] for s in doc["strata"]] == [3, 70]
        assert [s["U"] for s in doc["strata"]] == [30, 97]
        assert doc["exchange_rule_applied"]

    def test_epsilon_grid_writes_one_file_each(self, demo_files, tmp_path):
        out = tmp_path / "grid.json"
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "0.5", "1.0", "2.0", "--mode", "untruncated",
            "--out", str(out),
        ])
        assert code == 0
        a_first = []
        for tag in ("0p5", "1", "2"):
            path = tmp_path / f"grid_eps{tag}.json"
            assert path.exists()
            a_first.append(json.loads(path.read_text())["strata"][0]["a"])
        # looser budgets need smaller priors
        assert a_first[0] > a_first[1] > a_first[2]

    def test_config_file_with_flag_override(self, demo_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strata": demo_files["strata"],
            "rates": demo_files["rates"],
            "epsilon": 1.0,
            "mode": "untruncated",
            "out": str(tmp_path / "from_config.json"),
        }))
        out = tmp_path / "override.json"
        code = run(["calibrate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "from_config.json").exists()

    def test_config_with_a_byte_order_mark_reads_alike(self, demo_files, tmp_path):
        text = json.dumps({
            "strata": demo_files["strata"], "rates": demo_files["rates"],
            "epsilon": 1.0, "mode": "untruncated", "out": str(tmp_path / "c.json"),
        })
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        resolved = [
            _resolve(build_parser().parse_args(["calibrate", "--config", str(cfg)]))
            for cfg in (plain, marked)
        ]
        assert resolved[0].to_doc() == resolved[1].to_doc()

    def test_unknown_config_key_rejected(self, demo_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strata": demo_files["strata"],
            "rates": demo_files["rates"],
            "epsilon": 1.0,
            "mode": "untruncated",
            "epsilonn": 2.0,
            "out": str(tmp_path / "x.json"),
        }))
        assert run(["calibrate", "--config", str(cfg)]) == 2

    # e^1e-17 and e^1e-300 round to 1: no requirement could ever be met
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", ["-1.0", "inf", "nan", "1e-17", "1e-300"])
    def test_bad_epsilon_is_usage_error(self, demo_files, tmp_path, eps):
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", eps, "--mode", "untruncated",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode, eps, rate, c, code", [
        # e^eps overflows to inf, which asks no prior weight of any stratum
        ("untruncated", "1e300", "0.015", "1", 0),
        ("truncated", "1e300", "0.015", "1", 0),
        # a subnormal rate is refused like a zero one
        ("untruncated", "1.0", "1e-320", "1", 2),
        ("truncated", "1.0", "1e-320", "1", 2),
        # a normal rate whose box is wide enough that b = a / rate overflows
        ("truncated", "1.0", "1e-307", "1e306", 2),
    ], ids=[
        "huge-epsilon-untruncated", "huge-epsilon-truncated",
        "subnormal-rate-untruncated", "subnormal-rate-truncated", "infinite-b",
    ])
    def test_extreme_epsilon_or_rate(
        self, demo_files, tmp_path, capsys, mode, eps, rate, c, code
    ):
        Path(demo_files["rates"]).write_text(f"group,rate\na,{rate}\nb,0.017\n")
        out = tmp_path / "x.json"
        assert run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"], "--epsilon", eps, "--mode", mode,
            "--c", c, "--out", str(out),
        ]) == code
        err = capsys.readouterr().err
        if code:
            assert "prior rate" in err and not out.exists()
        else:
            assert err == ""
            doc = json.loads(
                out.read_text(), parse_constant=lambda name: pytest.fail(name)
            )
            assert [s["a"] for s in doc["strata"]] == [1e-3, 1e-3]

    def test_tiny_normal_rate_untruncated_is_refused_before_any_sweep(
        self, demo_files, tmp_path, capsys
    ):
        # lambda0_a is about 5.9e-308, and every untruncated a_a is at
        # least 100 / (e - 1), so b_a = a_a / lambda0_a overflows whatever
        # the sweeps would find
        Path(demo_files["rates"]).write_text("group,rate\na,5e-308\nb,0.017\n")
        out = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            code = run([
                "calibrate", "--strata", demo_files["strata"],
                "--rates", demo_files["rates"], "--epsilon", "1",
                "--mode", "untruncated", "--out", str(out),
            ])
            elapsed = time.perf_counter() - start
        assert code == 2 and elapsed < 1.0
        assert "prior rate is too small" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failing_epsilon_leaves_no_report(
        self, demo_files, tmp_path, monkeypatch
    ):
        # every epsilon is solved before the first report is written
        solve, calls = cli_mod._calibrate_once, []

        def second_fails(*args):
            calls.append(args[-1])
            if len(calls) == 2:
                raise CalibrationError("no fixed point within 100000 sweeps")
            return solve(*args)

        monkeypatch.setattr(cli_mod, "_calibrate_once", second_fails)
        assert run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"], "--epsilon", "1.0", "0.5",
            "--mode", "untruncated", "--out", str(tmp_path / "grid.json"),
        ]) == 1
        assert calls == [1.0, 0.5]
        assert not list(tmp_path.glob("grid*"))

    @pytest.mark.parametrize("c", ["inf", "nan", "0.5"])
    def test_bad_c_is_usage_error(self, demo_files, tmp_path, capsys, c):
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "truncated", "--c", c,
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "c must be finite and at least 1" in capsys.readouterr().err

    def test_alpha_whose_level_rounds_to_one_is_usage_error(
        self, demo_files, tmp_path, capsys
    ):
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "truncated", "--alpha", "1e-17",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "alpha 1e-17 is too small" in capsys.readouterr().err

    def test_huge_c_finishes(self, demo_files, tmp_path):
        # in a fresh process, so that a search that never ends times out
        out = tmp_path / "x.json"
        proc = run_python(
            "-m", "pgsynth", "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"], "--epsilon", "1.0",
            "--mode", "truncated", "--c", "1e17", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert [s["U"] for s in json.loads(out.read_text())["strata"]] == [100, 100]

    def test_infeasible_bounds_is_runtime_error(self, demo_files, tmp_path):
        code = run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "truncated",
            "--alpha", "0.49", "--c", "1.0",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1

    def test_missing_input_file(self, demo_files, tmp_path):
        code = run([
            "calibrate", "--strata", str(tmp_path / "nope.csv"),
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_malformed_strata_csv(self, demo_files, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("group,population,count\na,1000\n")
        code = run([
            "calibrate", "--strata", str(bad),
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_repeated_dimension_is_usage_error(self, tmp_path, capsys):
        strata, rates = tmp_path / "strata.csv", tmp_path / "rates.csv"
        strata.write_text("g,g,population,count\na,b,1000,10\nc,d,5000,90\n")
        rates.write_text("g,rate\na,0.015\nc,0.017\n")
        code = run([
            "calibrate", "--strata", str(strata), "--rates", str(rates),
            "--epsilon", "1.0", "--mode", "untruncated",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert f"{strata}:1: dimension 'g' is repeated" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("name", ["strata", "rates", "config"])
    def test_input_that_is_not_utf8_is_usage_error(
        self, demo_files, tmp_path, capsys, name
    ):
        paths = {**demo_files, "config": tmp_path / "config.json"}
        paths["config"].write_text('{"mode": "untruncated"}')
        bad = Path(paths[name])
        bad.write_bytes(b"\xff" + bad.read_bytes())
        code = run([
            "calibrate", "--strata", str(paths["strata"]),
            "--rates", str(paths["rates"]), "--config", str(paths["config"]),
            "--epsilon", "1.0", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pgsynth: error: ") and "not UTF-8" in err
        assert str(bad) in err

    @pytest.mark.parametrize("column, value", [
        ("population", 2**63), ("count", 2**63), ("count", 10**30),
    ])
    def test_count_of_2_63_or_more_is_usage_error(
        self, demo_files, tmp_path, capsys, column, value
    ):
        big = tmp_path / "big.csv"
        field = 1 if column == "population" else 2
        cells = ["a", "1000", "3"]
        cells[field] = str(value)
        big.write_text(f"group,population,count\n{','.join(cells)}\nb,900,4\n")
        code = run([
            "calibrate", "--strata", str(big),
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert f"big.csv:2: {column} '{value}' is 2^63 or more" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", [
        ["calibrate"], ["synthesize", "--replicates", "2", "--seed", "1"],
    ], ids=["calibrate", "synthesize"])
    def test_counts_summing_to_2_63_or_more_is_usage_error(
        self, demo_files, tmp_path, capsys, command
    ):
        # each count is below 2^63, but an int64 total would wrap to -2^63
        big = tmp_path / "big.csv"
        big.write_text(f"group,population,count\na,1000,{2**62}\nb,900,{2**62}\n")
        out = tmp_path / "out"
        code = run([
            *command, "--strata", str(big), "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--out", str(out),
        ])
        assert code == 2
        assert f"counts sum to {2**63}, which is 2^63 or more" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestSynthesize:
    def synth(self, demo_files, out, mode="untruncated", extra=()):
        return run([
            "synthesize", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", mode,
            "--replicates", "200", "--seed", "9",
            "--out", str(out), *extra,
        ])

    def test_outputs_and_manifest(self, demo_files, tmp_path):
        out = tmp_path / "run"
        assert self.synth(demo_files, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["epsilon"] == 1.0
        assert manifest["replicates"] == 200
        assert manifest["invariants"] == {"sum_ok": True, "box_ok": True}
        # timings follow the confidential counts: the operator's log, not
        # the released manifest, holds them
        timings = json.loads((out / "run_log.json").read_text())["timings_s"]
        assert set(timings) == {"calibrate", "sample", "write", "report"}
        assert not set(timings) & set(manifest) and "timings_s" not in manifest
        text = (out / "replicates.csv").read_text()
        assert text.startswith(f"# config_hash={manifest['config_hash']}\n")
        assert (out / "calibration_report.json").exists()
        assert not list(out.glob("*.tmp"))
        # every replicate keeps the invariant total
        rows = [line.split(",") for line in text.strip().split("\n")[2:]]
        totals = {}
        for rep, _group, z in rows:
            totals[rep] = totals.get(rep, 0) + int(z)
        assert set(totals.values()) == {100}

    def test_rerun_is_byte_identical(self, demo_files, tmp_path):
        out = tmp_path / "run"
        self.synth(demo_files, out)
        first = (out / "replicates.csv").read_bytes()
        self.synth(demo_files, out)
        assert (out / "replicates.csv").read_bytes() == first

    def test_truncation_widens_variance_here(self, demo_files, tmp_path):
        # conditioning on boxes concentrates mass toward their edges for
        # this instance: the truncated spread exceeds the untruncated one
        variances = {}
        for mode in ("untruncated", "truncated"):
            out = tmp_path / mode
            code = run([
                "synthesize", "--strata", demo_files["strata"],
                "--rates", demo_files["rates"],
                "--epsilon", "1.0", "--mode", mode,
                "--replicates", "2000", "--seed", "9",
                "--out", str(out),
            ])
            assert code == 0
            lines = (out / "replicates.csv").read_text().strip().split("\n")
            z1 = [int(line.split(",")[2]) for line in lines[2:]
                  if line.split(",")[1] == "a"]
            variances[mode] = np.var(z1)
        assert variances["truncated"] / variances["untruncated"] > 1.05

    def test_bad_replicate_count(self, demo_files, tmp_path):
        code = run([
            "synthesize", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--replicates", "0", "--seed", "9",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2


    def test_zero_threads_is_usage_error(self, demo_files, tmp_path):
        out = tmp_path / "run"
        assert self.synth(demo_files, out, extra=("--threads", "0")) == 2
        assert not out.exists()


class TestAudit:
    def test_pass_writes_report_and_curve(self, demo_files, tmp_path):
        out = tmp_path / "audit.json"
        code = run([
            "audit", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["max_abs_log_ratio"] == pytest.approx(0.96410157, abs=1e-6)
        curve = tmp_path / "audit_curve.csv"
        assert curve.exists()
        text = curve.read_text()
        assert text.startswith("# config_hash=")
        assert doc["ratio_curve"] == str(curve)

    def test_measured_violation_exits_one(self, tmp_path):
        # four heterogeneous strata: untruncated mode overshoots epsilon = 1
        keys = tuple((f"s{i}",) for i in range(4))
        n = (40, 160, 90, 70)
        w = (0.22, 0.24, 0.26, 0.28)
        strata = tmp_path / "strata.csv"
        rates = tmp_path / "rates.csv"
        StrataTable(dim_names=("g",), keys=keys, n=n, y=(7, 5, 6, 6)).to_csv(strata)
        RatesTable(
            dim_names=("g",), rates={k: wi / ni for k, wi, ni in zip(keys, w, n)}
        ).to_csv(rates)
        out = tmp_path / "audit.json"
        code = run([
            "audit", "--strata", str(strata), "--rates", str(rates),
            "--epsilon", "1.0", "--mode", "untruncated", "--out", str(out),
        ])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["pass"] is False
        assert doc["max_abs_log_ratio"] == pytest.approx(1.013076369582052, abs=1e-9)

    def test_enumeration_cap_is_runtime_error(self, demo_files, tmp_path):
        code = run([
            "audit", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--cap", "10", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_usage_error(self, demo_files, tmp_path, capsys, cap):
        out = tmp_path / "x.json"
        code = run([
            "audit", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "1.0", "--mode", "untruncated",
            "--cap", cap, "--out", str(out),
        ])
        assert code == 2
        assert "cap must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_cap_below_one_is_usage_error(self, demo_files, tmp_path, capsys):
        out = tmp_path / "x.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strata": demo_files["strata"], "rates": demo_files["rates"],
            "epsilon": 1.0, "cap": 0, "out": str(out),
        }))
        assert run(["audit", "--config", str(cfg)]) == 2
        assert "cap must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def evaluate_run(tmp_path):
    """A 24-stratum fixture and three replicates drawn from it under
    tmp_path; returns (fixture dir, run dir, evaluate argv writing m.csv)."""
    fix_dir, run_dir = tmp_path / "fix", tmp_path / "run"
    assert run([
        "fixture", "--out", str(fix_dir), "--spec", json.dumps({
            "dims": [["county", 2], ["age", 2], ["site", 1],
                     ["race", 3], ["sex", 2]],
            "total_deaths": 40, "state_population": 5_000,
            "seed": 0, "urban_count": 1,
        }),
    ]) == 0
    assert run([
        "synthesize", "--strata", str(fix_dir / "strata.csv"),
        "--rates", str(fix_dir / "rates.csv"), "--epsilon", "1.0",
        "--mode", "truncated", "--replicates", "3", "--seed", "1",
        "--out", str(run_dir),
    ]) == 0
    return fix_dir, run_dir, [
        "evaluate", "--truth", str(fix_dir / "strata.csv"),
        "--replicates", str(run_dir),
        "--std", str(fix_dir / "standard.csv"),
        "--density", str(fix_dir / "densities.csv"),
        "--population-dims", "county,age,race,sex",
        "--out", str(tmp_path / "m.csv"),
    ]


class TestEvaluateAndFixture:
    def test_fixture_synthesize_evaluate_pipeline(self, tmp_path):
        fix_dir = tmp_path / "fix"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dims": [["county", 4], ["age", 3], ["site", 1],
                     ["race", 3], ["sex", 2]],
            "total_deaths": 600,
            "state_population": 60_000,
            "seed": 5,
            "urban_count": 1,
        }))
        assert run(["fixture", "--spec", str(spec),
                    "--out", str(fix_dir)]) == 0
        manifest = json.loads((fix_dir / "manifest.json").read_text())
        assert manifest["strata"] == 4 * 3 * 1 * 3 * 2
        assert manifest["y_total"] == 600
        assert len(manifest["urban_counties"]) == 1
        for name in ("strata.csv", "rates.csv", "densities.csv",
                     "standard.csv"):
            assert (fix_dir / name).exists()

        run_dir = tmp_path / "run"
        assert run([
            "synthesize", "--strata", str(fix_dir / "strata.csv"),
            "--rates", str(fix_dir / "rates.csv"),
            "--epsilon", "2.0", "--mode", "truncated",
            "--replicates", "40", "--seed", "1",
            "--out", str(run_dir),
        ]) == 0

        metrics = tmp_path / "metrics.csv"
        assert run([
            "evaluate", "--truth", str(fix_dir / "strata.csv"),
            "--replicates", str(run_dir),
            "--std", str(fix_dir / "standard.csv"),
            "--density", str(fix_dir / "densities.csv"),
            "--population-dims", "county,age,race,sex",
            "--out", str(metrics),
        ]) == 0
        lines = metrics.read_text().strip().split("\n")
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "metric,selector,epsilon,replicate,value"
        body = [line.split(",") for line in lines[2:]]
        metrics_seen = {row[0] for row in body}
        assert metrics_seen == {"age_adjusted_rate", "disparity_ratio"}
        selectors = {row[1] for row in body if row[0] == "disparity_ratio"}
        assert "race=black/race=white" in selectors
        assert "urban/rural" in selectors
        # epsilon column comes from the synthesize manifest
        assert {row[2] for row in body} == {"2.0"}
        tags = {row[3] for row in body if row[0] == "age_adjusted_rate"}
        assert {"truth", "mean", "p2.5", "p97.5", "0", "39"} <= tags
        # every byte as the per-replicate, per-age-group loop wrote it;
        # only the config_hash line embeds paths
        raw = metrics.read_bytes()
        assert raw.startswith(lines[0].encode() + b"\n")
        digest = hashlib.sha256(raw.split(b"\n", 1)[1]).hexdigest()
        assert digest == (
            "4059b960fc5e37c7649635a53225d53f770e372ae1a65e85b8c3d467e48b7c4f"
        )

    def test_evaluate_missing_replicates(self, tmp_path):
        fix_dir = tmp_path / "fix"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dims": [["county", 2], ["age", 2], ["site", 1],
                     ["race", 3], ["sex", 2]],
            "total_deaths": 40, "state_population": 5_000,
            "seed": 0, "urban_count": 1,
        }))
        run(["fixture", "--spec", str(spec), "--out", str(fix_dir)])
        code = run([
            "evaluate", "--truth", str(fix_dir / "strata.csv"),
            "--replicates", str(tmp_path / "nowhere"),
            "--std", str(fix_dir / "standard.csv"),
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("name", [
        "strata.csv", "standard.csv", "densities.csv", "replicates.csv",
    ])
    def test_evaluate_input_that_is_not_utf8(self, tmp_path, capsys, name):
        # the byte sits in each file's leading comment line
        fix_dir, run_dir, argv = evaluate_run(tmp_path)
        bad = (run_dir if name == "replicates.csv" else fix_dir) / name
        text = bad.read_bytes()
        assert text.startswith(b"#")
        bad.write_bytes(b"#\xff" + text[1:])
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err

    def test_replicate_count_of_2_63_or_more_is_usage_error(self, tmp_path, capsys):
        _, run_dir, argv = evaluate_run(tmp_path)
        reps = run_dir / "replicates.csv"
        lines = reps.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{2**63}"
        reps.write_text("\n".join(lines) + "\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{reps}:3: count '{2**63}' is 2^63 or more" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("row, where", [
        (None, "has zero rate\n"), (1, "has zero rate in replicate 1\n"),
    ], ids=["truth", "replicate"])
    def test_zero_denominator_names_its_row(self, tmp_path, capsys, row, where):
        # evaluate scores the truth and the replicates in one matrix; the
        # message still names the truth, or the replicate by its own index
        fix_dir, run_dir, argv = evaluate_run(tmp_path)
        table = StrataTable.from_csv(fix_dir / "strata.csv")
        white = np.array([key[3] == "white" for key in table.keys])
        if row is None:
            y = np.where(white, 0, table.y)
            StrataTable(table.dim_names, table.keys, table.n, y).to_csv(
                fix_dir / "strata.csv"
            )
        else:
            matrix = synth.read_replicates_csv(run_dir / "replicates.csv", table)
            matrix[row, white] = 0
            synth.write_replicates_csv(run_dir / "replicates.csv", table, matrix)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"denominator group race=white {where}")

    @pytest.mark.parametrize("value", ["nan", "-5"])
    def test_density_that_is_not_finite_and_nonnegative_is_usage_error(
        self, tmp_path, capsys, value
    ):
        fix_dir, _, argv = evaluate_run(tmp_path)
        dens = fix_dir / "densities.csv"
        lines = dens.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + f",{value}"
        dens.write_text("\n".join(lines) + "\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{dens}:3: density '{value}' is not a finite nonnegative number" in err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_urban_threshold_that_is_not_finite_is_usage_error(
        self, tmp_path, capsys, threshold
    ):
        # any of these puts every county on one side, and the urban/rural
        # disparity would be dropped without a word
        _, _, argv = evaluate_run(tmp_path)
        assert run([*argv, f"--urban-threshold={threshold}"]) == 2
        assert "urban threshold must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_fixture_bad_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"dims": [["county", 2]]}))
        assert run(["fixture", "--spec", str(spec),
                    "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("seed", "-1"), ("seed", "1.5"), ("seed", '"a"'), ("seed", "2e19"),
        ("seed", "true"), ("urban_count", "1.5"),
        ("urban_multiplier", "NaN"), ("urban_multiplier", "Infinity"),
        ("group_multiplier", "1e400"), ("density_threshold", "null"),
        ("density_threshold", "-1"), ("density_threshold", "NaN"),
        ("total_deaths", "1e19"), ("total_deaths", "1.5"),
        ("state_population", "2.5"), ("rate_profile", '{"a1": {"s1": 0.01}}'),
        pytest.param(
            "dims", '[["county", 2.9], ["age", 2], ["site", 1], ["race", 3], ["sex", 2]]',
            id="dims-2.9",
        ),
    ])
    def test_fixture_spec_value_is_refused(self, tmp_path, capsys, field, value):
        # a type or range the generator cannot honour: no traceback, no
        # silent rounding, and the error names the field
        spec = (
            '{"dims": [["county", 2], ["age", 2], ["site", 1], ["race", 3], '
            '["sex", 2]], "total_deaths": 40, "state_population": 5000, '
            f'"seed": 0, "urban_count": 1, "{field}": {value}}}'
        )
        out = tmp_path / "x"
        assert run(["fixture", "--spec", spec, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_inline_spec_writes_what_the_spec_file_writes(self, tmp_path):
        # the README quick start's spec, given inline and as a file
        inline = (
            '{"dims": [["county",12],["age",5],["site",1],["race",3],["sex",2]],'
            '\n "total_deaths": 26116, "state_population": 2000000,'
            '\n "seed": 2, "urban_count": 3}'
        )
        spec = tmp_path / "spec.json"
        spec.write_text(inline)
        assert run(["fixture", "--spec", inline, "--out", str(tmp_path / "a")]) == 0
        assert run(["fixture", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == 5
        for name in names:
            a, b = ((tmp_path / d / name).read_text() for d in ("a", "b"))
            if name == "manifest.json":
                # the resolved config (and so its hash) names the spec's source
                a, b = (
                    {k: v for k, v in json.loads(t).items()
                     if k not in ("config_hash", "config", "files")}
                    for t in (a, b)
                )
                assert a["strata"] == 360
            else:
                # the first line is the config hash comment
                assert a.startswith("# config_hash=")
                a, b = a.split("\n", 1)[1], b.split("\n", 1)[1]
            assert a == b

    def test_inline_spec_that_is_not_json(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["fixture", "--spec", '{"dims": [', "--out", str(out)]) == 2
        assert "--spec: not valid JSON" in capsys.readouterr().err
        assert not out.exists()


def released_run(root, name, table, rates, argv, capsys):
    """Run argv in a fresh work directory root/name holding table and rates
    as strata.csv and rates.csv; return the exit code, stdout, stderr and
    every file the run wrote there, as bytes, but the operator's run_log.json.
    Of replicates.csv only the comment and header lines are kept: its body
    is the draws, which follow the counts by design."""
    work = root / name
    work.mkdir()
    table.to_csv(work / "strata.csv")
    rates.to_csv(work / "rates.csv")
    capsys.readouterr()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = run(argv)
    finally:
        os.chdir(cwd)
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(work.rglob("*")):
        rel = str(path.relative_to(work))
        if path.is_dir() or rel in ("strata.csv", "rates.csv", "run/run_log.json"):
            continue
        data = path.read_bytes()
        if path.name == "replicates.csv":
            lines = data.splitlines(keepends=True)
            comments = [*itertools.takewhile(lambda line: line[:1] == b"#", lines)]
            data = b"".join(lines[:len(comments) + 1])
        files[rel] = data
    return code, out, err, files


class TestPrivacyBoundary:
    # a release is every file a command writes (but the operator's run log
    # and the replicate draws) and what it prints: none of it may follow
    # the confidential counts
    ARGS = {
        "calibrate": ["--out", "calib.json"],
        "synthesize": ["--replicates", "50", "--seed", "3", "--out", "run"],
        "audit": ["--out", "audit.json"],
    }

    @pytest.mark.parametrize("mode", ["untruncated", "truncated"])
    @pytest.mark.parametrize("command", ["calibrate", "synthesize", "audit"])
    def test_released_files_do_not_depend_on_the_counts(
        self, tmp_path, capsys, command, mode
    ):
        # one death moved between strata: same keys, populations and total
        base = demo_table()
        moved = StrataTable(
            dim_names=base.dim_names, keys=base.keys, n=base.n,
            y=base.y + np.array([1, -1]),
        )
        argv = [
            command, "--strata", "strata.csv", "--rates", "rates.csv",
            "--epsilon", "1.0", "--mode", mode, *self.ARGS[command],
        ]
        x = released_run(tmp_path, "x", base, demo_rates(), argv, capsys)
        y = released_run(tmp_path, "y", moved, demo_rates(), argv, capsys)
        assert x[0] == 0 and x[3], "the run failed or wrote no file"
        assert x == y

    @pytest.mark.parametrize("mode", ["untruncated", "truncated"])
    def test_released_files_do_not_depend_on_the_counts_with_a_head(
        self, tmp_path, monkeypatch, caplog, capsys, mode
    ):
        # the tilt, the split and the proposal counts follow the clamped
        # counts: they may reach the DEBUG log, never a released file
        monkeypatch.setattr(synth, "SPLIT_MIN", 2)
        heads = []
        real = synth._draw_head
        monkeypatch.setattr(
            synth, "_draw_head",
            lambda bank, size, *args: heads.append(size) or real(bank, size, *args),
        )
        caplog.set_level(logging.DEBUG, logger="pgsynth.synthesizer")
        base = generate_fixture(FixtureSpec(
            dims=(("county", 2), ("age", 3), ("site", 1), ("race", 3), ("sex", 2)),
            total_deaths=60, state_population=20_000, seed=4, urban_count=1,
        ))
        y = base.table.y.copy()
        i, j = np.argsort(y)[[-1, -2]]
        y[i] -= 1
        y[j] += 1
        moved = StrataTable(
            dim_names=base.table.dim_names, keys=base.table.keys, n=base.table.n, y=y,
        )
        argv = [
            "synthesize", "--strata", "strata.csv", "--rates", "rates.csv",
            "--epsilon", "1.0", "--mode", mode,
            "--replicates", "30", "--seed", "3", "--out", "run",
        ]
        released, logs = [], []
        for name, table in (("x", base.table), ("y", moved)):
            caplog.clear()
            released.append(
                released_run(tmp_path, name, table, base.rates, argv, capsys)
            )
            logs.append(caplog.text)
        assert len(heads) == 2 and min(heads) > 0
        assert all("head proposals" in text for text in logs)
        assert released[0][0] == 0 and "run/manifest.json" in released[0][3]
        assert released[0] == released[1]


class TestDefaultFixture:
    def test_truncated_at_alpha_five_percent_draws(self, tmp_path, monkeypatch):
        # 47,034 strata, total 26,116: at alpha = 0.05 the untilted weight
        # of the total is below 2^-1022 of T_0's peak; the tilted split
        # sampler draws, and the invariant scan passes
        monkeypatch.chdir(tmp_path)
        assert run(["fixture", "--spec", "{}", "--out", "fix"]) == 0
        assert run([
            "synthesize", "--strata", "fix/strata.csv", "--rates", "fix/rates.csv",
            "--epsilon", "1.0", "--mode", "truncated", "--alpha", "0.05",
            "--replicates", "2", "--seed", "1", "--out", "run",
        ]) == 0
        manifest = json.loads(Path("run/manifest.json").read_text())
        assert manifest["strata"] == 47_034 and manifest["y_total"] == 26_116
        assert manifest["invariants"] == {"sum_ok": True, "box_ok": True}


class TestConfigTypes:
    @pytest.mark.parametrize("command, key, value", [
        ("synthesize", "replicates", "ten"),
        ("synthesize", "threads", 1.5),
        ("calibrate", "alpha", "x"),
        ("calibrate", "epsilon", "abc"),
        ("calibrate", "out", 5),
        ("evaluate", "population_dims", 5),
    ])
    def test_mistyped_config_value_is_schema_error(
        self, demo_files, tmp_path, capsys, command, key, value
    ):
        # every other setting is valid, so only the bad value can fail
        settings = {
            "calibrate": {
                "strata": demo_files["strata"], "rates": demo_files["rates"],
                "epsilon": 1.0, "out": str(tmp_path / "calib.json"),
            },
            "synthesize": {
                "strata": demo_files["strata"], "rates": demo_files["rates"],
                "epsilon": 1.0, "replicates": 4, "seed": 1,
                "out": str(tmp_path / "run"),
            },
            "evaluate": {
                "truth": demo_files["strata"], "replicates_dir": str(tmp_path),
                "std": str(tmp_path / "std.csv"), "out": str(tmp_path / "m.csv"),
            },
        }[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, key: value}))
        assert run([command, "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "calib.json").exists()
        assert not (tmp_path / "run").exists()


def run_python(*args):
    """A fresh interpreter with this checkout's pgsynth on its path."""
    import pgsynth

    src = str(Path(pgsynth.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestModuleEntry:
    def test_python_m_pgsynth_help(self):
        proc = run_python("-m", "pgsynth", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: pgsynth")
        assert "evaluate" in proc.stdout

    def test_import_loads_no_scipy(self):
        # starting the CLI must not pay for loading scipy
        proc = run_python(
            "-c", "import sys, pgsynth.cli; print('scipy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--mode", "truncated", "--out", "calib.json"],
        ["synthesize", "--mode", "truncated", "--replicates", "3", "--seed", "1",
         "--out", "run_t"],
        ["synthesize", "--mode", "untruncated", "--replicates", "3", "--seed", "1",
         "--out", "run_u"],
        # the demo has two strata, so audit also writes the ratio curve
        ["audit", "--mode", "truncated", "--out", "audit_t.json"],
        ["audit", "--mode", "untruncated", "--out", "audit_u.json"],
    ], ids=["calibrate", "synthesize-t", "synthesize-u", "audit-t", "audit-u"])
    def test_commands_load_no_scipy(self, demo_files, tmp_path, argv):
        # the quantile, the kernels and the exact audit run on distributions'
        # own special functions
        out = tmp_path / argv[-1]
        argv = [*argv[:-1], str(out),
                "--strata", demo_files["strata"], "--rates", demo_files["rates"],
                "--epsilon", "1.0"]
        proc = run_python("-c", (
            "import sys; from pgsynth.cli import main; "
            f"code = main({argv!r}); print(code, 'scipy' in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
        if argv[0] == "audit":
            assert out.with_name(f"{out.stem}_curve.csv").exists()


class TestConfigHash:
    def test_different_configs_different_hashes(self, demo_files, tmp_path):
        hashes = []
        for eps in ("0.5", "1.0"):
            out = tmp_path / f"c{eps}.json"
            run([
                "calibrate", "--strata", demo_files["strata"],
                "--rates", demo_files["rates"],
                "--epsilon", eps, "--mode", "untruncated",
                "--out", str(out),
            ])
            hashes.append(json.loads(out.read_text())["config_hash"])
        assert hashes[0] != hashes[1]
        assert all(len(h) == 64 for h in hashes)


class TestEpsilonCollisions:
    @pytest.mark.parametrize("eps", [[0.1, 0.10000001], [1.0, 1.0]])
    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_colliding_report_files_are_refused(
        self, demo_files, tmp_path, capsys, monkeypatch, eps, via
    ):
        # both values would write dup_eps0p1.json (or dup_eps1.json): the
        # second report would silently replace the first
        monkeypatch.setattr(
            "pgsynth.cli._calibrate_once", lambda *a: pytest.fail("calibration ran")
        )
        out = tmp_path / "dup.json"
        settings = {"strata": demo_files["strata"], "rates": demo_files["rates"]}
        if via == "flags":
            argv = [
                "calibrate", "--strata", settings["strata"],
                "--rates", settings["rates"],
                "--epsilon", *map(repr, eps), "--out", str(out),
            ]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**settings, "epsilon": eps, "out": str(out)}))
            argv = ["calibrate", "--config", str(cfg)]
        assert run(argv) == 2
        assert "own report file" in capsys.readouterr().err
        assert not list(tmp_path.glob("dup*"))

    def test_distinct_tags_still_write_one_file_each(self, demo_files, tmp_path):
        out = tmp_path / "grid.json"
        assert run([
            "calibrate", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"],
            "--epsilon", "0.1", "0.11", "--out", str(out),
        ]) == 0
        assert sorted(p.name for p in tmp_path.glob("grid*")) == [
            "grid_eps0p1.json", "grid_eps0p11.json",
        ]


# Hashes each invocation below wrote before the settings table existed: the
# table must resolve every run to the same config, so every stamp stays.
# The synthesize stamps also hash synthesizer.SAMPLER and move only with it.
PINNED_HASHES = {
    "fixture": "a7454922f1c7eb1e00de397731f48e48ef33d828a036f5a38f10c40b1ad9354f",
    "calibrate": "328705d8446e08d28b04b1dbc11d11f5558c67e8465f93dcb89606fe0602c460",
    "calibrate_grid": "94fd816618c57a3ece19649711ac168a73cfad87f45c871886c0408f4f4fac4a",
    "synthesize": "bcd914cfdd72c9473371da0e192289cdb068a88b77d445c8e86fb65f5fc565f0",
    "synthesize_threads": "05f731d73c3508c2fa9df9d3e3bcede22d9df7721eaca59ac3acadb2c536cc3b",
    "audit": "4c9b46daa527896b480fb8166ccbb4117ff04a1f89f02273e064917d439a04fd",
    "evaluate": "57f874890dfd7fc4bc92af6c84a2fc005e064dc26baa64a3c506195f30531c21",
}


def test_config_hashes_are_pinned(tmp_path, monkeypatch):
    # relative paths keep the hashes independent of where the test runs
    monkeypatch.chdir(tmp_path)
    demo_table().to_csv("strata.csv")
    demo_rates().to_csv("rates.csv")
    Path("spec.json").write_text(json.dumps({
        "dims": [["county", 2], ["age", 2], ["site", 1], ["race", 3], ["sex", 2]],
        "total_deaths": 40, "state_population": 5_000, "seed": 0, "urban_count": 1,
    }))
    demo = ["--strata", "strata.csv", "--rates", "rates.csv"]
    fix = [
        "--strata", "fix/strata.csv", "--rates", "fix/rates.csv", "--epsilon", "2.0",
        "--mode", "truncated", "--replicates", "5", "--seed", "1",
    ]
    runs = {
        "fixture": (["fixture", "--spec", "spec.json", "--out", "fix"], "fix/manifest.json"),
        "calibrate": (
            ["calibrate", *demo, "--epsilon", "1.0", "--mode", "truncated",
             "--out", "calib.json"],
            "calib.json",
        ),
        "calibrate_grid": (
            ["calibrate", *demo, "--epsilon", "0.5", "2", "--out", "grid.json"],
            "grid_eps0p5.json",
        ),
        "synthesize": (["synthesize", *fix, "--out", "run"], "run/manifest.json"),
        "synthesize_threads": (
            ["synthesize", *fix, "--threads", "2", "--out", "run2"], "run2/manifest.json",
        ),
        "audit": (["audit", *demo, "--epsilon", "1.0", "--out", "audit.json"], "audit.json"),
        "evaluate": (
            ["evaluate", "--truth", "fix/strata.csv", "--replicates", "run",
             "--std", "fix/standard.csv", "--density", "fix/densities.csv",
             "--population-dims", "county,age,race,sex", "--out", "metrics.csv"],
            "metrics.csv",
        ),
    }
    hashes = {}
    for name, (argv, written) in runs.items():
        assert run(argv) == 0, name
        text = Path(written).read_text()
        if written.endswith(".json"):
            hashes[name] = json.loads(text)["config_hash"]
        else:
            hashes[name] = text.split("\n", 1)[0].removeprefix("# config_hash=")
    assert hashes == PINNED_HASHES


def _flag(key):
    return "--replicates" if key == "replicates_dir" else "--" + key.replace("_", "-")


# one value per converter: (as a flag, as a config value)
SAMPLES = {
    _text: ("v.csv", "v.csv"),
    _real: ("0.25", 0.25),
    _integer: ("7", 7),
    _epsilons: ("0.5", 0.5),
    _dims: ("a, b", ["a", "b"]),
}


def _sample(key):
    return ("truncated", "truncated") if key == "mode" else SAMPLES[SETTINGS[key][0]]


class TestSettingsTable:
    def resolve(self, tmp_path, command, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = build_parser().parse_args([command, "--config", str(cfg), *argv])
        return _resolve(args).to_doc()

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, spec in COMMANDS.items() for key in spec.settings
    ])
    def test_flag_and_config_value_resolve_alike(self, tmp_path, command, key):
        spec = COMMANDS[command]
        # the rest of a valid invocation, from the config file both times
        base = {
            k: _sample(k)[1] for k in (*spec.required, "epsilon")
            if k in spec.settings and k != key
        }
        flag, value = _sample(key)
        by_flag = self.resolve(tmp_path, command, [_flag(key), flag], base)
        by_config = self.resolve(tmp_path, command, [], {**base, key: value})
        assert by_flag == by_config
        name = _FIELD.get(key, key)
        got = by_flag[name] if name in by_flag else by_flag["paths"][key]
        assert got == SETTINGS[key][0](value)

    def test_epsilon_grid_flag_and_config_resolve_alike(self, tmp_path):
        base = {"strata": "s.csv", "rates": "r.csv", "out": "o.json"}
        by_flag = self.resolve(
            tmp_path, "calibrate", ["--epsilon", "0.5", "2"], base
        )
        by_config = self.resolve(
            tmp_path, "calibrate", [], {**base, "epsilon": [0.5, 2]}
        )
        assert by_flag == by_config
        assert by_flag["epsilon"] == (0.5, 2.0)

    def test_every_runconfig_field_is_set_by_exactly_one_setting(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command", "paths"}
        named = Counter(_FIELD.get(k, k) for k in SETTINGS)
        assert {name: named[name] for name in fields} == dict.fromkeys(fields, 1)
        assert set(_FIELD) <= set(SETTINGS)

    def test_every_setting_serves_a_command(self):
        used = {key for spec in COMMANDS.values() for key in spec.settings}
        assert used == set(SETTINGS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_required_settings_are_the_commands_own(self, command):
        spec = COMMANDS[command]
        assert set(spec.required) <= set(spec.settings)
        assert len(set(spec.settings)) == len(spec.settings)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        words = capsys.readouterr().out.split()
        for key in COMMANDS[command].settings:
            assert _flag(key) in words, key


class TestMistypedFlags:
    @pytest.mark.parametrize("extra, named", [
        (["--replicates", "ten"], "'replicates'"),
        (["--threads", "1.5"], "'threads'"),
        (["--mode", "bogus"], "mode"),
        (["--epsilon", "1", "2"], "epsilon"),
    ])
    def test_mistyped_flag_is_usage_error(
        self, demo_files, tmp_path, capsys, extra, named
    ):
        out = tmp_path / "run"
        code = run([
            "synthesize", "--strata", demo_files["strata"],
            "--rates", demo_files["rates"], "--epsilon", "1.0",
            "--replicates", "4", "--seed", "1", "--out", str(out), *extra,
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

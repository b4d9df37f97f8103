"""pgsynth benchmark: three CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload published --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout. Each workload drives the
checkout's pgsynth CLI (the console-script entry point, with src/ on
PYTHONPATH) as separate processes, one after another, and checks every
output. With --trace 0 it repeats the workload's measured pass for about
--seconds and prints the end-to-end metrics (medians over passes); with
--trace 1 it runs one untraced pass and one traced pass (tracer.py) and
prints the per-layer metrics. The last stdout line is one JSON object
with correct, attempted, failed and metrics. A results file with the
full run record goes to .perfbench/results/; scratch outputs go to
.perfbench/work/ and are removed when the run ends. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
from inputs import INSTANCES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"
INPUTS = Path(__file__).resolve().parent / "inputs.py"

CLI_ENTRY = "import sys; from pgsynth.cli import main; sys.exit(main())"
CALL_TIMEOUT_S = 170.0
SETUP_REPEATS = 3
EPSILON = "1.0"
PUBLISHED_REPLICATES = 20
PUBLISHED_TOTAL = 26116
PUBLISHED_STRATA = 47034
POPULATION_DIMS = ("county", "age", "race", "sex")
MANY_REPLICATES = 1_000_000
TV_BOUND = 0.005
TRUTH_RTOL = 1e-12
AUDIT_TOL = 1e-9

# (call name, instance, mode, alpha, max |log ratio| measured on the seed commit)
AUDITS = (
    ("demo", "demo", "untruncated", None, 0.9641015704123674),
    ("tri100u", "tri100", "untruncated", None, 0.8873956148727302),
    ("tri100t", "tri100", "truncated", "0.05", 0.4910748634355855),
    ("quad24t", "quad24", "truncated", "0.05", 0.899338411334675),
)

END_TO_END = (
    ("setup_s", "s"),
    ("cli_wall_s", "s"),
    ("cli_peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
)

COMMANDS = ("fixture", "synthesize", "evaluate", "audit")

# (metric, unit); see README.md for which end-to-end metric each should move
PER_LAYER = (
    ("mechanism.convolve_mass.calls", "count"),
    ("mechanism.convolve_mass.self_s", "s"),
    ("mechanism.convolve_mass.madds", "count"),
    ("mechanism.convolve_mass.bytes", "B"),
    ("mechanism.stratum_weight_table.self_s", "s"),
    ("distributions.log_negbin_kernel.self_s", "s"),
    ("synthesizer.sample_counts_matrix.self_s", "s"),
    ("synthesizer.stream_init.calls", "count"),
    ("synthesizer.stream_init.self_s", "s"),
    ("synthesizer.stream_seed.self_s", "s"),
    ("synthesizer.write_replicates_csv.self_s", "s"),
    ("synthesizer.write_replicates_csv.bytes", "B"),
    ("calibration.write_report.self_s", "s"),
    ("calibration.write_report.bytes", "B"),
    ("synthesizer.read_replicates_csv.self_s", "s"),
    ("synthesizer.read_replicates_csv.rows", "count"),
    ("utility.age_adjusted_rate.calls", "count"),
    ("utility.age_adjusted_rate.self_s", "s"),
    ("utility.disparity_ratio.self_s", "s"),
    ("utility.write_metrics_csv.self_s", "s"),
    ("audit.audit.self_s", "s"),
    ("audit.enumerate_feasible.self_s", "s"),
    ("audit.ratio_curve.self_s", "s"),
    ("audit.checked_datasets", "count"),
    ("audit.checked_outputs", "count"),
    ("audit.pair_output_evals", "count"),
    ("calibration.solve_hyperparameters.self_s", "s"),
    ("calibration.sweeps", "count"),
    ("strata.from_csv.self_s", "s"),
    ("strata.build_prior.self_s", "s"),
    ("strata.compute_bounds.self_s", "s"),
    ("distributions.poisson_quantile_vec.self_s", "s"),
    ("fixtures.generate_fixture.self_s", "s"),
    ("fixtures.write_fixture_files.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.teardown_s", "s"),
    *((f"cli.{c}.self_s", "s") for c in COMMANDS),
    *(
        (f"process.{c}.{field}", unit)
        for c in COMMANDS
        for field, unit in (
            ("wall_s", "s"), ("peak_rss_mb", "MB"), ("user_s", "s"),
            ("sys_s", "s"), ("minflt", "count"),
        )
    ),
    ("trace.overhead_s", "s"),
    ("trace.coverage_min", "ratio"),
)


def child_env() -> dict:
    """Pinned environment for every child: this checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env.pop("PGSYNTH_THREADS", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Run:
    """One benchmark invocation: scratch space, child processes, ledger."""

    def __init__(self, workload: str, seed: int):
        (OUT / "work").mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "work"))
        self.seed = seed
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.env = child_env()
        self.ledger = measure.Ledger()
        self.calls: list[dict] = []  # every child process, in order

    def spawn(self, phase: str, label: str, argv, traced_prefix=None) -> measure.ProcResult:
        log = self.work / f"{len(self.calls):03d}-{label}.log"
        res = measure.spawn(
            argv, env=self.env, cwd=self.work, log_path=log, timeout_s=CALL_TIMEOUT_S
        )
        self.calls.append({
            "phase": phase, "label": label, "traced": traced_prefix is not None,
            "spans": traced_prefix, **res.to_json(),
        })
        detail = "" if res.returncode == 0 else _tail(log)
        self.ledger.record(f"{phase}:{label} exits 0", res.returncode == 0, detail)
        return res

    def cli(self, phase: str, args, traced: bool = False) -> measure.ProcResult:
        # paths relative to the scratch directory keep the configs that
        # pgsynth echoes into its outputs the same size in every checkout
        args = [os.path.relpath(a, self.work) if isinstance(a, Path) else str(a) for a in args]
        if traced:
            prefix = str(self.work / f"spans-{len(self.calls):03d}-{args[0]}")
            argv = [sys.executable, str(TRACER), prefix, "--", *args]
        else:
            prefix = None
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        return self.spawn(phase, args[0], argv, prefix)

    def check(self, name: str, fn) -> None:
        """Record one output check; fn returns (ok, detail)."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.ledger.record(name, ok, detail)


def _tail(path, lines: int = 5) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


# --------------------------------------------------------------------------
# workloads


class Published:
    """fixture (set-up) -> synthesize -> evaluate at the default 47,034-strata spec."""

    name = "published"
    setup_is_cli = True
    commands = ("synthesize", "evaluate")
    replicates = PUBLISHED_REPLICATES

    def setup(self, run: Run, dest: Path, traced: bool = False):
        dest.mkdir(parents=True)
        spec = dest / "spec.json"
        spec.write_text("{}\n", encoding="utf-8")  # the default FixtureSpec
        res = run.cli("setup", ["fixture", "--spec", spec, "--out", dest / "fix"], traced)
        fix = dest / "fix"
        inputs = {k: fix / f"{k}.csv" for k in ("strata", "rates", "densities", "standard")}
        return res, inputs

    def argv(self, run: Run, inp: dict, d: Path):
        yield [
            "synthesize", "--strata", inp["strata"], "--rates", inp["rates"],
            "--mode", "truncated", "--epsilon", EPSILON,
            "--replicates", self.replicates, "--seed", run.seed,
            "--threads", run.threads, "--out", d / "run",
        ]
        yield [
            "evaluate", "--truth", inp["strata"], "--replicates", d / "run",
            "--std", inp["standard"], "--density", inp["densities"],
            "--population-dims", ",".join(POPULATION_DIMS), "--out", d / "metrics.csv",
        ]

    def artifact_dir(self, d: Path) -> Path:
        return d / "run"

    def replicate_file(self, d: Path) -> Path:
        return d / "run" / "replicates.csv"

    def check(self, run: Run, inp: dict, d: Path, info: dict) -> None:
        from pgsynth.strata import StrataTable

        table = StrataTable.from_csv(inp["strata"])
        got = {}

        def rows():
            got["z"] = measure.read_long_replicates(self.replicate_file(d), table.keys)
            shape = got["z"].shape
            want = (self.replicates, PUBLISHED_STRATA)
            return shape == want, f"replicate matrix {shape}, expected {want}"

        def sums_and_boxes():
            z = got["z"]
            with open(d / "run" / "calibration_report.json", encoding="utf-8") as fh:
                strata = json.load(fh)["strata"]
            lo = [s["L"] for s in strata]
            hi = [min(s["U"], PUBLISHED_TOTAL) for s in strata]
            sums_ok = bool((z.sum(axis=1) == PUBLISHED_TOTAL).all())
            box_ok = bool(((z >= lo) & (z <= hi)).all())
            return sums_ok and box_ok, f"sums_ok={sums_ok} box_ok={box_ok}"

        def truth_rows():
            expected = self.truth_values(inp)
            seen, reps = {}, {}
            with open(d / "metrics.csv", encoding="utf-8", newline="") as fh:
                for rec in csv.reader(line for line in fh if not line.startswith("#")):
                    if rec[0] == "metric":
                        continue
                    key = (rec[0], rec[1])
                    if rec[3] == "truth":
                        seen[key] = float(rec[4])
                    elif rec[3].isdigit():
                        reps[key] = reps.get(key, 0) + 1
            bad = [
                f"{k}: {seen.get(k)} != {v}" for k, v in expected.items()
                if k not in seen or abs(seen[k] - v) > TRUTH_RTOL * abs(v)
            ]
            bad += [
                f"{k}: {reps.get(k, 0)} replicate rows" for k in expected
                if reps.get(k, 0) != self.replicates
            ]
            return not bad, "; ".join(bad)

        run.check("published: replicate rows", rows)
        if "z" in got:
            run.check("published: totals and boxes", sums_and_boxes)
        run.check("published: truth metrics", truth_rows)

    @staticmethod
    def truth_values(inp: dict) -> dict:
        """The metrics evaluate must report for the true counts, computed here."""
        from pgsynth.strata import StrataTable
        from pgsynth.utility import (
            StandardPopulation, age_adjusted_rate, disparity_ratio,
            read_density_csv, selector_label, urban_rural_classify,
        )

        table = StrataTable.from_csv(inp["strata"])
        std = StandardPopulation.from_csv(inp["standard"])
        kw = {"age_dim": "age", "population_key_dims": POPULATION_DIMS, "warn": False}
        black, white = {"race": "black"}, {"race": "white"}
        urban, rural = urban_rural_classify(
            table, read_density_csv(inp["densities"]), 280.0, geo_dim="county"
        )
        return {
            ("age_adjusted_rate", "all"): age_adjusted_rate(table.y, table, std, None, **kw),
            ("disparity_ratio", f"{selector_label(black)}/{selector_label(white)}"):
                disparity_ratio(table.y, table, std, black, white, **kw).ratio,
            ("disparity_ratio", "urban/rural"):
                disparity_ratio(table.y, table, std, {"county": urban},
                                {"county": rural}, **kw).ratio,
        }


class ManyReps:
    """criterion 05's three strata, 10^6 untruncated replicates."""

    name = "many_reps"
    setup_is_cli = False
    commands = ("synthesize",)
    replicates = MANY_REPLICATES

    def setup(self, run: Run, dest: Path, traced: bool = False):
        res = run.spawn("setup", "inputs", [sys.executable, str(INPUTS), str(dest), "c05"])
        return res, {"strata": dest / "c05_strata.csv", "rates": dest / "c05_rates.csv"}

    def argv(self, run: Run, inp: dict, d: Path):
        yield [
            "synthesize", "--strata", inp["strata"], "--rates", inp["rates"],
            "--mode", "untruncated", "--epsilon", EPSILON,
            "--replicates", self.replicates, "--seed", run.seed,
            "--threads", run.threads, "--out", d / "run",
        ]

    def artifact_dir(self, d: Path) -> Path:
        return d / "run"

    def replicate_file(self, d: Path) -> Path:
        return d / "run" / "replicates.csv"

    def check(self, run: Run, inp: dict, d: Path, info: dict) -> None:
        from pgsynth.strata import StrataTable

        table = StrataTable.from_csv(inp["strata"])
        total = INSTANCES["c05"].total
        got = {}

        def sums():
            z = measure.read_long_replicates(self.replicate_file(d), table.keys)
            got["z"] = z
            ok = z.shape == (self.replicates, table.size) and bool((z.sum(axis=1) == total).all())
            return ok, f"shape {z.shape}, every row sums to {total}: {ok}"

        def tv():
            support, logp = self.exact_law(inp)
            value = measure.empirical_tv(got["z"], support, logp)
            info["tv"] = value
            return value < TV_BOUND, f"TV {value:.5f} (bound {TV_BOUND})"

        run.check("many_reps: row sums", sums)
        if "z" in got:
            run.check("many_reps: TV against the exact law", tv)

    @staticmethod
    def exact_law(inp: dict):
        from pgsynth.audit import exact_joint_pmf
        from pgsynth.calibration import solve_hyperparameters
        from pgsynth.strata import RatesTable, StrataTable, build_prior

        table = StrataTable.from_csv(inp["strata"])
        prior = build_prior(table, RatesTable.from_csv(inp["rates"]))
        calib = solve_hyperparameters(table, prior, float(EPSILON), mode="untruncated")
        return exact_joint_pmf(table.y, calib, table)


class AuditGrid:
    """Four exhaustive audits of fixed small instances."""

    name = "audit_grid"
    setup_is_cli = False
    commands = ("audit",)
    replicates = None

    def setup(self, run: Run, dest: Path, traced: bool = False):
        names = sorted({a[1] for a in AUDITS})
        res = run.spawn("setup", "inputs", [sys.executable, str(INPUTS), str(dest), *names])
        inputs = {}
        for n in names:
            inputs[f"{n}_strata"] = dest / f"{n}_strata.csv"
            inputs[f"{n}_rates"] = dest / f"{n}_rates.csv"
        return res, inputs

    def argv(self, run: Run, inp: dict, d: Path):
        for call, inst, mode, alpha, _ in AUDITS:
            args = [
                "audit", "--strata", inp[f"{inst}_strata"], "--rates", inp[f"{inst}_rates"],
                "--mode", mode, "--epsilon", EPSILON, "--out", d / f"{call}.json",
            ]
            if alpha is not None:
                args += ["--alpha", alpha]
            yield args

    def artifact_dir(self, d: Path) -> Path:
        return d

    def replicate_file(self, d: Path):
        return None

    def check(self, run: Run, inp: dict, d: Path, info: dict) -> None:
        for call, inst, mode, alpha, pinned in AUDITS:
            report = {}

            def passed(call=call):
                with open(d / f"{call}.json", encoding="utf-8") as fh:
                    report.update(json.load(fh))
                value = report["max_abs_log_ratio"]
                info[call] = value
                ok = report["pass"] is True and abs(value - pinned) <= AUDIT_TOL
                return ok, f"pass={report['pass']} max_abs_log_ratio={value!r} pinned={pinned!r}"

            def recomputed(inst=inst, mode=mode, alpha=alpha):
                value = self.log_ratio_at(inp, inst, mode, alpha, report["argmax"])
                ok = abs(value - report["max_abs_log_ratio"]) <= AUDIT_TOL
                return ok, f"recomputed {value!r}"

            run.check(f"audit_grid: {call} passes at the pinned ratio", passed)
            if report:
                run.check(f"audit_grid: {call} ratio recomputed at its argmax", recomputed)

        def curve():
            with open(d / "demo_curve.csv", encoding="utf-8", newline="") as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
            peak = max(float(r[1]) for r in rows[1:])
            return peak <= math.e + AUDIT_TOL, f"max ratio {peak!r}"

        run.check("audit_grid: demo ratio curve within e", curve)

    @staticmethod
    def log_ratio_at(inp, inst, mode, alpha, argmax) -> float:
        """|log p(z|y) - log p(z|x)| from the enumerated exact law."""
        import numpy as np
        from pgsynth.audit import exact_joint_pmf
        from pgsynth.calibration import solve_hyperparameters
        from pgsynth.strata import RatesTable, StrataTable, build_prior, compute_bounds

        table = StrataTable.from_csv(inp[f"{inst}_strata"])
        prior = build_prior(table, RatesTable.from_csv(inp[f"{inst}_rates"]))
        bounds = compute_bounds(prior, table, float(alpha), 1.0) if alpha else None
        calib = solve_hyperparameters(table, prior, float(EPSILON), mode=mode, bounds=bounds)
        support, lp_y = exact_joint_pmf(argmax["y"], calib, table)
        support_x, lp_x = exact_joint_pmf(argmax["x"], calib, table)
        if not np.array_equal(support, support_x):
            raise ValueError("neighbor supports differ")
        k = int(np.flatnonzero((support == np.asarray(argmax["z"])).all(axis=1))[0])
        return float(abs(lp_y[k] - lp_x[k]))


WORKLOADS = {w.name: w for w in (Published, ManyReps, AuditGrid)}


# --------------------------------------------------------------------------
# passes and metrics


def run_setups(run: Run, wl, repeats: int):
    """Set up `repeats` times; every set-up must write byte-identical inputs."""
    walls, digests, inputs = [], [], None
    for k in range(repeats):
        res, inp = wl.setup(run, run.work / f"setup-{k}")
        walls.append(res.wall_s)
        if res.returncode == 0:
            digests.append({n: measure.body_sha256(p) for n, p in sorted(inp.items())})
            inputs = inputs or inp
    if repeats > 1:
        same = len(digests) == repeats and all(d == digests[0] for d in digests)
        run.ledger.record(f"{wl.name}: set-up is deterministic", same)
    return walls, inputs


def run_pass(run: Run, wl, inputs: dict, label: str, traced: bool) -> dict:
    d = run.work / label
    d.mkdir()
    procs = [(args[0], run.cli("pass", args, traced)) for args in wl.argv(run, inputs, d)]
    info = {"label": label, "traced": traced}
    if all(p.returncode == 0 for _, p in procs):
        wl.check(run, inputs, d, info)
        rep = wl.replicate_file(d)
        if rep is not None:
            info["body_sha256"] = measure.body_sha256(rep)
    info["wall_s"] = {c: sum(p.wall_s for n, p in procs if n == c) for c in wl.commands}
    info["peak_rss_mb"] = {
        c: max((p.peak_rss_mb for n, p in procs if n == c), default=0.0) for c in wl.commands
    }
    info["cli_wall_s"] = sum(p.wall_s for _, p in procs)
    info["cli_peak_rss_mb"] = max(p.peak_rss_mb for _, p in procs)
    info["artifact_mb"] = measure.dir_bytes(wl.artifact_dir(d)) / 1e6
    shutil.rmtree(d, ignore_errors=True)
    return info


def check_draw_identity(run: Run, wl, passes: list) -> None:
    hashes = [p["body_sha256"] for p in passes if "body_sha256" in p]
    if len(hashes) > 1:
        run.ledger.record(
            f"{wl.name}: replicate body identical across passes",
            len(set(hashes)) == 1, ", ".join(h[:12] for h in hashes),
        )


def end_to_end(setup_walls: list, passes: list) -> dict:
    return {
        "setup_s": measure.median(setup_walls),
        "cli_wall_s": measure.median(p["cli_wall_s"] for p in passes),
        "cli_peak_rss_mb": measure.median(p["cli_peak_rss_mb"] for p in passes),
        "artifact_mb": measure.median(p["artifact_mb"] for p in passes),
    }


def per_command(wl, setup_walls: list, passes: list, error_rate: float) -> list:
    """The per-command view: (name, value, unit) rows for the printed summary."""
    rows = [("setup_s", measure.median(setup_walls), "s")]
    for c in wl.commands:
        rows.append((f"{c}_s", measure.median(p["wall_s"][c] for p in passes), "s"))
    for c in wl.commands:
        rows.append((f"{c}_peak_rss_mb",
                     measure.median(p["peak_rss_mb"][c] for p in passes), "MB"))
    rows.append(("artifact_mb", measure.median(p["artifact_mb"] for p in passes), "MB"))
    rows.append(("error_rate", error_rate, "ratio"))
    return rows


def load_spans(prefix: str) -> tuple[dict, dict]:
    import numpy as np

    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    arrays = np.load(prefix + ".npz")
    agg = measure.aggregate_spans(
        meta["names"], arrays["name_id"], arrays["start"], arrays["end"], arrays["parent"]
    )
    root = meta["root"]
    top = arrays["parent"] == root
    meta["children_s"] = float((arrays["end"][top] - arrays["start"][top]).sum())
    return agg, meta


def per_layer(run: Run) -> dict:
    """Per-layer metrics from every traced child plus the untraced children's rusage."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    coverage = []
    calls = {}
    for c in run.calls:
        if not c["traced"]:
            continue
        agg, meta = load_spans(c["spans"])
        for name, a in agg.items():
            slot = calls.setdefault(name, {"calls": 0, "self_s": 0.0})
            slot["calls"] += a["calls"]
            slot["self_s"] += a["self_s"]
        for key, amount in meta["counters"].items():
            if key in values:
                values[key] += amount
        startup = meta["main_start"] - c["started"]
        teardown = c["started"] + c["wall_s"] - meta["main_end"]
        values["cli.startup_s"] += startup
        values["cli.teardown_s"] += teardown
        coverage.append((startup + meta["children_s"] + teardown) / c["wall_s"])
    for name, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field in ("self_s", "calls") and stem in calls:
            values[name] = calls[stem][field]
    for c in run.calls:
        if c["traced"] or c["label"] not in COMMANDS:
            continue
        key = f"process.{c['label']}"
        values[f"{key}.wall_s"] += c["wall_s"]
        values[f"{key}.peak_rss_mb"] = max(values[f"{key}.peak_rss_mb"], c["peak_rss_mb"])
        values[f"{key}.user_s"] += c["user_s"]
        values[f"{key}.sys_s"] += c["sys_s"]
        values[f"{key}.minflt"] += c["minflt"]
    # trace mode runs every pgsynth command once untraced and once traced
    values["trace.overhead_s"] = sum(
        c["wall_s"] * (1 if c["traced"] else -1)
        for c in run.calls if c["label"] in COMMANDS
    )
    values["trace.coverage_min"] = min(coverage) if coverage else 0.0
    values["trace.coverage"] = coverage
    return values


# --------------------------------------------------------------------------
# run record


def git_commit(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the relative path and bytes of every source file under src/."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def last_level_cache_bytes():
    try:
        out = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].startswith("LEVEL") and parts[0].endswith("_CACHE_SIZE"):
            if parts[1].isdigit() and int(parts[1]) > 0:
                sizes[parts[0]] = int(parts[1])
    return sizes[max(sizes)] if sizes else None


def run_record(args, run: Run, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "last_level_cache_bytes": last_level_cache_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": run.threads,
        "replicates": wl.replicates,
        "setup_repeats": 1 if args.trace else SETUP_REPEATS,
    }


# --------------------------------------------------------------------------
# entry point


def execute(args) -> dict:
    wl = WORKLOADS[args.workload]()
    run = Run(wl.name, args.seed)
    sys.path.insert(0, str(SRC))  # the checks import the checkout's pgsynth
    try:
        passes, trace = [], None
        if args.trace:
            setup_walls, inputs = run_setups(run, wl, 1)
            if inputs is not None:
                if wl.setup_is_cli:  # trace the set-up's own layers (fixtures) too
                    wl.setup(run, run.work / "setup-traced", traced=True)
                passes.append(run_pass(run, wl, inputs, "pass-0", traced=False))
                passes.append(run_pass(run, wl, inputs, "pass-traced", traced=True))
                trace = per_layer(run)
        else:
            setup_walls, inputs = run_setups(run, wl, SETUP_REPEATS)
            begin = time.perf_counter()
            durations = []
            while inputs is not None:
                t0 = time.perf_counter()
                passes.append(run_pass(run, wl, inputs, f"pass-{len(passes)}", traced=False))
                durations.append(time.perf_counter() - t0)
                if time.perf_counter() - begin + measure.median(durations) > args.seconds:
                    break
        check_draw_identity(run, wl, passes)
        record = run_record(args, run, wl)
        result = {
            "record": record,
            "ledger": run.ledger.records,
            "calls": run.calls,
            "passes": passes,
            "attempted": run.ledger.attempted,
            "failed": run.ledger.failed,
            "error_rate": run.ledger.error_rate,
        }
        untraced = [p for p in passes if not p["traced"]]
        record["passes"] = len(untraced)
        if untraced:
            result["end_to_end"] = end_to_end(setup_walls, untraced)
            result["per_command"] = per_command(
                wl, setup_walls, untraced, run.ledger.error_rate
            )
        if trace is not None:
            record["trace_overhead_s"] = trace["trace.overhead_s"]
            result["per_layer"] = trace
        return result
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "pgsynth" / "cli.py").is_file():
        print(f"perfbench: no pgsynth sources under {SRC}", file=sys.stderr)
        return 2

    result = execute(args)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    out = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for op in result["ledger"]:
        if not op["ok"]:
            print(f"FAILED {op['op']}: {op['detail']}")
    for name, value, unit in result.get("per_command", []):
        print(f"{args.workload:<11} {name:<26} {value:.6g} {unit}")
    if args.trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit} for name, unit in PER_LAYER
        } if "per_layer" in result else {}
        cov = result.get("per_layer", {}).get("trace.coverage", [])
        print(f"{args.workload:<11} trace coverage per command: "
              + ", ".join(f"{c:.3f}" for c in cov))
    else:
        ends = result.get("end_to_end", {})
        metrics = {name: {"value": ends[name], "unit": unit}
                   for name, unit in END_TO_END if name in ends}
    print(f"results: {out}")
    correct = result["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: calibrate, synthesize, audit, evaluate, fixture.

Each subcommand reads an optional JSON config file plus flags (flags
win), resolves them into one RunConfig, and stamps every output with the
sha256 hash of that resolved config, so outputs produced under different
settings never share a hash. Exit codes are a stable contract: 0 for
success, 1 for runtime or numeric failure (non-convergence, dominance
rejection, infeasible boxes, enumeration caps), 2 for input or schema
problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audit import audit, ratio_curve, write_audit_report, write_ratio_curve
from .calibration import (
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    solve_hyperparameters,
    write_report,
)
from .errors import (
    CalibrationError,
    DomainError,
    PgsynthError,
    SchemaError,
)
from .fixtures import (
    POPULATION_KEY_DIMS,
    FixtureSpec,
    generate_fixture,
    write_fixture_files,
)
from .strata import RatesTable, StrataTable, build_prior, compute_bounds
from .synthesizer import (
    read_replicates_csv,
    sample_counts_matrix,
    write_replicates_csv,
)
from .utility import (
    StandardPopulation,
    disparity_ratio,
    read_density_csv,
    selector_label,
    summarize_replicates,
    urban_rural_classify,
    write_metrics_csv,
    age_adjusted_rate,
)

__all__ = ["main"]

DEFAULT_ALPHA = 1e-4
DEFAULT_C = 1.0
DEFAULT_URBAN_THRESHOLD = 280.0


@dataclass(frozen=True)
class RunConfig:
    """One subcommand invocation, fully resolved and serializable.

    epsilon always holds a tuple; only calibrate accepts more than one
    value. paths collects every file location the command touches so the
    echoed config pins the run completely.
    """

    command: str
    mode: str | None = None
    epsilon: tuple[float, ...] = ()
    alpha: float = DEFAULT_ALPHA
    c: float = DEFAULT_C
    replicates: int | None = None
    seed: int | None = None
    threads: int | None = None
    cap: int | None = None
    urban_threshold: float = DEFAULT_URBAN_THRESHOLD
    age_dim: str = "age"
    geo_dim: str = "county"
    group_dim: str = "race"
    numerator_level: str = "black"
    denominator_level: str = "white"
    population_key_dims: tuple[str, ...] | None = None
    paths: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = asdict(self)
        doc["epsilon"] = list(self.epsilon)
        if self.population_key_dims is not None:
            doc["population_key_dims"] = list(self.population_key_dims)
        doc["paths"] = {k: str(v) for k, v in sorted(self.paths.items())}
        return doc

    def config_hash(self) -> str:
        canon = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _json_object(text: str, source) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: config must be a JSON object")
    return doc


def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _json_object(fh.read(), path)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError("expected a number, got bool")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _epsilons(value) -> tuple[float, ...]:
    return tuple(_real(v) for v in (value if isinstance(value, list) else [value]))


def _dims(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(d.strip() for d in value.split(",") if d.strip())
    if not isinstance(value, list):
        raise TypeError(f"expected a string or a list, got {type(value).__name__}")
    return tuple(_text(d) for d in value)


def _merge(args, config_keys: dict) -> dict:
    """Config-file values overridden by any flag that was actually given.

    Every value goes through its key's converter in config_keys; a value
    it refuses is a SchemaError. A null config value counts as unset.
    """
    merged: dict = {}
    if getattr(args, "config", None):
        raw = _load_config(args.config)
        unknown = set(raw) - set(config_keys)
        if unknown:
            raise SchemaError(f"unknown config keys {sorted(unknown)}")
        merged.update((k, v) for k, v in raw.items() if v is not None)
    for key in config_keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        try:
            merged[key] = config_keys[key](value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"setting {key!r}: {exc}") from None
    return merged


def _epsilon_tuple(eps: tuple[float, ...] | None, *, many: bool) -> tuple[float, ...]:
    if eps is None:
        raise SchemaError("epsilon is required (flag or config)")
    if not eps:
        raise SchemaError("epsilon list is empty")
    if not many and len(eps) != 1:
        raise SchemaError("this command takes a single epsilon")
    for e in eps:
        if not e > 0.0:
            raise SchemaError(f"epsilon must be positive, got {e}")
    return eps


def _require(merged: dict, keys: list[str], command: str) -> None:
    missing = [k for k in keys if merged.get(k) in (None, "")]
    if missing:
        raise SchemaError(f"{command}: missing required settings {missing}")


def _mode(merged) -> str:
    mode = merged.get("mode") or MODE_UNTRUNCATED
    if mode not in (MODE_UNTRUNCATED, MODE_TRUNCATED):
        raise SchemaError(f"mode must be untruncated or truncated, got {mode!r}")
    return mode


def _load_instance(cfg: RunConfig):
    table = StrataTable.from_csv(cfg.paths["strata"])
    rates = RatesTable.from_csv(cfg.paths["rates"])
    prior = build_prior(table, rates)
    return table, prior


def _calibrate_once(table, prior, cfg: RunConfig, epsilon: float):
    bounds = None
    if cfg.mode == MODE_TRUNCATED:
        bounds = compute_bounds(prior, table, cfg.alpha, cfg.c)
    return solve_hyperparameters(
        table, prior, epsilon, mode=cfg.mode, bounds=bounds
    )


def _eps_path(out: Path, epsilon: float, many: bool) -> Path:
    if not many:
        return out
    tag = f"{epsilon:g}".replace(".", "p")
    return out.with_name(f"{out.stem}_eps{tag}{out.suffix or '.json'}")


def cmd_calibrate(args) -> int:
    merged = _merge(args, CALIBRATE_KEYS)
    _require(merged, ["strata", "rates", "out"], "calibrate")
    eps = _epsilon_tuple(merged.get("epsilon"), many=True)
    cfg = RunConfig(
        command="calibrate",
        mode=_mode(merged),
        epsilon=eps,
        alpha=merged.get("alpha", DEFAULT_ALPHA),
        c=merged.get("c", DEFAULT_C),
        paths={k: merged[k] for k in ("strata", "rates", "out")},
    )
    table, prior = _load_instance(cfg)
    out = Path(cfg.paths["out"])
    for epsilon in cfg.epsilon:
        calib = _calibrate_once(table, prior, cfg, epsilon)
        path = _eps_path(out, epsilon, len(cfg.epsilon) > 1)
        write_report(
            calib, table, path,
            extra={"config_hash": cfg.config_hash(), "config": cfg.to_doc()},
        )
        print(f"wrote {path}")
    return 0


def cmd_synthesize(args) -> int:
    merged = _merge(args, SYNTHESIZE_KEYS)
    _require(merged, ["strata", "rates", "replicates", "seed", "out"], "synthesize")
    cfg = RunConfig(
        command="synthesize",
        mode=_mode(merged),
        epsilon=_epsilon_tuple(merged.get("epsilon"), many=False),
        alpha=merged.get("alpha", DEFAULT_ALPHA),
        c=merged.get("c", DEFAULT_C),
        replicates=merged["replicates"],
        seed=merged["seed"],
        threads=merged.get("threads"),
        paths={k: merged[k] for k in ("strata", "rates", "out")},
    )
    if cfg.replicates < 1:
        raise DomainError("need at least one replicate")
    table, prior = _load_instance(cfg)
    epsilon = cfg.epsilon[0]

    t0 = time.perf_counter()
    calib = _calibrate_once(table, prior, cfg, epsilon)
    t1 = time.perf_counter()
    matrix = sample_counts_matrix(
        table, calib,
        count=cfg.replicates, base_seed=cfg.seed, threads=cfg.threads,
    )
    t2 = time.perf_counter()

    # invariant scan before any file is opened: totals always, boxes when
    # truncated; a failure leaves the output directory untouched
    sums_ok = bool(np.all(matrix.sum(axis=1) == table.y_total))
    if cfg.mode == MODE_TRUNCATED:
        hi = np.minimum(calib.bounds.U, table.y_total)
        box_ok = bool(
            np.all(matrix >= calib.bounds.L) and np.all(matrix <= hi)
        )
    else:
        box_ok = bool(np.all(matrix >= 0))
    if not (sums_ok and box_ok):
        raise CalibrationError(
            "replicate invariant scan failed "
            f"(sums_ok={sums_ok}, box_ok={box_ok}); no files written"
        )

    out_dir = Path(cfg.paths["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash()
    rep_path = out_dir / "replicates.csv"
    tmp = rep_path.with_suffix(".csv.tmp")
    write_replicates_csv(tmp, table, matrix, header_comment=f"config_hash={h}")
    os.replace(tmp, rep_path)
    t3 = time.perf_counter()

    write_report(
        calib, table, out_dir / "calibration_report.json",
        extra={"config_hash": h, "config": cfg.to_doc()},
    )
    manifest = {
        "config_hash": h,
        "config": cfg.to_doc(),
        "epsilon": epsilon,
        "mode": cfg.mode,
        "strata": table.size,
        "y_total": int(table.y_total),
        "replicates": cfg.replicates,
        "timings_s": {
            "calibrate": round(t1 - t0, 6),
            "sample": round(t2 - t1, 6),
            "write": round(t3 - t2, 6),
        },
        "invariants": {"sum_ok": sums_ok, "box_ok": box_ok},
        "files": {
            "replicates": str(rep_path),
            "calibration_report": str(out_dir / "calibration_report.json"),
        },
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {rep_path} ({cfg.replicates} replicates)")
    return 0


def cmd_audit(args) -> int:
    merged = _merge(args, AUDIT_KEYS)
    _require(merged, ["strata", "rates", "out"], "audit")
    cfg = RunConfig(
        command="audit",
        mode=_mode(merged),
        epsilon=_epsilon_tuple(merged.get("epsilon"), many=False),
        alpha=merged.get("alpha", DEFAULT_ALPHA),
        c=merged.get("c", DEFAULT_C),
        cap=merged.get("cap"),
        paths={k: merged[k] for k in ("strata", "rates", "out")},
    )
    if cfg.cap is not None and cfg.cap < 1:
        raise SchemaError(f"cap must be at least 1, got {cfg.cap}")
    table, prior = _load_instance(cfg)
    epsilon = cfg.epsilon[0]
    calib = _calibrate_once(table, prior, cfg, epsilon)
    kwargs = {"epsilon": epsilon}
    if cfg.cap is not None:
        kwargs["cap"] = cfg.cap
    report = audit(table, calib, **kwargs)
    h = cfg.config_hash()
    out = Path(cfg.paths["out"])
    extra = {"config_hash": h, "config": cfg.to_doc()}
    curve_path = None
    if table.size == 2:
        curve = ratio_curve(table, calib)
        curve_path = out.with_name(f"{out.stem}_curve.csv")
        write_ratio_curve(curve, curve_path, comment=f"config_hash={h}")
        extra["ratio_curve"] = str(curve_path)
    write_audit_report(report, out, extra=extra)
    print(f"wrote {out}" + (f" and {curve_path}" if curve_path else ""))
    if not report.passed:
        print(
            f"audit FAILED: max |log ratio| {report.max_abs_log_ratio:.6f} "
            f"exceeds epsilon {epsilon}",
            file=sys.stderr,
        )
        return 1
    return 0


def _metric_rows(metric, selector, epsilon, truth_value, rep_values):
    rows = [(metric, selector, epsilon, "truth", truth_value)]
    rows.extend(
        (metric, selector, epsilon, i, v) for i, v in enumerate(rep_values)
    )
    summary = summarize_replicates(rep_values)
    rows.extend((metric, selector, epsilon, k, v) for k, v in summary.items())
    return rows


def cmd_evaluate(args) -> int:
    merged = _merge(args, EVALUATE_KEYS)
    _require(merged, ["truth", "replicates_dir", "std", "out"], "evaluate")
    cfg = RunConfig(
        command="evaluate",
        urban_threshold=merged.get("urban_threshold", DEFAULT_URBAN_THRESHOLD),
        age_dim=merged.get("age_dim", "age"),
        geo_dim=merged.get("geo_dim", "county"),
        group_dim=merged.get("group_dim", "race"),
        numerator_level=merged.get("numerator", "black"),
        denominator_level=merged.get("denominator", "white"),
        population_key_dims=merged.get("population_dims"),
        paths={
            k: merged[k]
            for k in ("truth", "replicates_dir", "std", "density", "out")
            if merged.get(k)
        },
    )
    table = StrataTable.from_csv(cfg.paths["truth"])
    std = StandardPopulation.from_csv(cfg.paths["std"])
    rep_dir = Path(cfg.paths["replicates_dir"])
    rep_csv = rep_dir / "replicates.csv" if rep_dir.is_dir() else rep_dir
    if not Path(rep_csv).exists():
        raise SchemaError(f"no replicates file at {rep_csv}")
    matrix = read_replicates_csv(rep_csv, table)

    epsilon: float | str = ""
    manifest_path = (rep_dir / "manifest.json") if rep_dir.is_dir() else None
    if manifest_path and manifest_path.exists():
        epsilon = _load_config(manifest_path).get("epsilon", "")

    opts = {
        "age_dim": cfg.age_dim,
        "population_key_dims": cfg.population_key_dims,
        "warn": False,
    }
    rows = _metric_rows(
        "age_adjusted_rate", "all", epsilon,
        age_adjusted_rate(table.y, table, std, **opts),
        age_adjusted_rate(matrix, table, std, **opts),
    )

    pairs = []
    if cfg.group_dim in table.dim_names:
        levels = set(table.column(cfg.group_dim))
        if {cfg.numerator_level, cfg.denominator_level} <= levels:
            sel_a = {cfg.group_dim: cfg.numerator_level}
            sel_b = {cfg.group_dim: cfg.denominator_level}
            label = f"{selector_label(sel_a)}/{selector_label(sel_b)}"
            pairs.append((label, sel_a, sel_b))
    if cfg.paths.get("density"):
        densities = read_density_csv(cfg.paths["density"])
        urban, rural = urban_rural_classify(
            table, densities, cfg.urban_threshold, geo_dim=cfg.geo_dim
        )
        if urban and rural:
            pairs.append(("urban/rural", {cfg.geo_dim: urban}, {cfg.geo_dim: rural}))
    for label, sel_a, sel_b in pairs:
        truth_d = disparity_ratio(table.y, table, std, sel_a, sel_b, **opts)
        reps_d = disparity_ratio(matrix, table, std, sel_a, sel_b, **opts)
        rows += _metric_rows(
            "disparity_ratio", label, epsilon,
            truth_d.ratio, list(reps_d.per_replicate),
        )

    write_metrics_csv(
        cfg.paths["out"], rows, header_comment=f"config_hash={cfg.config_hash()}"
    )
    print(f"wrote {cfg.paths['out']} ({len(rows)} rows)")
    return 0


def _parse_fixture_spec(doc: dict) -> FixtureSpec:
    kwargs = dict(doc)
    if "dims" in kwargs:
        try:
            kwargs["dims"] = tuple(
                (str(name), int(count)) for name, count in kwargs["dims"]
            )
        except (TypeError, ValueError):
            raise SchemaError(
                "fixture dims must be [[name, count], ...] pairs"
            ) from None
    if kwargs.get("rate_profile") is not None:
        profile = {}
        try:
            for age, by_site in kwargs["rate_profile"].items():
                for site, rate in by_site.items():
                    profile[(str(age), str(site))] = float(rate)
        except (AttributeError, TypeError, ValueError):
            raise SchemaError(
                "rate_profile must be {age: {site: rate}} nested objects"
            ) from None
        kwargs["rate_profile"] = profile
    try:
        return FixtureSpec(**kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad fixture spec: {exc}") from None


def cmd_fixture(args) -> int:
    merged = _merge(args, FIXTURE_KEYS)
    _require(merged, ["spec", "out"], "fixture")
    cfg = RunConfig(
        command="fixture", paths={"spec": merged["spec"], "out": merged["out"]}
    )
    source = merged["spec"]
    if source.lstrip().startswith("{"):
        doc = _json_object(source, "--spec")
    else:
        doc = _load_config(source)
    spec = _parse_fixture_spec(doc)
    fixture = generate_fixture(spec)
    h = cfg.config_hash()
    paths = write_fixture_files(
        fixture, merged["out"], header_comment=f"config_hash={h}"
    )
    urban = sorted(
        g for g, d in fixture.densities.items() if d > spec.density_threshold
    )
    manifest = {
        "config_hash": h,
        "config": cfg.to_doc(),
        "spec": {
            **{k: v for k, v in asdict(spec).items() if k != "rate_profile"},
            "dims": [list(d) for d in spec.dims],
            "rate_profile": None if spec.rate_profile is None else "custom",
        },
        "strata": fixture.table.size,
        "y_total": int(fixture.table.y_total),
        "urban_counties": urban,
        "population_key_dims": list(POPULATION_KEY_DIMS),
        "files": {k: str(v) for k, v in paths.items()},
    }
    with open(Path(merged["out"]) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote fixture to {merged['out']} ({fixture.table.size} strata)")
    return 0


# each command's settings and the converter a value goes through
CALIBRATE_KEYS = {
    "strata": _text, "rates": _text, "epsilon": _epsilons, "mode": _text,
    "alpha": _real, "c": _real, "out": _text,
}
SYNTHESIZE_KEYS = {
    **CALIBRATE_KEYS, "replicates": _integer, "seed": _integer,
    "threads": _integer,
}
AUDIT_KEYS = {**CALIBRATE_KEYS, "cap": _integer}
EVALUATE_KEYS = {
    "truth": _text, "replicates_dir": _text, "std": _text,
    "density": _text, "urban_threshold": _real, "out": _text,
    "age_dim": _text, "geo_dim": _text, "group_dim": _text,
    "numerator": _text, "denominator": _text, "population_dims": _dims,
}
FIXTURE_KEYS = {"spec": _text, "out": _text}


def _add_common(p, *, many_eps: bool):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--strata", help="strata CSV (dims..., population, count)")
    p.add_argument("--rates", help="reference rates CSV (dims..., rate)")
    if many_eps:
        p.add_argument("--epsilon", type=float, nargs="+",
                       help="privacy budget(s); one report per value")
    else:
        p.add_argument("--epsilon", type=float, help="privacy budget")
    p.add_argument("--mode", choices=[MODE_UNTRUNCATED, MODE_TRUNCATED])
    p.add_argument("--alpha", type=float,
                   help=f"truncation tail level (default {DEFAULT_ALPHA})")
    p.add_argument("--c", type=float,
                   help=f"truncation dispersion factor (default {DEFAULT_C})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsynth",
        description="Differentially private synthetic counts via a "
        "Poisson-gamma posterior predictive with an exact total.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve minimal prior hyperparameters")
    _add_common(p, many_eps=True)
    p.add_argument("--out", help="calibration report JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("synthesize", help="draw seeded synthetic replicates")
    _add_common(p, many_eps=False)
    p.add_argument("--replicates", type=int, help="number of replicates")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--threads", type=int,
                   help="worker threads (default: PGSYNTH_THREADS or 1)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("audit", help="exhaustively verify the privacy bound")
    _add_common(p, many_eps=False)
    p.add_argument("--cap", type=int,
                   help="most datasets to enumerate (default 10^6)")
    p.add_argument("--out", help="audit report JSON path")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("evaluate", help="utility metrics over replicates")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--truth", help="true strata CSV")
    p.add_argument("--replicates", dest="replicates_dir",
                   help="synthesize output directory (or replicates CSV)")
    p.add_argument("--std", help="standard population CSV (age_group, weight)")
    p.add_argument("--density", help="density CSV (geo, density)")
    p.add_argument("--urban-threshold", dest="urban_threshold", type=float,
                   help=f"urban density cutoff (default {DEFAULT_URBAN_THRESHOLD})")
    p.add_argument("--age-dim", dest="age_dim")
    p.add_argument("--geo-dim", dest="geo_dim")
    p.add_argument("--group-dim", dest="group_dim")
    p.add_argument("--numerator", help="group level for disparity numerators")
    p.add_argument("--denominator", help="group level for disparity denominators")
    p.add_argument("--population-dims", dest="population_dims",
                   help="comma-separated dims identifying one person-cell")
    p.add_argument("--out", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fixture", help="generate a seeded test instance")
    p.add_argument("--config", help=argparse.SUPPRESS)
    p.add_argument(
        "--spec", help="fixture spec: a JSON object inline, or a JSON file path"
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, DomainError) as exc:
        print(f"pgsynth: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"pgsynth: error: {exc}", file=sys.stderr)
        return 2
    except PgsynthError as exc:
        print(f"pgsynth: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: calibrate, synthesize, audit, evaluate, fixture.

Each subcommand reads an optional JSON config file plus flags (flags
win), resolves them into one RunConfig, and stamps every output with the
sha256 hash of that resolved config, so outputs produced under different
settings never share a hash. Exit codes are a stable contract: 0 for
success, 1 for runtime or numeric failure (non-convergence, dominance
rejection, infeasible boxes, enumeration caps), 2 for input or schema
problems.

Every setting is declared once, as a row of SETTINGS: its config key,
its converter and its help. Its flag is the key with "-" for "_".
COMMANDS gives each subcommand its settings and the required ones; the
parser, the config-key check and RunConfig all come from these two
tables. Flags are parsed as plain strings, so a flag value and a config
value go through the same converter.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .audit import audit, ratio_curve, write_audit_report, write_ratio_curve
from .calibration import (
    MODE_TRUNCATED,
    MODE_UNTRUNCATED,
    exp_epsilon,
    solve_hyperparameters,
    write_report,
)
from .errors import (
    CalibrationError,
    DomainError,
    PgsynthError,
    SchemaError,
    UndefinedRateError,
)
from .fixtures import (
    POPULATION_KEY_DIMS,
    FixtureSpec,
    generate_fixture,
    write_fixture_files,
)
from .mechanism import build_kernel_params
from .strata import RatesTable, StrataTable, build_prior, compute_bounds, open_input
from .synthesizer import (
    SAMPLER,
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


@dataclass(frozen=True)
class RunConfig:
    """One subcommand invocation, fully resolved and serializable.

    epsilon always holds a tuple; only calibrate accepts more than one
    value. paths holds every file the command touches, so the echoed
    config pins the run. The field defaults are the CLI's; --help quotes them.
    """

    command: str
    mode: str | None = None
    epsilon: tuple[float, ...] = ()
    alpha: float = 1e-4
    c: float = 1.0
    replicates: int | None = None
    seed: int | None = None
    threads: int | None = None
    cap: int | None = None
    urban_threshold: float = 280.0
    age_dim: str = "age"
    geo_dim: str = "county"
    group_dim: str = "race"
    numerator_level: str = "black"
    denominator_level: str = "white"
    population_key_dims: tuple[str, ...] | None = None
    paths: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        # tuples serialize as JSON lists; synthesize also names the sampler
        # version, so a change of draws changes the hash
        doc = asdict(self)
        doc["paths"] = {k: str(v) for k, v in sorted(self.paths.items())}
        if self.command == "synthesize":
            doc["sampler"] = SAMPLER
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
    with open_input(path) as fh:
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


def _epsilon_tuple(eps: tuple[float, ...], *, many: bool) -> tuple[float, ...]:
    if not eps:
        raise SchemaError("epsilon list is empty")
    if not many and len(eps) != 1:
        raise SchemaError("this command takes a single epsilon")
    for e in eps:
        exp_epsilon(e)
    return eps


def _mode(merged) -> str:
    mode = merged.get("mode") or MODE_UNTRUNCATED
    if mode not in (MODE_UNTRUNCATED, MODE_TRUNCATED):
        raise SchemaError(f"mode must be untruncated or truncated, got {mode!r}")
    return mode


def _resolve(args) -> RunConfig:
    """The invocation's RunConfig: config-file values overridden by any
    flag that was actually given, then checked.

    Every value goes through its setting's converter; a value it refuses
    is a SchemaError. A null config value counts as unset, and an unset
    setting keeps the field's default. A setting that names a RunConfig
    field (through _FIELD) sets it; any other names a file and goes into
    paths when non-empty.
    """
    command = COMMANDS[args.command]
    merged: dict = {}
    if args.config:
        raw = _load_config(args.config)
        unknown = set(raw) - set(command.settings)
        if unknown:
            raise SchemaError(f"unknown config keys {sorted(unknown)}")
        merged.update((k, v) for k, v in raw.items() if v is not None)
    for key in command.settings:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    for key, value in merged.items():
        try:
            merged[key] = SETTINGS[key][0](value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"setting {key!r}: {exc}") from None
    missing = [k for k in command.required if merged.get(k) in (None, "")]
    if missing:
        raise SchemaError(f"{args.command}: missing required settings {missing}")
    if "mode" in command.settings:
        merged["mode"] = _mode(merged)
    if "epsilon" in command.settings:
        merged["epsilon"] = _epsilon_tuple(
            merged["epsilon"], many=args.command == "calibrate"
        )
    values, paths = {}, {}
    for key, value in merged.items():
        name = _FIELD.get(key, key)
        if name in _FIELD_DEFAULTS:
            values[name] = value
        elif value:
            paths[key] = value
    return RunConfig(command=args.command, paths=paths, **values)


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
    cfg = _resolve(args)
    out, many = Path(cfg.paths["out"]), len(cfg.epsilon) > 1
    reports = {_eps_path(out, e, many): e for e in cfg.epsilon}
    if len(reports) < len(cfg.epsilon):
        raise SchemaError(
            f"epsilon values {list(cfg.epsilon)} do not all get their own "
            f"report file (named by {{epsilon:g}}); no file written"
        )
    table, prior = _load_instance(cfg)
    # every epsilon is solved before any report is written, so a failure
    # leaves no report behind
    solved = {p: _calibrate_once(table, prior, cfg, e) for p, e in reports.items()}
    for path, calib in solved.items():
        write_report(
            calib, table, path,
            extra={"config_hash": cfg.config_hash(), "config": cfg.to_doc()},
        )
        print(f"wrote {path}")
    return 0


def cmd_synthesize(args) -> int:
    cfg = _resolve(args)
    if cfg.replicates < 1:
        raise DomainError("need at least one replicate")
    table, prior = _load_instance(cfg)
    epsilon = cfg.epsilon[0]

    threads = 1 if cfg.threads is None else cfg.threads
    t0 = time.perf_counter()
    calib = _calibrate_once(table, prior, cfg, epsilon)
    t1 = time.perf_counter()
    matrix = sample_counts_matrix(
        table, calib, count=cfg.replicates, base_seed=cfg.seed, threads=threads
    )
    t2 = time.perf_counter()

    # invariant scan before any file is opened: every total, and every
    # count inside the boxes the sampler draws in; a failure leaves the
    # output directory untouched
    params = build_kernel_params(table.y, table, calib)
    sums_ok = bool(np.all(matrix.sum(axis=1) == table.y_total))
    box_ok = bool(np.all(matrix >= params.lo) and np.all(matrix <= params.hi))
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
    write_replicates_csv(
        tmp, table, matrix, header_comment=f"config_hash={h}", threads=threads
    )
    os.replace(tmp, rep_path)
    t3 = time.perf_counter()

    write_report(
        calib, table, out_dir / "calibration_report.json",
        extra={"config_hash": h, "config": cfg.to_doc()},
    )
    t4 = time.perf_counter()
    manifest = {
        "config_hash": h,
        "config": cfg.to_doc(),
        "epsilon": epsilon,
        "mode": cfg.mode,
        "strata": table.size,
        "y_total": int(table.y_total),
        "replicates": cfg.replicates,
        "invariants": {"sum_ok": sums_ok, "box_ok": box_ok},
        "files": {
            "replicates": str(rep_path),
            "calibration_report": str(out_dir / "calibration_report.json"),
        },
    }
    # the sampler's work follows the confidential counts, so its timings
    # go to the operator's run log, not to the releasable manifest
    run_log = {"timings_s": {
        "calibrate": round(t1 - t0, 6),
        "sample": round(t2 - t1, 6),
        "write": round(t3 - t2, 6),
        "report": round(t4 - t3, 6),
    }}
    for name, doc in (("manifest.json", manifest), ("run_log.json", run_log)):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(f"wrote {rep_path} ({cfg.replicates} replicates)")
    return 0


def cmd_audit(args) -> int:
    cfg = _resolve(args)
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
    cfg = _resolve(args)
    table = StrataTable.from_csv(cfg.paths["truth"])
    std = StandardPopulation.from_csv(cfg.paths["std"])
    rep_dir = Path(cfg.paths["replicates_dir"])
    rep_csv = rep_dir / "replicates.csv" if rep_dir.is_dir() else rep_dir
    if not rep_csv.exists():
        raise SchemaError(f"no replicates file at {rep_csv}")
    # the truth is row 0, so each selector's age groups are built once; a
    # row's value is bit for bit its value alone
    counts = np.vstack([table.y, read_replicates_csv(rep_csv, table)])

    epsilon: float | str = ""
    if (rep_dir / "manifest.json").is_file():
        epsilon = _load_config(rep_dir / "manifest.json").get("epsilon", "")

    opts = {
        "age_dim": cfg.age_dim,
        "population_key_dims": cfg.population_key_dims,
        "warn": False,
    }
    rates = age_adjusted_rate(counts, table, std, **opts)
    rows = _metric_rows("age_adjusted_rate", "all", epsilon, rates[0], rates[1:])

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
        try:
            ratios = disparity_ratio(counts, table, std, sel_a, sel_b, **opts)
        except UndefinedRateError:
            # the truth, or the replicate, as the message should name it
            for rows_of in (counts[0], counts[1:]):
                disparity_ratio(rows_of, table, std, sel_a, sel_b, **opts)
            raise
        rows += _metric_rows(
            "disparity_ratio", label, epsilon,
            ratios.per_replicate[0], ratios.per_replicate[1:],
        )

    write_metrics_csv(
        cfg.paths["out"], rows, header_comment=f"config_hash={cfg.config_hash()}"
    )
    print(f"wrote {cfg.paths['out']} ({len(rows)} rows)")
    return 0


# how each scalar field of a fixture spec is read from JSON
_SPEC_FIELDS = {
    "total_deaths": _integer, "state_population": _integer, "seed": _integer,
    "urban_count": _integer, "density_threshold": _real,
    "urban_multiplier": _real, "group_multiplier": _real,
    "group_dim": _text, "group_level": _text,
}


def _parse_fixture_spec(doc: dict) -> FixtureSpec:
    kwargs = dict(doc)
    for key, parse in _SPEC_FIELDS.items():
        if key in kwargs:
            try:
                kwargs[key] = parse(kwargs[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"fixture spec {key!r}: {exc}") from None
    if "dims" in kwargs:
        try:
            kwargs["dims"] = tuple(
                (str(name), _integer(count)) for name, count in kwargs["dims"]
            )
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(
                "fixture dims must be [[name, count], ...] pairs, counts integers"
            ) from None
    try:
        return FixtureSpec(**kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad fixture spec: {exc}") from None


def cmd_fixture(args) -> int:
    cfg = _resolve(args)
    source, out = cfg.paths["spec"], cfg.paths["out"]
    if source.lstrip().startswith("{"):
        doc = _json_object(source, "--spec")
    else:
        doc = _load_config(source)
    spec = _parse_fixture_spec(doc)
    fixture = generate_fixture(spec)
    h = cfg.config_hash()
    paths = write_fixture_files(fixture, out, header_comment=f"config_hash={h}")
    urban = sorted(
        g for g, d in fixture.densities.items() if d > spec.density_threshold
    )
    manifest = {
        "config_hash": h,
        "config": cfg.to_doc(),
        "spec": {**asdict(spec), "dims": [list(d) for d in spec.dims]},
        "strata": fixture.table.size,
        "y_total": int(fixture.table.y_total),
        "urban_counties": urban,
        "population_key_dims": list(POPULATION_KEY_DIMS),
        "files": {k: str(v) for k, v in paths.items()},
    }
    with open(Path(out) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote fixture to {out} ({fixture.table.size} strata)")
    return 0


# Every setting, once: config key -> (converter, help). Its flag is --key
# with "-" for "_", except evaluate's replicates_dir, which is
# --replicates. A key that names no RunConfig field (after _FIELD) names a
# file and goes into RunConfig.paths.
SETTINGS: dict[str, tuple[Callable, str | None]] = {
    "strata": (_text, "strata CSV (dims..., population, count)"),
    "rates": (_text, "reference rates CSV (dims..., rate)"),
    "epsilon": (_epsilons, "privacy budget (calibrate: one or more, one report each)"),
    "mode": (_text, "untruncated (default) or truncated"),
    "alpha": (_real, "truncation tail level"),
    "c": (_real, "truncation dispersion factor"),
    "replicates": (_integer, "number of replicates"),
    "seed": (_integer, "base seed"),
    "threads": (_integer, "worker threads (default: 1)"),
    "cap": (_integer, "most datasets to enumerate (default 10^6)"),
    "truth": (_text, "true strata CSV"),
    "replicates_dir": (_text, "synthesize output directory (or replicates CSV)"),
    "std": (_text, "standard population CSV (age_group, weight)"),
    "density": (_text, "density CSV (geo, density)"),
    "urban_threshold": (_real, "urban density cutoff"),
    "age_dim": (_text, "dimension holding the age group"),
    "geo_dim": (_text, "dimension holding the county"),
    "group_dim": (_text, "dimension holding the disparity groups"),
    "numerator": (_text, "group level for disparity numerators"),
    "denominator": (_text, "group level for disparity denominators"),
    "population_dims": (_dims, "comma-separated dims identifying one person-cell"),
    "spec": (_text, "fixture spec: a JSON object inline, or a JSON file path"),
    "out": (_text, None),  # each command has its own help
}
_FIELD = {"numerator": "numerator_level", "denominator": "denominator_level",
          "population_dims": "population_key_dims"}
_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)
                   if f.name not in ("command", "paths")}


class Command(NamedTuple):
    run: Callable
    help: str
    out: str  # the --out help
    settings: tuple[str, ...]  # in --help order
    required: tuple[str, ...]


_INSTANCE = ("strata", "rates", "epsilon", "mode", "alpha", "c")
_REQUIRED = ("strata", "rates", "epsilon", "out")
COMMANDS = {
    "calibrate": Command(
        cmd_calibrate, "solve minimal prior hyperparameters",
        "calibration report JSON path", (*_INSTANCE, "out"), _REQUIRED,
    ),
    "synthesize": Command(
        cmd_synthesize, "draw seeded synthetic replicates", "output directory",
        (*_INSTANCE, "replicates", "seed", "threads", "out"),
        (*_REQUIRED, "replicates", "seed"),
    ),
    "audit": Command(
        cmd_audit, "exhaustively verify the privacy bound",
        "audit report JSON path", (*_INSTANCE, "cap", "out"), _REQUIRED,
    ),
    "evaluate": Command(
        cmd_evaluate, "utility metrics over replicates", "metrics CSV path",
        ("truth", "replicates_dir", "std", "density", "urban_threshold",
         "age_dim", "geo_dim", "group_dim", "numerator", "denominator",
         "population_dims", "out"),
        ("truth", "replicates_dir", "std", "out"),
    ),
    "fixture": Command(
        cmd_fixture, "generate a seeded test instance", "output directory",
        ("spec", "out"), ("spec", "out"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsynth",
        description="Differentially private synthetic counts via a "
        "Poisson-gamma posterior predictive with an exact total.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(func=command.run)
        p.add_argument("--config", help=argparse.SUPPRESS if name == "fixture"
                       else "JSON config file; flags override it")
        for key in command.settings:
            text = command.out if key == "out" else SETTINGS[key][1]
            default = _FIELD_DEFAULTS.get(_FIELD.get(key, key))
            flag = "replicates" if key == "replicates_dir" else key.replace("_", "-")
            p.add_argument(
                f"--{flag}", dest=key, nargs="+" if key == "epsilon" else None,
                help=f"{text} (default {default})" if default else text,
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        SchemaError, DomainError, FileNotFoundError, FileExistsError,
        IsADirectoryError, NotADirectoryError, PermissionError,
    ) as exc:
        print(f"pgsynth: error: {exc}", file=sys.stderr)
        return 2
    except PgsynthError as exc:
        print(f"pgsynth: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

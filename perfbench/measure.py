"""Measurement and checking helpers shared by the benchmark runner.

Everything here is plain arithmetic over numbers the runner collected:
child-process accounting from os.wait4, span self times, replicate-file
parsing and hashing, the empirical total-variation distance, and the
operation ledger that yields attempted, failed and error_rate. The
runner (run.py) owns orchestration; the tracer (tracer.py) owns span
recording inside a traced child.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from math import comb
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class ProcResult:
    """One finished child process, as os.wait4 reported it."""

    argv: tuple
    returncode: int
    wall_s: float
    user_s: float
    sys_s: float
    peak_rss_mb: float
    minflt: int
    started: float  # time.perf_counter() just before the fork
    log: str

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["argv"] = list(self.argv)
        return doc


LAUNCHER = Path(__file__).resolve().parent / "launch.py"


def spawn(argv, *, env, cwd, log_path, timeout_s: float) -> ProcResult:
    """Run argv to completion and account for it with os.wait4.

    wait4 returns the rusage of this one child, so peak RSS and CPU time
    belong to it alone (RUSAGE_CHILDREN keeps a running maximum over all
    children, which would let one step hide the next). The child starts
    from launch.py, a small fork-and-exec process, so its peak RSS does
    not inherit this process's. Output goes to log_path; the child is
    killed if it outlives timeout_s.
    """
    log_path = Path(log_path)
    result_path = log_path.with_name(log_path.name + ".rusage.json")
    launcher = [sys.executable, "-I", str(LAUNCHER), str(result_path), str(log_path),
                repr(float(timeout_s)), "--", *map(str, argv)]
    subprocess.run(launcher, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                   check=True, timeout=timeout_s + 30)
    with open(result_path, encoding="utf-8") as fh:
        got = json.load(fh)
    return ProcResult(
        argv=tuple(str(a) for a in argv),
        returncode=got["returncode"],
        wall_s=got["wall_s"],
        user_s=got["user_s"],
        sys_s=got["sys_s"],
        peak_rss_mb=got["maxrss_kib"] * 1024 / 1e6,
        minflt=got["minflt"],
        started=got["started"],
        log=str(log_path),
    )


@dataclass
class Ledger:
    """Operations attempted and failed; one CLI call or one output check each."""

    records: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.records.append({"op": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r["ok"])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def median(values) -> float:
    return float(statistics.median(values))


def body_sha256(path) -> str:
    """sha256 of a file without its leading '#' comment lines.

    The replicate CSV starts with '# config_hash=...', and that hash
    covers the output path, so two identical draws written to different
    directories differ only there.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        digest.update(line)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dir_bytes(path) -> int:
    """Total size of every file under a directory."""
    return sum(
        os.path.getsize(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(path)
        for f in files
    )


def read_long_replicates(path, keys) -> np.ndarray:
    """Parse a long-form replicate CSV into a (replicates, strata) matrix.

    keys lists the strata in table order, each a tuple of labels. Every
    replicate must cover every stratum exactly once; rows may come in any
    order. Raises ValueError on any malformed, unknown or missing row.
    """
    keys = [tuple(k) for k in keys]
    size, ndim = len(keys), len(keys[0])
    skip = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            skip += 1
            if not line.startswith("#"):
                break  # the header
    opts = {"delimiter": ",", "comments": "#", "skiprows": skip, "ndmin": 2}
    num = np.loadtxt(path, usecols=(0, ndim + 1), dtype=np.int64, **opts)
    labels = np.loadtxt(path, usecols=range(1, ndim + 1), dtype=str, **opts)
    # code each row's key and each table key in one mixed radix over the
    # labels seen per dimension, then match codes to table positions
    row_code = np.zeros(len(num), dtype=np.int64)
    key_code = np.zeros(size, dtype=np.int64)
    radix = 1
    for j in range(ndim):
        column = labels[:, j].tolist()
        pos = {label: i for i, label in enumerate(set(column))}
        row_code += np.fromiter(map(pos.__getitem__, column), np.int64, len(column)) * radix
        key_code += np.array([pos.get(k[j], len(pos)) for k in keys]) * radix
        radix *= len(pos) + 1
    order = np.argsort(key_code)
    at = np.minimum(np.searchsorted(key_code, row_code, sorter=order), size - 1)
    cols = order[at]
    if len(num) == 0 or not np.array_equal(key_code[cols], row_code):
        raise ValueError(f"{path}: rows name strata outside the table")
    reps = num[:, 0]
    count = int(reps.max()) + 1
    if reps.min() < 0 or len(reps) != count * size:
        raise ValueError(f"{path}: expected {size} rows per replicate")
    flat = reps * size + cols
    if np.bincount(flat, minlength=len(flat)).max() != 1:
        raise ValueError(f"{path}: a stratum repeats within a replicate")
    out = np.empty(count * size, dtype=np.int64)
    out[flat] = num[:, 1]
    return out.reshape(count, size)


def empirical_tv(draws: np.ndarray, support: np.ndarray, logp: np.ndarray) -> float:
    """Total-variation distance between draw frequencies and an exact law.

    Returns inf if any draw lies outside the exact support.
    """
    rows, counts = np.unique(draws, axis=0, return_counts=True)
    exact = {tuple(r): p for r, p in zip(support.tolist(), np.exp(logp).tolist())}
    freq = {tuple(r): c / len(draws) for r, c in zip(rows.tolist(), counts.tolist())}
    if not set(freq) <= set(exact):
        return float("inf")
    return 0.5 * sum(abs(freq.get(k, 0.0) - p) for k, p in exact.items())


def neighbor_pairs(strata: int, total: int) -> int:
    """Unit-transfer pairs the exhaustive audit visits.

    Over all compositions y of total into strata parts, the audit visits
    (i, j) with y_i > 0 and j != i. The compositions with y_i > 0 number
    C(total - 1 + strata - 1, strata - 1) for each i.
    """
    if strata < 2 or total < 1:
        return 0
    return strata * (strata - 1) * comb(total + strata - 2, strata - 1)


def span_self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def aggregate_spans(names, name_id, start, end, parent) -> dict:
    """Per span name: call count, total (inclusive) seconds and self seconds."""
    name_id = np.asarray(name_id, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    self_s = span_self_times(start, end, parent)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=end - start, minlength=k)
    selfs = np.bincount(name_id, weights=self_s, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
        for i, name in enumerate(names)
        if calls[i]
    }

"""Synthetic count replicates drawn exactly from the mechanism law.

The target law is the product of per-stratum negative-binomial kernels
conditioned on the invariant total (and, in truncated mode, on the
per-stratum boxes). The gamma rates are integrated out in closed form, so
a draw never passes through a rate vector: strata are visited in input
order and each count is sampled from its exact conditional

    P(z_i = v | remaining total t) propto w_i(v) * T_{i+1}(t - v),

where T_{i+1} is the completion-mass table of the remaining strata
(mechanism.MassTable). Completion tables are built once per batch by
mechanism.backward_pass, with checkpoints every ceil(sqrt(I))
strata so the per-block rebuild keeps memory at O(sqrt(I) * y_total)
while the total convolution work stays O(I * y_total * box_width).

Reproducibility contract: replicate r consumes exactly one uniform per
stratum from the dedicated stream seeded by (base_seed, r). Batch
processing order, chunking, and thread count therefore never change any
replicate's value.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .calibration import Calibration
from .errors import DomainError, InfeasibilityError, SchemaError
from .mechanism import (
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    check_bounds,
    convolve_mass,
)
from .strata import StrataTable, TruncationBounds

__all__ = [
    "sample_counts_matrix",
    "write_replicates_csv",
    "read_replicates_csv",
    "default_thread_count",
]

THREADS_ENV_VAR = "PGSYNTH_THREADS"

# Replicate-chunk size cap, in matrix elements (count * strata). Keeps the
# per-chunk uniform and weight buffers comfortably inside memory.
CHUNK_ELEMENTS = 1 << 26


def default_thread_count() -> int:
    """Worker count from the PGSYNTH_THREADS variable, else 1."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{THREADS_ENV_VAR}={raw!r} is not an integer") from None
    if value < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be at least 1")
    return value


def _rebuild_block(
    start: int,
    end: int,
    checkpoints: dict[int, MassTable],
    weights: list[MassTable],
    y_total: int,
) -> dict[int, MassTable]:
    """Tables T_{start+1}..T_{end} for one forward block."""
    tables = {end: checkpoints[end]}
    for k in range(end - 1, start, -1):
        tables[k] = convolve_mass(weights[k], tables[k + 1], y_total)
    return tables


def _draw_chunk(
    params: KernelParams,
    checkpoints: dict[int, MassTable],
    weights: list[MassTable],
    block: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Sequential conditional draws for one replicate chunk.

    uniforms has one row per replicate and one column per stratum; row r
    is consumed left to right, one value per stratum.
    """
    count, size = uniforms.shape
    y_total = params.y_total
    z = np.empty((count, size), dtype=np.int64)
    remaining = np.full(count, y_total, dtype=np.int64)
    for start in range(0, size, block):
        end = min(start + block, size)
        tables = _rebuild_block(start, end, checkpoints, weights, y_total)
        for i in range(start, end):
            nxt = tables[i + 1]
            w = weights[i]
            cand = np.arange(w.lo, w.lo + len(w.vals), dtype=np.int64)
            idx = remaining[:, None] - cand[None, :] - nxt.lo
            valid = (idx >= 0) & (idx < len(nxt.vals))
            mass = np.where(valid, nxt.vals[np.clip(idx, 0, len(nxt.vals) - 1)], 0.0)
            mass *= w.vals[None, :]
            total = mass.sum(axis=1)
            if np.any(total <= 0.0):
                raise InfeasibilityError(
                    f"conditional mass of stratum {i} underflowed to zero; "
                    "no exact draw exists"
                )
            cdf = np.cumsum(mass, axis=1)
            target = uniforms[:, i] * total
            pick = (cdf <= target[:, None]).sum(axis=1)
            draw = cand[np.minimum(pick, len(cand) - 1)]
            z[:, i] = draw
            remaining -= draw
        del tables
    if np.any(remaining != 0):
        raise InfeasibilityError("a draw failed to exhaust the invariant total")
    return z


def _chunk_uniforms(base_seed: int, first: int, count: int, size: int) -> np.ndarray:
    u = np.empty((count, size), dtype=np.float64)
    for offset in range(count):
        stream = np.random.default_rng(
            np.random.SeedSequence((base_seed, first + offset))
        )
        u[offset] = stream.random(size)
    return u


def sample_counts_matrix(
    table: StrataTable,
    calib: Calibration,
    bounds: TruncationBounds | None = None,
    *,
    count: int,
    base_seed: int,
    threads: int | None = None,
) -> np.ndarray:
    """Count-by-stratum matrix of exact mechanism draws.

    Row r is replicate r, drawn from the stream (base_seed, r). The
    draws always use calib.bounds; bounds is accepted only as those boxes
    or, after the two-stratum exchange rule, the raw boxes they came from
    (see mechanism.check_bounds). threads=None reads PGSYNTH_THREADS.
    """
    if table.size < 2:
        raise DomainError("synthesis needs at least two strata")
    if count < 0:
        raise DomainError("replicate count must be nonnegative")
    if base_seed < 0:
        raise DomainError("base_seed must be nonnegative")
    if threads is None:
        threads = default_thread_count()
    check_bounds(calib, bounds, table.y_total)
    params = build_kernel_params(table.y, table, calib)
    if count == 0:
        return np.empty((0, table.size), dtype=np.int64)
    block = max(1, int(np.ceil(np.sqrt(params.size))))
    checkpoints, weights, _ = backward_pass(params, block)
    chunk = max(1, CHUNK_ELEMENTS // max(params.size, 1))
    starts = list(range(0, count, chunk))
    out = np.empty((count, table.size), dtype=np.int64)

    def run_one(first: int) -> None:
        stop = min(first + chunk, count)
        u = _chunk_uniforms(base_seed, first, stop - first, params.size)
        out[first:stop] = _draw_chunk(params, checkpoints, weights, block, u)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_one, starts))
    else:
        for first in starts:
            run_one(first)
    return out


def write_replicates_csv(
    path, table: StrataTable, matrix: np.ndarray, header_comment: str | None = None
) -> None:
    """Long-form CSV of a (replicates, strata) matrix: replicate, dims..., z.

    Streams one replicate row at a time, so the text never sits in memory
    whole.
    """
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["replicate", *table.dim_names, "z"])
        for r, z in enumerate(matrix):
            for key, value in zip(table.keys, z.tolist()):
                writer.writerow([r, *key, value])


def read_replicates_csv(path, table: StrataTable) -> np.ndarray:
    """Load a long-form replicate CSV back into a (replicates, strata) matrix.

    Rows must cover every stratum of the table exactly once per replicate
    index; replicate indices may appear in any order.
    """
    import csv

    index = {key: i for i, key in enumerate(table.keys)}
    per_rep: dict[int, np.ndarray] = {}
    filled: dict[int, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        header = None
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or record[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [f.strip() for f in record]
                if tuple(header) != ("replicate", *table.dim_names, "z"):
                    raise SchemaError(
                        f"{path}:{lineno}: header does not match the strata table"
                    )
                continue
            if len(record) != len(header):
                raise SchemaError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(record)}"
                )
            try:
                rep = int(record[0])
                z = int(record[-1])
            except ValueError:
                raise SchemaError(
                    f"{path}:{lineno}: replicate and z must be integers"
                ) from None
            if z < 0:
                raise SchemaError(f"{path}:{lineno}: negative count")
            key = tuple(v.strip() for v in record[1:-1])
            pos = index.get(key)
            if pos is None:
                raise SchemaError(f"{path}:{lineno}: unknown stratum {key}")
            if rep not in per_rep:
                per_rep[rep] = np.zeros(table.size, dtype=np.int64)
                filled[rep] = np.zeros(table.size, dtype=bool)
            if filled[rep][pos]:
                raise SchemaError(
                    f"{path}:{lineno}: duplicate stratum {key} in replicate {rep}"
                )
            per_rep[rep][pos] = z
            filled[rep][pos] = True
    if header is None:
        raise SchemaError(f"{path}: empty file, expected a header row")
    if not per_rep:
        raise SchemaError(f"{path}: no replicate rows")
    for rep, mask in filled.items():
        if not mask.all():
            raise SchemaError(f"{path}: replicate {rep} is missing strata")
    order = sorted(per_rep)
    return np.stack([per_rep[r] for r in order])

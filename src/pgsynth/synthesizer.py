"""Synthetic count replicates drawn exactly from the mechanism law.

The target law is the product of per-stratum negative-binomial kernels
conditioned on the invariant total (and, in truncated mode, on the
per-stratum boxes). The gamma rates are integrated out in closed form, so
a draw never passes through a rate vector: strata are visited in input
order and each count is sampled from its exact conditional

    P(z_i = v | remaining total t) propto w_i(v) * T_{i+1}(t - v),

where T_{i+1} is the completion-mass table of the remaining strata
(mechanism.MassTable). mechanism.backward_pass builds the tables once per
batch and keeps a checkpoint every ceil(sqrt(I)) strata. The draw then
runs block by block: each block's tables are rebuilt once from its
checkpoint (mechanism.suffix_tables), and its strata are drawn for every
replicate in tiles of ROW_TILE rows, on a thread pool when threads > 1
and there is more than one tile. A completion-mass table spans only the
totals whose weight is >= 2^-1022 of its peak, at most y_total + 1 of
them, so table memory stays O(sqrt(I) * y_total) and convolution work
O(I * span * box_width), where span is the widest table's length,
whatever the replicate count. Each draw overwrites the uniform it
consumed, so a batch holds one (count x I) matrix.

Reproducibility contract: replicate r consumes exactly one uniform per
stratum, in order, from its own stream: PCG64 seeded by
SeedSequence((base_seed, r)), read through Generator.random. Batch
size, row tiling, and thread count therefore never change any
replicate's value. How the streams are generated is picked by batch
shape: batches with more replicates than strata run SeedSequence and
PCG64 across all rows at once in uint32/uint64 numpy arithmetic, wider
batches seed one numpy generator per row. Both give the same bits, so the
choice never shows in any output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .calibration import Calibration
from .errors import DomainError, InfeasibilityError, SchemaError
from .mechanism import (
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    suffix_tables,
)
from .strata import StrataTable

__all__ = [
    "sample_counts_matrix",
    "write_replicates_csv",
    "read_replicates_csv",
]

# Rows per tile, for the draw's (rows x candidates) temporaries and the
# stream arithmetic; with threads, each worker holds one tile's
# temporaries. A row's value never depends on it.
ROW_TILE = 1 << 15

# CSV lines per write in write_replicates_csv.
WRITE_ROWS = 200_000

_MASK32 = 0xFFFFFFFF
_U32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
# PCG64's 128-bit LCG multiplier, as 64-bit halves, and the low half's
# 32-bit limbs for the 64 x 64 -> 128-bit product
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _U32


def _draw_chunk(
    params: KernelParams,
    checkpoints: dict[int, MassTable],
    weights: list[MassTable],
    block: int,
    uniforms: np.ndarray,
    threads: int = 1,
) -> np.ndarray:
    """Sequential conditional draws, written over the uniforms they consume.

    uniforms is a float64 array with one row per replicate and one column
    per stratum; row r is consumed left to right, one value per stratum.
    Blocks of strata are the outer loop: a block's tables are rebuilt once
    into a buffer every block reuses, then each tile of ROW_TILE rows
    draws the block's strata, on a thread pool when threads > 1 and there
    are several tiles. The returned int64 matrix is a view of uniforms.
    """
    count, size = uniforms.shape
    y_total = params.y_total
    z = uniforms.view(np.int64)
    remaining = np.full(count, y_total, dtype=np.int64)
    buf = np.empty((block, y_total + 1))
    tiles = range(0, count, ROW_TILE)

    def draw_tile(start: int, end: int, tables: dict[int, MassTable], a: int):
        rows = slice(a, a + ROW_TILE)
        rem = remaining[rows]
        for i in range(start, end):
            nxt = tables[i + 1]
            w = weights[i]
            cand = np.arange(w.lo, w.lo + len(w.vals), dtype=np.int64)
            idx = rem[:, None] - cand[None, :] - nxt.lo
            valid = (idx >= 0) & (idx < len(nxt.vals))
            mass = np.where(valid, np.take(nxt.vals, idx, mode="clip"), 0.0)
            mass *= w.vals[None, :]
            total = mass.sum(axis=1)
            if np.any(total <= 0.0):
                raise InfeasibilityError(
                    f"conditional mass of stratum {i} underflowed to zero; "
                    "no exact draw exists"
                )
            cdf = np.cumsum(mass, axis=1)
            target = uniforms[rows, i] * total
            pick = (cdf <= target[:, None]).sum(axis=1)
            draw = cand[np.minimum(pick, len(cand) - 1)]
            z[rows, i] = draw
            rem -= draw

    # an executor starts no thread until something is submitted to it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 and len(tiles) > 1 else map
        for start in range(0, size, block):
            end = min(start + block, size)
            tables = {end: checkpoints[end]}
            tables.update(
                suffix_tables(weights, tables[end], end, start + 1, y_total, out=buf)
            )
            list(run(partial(draw_tile, start, end, tables), tiles))
    if np.any(remaining != 0):
        raise InfeasibilityError("a draw failed to exhaust the invariant total")
    return z


def _hash_mixer(init: int, mult: int):
    """SeedSequence's hashmix with its running multiplier, on uint32 rows."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return out ^ (out >> np.uint32(16))


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, uint64), one row per replicate.

    entropy lists the uint32 words (as rows) in SeedSequence's order; the
    pool mix follows numpy.random.SeedSequence.mix_entropy word for word.
    """
    hashmix = _hash_mixer(0x43B0D7E5, 0x931E8875)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hash_mixer(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return [words[2 * j] | (words[2 * j + 1] << _U32) for j in range(4)]


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state * PCG64 multiplier + inc mod 2^128, on uint64 halves."""
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01 = a0 * _PCG_MULT_LO0, a0 * _PCG_MULT_LO1
    p10, p11 = a1 * _PCG_MULT_LO0, a1 * _PCG_MULT_LO1
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_uniforms(base_seed: int, first: int, out: np.ndarray) -> None:
    """Fill out[k] with default_rng(SeedSequence((base_seed, first + k))).random.

    The replicate indices must all lie below 2^32 or all at or above it,
    so that each has the same number of 32-bit words.
    """
    count, size = out.shape
    r = np.arange(count, dtype=np.uint64) + np.uint64(first)
    entropy = [np.full(count, w, dtype=np.uint32) for w in _uint32_words(base_seed)]
    entropy.append((r & _LOW32).astype(np.uint32))
    if first > _MASK32:
        entropy.append((r >> _U32).astype(np.uint32))
    s0, s1, s2, s3 = _seed_state(entropy)
    # pcg64_set_seed: inc = (s2:s3 << 1) | 1; state = (inc + s0:s1) * M + inc
    inc_hi = (s2 << np.uint64(1)) | (s3 >> np.uint64(63))
    inc_lo = (s3 << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s1
    hi, lo = _pcg64_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    for j in range(size):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then the 53-bit double of Generator.random
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, j] = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _chunk_uniforms(base_seed: int, first: int, count: int, size: int) -> np.ndarray:
    """Row k: the first size uniforms of replicate first + k's stream.

    Blocks of rows taller than they are wide compute the streams across
    rows, in tiles that never straddle 2^32 (where the index gains a
    word); wide ones seed one generator per row. Both give the same bits.
    """
    u = np.empty((count, size), dtype=np.float64)
    if count <= size:
        for offset in range(count):
            stream = np.random.default_rng(
                np.random.SeedSequence((base_seed, first + offset))
            )
            u[offset] = stream.random(size)
        return u
    a, end = first, first + count
    while a < end:
        b = min(end, a + ROW_TILE)
        if a <= _MASK32 < b - 1:
            b = _MASK32 + 1
        _pcg64_uniforms(base_seed, a, u[a - first:b - first])
        a = b
    return u


def sample_counts_matrix(
    table: StrataTable,
    calib: Calibration,
    *,
    count: int,
    base_seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Count-by-stratum matrix of exact mechanism draws.

    Row r is replicate r, drawn from the stream (base_seed, r). The
    truncation boxes are calib.bounds.
    """
    if table.size < 2:
        raise DomainError("synthesis needs at least two strata")
    if count < 0:
        raise DomainError("replicate count must be nonnegative")
    if base_seed < 0:
        raise DomainError("base_seed must be nonnegative")
    if threads < 1:
        raise DomainError("threads must be at least 1")
    params = build_kernel_params(table.y, table, calib)
    if count == 0:
        return np.empty((0, table.size), dtype=np.int64)
    block = max(1, int(np.ceil(np.sqrt(params.size))))
    checkpoints, weights, _ = backward_pass(params, block)
    uniforms = _chunk_uniforms(base_seed, 0, count, params.size)
    return _draw_chunk(params, checkpoints, weights, block, uniforms, threads)


def write_replicates_csv(
    path, table: StrataTable, matrix: np.ndarray, header_comment: str | None = None
) -> None:
    """Long-form CSV of a (replicates, strata) matrix: replicate, dims..., z.

    csv.writer renders one replicate's lines once, as a str.format template
    with the replicate index in field {0} and stratum i's count in {i+1};
    the file is then written in slices of about WRITE_ROWS lines, so the
    text never sits in memory whole.
    """
    import csv
    import io

    text = io.StringIO()
    writer = csv.writer(text)
    for i, key in enumerate(table.keys):
        escaped = [str(v).replace("{", "{{").replace("}", "}}") for v in key]
        writer.writerow(["{0}", *escaped, f"{{{i + 1}}}"])
    fmt = text.getvalue().format
    step = max(1, WRITE_ROWS // table.size)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        csv.writer(fh).writerow(["replicate", *table.dim_names, "z"])
        for first in range(0, len(matrix), step):
            rows = matrix[first:first + step].tolist()
            fh.write("".join(fmt(r, *z) for r, z in enumerate(rows, start=first)))


def read_replicates_csv(path, table: StrataTable) -> np.ndarray:
    """Load a long-form replicate CSV back into a (replicates, strata) matrix.

    Rows must cover every stratum of the table exactly once per replicate
    index. The indices must be exactly 0..R-1, as write_replicates_csv
    writes them, so row r of the matrix is replicate r; they may appear
    in any order.
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
    if order != list(range(len(order))):
        raise SchemaError(
            f"{path}: replicate indices must be 0..{len(order) - 1}, "
            f"got {order[:5]}{' ...' if len(order) > 5 else ''}"
        )
    return np.stack([per_rep[r] for r in order])

"""Synthetic count replicates drawn exactly from the mechanism law.

The target law is the product of per-stratum negative-binomial kernels
conditioned on the invariant total (and, in truncated mode, on the
per-stratum boxes). The gamma rates are integrated out in closed form, so
a draw never passes through a rate vector.

Tilt. Every kernel is first multiplied by theta^z, tau = log theta
chosen by mechanism.tilt so that the tilted means sum to the total
(Daniels 1954). On the slice sum(z) = y_total that multiplies every
weight by theta^y_total, so the law does not change, but the tables
below are centred on the total: a total whose untilted weight lies below
2^-1022 of the completion table's peak (truncated mode at alpha = 0.05 on
the published fixture) is drawn instead of refused.

Split. The strata are split, in input order, into a head and a tail
suffix (_tail_start): below SPLIT_MIN strata the head is empty; otherwise
the tail is the shortest suffix holding at least TAIL_SHARE of the summed
tilted variance. The split depends on the tilted kernels alone, never on
the replicate count, threads or tiles.

Head (_draw_head). Each replicate proposes the head's counts
independently from the tilted kernels, by inverse cdf, and accepts the
proposal h with probability T_s(y_total - sum(h)) / max T_s, T_s being
the tail's completion-mass table (0 outside its span); a rejected row
proposes again, with no limit on the rounds (rejective sampling, Hajek
1964). An accepted h has exactly the head's marginal law. At the
published shape a replicate needs about TAIL_SHARE^-1/2 ~ 3 proposals.
The proposals run vectorized over rows and head strata, in tiles of
about HEAD_CELLS (rows x head strata) cells, on the thread pool when a
first round fills more tiles than there are threads. The head reads the
kernel bank's flat arrays (mechanism.KernelBank); only tail strata get
MassTable views of it.

Tail (_draw_chunk). The tail strata are visited in input order and each
count is sampled from its exact conditional

    P(z_i = v | remaining total t) propto w_i(v) * T_{i+1}(t - v),

from the total the head left. mechanism.backward_pass builds T_I down to
T_s once per batch and keeps a checkpoint every ceil(sqrt(tail)) strata.
The draw then runs block by block: each block's tables are rebuilt once
from its checkpoint by the backward pass's own steps
(mechanism.suffix_tables), so its entries equal the backward pass's bit
for bit. Then the block's strata are drawn for every replicate in tiles
of ROW_TILE rows, on a thread pool when threads > 1 and there is more
than one tile; the tail's uniforms are read in the same tiles on the
same pool, and each worker writes every step's temporaries into one set
of tile buffers. A rebuild never depends on the rows, so tiles and
threads never change it. A draw step indexes the next table from one
shared arange of candidate offsets and counts the cdf entries at or
below the target, the uniform times the cdf's own last entry, with no
per-stratum candidate array.

Memory and work. A completion-mass table spans only the totals whose
weight is >= 2^-1022 of its peak, at most y_total + 1 of them. Table
memory is the tail's checkpoints plus one block of tables,
O(sqrt(tail) * span); convolution work is O(tail * span * box_width) in
the backward pass and as much again in the rebuilds, whatever the
replicate count. A head proposal costs O(head strata + summed head box
widths) per row, and a tile's temporaries O(HEAD_CELLS). Each draw
overwrites the uniform it consumed, and the head's counts go to the same
matrix, so a batch holds one (count x I) matrix.

Reproducibility contract (SAMPLER, which enters the synthesize config
hash). A batch reads numpy streams at offsets: stream j is PCG64 seeded
by SeedSequence((base_seed, j)), read through Generator.random, one
64-bit output per uniform. With w tail strata, replicate r's tail strata
consume uniforms r*w .. r*w + w - 1 of stream 0, one each, in order.
With h head strata, its proposal in round j = 1, 2, ... reads uniforms
r*(h + 1) .. r*(h + 1) + h of stream j: one per head stratum in input
order, then the acceptance uniform. A reader reaches its offset by
PCG64.advance, in O(log offset) steps (O'Neill 2014), so a replicate's
uniforms, and its value, never depend on batch size, row tiling, head
tiling or thread count.

The replicate CSV is written and read at array speed. write_replicates_csv
renders slices of lines with the text renderer of strata (_render):
csv.writer spells each distinct label of each dimension once
(_csv_layout), each stratum's ",key...," segment gathers those
spellings by the dimension's codes, and the replicate and count digits
are filled around it. The slices render side by side, on the calling
thread and threads - 1 workers, and are written in order.
read_replicates_csv decodes a file in exactly that layout in numpy and
proves each slice by rendering it again; a file in any other layout
goes to the row parser, which reads it through the table reader
(strata._read_table) to the same matrix and raises every SchemaError,
so the fast path never changes a result or a message.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from .calibration import Calibration
from .errors import DomainError, InfeasibilityError, SchemaError
from .mechanism import (
    KernelBank,
    KernelParams,
    MassTable,
    backward_pass,
    build_kernel_params,
    suffix_tables,
    tilt,
)
from .strata import (
    _PAD,
    StrataTable,
    _digits,
    _lay_out,
    _parse_digits,
    _parse_nonneg_int,
    _read_table,
    _render,
    _spellings,
)

__all__ = [
    "SAMPLER",
    "sample_counts_matrix",
    "write_replicates_csv",
    "read_replicates_csv",
]

# The version of the draw: how a replicate's values follow from its
# streams. It enters the synthesize config hash.
SAMPLER = "tilted-split-2"

# Rows per tile, for the draw's (rows x candidates) temporaries and the
# tail's uniforms; with threads, each worker holds one tile's
# temporaries. A row's value never depends on it.
ROW_TILE = 1 << 15

# Instances with fewer strata than SPLIT_MIN have no head: every stratum
# is drawn by the exact chain. Larger ones give the chain the shortest
# suffix of strata holding at least TAIL_SHARE of the summed tilted
# variance, and propose the strata before it independently; a replicate
# then needs about TAIL_SHARE^-1/2 proposals. On the published fixture
# (2 threads) a share of 0.10 was fastest at 20 and at 1,000 replicates,
# 0.05 and 0.15 taking about a quarter longer, and on smaller fixtures
# the split beat the chain from a few hundred strata on.
SPLIT_MIN = 256
TAIL_SHARE = 0.1

# Cells, rows times head strata, per tile of head proposals; it bounds
# their temporaries (at most 16 bytes a cell). A row's value never
# depends on it.
HEAD_CELLS = 1 << 19

# CSV lines rendered at once by write_replicates_csv, over all its threads.
# A worker thread keeps its own malloc heap, so what its slices allocate
# stays resident beside the caller's: with 200,000 lines on two workers,
# a published synthesize peaked at about 106 MB against 101 MB on one
# thread; with 100,000, the caller rendering one slice of each batch, at
# 97 MB.
WRITE_ROWS = 100_000

# Bytes of read_replicates_csv's buffer, doubled while a replicate is longer.
READ_BYTES = 1 << 21

_log = logging.getLogger(__name__)


def _draw_chunk(
    params: KernelParams,
    checkpoints: dict[int, MassTable],
    bank: KernelBank,
    block: int,
    uniforms: np.ndarray,
    run=map,
    start: int = 0,
    remaining: np.ndarray | None = None,
) -> np.ndarray:
    """Sequential conditional draws of strata start..I-1, written over the
    uniforms they consume.

    uniforms is a float64 array with one row per replicate and one column
    per stratum; row r's columns start..I-1 are consumed left to right,
    one value per stratum, starting from its remaining total (a column;
    y_total for every row when None). Blocks of strata from start are
    the outer loop: a block's tables are rebuilt once from its checkpoint
    (mechanism.suffix_tables), then each tile of ROW_TILE rows draws the
    block's strata, the tiles mapped through run (map, or a thread pool's
    map). The returned int64 matrix is a view of uniforms; columns before
    start are left as they are.
    """
    count, size = uniforms.shape
    z = uniforms.view(np.int64)
    if remaining is None:
        # a column, so each tile's (rows, 1) view broadcasts over candidates
        remaining = np.full((count, 1), params.y_total, dtype=np.int64)
    tiles = range(0, count, ROW_TILE)
    steps = np.arange(bank.width[start:].max(), dtype=np.int64)
    # each worker's idx, mass, cdf and flag buffers, allocated once, with
    # their (rows, m) views kept by shape; every step writes through out=.
    # A tile's temporaries allocated afresh at every step would be mapped
    # and returned to the system at every step.
    scratch = threading.local()

    def draw_tile(first: int, end: int, tables: dict[int, MassTable], a: int):
        rows = slice(a, a + ROW_TILE)
        rem = remaining[rows]
        n = len(rem)
        if not hasattr(scratch, "bufs"):
            cells = min(ROW_TILE, count) * len(steps)
            scratch.bufs = [
                np.empty(cells, dtype=t)
                for t in (np.int64, np.float64, np.float64, np.bool_)
            ]
            scratch.views = {}
        for i in range(first, end):
            nxt = tables[i + 1]
            w = bank[i]
            m = len(w.vals)
            views = scratch.views.get((n, m))
            if views is None:
                # below: flag's first cells again, contiguous, for m - 1 columns
                views = scratch.views[n, m] = [
                    b[:n * m].reshape(n, m) for b in scratch.bufs
                ] + [scratch.bufs[3][:n * (m - 1)].reshape(n, m - 1)]
            idx, mass, cdf, flag, below = views
            # idx[r, j]: where candidate w.lo + j leaves row r in nxt; an
            # index below 0 wraps to a huge unsigned one, so one compare
            # finds the indices inside nxt
            np.subtract(rem - (w.lo + nxt.lo), steps[:m], out=idx)
            nxt.vals.take(idx, mode="clip", out=mass)
            np.less(idx.view(np.uint64), len(nxt.vals), out=flag)
            mass *= flag
            mass *= w.vals
            # the total is the cdf's own last entry: a sum in another order
            # may exceed it, and a target near it would pick a top with no mass
            mass.cumsum(axis=1, out=cdf)
            total = cdf[:, -1:]
            if total.min() <= 0.0:
                raise InfeasibilityError(
                    f"conditional mass of stratum {i} underflowed to zero; "
                    "no exact draw exists"
                )
            # the cdf never decreases, so counting its first m - 1 entries
            # at or below the target gives min(pick, m - 1), pick being
            # the count over all m
            np.less_equal(cdf[:, :-1], uniforms[rows, i:i + 1] * total, out=below)
            draw = below.sum(axis=1, keepdims=True)
            draw += w.lo
            z[rows, i:i + 1] = draw
            rem -= draw

    for first in range(start, size, block):
        end = min(first + block, size)
        tables = {end: checkpoints[end]}
        tables.update(
            suffix_tables(bank, tables[end], end, first + 1, params.y_total)
        )
        list(run(partial(draw_tile, first, end, tables), tiles))
    if np.any(remaining != 0):
        raise InfeasibilityError("a draw failed to exhaust the invariant total")
    return z


def _stream(base_seed: int, j: int, at: int) -> np.random.Generator:
    """Stream j of base_seed, positioned at its uniform number at.

    PCG64 seeded by SeedSequence((base_seed, j)), read through
    Generator.random, which takes one 64-bit output per uniform, so
    advance(at) skips exactly at uniforms, in O(log at) steps.
    """
    bits = np.random.PCG64(np.random.SeedSequence((base_seed, j)))
    bits.advance(at)
    return np.random.Generator(bits)


def _plan(params: KernelParams) -> tuple[KernelParams, int, int, KernelBank]:
    """(tilted params, start, block, bank): the kernels tilted onto the
    total (mechanism.tilt), the tail's first stratum (_tail_start), the
    tail's checkpoint spacing, ceil(sqrt(tail strata)), and the tilted
    kernels' bank."""
    tau, var, bank = tilt(params)
    _log.debug("tilt %.6g", tau)
    start = _tail_start(var)
    block = max(1, int(np.ceil(np.sqrt(params.size - start))))
    return replace(params, log_p=params.log_p + tau), start, block, bank


def _tail_start(var: np.ndarray) -> int:
    """The first stratum of the tail, which the exact chain draws.

    0 (no head) below SPLIT_MIN strata or when no stratum varies;
    otherwise the start of the shortest suffix whose summed variance is
    at least TAIL_SHARE of all of it. var holds the tilted variances, so
    the split depends on the instance alone.
    """
    size = len(var)
    total = float(var.sum())
    if size < SPLIT_MIN or not total > 0.0:
        return 0
    suffix = np.cumsum(var[::-1])
    return size - 1 - int(np.searchsorted(suffix, TAIL_SHARE * total))


def _draw_head(
    bank: KernelBank,
    size: int,
    tail: MassTable,
    y_total: int,
    base_seed: int,
    z: np.ndarray,
    run=map,
) -> tuple[np.ndarray, int]:
    """Head counts by independent proposals accepted on the tail's mass.

    The head is the bank's (tilted) strata 0..size-1, and tail the
    completion-mass table T_s of the strata after them. Replicate r's
    proposal in round j >= 1 reads the size + 1 uniforms from
    r * (size + 1) on in stream j of base_seed (_stream): stratum i's
    count is its kernel's inverse cdf at the i-th, the cumulative sums
    running from the table's low end, and
    the proposal h is accepted when the last uniform is below
    tail.vals at y_total - sum(h), which is T_s(y_total - sum(h)) / max T_s
    (0 outside the table). An accepted h has the law of the head's counts
    under the conditioned product. Rejected rows propose again, with no
    limit on the rounds: a limit would bias the law. Rows go in tiles of
    about HEAD_CELLS cells mapped through run. Accepted counts are
    written to z's head columns; returns each row's remaining total (a
    column) and the number of proposals made.
    """
    lo, width, starts = bank.lo[:size], bank.width[:size], bank.start[:size]
    # the head sums a proposal can reach
    if (
        y_total - int((lo + width - 1).sum()) > tail.hi
        or y_total - int(lo.sum()) < tail.lo
    ):
        raise InfeasibilityError(
            "the completion mass of the tail strata misses every total the "
            "head strata can leave; no exact draw exists"
        )
    # strata with two or more entries, widest first; column k - 1 holds
    # the k-th cdf entry of those wider than k, a prefix of them, each
    # entry summed in np.cumsum's order, and total each one's last entry
    live = np.argsort(-width, kind="stable")
    live = live[width[live] > 1]
    wide, at = width[live], starts[live]
    cdf, total, columns = bank.vals[at], np.empty(len(live)), []
    for k in range(1, int(wide.max(initial=1))):
        n = np.count_nonzero(wide > k)
        columns.append(cdf[:n])
        cdf = cdf[:n] + bank.vals[at[:n] + k]
        done = np.count_nonzero(wide > k + 1)
        total[done:n] = cdf[done:]
    # where each head stratum's count sits among the live strata's; a
    # stratum of one entry reads the zero column after them
    place = np.full(size, len(live))
    place[live] = np.arange(len(live))
    pick_type = np.min_scalar_type(len(columns))
    least = y_total - int(lo.sum())
    remaining = np.empty((len(z), 1), dtype=np.int64)
    rows = max(1, HEAD_CELLS // (size + 1))

    def propose(j: int, reps: np.ndarray) -> np.ndarray:
        u = np.empty((len(reps), size + 1))
        for k, r in enumerate(reps.tolist()):
            _stream(base_seed, j, r * (size + 1)).random(out=u[k])
        accept = u[:, size].copy()
        # the inverse cdf: the count of cdf entries, but the last, at or
        # below the target
        target = np.take(u, live, axis=1)
        del u
        target *= total
        pick = np.zeros((len(reps), len(live) + 1), dtype=pick_type)
        for col in columns:
            n = len(col)
            pick[:, :n] += target[:, :n] >= col
        del target
        left = least - pick.sum(axis=1, dtype=np.int64)
        idx = left - tail.lo
        mass = tail.vals.take(idx, mode="clip")
        mass *= idx.view(np.uint64) < len(tail.vals)
        ok = accept < mass
        for r, row in zip(reps[ok], pick[ok]):
            np.add(lo, row.take(place), out=z[r, :size])
        remaining[reps[ok], 0] = left[ok]
        return reps[~ok]

    pending, proposals, j = np.arange(len(z)), 0, 0
    while len(pending):
        j += 1
        proposals += len(pending)
        tiles = [pending[a:a + rows] for a in range(0, len(pending), rows)]
        pending = np.concatenate(list(run(partial(propose, j), tiles)))
    return remaining, proposals


def sample_counts_matrix(
    table: StrataTable,
    calib: Calibration,
    *,
    count: int,
    base_seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Count-by-stratum matrix of exact mechanism draws.

    Row r is replicate r, drawn from its uniforms in stream 0 of base_seed
    and, when the instance has a head, in the proposal streams j >= 1;
    see the module docstring. The truncation boxes are calib.bounds.
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
    params, start, block, bank = _plan(params)
    checkpoints = backward_pass(params, bank, block, start)
    buf = np.empty((count, params.size), dtype=np.float64)
    # an executor starts no thread until something is submitted to it, and
    # a batch of one row tile has nothing to run beside it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 and count > ROW_TILE else map
        width = params.size - start

        def fill(a: int) -> None:
            b = min(a + ROW_TILE, count)
            buf[a:b, start:] = _stream(base_seed, 0, a * width).random((b - a, width))

        list(run(fill, range(0, count, ROW_TILE)))
        remaining, proposals = None, 0
        if start:
            # the head's tiles go to the pool only when a first round fills
            # more tiles than there are workers: a few tiles side by side
            # save little, and each worker keeps its own heap
            spread = threads > 1 and count * (start + 1) > threads * HEAD_CELLS
            remaining, proposals = _draw_head(
                bank, start, checkpoints[start], params.y_total,
                base_seed, buf.view(np.int64), pool.map if spread else map,
            )
        _log.debug(
            "head %d strata, tail %d, %d head proposals",
            start, params.size - start, proposals,
        )
        return _draw_chunk(
            params, checkpoints, bank, block, buf, run, start, remaining
        )


def _csv_layout(table: StrataTable) -> tuple[bytes, np.ndarray]:
    """The header line and each stratum's ",key...," segment, by csv.writer.

    Returns the header bytes and the UTF-8 segments as a (strata, width)
    uint8 array (strata._lay_out), with _PAD after each field. csv.writer
    writes one line ["0", label, "0"] per distinct label of each
    dimension and the field is cut from it, so quoting and escaping are
    its own; a stratum's segment gathers its labels' fields by
    StrataTable.column_codes.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["replicate", *table.dim_names, "z"])
    header = text.getvalue().encode()

    def field(label) -> str:
        text.seek(0)
        text.truncate()
        writer.writerow(["0", str(label), "0"])
        return text.getvalue()[2:-4]

    parts = [b","]
    for name in table.dim_names:
        labels, codes = table.column_codes(name)
        parts += [_spellings(map(field, labels))[codes], b","]
    return header, _lay_out((table.size,), parts)


def _replicate_lines(first: int, z: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The CSV lines of replicates first, first + 1, ... with counts z, as uint8.

    Line (r, i) is r's digits, stratum i's segment, z[r, i]'s digits and
    CRLF, rendered as one (rows, strata) layout (strata._render).
    """
    r_digits = _digits(np.arange(first, first + len(z), dtype=np.int64))
    return _render(z.shape, [r_digits[:, None], seg, _digits(z), b"\r\n"])


def write_replicates_csv(
    path,
    table: StrataTable,
    matrix: np.ndarray,
    header_comment: str | None = None,
    threads: int = 1,
) -> None:
    """Long-form CSV of a (replicates, strata) count matrix: replicate, dims..., z.

    The text is what csv.writer writes for one row [r, *key, z] per
    replicate and stratum, CRLF-terminated, under an optional
    "# header_comment" line. It is rendered in numpy (_replicate_lines),
    in slices of whole replicates, about WRITE_ROWS // threads lines each,
    and written in order. The slices go in batches of threads: the calling
    thread renders the first and threads - 1 workers the others, so
    about WRITE_ROWS lines sit in memory whatever the thread count, and
    the bytes never depend on it. Counts must be nonnegative integers.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "iu" or matrix.shape[1:] != (table.size,):
        raise DomainError(
            f"{matrix.dtype} matrix of shape {matrix.shape} is not an integer "
            "matrix with one column per stratum"
        )
    if threads < 1:
        raise DomainError("threads must be at least 1")
    header, seg = _csv_layout(table)
    step = max(1, WRITE_ROWS // threads // table.size)

    def render(first: int) -> np.ndarray:
        z = matrix[first:first + step].astype(np.int64, copy=False)
        if z.min() < 0:
            raise DomainError("replicate counts must be nonnegative")
        return _replicate_lines(first, z, seg)

    firsts = range(0, len(matrix), step)
    # no worker thread starts when threads is 1: nothing is submitted
    with open(path, "wb") as fh, ThreadPoolExecutor(max(1, threads - 1)) as pool:
        if header_comment:
            fh.write(f"# {header_comment}\n".encode())
        fh.write(header)
        for k in range(0, len(firsts), threads):
            rest = [pool.submit(render, first) for first in firsts[k + 1:k + threads]]
            fh.write(render(firsts[k]))
            while rest:  # popped, so no written slice outlives its write
                fh.write(rest.pop(0).result())


def read_replicates_csv(path, table: StrataTable) -> np.ndarray:
    """Load a long-form replicate CSV back into a (replicates, strata) matrix.

    Rows must cover every stratum of the table exactly once per replicate
    index. The indices must be exactly 0..R-1, as write_replicates_csv
    writes them, so row r of the matrix is replicate r; they may appear
    in any order. A file that is exactly write_replicates_csv's text is
    decoded in numpy (_read_written); any other goes through the row
    parser, which alone raises SchemaError, so a malformed file gets the
    same message either way.
    """
    matrix = _read_written(path, table)
    return _read_rows(path, table) if matrix is None else matrix


def _read_written(path, table: StrataTable) -> np.ndarray | None:
    """The matrix whose write_replicates_csv text the file is, or None.

    The file may start with one "#" comment line free of quotes and CR,
    then must hold the header and, in slices of whole replicates read into
    one buffer, lines that equal _replicate_lines of the counts read where
    that layout puts them, replicate 0 first, into a matrix sized from the
    file. Tables whose labels the row parser would not read back
    unchanged (not str, or changed by strip()) are left to it.
    """
    labels = {*table.dim_names, *itertools.chain.from_iterable(table.keys)}
    if not all(type(v) is str and v == v.strip() for v in labels):
        return None
    header, seg = _csv_layout(table)
    # a key may hold newlines: these are the ones that end a replicate's lines
    breaks = 1 + np.count_nonzero(seg == ord("\n"), axis=1)
    per_rep, line_ends = int(breaks.sum()), np.cumsum(breaks) - 1
    seg_width = np.count_nonzero(seg != _PAD, axis=1)
    first = 0
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.startswith(b"#"):
            fh.seek(0)
        elif not line.endswith(b"\n") or b'"' in line or b"\r" in line or (
                "\ufffd" in line.decode(errors="replace")):
            return None
        if fh.read(len(header)) != header:
            return None
        # a line holds at least one digit each for r and z, and CRLF
        rows = (os.fstat(fh.fileno()).st_size - fh.tell()) // (
            int(seg_width.sum()) + 4 * table.size)
        out = np.empty((rows, table.size), dtype=np.int64)
        chunk, have = np.empty(READ_BYTES, dtype=np.uint8), 0
        while True:
            if have == len(chunk):
                # doubling: a replicate longer than the buffer costs O(its length)
                chunk = np.concatenate((chunk, np.empty_like(chunk)))
            got = fh.readinto(chunk[have:])
            have += got
            breaks_at = np.flatnonzero(chunk[:have] == ord("\n"))
            reps = len(breaks_at) // per_rep
            if not reps:
                if got:
                    continue
                break
            if first + reps > rows:
                return None
            ends = breaks_at[:reps * per_rep].reshape(reps, per_rep)[:, line_ends]
            starts = np.concatenate(([0], ends.flat[:-1] + 1)).reshape(ends.shape)
            starts += np.array([len(str(r)) for r in range(first, first + reps)])[:, None]
            z = _parse_digits(chunk, (starts + seg_width).ravel(), ends.ravel() - 1)
            n = int(ends[-1, -1]) + 1
            if z is None or not np.array_equal(
                    _replicate_lines(first, z.reshape(reps, -1), seg), chunk[:n]):
                return None
            out[first:first + reps] = z.reshape(reps, -1)
            first += reps
            have -= n
            chunk[:have] = chunk[n:n + have]
    if have or not first:
        return None
    # rows past first were never written, so none of their pages is resident
    out.resize((first, table.size), refcheck=False)
    return out


def _read_rows(path, table: StrataTable) -> np.ndarray:
    """read_replicates_csv row by row; every SchemaError is raised here.

    The file is read as a table (strata._read_table) whose dimensions are
    replicate and the strata's and whose value is z; the replicate index
    and z are nonnegative integers below 2^63.
    """
    index = {key: i for i, key in enumerate(table.keys)}
    per_rep: dict[int, np.ndarray] = {}  # -1 marks a stratum not yet read
    rows = _read_table(path, ("z",), ("replicate", *table.dim_names))
    next(rows)
    for lineno, dims, (text,) in rows:
        rep = _parse_nonneg_int(dims[0], "replicate", path, lineno)
        z = _parse_nonneg_int(text, "count", path, lineno)
        key = dims[1:]
        pos = index.get(key)
        if pos is None:
            raise SchemaError(f"{path}:{lineno}: unknown stratum {key}")
        counts = per_rep.get(rep)
        if counts is None:
            counts = per_rep[rep] = np.full(table.size, -1, dtype=np.int64)
        if counts[pos] >= 0:
            raise SchemaError(
                f"{path}:{lineno}: duplicate stratum {key} in replicate {rep}"
            )
        counts[pos] = z
    if not per_rep:
        raise SchemaError(f"{path}: no replicate rows")
    for rep, counts in per_rep.items():
        if counts.min() < 0:
            raise SchemaError(f"{path}: replicate {rep} is missing strata")
    order = sorted(per_rep)
    if order != list(range(len(order))):
        raise SchemaError(
            f"{path}: replicate indices must be 0..{len(order) - 1}, "
            f"got {order[:5]}{' ...' if len(order) > 5 else ''}"
        )
    return np.stack([per_rep[r] for r in order])

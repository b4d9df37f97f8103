"""Data model for the strata universe, and the CSV dialect of pgsynth's tables.

A StrataTable holds the groups i = 1..I with populations n_i, observed
counts y_i, and the invariant total. Prior rates come from public
per-cell rates rescaled so expected counts match the invariant total
exactly; truncation bounds are Poisson quantile intervals around the
prior expected counts. All derived artifacts are immutable after
construction and safe to share across threads.

Input tables, each a header row then one row per key:
    strata:     dim_1,...,dim_k,population,count
    rates:      dim_a,...,dim_m,rate  (dimension subset, excludes geography)
    standard:   age_group,weight
    densities:  geo,density
Every table is written by write_csv (an optional "# comment" line, then
csv.writer rows) and read by _read_table: a blank record or one whose
first field starts with "#" is a comment wherever it stands, fields are
stripped, a leading byte-order mark dropped, and errors name the file
and line (a plain strata file is parsed in numpy instead, by
_read_strata_columns). So write_csv refuses a first field starting with
"#". read_floats refuses rates, weights and densities that are not
finite and nonnegative.

The two large artifacts, the replicate CSV and the calibration report,
are rendered as byte arrays (_render): fixed columns laid side by side,
each a constant, digits (_digits) or a table of spellings with one row
per distinct value gathered by index (_spellings), padded with a byte
that UTF-8 never holds and that is dropped at the end.
"""

from __future__ import annotations

import csv
import io
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .distributions import poisson_quantile_vec
from .errors import (
    DegeneratePriorError,
    DomainError,
    InfeasibilityError,
    SchemaError,
)

__all__ = [
    "StrataTable",
    "RatesTable",
    "PriorSpec",
    "TruncationBounds",
    "build_prior",
    "compute_bounds",
    "check_dominance",
    "joint_feasible_bounds",
    "read_floats",
    "write_csv",
]


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values as dtype, for a frozen dataclass field."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _check_dim_names(names, where: str = "") -> None:
    """Raise SchemaError on the first dimension name that repeats: a
    lookup by name would see only its first column."""
    for j, name in enumerate(names):
        if name in names[:j]:
            raise SchemaError(f"{where}dimension {name!r} is repeated")


@dataclass(frozen=True, eq=False)
class StrataTable:
    """The universe of groups with populations, observed counts and total.

    Invariants (validated on construction): y_total equals the sum of
    counts, at least two strata, populations and counts nonnegative and
    each summing to less than 2^63 (so int64 sums never wrap), keys and
    dimension names unique.
    """

    dim_names: tuple[str, ...]
    keys: tuple[tuple[str, ...], ...]
    n: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim_names", tuple(self.dim_names))
        _check_dim_names(self.dim_names)
        object.__setattr__(self, "keys", tuple(map(tuple, self.keys)))
        object.__setattr__(self, "n", _frozen(self.n, np.int64))
        object.__setattr__(self, "y", _frozen(self.y, np.int64))
        if len(self.keys) != len(self.n) or len(self.n) != len(self.y):
            raise SchemaError("keys, populations and counts must have equal length")
        if len(self.keys) < 2:
            raise DomainError("a strata table needs at least two strata")
        if set(map(len, self.keys)) != {len(self.dim_names)}:
            raise SchemaError("every key must have one label per dimension")
        if np.any(self.n < 0) or np.any(self.y < 0):
            raise DomainError("populations and counts must be nonnegative")
        for name, values in (("populations", self.n), ("counts", self.y)):
            # summed as Python ints: an int64 sum of values below 2^63 can wrap
            total = sum(values.tolist())
            if total >= 2**63:
                raise DomainError(f"{name} sum to {total}, which is 2^63 or more")
        if len(set(self.keys)) != len(self.keys):
            raise SchemaError("strata keys must be unique")

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def y_total(self) -> int:
        return int(self.y.sum())

    def dim_index(self, name: str) -> int:
        try:
            return self.dim_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown dimension {name!r}") from None

    def column(self, name: str) -> tuple[str, ...]:
        """All key labels along one dimension, in stratum order."""
        return tuple(map(itemgetter(self.dim_index(name)), self.keys))

    def column_codes(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Distinct labels along one dimension and each stratum's index into them.

        Labels come in order of first appearance. The result is computed
        once per table and dimension; the index array is read-only.
        """
        cache = self.__dict__.setdefault("_column_codes", {})
        if name not in cache:
            column = self.column(name)
            labels = tuple(dict.fromkeys(column))
            index = dict(zip(labels, range(len(labels))))
            codes = np.fromiter(
                map(index.__getitem__, column), dtype=np.int64, count=self.size
            )
            codes.flags.writeable = False
            cache[name] = (labels, codes)
        return cache[name]

    @classmethod
    def from_csv(cls, path) -> "StrataTable":
        """Read a strata CSV in numpy (_read_strata_columns, whose codes seed
        column_codes), or row by row, raising SchemaError with line numbers."""
        if (columns := _read_strata_columns(path)) is not None:
            table = cls(*columns[:4])
            table.__dict__["_column_codes"] = columns[4]
            return table
        rows = _read_table(path, STRATA_TRAILING)
        dim_names = next(rows)
        keys, n, y = [], [], []
        for lineno, dims, (population, count) in rows:
            keys.append(dims)
            n.append(_parse_nonneg_int(population, "population", path, lineno))
            y.append(_parse_nonneg_int(count, "count", path, lineno))
        return cls(dim_names=dim_names, keys=keys, n=n, y=y)

    def to_csv(self, path, header_comment: str | None = None) -> None:
        rows = zip(self.keys, self.n.tolist(), self.y.tolist())
        write_csv(path, [*self.dim_names, *STRATA_TRAILING],
                  ([*key, ni, yi] for key, ni, yi in rows), header_comment)


@dataclass(frozen=True, eq=False)
class RatesTable:
    """Public per-cell rates keyed by a subset of the strata dimensions."""

    dim_names: tuple[str, ...]
    rates: dict[tuple[str, ...], float]

    def __post_init__(self):
        object.__setattr__(self, "dim_names", tuple(self.dim_names))
        _check_dim_names(self.dim_names)
        object.__setattr__(
            self, "rates", {tuple(k): float(v) for k, v in self.rates.items()}
        )
        for key, rate in self.rates.items():
            if len(key) != len(self.dim_names):
                raise SchemaError("every rate key must have one label per dimension")
            if rate < 0.0 or not np.isfinite(rate):
                raise SchemaError(f"rate for {key} must be a finite nonnegative number")

    @classmethod
    def from_csv(cls, path) -> "RatesTable":
        return cls(*read_floats(path, "rate"))

    def to_csv(self, path, header_comment: str | None = None) -> None:
        write_csv(path, [*self.dim_names, "rate"],
                  ([*key, repr(self.rates[key])] for key in sorted(self.rates)),
                  header_comment)


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Per-stratum prior event rates.

    Specs from build_prior carry rescaled rates, so sum(n * lambda0)
    equals the invariant total exactly; a directly constructed spec may
    hold raw rates instead (rescale_factor 1). Rates carry no geographic
    signal when the source rate table excludes the geographic dimension.
    """

    lambda0: np.ndarray
    rescale_factor: float
    source: RatesTable | None

    def __post_init__(self):
        object.__setattr__(self, "lambda0", _frozen(self.lambda0, np.float64))

    def expected_counts(self, table: StrataTable) -> np.ndarray:
        return table.n.astype(np.float64) * self.lambda0


@dataclass(frozen=True, eq=False)
class TruncationBounds:
    """Per-stratum integer intervals [L_i, U_i] plus their tuning knobs."""

    L: np.ndarray
    U: np.ndarray
    alpha: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "L", _frozen(self.L, np.int64))
        object.__setattr__(self, "U", _frozen(self.U, np.int64))
        if self.L.shape != self.U.shape:
            raise DomainError("bound arrays must have matching shape")
        if np.any(self.L < 0) or np.any(self.L > self.U):
            raise DomainError("bounds must satisfy 0 <= L_i <= U_i")


@dataclass(frozen=True)
class DominanceReport:
    """Which strata carry at least as much prior expectation as all others
    combined. Computed from public prior expectations only, never from
    observed counts, so releasing it leaks nothing."""

    flagged: np.ndarray
    passed: bool


def build_prior(table: StrataTable, raw_rates: RatesTable) -> PriorSpec:
    """Attach rescaled public rates to every stratum.

    The rescale factor is y_total / sum(n_i * raw_i); it aligns the prior
    expected total with the invariant total exactly.

    Raises:
        SchemaError: a stratum's cell has no rate, or a rate dimension is
            missing from the table.
        DegeneratePriorError: the raw expected total is zero.
    """
    # one code per distinct cell, each looked up once, in table order
    cell = np.zeros(table.size, dtype=np.int64)
    for name in raw_rates.dim_names:
        labels, codes = table.column_codes(name)
        cell = np.unique(cell * len(labels) + codes, return_inverse=True)[1]
    _, first, cell = np.unique(cell, return_index=True, return_inverse=True)
    positions = [table.dim_index(name) for name in raw_rates.dim_names]
    rates = np.empty(len(first))
    for u in np.argsort(first).tolist():
        key = table.keys[first[u]]
        labels = tuple(key[j] for j in positions)
        if labels not in raw_rates.rates:
            raise SchemaError(f"no rate for cell {labels} (stratum {key})")
        rates[u] = raw_rates.rates[labels]
    raw = rates[cell]
    denom = float(np.dot(table.n.astype(np.float64), raw))
    if denom <= 0.0:
        raise DegeneratePriorError(
            "total prior expected count is zero; cannot rescale rates"
        )
    factor = table.y_total / denom
    return PriorSpec(lambda0=raw * factor, rescale_factor=factor, source=raw_rates)


def compute_bounds(
    prior: PriorSpec, table: StrataTable, alpha: float, c: float
) -> TruncationBounds:
    """Poisson-quantile truncation intervals around prior expected counts.

    L_i is the alpha/2 quantile of Poisson(E_i / c) and U_i the 1 - 2*alpha
    quantile of Poisson(c * E_i), where E_i = n_i * lambda0_i. The upper
    level is deliberately 1 - 2*alpha rather than 1 - alpha/2: this is the
    interval convention the released reference calibrations are pinned to
    (E = 15, alpha = 1e-4, c = 1 must give U = 30, which the symmetric
    level would miss by two). Both quantiles are capped at the invariant
    total: values above it have zero probability under the sum constraint,
    and leaving U_i larger would only loosen the privacy requirement
    spuriously.
    """
    if not 0.0 < alpha < 0.5:
        raise DomainError("alpha must lie in (0, 1/2)")
    if 1.0 - 2.0 * alpha == 1.0:
        raise DomainError(
            f"alpha {alpha!r} is too small: the upper level 1 - 2*alpha rounds to 1"
        )
    if not 1.0 <= c < np.inf:
        raise DomainError(f"c must be finite and at least 1, got {c}")
    expected = prior.expected_counts(table)
    total = table.y_total
    lower = poisson_quantile_vec(alpha / 2.0, expected / c, total)
    with np.errstate(over="ignore"):  # an infinite mean's quantile is the total
        upper = poisson_quantile_vec(1.0 - 2.0 * alpha, expected * c, total)
    # alpha close to 1/2 can invert the levels; keep the box well formed
    upper = np.maximum(upper, lower)
    return TruncationBounds(L=lower, U=upper, alpha=float(alpha), c=float(c))


def check_dominance(prior: PriorSpec, table: StrataTable) -> DominanceReport:
    """Flag strata whose prior expected count reaches the combined rest.

    Stratum i is flagged when E_i >= sum_{j != i} E_j. With exactly two
    strata at least one is always flagged; the two-group calibration
    handles that case through the exchange rule instead of refusing.
    """
    expected = prior.expected_counts(table)
    rest = expected.sum() - expected
    flagged = expected >= rest
    return DominanceReport(flagged=flagged, passed=not bool(flagged.any()))


def joint_feasible_bounds(bounds: TruncationBounds, y_total: int) -> TruncationBounds:
    """Tighten boxes to the values reachable under the sum constraint.

    Replaces each box with L'_i = max(L_i, y_total - sum_{j != i} U_j) and
    U'_i = min(U_i, y_total - sum_{j != i} L_j). The feasible set of count
    vectors is unchanged: any vector summing to y_total inside the original
    boxes already satisfies the tightened ones. With two groups this is the
    exchange rule, deriving each group's effective box from the other's
    reflected through the total.

    Raises:
        InfeasibilityError: no integer vector fits the boxes and the total.
    """
    sum_L = int(bounds.L.sum())
    sum_U = int(bounds.U.sum())
    if not sum_L <= y_total <= sum_U:
        raise InfeasibilityError(
            f"boxes admit totals in [{sum_L}, {sum_U}], not {y_total}"
        )
    lower = np.maximum(bounds.L, y_total - (sum_U - bounds.U))
    upper = np.minimum(bounds.U, y_total - (sum_L - bounds.L))
    if np.any(lower > upper):
        raise InfeasibilityError("joint feasibility reduction produced an empty box")
    return TruncationBounds(L=lower, U=upper, alpha=bounds.alpha, c=bounds.c)


STRATA_TRAILING = ("population", "count")
# _LOW_BYTES[b]: the mask of a little-endian word's first b bytes
_LOW_BYTES = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)


def _read_strata_columns(path):
    """(dim_names, keys, n, y, codes) of a plain, well-formed strata CSV, or
    None. Plain is UTF-8 with no quote, NUL or CR outside CRLF, which
    csv.reader splits at commas and line ends as the bytes are split
    here; codes maps each dimension to its StrataTable.column_codes."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # as spreadsheets write
    if b'"' in data or b"\0" in data or data.count(b"\r") != data.count(b"\r\n"):
        return None
    if "\ufffd" in data.decode(errors="replace"):  # not UTF-8, or U+FFFD
        return None
    # a last line end, then room for _label_codes' 8-byte words
    data += (b"" if data.endswith(b"\n") else b"\n") + bytes(8)
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))
    kept = np.flatnonzero((ends > starts) & (buf[starts] != ord("#")))
    if len(kept) < 2:
        return None
    header = [h.strip() for h in data[starts[kept[0]]:ends[kept[0]]].decode().split(",")]
    k = len(header) - len(STRATA_TRAILING)
    if k < 1 or tuple(header[k:]) != STRATA_TRAILING or len(set(header[:k])) < k:
        return None
    starts, ends = starts[kept[1:]], ends[kept[1:]]
    commas = np.flatnonzero(buf == ord(","))
    first = np.searchsorted(commas, starts)
    if np.any(np.searchsorted(commas, ends) - first != k + 1):
        return None
    # field j of each row spans cuts[:, j] + 1 .. cuts[:, j + 1]
    cuts = np.column_stack((starts - 1, commas[first[:, None] + np.arange(k + 1)], ends))
    n, y = (_parse_digits(buf, cuts[:, j] + 1, cuts[:, j + 1]) for j in (k, k + 1))
    if n is None or y is None:
        return None
    codes = {name: _label_codes(data, cuts[:, j] + 1, cuts[:, j + 1])
             for j, name in enumerate(header[:k])}
    columns = (np.array(labels, dtype=object)[c].tolist() for labels, c in codes.values())
    return tuple(header[:k]), list(zip(*columns)), n, y, codes


def _label_codes(data: bytes, starts: np.ndarray, ends: np.ndarray):
    """StrataTable.column_codes of the fields data[starts:ends], by np.unique over
    8-byte words (data runs 8 bytes past them); fields that strip alike share a code."""
    width = ends - starts
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    code = np.zeros(len(starts), dtype=np.uint64)
    for at in range(0, int(width.max()), 8):
        word = words[np.minimum(starts + at, len(words) - 1)]
        word &= _LOW_BYTES[np.clip(width - at, 0, 8)]
        if at:  # both codes lie below 2**32, so the pair packs into one word
            code = np.unique(code, return_inverse=True)[1].astype(np.uint64) << 32
            word = code | np.unique(word, return_inverse=True)[1].astype(np.uint64)
        code = word
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    index, merged = {}, np.empty(len(first), dtype=np.int64)
    for u in np.argsort(first).tolist():
        text = data[starts[first[u]]:ends[first[u]]].decode().strip()
        merged[u] = index.setdefault(text, len(index))
    codes = merged[inverse]
    codes.flags.writeable = False
    return tuple(index), codes


def _parse_digits(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The int64 values of the fields buf[starts:ends], or None unless each
    strips to 1-18 ASCII digits; fields not bare digits are decoded one by one."""
    width = ends - starts
    k = int(np.clip(width.max(), 1, 18))
    place = np.arange(k, 0, -1)[:, None]  # row j: the digit k - j from the end
    digits = buf.take(ends - place, mode="clip") - ord("0")
    digits[place > width] = 0
    values = _POW10[k - 1::-1] @ digits
    bare = (width >= 1) & (width <= 18) & (digits.max(axis=0) <= 9)
    for i in np.flatnonzero(~bare).tolist():
        text = buf[starts[i]:ends[i]].tobytes().decode(errors="replace").strip()
        if not (0 < len(text) <= 18 and text.isascii() and text.isdigit()):
            return None
        values[i] = int(text)
    return values


@contextmanager
def open_input(path):
    """path opened as UTF-8 text, line ends untranslated and a leading
    byte-order mark dropped; a byte that is not UTF-8 raises SchemaError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write a table in the dialect of the module docstring. A header or row
    whose first field starts with "#" raises SchemaError naming the label
    (the rows before it are written): it would read back as a comment."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        for row in itertools.chain([header], rows):
            if str(row[0]).startswith("#"):
                raise SchemaError(f"{path}: label {row[0]!r} would read as a comment")
            writer.writerow(row)


# 10^0 .. 10^18, the place values of an int64's decimal digits
_POW10 = 10 ** np.arange(19, dtype=np.int64)
# Padding in _render's layouts: a byte that UTF-8 text never holds
_PAD = 0xFF


def _digits(values: np.ndarray) -> np.ndarray:
    """Right-aligned ASCII decimal digits of a nonempty int64 array, all >= 0.

    The result has shape values.shape + (width,), width being the digit
    count of the largest value; each value's leading padding is _PAD.
    """
    width = len(str(values.max()))
    # place by place, by a scalar: numpy divides by an array much slower
    digits = np.empty((width, *values.shape), dtype=np.uint8)
    rest = values
    for k in range(width - 1, -1, -1):
        high = rest // 10
        np.subtract(rest, high * 10, out=digits[k], casting="unsafe")
        digits[k] += ord("0")
        if k < width - 1:
            digits[k][rest == 0] = _PAD
        rest = high
    return np.moveaxis(digits, 0, -1)


def _spellings(texts) -> np.ndarray:
    """Each text's UTF-8 bytes as one row of a uint8 array, padded on the
    right with _PAD; indexed by codes, it spells a column of _render."""
    encoded = [text.encode() for text in texts]
    width = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    mask = np.arange(width.max(initial=0)) < width[:, None]
    table = np.full(mask.shape, _PAD, dtype=np.uint8)
    table[mask] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return table


def _csv_layout(table: StrataTable) -> tuple[bytes, np.ndarray]:
    """The replicate CSV's header line and each stratum's ",key...," segment,
    by csv.writer.

    Returns the header bytes and the UTF-8 segments as a (strata, width)
    uint8 array (_lay_out), with _PAD after each field. csv.writer writes
    one line ["0", label, "0"] per distinct label of each dimension and
    the field is cut from it, so quoting and escaping are its own; a
    stratum's segment gathers its labels' fields by
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


def _lay_out(shape: tuple[int, ...], parts) -> np.ndarray:
    """The parts side by side, as a shape + (width,) uint8 array.

    A part is bytes, the same in every cell, or a uint8 array that
    broadcasts to shape + (its width,): a table of spellings gathered by
    codes (_spellings) or digits (_digits). Its _PAD bytes stay.
    """
    parts = [np.frombuffer(p, dtype=np.uint8) if isinstance(p, bytes) else p
             for p in parts]
    out = np.empty((*shape, sum(p.shape[-1] for p in parts)), dtype=np.uint8)
    at = 0
    for part in parts:
        out[..., at:at + part.shape[-1]] = part
        at += part.shape[-1]
    return out


def _render(shape: tuple[int, ...], parts) -> np.ndarray:
    """The text of _lay_out(shape, parts), cell after cell, as a flat uint8
    array: every field sits at a fixed column, then the _PAD bytes go."""
    out = _lay_out(shape, parts)
    return out[out != _PAD]


def _read_table(path, trailing: tuple[str, ...], dims: tuple[str, ...] | None = None):
    """Yield a table's dimension names, then (lineno, labels, values) per
    data row, as tuples of stripped fields, reading the file as it goes.

    The header must be dims (any, if None) followed by trailing. lineno
    is the record's first line: a quoted field may span several.
    """
    with open_input(path) as fh:
        header = None
        reader = csv.reader(fh)
        next_line = 1
        for record in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = tuple(map(str.strip, record))
                k = len(header) - len(trailing)
                if k < 1 or header[k:] != trailing or dims not in (None, header[:k]):
                    want = ",".join((*(dims or ("...",)), *trailing))
                    raise SchemaError(f"{path}:{lineno}: expected header {want}")
                _check_dim_names(header[:k], f"{path}:{lineno}: ")
                yield header[:k]
                continue
            if len(record) != len(header):
                raise SchemaError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(record)}"
                )
            fields = tuple(map(str.strip, record))
            yield lineno, fields[:k], fields[k:]
        if header is None:
            raise SchemaError(f"{path}: empty file, expected a header row")


def read_floats(path, column: str, dims: tuple[str, ...] | None = None):
    """(dim_names, {labels: number}) of a table of labels then one number
    column. A repeated key, or a number that is not finite and
    nonnegative, raises SchemaError naming the line."""
    rows = _read_table(path, (column,), dims)
    dim_names = next(rows)
    values: dict[tuple[str, ...], float] = {}
    for lineno, key, (text,) in rows:
        if key in values:
            raise SchemaError(f"{path}:{lineno}: duplicate key {key}")
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not 0.0 <= value < np.inf:
            raise SchemaError(
                f"{path}:{lineno}: {column} {text!r} is not a finite nonnegative number"
            )
        values[key] = value
    return dim_names, values


def _parse_nonneg_int(text: str, what: str, path, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: {what} {text!r} is not an integer") from None
    if value < 0:
        raise SchemaError(f"{path}:{lineno}: {what} must be nonnegative")
    if value >= 2**63:
        raise SchemaError(f"{path}:{lineno}: {what} {text!r} is 2^63 or more")
    return value

"""Hyperparameter calibration for the privacy mechanism.

Finds the smallest releasable gamma hyperparameters (a_i, b_i) meeting
the epsilon requirement, holding each prior mean fixed at a_i / b_i =
lambda0_i. Two requirement forms exist:

    untruncated:  a_i >= y_total / (e^eps / nu_i - 1)
    truncated:    a_i >= (U_i - L_i) / (e^eps / nu_i - 1) - 2 * L_i

with the per-stratum inflation factors

    untruncated:  nu_i = (y_total * s_i + a_(i) + y_total - 1) / (a_(i) + y_total - 1)
    truncated:    nu_i = (2(y_total - L_i) + a_(i) - 1)
                         / ((y_total - U_i) + (y_total - L_i) + a_(i) - 1)

where s_i charges the shortfall of the success ratio r_i (see _r_factor):
the indicator [r_i < 1], or (1 - r_i)^+ with exactly two strata. Both
forms couple the strata through the aggregate a_(i) = sum_{j != i} a_j,
so the solution is a fixed point computed by damped Jacobi sweeps. The
solved report (a, b, L, U, epsilon, alpha, c, mode) is releasable by
design: it is a function of public quantities only.

When every stratum shares one rate-to-prior ratio the untruncated
requirement is exactly sufficient for any number of strata (the joint
ratio telescopes). Away from that case the closed form is a design rule,
not a theorem, and it can exceed the budget even with rates close
together: the demo instance (n = (1000, 5000), prior rates 0.015 and
0.017, 13 percent apart) audits above epsilon untruncated for epsilon = 0.3,
0.5 and 0.8 (0.3109, 0.5330 and 0.8205). Strata whose expected counts
differ tenfold or more can exceed it in either mode: at n = (50, 60, 70,
80, 90), expected counts in proportion to (1, 2, 4, 8, 10), y_total = 30
and epsilon = 1, audit reports 1.0378 truncated (alpha = 0.05, c = 1)
and 1.2009 untruncated. Verify such calibrations with the exhaustive
audit when the instance is small enough to enumerate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError, DominanceError
from .strata import (
    PriorSpec,
    StrataTable,
    TruncationBounds,
    _frozen,
    _render,
    _spellings,
    check_dominance,
    joint_feasible_bounds,
)

__all__ = [
    "MODE_UNTRUNCATED",
    "MODE_TRUNCATED",
    "Calibration",
    "exp_epsilon",
    "solve_hyperparameters",
    "write_report",
]

MODE_UNTRUNCATED = "untruncated"
MODE_TRUNCATED = "truncated"

A_FLOOR = 1e-3
CONVERGENCE_TOL = 1e-10
SLACK_TOL = 1e-9
MAX_SWEEPS = 10**5
TINY_RATE = "a prior rate is too small for b = a / lambda0 to be finite"

# Strata entries per write in write_report.
REPORT_ROWS = 10_000


@dataclass(frozen=True, eq=False)
class Calibration:
    """A solved, releasable mechanism description.

    Fields:
        mode: untruncated or truncated.
        epsilon: privacy budget.
        a, b: gamma shape and rate vectors, b = a / lambda0 for the prior
            rates lambda0 the means are pinned to.
        bounds: truncation boxes (truncated mode only). With two strata
            these are the exchange-rule boxes: each group's interval
            intersected with the other's reflected through the total, which
            leaves the feasible set of synthetic vectors unchanged.
        slack: margin by which each stratum's requirement holds at the
            solution (nonnegative for a valid calibration).
        exchange_rule_applied: True when the two-group reduction was used.
    """

    mode: str
    epsilon: float
    a: np.ndarray
    b: np.ndarray
    slack: np.ndarray
    converged: bool
    iterations: int
    bounds: TruncationBounds | None = None
    exchange_rule_applied: bool = False

    def __post_init__(self):
        for name in ("a", "b", "slack"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.float64))
        # the mechanism reads truncation off bounds alone, so mode must agree
        if (self.mode == MODE_TRUNCATED) != (self.bounds is not None):
            raise DomainError("exactly the truncated mode carries bounds")


def _r_factor(a: np.ndarray, expected: np.ndarray, n: np.ndarray) -> np.ndarray:
    """r_i = (b_(i)/n_(i) + 2) / (b_i/n_i + 2) with b_i = a_i * n_i / E_i.

    b_i / n_i reduces to a_i / E_i; the aggregate uses the summed b and n.
    """
    if np.any(n <= 0):
        raise DomainError("every stratum needs a positive population")
    b = a * n / expected
    b_rest = b.sum() - b
    n_rest = n.sum() - n
    if np.any(n_rest <= 0):
        raise DomainError("aggregate population must be positive for every stratum")
    r = (b_rest / n_rest + 2.0) / (a / expected + 2.0)
    # Exactly homogeneous instances land at r = 1 +- summation dust; the
    # indicator used for three or more strata is discontinuous there, and
    # dust whose sign flips between sweeps stalls the solver. Treat wobble
    # below 1e-12 as equality: the requirement is tight and continuous at
    # r = 1, so the absorbed log-ratio error is at most ~y_total * 1e-12,
    # far inside the audit tolerance at any enumerable scale.
    r[np.abs(r - 1.0) < 1e-12] = 1.0
    return r


def _required_untruncated(
    a: np.ndarray, expected: np.ndarray, n: np.ndarray, y_total: int, exp_eps: float
) -> np.ndarray:
    # Two strata scale the shortfall by (1 - r)^+; with more strata the full
    # shortfall is charged whenever r < 1. The scaled form is tighter for a
    # pair but exhaustive ratio audits show it under-protects beyond that.
    r = _r_factor(a, expected, n)
    a_rest = a.sum() - a
    denom = a_rest + y_total - 1.0
    if np.any(denom <= 0.0):
        raise CalibrationError("nu denominator nonpositive; instance too small")
    if len(a) == 2:
        shortfall = np.maximum(1.0 - r, 0.0)
    else:
        shortfall = (r < 1.0).astype(np.float64)
    nu = (y_total * shortfall + denom) / denom
    growth = exp_eps / nu - 1.0
    req = np.full_like(a, np.inf)
    ok = growth > 0.0
    req[ok] = y_total / growth[ok]
    return req


def _required_truncated(
    a: np.ndarray, L: np.ndarray, U: np.ndarray, y_total: int, exp_eps: float
) -> np.ndarray:
    a_rest = a.sum() - a
    width = U - L
    num = 2.0 * (y_total - L) + a_rest - 1.0
    den = (y_total - U) + (y_total - L) + a_rest - 1.0
    # A point box (L = U) pins the stratum outright; its own requirement is
    # vacuous and the formula reduces to nu = 1, so skip the den sign check.
    if np.any((den <= 0.0) & (width > 0)):
        raise CalibrationError("truncated nu denominator nonpositive")
    nu = np.where(width > 0, num / np.where(den != 0.0, den, 1.0), 1.0)
    growth = exp_eps / nu - 1.0
    req = np.full_like(a, np.inf)
    ok = growth > 0.0
    req[ok] = width[ok] / growth[ok] - 2.0 * L[ok]
    return req


def exp_epsilon(epsilon: float) -> float:
    """e^epsilon, refusing an epsilon not positive and finite or whose
    e^epsilon rounds to 1 (no e^eps / nu - 1 is then ever positive). A huge
    epsilon's e^epsilon is inf, which asks no prior weight of any stratum."""
    if not 0.0 < epsilon < np.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    with np.errstate(over="ignore"):
        exp_eps = np.exp(epsilon)
    if exp_eps == 1.0:
        raise DomainError(f"epsilon {epsilon} is too small: e^epsilon rounds to 1")
    return exp_eps


def solve_hyperparameters(
    table: StrataTable,
    prior: PriorSpec,
    epsilon: float,
    mode: str,
    bounds: TruncationBounds | None = None,
) -> Calibration:
    """Solve the coupled per-stratum requirements to a fixed point.

    Jacobi-style sweeps: every stratum's requirement is evaluated from the
    previous iterate, then a_i = max(required_i, A_FLOOR). A damping factor
    of 0.5 is applied to strata whose update direction oscillates.
    Convergence means the largest relative change in a sweep fell below
    CONVERGENCE_TOL within MAX_SWEEPS sweeps; the final vector is then
    re-verified against all requirements and must hold with slack >= -1e-9.

    Truncated mode needs bounds and, for three or more strata, a passing
    dominance report. With exactly two strata dominance necessarily fails,
    so the boxes are first reduced to their joint-feasible form (the
    exchange rule) and the reduced boxes are used both here and by the
    mechanism; the result is flagged.

    Raises:
        DomainError: bad epsilon (exp_epsilon), missing bounds, a prior
            rate that is zero, subnormal or too small for a finite b.
        DominanceError: a stratum dominates (three or more strata).
        CalibrationError: no convergence within the sweep cap, or the
            re-verification failed.
    """
    exp_eps = exp_epsilon(epsilon)
    if mode not in (MODE_UNTRUNCATED, MODE_TRUNCATED):
        raise DomainError(f"unknown calibration mode {mode!r}")
    if table.y_total < 1:
        raise DomainError("calibration needs at least one observed event")
    lambda0 = prior.lambda0
    # a subnormal rate's expected count loses its bits, and a / E overflows
    if np.any(lambda0 < np.finfo(np.float64).tiny):
        raise DomainError(
            "every stratum needs a normal (2^-1022 or more) prior rate "
            "to carry a proper gamma prior"
        )
    # untruncated, nu >= 1 makes every a_i at least y_total / (e^eps - 1),
    # so a b_i = a_i / lambda0_i past float64's range shows before any sweep
    if mode == MODE_UNTRUNCATED:
        with np.errstate(over="ignore"):
            least_b = table.y_total / (exp_eps - 1.0) / lambda0
        if not np.isfinite(least_b).all():
            raise DomainError(TINY_RATE)
    expected = prior.expected_counts(table)
    y_total = table.y_total
    n = table.n.astype(np.float64)
    size = table.size
    exchange = False

    if mode == MODE_TRUNCATED:
        if bounds is None:
            raise DomainError("truncated calibration requires truncation bounds")
        if len(bounds.L) != size:
            raise DomainError("bounds and table sizes differ")
        if np.any(bounds.U > y_total):
            raise DomainError("upper bounds must not exceed the invariant total")
        if size == 2:
            bounds = joint_feasible_bounds(bounds, y_total)
            exchange = True
        else:
            report = check_dominance(prior, table)
            if not report.passed:
                flagged = np.flatnonzero(report.flagged)
                raise DominanceError(
                    f"strata {flagged.tolist()} dominate the combined rest; "
                    "the truncated requirement does not apply"
                )
            joint_feasible_bounds(bounds, y_total)  # feasibility gate only
        L = bounds.L.astype(np.float64)
        U = bounds.U.astype(np.float64)

    # Data-independent start: prior expected counts as the shape guess.
    a = expected.copy()

    def required(vec: np.ndarray) -> np.ndarray:
        if mode == MODE_UNTRUNCATED:
            return _required_untruncated(vec, expected, n, y_total, exp_eps)
        return _required_truncated(vec, L, U, y_total, exp_eps)

    prev_delta = np.zeros(size)
    for sweeps in range(1, MAX_SWEEPS + 1):
        req = required(a)
        proposal = np.maximum(req, A_FLOOR)
        # An infeasible requirement at this iterate (e^eps <= nu) means the
        # aggregate shapes are still too small; grow and retry.
        infeasible = ~np.isfinite(proposal)
        proposal[infeasible] = np.maximum(2.0 * a[infeasible], 1.0)
        delta = proposal - a
        oscillating = (delta * prev_delta) < 0.0
        proposal[oscillating] = 0.5 * (proposal[oscillating] + a[oscillating])
        delta = proposal - a
        rel = np.max(np.abs(delta) / np.maximum(np.abs(a), 1e-300))
        a = proposal
        prev_delta = delta
        if rel < CONVERGENCE_TOL:
            break
    else:
        resid = float(np.max(np.abs(a - required(a))))
        raise CalibrationError(
            f"no fixed point within {MAX_SWEEPS} sweeps (residual {resid:.3e})",
            residual=resid,
        )

    # The relative stopping rule can leave absolute slack a shade negative.
    # Raising any a_i only relaxes the other strata's requirements, so a few
    # raise-only sweeps settle every slack nonnegative.
    for _ in range(50):
        req = required(a)
        slack = a - req
        if not np.any(slack < 0.0):
            break
        a = np.maximum(a, np.where(np.isfinite(req), req, a))
    req = required(a)
    slack = a - req
    if np.any(slack < -SLACK_TOL):
        worst = float(slack.min())
        raise CalibrationError(
            f"solved vector violates a requirement (worst slack {worst:.3e})",
            residual=worst,
        )

    with np.errstate(over="ignore"):
        b = a / lambda0
    if not np.isfinite(b).all():
        raise DomainError(TINY_RATE)
    return Calibration(
        mode=mode,
        epsilon=float(epsilon),
        a=a,
        b=b,
        slack=slack,
        converged=True,
        iterations=sweeps,
        bounds=bounds if mode == MODE_TRUNCATED else None,
        exchange_rule_applied=exchange,
    )


def _json_spellings(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, codes): json's spelling of each distinct bit pattern of a
    float64 or int64 array (strata._spellings), and each entry's row. Bit
    patterns, not values, so 0.0 and -0.0 keep their own spellings."""
    bits, codes = np.unique(values.view(np.int64), return_inverse=True)
    return _spellings(map(json.dumps, bits.view(values.dtype).tolist())), codes


def write_report(calib: Calibration, table: StrataTable, path, extra: dict | None = None) -> None:
    """The releasable report, updated with extra, as indented JSON.

    The file is json.dump(doc, fh, indent=2) followed by a newline, doc
    holding one entry per stratum: its key, a, b, L, U and slack. The json
    module writes everything but those entries; they,
    most of the file, are rendered in numpy (strata._render), REPORT_ROWS
    entries at a time. Each column of an entry gathers json's spelling of
    its value, made once per distinct label of a dimension
    (StrataTable.column_codes) and once per distinct number
    (_json_spellings).
    """
    bounds = calib.bounds
    placeholder: list = []
    doc = {
        "mode": calib.mode,
        "epsilon": calib.epsilon,
        "alpha": None if bounds is None else bounds.alpha,
        "c": None if bounds is None else bounds.c,
        "strata": placeholder,
        "converged": calib.converged,
        "iterations": calib.iterations,
        "exchange_rule_applied": calib.exchange_rule_applied,
    }
    if extra:
        doc.update(extra)
    text = json.dumps(doc, indent=2)
    with open(path, "wb") as fh:
        if doc["strata"] is not placeholder:  # extra replaced the entries
            fh.write(f"{text}\n".encode())
            return
        # the top-level key, alone at two spaces of indent
        head, tail = text.split('\n  "strata": []', 1)
        fh.write(f'{head}\n  "strata": [\n'.encode())
        columns = [
            (_spellings(map(json.dumps, labels)), codes)
            for labels, codes in map(table.column_codes, table.dim_names)
        ]
        if bounds is None:
            boxes = [(_spellings(["null"]), np.zeros(table.size, dtype=np.int64))] * 2
        else:
            boxes = [_json_spellings(bounds.L), _json_spellings(bounds.U)]
        columns += [
            _json_spellings(calib.a), _json_spellings(calib.b), *boxes,
            _json_spellings(calib.slack),
        ]
        # what comes before each column; every entry starts with the
        # separator, which the first one drops
        before = [
            ',\n    {\n      "key": [\n        ',
            *[",\n        "] * (len(table.dim_names) - 1),
            '\n      ],\n      "a": ', ',\n      "b": ', ',\n      "L": ',
            ',\n      "U": ', ',\n      "slack": ',
        ]
        for start in range(0, table.size, REPORT_ROWS):
            end = min(start + REPORT_ROWS, table.size)
            parts = []
            for gap, (spelled, codes) in zip(before, columns):
                parts += [gap.encode(), spelled[codes[start:end]]]
            entries = _render((end - start,), [*parts, b"\n    }"])
            fh.write(entries[2:] if start == 0 else entries)
        fh.write(f"\n  ]{tail}\n".encode())

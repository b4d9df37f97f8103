"""Shared fixtures plus a terminal summary for the acceptance criteria."""

from __future__ import annotations

import numpy as np
import pytest

from pgsynth.fixtures import demo_rates, demo_table
from pgsynth.strata import PriorSpec, StrataTable, build_prior


@pytest.fixture
def demo():
    """Walkthrough instance: groups (a, b), n=(1000, 5000), y=(10, 90)."""
    table = demo_table()
    prior = build_prior(table, demo_rates())
    return table, prior


@pytest.fixture
def tiny3():
    """Heterogeneous three-stratum instance, y_total=6, enumerable."""
    table = StrataTable(
        dim_names=("g",),
        keys=(("x",), ("y",), ("z",)),
        n=np.array([40, 160, 90]),
        y=np.array([1, 3, 2]),
    )
    w = np.array([2.0, 3.0, 4.0]) / 9.0
    lam = w * table.y_total / table.n
    prior = PriorSpec(lambda0=lam)
    return table, prior


# ---- acceptance criteria summary -------------------------------------------

_ACCEPTANCE: dict[str, object] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = report
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[name] = report  # errors and skips surface too


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        report = _ACCEPTANCE[name]
        verdict = report.outcome.upper()
        detail = ""
        caplines = [
            line
            for section, text in getattr(report, "sections", [])
            if "stdout" in section
            for line in text.splitlines()
            if line.startswith("[criterion")
        ]
        if caplines:
            detail = " " + caplines[-1]
        tr.write_line(f"{name}: {verdict}{detail}")

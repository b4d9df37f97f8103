"""Every public name serves a pipeline stage or a named outside caller.

A name in a pgsynth module's __all__ must be used by another module of
the package (re-exports in __init__ do not count), or be listed in
ENTRY_POINTS with the caller it serves. Test-only helpers belong in
tests/_oracles.py, not in the package, and the oracles there import no
private package name.
"""

import ast
from pathlib import Path

import pgsynth

SRC = Path(pgsynth.__file__).parent

# Public names no other module uses, each with the outside caller it serves.
ENTRY_POINTS = {
    "calibration_report": "package export: the releasable report that write_report saves",
    "exact_joint_pmf": "README library; perfbench recomputes audit ratios with it",
    "demo_table": "perfbench writes the demo instance with it",
    "demo_rates": "perfbench writes the demo instance with it",
    "enumerate_feasible": "perfbench times it as a layer (its tracer wraps __all__)",
    "convolve_mass": "perfbench times it as a layer (its tracer wraps __all__)",
    "stratum_weight_table": "perfbench times it as a layer (its tracer wraps __all__)",
    "AuditReport": "returned by audit",
    "NeighborPair": "AuditReport.argmax_pair",
    "RatioCurve": "returned by ratio_curve",
    "DisparityEstimate": "returned by disparity_ratio",
    "Fixture": "returned by generate_fixture",
}


def _exports(tree) -> list[str]:
    """__all__, or else every top-level public class and function."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and not node.name.startswith("_")
    ]


def _used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _modules() -> dict[str, ast.Module]:
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
        if p.stem != "__init__"
    }


def test_every_public_name_has_a_caller():
    modules = _modules()
    used = {name: _used_names(tree) for name, tree in modules.items()}
    orphans = [
        f"{mod}.{name}"
        for mod, tree in modules.items()
        for name in _exports(tree)
        if name not in ENTRY_POINTS
        and not any(name in names for other, names in used.items() if other != mod)
    ]
    assert not orphans, f"public names no stage calls: {orphans}"


def test_entry_points_and_reexports_are_module_exports():
    exported = {n for tree in _modules().values() for n in _exports(tree)}
    assert set(ENTRY_POINTS) <= exported
    assert set(pgsynth.__all__) - {"__version__"} <= exported


def test_oracles_import_no_private_package_names():
    # an oracle that borrows the package's internals checks them against
    # themselves
    tree = ast.parse(
        (Path(__file__).parent / "_oracles.py").read_text(encoding="utf-8")
    )
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "pgsynth"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"tests/_oracles.py imports package internals: {private}"

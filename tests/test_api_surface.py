"""Every public name serves a pipeline stage or a named outside caller.

A name in a pgsynth module's __all__ must be used by another module of
the package (re-exports in __init__ do not count), or be listed in
ENTRY_POINTS with the caller it serves. Test-only helpers belong in
tests/_oracles.py, not in the package, and the oracles there import no
private package name.
"""

import ast
import inspect
from pathlib import Path

import pgsynth

SRC = Path(pgsynth.__file__).parent

# Public names no other module uses, each with the outside caller it serves.
ENTRY_POINTS = {
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


def test_no_export_shadows_a_submodule():
    # `import pgsynth.audit as m` binds pgsynth's attribute `audit`; a
    # re-exported function of that name would hide the module
    import pgsynth.audit as audit_module

    assert inspect.ismodule(audit_module)
    submodules = {p.stem for p in SRC.glob("*.py")}
    assert all(
        inspect.ismodule(getattr(pgsynth, name))
        for name in submodules & set(vars(pgsynth))
    )


def test_only_strata_speaks_the_table_dialect():
    # strata.py decides how every table is written and read, the replicate
    # lines' key segments included (_csv_layout); no other module imports
    # csv or calls its reader or writer
    calls, importers = set(), set()
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                importers.add(mod)
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                importers.add(mod)
            elif isinstance(node, ast.FunctionDef):
                calls |= {
                    (mod, node.name) for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("reader", "writer")
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "csv"
                }
    assert importers == {"strata"}
    assert {
        ("strata", "write_csv"), ("strata", "_read_table"), ("strata", "_csv_layout")
    } <= calls
    assert {c for c in calls if c[0] != "strata"} == set()


def test_only_mechanism_runs_the_recursion_step():
    # convolve_mass is a step of the one mass-table recursion loop: audit
    # and synthesizer reach completion tables through suffix_tables or
    # backward_pass, and no module names the step itself
    named, loops = set(), set()
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if isinstance(node, ast.alias):
                name = node.name
            if name == "convolve_mass":
                named.add(mod)
            elif name in ("suffix_tables", "backward_pass") and mod != "mechanism":
                loops.add(mod)
    assert named == {"mechanism"}
    assert loops == {"audit", "synthesizer"}


def test_no_module_imports_scipy():
    # scipy is a test oracle only; the pipeline's special functions are
    # distributions' own numpy code
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.stem)
    assert not importers, f"modules importing scipy: {sorted(importers)}"


def test_no_module_keeps_per_thread_state():
    # a worker's state outlives its task: buffers kept per thread are
    # memory no measurement of one call shows
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "local" and (
                isinstance(node.value, ast.Name) and node.value.id == "threading"
            ):
                users.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "threading" and any(
                alias.name == "local" for alias in node.names
            ):
                users.add(path.stem)
    assert not users, f"modules using threading.local: {sorted(users)}"

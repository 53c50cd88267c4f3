"""Self-checks must survive ``python -O``, which strips ``assert`` statements.

The package and its scripts raise explicitly wherever they check themselves;
these tests keep it that way and run the whole release gate under ``-O``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import xtrees

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements():
    sources = sorted((ROOT / "src" / "xtrees").glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py"))
    assert any(path.parent.name == "scripts" for path in sources)
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_no_isinstance_int_checks():
    """isinstance(x, int) accepts a bool; integer arguments go through
    order._check_int, which rejects it."""
    sources = sorted((ROOT / "src" / "xtrees").glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(getattr(t, "id", None) == "int"
                for t in (node.args[1].elts if isinstance(node.args[1], ast.Tuple)
                          else [node.args[1]]))
    ]
    assert not found, f"isinstance int checks let bools through: {found}"


# the file-format names of the two orders, their Embedding/Verdict names and
# their graph classes; order.py alone says which belong together
_ORDER_VOCABULARIES = (
    frozenset({"ordered", "cg"}),
    frozenset({"linear", "cyclic"}),
    frozenset({"OrderedGraph", "CgGraph"}),
)


def _vocabulary(node):
    """Index of the vocabulary that a dict key or value names, or None."""
    word = node.value if isinstance(node, ast.Constant) else getattr(node, "id", None)
    return next((i for i, v in enumerate(_ORDER_VOCABULARIES) if word in v), None)


def test_one_table_of_order_names():
    sources = sorted((ROOT / "src" / "xtrees").glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        if path.name != "order.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Dict)
        and any(
            _vocabulary(k) is not None and _vocabulary(v) not in (None, _vocabulary(k))
            for k, v in zip(node.keys, node.values)
        )
    ]
    assert not found, f"dict literals that map one order vocabulary to another: {found}"


def _imported_modules(node):
    """Absolute names of the modules and members an import statement in
    src/xtrees or scripts/ names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["xtrees" if node.level else None, node.module]))
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def test_edge_list_callers_build_no_transform():
    """The solver, containment and the tree layer need relabelled edge
    lists only, which order._linear_edges gives without building a graph:
    a transform graph would also scan its parent's split for nothing."""
    transforms = {"mirror", "rotate", "reflect", "relabeled", "_mapped"}
    found = [
        f"{name}:{node.lineno}"
        for name in ("solver.py", "containment.py", "trees.py")
        for node in ast.walk(ast.parse((ROOT / "src" / "xtrees" / name).read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in transforms
    ]
    assert not found, f"transform calls: {found}"


def test_only_the_gate_imports_the_oracles():
    """The brute-force references share no code with the paths they check:
    in the package and its scripts only the release gate calls them, and
    the tests call them directly."""
    sources = sorted((ROOT / "src" / "xtrees").glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        if path != ROOT / "src" / "xtrees" / "verify.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "xtrees.oracles" in _imported_modules(node)
    ]
    assert not found, f"imports of xtrees.oracles outside verify.py: {found}"


def test_only_the_gate_names_the_golden_files():
    """verify.py alone decides what each golden file holds and compares it;
    the rest of the package, its scripts and its tests reach the files
    through its GOLDEN_FILES. test_acceptance.py injects faults into that
    comparison, so it names the files it breaks."""
    names = sorted(p.name for p in (ROOT / "golden").glob("*.json"))
    assert len(names) == 4
    sources = sorted((ROOT / "src" / "xtrees").glob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources += sorted((ROOT / "tests").glob("*.py"))
    exempt = {ROOT / "src" / "xtrees" / "verify.py", ROOT / "tests" / "test_acceptance.py"}
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sources
        if path not in exempt
        for name in names
        if name in path.read_text()
    ]
    assert not found, f"golden file names outside verify.py: {found}"


# library code that only the benchmark calls, with the reason it stays
UNCALLED_ALLOWED = {
    "available_kernels": "perfbench/ reads the kernel table through it",
}


def test_no_uncalled_library_code():
    """Each module-level function and class of the package is named by
    library code outside its own body, exported, or allowed with a reason."""
    statements = [
        (path, node)
        for path in sorted((ROOT / "src" / "xtrees").glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    # the names and attribute names each top-level statement reads
    reads = [{getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
             for _, node in statements]
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in xtrees.__all__
        and node.name not in UNCALLED_ALLOWED
        and not any(node.name in names for (_, other), names in zip(statements, reads)
                    if other is not node)
    ]
    assert not found, f"library code that nothing calls: {found}"


# the decomposition validator, under its public name or a private one
_VALIDATOR = re.compile(r"_?(validate|check)_decomposition")

# the callers allowed to run it, with the decomposition each one holds
VALIDATOR_CALLERS = {
    ("solver.py", "_checked_tree"): "a caller's decomposition, handed to embed_dense",
    ("verify.py", "_route_sweep"): "every decomposition c02 and c03 obtain",
}


def test_decompositions_are_validated_once():
    """The library builds its decompositions valid and does not re-check
    them: only the boundary and the gate call the validator."""
    found = [
        f"{path.name}:{node.lineno} {top.name}"
        for path in sorted((ROOT / "src" / "xtrees").glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.FunctionDef) and not _VALIDATOR.fullmatch(top.name)
        and (path.name, top.name) not in VALIDATOR_CALLERS
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and _VALIDATOR.fullmatch(getattr(node.func, "id", None) or getattr(node.func, "attr", ""))
    ]
    assert not found, f"decomposition validated outside the boundary and the gate: {found}"


def test_gate_passes_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "xtrees.cli", "verify", "--suite", "all"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "11/11 checks passed" in proc.stdout

"""Every definition in ``src/persprox`` has a caller in ``src/``, or a
stated reason to exist without one.

The check reads the source with ``ast``; nothing is imported.  Code that
only tests use lives next to the tests (``tests/reference.py``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "persprox"
PERFBENCH = SRC.parents[1] / "perfbench"

ENTRY = "public entry point in README"
TRACED = "wrapped by name in perfbench/tracing.py"

# (module, qualified name): why it stays with no reference elsewhere in src/
ALLOWED = {
    ("roots", "real_quartic_roots"): TRACED,
    ("catalog", "PowerBase.prox_conj"): TRACED,
    ("catalog", "HuberBase.prox_conj"): TRACED,
    ("catalog", "AbsBase.prox_conj"): TRACED,
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _contracts(core: ast.Module) -> dict[str, set[str]]:
    """Method names of each contract Protocol in ``core``."""
    contracts = {
        node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        for node in core.body
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id == "Protocol" for b in node.bases)
    }
    # the BaseFunction docstring asks a zero-or-infinity base for prox_primal too
    contracts["ZERO_INFTY_CONJUGATE"] = contracts["BaseFunction"] | {"prox_primal"}
    return contracts


def _contract_of(cls: ast.ClassDef) -> str:
    """The contract a catalog class implements, by the attribute that marks it."""
    marks = {t.id: node.value for node in cls.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    if "sign_class" in marks:
        if getattr(marks["sign_class"], "attr", None) == "ZERO_INFTY_CONJUGATE":
            return "ZERO_INFTY_CONJUGATE"
        return "BaseFunction"
    if "case_kind" in marks:
        return "ScalingFunction"
    return "ProxCapable"


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names ``tree`` reads: loaded identifiers, attributes and string
    constants (``getattr`` targets), outside the subtree ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def unreferenced() -> set[tuple[str, str]]:
    """Definitions nothing else in ``src/`` refers to.

    Top-level functions and classes of every module, and the methods of the
    catalog classes.  A reference inside the definition itself does not
    count, nor does a re-export from ``__init__``, nor does a contract's own
    declaration in ``core``.  Every catalog method, contract methods
    included, must be read by name somewhere else in ``src/``; a method
    named like a contract method its class does not implement is reported
    too, since that read may be the contract's.
    """
    modules = _modules()
    del modules["__init__"]
    contracts = _contracts(modules["core"])
    declared = set().union(*contracts.values())
    found = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = set().union(*(_names_used(t, skip=node) for t in modules.values()))
            if node.name not in used:
                found.add((mod, node.name))
            if mod != "catalog" or not isinstance(node, ast.ClassDef):
                continue
            own = contracts[_contract_of(node)]
            for meth in node.body:
                if not isinstance(meth, ast.FunctionDef) or meth.name.startswith("__"):
                    continue
                used = set().union(*(_names_used(t, skip=meth) for t in modules.values()))
                if meth.name in declared - own or meth.name not in used:
                    found.add((mod, f"{node.name}.{meth.name}"))
    return found


def test_every_definition_in_src_has_a_caller():
    stray = unreferenced() - set(ALLOWED)
    assert not stray, f"defined in src/ but referenced nowhere else in src/: {sorted(stray)}"


def test_allowlist_entries_are_still_needed():
    assert set(ALLOWED) <= unreferenced()
    assert set(ALLOWED.values()) <= {ENTRY, TRACED}


def test_names_the_tracer_wraps_resolve():
    # the benchmark's tracer looks names of src/ up by name; a change that
    # drops or renames one fails here, not only in the benchmark's own tests
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    assert all(callable(value) for _, _, value in tracing.shim_targets())
    assert 0.0 < tracing._residual_tol() < 1.0


def test_demo_names_load_on_first_use():
    code = (
        "import sys, persprox; "
        "before = 'persprox.splitting' in sys.modules; "
        "from persprox import run_concomitant_demo; "
        "assert persprox.DemoSpec is persprox.splitting.DemoSpec; "
        "assert {'StepSizeError', 'DemoTrace'} <= set(persprox.__all__); "
        "print(before, 'persprox.splitting' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False True"


def test_the_package_has_no_oracle():
    # the brute-force oracle is test support: it lives in tests/reference.py
    import importlib.util

    import persprox

    assert importlib.util.find_spec("persprox.oracle") is None
    for name in ("oracle", "OracleConfig", "OracleError", "brute_force_prox"):
        assert not hasattr(persprox, name), name
        assert name not in persprox.__all__, name


def test_unknown_package_attribute_raises_attribute_error():
    import persprox

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        persprox.no_such_name

"""Every definition in ``src/persprox`` has a caller in ``src/``, or a
stated reason to exist without one, and every catalog object meets its
contract.

The definition check reads the source with ``ast``; nothing is imported.
Code that only tests use lives next to the tests (``tests/reference.py``).
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
    ("perspective", "prox_fenchel_gap"): ENTRY,
    ("catalog", "PowerBase.prox_conj"): TRACED,
    ("catalog", "HuberBase.prox_conj"): TRACED,
    ("catalog", "AbsBase.prox_conj"): TRACED,
    ("catalog", "PowerBase.conj_eval"): TRACED,
    ("catalog", "HuberBase.conj_eval"): TRACED,
    ("catalog", "AbsBase.conj_eval"): TRACED,
    ("catalog", "PowerBase.proj_dom_conj"): TRACED,
    ("catalog", "HuberBase.proj_dom_conj"): TRACED,
    ("catalog", "AbsBase.proj_dom_conj"): TRACED,
    ("radial", "RadialFunction.prox"): TRACED,
}

# The methods of each contract that the catalog module's docstring states:
# the dead-definition guard and the conformance test both read this table.
# A base also has ``sign_class`` and ``conj`` (its profile is
# ``conj.phi1d``), a scaling ``case_kind``.
_PROFILE = ("eval", "prox")
_BASE = ("eval", "eval_norm", "rec_eval")
CONTRACTS = {
    "profile": _PROFILE,
    "signed profile": _PROFILE + ("inverse",),
    "signed base": _BASE,
    "zero-or-infinity base": _BASE + ("prox_primal",),
    "scaling": ("eval", "env_eval", "env_conj_eval", "prox_env", "support_cl_conv_S",
                "proj_dom_env_conj", "inverse"),
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _contract_of(mod: str, cls: ast.ClassDef) -> str | None:
    """The contract a catalog class implements, by the attribute that marks
    it; a profile has no mark, and is held to the wider signed contract.
    A ``radial`` class implements none."""
    if mod != "catalog":
        return None
    marks = {t.id: node.value for node in cls.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    if "sign_class" in marks:
        if getattr(marks["sign_class"], "attr", None) == "ZERO_INFTY_CONJUGATE":
            return "zero-or-infinity base"
        return "signed base"
    if "case_kind" in marks:
        return "scaling"
    return "signed profile"


def _names_used(tree: ast.AST, skip: ast.AST | None = None, attrs: bool = True) -> set[str]:
    """Names ``tree`` reads: loaded identifiers, string constants (``getattr``
    targets) and, with ``attrs``, attributes, outside the subtree ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and attrs:
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _read_elsewhere(modules: dict, mod: str, name: str) -> bool:
    """Whether a module other than ``mod`` reads its top-level ``name``: it
    imports it (``from .mod import name``, under any alias) and reads what
    that bound, or it reads ``mod.name``."""
    for other, tree in modules.items():
        if other == mod:
            continue
        nodes = list(ast.walk(tree))
        bound = {alias.asname or name for node in nodes
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == mod
                 for alias in node.names if alias.name == name}
        if bound & _names_used(tree, attrs=False):
            return True
        if any(isinstance(node, ast.Attribute) and node.attr == name
               and isinstance(node.value, ast.Name) and node.value.id == mod for node in nodes):
            return True
    return False


def unreferenced() -> set[tuple[str, str]]:
    """Definitions nothing else in ``src/`` refers to.

    Top-level functions and classes of every module, and the methods of the
    catalog and radial classes.  A reference inside the definition itself does not
    count, nor does a re-export from ``__init__``.  A top-level definition is
    read only by its own module (a loaded name or a string) or by one that
    imports it or reads it as ``module.name`` (``_read_elsewhere``): a name
    another module binds for itself, a local variable say, is no read of it.
    Every catalog method, contract methods included, must be read by name
    somewhere else in ``src/``; a method named like a method of a contract (``CONTRACTS``)
    its class does not implement is reported too, since that read may be
    the contract's.  A radial class implements no contract, so its methods
    named like contract members (``RadialFunction.prox``) are reported.
    """
    modules = _modules()
    del modules["__init__"]
    declared = set().union(*CONTRACTS.values())
    found = set()
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (node.name not in _names_used(tree, skip=node, attrs=False)
                    and not _read_elsewhere(modules, mod, node.name)):
                found.add((mod, node.name))
            if mod not in ("catalog", "radial") or not isinstance(node, ast.ClassDef):
                continue
            contract = _contract_of(mod, node)
            own = set(CONTRACTS[contract]) if contract else set()
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


def test_catalog_members_meet_their_contracts():
    # every catalog base and scaling, built by name, has each member of its
    # contract, and a base's profile (conj.phi1d) each member of its own
    from persprox import CaseKind, SignClass, catalog

    params = {"power": {"p": 3.0}, "root": {"q": 0.5}}
    for name in catalog._BASES:
        base = catalog.make_base(name, params.get(name))
        signed = base.sign_class is not SignClass.ZERO_INFTY_CONJUGATE
        assert isinstance(base.sign_class, SignClass), name
        for obj, contract in ((base, "signed base" if signed else "zero-or-infinity base"),
                              (base.conj.phi1d, "signed profile" if signed else "profile")):
            for member in CONTRACTS[contract]:
                assert callable(getattr(obj, member, None)), (name, contract, member)
    for name in catalog._SCALINGS:
        scaling = catalog.make_scaling(name, params.get(name))
        assert isinstance(scaling.case_kind, CaseKind), name
        for member in CONTRACTS["scaling"]:
            assert callable(getattr(scaling, member, None)), (name, member)


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

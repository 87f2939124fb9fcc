"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "poincare_series"


def test_no_bare_assert():
    # python -O strips assert statements, so no check in the package may be one
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _callee(call):
    """The name that f(...), self.f(...) or cls.f(...) calls; None for any other call."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
        return f.attr
    return None


def test_no_function_calls_itself():
    # the recursion limit turns deep input into a RecursionError traceback, so
    # no function in the package calls its own name
    found = [
        f"{path.name}:{call.lineno} {func.name}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and _callee(call) == func.name
    ]
    assert found == []


def test_private_names_imported_from_algebra_only():
    # the integer kernels live in algebra; no other module's underscore name
    # is imported elsewhere, so each one has a single home
    found = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module != "algebra"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_public_names():
    import poincare_series

    assert poincare_series.__all__ == [
        "poincare_series",
        "single_form_series",
        "all_ones",
        "all_twos",
        "dimension",
        "gamma",
        "multiplicity_table",
        "omega",
        "Poly",
        "RatFun",
        "DegreeVector",
        "MultiplicityTable",
        "partial_fractions",
        "PFD",
        "__version__",
    ]
    assert [name for name in poincare_series.__all__ if not hasattr(poincare_series, name)] == []


def _cache_refs(tree):
    """Every (node, name) naming functools.cache or functools.lru_cache, aliases included."""
    names = {"cache": "cache", "lru_cache": "lru_cache"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({a.asname: a.name for a in node.names if a.asname and a.name in names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            yield node, names[node.id]
        elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
            yield node, node.attr


def test_caches_are_bounded():
    # memory stays bounded in a long-lived process: every functools cache in
    # the package is an lru_cache called with a finite, positive int maxsize
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        ints = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
                size = sizes[0] if sizes else None
                if isinstance(size, ast.Name):
                    size = ints.get(size.id)
                elif isinstance(size, ast.Constant):
                    size = size.value
                if type(size) is int and size > 0:
                    bounded.add(id(node.func))
        found += [
            f"{path.name}:{node.lineno}"
            for node, name in _cache_refs(tree)
            if name == "cache" or id(node) not in bounded
        ]
    assert found == []


def test_kind_names_decided_in_counting_only():
    # counting.canonical_kind is the one place that maps a kind to its series,
    # so no other module spells the names of the semi-invariant series' aliases
    spelled, defined = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in ("covariants", "kernel"):
                spelled.add(path.name)
            elif isinstance(node, ast.FunctionDef) and node.name == "canonical_kind":
                defined.add(path.name)
    assert spelled == {"counting.py"}
    assert defined == {"counting.py"}


def test_series_and_factor_text_defined_in_algebra_only():
    # the CLI and RatFun.expand share one series recurrence and one (1-z^a)^e formatter
    defined = {
        (node.name, path.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("_series_ints", "_factor_text")
    }
    assert defined == {("_series_ints", "algebra.py"), ("_factor_text", "algebra.py")}


def test_only_cli_prints():
    # cli is the one module that writes output; every other module returns what it finds
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert found == []


def test_operator_route_builds_no_per_term_objects():
    # from the pole decomposition to the reduced result the operator route runs
    # on int lists: none of its functions names a per-term object type, the
    # public decomposition or the general product
    route = {
        "_poles", "_pole_numerators", "_pole_series", "_pole_part",
        "_multisect_sum", "_packed_multisect", "_poincare_cached",
    }
    forbidden = {"Poly", "FactoredRatFun", "PFD", "_int_mul", "partial_fractions"}
    tree = ast.parse((SRC / "springer.py").read_text(encoding="utf-8"))
    found = {}
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and func.name in route:
            names = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
            found[func.name] = sorted(names & forbidden)
    assert found == {name: [] for name in route}

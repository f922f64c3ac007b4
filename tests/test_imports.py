"""Every name a roughkit module imports is used in it or re-exported, every
function, method and class it defines is referenced somewhere, and every
module-level one the package does not export has a caller in the library.

Stand-ins for a linter's unused-import and dead-code rules, built on `ast`
only.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

import roughkit

SOURCES = sorted(Path(roughkit.__file__).resolve().parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level binding name -> line for every import except __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every bare name in the module; quoted annotations are not read."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def is_all_assignment(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if is_all_assignment(node):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_package_sources_are_found():
    assert {"tensor.py", "path.py", "rde.py", "__init__.py"} <= {p.name for p in SOURCES}


def test_every_package_export_is_exported_by_its_module():
    """A name `roughkit/__init__.py` imports from a module and exports is in
    that module's `__all__` too, so the two lists cannot drift apart."""
    init = next(source for source in SOURCES if source.name == "__init__.py")
    homes = {
        alias.asname or alias.name: node.module
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    module_all = {
        source.stem: exported_names(ast.parse(source.read_text(), filename=str(source)))
        for source in SOURCES
    }
    missing = sorted(
        f"{homes[name]}.{name}"
        for name in roughkit.__all__
        if name in homes and name not in module_all[homes[name]]
    )
    assert not missing, f"exported by the package but not by its module: {missing}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    keep = used_names(tree) | exported_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in keep
    }
    assert not unused, f"{source.name}: unused imports {unused}"


def defined_names(tree: ast.Module) -> set[str]:
    """Functions, methods and classes defined anywhere in a module, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced_names(tree: ast.Module) -> Counter:
    """Bare names, attributes, imported names and identifier-like strings.

    Strings count because `__all__` and attribute patches name their
    targets as strings.
    """
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs[node.value] += 1
    return refs


def test_every_defined_name_is_referenced():
    """A name nothing in src/, tests/ or benchmarks/ refers to is dead code."""
    defined = set()
    for source in SOURCES:
        defined |= defined_names(ast.parse(source.read_text(), filename=str(source)))
    refs = Counter()
    for folder in ("src", "tests", "benchmarks"):
        for path in sorted((REPO / folder).rglob("*.py")):
            refs += referenced_names(ast.parse(path.read_text(), filename=str(path)))
    orphans = sorted(name for name in defined if refs[name] == 0)
    assert not orphans, f"defined but never referenced: {orphans}"


def test_every_unexported_definition_has_a_library_caller():
    """A module-level function or class that `roughkit/__init__.py` does not
    export is dead code unless src/ or benchmarks/ refers to it.  References
    from tests/ do not count, nor do `__all__` entries, nor references from
    inside the definition itself.  Methods of exported classes are public
    API and are not covered."""
    library = list(SOURCES) + sorted((REPO / "benchmarks").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in library}
    refs = Counter()
    for tree in trees.values():
        for node in tree.body:
            if not is_all_assignment(node):
                refs += referenced_names(node)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    orphans = sorted(
        f"{source.stem}.{node.name}"
        for source in SOURCES
        for node in trees[source].body
        if isinstance(node, kinds)
        and node.name not in roughkit.__all__
        and refs[node.name] == referenced_names(node)[node.name]
    )
    assert not orphans, f"neither exported nor called from src/ or benchmarks/: {orphans}"


def test_only_path_walks_the_pairs():
    """`path.py` owns the walk over all pairs s < t: its rectangle size
    `_BUILD_PAIRS` appears nowhere else in the package, so every all-pairs
    walk reads `SampledRoughPath._row_blocks`.  No module, `path.py`
    included, names the packed pair order of np.triu_indices or recovers
    pairs from it with a searchsorted; that order lives in the tests'
    oracles alone."""
    found = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("triu_indices", "searchsorted") or (name == "_BUILD_PAIRS" and source.name != "path.py"):
                found.append(f"{source.name}:{node.lineno}: {name}")
    assert not found, f"all-pairs walks outside the row blocks: {found}"


def test_only_smooth_map_defines_apply():
    """A map's value is its order-0 derivative: in `funcs.py` only
    `SmoothMap` binds `apply`, which reads `derivative(Y, 0)`, and no
    `derivative` reads `apply` back."""
    funcs = next(source for source in SOURCES if source.name == "funcs.py")
    owners, forwards = [], []
    for cls in ast.walk(ast.parse(funcs.read_text(), filename=str(funcs))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if "apply" in bound:
                owners.append(cls.name)
            if "derivative" in bound:
                forwards += [
                    f"{cls.name}:{sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and sub.attr == "apply"
                ]
    assert owners == ["SmoothMap"]
    assert not forwards, f"derivatives that read apply: {forwards}"


def test_group_element_is_named_only_by_its_definition_the_lift_and_the_export():
    """The single-element class is the lift's step product and `points`'
    element type, nothing more: among the package's modules only
    `tensor.py`, `path.py` and `__init__.py` name `GroupElement`, and none
    names the retired tensor class or its exponential and logarithm."""
    owners = {"tensor.py", "path.py", "__init__.py"}
    retired = {"TruncatedTensor", "tensor_exp", "tensor_log"}
    found = []
    for source in SOURCES:
        names = referenced_names(ast.parse(source.read_text(), filename=str(source)))
        if names["GroupElement"] and source.name not in owners:
            found.append(f"{source.name}: GroupElement")
        found += [f"{source.name}: {name}" for name in sorted(retired) if names[name]]
    assert not found, f"single-element API outside its modules: {found}"


def test_the_integral_layer_lifts_no_driver():
    """`integrate.py` reads a driver it is handed and never lifts one: it
    neither imports nor names `signature` or `p_variation`, so no exponent
    refusal can measure variations or build pair geometry first."""
    integrate = next(source for source in SOURCES if source.name == "integrate.py")
    refs = referenced_names(ast.parse(integrate.read_text(), filename=str(integrate)))
    assert not refs["signature"] and not refs["p_variation"]


def test_no_library_function_takes_a_start_offset():
    """Work on the grid from some t_s runs on `SampledRoughPath.restricted`,
    whose rows start there: no function takes a `start` index and pads the
    rows before it with zeros."""
    found = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "start" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    found.append(f"{source.name}:{node.lineno}")
    assert not found, f"functions that take a start offset: {found}"


def test_the_lip_norm_ball_is_gone():
    """No field carries a norm bound on a ball: no module names
    `lip_norm_bound` or `derivative_sup_bound`, and only `cli.py` names
    `radius`, for the flag it checks and then ignores.  Definitions and
    parameters count as naming, as references do."""
    found = []
    for source in SOURCES:
        tree = ast.parse(source.read_text(), filename=str(source))
        names = referenced_names(tree)
        for name in defined_names(tree):
            names[name] += 1
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                names[node.arg] += 1
        found += [f"{source.name}: {n}" for n in ("lip_norm_bound", "derivative_sup_bound") if names[n]]
        if names["radius"] and source.name != "cli.py":
            found.append(f"{source.name}: radius")
    assert not found, f"the Lip-norm ball is named: {found}"


def test_a_lifted_path_is_certified_once():
    """`certify_stack` runs where rows enter unchecked: the two constructors,
    and `increment_levels`, whose index pairs are arbitrary.  Nothing else
    calls it, not `signature` on its exponential segments and not the
    path's inverse points, whose results are known."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "certify_stack":
                    callers.append(f"{source.name}: {owner}")
            visit(child, owner)

    for source in SOURCES:
        visit(ast.parse(source.read_text(), filename=str(source)), "")
    assert sorted(callers) == [
        "path.py: SampledRoughPath.__post_init__",
        "path.py: SampledRoughPath.increment_levels",
        "tensor.py: GroupElement.__post_init__",
    ]


def test_every_point_of_a_rough_path_is_certified():
    """A rough path is its times, level stacks and p, with no per-point flag
    that exempts a row from the constructor's certificate, and
    `certify_stack` checks every row it is given, with no row selection."""
    from dataclasses import fields
    from inspect import signature

    from roughkit.path import SampledRoughPath
    from roughkit.tensor import certify_stack

    assert tuple(f.name for f in fields(SampledRoughPath)) == ("times", "levels", "p")
    assert tuple(signature(certify_stack).parameters) == ("t", "scale")


def test_the_split_map_lists_no_permutations():
    """`split_matrix` is built by recursion on the merged word's last letter,
    not by a scan over the K! arrangements of its part labels: `tensor.py`
    names no `permutations` and no `_split_patterns`.  The scan lives in the
    tests' oracles as the reference."""
    tensor = next(source for source in SOURCES if source.name == "tensor.py")
    tree = ast.parse(tensor.read_text(), filename=str(tensor))
    names = referenced_names(tree)
    for name in defined_names(tree):
        names[name] += 1
    assert not names["permutations"] and not names["_split_patterns"]

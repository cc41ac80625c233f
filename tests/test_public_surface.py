"""The package's public surface: every public definition has a caller."""

import ast
from pathlib import Path

import leraydec

PACKAGE = Path(leraydec.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public definitions kept without a caller, each for a stated reason
UNCALLED = {
    "apply_hn": "the closed-form smoother, the oracle the stepper's van Cittert layout is tested against",
    "cfl_max_dt": "the advisory CFL limit of a state at hand; run() takes its own from _cfl_limit",
    "read_diag_csv": "reads back the diag.csv that `leraydec run` writes",
    "read_transfer_csv": "reads back the transfer.csv that `leraydec transfer` writes",
}


def _definitions() -> dict:
    """(module, name) -> the top-level public def or class statement, per package module."""
    return {(path.stem, node.name): node
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _module_of(dotted: str | None, level: int, in_package: bool) -> str | None:
    """The package module an import names: "" for the package itself, a
    module's stem for one of its modules, None for anything else."""
    if level:  # relative imports occur only inside the package
        return dotted or "" if in_package else None
    if dotted == "leraydec":
        return ""
    if dotted and dotted.startswith("leraydec."):
        return dotted.removeprefix("leraydec.")
    return None


def _uses(tree: ast.AST, in_package: bool, exported: dict) -> set:
    """(module, name) pairs a file uses as `<module>.<name>` or as
    `from <module> import <name>`; names taken from the package itself
    count against the module that defines them."""
    aliases, used = {}, set()

    def add(module: str, name: str) -> None:
        if module == "":
            if name in exported:
                used.add((exported[name], name))
        else:
            used.add((module, name))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                module = _module_of(a.name, 0, in_package)
                if module is not None:
                    aliases[a.asname or a.name] = module
        elif isinstance(node, ast.ImportFrom):
            module = _module_of(node.module, node.level, in_package)
            for a in node.names if module is not None else ():
                if module == "" and a.name not in exported:  # a module of the package
                    aliases[a.asname or a.name] = a.name
                else:
                    add(module, a.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            add(aliases[base.id], node.attr)
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and aliases.get(base.value.id) == ""):
            add(base.attr, node.attr)  # leraydec.<module>.<name>
    return used


def _bare_names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_every_public_definition_has_a_caller():
    """A top-level public def or class in the package is used outside its
    own definition: by a bare name elsewhere in its own module, or as
    `<module>.<name>` or `from <module> import <name>` in another package
    module (the package's __init__.py only re-exports), in perfbench or in
    the acceptance criteria."""
    definitions = _definitions()
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name: node.module for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}

    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text(), filename=str(path)).body
        used |= _uses(ast.Module(body=body, type_ignores=[]), True, exported)
        for i, node in enumerate(body):
            names = set().union(*(_bare_names(other) for j, other in enumerate(body) if j != i))
            if getattr(node, "name", None) in names:
                used.add((path.stem, node.name))
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), Path(__file__).with_name("test_acceptance.py")]:
        used |= _uses(ast.parse(path.read_text(), filename=str(path)), False, exported)

    uncalled = {name for (module, name) in definitions if (module, name) not in used}
    assert uncalled == set(UNCALLED)


def test_a_name_shared_with_an_attribute_or_a_local_is_no_caller():
    """What the guard counts: a dotted or imported use, not a same-named
    attribute of something else or a local variable."""
    exported = {"energy": "spectral"}
    code = ("import leraydec as ld\nfrom leraydec import spectral\nfrom leraydec.solver import step\n"
            "record.energy\nenergy = 1\ninner = 2\nspectral.inner\nld.energy\nstep\n")
    uses = _uses(ast.parse(code), False, exported)
    assert uses == {("spectral", "inner"), ("spectral", "energy"), ("solver", "step")}
    assert _uses(ast.parse("from .spectral import Grid\nfrom . import solver\nsolver.run\n"),
                 True, exported) == {("spectral", "Grid"), ("solver", "run")}

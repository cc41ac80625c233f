"""The package's public surface: every public definition has a caller."""

import ast
from pathlib import Path

import leraydec

PACKAGE = Path(leraydec.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public definitions kept without a caller, each for a stated reason
UNCALLED = {
    "cfl_max_dt": "the advisory CFL limit of a state at hand; run() takes its own from _cfl_limit",
    "read_diag_csv": "reads back the diag.csv that `leraydec run` writes",
    "read_transfer_csv": "reads back the transfer.csv that `leraydec transfer` writes",
}


def _names_used(tree: ast.AST) -> set:
    """Names a tree refers to, as a bare name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_caller():
    """A top-level public def or class in the package is referred to outside
    its own definition: in the package (whose __init__.py only re-exports),
    in perfbench or in the acceptance criteria."""
    statements = [(node, _names_used(node))
                  for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    outside = set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), Path(__file__).with_name("test_acceptance.py")]:
        outside |= _names_used(ast.parse(path.read_text(), filename=str(path)))

    uncalled = {
        node.name for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in names for other, names in statements if other is not node)
    }
    assert uncalled == set(UNCALLED)

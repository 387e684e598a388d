"""The public surface is what gets called: every public top-level function
and class of the package is referenced, other than by its own definition, in
`src/`, in `perfbench/` or in the acceptance criteria.  A helper that only
unit tests call belongs in `tests/`, not in the library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixed_milnor"
CALLERS = (
    sorted(PACKAGE.glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(tree: ast.Module) -> set[str]:
    """The names and attribute names a module reads; a top-level definition's
    own name inside its body (recursion) does not count.  Imports do not
    count either: a re-export is not a call."""
    names = set()
    for node in tree.body:
        own = node.name if isinstance(node, DEFINITIONS) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id != own:
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr != own:
                names.add(sub.attr)
    return names


def test_every_public_name_has_a_caller():
    public = {}  # name -> defining module
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                public[node.name] = path.name
    assert public
    referenced = set().union(
        *(_referenced(ast.parse(path.read_text(encoding="utf-8"))) for path in CALLERS)
    )
    unused = sorted(f"{module}:{name}" for name, module in public.items() if name not in referenced)
    assert unused == []

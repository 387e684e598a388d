"""The public surface is what gets called: every public top-level function
and class of the package is referenced, other than by its own definition, in
`src/`, in `perfbench/` or in the acceptance criteria.  A helper that only
unit tests call belongs in `tests/`, not in the library.  The start-up
surface is pinned too: the modules the package imports, all at module level."""

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


# the modules the package imports at start-up; a new one costs every run
# its import time (`setup_s`), so it is a deliberate change of this list
IMPORTS = {
    "__future__", "argparse", "cmath", "dataclasses", "errno", "fractions", "functools",
    "hashlib", "itertools", "json", "json.encoder", "math", "numpy", "os", "pathlib",
    "sys", "time", "typing", "warnings",
}


def test_imports_are_pinned_and_at_module_level():
    """Every import of the package is a top-level statement of its module (no
    import inside a function, class or block), and the modules imported from
    outside the package are exactly IMPORTS."""
    imported, nested = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) not in top:
                nested.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif node.level == 0:
                imported.add(node.module)
    assert nested == []
    assert imported == IMPORTS

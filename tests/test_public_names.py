"""No public name in the package that only the tests read."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadnmpc"
# the trees whose code counts as a reader; the package's __init__ only re-exports
READERS = ("src", "perfbench", "tools")
# (module, name) -> why it stays although nothing outside the tests reads it
ALLOWED = {
    ("sim", "reconstruct_commands"): "criterion 12: the paper's map from the solution "
    "to the vehicle's command set",
}


def public_definitions():
    """``(module, name)`` of every public module-level function, class and constant."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [getattr(t, "elts", [t]) for t in node.targets]
                names = [t.id for group in targets for t in group if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out.update((path.stem, n) for n in names if not n.startswith("_"))
    return out


def read_names():
    """How often each identifier is read, imported or looked up as an attribute."""
    counts = Counter()
    for tree in READERS:
        for path in (ROOT / tree).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts[node.name] += 1
    return counts


def test_every_public_name_has_a_reader_outside_the_tests():
    defined = public_definitions()
    reads = read_names()
    unread = sorted(
        f"{module}.{name}"
        for module, name in defined
        if reads[name] == 0 and (module, name) not in ALLOWED
    )
    assert unread == [], "public names that only the tests read"
    assert set(ALLOWED) <= defined, "an allowed name no longer exists"

"""No public name or dataclass field in the package that only the tests read."""

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
# (dataclass, field) -> why it stays although nothing outside the tests reads it
ALLOWED_FIELDS = {
    ("SimTrace", "measured"): "the measured states, which ROADMAP item 8 means to write "
    "as trace.csv columns",
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


def is_dataclass(node):
    """Whether ``node`` is a class decorated with ``@dataclass``."""
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
    )


def public_fields():
    """``(class, field)`` of every public field of a public dataclass."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if is_dataclass(node) and not node.name.startswith("_"):
                fields = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
                out.update((node.name, f) for f in fields if not f.startswith("_"))
    return out


def reader_nodes():
    """Every AST node of the code that counts as a reader."""
    for tree in READERS:
        for path in (ROOT / tree).rglob("*.py"):
            if path != PACKAGE / "__init__.py":
                yield from ast.walk(ast.parse(path.read_text()))


def read_names():
    """How often each identifier is read, imported or looked up as an attribute."""
    counts = Counter()
    for node in reader_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def read_fields():
    """Names loaded as an attribute or written as a string constant."""
    out = set()
    for node in reader_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


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


def test_every_public_field_has_a_reader_outside_the_tests():
    """Every public dataclass field in ``src/`` has a reader outside the tests.

    A field counts as read when its name is loaded as an attribute or written
    as a string constant (``sim.DIAGNOSTICS`` reads ``ControlOutput`` fields by
    name). A field is not caught when another object has an attribute of the
    same name: ``LqrDesign.A`` would pass without its reader in
    ``closed_loop_radius``, because ``qp.py`` reads ``OcpQp.A``.
    """
    defined = public_fields()
    reads = read_fields()
    unread = sorted(
        f"{cls}.{name}"
        for cls, name in defined
        if name not in reads and (cls, name) not in ALLOWED_FIELDS
    )
    assert unread == [], "public dataclass fields that only the tests read"
    assert set(ALLOWED_FIELDS) <= defined, "an allowed field no longer exists"

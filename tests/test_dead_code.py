"""Guard against uncalled library surface.

Every module-level public function, class or constant in ``src/qsearch``
must be referenced somewhere outside its own definition: by other library
code (a subcommand's call chain) or by the acceptance gate, which checks the
paper's claims.  A unit test alone does not keep a name alive; an oracle that only
tests use belongs in ``tests/``.  The keep-list names the exceptions, each
with its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qsearch").glob("*.py"))
REFERRERS = [*SOURCES, ROOT / "tests" / "test_acceptance.py"]

KEEP = {
    "info_geom.wigner_yanase_line_element": (
        "a name that bench/tracer.py wraps, so the benchmark's tracer needs it to resolve"
    ),
}


TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in REFERRERS}


def read_names(tree, skip=frozenset()):
    """Names that `tree` reads as a bare name, an attribute or an import,
    outside the nodes whose ids are in `skip`."""
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def defined_names(node):
    """Names a module-level statement defines: a def or class, or the bare
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            n.id
            for target in targets
            for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        ]
    return []


def unreferenced():
    """`module.name` of each module-level public def, class or assigned name
    that no referrer reads outside the definition itself."""
    read = {path: read_names(tree) for path, tree in TREES.items()}
    dead = []
    for path in SOURCES:
        for node in TREES[path].body:
            own = {id(n) for n in ast.walk(node)}
            for name in defined_names(node):
                if name.startswith("_"):
                    continue
                elsewhere = any(name in names for other, names in read.items() if other != path)
                if not elsewhere and name not in read_names(TREES[path], own):
                    dead.append(f"{path.stem}.{name}")
    return dead


def test_every_public_name_is_used():
    dead = [name for name in unreferenced() if name not in KEEP]
    assert dead == [], f"uncalled public names (delete, move to tests/, or keep-list with a reason): {dead}"


def test_keep_list_entries_are_needed_and_explained():
    dead = set(unreferenced())
    for name, reason in KEEP.items():
        assert name in dead, f"{name} is referenced now; drop it from the keep-list"
        assert reason.strip(), f"{name} needs a reason"


def test_assignments_define_names():
    tree = ast.parse("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\nF = G = 6\nx.y = 7\ndef f(): pass\n")
    assert [name for node in tree.body for name in defined_names(node)] == list("ABCDEFG") + ["f"]

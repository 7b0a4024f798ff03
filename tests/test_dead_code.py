"""Guard against uncalled library surface.

Every module-level function, class or constant in ``src/qsearch``, private
names included (dunders are exempt), must be referenced somewhere outside its
own definition by library code: it is on a subcommand's call chain.  So must
every public method of a public class there, read as an attribute in a
module that defines the class or names it, by import or as a module
attribute (dunders are exempt): a `.write` read on a file handle does not
keep `RunManifest.write` alive.  A test alone, the acceptance gate included,
does not keep a name alive; an oracle that only tests use belongs in
``tests/``.  The keep-list names the exceptions: each is a function that
``bench/tracer.py`` wraps, so the benchmark's tracer needs it to resolve.

Every parameter default must also be overridden, by position or by keyword,
by some call in library code: a default that no call changes is a constant.
``KEEP_DEFAULTS`` names the exceptions, each with its reason.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qsearch").glob("*.py"))
TRACER = ROOT / "bench" / "tracer.py"

_TRACED = "a name that bench/tracer.py wraps, so the benchmark's tracer needs it to resolve"
KEEP = {
    "info_geom.fisher_rao": _TRACED,
    "info_geom.kinetic_energy": _TRACED,
    "info_geom.wigner_yanase_line_element": _TRACED,
    "msta.ga_grover_apply": _TRACED,
}


TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def read_names(tree, skip=frozenset()):
    """The names that `tree` reads as a bare name or an import, and those it
    reads as an attribute, outside the nodes whose ids are in `skip`."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


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


def public_methods(node):
    """The public defs in the body of a module-level public class (a private
    class's methods, such as an override that its base class calls, are not
    library surface)."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return []
    return [item for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def unreferenced(trees=TREES):
    """`module.name` of each module-level def, class or assigned name, dunders
    aside, that no tree reads outside the definition itself, and
    `module.Class.method` of each public method that no tree reads as an
    attribute outside the method itself, counting another tree's read only
    where that tree names the class."""
    read = {path: read_names(tree) for path, tree in trees.items()}
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            own = {id(n) for n in ast.walk(node)}
            for name in defined_names(node):
                if name.startswith("__") and name.endswith("__"):
                    continue
                elsewhere = any(name in names | attrs for other, (names, attrs) in read.items() if other != path)
                if not elsewhere and name not in set().union(*read_names(tree, own)):
                    dead.append(f"{Path(path).stem}.{name}")
            for method in public_methods(node):
                own = {id(n) for n in ast.walk(method)}
                elsewhere = any(
                    method.name in attrs and node.name in names | attrs
                    for other, (names, attrs) in read.items()
                    if other != path
                )
                if not elsewhere and method.name not in read_names(tree, own)[1]:
                    dead.append(f"{Path(path).stem}.{node.name}.{method.name}")
    return dead


def traced_names():
    """`module.name` of each function in the tracer's LAYER_FUNCTIONS, read
    from its source without importing it."""
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]:
            layers = ast.literal_eval(node.value)
            return {f"{module}.{name}" for module, names in layers.items() for name in names}
    raise AssertionError(f"{TRACER} assigns no LAYER_FUNCTIONS")


def test_every_public_name_is_used():
    dead = [name for name in unreferenced() if name not in KEEP]
    assert dead == [], f"uncalled names (delete, move to tests/, or keep-list with a reason): {dead}"


def test_keep_list_entries_are_needed_and_explained():
    dead = set(unreferenced())
    for name, reason in KEEP.items():
        assert name in dead, f"{name} is referenced now; drop it from the keep-list"
        assert reason.strip(), f"{name} needs a reason"


def test_keep_list_entries_are_traced():
    traced = traced_names()
    for name in KEEP:
        assert name in traced, f"{name} is no longer wrapped by {TRACER.name}; delete it or move it to tests/"


def test_assignments_define_names():
    tree = ast.parse("A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\nF = G = 6\nx.y = 7\ndef f(): pass\n")
    assert [name for node in tree.body for name in defined_names(node)] == list("ABCDEFG") + ["f"]


def test_uncalled_method_is_flagged():
    source = (
        "class C:\n"
        "    def used(self): return self.helper()\n"
        "    def helper(self): pass\n"
        "    def idle(self): return self.idle()\n"
        "    def __repr__(self): return ''\n"
        "class _P:\n"
        "    def error(self): pass\n"
        "def f(c): return c.used()\n"
    )
    tree = ast.parse(source)
    assert unreferenced({"m.py": tree, "n.py": ast.parse("import m\nm.C\nm.f\nm._P")}) == ["m.C.idle"]


def test_method_read_counts_only_where_its_class_is_named():
    # n.py's `.write` is a file handle's; a p.py that imports the class, or
    # reads it as a module attribute, keeps the method alive
    trees = {
        "m.py": ast.parse("class RunManifest:\n    def write(self): pass\n"),
        "n.py": ast.parse("def save(fh): fh.write(b'')\n"),
        "o.py": ast.parse("import m, n\nm.RunManifest\nn.save\n"),
    }
    assert unreferenced(trees) == ["m.RunManifest.write"]
    for source in ("from m import RunManifest\nRunManifest().write()\n", "import m\nm.RunManifest().write()\n"):
        assert unreferenced(trees | {"p.py": ast.parse(source)}) == []


def test_uncalled_private_name_is_flagged():
    # a private def or constant read only by tests is as dead as a public one;
    # a dunder is read by the interpreter, not by source
    source = "_CAP = 4\n_USED = 2\n__version__ = '1'\ndef _check(u): return u\ndef f(): return _USED\n"
    assert unreferenced({"m.py": ast.parse(source), "n.py": ast.parse("import m\nm.f")}) == ["m._CAP", "m._check"]


def unoverridden_defaults(trees=TREES):
    """`module.function(parameter)` of each parameter default that no call in
    any tree overrides, by position or by keyword.  A call matches a def by
    its name, bare or as an attribute; a method's call passes `self`
    implicitly, and a call that unpacks `*` or `**` overrides every default."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    flagged = []
    for path, tree in trees.items():
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            offset = 1 if id(func) in methods else 0
            positional = func.args.posonlyargs + func.args.args
            defaulted = [(i, a) for i, a in enumerate(positional) if i >= len(positional) - len(func.args.defaults)]
            defaulted += [(None, a) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]
            for index, arg in defaulted:
                overridden = any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (None, arg.arg) for k in call.keywords)
                    or (index is not None and offset + len(call.args) > index)
                    for call in calls.get(func.name, [])
                )
                if not overridden:
                    flagged.append(f"{Path(path).stem}.{func.name}({arg.arg})")
    return flagged


KEEP_DEFAULTS = {
    "cli.main(argv)": "entry() calls main() with no arguments; tests and bench/tracer.py pass argv",
}


def test_every_default_is_overridden():
    flagged = unoverridden_defaults()
    assert flagged == list(KEEP_DEFAULTS), f"defaults no call overrides (make each a constant): {flagged}"


def test_unoverridden_default_is_flagged():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\n"
        "class C:\n"
        "    def m(self, y=1): pass\n"
        "def run(c, kw):\n"
        "    f(0, 1)\n"
        "    f(0, d=5)\n"
        "    g(*kw)\n"
        "    c.m(2)\n"
    )
    assert unoverridden_defaults({"m.py": ast.parse(source)}) == ["m.f(c)", "m.f(e)"]

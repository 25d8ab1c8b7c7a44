"""Source hygiene of src/uniserial, checked with the standard library only.

No import may go unused in the package, its tests or the benchmark, and
every private (single-underscore) function or class must be referenced
somewhere in any of them.  Deletions tend to leave exactly these behind.  And no floating
point anywhere: no float or complex literal, and no read of the names
float or complex.  The elimination kernels and the entry table of a
Matrix stay behind linalg: no other package module names them.  Only
quiverrep.Rep implements the object protocol of the category engine.
Block-triangular forms are read in one place: one raise carries the
invariance error, and itext multiplies no edge matrix itself.  The
window quiver's layout stays behind gradedrep: abcat names none of its
arrows.  Every parameter of a package function is read, the instance
aside, in all but dunder methods.  A private attribute read off a value
names one its own module defines, unless the value is an imported module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uniserial"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(tree):
    """Bare names a module reads, plus every attribute name it looks up."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for path in sorted(p for folder in (PACKAGE, ROOT / "tests", ROOT / "bench") for p in folder.glob("*.py")):
        tree = parse(path)
        used = referenced_names(tree)
        for name, line in imported_names(tree):
            if name not in used:
                unused.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    assert not unused, "unused imports: %s" % ", ".join(unused)


def test_no_unreferenced_private_definitions():
    used = set()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "bench"):
        for path in folder.glob("*.py"):
            used |= referenced_names(parse(path))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.startswith("__") and name not in used:
                    dead.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not dead, "private definitions nothing references: %s" % ", ".join(dead)


PROTOCOL = {"slot_ids", "slot_dim", "edge_ids", "edge_ends", "edge_matrix", "relations", "with_matrices", "same_space"}


def test_only_rep_implements_the_backend_protocol():
    # both backends are representations of a quiver; one class reads them to the engine
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef) and node.name != "Rep":
                names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)} & PROTOCOL
                found.extend("%s %s.%s" % (path.name, node.name, name) for name in sorted(names))
    assert not found, "backend protocol defined outside Rep: %s" % ", ".join(found)


KERNEL_NAMES = {"_rref_rows", "_rank_rows", "_column_index", "_data", "_nz_rows", "_nz_cols"}


def test_kernels_and_entry_tables_stay_behind_linalg():
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "linalg.py":
            tree = parse(path)
            imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
            names = (referenced_names(tree) | imported) & KERNEL_NAMES
            leaks.extend("%s %s" % (path.name, name) for name in sorted(names))
    assert not leaks, "linalg internals named outside linalg: %s" % ", ".join(leaks)


def float_uses(tree):
    """(line, text) for every float or complex literal and every read of float or complex."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in ("float", "complex") and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id


def test_float_uses_finds_literals_and_names():
    source = "a = 1.5\nb = 2j\nc = float(a)\nd = isinstance(b, complex)\ne = 1e3\nf = 10 // 3\n"
    assert sorted(float_uses(ast.parse(source))) == [(1, "1.5"), (2, "2j"), (3, "float"), (4, "complex"), (5, "1000.0")]


def test_no_floating_point_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found.extend("%s:%d %s" % (path.name, line, text) for line, text in float_uses(parse(path)))
    assert not found, "floating point in the package: %s" % ", ".join(found)


def raised_texts(tree):
    """(line, string constants) of every raise statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            texts = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant)]
            yield node.lineno, [t for t in texts if isinstance(t, str)]


def test_one_invariance_check_reads_block_forms():
    # abcat.unglue is the one reader of block-triangular forms; its callers keep no check of their own
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, texts in raised_texts(parse(path)):
            if any("not invariant under edge" in t for t in texts):
                found.append("%s:%d" % (path.name, line))
    assert len(found) == 1, "invariance errors raised at: %s" % ", ".join(found)


def edge_matrix_products(tree):
    """Lines of every product with an edge_matrix(...) call as a factor."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult)):
            for side in (node.left, node.right):
                func = side.func if isinstance(side, ast.Call) else None
                if isinstance(func, ast.Attribute) and func.attr == "edge_matrix":
                    yield node.lineno


def test_edge_matrix_products_finds_conjugations():
    source = "w = vinv * x.edge_matrix(e) * u\nm = a * b\nk = x.edge_matrix(e)\n"
    assert sorted(set(edge_matrix_products(ast.parse(source)))) == [1]


def test_itext_reads_blocks_through_abcat():
    # the deformation extraction reads its blocks through abcat.unglue and conjugates no edge matrix itself
    lines = sorted(set(edge_matrix_products(parse(PACKAGE / "itext.py"))))
    assert not lines, "edge-matrix products in itext.py at lines %s" % lines


def window_arrow_literals(tree):
    """Lines of every tuple literal ("t", ...) or ("p", ...): a named arrow of the window quiver."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            head = node.elts[0]
            if isinstance(head, ast.Constant) and head.value in ("t", "p"):
                yield node.lineno


def test_window_arrow_literals_finds_named_arrows_and_skips_docstrings():
    source = 'def f(w):\n    """The arrow ("t", w)."""\n    return ("p", w + 1), ("q", w), "t"\n'
    assert list(window_arrow_literals(ast.parse(source))) == [3]


def test_abcat_names_no_window_quiver_arrow():
    # a graded source states its core window itself (GradedRep.core_window); the engine reads slots and edges
    lines = sorted(set(window_arrow_literals(parse(PACKAGE / "abcat.py"))))
    assert not lines, "window-quiver arrows named in abcat.py at lines %s" % lines


def unread_parameters(tree):
    """(line, function, parameter) for every parameter its function never reads.

    Dunder methods (protocol signatures) and lambdas are left aside, as is
    the instance or class of a method.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in params:
                if name not in read and name not in ("self", "cls"):
                    yield node.lineno, node.name, name


def test_unread_parameters_finds_dead_parameters():
    source = (
        "def f(a, b, *rest, c=1, **kw):\n    return a + len(kw)\n"
        "def g(x):\n    def inner(y):\n        return x\n    return inner\n"
        "class C:\n    def __init__(self, unused):\n        pass\n    def m(self, z):\n        z = 1\n"
        "h = lambda q: 0\n"
    )
    assert sorted(unread_parameters(ast.parse(source))) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "rest"), (4, "inner", "y"), (10, "m", "z"),
    ]


def test_every_parameter_is_read():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found.extend("%s:%d %s(%s)" % (path.name, *hit) for hit in unread_parameters(parse(path)))
    assert not found, "parameters their function never reads: %s" % ", ".join(found)


def foreign_private_reads(tree):
    """(line, name) for every read v._name of a private name the module does not define, v not an imported module.

    A module defines its def and class names, the names and attributes it
    assigns, and the identifier strings it holds (__slots__ entries and
    setattr names); a private name read off an imported module, such as
    abcat._peel, is that module's own.
    """
    modules = {a.asname or a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module is None for a in n.names}
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            defined.add(node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
            if name.startswith("_") and not name.startswith("__") and name not in defined:
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    yield node.lineno, name


def test_foreign_private_reads_finds_another_modules_internals():
    source = (
        "from . import abcat\nimport os\nfrom .linalg import Matrix\n"
        "class C:\n    __slots__ = ('_t',)\n    def m(self, other, space):\n        self._cache = 1\n"
        "        return other._t, self._cache, self._helper(), abcat._peel, os._exit, space._rank_d0, Matrix._data\n"
        "    def _helper(self):\n        return 0\n"
    )
    assert sorted(foreign_private_reads(ast.parse(source))) == [(8, "_data"), (8, "_rank_d0")]


def test_no_private_attribute_of_another_module_is_read():
    # a module reads its own private attributes only, and another module's through its public methods
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found.extend("%s:%d %s" % (path.name, *hit) for hit in foreign_private_reads(parse(path)))
    assert not found, "private attributes read outside their module: %s" % ", ".join(found)

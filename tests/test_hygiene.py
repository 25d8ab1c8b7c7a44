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
Every function, class and method is reached from cli.main or from what
the acceptance suite imports, or is on the TEST_ONLY list of what only
tests call.
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


KERNEL_NAMES = {"_rref_rows", "_rank_rows", "_forward", "_eliminate", "_column_index", "_data", "_nz_rows", "_nz_cols"}


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


def top_level_definitions(trees):
    """{qualified name: node} of every top-level function and class of the modules, and of every method."""
    out = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out["%s.%s" % (mod, node.name)] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out["%s.%s.%s" % (mod, node.name, item.name)] = item
    return out


def local_names(func):
    """Names a function binds, its nested functions' included: its parameters, assignments and imports."""
    out = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            out.update(p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v])
            if node is not func and not isinstance(node, ast.Lambda):
                out.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def unreached_definitions(trees, roots, root_attrs=()):
    """Qualified names of the functions, classes and methods of trees that no root reaches.

    trees maps a module name to its syntax tree; a module binds the names
    it defines and those it imports with "from .m import name", and
    "from . import m" makes m.name read m's name.  The roots are qualified
    names, and root_attrs the attribute names their caller reads.  Module
    code outside definitions runs on import, so it is reached.  A reached
    function reaches the module names it reads but does not bind itself,
    and a reached class its bases, decorators and class-level code.  A
    method is reached when its class is and it is a dunder (operators,
    construction, dataclass machinery) or some reached code reads its name
    as an attribute, on whatever value.
    """
    defs = top_level_definitions(trees)
    names, modules = {}, {}
    for mod, tree in trees.items():
        names[mod] = {d.split(".")[1]: "%s.%s" % (mod, d.split(".")[1]) for d in defs if d.startswith(mod + ".")}
        modules[mod] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[mod][alias.asname or alias.name] = alias.name
                    else:
                        names[mod][alias.asname or alias.name] = "%s.%s" % (node.module, alias.name)
    reached, attrs = set(), set(root_attrs)
    todo = [(mod, stmt, set()) for mod, tree in trees.items() for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]

    def reach(qualified):
        if qualified in defs and qualified not in reached:
            reached.add(qualified)
            node, mod = defs[qualified], qualified.split(".")[0]
            if isinstance(node, ast.ClassDef):
                parts = node.decorator_list + node.bases + node.keywords
                parts += [s for s in node.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                todo.extend((mod, part, set()) for part in parts)
            else:
                todo.append((mod, node, local_names(node)))

    for root in roots:
        reach(root)
    while todo:
        while todo:
            mod, node, local = todo.pop()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in local:
                    reach(names[mod].get(sub.id, ""))
                elif isinstance(sub, ast.Attribute):
                    attrs.add(sub.attr)
                    if isinstance(sub.value, ast.Name) and sub.value.id in modules[mod]:
                        reach("%s.%s" % (modules[mod][sub.value.id], sub.attr))
        for qualified in defs:
            owner, _, name = qualified.rpartition(".")
            if owner in reached and owner.count(".") == 1 and (name in attrs or name.startswith("__")):
                reach(qualified)
    return sorted(set(defs) - reached)


def package_client_roots(tree):
    """(roots, attribute names) of a client module: the uniserial names it imports and the attributes it reads."""
    roots, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("uniserial"):
            for alias in node.names:
                if node.module == "uniserial":
                    modules.add(alias.asname or alias.name)
                else:
                    roots.append("%s.%s" % (node.module.split(".")[1], alias.name))
    attrs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                roots.append("%s.%s" % (node.value.id, node.attr))
    return roots, attrs


def test_unreached_definitions_finds_what_only_tests_call():
    trees = {
        "core": ast.parse(
            "def used():\n    return Shape(2).area()\n"
            "def only_tested():\n    return 0\n"
            "def shadowed():\n    return 1\n"
            "class Shape:\n    def __init__(self, side):\n        self.side = side\n"
            "    def area(self):\n        return self.side * self.side\n"
            "    def perimeter(self):\n        return 4 * self.side\n"
            "class Unused:\n    def area(self):\n        return 0\n"
        ),
        "front": ast.parse(
            "from . import core\nfrom .core import used as run\n"
            "COMMANDS = {'run': run}\n"
            "def main(shadowed):\n    return core.Shape(shadowed).side, COMMANDS\n"
            "def helper():\n    return 2\n"
        ),
    }
    assert unreached_definitions(trees, ["front.main"]) == [
        "core.Shape.perimeter", "core.Unused", "core.Unused.area", "core.only_tested", "core.shadowed", "front.helper",
    ]
    client = ast.parse("from uniserial import core\nfrom uniserial.front import helper\nx = core.only_tested()\ny.perimeter\n")
    roots, attrs = package_client_roots(client)
    assert unreached_definitions(trees, ["front.main"] + roots, attrs) == ["core.Unused", "core.Unused.area", "core.shadowed"]


# Definitions that only tests call, each with the reason it stays.  Delete
# an entry when its name is deleted or comes into use; the list only shrinks.
TEST_ONLY = {
    "abcat.change_basis": "planned deletion; bench/tracer.py LAYERS 'abcat.obj' names it",
    "abcat.extract_class": "called only by itext.extension_classes; bench/tracer.py LAYERS 'abcat.ext' names it",
    "abcat.image": "planned deletion; bench/tracer.py LAYERS 'abcat.obj' names it",
    "cli.parse_report": "the documented reader of machine reports (README, the --format flag)",
    "itext.extension_classes": "kept only if a test checks a paper statement with it; LAYERS 'itext' names it",
    "itext.is_morphism_of_iterated_extensions": "kept only if a test checks a paper statement with it; LAYERS 'itext'",
    "linalg.algebra_radical": "planned deletion; bench/tracer.py LAYERS 'linalg' names it",
    "linalg.in_span": "planned deletion; bench/tracer.py LAYERS 'linalg' names it",
    "weyl._parse_exponent": "helper of weyl.parse_weyl, a planned deletion",
    "weyl._parse_weyl_term": "helper of weyl.parse_weyl, a planned deletion",
    "weyl._split_factors": "helper of weyl.parse_weyl, a planned deletion",
    "weyl.parse_weyl": "planned deletion; bench/tracer.py LAYERS 'weyl' names it",
    "weyl.theta": "planned deletion; bench/tracer.py LAYERS 'weyl' names it",
    "weyl.theta_times": "planned deletion; bench/tracer.py LAYERS 'weyl' names it",
}


def test_no_api_that_only_tests_call():
    # roots: cli.main (COMMANDS is module code, reached on import) and what the acceptance criteria import and read
    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    roots, attrs = package_client_roots(parse(ROOT / "tests" / "test_acceptance.py"))
    found = set(unreached_definitions(trees, ["cli.main"] + roots, attrs))
    assert not found - set(TEST_ONLY), "reached from no CLI command or acceptance criterion: %s" % sorted(found - set(TEST_ONLY))
    assert not set(TEST_ONLY) - found, "allowlisted but reached or gone; drop from TEST_ONLY: %s" % sorted(set(TEST_ONLY) - found)

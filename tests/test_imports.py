"""Package hygiene, checked on the source with the stdlib ``ast``: every
import is used, every function, method and class is read by the package or
the benchmark (a test is not a reader), the closed forms do not import the
diagram engines that check them, the spines and the surface and braid
representations load neither the skein sweep nor the TL engine, no module
keeps a table of its own, at module or class level, weak tables included
(what depends on the level is memoized once per level by
``QuantumParams.cached``, and ``SHARED_CACHES`` lists the few tables every
level shares), only ``scalars.py`` touches a
Scalar's fields or constructs a Scalar, so it alone binds a value to its
level, only ``scalars.py`` constructs a ``PackedRing``, so every ring is
its level's one ring of its width, only ``linalg.py`` reads its dense-row
routines, so every other module builds matrices as columns, only
``linalg.py`` defines ``next_segment`` and only ``linalg.py`` and
``skein.py`` read it, so ``linalg.next_segment`` is the one owner of the
segment rule that cuts every packed chain into segments, only
``tl._Times`` and ``tl._stair`` read the diagram compositions, so every TL product is a
column chain of ``_Times``, no module imports ``fractions`` or ``decimal``,
so the exact core computes on integers alone, and no module calls ``id``,
since a memo keyed by an object's id outlives the object and hands its
entry to whatever object reuses the id."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "skeinrep"
PERFBENCH = TESTS.parent / "perfbench"

SHARED_CACHES = {
    # the diagram-pair compositions, which do not depend on the level
    ("tl.py", "_COMPOSE_CACHE"),
    # the one object per root of unity, which owns its level's memo
    ("scalars.py", "QuantumParams._interned"),
    # the one live object per matching, weak-valued, so identity is equality
    ("tl.py", "TLDiagram._interned"),
}
# methods that a library calls: argparse.ArgumentParser reports a bad
# command line through ``error``
LIBRARY_HOOKS = {("cli.py", "error")}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                   "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}
CACHE_DECORATORS = {"lru_cache", "cache"}
# a Scalar is c^odd * part; scalars.py alone reads or writes these fields
SCALAR_FIELDS = {"part", "odd"}
# linalg's dense-row routines, which only the benchmark's checker reads
DENSE_ROUTINES = {"zeros", "eye", "mat_mul", "mat_inv", "is_identity"}


def package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unused_imports(tree):
    """Names bound by import statements that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _class_named(node, classes):
    """The class that `node` names, the last name of C or m.C for C in
    classes, else None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in classes else None


def dead_definitions(tree, readers):
    """Non-dunder functions, methods and classes defined in tree whose name
    no tree in readers loads: a function or class as a variable or an
    attribute, a method as an attribute.  ``C.name``, with C the name of a
    class defined in tree or readers, reads only class C's method name;
    ``x.name`` on any other expression reads every method so named.  A
    local variable that shares a method's name does not read the method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    classes = {node.name for t in [tree, *readers] for node in ast.walk(t)
               if isinstance(node, ast.ClassDef)}
    names, attrs, qualified = set(), set(), set()
    for reader in readers:
        for node in ast.walk(reader):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = _class_named(node.value, classes)
                if owner is None:
                    attrs.add(node.attr)
                else:
                    qualified.add((owner, node.attr))
    owner_of = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                for node in cls.body if isinstance(node, defs[:2])}
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, defs)
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in attrs
                  and ((owner_of[id(node)], node.name) not in qualified if id(node) in owner_of
                       else node.name not in names))


def imported_modules(tree):
    """The package modules a module imports from, as '.name' strings (a bare
    'from . import name' counts as '.name'), and the absolute module names
    it imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add("." + node.module.split(".")[0])
            elif node.level:
                found.update("." + alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def _called_name(node):
    """The last name of f, f(...), m.f or m.f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _table_assignments(body, prefix=""):
    """(line, prefix + name) of every name in body bound to a container."""
    found = []
    for node in body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if (isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp))
                or (isinstance(value, ast.Call) and _called_name(value) in CONTAINER_CALLS)):
            found += [(node.lineno, prefix + t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def global_caches(tree):
    """Module-level names and class attributes of module-level classes
    (as 'Class.name') bound to a dict, list or set, weak tables included,
    and functions under an lru_cache or cache decorator."""
    found = _table_assignments(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += _table_assignments(node.body, node.name + ".")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _called_name(d) in CACHE_DECORATORS for d in node.decorator_list):
            found.append((node.lineno, node.name))
    return sorted(found)


def test_checker_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import os\nimport a.b\nfrom x import y, z as w\nprint(y)\n")
    assert unused_imports(ast.parse(src)) == [(2, "os"), (3, "a"), (4, "w")]


def test_package_has_no_unused_imports():
    found = {name: unused_imports(tree) for name, tree in package_trees().items()}
    assert {name: names for name, names in found.items() if names} == {}


def test_checker_flags_global_caches():
    src = ("import functools\n"
           "from functools import cache, lru_cache\n"
           "SIZE, NAMES = 3, ('a', 'b')\n"
           "_A = {}\n"
           "_B: dict = {}\n"
           "_C = [1, 2]\n"
           "_D = set()\n"
           "_E = {k: k for k in NAMES}\n"
           "@lru_cache(maxsize=None)\n"
           "def f(x):\n"
           "    return x\n"
           "@functools.cache\n"
           "def g(x):\n"
           "    local = {}\n"
           "    return local\n"
           "class K:\n"
           "    @cache\n"
           "    def h(self):\n"
           "        return self\n"
           "import weakref\n"
           "_F = weakref.WeakValueDictionary()\n"
           "class T:\n"
           "    __slots__ = ('a', 'b')\n"
           "    _table: dict = {}\n"
           "    _weak = weakref.WeakValueDictionary()\n"
           "    def m(self):\n"
           "        self.local = {}\n")
    assert global_caches(ast.parse(src)) == [
        (4, "_A"), (5, "_B"), (6, "_C"), (7, "_D"), (8, "_E"),
        (10, "f"), (13, "g"), (18, "h"), (21, "_F"), (24, "T._table"), (25, "T._weak")]


def test_package_keeps_no_global_caches():
    found = {(name, var) for name, tree in package_trees().items()
             for _, var in global_caches(tree)}
    # every shared table is listed, and every listed one still exists
    assert found == SHARED_CACHES


def test_checker_flags_dead_definitions():
    src = ("def used(x):\n"
           "    return x\n"
           "def unused():\n"
           "    return 1\n"
           "class K:\n"
           "    def __init__(self):\n"
           "        self.dead = 0\n"
           "    def method(self):\n"
           "        return used(self)\n"
           "    def dead(self):\n"
           "        return K\n"
           "class Unread:\n"
           "    def method(self):\n"
           "        return 1\n"
           "class Shadowed:\n"
           "    def curves(self):\n"
           "        return 1\n"
           "def local_reader():\n"
           "    curves = [Shadowed]\n"
           "    return curves\n")
    reader = ast.parse("from m import K, local_reader\nK().method()\nlocal_reader()\n")
    assert dead_definitions(ast.parse(src), [ast.parse(src), reader]) == [
        (3, "unused"), (10, "dead"), (12, "Unread"), (16, "curves")]


def test_checker_matches_methods_by_class():
    # Spine.from_json and skein.Element.to_json read one class's method
    # only; a read through any other expression, here an instance, reads
    # every method of its name
    src = ("class Spine:\n"
           "    @staticmethod\n"
           "    def from_json(obj):\n"
           "        return obj\n"
           "class Element:\n"
           "    @staticmethod\n"
           "    def from_json(obj):\n"
           "        return obj\n"
           "    def to_json(self):\n"
           "        return 1\n"
           "    def trace(self):\n"
           "        return 2\n"
           "class Diagram:\n"
           "    def trace(self):\n"
           "        return 3\n")
    reader = ast.parse("from m import Diagram, Spine, skein\n"
                       "Spine.from_json({})\n"
                       "skein.Element.to_json(None)\n"
                       "Diagram().trace()\n")
    assert dead_definitions(ast.parse(src), [reader]) == [(7, "from_json")]


def test_package_has_no_dead_definitions():
    # readers are the package and the benchmark; a definition only tests
    # read is a reference, and references live in tests/oracles.py
    trees = package_trees()
    readers = list(trees.values()) + [ast.parse(path.read_text())
                                      for path in sorted(PERFBENCH.glob("*.py"))]
    found = {(name, func) for name, tree in trees.items()
             for _, func in dead_definitions(tree, readers)}
    assert found - LIBRARY_HOOKS == set()


def test_checker_lists_imported_modules():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "from . import skein as sk\n"
           "from .tl import jones_wenzl\n"
           "from .scalars.inner import x\n"
           "from fractions import Fraction\n"
           "def command():\n"
           "    from . import mcg\n"
           "    from .errors import DomainError\n"
           "    return mcg, DomainError\n")
    assert imported_modules(ast.parse(src)) == {
        "__future__", "os", ".skein", ".tl", ".scalars", "fractions", ".mcg", ".errors"}


# the exact core computes on integers alone: a part is integer numerators
# over one integer denominator, and no other number type enters
FORBIDDEN_NUMBER_TYPES = {"fractions", "decimal"}


def test_package_imports_no_rational_or_decimal_type():
    # imported_modules reads imports inside functions as well, and its
    # checker above shows that `from fractions import Fraction` is seen
    found = {(name, module) for name, tree in package_trees().items()
             for module in imported_modules(tree) & FORBIDDEN_NUMBER_TYPES}
    assert found == set()


def loaded_modules(trees, name):
    """The package modules that importing the module name loads, itself
    included, as file names: the closure of `imported_modules` over the
    package."""
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo += [m[1:] + ".py" for m in imported_modules(trees[module]) if m[0] == "."]
    return seen


def test_checker_lists_loaded_modules():
    trees = {"a.py": ast.parse("from . import b\n"),
             "b.py": ast.parse("def f():\n    from .c import x\n    return x\n"),
             "c.py": ast.parse("import os\n"),
             "d.py": ast.parse("from .a import y\n")}
    assert loaded_modules(trees, "a.py") == {"a.py", "b.py", "c.py"}
    assert loaded_modules(trees, "c.py") == {"c.py"}


def test_closed_forms_do_not_import_their_checks():
    # recoupling's closed forms need no TL diagram, tqft's bases no matrix
    # algebra, and no package module reaches into the test references
    trees = package_trees()
    assert ".tl" not in imported_modules(trees["recoupling.py"])
    assert ".linalg" not in imported_modules(trees["tqft.py"])
    found = {name for name, tree in trees.items()
             if imported_modules(tree) & {"oracles", "helpers", "tests", "conftest"}}
    assert found == set()


def test_layers_below_the_sweep_do_not_load_it():
    # the closed forms, the spines and the surface and braid representations
    # take their errors from the leaf module errors, so none of them loads
    # the skein sweep or the TL engine, and the CLI commands that run them
    # start without either
    trees = package_trees()
    found = {(name, engine) for name in ("tqft.py", "mcg.py", "braids.py", "recoupling.py")
             for engine in loaded_modules(trees, name) & {"skein.py", "tl.py"}}
    assert found == set()


def scalar_field_uses(tree):
    """(line, name) of every attribute access named like a Scalar field."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in SCALAR_FIELDS)


def test_checker_flags_scalar_field_uses():
    src = ("def f(x, y):\n"
           "    y.odd = x.part\n"
           "    return x.params, x.rebind(y)\n")
    assert scalar_field_uses(ast.parse(src)) == [(2, "odd"), (2, "part")]


def test_only_scalars_uses_scalar_fields():
    found = {name: scalar_field_uses(tree) for name, tree in package_trees().items()
             if name != "scalars.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}


def constructions(tree, cls):
    """(line, name) of every call to cls or to an attribute named cls."""
    return sorted((node.lineno, _called_name(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called_name(node) == cls)


def test_checker_flags_scalar_constructions():
    src = ("from skeinrep import scalars\n"
           "from skeinrep.scalars import Scalar\n"
           "def f(p, x):\n"
           "    y = Scalar(p, None)\n"
           "    z = scalars.Scalar(p, x.part, 1)\n"
           "    return Scalar.from_json(p, {}), isinstance(y, Scalar), z\n")
    assert constructions(ast.parse(src), "Scalar") == [(4, "Scalar"), (5, "Scalar")]


def test_only_scalars_constructs_scalars():
    found = {name: constructions(tree, "Scalar") for name, tree in package_trees().items()
             if name != "scalars.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_checker_flags_ring_constructions():
    src = ("from skeinrep import scalars\n"
           "from skeinrep.scalars import PackedRing\n"
           "def f(p, m):\n"
           "    ring = PackedRing(p, 8)\n"
           "    wide = scalars.PackedRing(p.level, 16)\n"
           "    return PackedRing.segment(p, m, ()), p.ring(m), ring, wide\n")
    assert constructions(ast.parse(src), "PackedRing") == [(4, "PackedRing"),
                                                           (5, "PackedRing")]


def test_only_scalars_constructs_rings():
    # every ring comes from QuantumParams.ring, one per width and level
    found = {name: constructions(tree, "PackedRing") for name, tree in package_trees().items()
             if name != "scalars.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def dense_routine_uses(tree):
    """(line, name) of every dense-row routine of linalg a module imports
    by name or reads as an attribute."""
    found = [(node.lineno, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
             for alias in node.names if alias.name in DENSE_ROUTINES]
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in DENSE_ROUTINES]
    return sorted(found)


def test_checker_flags_dense_routine_uses():
    src = ("from .linalg import columns, zeros\n"
           "from . import linalg\n"
           "def f(p, a):\n"
           "    return linalg.mat_mul(a, linalg.eye(p, 2)), columns(a)\n")
    assert dense_routine_uses(ast.parse(src)) == [(1, "zeros"), (4, "eye"), (4, "mat_mul")]


def test_only_linalg_reads_dense_routines():
    # a matrix is built as {row: Scalar} columns; dense rows are written
    # once, by linalg.rows, for the RepMatrix that leaves the package
    found = {name: dense_routine_uses(tree) for name, tree in package_trees().items()
             if name != "linalg.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}


def next_segment_uses(tree):
    """(line, 'def') of every definition of the name ``next_segment``, a
    function or method or an assignment, and (line, 'read') of every read:
    an import by name, a name loaded or an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "next_segment":
            found.append((node.lineno, "def"))
        elif isinstance(node, ast.Name) and node.id == "next_segment":
            found.append((node.lineno, "read" if isinstance(node.ctx, ast.Load) else "def"))
        elif isinstance(node, ast.Attribute) and node.attr == "next_segment":
            found.append((node.lineno, "read"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "read") for alias in node.names
                      if alias.name == "next_segment"]
    return sorted(found)


def test_checker_flags_next_segment_uses():
    src = ("from .linalg import next_segment\n"
           "from . import linalg\n"
           "def next_segment(p, gs):\n"
           "    segment = 1\n"
           "    return linalg.next_segment(p, gs), segment\n"
           "class Ring:\n"
           "    def next_segment(self):\n"
           "        return 0\n"
           "rule = next_segment\n"
           "next_segment = rule\n")
    assert next_segment_uses(ast.parse(src)) == [
        (1, "read"), (3, "def"), (5, "read"), (7, "def"), (9, "read"), (10, "def")]


def test_only_linalg_defines_next_segment():
    # the segment rule has one owner, linalg.next_segment, read by the
    # packed products and the skein sweep
    found = {name: {kind for _, kind in next_segment_uses(tree)}
             for name, tree in package_trees().items()}
    assert {name: kinds for name, kinds in found.items() if kinds} == {
        "linalg.py": {"def", "read"}, "skein.py": {"read"}}


# the readers of the diagram compositions: the column of a right
# multiplication and the staircase diagrams of the Wenzl factors
COMPOSE_READERS = {("tl.py", "_Times"), ("tl.py", "_stair")}


def compose_readers(tree):
    """The top-level statements of a module that load the name
    ``_compose_diagrams``: a function or class by its name (a class with
    its methods), any other statement as '<module>'."""
    found = set()
    for node in tree.body:
        if any(isinstance(n, ast.Name) and n.id == "_compose_diagrams"
               and isinstance(n.ctx, ast.Load) for n in ast.walk(node)):
            found.add(getattr(node, "name", "<module>"))
    return found


def test_checker_flags_compose_readers():
    src = ("from .tl import _compose_diagrams\n"
           "def _compose_diagrams_doc():\n"
           "    return '_compose_diagrams'\n"
           "class TLElement:\n"
           "    def then(self, other):\n"
           "        return _compose_diagrams(self, other)\n"
           "def _stair(n):\n"
           "    compose = _compose_diagrams\n"
           "    return compose\n"
           "PAIR = _compose_diagrams(1, 2)\n")
    assert compose_readers(ast.parse(src)) == {"TLElement", "_stair", "<module>"}


def test_only_times_and_stair_compose_diagrams():
    # every TL product is one packed chain of right multiplications
    found = {(name, reader) for name, tree in package_trees().items()
             for reader in compose_readers(tree)}
    assert found == COMPOSE_READERS


def id_calls(tree):
    """(line, 'id') of every call of the builtin name ``id``."""
    return sorted((node.lineno, node.func.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id")


def test_checker_flags_id_calls():
    src = ("def f(memo, cols, node):\n"
           "    key = (id(cols), 3)\n"
           "    ident = node.id\n"
           "    return memo.setdefault(key, {}), ident, node.id(1)\n"
           "def g(x):\n"
           "    return id(x)\n")
    assert id_calls(ast.parse(src)) == [(2, "id"), (6, "id")]


def test_package_calls_no_id():
    # a factor owns its packed columns; nothing is keyed by an object's id
    found = {name: id_calls(tree) for name, tree in package_trees().items()}
    assert {name: calls for name, calls in found.items() if calls} == {}

"""Source checks on the package: which functions may call themselves,
where gen draws from its rng, which node classes the rewrite engine
names, where node fields are declared, where the node classes become
dataclasses, how a node's caches are written, which module writes the
normal-form marks and that nothing calls the `==` alias `alpha_eq`."""

import ast
import dataclasses
import pathlib

import pytest

import inlr_kit
from inlr_kit import gen, syntax
from inlr_kit.syntax import Abs, Lam, Node, Proposition, Term

SRC = pathlib.Path(inlr_kit.__file__).parent

# Every other walk keeps its own stack, so input depth costs no Python
# stack.  These recurse, each bounded by an argument its caller chooses:
# gen's generators by their size budget or depth.
ALLOWED = {
    "gen._consume_term", "gen._gen_i", "gen._gen_q", "gen._provable",
    "gen.random_any_prop", "gen.random_provable_prop",
    "gen.random_quantum_prop",
}

# gen's decisions all pass through these, which without an rng take their
# first option: that is how a spent budget builds the smallest proof
DRAWS = {"_pick", "_coin", "_roll"}


def _trees():
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))]


def _self_recursive(module: str, tree: ast.AST) -> set:
    """The dotted names of the functions that call themselves by name, a
    method as self.name or cls.name; nested functions included."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix)
                continue
            name = child.name
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == name
                        or isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")):
                    found.add(f"{module}.{prefix}{name}")
                    break
            visit(child, f"{prefix}{name}.")

    visit(tree, "")
    return found


def test_the_lint_sees_recursion():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def m(self):\n        def g(): g()\n"
                     "        return self.m()\n"
                     "def h():\n    return f(1)\n")
    assert _self_recursive("mod", tree) == {"mod.f", "mod.C.m", "mod.C.m.g"}


def test_only_the_bounded_functions_recurse():
    found = set()
    for module, tree in _trees():
        found |= _self_recursive(module, tree)
    assert found == ALLOWED


def _rng_calls(tree: ast.AST) -> set:
    """The top-level functions and classes that call an rng method,
    integers or random, on any object; "<module>" for other statements."""
    return {getattr(stmt, "name", "<module>") for stmt in tree.body
            for call in ast.walk(stmt)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("integers", "random")}


def test_the_lint_sees_rng_calls():
    tree = ast.parse("def f(rng):\n    return rng.integers(3)\n"
                     "def g(r):\n    return [r.random() for _ in 'ab']\n"
                     "def h(rng):\n    return f(rng)\n"
                     "class C:\n    def m(self):\n"
                     "        return self.rng.random()\n"
                     "draw = lambda rng: rng.integers(2)\n")
    assert _rng_calls(tree) == {"f", "g", "C", "<module>"}


def test_gen_draws_only_through_its_three_helpers():
    assert _rng_calls(dict(_trees())["gen"]) == DRAWS


def _syntax_nodes(tree: ast.AST) -> set:
    """The node classes a module imports from the package's syntax module,
    and "syntax" when it imports the module whole."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module is None and alias.name == "syntax":
                found.add("syntax")
            elif node.module == "syntax":
                obj = getattr(syntax, alias.name, None)
                if isinstance(obj, type) and issubclass(obj, Node):
                    found.add(alias.name)
    return found


def test_the_lint_sees_syntax_nodes():
    tree = ast.parse("from .syntax import Inl, Term, cell_path\n"
                     "from . import syntax\n"
                     "from .quantum import ScalarStar\n")
    assert _syntax_nodes(tree) == {"Inl", "Term", "syntax"}


def test_the_engine_names_no_constructor():
    # rewrite is the generic engine: what a calculus's constructors mean,
    # the measurement weights among it, lives in that calculus's rules
    assert _syntax_nodes(dict(_trees())["rewrite"]) == {"Term"}


def test_the_term_generators_build_no_closure_per_call():
    # they run once per generated node, in props' largest layer, so a
    # call builds no function over its arguments (in Python 3.11 a
    # comprehension that reads a local is one)
    for fn in (gen._gen_i, gen._gen_q, gen._consume_term):
        assert fn.__code__.co_cellvars == ()


def test_no_class_body_assigns_a_shape():
    # a node class declares its fields as annotations; Node derives _shape
    found = []
    for module, tree in _trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                else:
                    continue
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id == "_shape":
                            found.append(f"{module}.{cls.name}")
    assert found == []


def test_nothing_calls_object_setattr():
    # the nodes are plain dataclasses: a cache is a plain attribute write
    found = []
    for module, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"):
                found.append((module, node.lineno))
    assert found == []


def test_nothing_calls_alpha_eq():
    # on nameless terms alpha-equivalence is `==`, so the package and its
    # tests call that; the alias stays defined only for the benchmark
    found = []
    for path in [*SRC.glob("*.py"), *pathlib.Path(__file__).parent.rglob(
            "*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "alpha_eq":
                found.append((path.name, type(node).__name__))
    assert found == [("syntax.py", "FunctionDef")]
    assert "alpha_eq" not in inlr_kit.__all__


def _dataclass_uses(tree) -> list:
    """The dotted name of the class or function around each reference to
    `dataclass`, a class's decorators counted as the class's own."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            elif isinstance(child, ast.Name) and child.id == "dataclass":
                found.append(where)
            else:
                visit(child, where)

    visit(tree, "")
    return found


def test_every_node_class_is_a_plain_dataclass():
    # Node declares the dataclass of every class it derives a shape for:
    # not frozen, and without a generated == (so without a generated hash)
    classes, todo = [], [Node]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("inlr_kit."):
            classes.append(cls)
        todo += cls.__subclasses__()
    assert Term in classes and Proposition in classes and Lam in classes
    for cls in [*classes[1:], Abs]:
        assert dataclasses.is_dataclass(cls), cls
        params = cls.__dataclass_params__
        assert not params.eq and not params.frozen, cls
    uses = _dataclass_uses(dict(_trees())["syntax"])
    assert sorted(uses) == ["Abs", "Node.__init_subclass__"]


_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear",
                  "__setitem__", "__delitem__", "__ior__"}


def _is_instance_dict(node) -> bool:
    """Whether node reads an instance dict: x.__dict__ or vars(x)."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def _dict_writes(tree: ast.AST) -> list:
    """The lines that write an instance dict: an item set or deleted, a
    mutating method called, the dict itself assigned, or set by name."""
    found = []
    for node in ast.walk(tree):
        ctx = getattr(node, "ctx", None)
        if (isinstance(node, ast.Subscript) and _is_instance_dict(node.value)
                and isinstance(ctx, (ast.Store, ast.Del))
                or isinstance(node, ast.Attribute) and node.attr == "__dict__"
                and isinstance(ctx, (ast.Store, ast.Del))
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_MUTATORS
                and _is_instance_dict(node.func.value)
                or isinstance(node, ast.Call)
                and any(isinstance(a, ast.Constant) and a.value == "__dict__"
                        for a in node.args)):
            found.append(node.lineno)
    return sorted(set(found))


def test_the_lint_sees_dict_writes():
    tree = ast.parse("t.__dict__['_hash'] = 1\n"
                     "del t.__dict__['_nf']\n"
                     "t.__dict__.update(_loose=0)\n"
                     "vars(t)['_hash'] = 2\n"
                     "t.__dict__ = {}\n"
                     "setattr(t, '__dict__', {})\n"
                     "x = t.__dict__.get('_hash')\n"
                     "y = cls.__dict__.get('__annotations__', {})\n")
    assert _dict_writes(tree) == [1, 2, 3, 4, 5, 6]


def test_no_instance_dict_is_written():
    # a node keeps its caches in the dict CPython holds inline until the
    # first write through __dict__; such a write materializes it, which
    # was measured at 64 more bytes per node
    found = [(module, line) for module, tree in _trees()
             for line in _dict_writes(tree)]
    assert found == []


def _mark_writes(tree: ast.AST) -> list:
    """The lines that write a node's normal-form mark `_nf`: assigned,
    augmented or deleted as an attribute, or set by name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_nf"
                and isinstance(node.ctx, (ast.Store, ast.Del))
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and any(isinstance(a, ast.Constant) and a.value == "_nf"
                        for a in node.args)):
            found.append(node.lineno)
    return sorted(set(found))


def test_the_lint_sees_mark_writes():
    tree = ast.parse("t._nf |= bit\n"
                     "t._nf = 0\n"
                     "del t._nf\n"
                     "setattr(t, '_nf', 1)\n"
                     "a, t.left._nf = 1, 2\n"
                     "x = t._nf & bit\n"
                     "y = getattr(t, '_nf')\n"
                     "class T:\n"
                     "    _nf = 0\n")
    assert _mark_writes(tree) == [1, 2, 3, 4, 5]


def test_only_the_engine_writes_marks():
    # which nodes are redex-free under which table is the rewrite
    # engine's decision alone; a term class only declares the default
    found = {module: _mark_writes(tree) for module, tree in _trees()}
    assert found.pop("rewrite")
    assert [(module, lines) for module, lines in found.items() if lines] == []


@pytest.mark.parametrize("base,annotation", [
    (Term, "float"), (Term, "list"), (Term, "Term | None"),
    (Proposition, "Term"), (Proposition, "Proposition | None"),
])
def test_an_unknown_field_annotation_raises_at_definition(base, annotation):
    with pytest.raises(TypeError, match="no field kind"):
        type("Bad", (base,), {"__annotations__": {"field": annotation}})

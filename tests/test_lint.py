"""Source checks on the package: which functions may call themselves."""

import ast
import pathlib

import inlr_kit

SRC = pathlib.Path(inlr_kit.__file__).parent

# Every other walk keeps its own stack, so input depth costs no Python
# stack.  These recurse, each bounded by an argument its caller chooses:
# gen's generators by their size budget or depth, and qencode._delta by
# the qubit count.
ALLOWED = {
    "gen._consume_min", "gen._consume_term", "gen._gen_i", "gen._gen_q",
    "gen._minimal", "gen._produce_min_q", "gen._provable",
    "gen.random_any_prop", "gen.random_provable_prop",
    "gen.random_quantum_prop", "qencode._delta",
}


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
    for path in sorted(SRC.glob("*.py")):
        found |= _self_recursive(path.stem, ast.parse(path.read_text()))
    assert found == ALLOWED

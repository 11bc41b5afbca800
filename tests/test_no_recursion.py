"""A guard against recursion: no function of the package reaches itself.

Each module's call graph is built by name from its source: a function,
method or nested function calls every name that it applies as `f(...)`,
`self.f(...)` or `cls.f(...)` and that the same module defines.  A name on
a cycle is a function that may recurse as deep as its input nests.
"""

import ast
from pathlib import Path

import sparqlsat

def call_graph(source: str) -> dict[str, set[str]]:
    """Each function name of `source` to the names its body applies."""
    graph: dict[str, set[str]] = {}
    todo = [(node, None) for node in ast.parse(source).body]
    while todo:
        node, owner = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
            graph.setdefault(owner, set())
        elif isinstance(node, ast.Call) and owner is not None:
            func = node.func
            if isinstance(func, ast.Name):
                graph[owner].add(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
                graph[owner].add(func.attr)
        todo.extend((child, owner) for child in ast.iter_child_nodes(node))
    return {name: callees & graph.keys() for name, callees in graph.items()}


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The names from which some path of calls leads back to themselves."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            found.add(start)
    return found


def test_no_module_function_recurses():
    package = Path(sparqlsat.__file__).parent
    recursive = {}
    for path in sorted(package.glob("*.py")):
        names = on_cycles(call_graph(path.read_text()))
        if names:
            recursive[path.stem] = sorted(names)
    assert recursive == {}


def test_the_guard_sees_direct_mutual_and_nested_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def even(n):
    return odd(n - 1)

def odd(n):
    return even(n - 1)

class Walker:
    def walk(self, node):
        for child in node:
            self.walk(child)

def outer(x):
    def inner(y):
        return outer(y)
    return inner(x)

def loop(items):
    return [len(item) for item in items]
'''
    assert on_cycles(call_graph(source)) == {"direct", "even", "odd", "walk", "outer", "inner"}

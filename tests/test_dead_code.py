"""No dead function in the package: a static guard over its source.

Every module of `wrat` is parsed with `ast`.  Each module-level function
must be referenced by name (a name or an attribute) somewhere in the
package outside its own definition, or be public, listed in
`wrat.__all__`.  The module hooks `__getattr__` and `__dir__` are exempt,
since Python calls them.  A helper that only tests call belongs in the
tests.
"""
import ast
from pathlib import Path

import wrat

SOURCE = Path(wrat.__file__).parent
EXEMPT = {"__getattr__", "__dir__"}


def _unreferenced(paths, public) -> list[str]:
    """module:function for each module-level function of paths that no
    code outside its own definition names, and that public does not list."""
    defs, refs = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defs += [(path.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                refs.append((path.name, getattr(node, "id", None) or node.attr, node.lineno))
    return [
        f"{module}:{fn.name}"
        for module, fn in defs
        if fn.name not in EXEMPT and fn.name not in public
        and not any(
            name == fn.name and not (where == module and fn.lineno <= line <= fn.end_lineno)
            for where, name, line in refs
        )
    ]


def test_every_function_is_used_or_public():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert _unreferenced(modules, set(wrat.__all__)) == []


def test_the_guard_sees_a_planted_dead_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n"
        "def dead():\n    return dead()\n"
        "def public():\n    return 0\n"
        "def __getattr__(name):\n    return name\n"
    )
    (tmp_path / "b.py").write_text("from a import used\nx = used()\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert _unreferenced(paths, {"public"}) == ["a.py:dead"]
    assert _unreferenced(paths, set()) == ["a.py:dead", "a.py:public"]

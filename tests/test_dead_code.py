"""No dead function or method in the package: a static guard over its source.

Every module of `wrat` is parsed with `ast`.  Each module-level function
must be referenced by name (a name or an attribute) somewhere in the
package outside its own definition, or be pinned in PINNED with the reason
it stays: being listed in `wrat.__all__` is not enough, and a pin that the
package's own references make needless fails too.  Each method and
property of a module-level class must be referenced likewise, with no
pin; a classmethod or staticmethod counts only where its own class names
it (`Class.method`, or `cls.method` inside the class), since any other
`x.method` may belong to another class's method of that name.  The
module hooks `__getattr__` and `__dir__`, dunder methods and the
overrides in HOOKS are exempt, since Python or the base class calls them.
A helper that only tests call belongs in the tests.

A knob is dead too: each parameter with a default of a module-level
function must be passed by some call in the package (by keyword, by
position, or through `*` or `**`), or be pinned in PINNED_KNOBS with the
reason it stays.  A knob that only tests turn belongs in the tests, as a
patch of what it overrides.

The match is by name, so an attribute of another class with the same
name (a field, a method) keeps a method alive; the guard finds methods
whose name the package never reads at all.
"""
import ast
from pathlib import Path

import wrat

SOURCE = Path(wrat.__file__).parent
EXEMPT = {"__getattr__", "__dir__"}
# Class.method overrides that a base class outside the package calls
HOOKS = {"_Parser.error", "_Parser.print_help"}  # argparse, on a usage error and on --help
# public functions no module names, each with the reason it stays
PINNED = {
    "is_admissible_level": "ROADMAP items 2 and 6 give it a caller; the README shows it",
}
# defaulted parameters no call in the package passes, each with the reason it stays
PINNED_KNOBS = {
    "main(argv=)": "in-process callers pass it, and `run` lets it read sys.argv",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound_on_class(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
        for d in fn.decorator_list
    )


def _unreferenced(paths, pinned) -> list[str]:
    """module:name for each module-level function, and module:Class.name for
    each method or property, that no code outside its own definition names
    and that pinned (resp. EXEMPT, HOOKS) does not list."""
    defs, refs = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path.name, None, node))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (path.name, node, m) for m in node.body if isinstance(m, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.id, None, node.lineno))
            elif isinstance(node, ast.Attribute):
                owner = node.value
                owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
                refs.append((path.name, node.attr, owner, node.lineno))

    def used(module, cls, fn) -> bool:
        for where, name, owner, line in refs:
            if name != fn.name:
                continue
            if where == module and fn.lineno <= line <= fn.end_lineno:
                continue
            if cls is None or not _bound_on_class(fn):
                return True
            inside = where == module and cls.lineno <= line <= cls.end_lineno
            if owner == cls.name or (owner == "cls" and inside):
                return True
        return False

    out = []
    for module, cls, fn in defs:
        if cls is None:
            if fn.name in EXEMPT or fn.name in pinned or used(module, cls, fn):
                continue
            out.append(f"{module}:{fn.name}")
        else:
            qual = f"{cls.name}.{fn.name}"
            if _is_dunder(fn.name) or qual in HOOKS or used(module, cls, fn):
                continue
            out.append(f"{module}:{qual}")
    return out


def _needless_pins(paths, pinned) -> list[str]:
    """The names in pinned that are no unreferenced module-level function."""
    unnamed = {entry.split(":")[1] for entry in _unreferenced(paths, set())}
    return sorted(set(pinned) - unnamed)


def _unpassed_knobs(paths, pinned) -> list[str]:
    """module:function(param=) for each parameter with a default of a
    module-level function that no call of that name passes, by keyword, by
    position, or through `*` or `**`, and that pinned does not list."""
    defs, calls = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defs += [(path.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def passes(call, arg, pos) -> bool:
        if any(k.arg in (arg, None) for k in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return pos is not None and (len(call.args) > pos or starred)

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    out = []
    for module, fn in defs:
        mine = [c for c in calls if callee(c) == fn.name]
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        knobs = [(a.arg, pos) for pos, a in enumerate(positional) if pos >= first]
        kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        knobs += [(a.arg, None) for a, d in kwonly if d is not None]
        for arg, pos in knobs:
            name = f"{fn.name}({arg}=)"
            if name not in pinned and not any(passes(c, arg, pos) for c in mine):
                out.append(f"{module}:{name}")
    return out


def test_every_function_is_used_or_public():
    """Used, or public and pinned with its reason."""
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert set(PINNED) <= set(wrat.__all__)
    assert _unreferenced(modules, set(PINNED)) == []
    assert _needless_pins(modules, PINNED) == []


def test_every_knob_is_passed_or_pinned():
    """Each defaulted parameter is passed by some call in the package, or
    pinned with its reason; a pin the package's own calls make needless
    fails too."""
    modules = sorted(SOURCE.glob("*.py"))
    assert _unpassed_knobs(modules, set(PINNED_KNOBS)) == []
    unpassed = {entry.split(":")[1] for entry in _unpassed_knobs(modules, set())}
    assert set(PINNED_KNOBS) <= unpassed


def test_the_guard_sees_a_planted_unpassed_knob(tmp_path):
    (tmp_path / "a.py").write_text(
        "def solve(a, b=1, *, depth=2, width=3):\n    return a\n"
        "def main(argv=None):\n    return argv\n"
        "def spread(x=0, y=0):\n    return x\n"
        "def scale(x, k=2):\n    return x * k\n"
    )
    (tmp_path / "b.py").write_text(
        "import a\nfrom a import main, scale, spread\n"
        "a.solve(1, 2, depth=3)\nmain()\nspread(*[1])\nscale(1, **{})\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    # b by position and depth by keyword are passed, x and y through *, k through **
    assert _unpassed_knobs(paths, set()) == ["a.py:solve(width=)", "a.py:main(argv=)"]
    assert _unpassed_knobs(paths, {"main(argv=)"}) == ["a.py:solve(width=)"]


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


def test_the_guard_sees_an_unpinned_public_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['public', 'pinned', 'called']\n"
        "def public():\n    return 0\n"
        "def pinned():\n    return 1\n"
        "def called():\n    return 2\n"
    )
    (tmp_path / "b.py").write_text("from a import called\nx = called()\n")
    paths = sorted(tmp_path.glob("*.py"))
    # a name in __all__ is a string, not a reference: only the pin keeps it
    assert _unreferenced(paths, {"pinned"}) == ["a.py:public"]
    assert _needless_pins(paths, {"pinned", "called"}) == ["called"]


def test_the_guard_sees_a_planted_dead_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __repr__(self):\n        return 'A'\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def dead(self):\n        return self.dead()\n"
        "    @property\n    def shown(self):\n        return 2\n"
        "    @property\n    def hidden(self):\n        return 3\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n"
        "    @classmethod\n    def of(cls):\n        return cls.make()\n"
        "    @classmethod\n    def unmade(cls):\n        return cls()\n"
        "class B:\n"
        "    @classmethod\n    def unmade(cls):\n        return cls()\n"
        "    def error(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import A, B\nx = A.of().used() + A().shown\ny = B.unmade()\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    # A.unmade is named only as B.unmade; B.error is a hook only when listed
    assert _unreferenced(paths, set()) == [
        "a.py:A.dead", "a.py:A.hidden", "a.py:A.unmade", "a.py:B.error"
    ]

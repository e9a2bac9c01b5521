"""No float in any verdict: a static guard over the package source.

Every module of `wrat` is parsed with `ast` and searched for a float or
complex literal, a `float(...)` or `complex(...)` call, and any use of
`cmath`.  The only sites allowed are the two numeric helpers of
`frobenius`: `choose_truncation`, whose spectral proxy only proposes the
truncation index N that the contraction route then checks exactly (C/N < 1),
and `evaluate`, which returns numbers for display.  Neither feeds a verdict
or a certified bound.
"""
import ast
from pathlib import Path

import wrat

SOURCE = Path(wrat.__file__).parent
ALLOWED = {("frobenius.py", "choose_truncation"), ("frobenius.py", "evaluate")}


def _inexact(node) -> str | None:
    """What makes node a float site, or None."""
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return f"literal {node.value!r}"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("float", "complex")
    ):
        return f"{node.func.id}(...) call"
    if isinstance(node, ast.Name) and node.id == "cmath":
        return "cmath"
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [a.name for a in node.names] + [getattr(node, "module", None)]
        if "cmath" in names:
            return "cmath import"
    return None


def _sites(path: Path):
    """(line, what) for each float site in path outside the allowed functions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) in ALLOWED
    ]
    skip = {id(n) for fn in allowed for n in ast.walk(fn)}
    for node in ast.walk(tree):
        what = _inexact(node)
        if what and id(node) not in skip:
            yield node.lineno, what


def test_no_float_outside_the_numeric_helpers():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [f"{p.name}:{line}: {what}" for p in modules for line, what in _sites(p)]
    assert not found, "\n".join(found)


def test_the_guard_sees_each_kind_of_site(tmp_path):
    src = tmp_path / "frobenius.py"
    src.write_text(
        "import cmath\n"
        "def f(x):\n"
        "    return float(x) + 0.5 + complex(x) + 1j + cmath.pi\n"
        "def evaluate(x):\n"
        "    return float(x) + 0.5\n"
    )
    assert sorted(what for _, what in _sites(src)) == [
        "cmath", "cmath import", "complex(...) call", "float(...) call",
        "literal 0.5", "literal 1j",
    ]

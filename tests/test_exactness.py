"""No float in any verdict: a static guard over the package source.

Every module of `wrat` is parsed with `ast` and searched for a float or
complex literal, a `float(...)` or `complex(...)` call, and any use of
`cmath`.  The one site allowed is the numeric helper of `frobenius`,
`choose_truncation`, whose spectral proxy only proposes the truncation
index N that the contraction route then checks exactly (C/N < 1); it feeds
no verdict and no certified bound.

True division (`/` or `/=`) of two ints makes a float with none of those
sites, so it is a site too, outside its own allow-list: `frobenius.p_eval`,
the Horner step of that proxy; `choose_truncation`;
`frobenius.contraction_solve`, whose divisions take `Fraction` operands; and
`orbits.data_dir`, which joins paths.  Exact code divides with
`Fraction(num, den)` or `//`.

Every entry of either allow-list names a module-level function of its
file, so a stale entry cannot excuse a later function of the same name.
"""
import ast
from pathlib import Path

import wrat

SOURCE = Path(wrat.__file__).parent
ALLOWED = {("frobenius.py", "choose_truncation")}
DIVISION_ALLOWED = {
    ("frobenius.py", "p_eval"),
    ("frobenius.py", "choose_truncation"),
    ("frobenius.py", "contraction_solve"),
    ("orbits.py", "data_dir"),
}


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


def _division(node) -> str | None:
    """"true division" when node is a `/` or a `/=`, else None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    return None


def _functions(path: Path) -> set[str]:
    """The names of the module-level functions of path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def _stale(allowed, source: Path) -> list[tuple[str, str]]:
    """The (file, function) entries of allowed that name no module-level
    function of that file under source."""
    return sorted(
        (name, fn) for name, fn in allowed
        if not (source / name).is_file() or fn not in _functions(source / name)
    )


def _sites(path: Path):
    """(line, what) for each float site in path outside the functions allowed
    for its kind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for kind, allowed in ((_inexact, ALLOWED), (_division, DIVISION_ALLOWED)):
        skip = {
            id(n)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in allowed
            for n in ast.walk(fn)
        }
        for node in ast.walk(tree):
            what = kind(node)
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
        "def choose_truncation(x):\n"
        "    return float(x) + 0.5\n"
    )
    assert sorted(what for _, what in _sites(src)) == [
        "cmath", "cmath import", "complex(...) call", "float(...) call",
        "literal 0.5", "literal 1j",
    ]


def test_the_guard_sees_true_division_outside_its_allow_list(tmp_path):
    src = tmp_path / "frobenius.py"
    src.write_text(
        "def f(a, b):\n"
        "    a /= b\n"
        "    return a / b + a // b\n"
        "def contraction_solve(a, b):\n"
        "    return a / b\n"
        "def evaluate(a, b):\n"
        "    return a / b\n"
    )
    assert sorted(_sites(src)) == [(2, "true division"), (3, "true division"), (7, "true division")]
    other = tmp_path / "slots.py"
    other.write_text("def contraction_solve(a, b):\n    return a / b\n")
    assert list(_sites(other)) == [(2, "true division")]


def test_every_allowed_site_names_a_function():
    assert _stale(ALLOWED | DIVISION_ALLOWED, SOURCE) == []


def test_the_guard_sees_a_stale_allow_list_entry(tmp_path):
    (tmp_path / "frobenius.py").write_text(
        "def choose_truncation(x):\n    return x\n"
        "class Series:\n    def evaluate(self):\n        return 0.5\n"
    )
    allowed = {
        ("frobenius.py", "choose_truncation"),
        ("frobenius.py", "evaluate"),  # only a method of that name is left
        ("orbits.py", "data_dir"),  # no such file
    }
    assert _stale(allowed, tmp_path) == [
        ("frobenius.py", "evaluate"), ("orbits.py", "data_dir")
    ]

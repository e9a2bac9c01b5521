"""Every layer the benchmark tracer wraps must still exist in `wrat`.

`bench/tracer.py` reports an entry point that no longer resolves as absent,
so a rename would silently turn its per-layer metric into null.  The tuple
is read from the file's source; nothing under `bench/` is imported or run.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def entry_points():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("ENTRY_POINTS not found in bench/tracer.py")


def test_every_traced_entry_point_resolves():
    points = entry_points()
    assert points
    missing = [
        f"{module}.{func}"
        for module, func in points
        if not callable(getattr(importlib.import_module(f"wrat.{module}"), func, None))
    ]
    assert not missing

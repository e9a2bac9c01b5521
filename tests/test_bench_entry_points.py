"""Every layer the benchmark tracer wraps must still exist in `wrat`.

`bench/tracer.py` reports an entry point that no longer resolves as absent,
so a rename would silently turn its per-layer metric into null.  The tracer
imports `wrat.cli` and then wraps what it finds in `sys.modules`, so every
module it names must be registered there by that import alone.  The tuple
is read from the file's source; nothing under `bench/` is imported or run.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import wrat

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


# what `Tracer.install` sees: sys.modules right after `import wrat.cli`
INSTALL_PROBE = """
import json, sys
import wrat.cli
points = json.loads(sys.argv[1])
registered = [f"wrat.{m}" in sys.modules for m, _ in points]
callable_ = [callable(getattr(sys.modules.get(f"wrat.{m}"), f, None)) for m, f in points]
print(json.dumps([registered, callable_]))
"""


def test_entry_points_are_registered_by_importing_the_cli():
    points = entry_points()
    src = str(Path(wrat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", INSTALL_PROBE, json.dumps(points)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    registered, callable_ = json.loads(out.stdout)
    names = [f"{m}.{f}" for m, f in points]
    assert [n for n, ok in zip(names, registered) if not ok] == []
    assert [n for n, ok in zip(names, callable_) if not ok] == []


def test_public_names_resolve_and_are_listed():
    listed = set(dir(wrat))
    assert [n for n in wrat.__all__ if n not in listed] == []
    assert all(getattr(wrat, n) is not None for n in wrat.__all__)

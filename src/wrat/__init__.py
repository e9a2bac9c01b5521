"""Exact Lie-algebra structure, graded rationality checks, series solving.

Submodules load on first use.  `import wrat` registers each one in
`sys.modules` through `importlib.util.LazyLoader` and binds it here, so a
module's code runs on the first attribute read from it, and a request runs
only the modules it calls.  The public names below resolve through the
module `__getattr__`.

Every refusal is one of two exception categories defined here, which a
caller catches without loading the module that raised it: `BadInput` (the
CLI's exit 3) and `RoutesDisagree` (exit 2).
"""
import importlib.util
import sys

__version__ = "0.1.0"


class BadInput(ValueError):
    """The input is not an instance: no such type, partition, record or system."""


class RoutesDisagree(RuntimeError):
    """The fast and exact routes reach different verdicts on the same input."""


# public name -> submodule defining it
_PUBLIC = {
    "CartanElement": "rootsys",
    "ChevalleyTable": "liealg",
    "ClassicalPartition": "classical",
    "ConditionVerdict": "slots",
    "DynkinGrading": "grading",
    "OrbitRecord": "orbits",
    "RootSystem": "rootsys",
    "SimpleType": "rootsys",
    "Sl2Triple": "grading",
    "build": "rootsys",
    "build_chevalley": "liealg",
    "build_classical": "classical",
    "check_classical": "classical",
    "check_record": "ratcheck",
    "complete_sl2": "grading",
    "exact_condition": "ratcheck",
    "fast_condition": "ratcheck",
    "grade": "grading",
    "is_admissible_level": "rootsys",
    "load_records": "orbits",
    "lookup_exceptional": "orbits",
    "search_v": "ratcheck",
    "verify_self_contragredient": "ratcheck",
}

__all__ = [*_PUBLIC, "BadInput", "RoutesDisagree", "__version__"]


def _lazy(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in (
    "_linalg", "_serde", "rootsys", "liealg", "grading", "slots", "orbits", "ratcheck",
    "classical", "frobenius",
):
    _lazy(_name)


def __getattr__(name: str):
    if name in _PUBLIC:
        return getattr(globals()[_PUBLIC[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_PUBLIC})

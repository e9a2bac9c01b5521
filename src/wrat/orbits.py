"""Bundled nilpotent-orbit data.

The package ships one JSON record per exceptional pairing (algebra, level
denominator q) for which the relevant grading has half-integer steps.  Each
record carries a weighted-diagram characteristic h, the positive roots whose
root vectors sum to the nilpotent f, and the distinguished Cartan element v
centralizing f.  Records use Bourbaki numbering; for the E series the JSON
splits a diagram into the branch-node value ("top", node 2) and the chain
values ("row", nodes 1,3,4,...), which flatten back to coefficient order
1..n.  `lookup_exceptional` is the one resolver of a record: by q, by
orbit label, or by both, which must agree.

The classical side (types B, C, D) is realized with matrices in
`classical`, which a classical request loads instead of this module.
`build_classical`, `ClassicalPartition` and `InvalidPartition` still
resolve here, through the module `__getattr__`, to the `classical` objects
themselves: views kept for the benchmark's files, whose tracer names the
layer `orbits.build_classical` and whose self-tests import the three from
here, until ROADMAP item 1 settles the layer names, as `grading.ad_block`
is kept.  Importing this module does not load `classical`.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from . import BadInput
from ._serde import rat_from_json, unique_keys
from .rootsys import CartanElement, IllegalType, RootSystem, SimpleType, build, pairing


class NotExceptionalType(BadInput):
    """The algebra is not one of G2, F4, E6, E7, E8."""


class UnknownRoot(BadInput):
    """A listed coefficient vector is not a positive root of the algebra."""


class InvalidRecord(BadInput):
    """A data record is structurally or arithmetically inconsistent."""


class OrbitRecord(NamedTuple):
    algebra: SimpleType
    label: str
    q: tuple[int, ...]
    h: CartanElement
    f_roots: tuple[tuple[int, ...], ...]
    v: CartanElement

    def root_system(self) -> RootSystem:
        return build(self.algebra)


def _diagram_from_json(obj, family: str, rank: int) -> tuple[Fraction, ...]:
    row = [rat_from_json(x) for x in obj["row"]]
    top = obj.get("top")
    if family == "E":
        if top is None:
            raise InvalidRecord("E-series diagram needs a branch-node value")
        # row[:1], not row[0]: an empty row fails the length check below
        flat = row[:1] + [rat_from_json(top)] + row[1:]
    else:
        if top is not None:
            raise InvalidRecord(f"type {family} has no branch node")
        flat = row
    if len(flat) != rank:
        raise InvalidRecord(f"diagram has {len(flat)} values, expected {rank}")
    return tuple(flat)


def _json_int(x, name: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidRecord(f"{name} must be a JSON integer, got {x!r}")
    return x


def _json_str(x, name: str) -> str:
    if not isinstance(x, str):
        raise InvalidRecord(f"{name} must be a JSON string, got {x!r}")
    return x


def record_from_json(obj: dict) -> OrbitRecord:
    try:
        st = SimpleType.parse(_json_str(obj["algebra"], "the algebra"))
        label = _json_str(obj["label"], "the label")
        q = tuple(_json_int(x, "a q value") for x in obj["q"])
        h = _diagram_from_json(obj["h"], st.family, st.rank)
        v = _diagram_from_json(obj["v"], st.family, st.rank)
        f_roots = tuple(
            tuple(_json_int(x, "a root coefficient") for x in r) for r in obj["f_roots"]
        )
    except InvalidRecord:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRecord(f"malformed record: {exc}") from exc
    if any(len(r) != st.rank for r in f_roots):
        raise InvalidRecord("root vector has wrong length")
    if any(x.denominator != 1 for x in h):
        raise InvalidRecord("characteristic values must be integers")
    return OrbitRecord(
        algebra=st,
        label=label,
        q=q,
        h=CartanElement.of(h),
        f_roots=f_roots,
        v=CartanElement.of(v),
    )


def validate_record(rec: OrbitRecord) -> None:
    """Arithmetic sanity: roots exist, f has degree -1, v centralizes f."""
    rs = rec.root_system()
    for c in rec.f_roots:
        if c not in rs.positive_set:
            raise UnknownRoot(f"{c} is not a positive root of {rec.algebra}")
    if len(set(rec.f_roots)) != len(rec.f_roots):
        raise InvalidRecord("repeated root in f")
    for c in rec.f_roots:
        if pairing(rs, c, rec.h) != 2:
            raise InvalidRecord(f"root {c} is not in degree -1 for h")
        if pairing(rs, c, rec.v) != 0:
            raise InvalidRecord(f"v does not centralize the root vector at {c}")
    if not rec.q or any(x < 2 for x in rec.q):
        raise InvalidRecord("q values must be integers >= 2")


def data_dir() -> Path:
    """Directory of record files; WRAT_DATA_DIR overrides the bundled set."""
    override = os.environ.get("WRAT_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


@lru_cache(maxsize=None)
def _load_dir(path_str: str) -> tuple[OrbitRecord, ...]:
    path = Path(path_str)
    recs = []
    for fn in sorted(path.glob("*.json")):
        with open(fn) as fh:
            try:
                obj = json.load(fh, object_pairs_hook=unique_keys(InvalidRecord))
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise InvalidRecord(f"cannot parse record {fn.name}: {exc}") from exc
        rec = record_from_json(obj)
        validate_record(rec)
        recs.append(rec)
    return tuple(recs)


def load_records() -> tuple[OrbitRecord, ...]:
    return _load_dir(str(data_dir()))


def lookup_exceptional(algebra, q: int | None = None, label: str | None = None):
    """The bundled record of algebra with level denominator q, with orbit
    label label, or with both; None when q alone names none (its grading is
    even or outside the table).

    Raises IllegalType when neither is given or the label's record does not
    belong to q, and NotExceptionalType for an unknown label or, by q, a
    classical family (use the partition interface for those).
    """
    st = SimpleType.parse(algebra) if isinstance(algebra, str) else algebra
    if q is None and label is None:
        raise IllegalType("need q or label to pick a record")
    if label is None:
        if st.family not in ("E", "F", "G"):
            raise NotExceptionalType(f"{st} is classical; no bundled record applies")
        return next((rec for rec in load_records() if rec.algebra == st and q in rec.q), None)
    for rec in load_records():
        if rec.algebra == st and rec.label == label:
            if q is not None and q not in rec.q:
                raise IllegalType(f"record {st} {label} belongs to q = {rec.q}, not {q}")
            return rec
    raise NotExceptionalType(f"no bundled record {st} with label {label!r}")


def __getattr__(name: str):
    if name in ("build_classical", "ClassicalPartition", "InvalidPartition"):
        from . import classical

        return getattr(classical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""JSON encodings for every domain type.

All encodings are pure integer data and round-trip bit-exactly; dumps()
fixes key order and separators so identical inputs serialize identically.
Rational vertices (dual polygons) are encoded as [numerator, denominator]
pairs.
"""

from __future__ import annotations

import json

from .genset import EMPTY_PGS, PrimGenSet, fiber_structure_for
from .links import Constituent, ElementaryLink, sequence_from_steps
from .polytopes import hull
from .web import ConnectCertificate, Relation


def strict_int(x):
    """An integer from JSON as is; bool, float and the rest raise ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def polytope_to_json(p):
    return {"dim": p.dim, "points": [list(v) for v in p.vertices]}


def _points_from_json(data):
    """The integer points of data["points"], each of length data["dim"] when
    that is given; a malformed list raises ValueError."""
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError("expected an object with a list of points")
    dim = data.get("dim")
    out = []
    for pt in data["points"]:
        if not isinstance(pt, list):
            raise ValueError(f"expected a point as a list of integers, got {pt!r}")
        if dim is not None and len(pt) != dim:
            raise ValueError(f"point {pt!r} does not have the declared dimension {dim!r}")
        out.append(tuple(strict_int(x) for x in pt))
    return out


def polytope_from_json(data):
    return hull(_points_from_json(data))


def rational_polytope_to_json(q):
    return {
        "dim": q.dim,
        "vertices": [[[v.numerator, v.denominator] for v in vert] for vert in q.vertices],
    }


def pgs_to_json(a):
    return {"dim": a.dim, "points": [list(v) for v in a.points], "as": "pgs"}


def pgs_from_json(data):
    points = _points_from_json(data)
    return PrimGenSet(data["dim"], points)


def fiber_structure_to_json(fs):
    return {
        "parent": pgs_to_json(fs.parent),
        "fiber": [list(v) for v in fs.fiber],
        "projection": [list(r) for r in fs.projection.matrix],
        "base": pgs_to_json(fs.base) if fs.base is not EMPTY_PGS else {"dim": 0, "points": [], "as": "pgs"},
        "irreducible": fs.irreducible,
        "mori": fs.mori,
    }


def fiber_structure_from_json(data):
    parent = pgs_from_json(data["parent"])
    fiber = [tuple(strict_int(x) for x in v) for v in data["fiber"]]
    fs = fiber_structure_for(parent, fiber)
    if [list(r) for r in fs.projection.matrix] != data["projection"]:
        raise ValueError("projection matrix does not match the fiber")
    return fs


def _constituent_to_json(c):
    return {
        "dim": c.pgs.dim,
        "points": [list(v) for v in c.points],
        "fiber": [list(v) for v in c.fiber],
    }


def _constituent_from_json(data):
    pts = [tuple(strict_int(x) for x in v) for v in data["points"]]
    fiber = [tuple(strict_int(x) for x in v) for v in data["fiber"]]
    return Constituent(PrimGenSet(data["dim"], pts), fiber)


def link_to_json(link):
    return {
        "kind": link.kind,
        "mode": link.mode,
        "left": _constituent_to_json(link.left),
        "middle": None if link.middle is None else _constituent_to_json(link.middle),
        "right": _constituent_to_json(link.right),
    }


def link_from_json(data):
    return ElementaryLink(
        kind=data["kind"],
        left=_constituent_from_json(data["left"]),
        middle=None if data["middle"] is None else _constituent_from_json(data["middle"]),
        right=_constituent_from_json(data["right"]),
        mode=data["mode"],
    )


def sequence_to_json(seq):
    return {
        "class": seq.class_constraint,
        "steps": [link_to_json(s) for s in seq.steps],
        "joints": [{"kind": j[0]} for j in seq.joints],
    }


def sequence_from_json(data):
    steps = [link_from_json(s) for s in data["steps"]]
    return sequence_from_steps(steps, data.get("class", "none"))


def relation_to_json(r):
    return {
        "rel": r.rel,
        "witness": None if r.witness is None else list(r.witness),
        "origin": list(r.origin),
    }


def relation_from_json(data):
    witness = None if data["witness"] is None else tuple(strict_int(x) for x in data["witness"])
    origin = tuple(data["origin"])
    if origin and origin[0] == "link":
        origin = ("link", strict_int(origin[1]))
    return Relation(data["rel"], witness, origin)


def certificate_to_json(cert):
    return {
        "class": cert.class_constraint,
        "chain": [polytope_to_json(p) for p in cert.chain],
        "relations": [relation_to_json(r) for r in cert.relations],
        "sequence": sequence_to_json(cert.sequence),
    }


def certificate_from_json(data):
    return ConnectCertificate(
        chain=tuple(polytope_from_json(p) for p in data["chain"]),
        relations=tuple(relation_from_json(r) for r in data["relations"]),
        sequence=sequence_from_json(data["sequence"]),
        class_constraint=data["class"],
    )

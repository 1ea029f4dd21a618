"""JSON encodings for every domain type.

All encodings are pure integer data, and those read back round-trip bit-exactly
(generating sets and fiber structures are only written); dumps() fixes key
order and separators.
Rational vertices (dual polygons) are encoded as [numerator, denominator]
pairs.
"""

from __future__ import annotations

import json

from .genset import PrimGenSet
from .links import Constituent, ElementaryLink, sequence_from_steps
from .polytopes import CLASS_NAMES, hull
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


def _fields(data, what, *keys):
    """data[key] for each key; ValueError unless data is an object with them all."""
    if not isinstance(data, dict) or any(k not in data for k in keys):
        raise ValueError(f"expected a {what} object with the keys {', '.join(keys)}")
    return [data[k] for k in keys]


def _list(x, what):
    if not isinstance(x, list):
        raise ValueError(f"expected {what} as a list, got {x!r}")
    return x


def _class(x):
    if not isinstance(x, str) or x not in CLASS_NAMES:
        raise ValueError(f"unknown class {x!r}")
    return x


def _points(points, dim=None):
    """Integer points from a JSON list, each of length dim when that is given;
    a malformed list raises ValueError."""
    out = []
    for pt in _list(points, "points"):
        if not isinstance(pt, list):
            raise ValueError(f"expected a point as a list of integers, got {pt!r}")
        if dim is not None and len(pt) != dim:
            raise ValueError(f"point {pt!r} does not have the declared dimension {dim!r}")
        out.append(tuple(strict_int(x) for x in pt))
    return out


def _points_from_json(data):
    """The points of data["points"], checked against data["dim"] when given."""
    if not isinstance(data, dict):
        raise ValueError("expected an object with a list of points")
    return _points(data.get("points"), data.get("dim"))


def polytope_from_json(data):
    return hull(_points_from_json(data))


def rational_polytope_to_json(q):
    return {
        "dim": q.dim,
        "vertices": [[[v.numerator, v.denominator] for v in vert] for vert in q.vertices],
    }


def pgs_to_json(a):
    return {"dim": a.dim, "points": [list(v) for v in a.points], "as": "pgs"}


def fiber_structure_to_json(fs):
    return {
        "parent": pgs_to_json(fs.parent),
        "fiber": [list(v) for v in fs.fiber],
        "projection": [list(r) for r in fs.projection.matrix],
        "base": pgs_to_json(fs.base),
        "irreducible": fs.irreducible,
        "mori": fs.mori,
    }


def _constituent_to_json(c):
    return {
        "dim": c.pgs.dim,
        "points": [list(v) for v in c.points],
        "fiber": [list(v) for v in c.fiber],
    }


def _constituent_from_json(data):
    dim, points, fiber = _fields(data, "link column", "dim", "points", "fiber")
    pts = _points(points, strict_int(dim))
    if not pts:
        raise ValueError("a link column needs at least one point")
    return Constituent(PrimGenSet(dim, pts), _points(fiber, dim))


def link_to_json(link):
    return {
        "kind": link.kind,
        "mode": link.mode,
        "left": _constituent_to_json(link.left),
        "middle": None if link.middle is None else _constituent_to_json(link.middle),
        "right": _constituent_to_json(link.right),
    }


def link_from_json(data):
    kind, mode, left, middle, right = _fields(data, "link", "kind", "mode", "left", "middle", "right")
    return ElementaryLink(
        kind=kind,
        left=_constituent_from_json(left),
        middle=None if middle is None else _constituent_from_json(middle),
        right=_constituent_from_json(right),
        mode=mode,
    )


def sequence_to_json(seq):
    return {
        "class": seq.class_constraint,
        "steps": [link_to_json(s) for s in seq.steps],
    }


def sequence_from_json(data):
    (steps,) = _fields(data, "sequence", "steps")
    steps = [link_from_json(s) for s in _list(steps, "steps")]
    return sequence_from_steps(steps, _class(data.get("class", "none")))


def relation_to_json(r):
    return {
        "rel": r.rel,
        "witness": None if r.witness is None else list(r.witness),
        "origin": list(r.origin),
    }


def relation_from_json(data):
    rel, witness, origin = _fields(data, "relation", "rel", "witness", "origin")
    if not isinstance(rel, str):
        raise ValueError(f"expected a relation name, got {rel!r}")
    if witness is not None:
        witness = tuple(strict_int(x) for x in _list(witness, "witness"))
    if origin == ["reduction"]:
        return Relation(rel, witness, ("reduction",))
    if isinstance(origin, list) and len(origin) == 2 and origin[0] == "link":
        return Relation(rel, witness, ("link", strict_int(origin[1])))
    raise ValueError(f"expected the origin [\"reduction\"] or [\"link\", step], got {origin!r}")


def certificate_to_json(cert):
    return {
        "class": cert.class_constraint,
        "chain": [polytope_to_json(p) for p in cert.chain],
        "relations": [relation_to_json(r) for r in cert.relations],
        "sequence": sequence_to_json(cert.sequence),
    }


def certificate_from_json(data):
    cls, chain, relations, sequence = _fields(data, "certificate", "class", "chain", "relations", "sequence")
    return ConnectCertificate(
        chain=tuple(polytope_from_json(p) for p in _list(chain, "chain")),
        relations=tuple(relation_from_json(r) for r in _list(relations, "relations")),
        sequence=sequence_from_json(sequence),
        class_constraint=_class(cls),
    )

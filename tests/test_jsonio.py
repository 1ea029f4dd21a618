import json

import pytest

from fanoweb.genset import PrimGenSet, fiber_structure_for, fiber_structures, from_polytope
from fanoweb.jsonio import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    fiber_structure_to_json,
    link_from_json,
    link_to_json,
    polytope_from_json,
    polytope_to_json,
    rational_polytope_to_json,
    sequence_from_json,
    sequence_to_json,
)
from fanoweb.links import blowdown_link, elementary_transform, enumerate_links, plane_polygon, sequence_from_steps
from fanoweb.polytopes import hull, polar_dual
from fanoweb.web import GEN_S, connect, enumerate_class_polygons
from test_links import _box2_mori_states


def test_polytope_roundtrip_and_hull_on_load():
    p = hull([(1, 0), (0, 1), (-1, 0), (-2, -1)])
    data = polytope_to_json(p)
    assert polytope_from_json(data) == p
    # a generating set, not vertex list, also loads
    assert polytope_from_json({"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [-2, -1]]}) == p


def test_polytope_json_dim_mismatch():
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 3, "points": [[1, 0], [0, 1], [-1, -1]]})


def test_link_roundtrip():
    for link in (elementary_transform(0), blowdown_link(1), blowdown_link(-1)):
        data = link_to_json(link)
        assert link_from_json(data) == link


def test_sequence_roundtrip():
    seq = sequence_from_steps([elementary_transform(0), elementary_transform(1)], "canonical")
    data = sequence_to_json(seq)
    assert sequence_from_json(data) == seq


def test_certificate_roundtrip():
    tri = plane_polygon()
    s_tri = hull(GEN_S.apply_all(tri.vertices))
    cert = connect(tri, s_tri, "terminal")
    data = certificate_to_json(cert)
    back = certificate_from_json(data)
    assert back == cert
    # serialization is canonical: identical objects give identical bytes
    assert dumps(data) == dumps(certificate_to_json(back))


def _fiber_structure_from_json(data):
    """A fiber structure rebuilt from the parent and fiber of its JSON;
    fiber structures and generating sets are written only, so the reader
    lives here."""
    parent = data["parent"]
    assert parent["as"] == "pgs"
    pgs = PrimGenSet(parent["dim"], [tuple(v) for v in parent["points"]])
    return fiber_structure_for(pgs, [tuple(v) for v in data["fiber"]])


def _with_left_column(data):
    """The JSON of a valid link with its left column replaced by data; a
    column object keeps the valid fiber."""
    link = link_to_json(blowdown_link(1))
    assert link_from_json(link) == blowdown_link(1)
    fiber = link["left"]["fiber"]
    link["left"] = dict(data, fiber=fiber) if isinstance(data, dict) else data
    return link


def test_box2_links_and_fiber_structures_round_trip_verbatim():
    """Every link from a box-2 Mori state and every fiber structure of a
    box-2 canonical polygon reads back to the same JSON, byte for byte."""
    links = [link for c, cls in _box2_mori_states() for link in enumerate_links(c, cls, 2)]
    structures = [
        fs for p in enumerate_class_polygons(2, "canonical") for fs in fiber_structures(from_polytope(p))
    ]
    assert links and structures
    for items, to_json, from_json in (
        (links, link_to_json, link_from_json),
        (structures, fiber_structure_to_json, _fiber_structure_from_json),
    ):
        for x in items:
            s = dumps(to_json(x))
            assert dumps(to_json(from_json(json.loads(s)))) == s


def test_rational_vertices_encoding():
    d = polar_dual(hull([(1, 0), (0, 1), (-1, -1)]))
    data = rational_polytope_to_json(d)
    flat = json.dumps(data)
    assert "denominator" not in flat
    for vert in data["vertices"]:
        for num, den in vert:
            assert isinstance(num, int) and isinstance(den, int) and den >= 1


@pytest.mark.parametrize(
    "points",
    [[[1.5, 0], [0, 1], [-1, -1]], [[True, 0], [0, 1], [-1, -1]]],
)
def test_non_integer_coordinates_rejected(points):
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 2, "points": points})
    with pytest.raises(ValueError):
        link_from_json(_with_left_column({"dim": 2, "points": points}))


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 2, "points": 5},
        {"dim": 2, "points": [5, [0, 1], [-1, -1]]},
        {"dim": 2, "points": [[1, 0, 0], [0, 1], [-1, -1]]},
        {"points": [[1, 0, 0], [0, 1], [-1, -1]]},
        [[1, 0], [0, 1], [-1, -1]],
    ],
)
def test_malformed_point_lists_rejected(data):
    with pytest.raises(ValueError):
        polytope_from_json(data)
    with pytest.raises(ValueError):
        link_from_json(_with_left_column(data))


def test_certificate_with_non_integer_witness_rejected():
    tri = plane_polygon()
    data = certificate_to_json(connect(tri, hull(GEN_S.apply_all(tri.vertices)), "terminal"))
    rel = next(r for r in data["relations"] if r["witness"] is not None)
    rel["witness"] = [float(x) for x in rel["witness"]]
    with pytest.raises(ValueError):
        certificate_from_json(data)


def _cremona_certificate_json():
    tri = plane_polygon()
    return certificate_to_json(connect(tri, hull(GEN_S.apply_all(tri.vertices)), "terminal"))


def _set(*path_and_value):
    """A mutation of certificate JSON: the value at the end of the path."""
    *path, key, value = path_and_value

    def mutate(data):
        for k in path:
            data = data[k]
        if value is _DROP:
            del data[key]
        else:
            data[key] = value

    return mutate


_DROP = object()


@pytest.mark.parametrize(
    "mutate",
    [
        _set("chain", 5),
        _set("relations", {"rel": "equal"}),
        _set("class", ["terminal"]),
        _set("class", "bogus"),
        _set("sequence", _DROP),
        _set("relations", 0, 7),
        _set("relations", 0, "witness", 5),
        _set("relations", 0, "origin", []),
        _set("relations", 0, "origin", ["link", "x"]),
        _set("relations", 0, "rel", ["equal"]),
        _set("sequence", "steps", 5),
        _set("sequence", "class", 3),
        _set("sequence", "steps", 0, "left", _DROP),
        _set("sequence", "steps", 0, "left", 5),
        _set("sequence", "steps", 0, "left", "points", 5),
        _set("sequence", "steps", 0, "left", "fiber", [[1, 0, 0]]),
        _set("sequence", "steps", 0, "left", "dim", "2"),
        _set("sequence", "steps", 0, "middle", []),
        _set("sequence", "steps", 0, "kind", ["I_m"]),
    ],
)
def test_malformed_certificate_rejected(mutate):
    data = _cremona_certificate_json()
    mutate(data)
    with pytest.raises(ValueError):
        certificate_from_json(data)


@pytest.mark.parametrize("data", [5, [], None, "certificate"])
def test_certificate_not_an_object_rejected(data):
    with pytest.raises(ValueError):
        certificate_from_json(data)

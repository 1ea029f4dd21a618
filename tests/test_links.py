import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoweb.genset import PrimGenSet, from_polytope, mori_fiber_structures
from fanoweb.lattice import UnimodularMap, mat_mul
from fanoweb.links import (
    Constituent,
    ElementaryLink,
    _enumerate_links,
    blowdown_link,
    box_primitives,
    conjugate,
    elementary_transform,
    enumerate_links,
    inverse,
    link_panels,
    plane_polygon,
    ruled_polygon,
    ruling_swap,
    sequence_from_steps,
    sequence_panels,
    slide_link,
    validate_link,
    validate_sequence,
)
from fanoweb.polytopes import classify, hull
from fanoweb.web import enumerate_class_polygons
from test_memo import _clear_memos

U_MAT = UnimodularMap(((-1, 0), (0, 1)))
S_MAT = UnimodularMap(((0, -1), (1, 0)))


def test_elementary_transform_m0_shape():
    link = elementary_transform(0)
    assert link.kind == "II_ni"
    assert validate_link(link).ok
    assert set(link.middle.points) == {(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)}
    for c in (link.left, link.middle, link.right):
        assert classify(hull(c.points)).terminal


def test_elementary_transform_m1_canonical():
    link = elementary_transform(1)
    assert validate_link(link).ok
    for c in (link.left, link.middle, link.right):
        flags = classify(hull(c.points))
        assert flags.canonical
    # middle of the next family member stops being canonical
    link2 = elementary_transform(2)
    assert validate_link(link2).ok
    assert not classify(hull(link2.middle.points)).canonical


def test_elementary_transform_family_validates():
    for m in range(4):
        for sign in (1, -1):
            link = elementary_transform(m, sign)
            rep = validate_link(link)
            assert rep.ok, (m, sign, rep.failed())
            assert link.kind == "II_ni"


def test_elementary_transform_is_the_bottom_slide():
    fiber = ((-1, 0), (1, 0))
    for m in range(4):
        low = from_polytope(ruled_polygon(m))
        high = from_polytope(ruled_polygon(m + 1))
        mid = from_polytope(hull(low.points + high.points))
        up = ElementaryLink(
            "II_ni", Constituent(low, fiber), Constituent(mid, fiber), Constituent(high, fiber), "polytope"
        )
        assert elementary_transform(m, 1).key() == up.key()
        assert elementary_transform(m, -1).key() == inverse(up).key()
    with pytest.raises(ValueError, match="one step"):
        slide_link((0, 0), (1, -1))


def test_blowdown_link_shape():
    link = blowdown_link(1)
    assert link.kind == "III_m"
    assert validate_link(link).ok
    assert link.left.points == from_polytope(plane_polygon()).points
    assert link.left.fiber == link.left.points
    assert link.right.fiber == ((-1, 0), (1, 0))
    inv = blowdown_link(-1)
    assert inv.kind == "I_m"
    assert validate_link(inv).ok


def test_ruling_swap_shape():
    link = ruling_swap(1)
    assert link.kind == "IV_m"
    assert validate_link(link).ok
    assert link.left.fiber == ((-1, 0), (1, 0))
    assert link.right.fiber == ((0, -1), (0, 1))
    inv = ruling_swap(-1)
    assert validate_link(inv).ok
    assert inv.left.fiber == ((0, -1), (0, 1))


def test_invalid_link_reports_conditions():
    # right side fails to be a generating set
    with pytest.raises(ValueError):
        PrimGenSet(2, [(1, 0), (0, 1), (-1, 0)])
    square = from_polytope(ruled_polygon(0))
    bad = ElementaryLink(
        kind="I_d",
        left=Constituent(square, ((-1, 0), (1, 0))),
        middle=None,
        right=Constituent(from_polytope(ruled_polygon(1)), ((-1, 0), (1, 0))),
        mode="set",
    )
    rep = validate_link(bad)
    assert not rep.ok
    assert any("top reduction" in name for name, ok, _ in rep.checks if not ok)


def test_inverse_involution():
    for link in (elementary_transform(0), blowdown_link(1), ruling_swap(1)):
        inv = inverse(link)
        assert validate_link(inv).ok
        assert inverse(inv) == link
    assert inverse(blowdown_link(1)).kind == "I_m"
    assert inverse(inverse(blowdown_link(1))).kind == "III_m"


def _random_unimodular(rng):
    gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((-1, 0), (0, 1))]
    m = ((1, 0), (0, 1))
    for _ in range(6):
        m = mat_mul(m, rng.choice(gens))
    return UnimodularMap(m)


def test_conjugation_equivariance():
    rng = random.Random(99)
    fixtures = [elementary_transform(0), elementary_transform(1), blowdown_link(1), ruling_swap(1)]
    for link in fixtures:
        for _ in range(20):
            g = _random_unimodular(rng)
            moved = conjugate(g, link)
            assert validate_link(moved).ok == validate_link(link).ok
    assert conjugate(UnimodularMap(((1, 0), (0, 1))), fixtures[0]) == fixtures[0]


def test_conjugate_matches_hand_computation():
    moved = conjugate(U_MAT, elementary_transform(0))
    assert set(moved.left.points) == {(-1, 0), (0, 1), (1, 0), (0, -1)}
    assert set(moved.right.points) == {(-1, 0), (0, 1), (1, 0), (1, -1)}


def test_sequence_validation_and_panels():
    seq = sequence_from_steps(
        [elementary_transform(0), elementary_transform(1)], "canonical"
    )
    rep = validate_sequence(seq)
    assert rep.ok
    panels, rels = sequence_panels(seq)
    assert len(panels) == 5
    assert [r[0] for r in rels] == ["subset_dot", "supset_dot", "subset_dot", "supset_dot"]


def test_sequence_joint_mismatch_detected():
    seq = sequence_from_steps([elementary_transform(0), elementary_transform(2)])
    rep = validate_sequence(seq)
    assert not rep.ok


def test_sequence_class_violation_detected():
    seq = sequence_from_steps([elementary_transform(2)], "canonical")
    rep = validate_sequence(seq)
    assert not rep.ok


def test_link_panels_merge_rule():
    # III_m keeps its middle; I_m merges it into the left panel
    panels, rels = link_panels(blowdown_link(1))
    assert len(panels) == 3
    assert rels[0][0] == "subset_dot" and rels[1][0] == "equal"
    panels, rels = link_panels(blowdown_link(-1))
    assert len(panels) == 2
    assert rels[0][0] == "supset_dot"
    panels, rels = link_panels(ruling_swap(1))
    assert len(panels) == 2
    assert rels[0][0] == "equal"


def test_enumerate_links_from_quad1():
    quad1 = from_polytope(ruled_polygon(1))
    start = Constituent(quad1, ((-1, 0), (1, 0)))
    links = enumerate_links(start, "terminal", box=2)
    assert links
    targets = {tuple(sorted(l.right.points)) for l in links}
    assert from_polytope(ruled_polygon(0)).points in targets
    assert from_polytope(plane_polygon()).points in targets
    for l in links:
        assert validate_link(l).ok
        assert l.left.points == start.points and l.left.fiber == start.fiber


def test_enumerate_links_from_square():
    square = from_polytope(ruled_polygon(0))
    start = Constituent(square, ((-1, 0), (1, 0)))
    links = enumerate_links(start, "terminal", box=2)
    kinds = {l.kind for l in links}
    assert "IV_m" in kinds
    assert "II_ni" in kinds
    swap_targets = {l.right.fiber for l in links if l.kind == "IV_m"}
    assert ((0, -1), (0, 1)) in swap_targets


def test_enumerate_links_from_triangle():
    tri = from_polytope(plane_polygon())
    start = Constituent(tri, tri.points)
    links = enumerate_links(start, "terminal", box=1)
    kinds = {l.kind for l in links}
    assert "III_m" in kinds
    quad_pts = from_polytope(ruled_polygon(1)).points
    assert any(l.kind == "III_m" and l.right.points == quad_pts for l in links)


def test_enumerate_no_1dim_fiber_ii_irr():
    for poly, fiber in [
        (ruled_polygon(0), ((-1, 0), (1, 0))),
        (ruled_polygon(1), ((-1, 0), (1, 0))),
    ]:
        start = Constituent(from_polytope(poly), fiber)
        for l in enumerate_links(start, "none", box=4):
            if l.kind == "II_irr":
                assert len(l.left.structure().span_basis) != 1


def test_enumerate_deterministic():
    quad1 = from_polytope(ruled_polygon(1))
    start = Constituent(quad1, ((-1, 0), (1, 0)))
    for box in (1, 2):
        warm = enumerate_links(start, "terminal", box=box)
        assert enumerate_links(start, "terminal", box=box) is warm
        _clear_memos()
        assert enumerate_links(start, "terminal", box=box) == warm


def test_enumerate_refuses_unknown_class():
    tri = from_polytope(plane_polygon())
    start = Constituent(tri, tri.points)
    cached = _enumerate_links.cache_info()
    with pytest.raises(ValueError, match="unknown class"):
        enumerate_links(start, "bogus", box=0)
    assert _enumerate_links.cache_info() == cached


# the 8 symmetries of the square |x|, |y| <= box, which keep every box fixed
SQUARE_SYMMETRIES = tuple(
    UnimodularMap(m)
    for a in (1, -1)
    for b in (1, -1)
    for m in (((a, 0), (0, b)), ((0, a), (b, 0)))
)


@lru_cache(maxsize=None)
def _box2_mori_states():
    """Every (Mori pair, class) of the box-2 canonical and terminal polygons."""
    return tuple(
        (Constituent(from_polytope(p), fs.fiber), cls)
        for cls in ("canonical", "terminal")
        for p in enumerate_class_polygons(2, cls)
        for fs in mori_fiber_structures(from_polytope(p))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), s=st.sampled_from(SQUARE_SYMMETRIES))
def test_enumerate_links_is_square_equivariant(i, s):
    states = _box2_mori_states()
    c, cls = states[i % len(states)]
    moved = Constituent(PrimGenSet(2, s.apply_all(c.points)), s.apply_all(c.fiber))
    assert {l.key() for l in enumerate_links(moved, cls, 2)} == {
        conjugate(s, l).key() for l in enumerate_links(c, cls, 2)
    }


def test_box_primitives():
    pts = box_primitives(1, 2)
    assert set(pts) == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert box_primitives(0, 2) == ()
    with pytest.raises(ValueError, match="nonnegative"):
        box_primitives(-3, 2)


def test_base_relations_of_named_families():
    from fanoweb.links import base_relations_report

    for link in (
        elementary_transform(0),
        elementary_transform(1),
        elementary_transform(2, -1),
        blowdown_link(1),
        blowdown_link(-1),
        ruling_swap(1),
    ):
        ok, detail = base_relations_report(link)
        assert ok, (link.kind, detail)


def test_base_relations_reject_corruption():
    from fanoweb.links import base_relations_report

    # a segment fiber over a four-ray base on the left, but a parent with a
    # three-ray base smuggled into the right column
    left_parent = PrimGenSet(
        3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (-1, 0, 0), (0, 0, 1), (-2, 0, -1)]
    )
    right_parent = PrimGenSet(
        3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 1), (0, -1, -1)]
    )
    fiber = ((-1, 0, 0), (1, 0, 0))
    bad = ElementaryLink(
        kind="II_ni",
        left=Constituent(left_parent, fiber),
        middle=Constituent(left_parent, fiber),
        right=Constituent(right_parent, fiber),
        mode="set",
    )
    ok, _ = base_relations_report(bad)
    assert not ok

import random
import re
from functools import lru_cache
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoweb import links
from fanoweb.genset import (
    InvalidFiberStructure,
    PrimGenSet,
    fiber_structure_for,
    fiber_structures,
    from_polytope,
    is_pgs,
    mori_fiber_structures,
    mori_fibers,
    positively_spans,
)
from fanoweb.lattice import UnimodularMap, is_primitive, mat_det, mat_mul
from fanoweb.links import (
    HORIZONTAL_FIBER,
    KINDS,
    STANDARD_SYMMETRIES,
    Constituent,
    ElementaryLink,
    _candidate_links,
    _enumerate_links,
    _frame,
    _fs_or_none,
    _link_table,
    _relation_holds,
    _set_purity,
    _shared,
    _step_failures,
    _table_link_of,
    _table_links,
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
    standard_pairs,
    step_record,
    validate_link,
    validate_sequence,
)
from fanoweb.polytopes import (
    CLASS_NAMES,
    DegenerateHullError,
    classify,
    hull,
    in_class,
    primitive_points,
    primitive_points_in_hull,
)
from fanoweb.web import GEN_S, TOKENS, enumerate_class_polygons, mmp_reduce
from test_memo import _clear_memos

U_MAT = UnimodularMap(((-1, 0), (0, 1)))
S_MAT = UnimodularMap(((0, -1), (1, 0)))

# the GL(2,Z) generators of fanoweb.web and S^-1, which factor_unimodular
# never emits, in sorted order; words in them and the maps they multiply to
_GL_TOKENS = dict(sorted({**TOKENS, "S^-1": GEN_S.inverse()}.items()))
_GL_WORDS = st.lists(st.sampled_from(sorted(_GL_TOKENS)), max_size=4)


def _gl_map(word):
    g = UnimodularMap.identity(2)
    for t in word:
        g = g.compose(_GL_TOKENS[t])
    return g


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


def test_conjugate_refuses_a_column_of_another_dimension():
    octahedron = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    c = Constituent(PrimGenSet(3, octahedron), ((0, 0, -1), (0, 0, 1)))
    spatial = ElementaryLink("IV_s", c, None, c, "polytope")
    # the 2x2 map used to give planar columns with (0, 0) twice
    with pytest.raises(ValueError):
        conjugate(S_MAT, spatial)
    with pytest.raises(ValueError):
        conjugate(UnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, 1))), elementary_transform(0))
    planar = elementary_transform(0)
    mixed = ElementaryLink(planar.kind, planar.left, c, planar.right, planar.mode)
    with pytest.raises(ValueError):
        conjugate(S_MAT, mixed)


def _conjugate_by_column(g, link):
    """The reference for conjugate: each column moved on its own through the
    checking constructors, which copy, sort and validate."""

    def move(c):
        if c is None:
            return None
        if c.pgs.dim != g.dim:
            raise ValueError(f"a map of dimension {g.dim} cannot move a column of dimension {c.pgs.dim}")
        return Constituent(PrimGenSet(c.pgs.dim, g.apply_all(c.pgs.points)), g.apply_all(c.fiber))

    return ElementaryLink(link.kind, move(link.left), move(link.middle), move(link.right), link.mode)


def _check_conjugate(g, link):
    """conjugate agrees with the reference in value and hash, column by
    column, hands back one shared object for equal links and columns, and
    raises the reference's ValueError."""
    try:
        want = _conjugate_by_column(g, link)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            conjugate(g, link)
        assert str(got.value) == str(e)
        return
    got = conjugate(g, link)
    assert got == want and hash(got) == hash(want)
    for c, w in zip((got.left, got.middle, got.right), (want.left, want.middle, want.right)):
        if w is None:
            assert c is None
            continue
        assert (c.pgs.dim, c.points, c.fiber) == (w.pgs.dim, w.points, w.fiber)
        assert hash(c.pgs) == hash(w.pgs) and hash(c) == hash(w)
        assert c is _shared(w)
    assert conjugate(g, link) is got
    assert _shared(want) is got


_SIMPLICES = {2: ((1, 0), (0, 1), (-1, -1)), 3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))}
_GL3 = (((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 1), (0, 1, 0)), ((-1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _vectors(dim):
    return st.tuples(*[st.integers(-2, 2)] * dim)


@st.composite
def _columns(draw, dim):
    """A simplex with up to three more primitive points, and a fiber of any
    points, in the set or not."""
    extra = draw(st.lists(_vectors(dim).filter(is_primitive), max_size=3))
    fiber = draw(st.lists(_vectors(dim), max_size=4))
    return Constituent(PrimGenSet(dim, set(_SIMPLICES[dim]) | set(extra)), fiber)


@st.composite
def _any_links(draw, dim):
    col = _columns(dim)
    kind = draw(st.sampled_from(KINDS))
    mode = draw(st.sampled_from(("set", "polytope")))
    return ElementaryLink(kind, draw(col), draw(st.none() | col), draw(col), mode)


@st.composite
def _maps(draw, dim):
    if dim == 2:
        return _gl_map(draw(_GL_WORDS))
    g = UnimodularMap.identity(3)
    for m in draw(st.lists(st.sampled_from(_GL3), max_size=5)):
        g = g.compose(UnimodularMap(m))
    return g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.sampled_from((2, 3)))
def test_conjugate_matches_the_column_by_column_reference(data, dim):
    link = data.draw(_any_links(dim))
    _check_conjugate(data.draw(_maps(dim)), link)
    _check_conjugate(data.draw(_maps(5 - dim)), link)


def test_conjugate_moves_fiber_points_outside_the_set():
    c = Constituent(PrimGenSet(2, _SIMPLICES[2]), ((2, 3), (1, 0), (-1, -2)))
    right = Constituent(PrimGenSet(2, _SIMPLICES[2] + ((1, 1),)), ((3, -1),))
    link = ElementaryLink("I_d", c, None, right, "set")
    for g in (U_MAT, S_MAT, _gl_map(["T", "S", "T"])):
        _check_conjugate(g, link)
    _check_conjugate(UnimodularMap.identity(3), link)


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


def test_enumerate_refuses_unknown_mode():
    # at box 0 no link is ever built, so only the check can refuse the mode
    tri = from_polytope(plane_polygon())
    start = Constituent(tri, tri.points)
    cached = _enumerate_links.cache_info()
    for box in (0, 1):
        with pytest.raises(ValueError, match="unknown link mode"):
            enumerate_links(start, "none", box, "bogus")
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


def _keys(links):
    return [l.key() for l in links]


@pytest.mark.parametrize("box", [2, 4])
def test_table_links_equal_the_candidate_loop(box):
    # in the plane the reflexive polygons are the canonical ones
    states = _box2_mori_states()
    for c, cls in states + tuple((c, "reflexive") for c, cls in states if cls == "canonical"):
        assert _keys(enumerate_links(c, cls, box)) == _keys(_candidate_links(c, cls, box, "polytope"))


def _reference_table_links(start, cls, box):
    """Each table link of start's frame moved by conjugate, kept when its
    added points lie in the box; () when a moved link leaves from elsewhere."""
    key, g = _frame(start.points, start.fiber)
    moved = [conjugate(g, link) for link in _link_table(cls).get(key, ())]
    if any(link.left != start for link in moved):
        return ()
    kept = [
        link for link in moved
        if all(abs(x) <= box for c in (link.middle, link.right) if c is not None
               for p in c.points if p not in start.points for x in p)
    ]
    return tuple(sorted(kept, key=ElementaryLink.key))


# the standard pairs, then pairs that are no image of one: a triangle whose
# third point is not g(-1, -1), F3, and a 4-point set whose fourth point is
# not g(-1, -1)
_TABLE_STARTS = tuple((from_polytope(p).points, fiber) for p, fiber in standard_pairs().values()) + (
    (((-1, 0), (0, -1), (2, 1)), ((-1, 0), (0, -1), (2, 1))),
    (ruled_polygon(3).vertices, HORIZONTAL_FIBER),
    (((1, 0), (-1, 0), (0, -1), (1, 2)), HORIZONTAL_FIBER),
)


def _moved_state(g, points, fiber):
    return tuple(sorted(g.apply_all(points))), tuple(sorted(g.apply_all(fiber)))


def _searched_frame_key(points, fiber):
    """The standard pair that some unimodular map sends onto (points,
    fiber), found by sending e1 and e2, points of every standard pair, to
    every two points of the set; None when there is none."""
    for key, state in zip(standard_pairs(), _TABLE_STARTS):
        for a, b in product(points, repeat=2):
            if abs(a[0] * b[1] - a[1] * b[0]) == 1:
                g = UnimodularMap(((a[0], b[0]), (a[1], b[1])))
                if _moved_state(g, *state) == (points, fiber):
                    return key
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(i=st.integers(0, len(_TABLE_STARTS) - 1), word=_GL_WORDS, data=st.data())
def test_a_frame_maps_its_standard_pair_exactly_or_is_none(i, word, data):
    # an image of a table start, as it is or with one edit: a point moved
    # by one step, dropped or added, or the fiber redrawn from the points
    points, fiber = map(list, _moved_state(_gl_map(word), *_TABLE_STARTS[i]))
    edit = data.draw(st.sampled_from(["none", "move", "drop", "add", "fiber"]))
    if edit == "move":
        j = data.draw(st.integers(0, len(points) - 1))
        dx, dy = data.draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        old = points[j]
        points[j] = (old[0] + dx, old[1] + dy)
        fiber = [points[j] if p == old else p for p in fiber]
    elif edit == "drop":
        gone = points.pop(data.draw(st.integers(0, len(points) - 1)))
        fiber = [p for p in fiber if p != gone]
    elif edit == "add":
        points.append(data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))
    elif edit == "fiber":
        fiber = data.draw(st.sets(st.sampled_from(points)))
    points, fiber = tuple(sorted(set(points))), tuple(sorted(set(fiber)))
    key, g = _frame(points, fiber)
    assert key == _searched_frame_key(points, fiber)
    if key is None:
        assert g is None
    else:
        assert _moved_state(g, *_TABLE_STARTS[list(standard_pairs()).index(key)]) == (points, fiber)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    i=st.integers(0, len(_TABLE_STARTS) - 1),
    word=_GL_WORDS,
    cls=st.sampled_from(["canonical", "reflexive", "terminal"]),
    box=st.integers(0, 6),
)
def test_table_links_move_no_link_and_equal_the_conjugate_route(i, word, cls, box):
    g = _gl_map(word)
    points, fiber = _TABLE_STARTS[i]
    start = Constituent(PrimGenSet(2, g.apply_all(points)), g.apply_all(fiber))
    _link_table(cls)
    with mock.patch.object(links, "conjugate", wraps=conjugate) as spy:
        got = _table_links(start, cls, box)
    assert spy.call_count == 0
    want = _reference_table_links(start, cls, box)
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    if i >= len(standard_pairs()):
        assert got == ()
    assert all(link.left == start for link in got)


@pytest.mark.parametrize(
    "cls, counts", [("canonical", (3, 5, 5, 2)), ("terminal", (3, 5, 3, 0)), ("reflexive", (3, 5, 5, 2))]
)
def test_links_out_of_the_standard_pairs_do_not_depend_on_the_box(cls, counts):
    got = []
    for poly, fiber in standard_pairs().values():
        start = Constituent(from_polytope(poly), fiber)
        links = _candidate_links(start, cls, 2, "polytope")
        assert _keys(_candidate_links(start, cls, 6, "polytope")) == _keys(links)
        assert _keys(enumerate_links(start, cls, 6)) == _keys(links)
        got.append(len(links))
    assert tuple(got) == counts


def test_the_link_table_is_filtered_by_class_alone():
    # a table link is validated by its step record when a certificate reads it
    _clear_memos()
    with mock.patch.object(links, "validate_link", wraps=validate_link) as spy:
        for cls in ("canonical", "reflexive", "terminal"):
            _link_table(cls)
    assert spy.call_count == 0
    assert _link_table("reflexive") == _link_table("canonical")


def test_every_table_link_validates():
    for cls in ("canonical", "terminal"):
        for row in _link_table(cls).values():
            for link in row:
                assert validate_link(link).ok, (cls, link.key())


def test_standard_symmetries_are_the_groups_of_the_standard_polygons():
    """Against a search over the matrices with entries in [-2, 2]: e1 and e2
    are vertices of each standard polygon, so a symmetry's columns are too."""
    orders = []
    for key, (p, _) in standard_pairs().items():
        found = {
            m
            for a, b, c, d in product(range(-2, 3), repeat=4)
            for m in [((a, b), (c, d))]
            if abs(mat_det(m)) == 1 and hull(UnimodularMap(m).apply_all(p.vertices)) == p
        }
        assert sorted(s.matrix for s in STANDARD_SYMMETRIES[key]) == sorted(found), key
        orders.append(len(found))
    assert orders == [6, 8, 2, 2]


def test_set_mode_runs_the_candidate_loop():
    differs = 0
    for c, cls in _box2_mori_states():
        links = enumerate_links(c, cls, 2, "set")
        assert _keys(links) == _keys(_candidate_links(c, cls, 2, "set"))
        # the keys without their mode
        as_polytope = {(l.kind, *l.key()[2:]) for l in enumerate_links(c, cls, 2)}
        differs += {(l.kind, *l.key()[2:]) for l in links} != as_polytope
    # set mode finds links that the polytope-mode table cannot give
    assert differs > 0


def test_negative_box_is_refused_on_every_path():
    tri = from_polytope(plane_polygon())
    start = Constituent(tri, tri.points)
    for cls, mode in (
        ("canonical", "polytope"), ("reflexive", "polytope"), ("terminal", "polytope"),
        ("none", "polytope"), ("canonical", "set"),
    ):
        with pytest.raises(ValueError, match="box must be nonnegative"):
            enumerate_links(start, cls, -1, mode)


def test_starts_outside_the_table():
    # the third ruled polygon is neither canonical nor terminal: no links
    start = Constituent(from_polytope(ruled_polygon(3)), HORIZONTAL_FIBER)
    assert start.structure().mori
    for cls in ("canonical", "reflexive", "terminal"):
        assert enumerate_links(start, cls, 2) == ()
        assert _candidate_links(start, cls, 2, "polytope") == ()
    # the square with its whole set as fiber is no Mori fiber structure
    square = from_polytope(ruled_polygon(0))
    with pytest.raises(ValueError, match="Mori fiber structure"):
        enumerate_links(Constituent(square, square.points), "canonical", 2)


@pytest.mark.parametrize("cls", ["canonical", "reflexive", "terminal"])
def test_table_path_checks_starts_it_cannot_move(cls):
    square = from_polytope(ruled_polygon(0))
    hexagon = PrimGenSet(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    quad2 = from_polytope(ruled_polygon(2))
    # valid fiber structures that are not Mori: not irreducible, or trivial on 4 points
    for start in (Constituent(hexagon, HORIZONTAL_FIBER), Constituent(square, square.points)):
        with pytest.raises(ValueError, match="^link enumeration starts from a Mori fiber structure$"):
            enumerate_links(start, cls, 2)
    invalid = {
        (): "fiber is empty",
        ((1, 0),): "fiber must be the full intersection with its span",
        ((-1, -1), (1, 1)): "fiber is not a subset of the parent",
    }
    for fiber, message in invalid.items():
        with pytest.raises(InvalidFiberStructure, match=f"^{re.escape(message)}$"):
            enumerate_links(Constituent(square, fiber), cls, 2)
    lone = next(p for p in quad2.points if tuple(-x for x in p) not in quad2.points)
    with pytest.raises(InvalidFiberStructure, match="^fiber does not generate its span as a cone$"):
        enumerate_links(Constituent(quad2, (lone,)), cls, 2)
    # at box 0 the table keeps only the ruling swap, which adds no point
    (link,) = enumerate_links(Constituent(square, HORIZONTAL_FIBER), cls, 0)
    assert link.kind == "IV_m" and link.right.fiber == ((0, -1), (0, 1))


def test_a_threefold_start_gives_the_kinds_that_planar_starts_do_not():
    # a segment fiber over the plane's P2 fan with one more ray: the candidate
    # loop's I_d branch, and the I_d, III_d and IV_s panels
    c = Constituent(
        PrimGenSet(3, [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (-1, 0, 0)]),
        ((0, 0, -1), (0, 0, 1)),
    )
    counts = {}
    for mode in ("set", "polytope"):
        found = enumerate_links(c, "none", 1, mode)
        counts[mode] = {kind: sum(l.kind == kind for l in found) for kind in ("I_d", "III_d", "II_ni", "IV_m")}
        assert len(found) == sum(counts[mode].values())
        assert all(validate_link(l).ok for l in found)
    assert counts == {
        "set": {"I_d": 1, "III_d": 12, "II_ni": 8, "IV_m": 2},
        "polytope": {"I_d": 1, "III_d": 11, "II_ni": 8, "IV_m": 2},
    }
    (drop,) = [l for l in enumerate_links(c, "none", 1, "set") if l.kind == "I_d"]
    assert link_panels(drop) == ([drop.left, drop.right], [("supset_dot", (-1, 0, 0))])
    grow = inverse(drop)
    assert grow.kind == "III_d" and validate_link(grow).ok
    assert link_panels(grow) == ([drop.right, drop.left], [("subset_dot", (-1, 0, 0))])
    trivial = ElementaryLink("IV_s", c, None, c, "polytope")
    assert validate_link(trivial).ok
    assert link_panels(trivial) == ([c, c], [("equal", None)])


def _raising_route(c):
    try:
        return fiber_structure_for(c.pgs, c.fiber), None
    except InvalidFiberStructure as e:
        return None, str(e)


def test_a_column_reads_the_fiber_memo_as_the_raising_route_does(monkeypatch):
    # the build raises nothing but InvalidFiberStructure, whose reason the
    # memo keeps: on every column of every candidate link at box 1 out of
    # the 3D simplex and out of both Mori pairs of a six-point set, and on
    # planted fibers of each invalid kind
    simplex = PrimGenSet(3, _SIMPLICES[3])
    six = PrimGenSet(3, [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (-1, 0, 0)])
    starts = [Constituent(simplex, simplex.points)] + [Constituent(six, f) for f in mori_fibers(six)]
    columns = set()
    try_link = links._try_link

    def spy(kind, left, middle, right, mode, cls):
        columns.update(c for c in (left, middle, right) if c is not None)
        return try_link(kind, left, middle, right, mode, cls)

    monkeypatch.setattr(links, "_try_link", spy)
    for start in starts:
        _candidate_links(start, "none", 1, "set")
    quad2 = PrimGenSet(2, [(1, 0), (0, 1), (-1, 0), (-2, -1)])
    solid = PrimGenSet(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (-1, 0, 0), (0, 0, 1), (-2, 0, -1)])
    planted = {
        Constituent(quad2, ()): "fiber is empty",
        Constituent(quad2, [(1, 1)]): "fiber is not a subset of the parent",
        Constituent(quad2, [(1, 0)]): "fiber must be the full intersection with its span",
        Constituent(solid, [(1, 0, 0), (0, 1, 0)]): "fiber must be the full intersection with its span",
        Constituent(quad2, [(0, 1)]): "fiber does not generate its span as a cone",
        Constituent(quad2, [(1, 0), (0, 1)]): "fiber spanning the whole space must be the whole set",
    }
    for c, reason in planted.items():
        assert _fs_or_none(c) == _raising_route(c) == (None, reason)
    for c in columns:
        assert _fs_or_none(c) == _raising_route(c)
    assert {_fs_or_none(c)[1] for c in columns} == {None, "fiber does not generate its span as a cone"}


def test_the_fibers_of_a_pure_set_are_pure():
    # polytope mode checks each column's set, not its fiber: a fiber is the
    # full intersection of the set with its span, so each primitive point of
    # the fiber's hull, in the set's hull and in that span, is a fiber point.
    # The threefolds are the pure sets that four box-1 primitives generate
    prims = box_primitives(1, 3)
    threefolds = {primitive_points_in_hull(four) for four in combinations(prims, 4) if positively_spans(four, 3)}
    planar = {from_polytope(p).points for p in enumerate_class_polygons(3, "canonical")}
    assert (len(threefolds), len(planar)) == (684, 828)
    for points in sorted(threefolds) + sorted(planar):
        assert _set_purity(points)
        for fs in fiber_structures(PrimGenSet(len(points[0]), points)):
            assert _set_purity(fs.fiber)


def _verdict_with_fiber_purity(link):
    """validate_link's verdict with a fiber purity check per column added
    back in polytope mode, the check list as it was before they went."""
    checks = list(validate_link(link).checks)
    if link.mode == "polytope":
        cols = zip(("left", "middle", "right"), (link.left, link.middle, link.right))
        checks += [(f"{label} fiber purity", _set_purity(c.fiber), "") for label, c in cols if c is not None]
    return all(ok for _, ok, _ in checks)


def _edited_links(pool, count, rng):
    """count links, each a link of the pool with one column edited: a box-2
    primitive added to its set, or to its set and fiber, or a fiber point
    dropped, or a point dropped from both; in a random mode.  Edits that
    leave no generating set are skipped."""
    out = []
    while len(out) < count:
        link = rng.choice(pool)
        cols = [link.left, link.middle, link.right]
        j = rng.choice([i for i, c in enumerate(cols) if c is not None])
        c = cols[j]
        points, fiber = set(c.points), set(c.fiber)
        w = rng.choice(box_primitives(2, c.pgs.dim))
        edit = rng.randrange(4)
        if edit < 2:
            points.add(w)
            if edit == 1:
                fiber.add(w)
        else:
            v = rng.choice(c.fiber if edit == 2 else c.points)
            fiber.discard(v)
            if edit == 3:
                points.discard(v)
        if not is_pgs(sorted(points), c.pgs.dim)[0]:
            continue
        cols[j] = Constituent(PrimGenSet(c.pgs.dim, points), fiber)
        out.append(ElementaryLink(link.kind, *cols, rng.choice(("set", "polytope"))))
    return out


def test_fiber_purity_decides_no_verdict_on_edited_links():
    # the edited links of the table and of the 3D candidate loop at box 1,
    # some of them with a fiber that is not pure
    simplex = PrimGenSet(3, _SIMPLICES[3])
    six = PrimGenSet(3, [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (-1, 0, 0)])
    starts = [Constituent(simplex, simplex.points)] + [Constituent(six, f) for f in mori_fibers(six)]
    pool = list(_TABLE_LINKS) + [link for start in starts for link in _candidate_links(start, "none", 1, "polytope")]
    edited = _edited_links(pool, 400, random.Random(0))
    impure = 0
    for link in edited:
        assert validate_link(link).ok == _verdict_with_fiber_purity(link)
        cols = (link.left, link.middle, link.right)
        impure += link.mode == "polytope" and not all(_set_purity(c.fiber) for c in cols if c is not None)
    assert impure > 10


def test_box_primitives():
    pts = box_primitives(1, 2)
    assert set(pts) == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert box_primitives(0, 2) == ()
    with pytest.raises(ValueError, match="nonnegative"):
        box_primitives(-3, 2)


def test_base_relations_reject_corruption():
    # a segment fiber over a four-ray base on the left, but a parent with a
    # three-ray base smuggled into the right column; validation compares the
    # bases of a II_ni link, and its columns share their points off the fiber
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
    failed = {name for name, _, _ in validate_link(bad).failed()}
    assert {"left enlargement", "bases equal"} <= failed


def _reference_record(link, cls):
    """The step record as the link itself checks it, with no orbit
    representative: the reference for step_record."""
    panels, rels = link_panels(link)
    hulls = [hull(c.points) for c in panels]
    later = tuple(
        (rel, witness, b, in_class(b, cls), _relation_holds(a, b, rel, witness))
        for a, b, (rel, witness) in zip(hulls, hulls[1:], rels)
    )
    failures = _step_failures(link, cls)
    if link.mode != "polytope":
        failures += (f"link mode {link.mode} is not polytope",)
    return failures, hulls[0], in_class(hulls[0], cls), later


def _moved_point(c, old, new):
    """Column c with its point old replaced by new, in its fiber too."""
    points = tuple(sorted(new if p == old else p for p in c.points))
    return Constituent(PrimGenSet.of_sorted(2, points), [new if p == old else p for p in c.fiber])


def _tampered_links(link):
    """A moved middle point (the right one when there is no middle), the
    left and right columns swapped, and a moved first witness."""
    kind, left, middle, right, mode = link.kind, link.left, link.middle, link.right, link.mode
    cols = [left, middle, right]
    j = 1 if middle is not None else 2
    p = next((q for q in cols[j].points if q not in left.points), cols[j].points[0])
    cols[j] = _moved_point(cols[j], p, (p[0], p[1] + 1))
    out = [ElementaryLink(kind, *cols, mode), ElementaryLink(kind, right, middle, left, mode)]
    w = link_panels(link)[1][0][1]
    if w is not None:
        cols = [
            c if c is None or w not in c.points else _moved_point(c, w, (w[0] + 1, w[1] + 1))
            for c in (left, middle, right)
        ]
        out.append(ElementaryLink(kind, *cols, mode))
    return out


_TABLE_LINKS = tuple(
    dict.fromkeys(link for cls in ("canonical", "terminal") for links in _link_table(cls).values() for link in links)
)
_ORBIT_LINKS = _TABLE_LINKS + tuple(t for link in _TABLE_LINKS for t in _tampered_links(link))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), word=_GL_WORDS, cls=st.sampled_from(CLASS_NAMES))
def test_step_record_of_an_image_is_the_direct_one(i, word, cls):
    link = conjugate(_gl_map(word), _ORBIT_LINKS[i % len(_ORBIT_LINKS)])
    try:
        expected = _reference_record(link, cls)
    except ValueError as e:
        with pytest.raises(type(e)):
            step_record(link, cls)
        return
    failures, first, first_in_class, later = step_record(link, cls)
    assert failures == expected[0]
    assert first == expected[1] and first.facets == expected[1].facets
    assert first_in_class == expected[2]
    assert len(later) == len(expected[3])
    for got, want in zip(later, expected[3]):
        assert got == want
        assert got[2].facets == want[2].facets


def test_the_orbit_links_cover_valid_and_invalid_records():
    # the property test above sees both kinds of record
    records = [step_record(link, "canonical") for link in _ORBIT_LINKS]
    assert sum(not r[0] for r in records) >= len(_TABLE_LINKS) - 2
    assert sum(bool(r[0]) for r in records) > len(_TABLE_LINKS)
    assert any(not ok for r in records for *_, ok in r[3])


def test_images_of_a_table_link_share_its_check(monkeypatch):
    # a cold record of an image moves no link and checks its table link
    # once per class; a later image of the same table link checks nothing
    _clear_memos()
    maps = [_gl_map(w) for w in (["T"], ["T", "T"], ["S", "T"], ["U", "T", "S"])]
    images = [conjugate(g, link) for row in _link_table("canonical").values() for link in row for g in maps]
    table_links = [_table_link_of(image) for image in images]
    assert None not in table_links
    step_record.cache_clear()
    moved, checked = [], []
    monkeypatch.setattr(links, "conjugate", lambda *a: moved.append(a) or conjugate(*a))
    orbit_checks = links._orbit_checks
    monkeypatch.setattr(links, "_orbit_checks", lambda *a: checked.append(a[:2]) or orbit_checks(*a))
    seen = set()
    for cls in ("canonical", "terminal"):
        for image, table_link in zip(images, table_links):
            before = len(checked)
            step_record(image, cls)
            assert checked[before:] == ([] if (table_link, cls) in seen else [(table_link, cls)])
            seen.add((table_link, cls))
    assert moved == []
    assert len(checked) == len(seen) < 2 * len(images)


def _reference_relation_holds(a, b, rel, witness):
    """The inclusion check with the hull and containment tests that
    _relation_holds leaves out as settled: the reference it is pinned to."""
    if rel == "equal":
        return a == b
    if rel not in ("supset_dot", "subset_dot") or witness is None:
        return False
    big, small = (a, b) if rel == "supset_dot" else (b, a)
    w = tuple(witness)
    try:
        pa = primitive_points(big)
        if w not in pa:
            return False
        rest = tuple(x for x in pa if x != w)
        if set(primitive_points(small)) != set(rest):
            return False
        if small != hull(rest):
            return False
        return not small.contains(w)
    except ValueError:
        return False


def _reduction_relations():
    """(big, small, "supset_dot", removed vertex) of every step of the
    mmp_reduce chains of the box-2 canonical and terminal polygons."""
    out = []
    for cls in ("canonical", "terminal"):
        for p in enumerate_class_polygons(2, cls):
            for v, q in mmp_reduce(p, cls).chain:
                out.append((p, q, "supset_dot", v))
                p = q
    return out


def _panel_relations(link):
    panels, rels = link_panels(link)
    hulls = [hull(c.points) for c in panels]
    return [(a, b, rel, w) for a, b, (rel, w) in zip(hulls, hulls[1:], rels)]


_CANONICAL_TABLE_LINKS = tuple(dict.fromkeys(t for row in _link_table("canonical").values() for t in row))
_CHAIN_RELATIONS = tuple(_reduction_relations())
_RELATIONS = _CHAIN_RELATIONS + tuple(r for link in _CANONICAL_TABLE_LINKS for r in _panel_relations(link))


def test_relation_holds_agrees_with_the_hull_check_on_chains_and_table_links():
    words = [[]] + [[t] for t in _GL_TOKENS] + [[t, u] for t in _GL_TOKENS for u in _GL_TOKENS]
    table = [
        r for link in _CANONICAL_TABLE_LINKS for w in words for r in _panel_relations(conjugate(_gl_map(w), link))
    ]
    assert len(_CHAIN_RELATIONS) > 100 and len(table) > 500
    for r in _CHAIN_RELATIONS + tuple(table):
        assert (_relation_holds(*r), _reference_relation_holds(*r)) == (True, True), r


@settings(max_examples=400, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), word=_GL_WORDS, data=st.data())
def test_relation_holds_agrees_with_the_hull_check_on_edited_relations(i, word, data):
    # an image of a chain or table relation, as it is or with its polytopes
    # swapped, its witness moved (to non-primitive and interior points too),
    # or one polytope replaced by a random polygon, most of them not Fano
    g = _gl_map(word)
    a, b, rel, w = _RELATIONS[i % len(_RELATIONS)]
    a, b = hull(g.apply_all(a.vertices)), hull(g.apply_all(b.vertices))
    w = None if w is None else g.apply(w)
    edit = data.draw(st.sampled_from(["none", "swap", "flip", "witness", "polygon"]))
    if edit == "swap":
        a, b = b, a
    elif edit == "flip":
        rel = {"supset_dot": "subset_dot", "subset_dot": "supset_dot"}.get(rel, rel)
    elif edit == "witness":
        w = data.draw(st.none() | st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    elif edit == "polygon":
        pts = data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=6))
        try:
            other = hull(pts)
        except DegenerateHullError:
            return
        a, b = (other, b) if data.draw(st.booleans()) else (a, other)
    assert _relation_holds(a, b, rel, w) == _reference_relation_holds(a, b, rel, w)

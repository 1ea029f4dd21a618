import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoweb import genset
from fanoweb.genset import (
    InvalidFiberStructure,
    PrimGenSet,
    fiber_structure_for,
    fiber_structures,
    from_polytope,
    is_pgs,
    mori_fiber_structures,
    polytope_reduction,
    positively_spans,
    reductions,
)
from fanoweb.jsonio import fiber_structure_to_json
from fanoweb.lattice import UnimodularMap, in_span, is_primitive, mat_identity, mat_mul, saturate_span
from fanoweb.links import box_primitives
from fanoweb.polytopes import hull, primitive_points
from fanoweb.web import enumerate_class_polygons

V = {
    1: (1, 0, 0),
    2: (0, 1, 0),
    3: (-1, -1, 0),
    4: (-1, 0, 0),
    5: (0, 0, 1),
    6: (-1, 0, -1),
    7: (-2, 0, -1),
}

TRIANGLE = PrimGenSet(2, [(1, 0), (0, 1), (-1, -1)])
SQUARE = PrimGenSet(2, [(1, 0), (0, 1), (-1, 0), (0, -1)])
QUAD1 = PrimGenSet(2, [(1, 0), (0, 1), (-1, 0), (-1, -1)])
QUAD2 = PrimGenSet(2, [(1, 0), (0, 1), (-1, 0), (-2, -1)])


def test_is_pgs_reasons():
    ok, reason = is_pgs([(1, 0), (0, 1), (-1, -1)])
    assert ok and reason == "ok"
    ok, reason = is_pgs([(1, 0), (0, 1)])
    assert not ok and reason == "cone not full"
    ok, reason = is_pgs([(2, 0), (0, 1), (-1, -1)])
    assert not ok and reason == "non-primitive member"
    ok, reason = is_pgs([(1, 0), (1, 0), (0, 1), (-1, -1)])
    assert not ok and reason == "duplicate member"


def test_positively_spans_edge_cases():
    assert positively_spans([], 0)
    assert positively_spans([(1,), (-1,)], 1)
    assert not positively_spans([(1,), (2,)], 1)
    # exactly a closed half-plane: not full
    assert not positively_spans([(1, 0), (-1, 0), (0, 1)], 2)
    assert positively_spans([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert positively_spans([v for v in V.values()], 3)
    assert not positively_spans([V[1], V[2], V[5]], 3)


def _spans_plane_reference(points):
    """The cone of the points misses some direction exactly when a closed
    half-plane holds them all; its boundary line can be taken through one
    of the points, so its inner normal is +-rot90(p) for an input point p."""
    pts = [p for p in points if p != (0, 0)]
    normals = [n for x, y in pts for n in ((-y, x), (y, -x))]
    return bool(pts) and not any(
        all(n[0] * q[0] + n[1] * q[1] >= 0 for q in pts) for n in normals
    )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=6))
def test_positively_spans_2d_matches_half_plane_reference(points):
    assert positively_spans(points, 2) == _spans_plane_reference(points)


def test_reductions_quad1_exactly_one():
    red = reductions(QUAD1)
    assert len(red) == 1
    v, smaller = red[0]
    assert v == (-1, 0)
    assert smaller == TRIANGLE


def test_reductions_triangle_minimal():
    assert reductions(TRIANGLE) == ()


def test_reductions_3d_fixture():
    a = PrimGenSet(3, [V[i] for i in (1, 2, 3, 5, 6, 7)])
    removed = {v for v, _ in reductions(a)}
    assert V[7] in removed
    target = PrimGenSet(3, [V[i] for i in (1, 2, 3, 5, 6)])
    assert any(smaller == target for _, smaller in reductions(a))


def test_polytope_reduction_quad1():
    res = polytope_reduction(hull(QUAD1.points), (-1, 0))
    assert res.valid
    assert res.polytope == hull(TRIANGLE.points)


def test_polytope_reduction_square_invalid():
    res = polytope_reduction(hull(SQUARE.points), (0, -1))
    assert not res.valid
    assert "span" in res.reason


def test_polytope_reduction_hexagon():
    hexagon = hull([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)])
    res = polytope_reduction(hexagon, (1, 1))
    assert res.valid
    assert set(res.polytope.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)}


def test_a_removed_vertex_never_lies_in_the_hull_of_the_rest():
    # polytope_reduction has one invalid reason: p is the hull of its
    # primitive points, so its vertex is no convex combination of the rest
    simplex = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    octahedron = hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    spanning = 0
    for p in enumerate_class_polygons(3, "canonical") + (simplex, octahedron):
        for v in p.vertices:
            rest = [q for q in primitive_points(p) if q != v]
            res = polytope_reduction(p, v)
            if not positively_spans(rest, p.dim):
                assert (res.valid, res.reason) == (False, "remaining points do not span the space")
                continue
            smaller = hull(rest)
            assert not smaller.contains(v)
            assert set(primitive_points(smaller)) == set(rest)
            assert (res.valid, res.polytope, res.reason) == (True, smaller, "ok")
            spanning += 1
    assert spanning > 1000


def test_polytope_reduction_requires_vertex():
    with pytest.raises(ValueError):
        polytope_reduction(hull(QUAD2.points), (-1, 0))


def test_fiber_structures_quad1():
    structs = fiber_structures(QUAD1)
    mori = [fs for fs in structs if fs.mori]
    assert len(mori) == 1
    fs = mori[0]
    assert fs.fiber == ((-1, 0), (1, 0))
    assert fs.base.points == ((-1,), (1,))
    assert fs.irreducible


def test_fiber_structures_square_two_rulings():
    mori = mori_fiber_structures(SQUARE)
    fibers = {fs.fiber for fs in mori}
    assert fibers == {((-1, 0), (1, 0)), ((0, -1), (0, 1))}
    assert len(mori) == 2


def test_fiber_structures_triangle_trivial_only():
    mori = mori_fiber_structures(TRIANGLE)
    assert len(mori) == 1
    assert mori[0].trivial
    assert mori[0].base == PrimGenSet(0, ())
    assert mori[0].mori  # |A| = 3 = dim + 1


def test_fiber_structures_quad2_unique():
    mori = mori_fiber_structures(QUAD2)
    assert len(mori) == 1
    assert mori[0].fiber == ((-1, 0), (1, 0))


def test_fiber_structure_3d_main_example():
    a = PrimGenSet(3, [V[i] for i in (1, 2, 3, 4, 5, 7)])
    fs = fiber_structure_for(a, [V[1], V[4]])
    assert fs.base.points == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert fs.irreducible and fs.mori


def test_fiber_structure_3d_plane_not_irreducible():
    a = PrimGenSet(3, [V[i] for i in (1, 2, 3, 5, 6, 7)])
    fs = fiber_structure_for(a, [V[1], V[2], V[3]])
    assert fs.base.points == ((-1,), (1,))
    assert not fs.irreducible
    assert not fs.mori


def test_fiber_structure_rejects_partial_intersection():
    a = PrimGenSet(3, [V[i] for i in (1, 2, 3, 4, 5, 7)])
    with pytest.raises(InvalidFiberStructure):
        fiber_structure_for(a, [V[1]])  # v4 = -v1 lies in the same span
    with pytest.raises(InvalidFiberStructure):
        fiber_structure_for(a, [V[1], V[2]])  # not the full plane intersection


def test_cached_invalid_fiber_raises_fresh_exception():
    import traceback

    fiber = [(1, 0), (0, 1)]
    for _ in range(2000):
        with pytest.raises(InvalidFiberStructure):
            fiber_structure_for(SQUARE, fiber)
    try:
        fiber_structure_for(SQUARE, fiber)
    except InvalidFiberStructure as e:
        frames = traceback.extract_tb(e.__traceback__)
        assert "whole space" in str(e)
    assert len(frames) <= 3


def test_the_line_has_one_fiber_structure():
    line = PrimGenSet(1, [(1,), (-1,)])
    for structs in (fiber_structures(line), mori_fiber_structures(line)):
        assert len(structs) == 1
        assert structs[0].trivial and structs[0].mori


def _random_3d_pgss(count, seed):
    """count seeded 3D primitive generating sets, each of 4 to 8 primitive
    points of the box [-2, 2]^3."""
    rng = random.Random(seed)
    prims = box_primitives(2, 3)
    out = []
    while len(out) < count:
        pts = rng.sample(prims, rng.randint(4, 8))
        if positively_spans(pts, 3):
            out.append(PrimGenSet(3, pts))
    return out


def test_the_whole_set_fiber_is_built_as_any_fiber():
    # the fiber spanning the whole space: the identity basis, a projection
    # with no rows, the empty base, irreducible, Mori exactly for d + 1
    # points; on the box-3 canonical sets and random sets in space
    sets = [from_polytope(p) for p in enumerate_class_polygons(3, "canonical")] + _random_3d_pgss(200, 0)
    # and the bases of their structures: the 1D base {-1, 1} and the 2D bases in space
    bases = {fs.base for a in sets for fs in fiber_structures(a) if fs.base.dim > 0}
    assert len(sets) == 1028 and {b.dim for b in bases} == {1, 2} and len(bases) > 20
    for a in sets + sorted(bases, key=lambda b: b.points):
        d = a.dim
        fs = fiber_structure_for(a, a.points)
        assert fs.span_basis == mat_identity(d) and fs.projection.matrix == ()
        assert fs.base == PrimGenSet(0, ())
        assert fs.irreducible and fs.mori == (len(a) == d + 1)


def _fiber_structures_reference(parent):
    """The every-point loop: one span per point and, in 3D, per independent
    pair; each span's full intersection is built and the failures dropped."""
    spans = {}
    for p in parent.points:
        spans.setdefault(saturate_span([p]), True)
    if parent.dim == 3:
        for a, b in combinations(parent.points, 2):
            if not in_span(a, saturate_span([b])):
                spans.setdefault(saturate_span([a, b]), True)
    out = []
    for basis in spans:
        members = tuple(p for p in parent.points if in_span(p, basis))
        try:
            out.append(fiber_structure_for(parent, members))
        except InvalidFiberStructure:
            continue
    out.append(fiber_structure_for(parent, parent.points))
    return sorted(out, key=lambda fs: (fs.fiber_dim, fs.fiber))


def _pgs_strategy(dim, box):
    """Primitive generating sets, most not the primitive points of their
    hull; each drawn point may bring its negative along, so that line
    fibers occur."""
    point = st.tuples(*[st.integers(-box, box)] * dim).filter(is_primitive)
    return st.lists(st.tuples(point, st.booleans()), min_size=2, max_size=7).map(
        lambda drawn: sorted(
            {q for p, both in drawn for q in ((p, tuple(-x for x in p)) if both else (p,))}
        )
    ).filter(lambda pts: is_pgs(pts, dim)[0]).map(lambda pts: PrimGenSet(dim, pts))


def _check_against_reference(a):
    ref = _fiber_structures_reference(a)
    assert [fiber_structure_to_json(fs) for fs in fiber_structures(a)] == [
        fiber_structure_to_json(fs) for fs in ref
    ]
    assert [fiber_structure_to_json(fs) for fs in mori_fiber_structures(a)] == [
        fiber_structure_to_json(fs) for fs in ref if fs.mori
    ]
    if a.dim == 2 and len(a) > 4:
        assert not any(fs.mori for fs in ref)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_pgs_strategy(2, 4))
def test_planar_fiber_structures_match_the_every_point_loop(a):
    _check_against_reference(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_pgs_strategy(3, 2))
def test_3d_fiber_structures_match_the_every_point_loop(a):
    _check_against_reference(a)
    # the build checks no base: the projection of a positively spanning set
    for fs in fiber_structures(a):
        assert is_pgs(fs.base.points, fs.base.dim) == (True, "ok")


def _builds(monkeypatch, fn, a):
    """The fibers fn(a) builds from empty memos."""
    built = []
    build = genset._build_fiber_structure

    def spy(parent, fiber):
        built.append(fiber)
        return build(parent, fiber)

    genset._fiber_structure.cache_clear()
    monkeypatch.setattr(genset, "_build_fiber_structure", spy)
    fn(a)
    return built


def test_only_fiber_structures_that_can_exist_are_built(monkeypatch):
    hexagon = PrimGenSet(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    assert _builds(monkeypatch, mori_fiber_structures, hexagon) == []
    # the three antipodal lines and the whole set
    assert len(_builds(monkeypatch, fiber_structures, hexagon)) == 4
    # (0, 1) and (-2, -1) have no negative in the set: no fiber on their lines
    assert _builds(monkeypatch, fiber_structures, QUAD2) == [((-1, 0), (1, 0)), QUAD2.points]


def test_planar_mori_fiber_structures_are_those_of_mori_fibers():
    # in the plane the Mori fibers are the whole 3-point set or the antipodal
    # pairs of a 4-point set, never both: the filtered fiber structures are
    # the structures of mori_fibers, in its order
    sets = {from_polytope(p) for p in enumerate_class_polygons(3, "canonical")}
    sets |= {
        PrimGenSet.of_sorted(2, tuple(sorted(a.points + (w,))))
        for a in sets
        for w in box_primitives(2, 2)
        if w not in a.points
    }
    assert len(sets) > 5000
    for a in sorted(sets, key=lambda a: a.points):
        assert mori_fiber_structures(a) == tuple(fs for fs in fiber_structures(a) if fs.mori)


def test_counting_invariant_and_base_is_pgs():
    for a in (TRIANGLE, SQUARE, QUAD1, QUAD2):
        for fs in fiber_structures(a):
            assert len(fs.parent) >= len(fs.fiber) + len(fs.base)
            assert fs.irreducible == (len(fs.parent) == len(fs.fiber) + len(fs.base))
            if not fs.trivial:
                ok, _ = is_pgs(fs.base.points, fs.base.dim)
                assert ok


def _apply(m, pts):
    return [tuple(sum(m[i][j] * p[j] for j in range(2)) for i in range(2)) for p in pts]


def test_fiber_structures_unimodular_equivariance():
    rng = random.Random(7)
    gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((-1, 0), (0, 1))]
    for _ in range(20):
        m = ((1, 0), (0, 1))
        for _ in range(6):
            m = mat_mul(m, rng.choice(gens))
        g = UnimodularMap(m)
        for a in (SQUARE, QUAD1, QUAD2):
            moved = PrimGenSet(2, g.apply_all(a.points))
            expect = {tuple(sorted(g.apply_all(fs.fiber))) for fs in fiber_structures(a)}
            got = {fs.fiber for fs in fiber_structures(moved)}
            assert got == expect


def test_reduction_chains_terminate():
    big = from_polytope(hull([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)]))
    a = big
    steps = 0
    while True:
        red = reductions(a)
        if not red:
            break
        a = red[0][1]
        steps += 1
    assert steps <= len(big) - 3
    assert len(a) >= 3

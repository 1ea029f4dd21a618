import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanoweb.lattice import bezout
from fanoweb.polytopes import (
    CLASS_NAMES,
    DegenerateHullError,
    _pick_counts,
    _point_lists,
    _scan,
    affine_dimension,
    classify,
    hull,
    in_class,
    in_hull,
    interior_lattice_points,
    lattice_points,
    lattice_points_in_hull,
    mavlyutov_dual,
    polar_dual,
    primitive_points,
    primitive_points_in_hull,
)
from fanoweb.web import enumerate_class_polygons
from normal_forms import normal_form
from test_genset import _random_3d_pgss
from test_web import _GL_WORDS, _classes, _gl_map

TRIANGLE = [(1, 0), (0, 1), (-1, -1)]          # plane polygon
SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]    # the two-ruling polygon
QUAD1 = [(1, 0), (0, 1), (-1, 0), (-1, -1)]
QUAD2 = [(1, 0), (0, 1), (-1, 0), (-2, -1)]

V = {
    1: (1, 0, 0),
    2: (0, 1, 0),
    3: (-1, -1, 0),
    4: (-1, 0, 0),
    5: (0, 0, 1),
    6: (-1, 0, -1),
    7: (-2, 0, -1),
}


def test_hull_drops_nonextremal_points():
    p = hull([(1, 0), (0, 1), (-1, 0), (-2, -1)])
    assert p.vertices == hull([(1, 0), (0, 1), (-2, -1)]).vertices
    # interior-edge point: midpoint of (0,1) and (-2,-1)
    assert (-1, 0) in lattice_points(p)
    assert (-1, 0) not in p.vertices


def test_hull_already_extremal():
    p = hull(TRIANGLE)
    assert set(p.vertices) == set(map(tuple, TRIANGLE))
    assert len(p.vertices) == 3


def test_hull_canonical_order_ccw_from_lexmin():
    p = hull(SQUARE)
    assert p.vertices[0] == (-1, 0)
    assert p.vertices == ((-1, 0), (0, -1), (1, 0), (0, 1))


def test_hull_degenerate_input():
    # in space, a solid's vertex lies on three facet planes of independent
    # normals: a point, a segment, a collinear triple and a coplanar set
    # have none
    cases = (
        ([(0, 0), (1, 1), (2, 2)], 1),
        ([(1, 2, 3)], 0),
        ([(1, 0, 0), (-1, 0, 0)], 1),
        ([(0, 0, 0), (1, 1, 1), (2, 2, 2)], 1),
        ([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 0)], 2),
    )
    for pts, adim in cases:
        with pytest.raises(DegenerateHullError) as e:
            hull(pts)
        assert e.value.affine_dim == adim
    # a polygon in space is counted in its plane
    flat = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 0)]
    assert lattice_points_in_hull(flat) == ((-1, -1, 0), (0, 0, 0), (0, 1, 0), (1, 0, 0))
    tilted = [(2, 0, -1), (0, 2, -1), (-1, -1, 3), (0, 0, 1)]  # on x + y + z = 1
    expected = ((-1, -1, 3), (0, 0, 1), (0, 1, 0), (0, 2, -1), (1, 0, 0), (1, 1, -1), (2, 0, -1))
    assert lattice_points_in_hull(tilted) == expected == _reference_lattice_points(tilted)


def test_hull_refuses_mixed_lengths():
    with pytest.raises(ValueError, match="different lengths"):
        hull([(1, 0, 0), (0, 1), (-1, -1)])


def test_hull_refuses_non_integer_coordinates():
    tri = hull([(1, 0), (0, 1), (-1, -1)])  # the memo now holds the triangle
    for pts in (
        [(1.5, 0), (0, 1), (-1, -1)],
        [(1.0, 0), (0, 1), (-1, -1)],
        [(True, 0), (0, 1), (-1, -1)],
        [(1, 0), (1.0, 0), (0, 1), (-1, -1)],
    ):
        with pytest.raises(ValueError, match="integer coordinates"):
            hull(pts)
    assert hull([[1, 0], [0, 1], [-1, -1]]) == tri


def test_hull_3d_with_nonvertex_member():
    pts = [V[1], V[2], V[3], V[5], V[7]]
    p = hull(pts)
    assert len(p.vertices) == 5
    # v4 = (v5 + v7) / 2 is a lattice point of the hull but not a vertex
    assert p.contains(V[4])
    assert V[4] not in p.vertices
    assert in_hull(V[4], pts)
    assert not in_hull(V[6], pts)
    with pytest.raises(ValueError, match="integer point"):
        in_hull((0.5, 0, 0), pts)


def test_lattice_points_triangle():
    p = hull(TRIANGLE)
    assert lattice_points(p) == ((-1, -1), (0, 0), (0, 1), (1, 0))
    assert interior_lattice_points(p) == ((0, 0),)


def test_lattice_points_degenerating_quadrilateral():
    p = hull([(1, 0), (0, 1), (-1, 0), (-3, -1)])
    assert set(interior_lattice_points(p)) == {(0, 0), (-1, 0)}
    assert not classify(p).canonical


def test_lattice_points_big_square():
    p = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert len(lattice_points(p)) == 9
    assert interior_lattice_points(p) == ((0, 0),)


def test_lattice_points_big_diamond_count():
    # |x| + |y| <= n holds 2n^2 + 2n + 1 lattice points
    p = hull([(600, 0), (0, 600), (-600, 0), (0, -600)])
    assert len(lattice_points(p)) == 721_201


# Brute-force references: every cell of the bounding box, tested against the
# counter-clockwise vertices (2D) or the facets (3D), independent of the
# interval scan and of Pick's theorem.


def _side(a, b, x):
    return (b[0] - a[0]) * (x[1] - a[1]) - (b[1] - a[1]) * (x[0] - a[0])


def _cells_2d(p):
    vs = p.vertices
    edges = list(zip(vs, vs[1:] + vs[:1]))
    box = [range(min(a), max(a) + 1) for a in zip(*vs)]
    inside, interior = [], []
    for x in product(*box):
        sides = [_side(a, b, x) for a, b in edges]
        if min(sides) >= 0:
            inside.append(x)
            if min(sides) > 0:
                interior.append(x)
    return inside, interior


def _cells_3d(p):
    box = [range(min(a), max(a) + 1) for a in zip(*p.vertices)]
    return [x for x in product(*box) if all(sum(a * b for a, b in zip(n, x)) >= -lv for n, lv in p.facets)]


def _hull_or_reject(pts):
    try:
        return hull(pts)
    except DegenerateHullError:
        assume(False)


def _points(bounds, max_size):
    coords = [st.integers(-b, b) for b in bounds]
    return st.lists(st.tuples(*coords), min_size=len(bounds) + 1, max_size=max_size)


def _moved(pts, word, extra):
    for a, b, c, d in word:
        pts = [(a * x + b * y, c * x + d * y) for x, y in pts]
    return pts + extra


# Subsets of the 3x3 box around the origin are canonical whenever the origin
# is interior, and terminal when no edge holds a further lattice point.
# Unimodular images keep both flags and reach larger coordinates; an extra
# point may break them.  Plain random points give the wide and negative cases.
_NEAR_CANONICAL = st.builds(
    _moved,
    st.lists(st.sampled_from([q for q in product((-1, 0, 1), repeat=2) if q != (0, 0)]),
             min_size=3, max_size=8, unique=True),
    st.lists(st.sampled_from([(1, 1, 0, 1), (1, 0, 1, 1), (0, -1, 1, 0), (1, -1, 0, 1)]), max_size=5),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=1),
)
_POINTS_2D = st.one_of(_NEAR_CANONICAL, st.sampled_from([(3, 3), (40, 40)]).flatmap(lambda b: _points(b, 7)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pts=_POINTS_2D)
def test_pick_predicates_match_cell_scan(pts):
    p = _hull_or_reject(pts)
    inside, interior = _cells_2d(p)
    canonical = interior == [(0, 0)]
    terminal = canonical and sorted(inside) == sorted(set(p.vertices) | {(0, 0)})
    assert in_class(p, "canonical") == canonical
    assert in_class(p, "terminal") == terminal
    flags = classify(p)
    assert (flags.canonical, flags.terminal) == (canonical, terminal)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pts=_POINTS_2D)
def test_lattice_points_2d_match_cell_scan_and_pick(pts):
    p = _hull_or_reject(pts)
    inside, interior = _cells_2d(p)
    assert lattice_points(p) == tuple(inside)
    assert interior_lattice_points(p) == tuple(interior)
    twice_area, boundary = _pick_counts(p.vertices)
    assert (twice_area - boundary) % 2 == 0
    assert len(lattice_points(p)) == (twice_area - boundary + 2) // 2 + boundary


@settings(max_examples=150, deadline=None, derandomize=True)
# one long axis keeps the brute-force box small at coordinates up to 40
@given(pts=st.sampled_from([(2, 2, 2), (4, 4, 4), (40, 3, 3)]).flatmap(lambda b: _points(b, 8)))
def test_lattice_points_3d_match_cell_scan(pts):
    p = _hull_or_reject(pts)
    assert lattice_points(p) == tuple(_cells_3d(p))


def _halfplane_vertex_oracle(vertices):
    # independent oracle for the dual polygon: intersect pairs of lines
    # <u, v> = -1 over Q and keep points feasible for every vertex inequality
    out = set()
    vs = list(vertices)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            a1, b1 = vs[i]
            a2, b2 = vs[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = Fraction(-b2 + b1, det)
            y = Fraction(-a1 + a2, det)
            if all(v[0] * x + v[1] * y >= -1 for v in vs):
                out.add((x, y))
    return out


def test_polar_dual_triangle():
    p = hull(TRIANGLE)
    d = polar_dual(p)
    assert set(d.vertices) == {
        (Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
        (Fraction(-1), Fraction(-1)),
    }
    assert set(d.vertices) == _halfplane_vertex_oracle(p.vertices)


def test_polar_dual_square_pair():
    sq = hull(SQUARE)
    d = polar_dual(sq)
    assert {tuple(map(int, v)) for v in d.vertices} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    big = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    dd = polar_dual(big)
    assert {tuple(map(int, v)) for v in dd.vertices} == set(map(tuple, SQUARE))


def test_polar_dual_requires_interior_origin():
    shifted = hull([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(ValueError):
        polar_dual(shifted)
    with pytest.raises(ValueError):
        mavlyutov_dual(shifted)


def test_double_dual_is_identity():
    for pts in (TRIANGLE, SQUARE, QUAD1, QUAD2):
        p = hull(pts)
        assert polar_dual(polar_dual(p)) == p


def _hull_route_dual(p):
    """(vertices, facets) of the polar dual by the hull route, which shares
    nothing with polar_dual's closed form: the points normal/level of p's
    facets scaled to integers by their common denominator, hulled, and
    scaled back."""
    points = [tuple(Fraction(x) / lv for x in n) for n, lv in p.facets]
    den = lcm(*(x.denominator for v in points for x in v))
    q = hull([tuple(int(x * den) for x in v) for v in points])
    return (
        tuple(tuple(Fraction(x, den) for x in v) for v in q.vertices),
        tuple((n, Fraction(lv, den)) for n, lv in q.facets),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pts=st.one_of(_points((6, 6), 8), _points((3, 3, 3), 8)))
@example(pts=QUAD2)
@example(pts=[(1, 0), (0, 1), (-3, -1)])  # a dual with non-integer vertices
@example(pts=[(2, 1), (-1, 2), (-1, -3)])  # non-primitive vertices: levels below 1
@example(pts=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
def test_polar_dual_matches_the_hull_route(pts):
    p = _hull_or_reject(pts)
    assume(p.origin_interior())
    d = polar_dual(p)
    assert (d.vertices, d.facets) == _hull_route_dual(p)
    dd = polar_dual(d)  # rational input
    assert (dd.vertices, dd.facets) == _hull_route_dual(d)
    assert (dd.vertices, dd.facets) == (p.vertices, p.facets)


def test_an_integral_dual_is_the_lattice_polytope():
    """A dual with integer vertices holds ints, not integral Fractions, so
    the lattice functions (and the in_class memo, whichever of the two equal
    polytopes reaches it first) treat it as the lattice polytope."""
    for pts in (TRIANGLE, SQUARE, QUAD1, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]):
        d = polar_dual(hull(pts))
        values = [x for v in d.vertices for x in v] + [x for n, lv in d.facets for x in n + (lv,)]
        assert all(type(x) is int for x in values)
        in_class.cache_clear()
        assert in_class(d, "reflexive")
        twin = hull(d.vertices)
        assert (d.vertices, d.facets) == (twin.vertices, twin.facets)
        assert classify(d) == classify(twin)
        assert lattice_points(d) == lattice_points(twin)
        assert normal_form(d) == normal_form(twin)
    d = polar_dual(hull([(1, 0), (0, 1), (-3, -1)]))
    assert any(type(x) is Fraction for v in d.vertices for x in v)


def test_mavlyutov_reflexive_is_polar():
    p = hull(QUAD1)
    md = mavlyutov_dual(p)
    assert md.polytope is not None
    dual_verts = {tuple(map(int, v)) for v in polar_dual(p).vertices}
    assert set(md.polytope.vertices) == dual_verts


def _rational_mavlyutov_points(p):
    """The reference route: the lattice points of the rational polar dual,
    scanned over its own facets (_scan is exact on Fraction levels too)."""
    q = polar_dual(p)
    lo = [ceil(min(axis)) for axis in zip(*q.vertices)]
    hi = [floor(max(axis)) for axis in zip(*q.vertices)]
    return _scan(q.facets, lo, hi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pts=st.one_of(_points((6, 6), 8), _points((3, 3, 3), 8)))
@example(pts=QUAD2)
@example(pts=[(1, 0), (0, 1), (-3, -1)])  # Fano but not canonical
@example(pts=[(2, 1), (-1, 2), (-1, -3)])  # origin inside, vertices not primitive
def test_mavlyutov_dual_matches_rational_route(pts):
    p = _hull_or_reject(pts)
    assume(p.origin_interior())
    assert mavlyutov_dual(p).points == _rational_mavlyutov_points(p)


def test_mavlyutov_lower_dimensional():
    p = hull([(1, 0), (-1, 0), (0, 2), (0, -2)])
    md = mavlyutov_dual(p)
    assert md.polytope is None
    assert md.dim == 1
    assert set(md.points) == {(-1, 0), (0, 0), (1, 0)}


def test_classify_standard_polygons():
    flags2 = classify(hull(QUAD2))
    assert flags2.fano and flags2.canonical and flags2.reflexive
    assert not flags2.terminal  # (-1, 0) is a boundary non-vertex
    flags1 = classify(hull(QUAD1))
    assert flags1.terminal and flags1.reflexive
    bad = classify(hull([(1, 0), (0, 1), (-3, -1)]))
    assert not bad.canonical


def test_classify_origin_not_interior():
    p = hull([(0, 0), (1, 0), (0, 1)])
    f = classify(p)
    assert f == classify(hull([(0, 0), (2, 0), (0, 2)])).__class__(
        False, False, False, False, False, False
    )


def test_classify_reads_each_class_as_in_class_does():
    # the 828 canonical polygons of box 3, a Fano triangle that is not
    # canonical, two triangles that are not Fano and the hulls of random
    # sets in space: each flag takes both values
    polys = list(enumerate_class_polygons(3, "canonical")) + [hull([(1, 0), (0, 1), (-3, -1)])]
    polys += [hull([(2, 0), (0, 1), (-1, -1)]), hull([(0, 0), (1, 0), (0, 1)])]
    polys += [hull(a.points) for a in _random_3d_pgss(200, 0)]
    assert len(polys) == 1031
    seen = set()
    for p in polys:
        flags = classify(p)
        for name in CLASS_NAMES[1:]:
            assert flags.get(name) == in_class(p, name)
            seen.add((name, flags.get(name)))
    assert len(seen) == 12


def test_classify_implication_chain_3d_fixtures():
    fixtures = [
        hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
        hull([(s * a, s * b, s * c) for s in (1, -1) for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]),
        hull(list(V.values())),
        hull([V[1], V[2], V[3], V[4], V[5], V[7]]),
        hull([V[1], V[2], V[3], V[5], V[6]]),
    ]
    for p in fixtures:
        f = classify(p)
        if f.terminal:
            assert f.canonical
        if f.reflexive:
            assert f.pseudoreflexive
        if f.pseudoreflexive:
            assert f.almost_pseudoreflexive
        if f.almost_pseudoreflexive:
            assert f.canonical


def test_primitive_points_examples():
    assert set(primitive_points(hull(QUAD2))) == {(1, 0), (0, 1), (-1, 0), (-2, -1)}
    assert set(primitive_points(hull(TRIANGLE))) == set(map(tuple, TRIANGLE))
    p = hull([V[1], V[2], V[3], V[4], V[5], V[7]])
    assert set(primitive_points(p)) == {V[i] for i in (1, 2, 3, 4, 5, 7)}
    # the hull of the five "A"-labelled generators picks up v4
    assert set(primitive_points_in_hull([V[1], V[2], V[3], V[5], V[7]])) == {
        V[i] for i in (1, 2, 3, 4, 5, 7)
    }


def test_primitive_points_requires_fano():
    with pytest.raises(ValueError):
        primitive_points(hull([(2, 0), (0, 2), (-2, -2)]))


def test_primitive_points_are_the_primitive_lattice_points():
    # the canonical polygons of box 3, and Fano ones with more interior points
    polys = list(enumerate_class_polygons(3, "canonical"))
    polys += [hull([(1, 0), (0, 1), (-3, -2)]), hull([(3, 1), (-1, 3), (-3, -1), (1, -3)])]
    for p in polys:
        assert primitive_points(p) == tuple(q for q in lattice_points(p) if gcd(*q) == 1)
    for vertices in ([(2, 0), (0, 2), (-2, -2)], [(1, 0), (0, 1), (1, 1)]):
        p = hull(vertices)
        assert lattice_points(p)  # its memo entry is made before the refusal
        with pytest.raises(ValueError):
            primitive_points(p)


def test_a_warm_primitive_points_checks_fano_no_more(monkeypatch):
    """The Fano verdict is held in the polytope's point-list memo entry, so
    only a cold call checks it, and a warm refusal is the same refusal."""
    from fanoweb import polytopes

    calls = []
    real = polytopes.is_fano
    monkeypatch.setattr(polytopes, "is_fano", lambda p: calls.append(p) or real(p))
    fano, other = hull([(1, 0), (0, 1), (-3, -2)]), hull([(2, 0), (0, 2), (-2, -2)])
    _point_lists.cache_clear()
    for expected_calls in ([fano, other], []):
        assert primitive_points(fano) == tuple(q for q in lattice_points(fano) if gcd(*q) == 1)
        with pytest.raises(ValueError, match="defined for Fano polytopes only"):
            primitive_points(other)
        assert calls == expected_calls
        calls.clear()


def test_primitive_points_in_hull_lower_dim():
    assert primitive_points_in_hull([(1, 0, 0), (-1, 0, 0)]) == ((-1, 0, 0), (1, 0, 0))
    quad = [V[1], V[2], V[3], V[4]]
    assert set(primitive_points_in_hull(quad)) == set(quad)


def test_primitive_points_in_hull_of_no_points():
    assert primitive_points_in_hull([]) == ()


def _scanned_point_lists(p):
    """The scan route of _point_lists, the reference for its ring route."""
    lo = [min(axis) for axis in zip(*p.vertices)]
    hi = [max(axis) for axis in zip(*p.vertices)]
    points = _scan(p.facets, lo, hi)
    return points, tuple(q for q in points if gcd(*q) == 1)


def test_canonical_point_lists_equal_the_scan():
    polys = list(enumerate_class_polygons(3, "canonical"))
    assert len(polys) == 828
    # 300 images under maps [[a, b], [c, d]] with a primitive first column
    # of entries up to 100 and det 1: b, d from a Bezout pair, then sheared
    rng = random.Random(7)
    classes = _classes()
    while len(polys) < 828 + 300:
        a, c = rng.randint(-100, 100), rng.randint(-100, 100)
        g, x, y = bezout(a, c)
        if g != 1:
            continue
        t = rng.randint(-3, 3)
        b, d = -y + t * a, x + t * c
        polys.append(hull([(a * u + b * v, c * u + d * v) for u, v in rng.choice(classes).vertices]))
    for p in polys:
        assert _point_lists.__wrapped__(p) == _scanned_point_lists(p), p


def test_a_canonical_polygon_is_read_off_its_ring(monkeypatch):
    from fanoweb import polytopes

    calls = []
    real = polytopes._scan
    monkeypatch.setattr(polytopes, "_scan", lambda *args: calls.append(args) or real(*args))
    n = 10**5
    image = hull([(n * x + (n + 1) * y, (n - 1) * x + n * y) for x, y in TRIANGLE])
    assert _point_lists.__wrapped__(image) == (tuple(sorted(image.vertices + ((0, 0),))), tuple(sorted(image.vertices)))
    assert calls == []
    # a Fano polygon that is not canonical is still scanned
    fano = hull([(1, 0), (-2, 1), (-2, -1)])
    assert not in_class(fano, "canonical")
    assert _point_lists.__wrapped__(fano)[0] == ((-2, -1), (-2, 0), (-2, 1), (-1, 0), (0, 0), (1, 0))
    assert len(calls) == 1


def test_large_coordinates_scan_few_prefixes():
    n = 10**6
    assert len(lattice_points(hull([(1, 0), (n, 1), (-1 - n, -1)]))) == 4
    ends = ((-(10**9), -1), (10**9, 1))
    assert primitive_points_in_hull(ends) == ends


# Brute-force reference for lattice_points_in_hull: every cell of the bounding
# box, kept when some affinely independent subset of the points holds it with
# nonnegative barycentric weights (Caratheodory), solved exactly over Q.


def _barycentric(columns, target):
    """The unique rational x with sum_i x_i * columns[i] == target, or None
    when there is none or the columns are dependent."""
    k = len(columns)
    rows = [[Fraction(c[j]) for c in columns] + [Fraction(target[j])] for j in range(len(target))]
    for col in range(k):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(len(rows)):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    if any(row[k] for row in rows[k:]):
        return None
    return [rows[i][k] for i in range(k)]


def _reference_in_hull(x, pts):
    lifted = [p + (1,) for p in pts]
    for k in range(1, len(x) + 2):
        for subset in combinations(lifted, k):
            w = _barycentric(subset, x + (1,))
            if w is not None and min(w) >= 0:
                return True
    return False


def _reference_lattice_points(pts):
    pts = sorted(set(pts))
    box = product(*(range(min(a), max(a) + 1) for a in zip(*pts)))
    return tuple(x for x in box if _reference_in_hull(x, pts))


def _check_3d_vertices(pts, separate=False):
    """hull's vertices are the points outside the hull of the others, by the
    Carathéodory reference; with separate, a vertex is shown outside by a
    functional in [-2, 2]^3 that it alone maximizes, as the reference costs
    seconds on a vertex among two dozen points."""
    vertices = hull(pts).vertices
    for x in pts:
        others = [q for q in pts if q != x]
        if x in vertices and separate:
            assert any(
                all(sum(a * (b - c) for a, b, c in zip(f, x, q)) > 0 for q in others)
                for f in product(range(-2, 3), repeat=3)
            )
        else:
            assert (x in vertices) == (not _reference_in_hull(x, others))


def test_3d_hull_vertices_on_the_cube_and_the_doubled_octahedron():
    # a vertex lies on three or more facet planes, a point inside an edge on
    # two, inside a facet on one and inside the solid on none: the cube's
    # corners, edge midpoints, face centres and centre; the doubled
    # octahedron's vertices, edge midpoints and inner points
    cube = list(product(range(-1, 2), repeat=3))
    octahedron = [x for x in cube + [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)]
                  if sum(map(abs, x)) <= 2]
    assert len(octahedron) == 25
    for pts, count in ((cube, 8), (octahedron, 6)):
        assert len(hull(pts).vertices) == count
        _check_3d_vertices(pts, separate=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pts=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=8, unique=True))
def test_3d_hull_vertices_are_the_points_outside_the_hull_of_the_others(pts):
    assume(affine_dimension(pts) == 3)
    _check_3d_vertices(pts)


@st.composite
def _affine_sets(draw):
    """A base point, the base plus each of k generators, and a few integer
    combinations of them that stay in [-2, 2]^d, in Z^2 or Z^3: affine
    dimension k for independent generators, k from 0 to d."""
    d = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(0, d))
    small = st.tuples(*[st.integers(-1, 1)] * d)
    base = draw(small)
    gens = draw(st.lists(small, min_size=k, max_size=k))
    combos = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * k), max_size=3))
    pts = [tuple(b + sum(c * g[i] for c, g in zip(cs, gens)) for i, b in enumerate(base))
           for cs in [(0,) * k] + [tuple(int(i == j) for i in range(k)) for j in range(k)] + combos]
    return [p for p in pts if max(map(abs, p)) <= 2]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=_affine_sets())
@example(pts=[(1, -2)])
@example(pts=[(0, 0), (12, -18)])
@example(pts=[(4, -2, 6), (0, 0, 0)])
@example(pts=[(2, -1, 0), (-2, 1, 0)])
@example(pts=[(0, 0, 0), (2, 2, 0), (0, 0, 2)])
@example(pts=[(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (-2, 0, -1)])
def test_lattice_points_in_hull_match_caratheodory_cells(pts):
    expected = _reference_lattice_points(pts)
    assert lattice_points_in_hull(pts) == expected
    assert primitive_points_in_hull(pts) == tuple(x for x in expected if gcd(*x) == 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    pts=_affine_sets(),
    word=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.sampled_from((-3, -1, 1, 2))), max_size=6),
    flip=st.booleans(),
)
@example(pts=[(0, 0), (12, -18)], word=[(0, 0, 2)], flip=True)
@example(pts=[(4, -2, 6), (0, 0, 0)], word=[(1, 1, -3), (2, 0, 1)], flip=False)
def test_lattice_points_in_hull_commute_with_unimodular_maps(pts, word, flip):
    d = len(pts[0])

    def g(x):
        x = list(x)
        if flip:
            x[0] = -x[0]
        for i, j, q in word:  # a shear: coordinate i gains q times another one
            x[i % d] += q * x[(i + 1 + j % (d - 1)) % d]
        return tuple(x)

    assert lattice_points_in_hull([g(x) for x in pts]) == tuple(sorted(map(g, lattice_points_in_hull(pts))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pts=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=6), word=_GL_WORDS)
@example(pts=TRIANGLE, word=["T"] * 50)
@example(pts=QUAD1, word=["T", "S", "T^-1", "S^-1"] * 10)  # Fibonacci entries up to 10,946
@example(pts=QUAD2, word=["S", "T^-1", "U", "T"])
def test_normal_form_of_gl_images_matches_reference(pts, word):
    p = _hull_or_reject(pts)
    assert normal_form(hull(_gl_map(word).apply_all(p.vertices))) == normal_form(p)


def _orbit_key(vertices):
    """A GL(2,Z)-orbit key of a reflexive polygon that uses neither fanoweb's
    hull nor its Hermite form: the least image of the counter-clockwise
    boundary ring under the map sending a consecutive boundary pair u, w to
    e1, e2, over both orientations.  Consecutive boundary points of a
    reflexive polygon have det +-1, so each map is unimodular and each image
    is the boundary ring of an image polygon, read from e1: the key is
    constant on orbits and tells them apart."""

    def lower(v):
        return v[1] < 0 or (v[1] == 0 and v[0] < 0)

    vs = sorted(vertices, key=cmp_to_key(lambda a, b: lower(a) - lower(b) or a[1] * b[0] - a[0] * b[1]))
    ring = []
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        g = gcd(x1 - x0, y1 - y0)
        ring += [(x0 + k * (x1 - x0) // g, y0 + k * (y1 - y0) // g) for k in range(g)]
    n = len(ring)
    images = []
    for step in (1, -1):
        for i in range(n):
            (a, b), (c, d) = ring[i], ring[(i + step) % n]
            det = a * d - b * c
            assert det in (1, -1)
            walk = (ring[(i + k * step) % n] for k in range(n))
            images.append(tuple((det * (d * x - c * y), det * (a * y - b * x)) for x, y in walk))
    return min(images)


def test_an_independent_orbit_key_splits_the_canonical_polygons_as_the_normal_form():
    """The 828 canonical polygons of box 3 fall into the same 16 parts under
    the independent key as under the tests' normal form, whose forms are the
    class table."""
    polys = enumerate_class_polygons(3, "canonical")
    assert len(polys) == 828
    by_key, by_form = {}, {}
    for p in polys:
        by_key.setdefault(_orbit_key(p.vertices), set()).add(p.vertices)
        by_form.setdefault(normal_form(p), set()).add(p.vertices)
    parts = set(map(frozenset, by_form.values()))
    assert len(parts) == 16
    assert set(map(frozenset, by_key.values())) == parts
    forms = sorted((nf.vertices, nf.facets) for nf in by_form)
    assert forms == [(c.vertices, c.facets) for c in _classes()]


def test_normal_form_orbit_constancy():
    s = ((0, -1), (1, 0))
    t = ((1, 1), (0, 1))
    tri = hull(TRIANGLE)
    moved = hull([(s[0][0] * x + s[0][1] * y, s[1][0] * x + s[1][1] * y) for x, y in TRIANGLE])
    assert normal_form(moved) == normal_form(tri)
    q2 = hull(QUAD2)
    moved2 = hull([(t[0][0] * x + t[0][1] * y, t[1][0] * x + t[1][1] * y) for x, y in QUAD2])
    assert normal_form(moved2) == normal_form(q2)


def test_normal_form_separates_orbits():
    assert normal_form(hull(SQUARE)) != normal_form(hull(QUAD1))


def test_affine_dimension():
    assert affine_dimension([(0, 0)]) == 0
    assert affine_dimension([(0, 0), (2, 2)]) == 1
    assert affine_dimension([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_dimension([V[1], V[2], V[3], V[4]]) == 2


def test_rank_of_many_points_is_linear(monkeypatch):
    """affine_dimension and the dual's lattice hull take the rank of one row
    per point; the Hermite form behind it must stay d x d, not n x n (5,000
    rows would need a 25-million-entry transform)."""
    from fanoweb import lattice

    real = lattice.row_hermite

    def small_only(mat):
        assert len(mat) <= 3, f"row_hermite of {len(mat)} rows"
        return real(mat)

    monkeypatch.setattr(lattice, "row_hermite", small_only)
    assert affine_dimension([(i, 2 * i, -3 * i) for i in range(5000)]) == 1
    assert affine_dimension([(i, i * i % 7) for i in range(5000)]) == 2
    p = hull([(1, 0), (0, 1), (-1, -5000)])  # its dual has 5,006 lattice points
    md = mavlyutov_dual(p)
    assert (md.dim, len(md.points)) == (2, 5006)
    assert classify(p).fano and not classify(p).canonical
    with pytest.raises(DegenerateHullError):
        hull([(i, 2 * i) for i in range(5000)])


def test_facet_consistency_and_vertex_saturation():
    fixtures = [
        hull(TRIANGLE),
        hull(SQUARE),
        hull(QUAD2),
        hull([V[i] for i in (1, 2, 3, 4, 5, 7)]),
        hull(list(V.values())),
    ]
    for p in fixtures:
        from fanoweb.lattice import dot

        for q in lattice_points(p):
            assert all(dot(n, q) >= -lv for n, lv in p.facets)
        for v in p.vertices:
            on = sum(1 for n, lv in p.facets if dot(n, v) == -lv)
            assert on >= p.dim

"""Lattice polytopes with exact facet data (dimensions 2 and 3).

A Polytope stores its extremal vertices in canonical order and its facets as
pairs (normal, level): the facet lies on {x : normal . x = -level}, the
normal is primitive, and the interior satisfies normal . x > -level.  With
the origin strictly inside, every level is a positive integer, and
polar_dual reads the polar dual off these data without a hull: a vertex
normal/level for each facet and a facet for each vertex.  The dual is a
Polytope too, with Fraction coordinates and levels where they are not
integers.

Everything else is exact integer arithmetic.  Hulls use a monotone chain with
inlined cross products in 2D and exhaustive supporting-plane enumeration in
3D (inputs here are tiny, so the cubic scan is simpler and safer than an
incremental hull).  lattice_points reads a canonical polygon's points off
its boundary ring.  It scans any other polytope, the widest axis of the
bounding box last: it walks every prefix of the other coordinates and takes
the exact interval of that axis from the facets, so it never tests a cell of
the box and visits the fewest prefixes.  lattice_points_in_hull finds the lattice
points of a hull of any affine dimension: a segment steps by its primitive
direction, and a polygon in space is counted in integer coordinates of the
saturated lattice of its plane, where its hull is full-dimensional, and
mapped back.  In 2D the canonical and terminal predicates come from Pick's
theorem, 2I = 2A - B + 2, evaluated on the vertices alone (_pick_counts); in
3D they count lattice points.  No normal form is computed here: web names
the reflexive classes from a literal table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd, lcm

from .lattice import (
    _Frozen,
    coordinates_in_basis,
    cross3,
    dot,
    is_primitive,
    matrix_rank,
    primitivize,
    saturate_span,
    vec_gcd,
    vec_sub,
)


# The one bound on every memo (functools.lru_cache) in fanoweb, so that no
# memo grows with the number of distinct inputs a process sees.  The largest
# memos after one seed-1 round of the benchmark workloads hold under 1,000
# entries: `links._shared` 583 on `bfs`, `links._relation_holds` 490 and
# `_hull` 431 on `sweep`, and `links._shared` at most 181 in a `cli` process.
# At 4,096 every workload keeps every hit, with room for larger inputs.
MEMO_SIZE = 4096


class DegenerateHullError(ValueError):
    """Input points do not span the ambient dimension."""

    def __init__(self, affine_dim):
        self.affine_dim = affine_dim
        super().__init__(f"degenerate hull: affine dimension {affine_dim}")


class Polytope:
    """Extremal vertices in hull's order and facets (normal, level).  The
    coordinates are ints, except in a polar dual, where the non-integral
    coordinates and levels are Fractions; only the facet methods,
    origin_interior and polar_dual accept those.  A dual with integer
    vertices has int values throughout, so it is the lattice polytope with
    those vertices: equal, with the same hash, and valid everywhere."""

    __slots__ = ("dim", "vertices", "facets", "_hash")

    def __init__(self, dim, vertices, facets):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self._hash = hash((dim, vertices))

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={list(self.vertices)})"

    def contains(self, point):
        return all(dot(n, point) >= -lv for n, lv in self.facets)

    def strictly_contains(self, point):
        return all(dot(n, point) > -lv for n, lv in self.facets)

    def origin_interior(self):
        return all(lv > 0 for _, lv in self.facets)


def affine_dimension(points):
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        return -1
    base = pts[0]
    rows = [vec_sub(p, base) for p in pts[1:]]
    if not rows:
        return 0
    return matrix_rank(rows)


def hull(points):
    """Convex hull of lattice points, canonical vertex order, exact facets.

    Raises DegenerateHullError when the points do not span the ambient
    dimension (which must be 2 or 3), and ValueError when the points do not
    all have the same length or a coordinate is not an int (a float or a
    bool included).
    """
    pts = [tuple(p) for p in points]
    _require_integers("hull", pts)
    if not pts:
        raise ValueError("hull of no points")
    return _hull(tuple(sorted(dict.fromkeys(pts))))


def _require_integers(caller, pts):
    """Raise ValueError unless every coordinate is an int.  Callers check
    before their memo or dedup, where 1.0 == 1 == True hash alike."""
    if not {int}.issuperset(map(type, chain.from_iterable(pts))):
        raise ValueError(f"{caller} needs integer coordinates, got {pts!r}")


@lru_cache(maxsize=MEMO_SIZE)
def _hull(pts):
    d = len(pts[0])
    if any(len(q) != d for q in pts):
        raise ValueError(f"points of different lengths: {sorted({len(q) for q in pts})}")
    if d == 2:
        return _hull2d(pts)
    if d == 3:
        return _hull3d(pts)
    raise ValueError(f"ambient dimension {d} is not supported")


def _hull2d(pts):
    """The polygon of sorted distinct points.  One or two, like any collinear
    set, leave a chain of fewer than three vertices, refused there."""

    def half(points):
        chain = []
        for p in points:
            px, py = p
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        raise DegenerateHullError(affine_dimension(pts))
    # monotone chain starts at the lexicographic minimum and runs CCW
    return _polygon(tuple(verts))


def _polygon(vertices):
    """The Polytope of vertices in hull's order (unchecked): CCW from the least."""
    facets = []
    for (ax, ay), (bx, by) in zip(vertices, vertices[1:] + vertices[:1]):
        g = gcd(bx - ax, by - ay)
        nx, ny = (ay - by) // g, (bx - ax) // g
        facets.append(((nx, ny), -(nx * ax + ny * ay)))
    return Polytope(2, vertices, tuple(sorted(facets)))


def _hull3d(pts):
    """The polytope of sorted distinct points in space, its degeneracy
    refused once, by the vertex scan.  Each kept plane holds three
    non-collinear points and supports the set, so it is a facet plane, and
    a point of a 3-polytope is a vertex exactly when it lies on three or
    more facets: inside an edge it lies on two, inside a facet on one.  A
    coplanar set yields only its plane's two sides and a collinear or
    smaller set no plane, so neither has a vertex."""
    n = len(pts)
    planes = {}
    for i, j, k in combinations(range(n), 3):
        nv = cross3(vec_sub(pts[j], pts[i]), vec_sub(pts[k], pts[i]))
        if nv == (0, 0, 0):
            continue
        nv = primitivize(nv)[0]
        c = dot(nv, pts[i])
        if (nv, c) in planes or (tuple(-x for x in nv), -c) in planes:
            continue
        vals = [dot(nv, p) for p in pts]
        hi, lo = max(vals), min(vals)
        if c == hi:
            planes[(nv, c)] = True
        if c == lo:
            planes[(tuple(-x for x in nv), -c)] = True
    # planes maps outer (n, c) with n.x <= c on the polytope
    facets = tuple(
        sorted((tuple(-x for x in nv), c) for (nv, c) in planes)
    )
    vertices = tuple(p for p in pts if sum(dot(nv, p) == c for nv, c in planes) >= 3)
    if not vertices:
        raise DegenerateHullError(affine_dimension(pts))
    return Polytope(3, vertices, facets)


def lattice_points(p):
    """All lattice points of the polytope, sorted lexicographically."""
    return _point_lists(p)[0]


@lru_cache(maxsize=MEMO_SIZE)
def _point_lists(p):
    """(lattice points, primitive lattice points) of the polytope, each
    sorted lexicographically, the primitive points None unless the polytope
    is Fano: one memo entry serves lattice_points and primitive_points and
    holds the Fano verdict.  Only the origin is inside a canonical polygon,
    so its points are its ring and the origin, read without a scan."""
    if p.dim == 2 and _canonical_terminal(p)[0]:
        points = tuple(sorted(_ring(p) + [(0, 0)]))
    else:
        lo = [min(axis) for axis in zip(*p.vertices)]
        hi = [max(axis) for axis in zip(*p.vertices)]
        points = _scan(p.facets, lo, hi)
    prims = tuple(q for q in points if vec_gcd(q) == 1) if is_fano(p) else None
    return points, prims


def _ring(p):
    """The boundary lattice points of a polygon, counter-clockwise from its
    least vertex: each edge in gcd steps."""
    vs = p.vertices
    out = []
    for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
        g = gcd(bx - ax, by - ay)
        dx, dy = (bx - ax) // g, (by - ay) // g
        out.extend((ax + k * dx, ay + k * dy) for k in range(g))
    return out


def _scan(facets, lo, hi):
    """Integer points x with lo <= x <= hi and n . x >= -level on every facet
    (integer normals and levels), in lexicographic order.

    The widest axis of the box is scanned last, so the fewest prefixes are
    visited: each prefix of the other coordinates meets the polytope in an
    exact interval of that axis, read off the facets with integer floor and
    ceiling and emitted whole.
    """
    last = max(reversed(range(len(lo))), key=lambda i: hi[i] - lo[i])
    rest = [i for i in range(len(lo)) if i != last]
    rows = [([n[i] for i in rest], n[last], -lv) for n, lv in facets]
    out = []
    for prefix in product(*(range(lo[i], hi[i] + 1) for i in rest)):
        zlo, zhi = lo[last], hi[last]
        for head, c, r in rows:
            for a, x in zip(head, prefix):
                r -= a * x
            # c * z >= r
            if c > 0:
                zlo = max(zlo, -(-r // c))
            elif c < 0:
                zhi = min(zhi, r // c)
            elif r > 0:
                zhi = zlo - 1
            if zlo > zhi:
                break
        before, after = prefix[:last], prefix[last:]
        out.extend(before + (z,) + after for z in range(zlo, zhi + 1))
    return tuple(sorted(out))


def interior_lattice_points(p):
    return tuple(q for q in lattice_points(p) if p.strictly_contains(q))


def lattice_points_in_hull(points):
    """All lattice points of conv(points), in any affine dimension, sorted
    lexicographically; () for no points.

    A full-dimensional input is the hull's own lattice_points.  A segment
    (any collinear set) runs from its least point a to its greatest b in
    steps of the primitive (b - a) / gcd(b - a), already in order.  A
    polygon in space is counted in its plane (_lattice_points_in_plane).
    Raises ValueError as hull does for mixed lengths or a coordinate that is
    not an int.
    """
    pts = [tuple(p) for p in points]
    _require_integers("lattice_points_in_hull", pts)
    pts = list(dict.fromkeys(pts))
    if len(pts) > 2:
        try:
            return lattice_points(hull(pts))
        except DegenerateHullError as e:
            if e.affine_dim == 2:
                return _lattice_points_in_plane(pts)
    elif len(pts) < 2:
        return tuple(pts)
    a, b = min(pts), max(pts)
    if len(a) != len(b):
        raise ValueError(f"points of different lengths: {[len(a), len(b)]}")
    # coordinate i runs from a[i] to b[i] in g equal integer steps
    g = vec_gcd(vec_sub(b, a))
    axes = [
        range(x, y + (y - x) // g, (y - x) // g) if x != y else (x,) * (g + 1)
        for x, y in zip(a, b)
    ]
    return tuple(zip(*axes))


def _lattice_points_in_plane(pts):
    """Lattice points of a polygon in Z^3, counted in integer coordinates of
    the saturated lattice of its span (base: the first point)."""
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]]
    basis = saturate_span(diffs)
    coords = ((0, 0),) + coordinates_in_basis(diffs, basis)
    axes = list(zip(*basis))
    inner = lattice_points(hull(coords))
    return tuple(sorted(tuple(b + dot(c, axis) for b, axis in zip(base, axes)) for c in inner))


def in_hull(point, points):
    """Whether the lattice point lies in conv(points), any affine dimension.

    Raises ValueError when a coordinate of the point is not an int.
    """
    point = tuple(point)
    if not {int}.issuperset(map(type, point)):
        raise ValueError(f"in_hull needs an integer point, got {point!r}")
    return point in lattice_points_in_hull(points)


def polar_dual(p):
    """Polar dual {u : <u, v> >= -1 on p} of an integer or rational p with
    the origin strictly inside, as a Polytope whose coordinates and levels
    are Fractions, each integral one given as an int: a dual with integer
    vertices is then the lattice polytope itself, for every function.

    Closed form, no hull.  Each facet (n, lv) of p gives the dual vertex
    n / lv: in 2D the edge from v_i to v_{i+1} (counter-clockwise) gives the
    i-th, and the list is rotated to start at the least (hull's order); in 3D
    the vertices are sorted.  Each vertex v of p gives the dual facet
    (n, level), n the primitive integer vector on the ray of v and
    v == n / level.  Fraction is imported here: importing fractions (with
    decimal and numbers) up front would cost every process about 3 ms.
    """
    from fractions import Fraction

    def quotient(a, b):
        q = Fraction(a) / b
        return q.numerator if q.denominator == 1 else q

    if not p.origin_interior():
        raise ValueError("polar dual requires the origin strictly inside")
    if p.dim == 2:
        vs = p.vertices
        verts = []
        for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
            # the edge's inward normal (ay - by, bx - ax) has level det(a, b)
            det = ax * by - ay * bx
            verts.append((quotient(ay - by, det), quotient(bx - ax, det)))
        k = verts.index(min(verts))
        vertices = tuple(verts[k:] + verts[:k])
    else:
        vertices = tuple(sorted(tuple(quotient(x, lv) for x in n) for n, lv in p.facets))
    facets = []
    for v in p.vertices:
        den = lcm(*(x.denominator for x in v))
        w = [x.numerator * (den // x.denominator) for x in v]
        g = vec_gcd(w)
        facets.append((tuple(x // g for x in w), quotient(den, g)))
    return Polytope(p.dim, vertices, tuple(sorted(facets)))


class MavlyutovDual(_Frozen):
    """Hull of the lattice points of the polar dual, with a dimension tag.

    polytope is None exactly when the hull is lower-dimensional.
    """

    __slots__ = ("dim", "points", "polytope")


def mavlyutov_dual(p):
    """The integer points u with <v, u> >= -1 at every vertex v of p, in the
    box of the polar dual's vertices n / level over the facets of p."""
    if not p.origin_interior():
        raise ValueError("polar dual requires the origin strictly inside")
    lo = [min(-(-n[i] // lv) for n, lv in p.facets) for i in range(p.dim)]
    hi = [max(n[i] // lv for n, lv in p.facets) for i in range(p.dim)]
    pts = _scan(tuple((v, 1) for v in p.vertices), lo, hi)
    adim = affine_dimension(pts)
    if adim == p.dim:
        return MavlyutovDual(adim, pts, hull(pts))
    return MavlyutovDual(adim, pts, None)


class ClassFlags(_Frozen):
    __slots__ = ("fano", "canonical", "terminal", "reflexive", "pseudoreflexive", "almost_pseudoreflexive")

    def get(self, name):
        return getattr(self, name)


CLASS_NAMES = ("none",) + ClassFlags.__slots__


def classify(p):
    """The six classification predicates: the first four from in_class,
    the two Mavlyutov flags computed here.

    With the origin not strictly interior every flag is false (the polytope
    is in particular not Fano).
    """
    fano, canonical, terminal, reflexive = (
        in_class(p, name) for name in ("fano", "canonical", "terminal", "reflexive")
    )
    apr = pr = False
    if p.origin_interior():
        md = mavlyutov_dual(p)
        apr = md.polytope is not None and md.polytope.origin_interior()
        if apr:
            md2 = mavlyutov_dual(md.polytope)
            pr = md2.polytope is not None and md2.polytope == p
    return ClassFlags(fano, canonical, terminal, reflexive, pr, apr)


def _pick_counts(vertices):
    """(2A, B) of a lattice polygon from its counter-clockwise vertices: twice
    the area (shoelace) and the number of boundary lattice points.  By Pick's
    theorem the polygon has I = (2A - B + 2) / 2 interior lattice points."""
    twice_area = boundary = 0
    x0, y0 = vertices[-1]
    for x1, y1 in vertices:
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
        x0, y0 = x1, y1
    return twice_area, boundary


def _canonical_terminal(p):
    """(canonical, terminal): the origin is the only interior lattice point;
    terminal also has no lattice point but the vertices on the boundary."""
    if not p.origin_interior():
        return False, False
    if p.dim == 2:
        twice_area, boundary = _pick_counts(p.vertices)
        canonical = twice_area == boundary  # I == 1
        return canonical, canonical and boundary == len(p.vertices)
    canonical = interior_lattice_points(p) == ((0,) * p.dim,)
    # the origin and the vertices are lattice points of p
    return canonical, len(lattice_points(p)) == len(p.vertices) + 1


def is_fano(p):
    return p.origin_interior() and all(is_primitive(v) for v in p.vertices)


@lru_cache(maxsize=MEMO_SIZE)
def in_class(p, name):
    """Fast membership test for one named class.

    canonical/terminal/reflexive avoid the dual computations that a full
    classify() performs; the remaining names defer to classify.
    """
    if name == "none":
        return True
    if name == "canonical":
        return _canonical_terminal(p)[0]
    if name == "terminal":
        return _canonical_terminal(p)[1]
    if name == "reflexive":
        return all(lv == 1 for _, lv in p.facets)
    if name == "fano":
        return is_fano(p)
    if name not in CLASS_NAMES:
        raise ValueError(f"unknown class {name!r}")
    return classify(p).get(name)


def primitive_points(p):
    """All primitive lattice points of a Fano polytope (the origin excluded)."""
    prims = _point_lists(p)[1]
    if prims is None:
        raise ValueError("primitive point set is defined for Fano polytopes only")
    return prims


def primitive_points_in_hull(points):
    """Primitive lattice points of conv(points), any affine dimension."""
    return tuple(q for q in lattice_points_in_hull(points) if vec_gcd(q) == 1)

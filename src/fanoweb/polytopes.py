"""Lattice polytopes with exact facet data (dimensions 2 and 3).

A Polytope stores its extremal vertices in canonical order and its facets as
pairs (normal, level): the facet lies on {x : normal . x = -level}, the
normal is primitive, and the interior satisfies normal . x > -level.  With
the origin strictly inside, every level is a positive integer, and the polar
dual has vertex normal/level for each facet.

Everything is exact integer arithmetic.  Hulls use a monotone chain with
inlined cross products in 2D and exhaustive supporting-plane enumeration in
3D (inputs here are tiny, so the cubic scan is simpler and safer than an
incremental hull).  lattice_points scans the widest axis of the bounding box
last: it walks every prefix of the other coordinates and takes the exact
interval of that axis from the facets, so it never tests a cell of the box
and visits the fewest prefixes.  lattice_points_in_hull finds the lattice
points of a hull of any affine dimension: a segment steps by its primitive
direction, and a polygon in space is counted in integer coordinates of the
saturated lattice of its plane, where its hull is full-dimensional, and
mapped back.  In 2D the canonical and terminal predicates come from Pick's
theorem, 2I = 2A - B + 2, evaluated on the vertices alone (_pick_counts); in
3D they count lattice points.  normal_form names a GL(d,Z)-orbit by Hermite
maps over ordered vertex subsets, in 2D in closed form (extended Euclid).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import ceil, floor, gcd

from .lattice import (
    _rank_fraction,
    bezout,
    coordinates_in_basis,
    cross3,
    dot,
    is_primitive,
    mat_det,
    mat_vec,
    primitivize,
    row_hermite,
    saturate_span,
    vec_gcd,
    vec_sub,
)


# The one bound on every memo (functools.lru_cache) in fanoweb, so that no
# memo grows with the number of distinct inputs a process sees.  The largest
# memo of the `sweep`, `bfs` and `cli` benchmark workloads (fiber structures
# on `bfs`) holds about 2,000 entries: at 1,024 that workload thrashes, at
# 4,096 all three keep every hit.
MEMO_SIZE = 4096


class DegenerateHullError(ValueError):
    """Input points do not span the ambient dimension."""

    def __init__(self, affine_dim, message=None):
        self.affine_dim = affine_dim
        super().__init__(message or f"degenerate hull: affine dimension {affine_dim}")


class Polytope:
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
    return _rank_fraction(rows)


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
    if len(pts) < 3:
        raise DegenerateHullError(affine_dimension(pts))

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
    adim = affine_dimension(pts)
    if adim < 3:
        raise DegenerateHullError(adim)
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
    vertices = []
    for p in pts:
        normals = [nv for nv, c in planes if dot(nv, p) == c]
        if len(normals) >= 3 and _rank_fraction(normals) == 3:
            vertices.append(p)
    return Polytope(3, tuple(sorted(vertices)), facets)


@lru_cache(maxsize=MEMO_SIZE)
def lattice_points(p):
    """All lattice points of the polytope, sorted lexicographically."""
    lo = [min(axis) for axis in zip(*p.vertices)]
    hi = [max(axis) for axis in zip(*p.vertices)]
    return _scan(p.facets, lo, hi)


def _scan(facets, lo, hi):
    """Integer points x with lo <= x <= hi and n . x >= -level on every facet
    (integer normals, integer or Fraction levels), in lexicographic order.

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
    coords = [(0, 0)] + [coordinates_in_basis(v, basis) for v in diffs]
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


class RationalPolytope:
    __slots__ = ("dim", "vertices", "facets", "_hash")

    def __init__(self, dim, vertices, facets):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self._hash = hash((dim, vertices))

    def __eq__(self, other):
        return (
            isinstance(other, RationalPolytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RationalPolytope(dim={self.dim}, vertices={list(self.vertices)})"

    def origin_interior(self):
        return all(lv > 0 for _, lv in self.facets)


def _rational_hull(points):
    """Hull of rational points via integer scaling."""
    frac_pts = [tuple(Fraction(x) for x in p) for p in points]
    den = 1
    for p in frac_pts:
        for x in p:
            den = den * x.denominator // gcd(den, x.denominator)
    scaled = [tuple(int(x * den) for x in p) for p in frac_pts]
    ip = hull(scaled)
    vertices = tuple(tuple(Fraction(x, den) for x in v) for v in ip.vertices)
    facets = tuple((n, Fraction(lv, den)) for n, lv in ip.facets)
    return RationalPolytope(ip.dim, vertices, facets)


def as_rational(p):
    return RationalPolytope(
        p.dim,
        tuple(tuple(Fraction(x) for x in v) for v in p.vertices),
        tuple((n, Fraction(lv)) for n, lv in p.facets),
    )


def polar_dual(p):
    """Polar dual {u : <u, v> >= -1 on p}, exact rational vertices.

    Requires the origin strictly inside p; the dual vertex for a facet
    (normal, level) is normal/level.
    """
    if not p.origin_interior():
        raise ValueError("polar dual requires the origin strictly inside")
    verts = [tuple(Fraction(x, lv) for x in n) for n, lv in p.facets]
    return _rational_hull(verts)


def rational_polar_dual(q):
    if not q.origin_interior():
        raise ValueError("polar dual requires the origin strictly inside")
    verts = [tuple(Fraction(x) / lv for x in n) for n, lv in q.facets]
    return _rational_hull(verts)


@dataclass(frozen=True)
class MavlyutovDual:
    """Hull of the lattice points of the polar dual, with a dimension tag.

    polytope is None exactly when the hull is lower-dimensional.
    """

    dim: int
    points: tuple
    polytope: object


def mavlyutov_dual(p):
    q = polar_dual(p)
    lo = [ceil(min(axis)) for axis in zip(*q.vertices)]
    hi = [floor(max(axis)) for axis in zip(*q.vertices)]
    pts = _scan(q.facets, lo, hi)
    adim = affine_dimension(pts)
    if adim == p.dim:
        return MavlyutovDual(adim, pts, hull(pts))
    return MavlyutovDual(adim, pts, None)


@dataclass(frozen=True)
class ClassFlags:
    fano: bool
    canonical: bool
    terminal: bool
    reflexive: bool
    pseudoreflexive: bool
    almost_pseudoreflexive: bool

    def get(self, name):
        return getattr(self, name)


CLASS_NAMES = ("none",) + tuple(f.name for f in fields(ClassFlags))


def classify(p):
    """The six classification predicates.

    With the origin not strictly interior every flag is false (the polytope
    is in particular not Fano).
    """
    if not p.origin_interior():
        return ClassFlags(False, False, False, False, False, False)
    fano = all(is_primitive(v) for v in p.vertices)
    canonical, terminal = _canonical_terminal(p)
    reflexive = all(lv == 1 for _, lv in p.facets)
    md = mavlyutov_dual(p)
    apr = md.polytope is not None and md.polytope.origin_interior()
    pr = False
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
    if not is_fano(p):
        raise ValueError("primitive point set is defined for Fano polytopes only")
    return tuple(q for q in lattice_points(p) if vec_gcd(q) == 1)


def primitive_points_in_hull(points):
    """Primitive lattice points of conv(points), any affine dimension."""
    return tuple(q for q in lattice_points_in_hull(points) if vec_gcd(q) == 1)


def normal_form(p):
    """Canonical representative of the GL(d,Z)-orbit of p.

    Over all ordered d-subsets of vertices with nonzero determinant, apply
    the unique unimodular map u putting the subset matrix in Hermite form and
    keep the lexicographically smallest image in canonical vertex order.  The
    result is constant on unimodular orbits.  A unimodular map sends vertices
    to vertices, so each candidate is ordered without a hull and only the
    winner is hulled.
    """
    image = _planar_image if p.dim == 2 else _spatial_image
    best = min(
        filter(None, (image(cols, p.vertices) for cols in permutations(p.vertices, p.dim))),
        default=None,
    )
    if best is None:
        raise ValueError("polytope has no spanning vertex subset")
    return hull(best)


def _planar_image(cols, verts):
    """u(verts) counter-clockwise from the lexicographic minimum (the order of
    hull), or None when the columns (a, b), (c, e) are dependent.

    u has the closed form: row 0 a Bezout pair (x, y) of (a, b), row 1 the
    primitive vector orthogonal to (a, b) with positive product on (c, e),
    and row 0 reduced by that row so the Hermite entry above the second pivot
    lies in [0, pivot).  For a nonsingular matrix u is unique, so it equals
    the transform row_hermite finds.  u reverses orientation when det < 0.
    """
    (a, b), (c, e) = cols
    det = a * e - b * c
    if det == 0:
        return None
    g, x, y = bezout(a, b)
    s, t = (-b // g, a // g) if det > 0 else (b // g, -a // g)
    q = (x * c + y * e) // (abs(det) // g)
    x, y = x - q * s, y - q * t
    moved = [(x * vx + y * vy, s * vx + t * vy) for vx, vy in verts]
    if det < 0:
        moved.reverse()
    k = moved.index(min(moved))
    return tuple(moved[k:] + moved[:k])


def _spatial_image(cols, verts):
    """u(verts) sorted (the order of hull), u the row Hermite transform of the
    matrix with columns cols, or None when they are dependent."""
    m = tuple(zip(*cols))
    if mat_det(m) == 0:
        return None
    u, _ = row_hermite(m)
    return tuple(sorted(mat_vec(u, v) for v in verts))

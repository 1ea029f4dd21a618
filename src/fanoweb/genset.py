"""Primitive generating sets and their fiber structures.

A primitive generating set (PGS) is a finite set of primitive lattice points
whose nonnegative span is the whole of N_R, equivalently the origin lies
strictly inside the convex hull.  A fiber structure picks out the full
intersection with a linear subspace; its base is the set of primitivized
projections of the remaining points, which is again a PGS of the quotient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .lattice import (
    QuotientProjection,
    _Frozen,
    coordinates_in_basis,
    cross3,
    dot,
    is_primitive,
    pibar,
    quotient_projection,
    saturate_span,
)
from .polytopes import (
    MEMO_SIZE,
    hull,
    primitive_points,
)


class InvalidFiberStructure(ValueError):
    pass


def positively_spans(points, dim):
    """Does the nonnegative span of the points fill R^dim?

    Exact: in 1D the points must have both signs; in 2D and 3D the origin
    must be strictly inside their hull.
    """
    pts = [tuple(p) for p in points if any(x != 0 for x in p)]
    if dim == 0:
        return True
    if not pts:
        return False
    if dim == 1:
        return any(p[0] > 0 for p in pts) and any(p[0] < 0 for p in pts)
    try:
        return hull(pts).origin_interior()
    except ValueError:
        return False


def is_pgs(points, dim=None):
    """Validity check with a reason string.

    Reasons: "ok", "empty", "duplicate member", "non-primitive member",
    "cone not full".
    """
    pts = [tuple(p) for p in points]
    if dim is None:
        dim = len(pts[0]) if pts else 0
    if dim == 0:
        return True, "ok"
    if not pts:
        return False, "empty"
    if len(set(pts)) != len(pts):
        return False, "duplicate member"
    if any(not is_primitive(p) for p in pts):
        return False, "non-primitive member"
    if not positively_spans(pts, dim):
        return False, "cone not full"
    return True, "ok"


class PrimGenSet:
    __slots__ = ("dim", "points", "_hash")

    def __init__(self, dim, points):
        pts = tuple(sorted(tuple(p) for p in points))
        ok, reason = is_pgs(pts, dim)
        if not ok:
            raise ValueError(f"not a primitive generating set: {reason}")
        self.dim = dim
        self.points = pts
        self._hash = hash((dim, self.points))

    @classmethod
    def of_sorted(cls, dim, points):
        """The set of a sorted tuple of point tuples known to be a PGS, as it is."""
        self = object.__new__(cls)
        self.dim = dim
        self.points = points
        self._hash = hash((dim, points))
        return self

    def __eq__(self, other):
        return (
            isinstance(other, PrimGenSet)
            and self.dim == other.dim
            and self.points == other.points
        )

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"PrimGenSet(dim={self.dim}, points={list(self.points)})"


def from_polytope(p):
    return PrimGenSet.of_sorted(p.dim, primitive_points(p))


class FiberStructure(_Frozen):
    __slots__ = ("parent", "fiber", "span_basis", "projection", "base", "irreducible", "mori")

    @property
    def fiber_dim(self):
        return len(self.span_basis)

    @property
    def trivial(self):
        return self.fiber_dim == self.parent.dim


def fiber_structure_for(parent, fiber_points):
    """Validate and build the fiber structure with the given fiber set.

    Raises InvalidFiberStructure when the set is not the full intersection
    with its span or does not generate the span as a cone.
    """
    got = _fiber_structure(parent, tuple(sorted(tuple(p) for p in fiber_points)))
    if isinstance(got, str):
        # a fresh exception: a re-raised one grows its traceback each time
        raise InvalidFiberStructure(got)
    return got


@lru_cache(maxsize=MEMO_SIZE)
def _fiber_structure(parent, fiber):
    """The fiber structure, or the reason string when the fiber is invalid."""
    try:
        return _build_fiber_structure(parent, fiber)
    except InvalidFiberStructure as e:
        return str(e)


def _build_fiber_structure(parent, fiber):
    """The fiber structure of a sorted fiber tuple, or InvalidFiberStructure.

    The span's members are the points that the quotient projection sends to
    zero: its kernel over Q is the span.  A fiber spanning the whole space
    is the parent, a PGS, so it needs no cone test; its projection has no
    rows and its base is empty.  The base needs no check: pi maps the
    parent, a positively spanning set, onto a positively spanning set, pibar
    keeps each ray's primitive point, and the set drops repeats.
    """
    if not fiber:
        raise InvalidFiberStructure("fiber is empty")
    if any(p not in parent.points for p in fiber):
        raise InvalidFiberStructure("fiber is not a subset of the parent")
    d = parent.dim
    basis = saturate_span(fiber)
    k = len(basis)
    if k < d:
        pi = quotient_projection(basis, d)
    elif fiber != parent.points:
        raise InvalidFiberStructure("fiber spanning the whole space must be the whole set")
    else:
        pi = QuotientProjection(d, basis, ())
    members = tuple(p for p in parent.points if not any(pi.apply(p)))
    if members != fiber:
        raise InvalidFiberStructure("fiber must be the full intersection with its span")
    if k < d and not positively_spans(intrinsic_points(fiber, basis), k):
        raise InvalidFiberStructure("fiber does not generate its span as a cone")
    base_pts = tuple(sorted({pibar(pi, p) for p in parent.points if p not in fiber}))
    base = PrimGenSet.of_sorted(d - k, base_pts)
    irreducible = len(parent) == len(fiber) + len(base)
    mori = irreducible and len(fiber) == k + 1
    return FiberStructure(
        parent=parent,
        fiber=fiber,
        span_basis=basis,
        projection=pi,
        base=base,
        irreducible=irreducible,
        mori=mori,
    )


def intrinsic_points(points, basis):
    """Coordinates of lattice points of a subspace in its saturated basis."""
    out = coordinates_in_basis(points, basis)
    if out is None:
        raise InvalidFiberStructure("point is not in the saturated span lattice")
    return out


def intrinsic_pgs(points):
    """A set of points spanning a subspace, rewritten as a PGS of that span."""
    basis = saturate_span(points)
    intr = intrinsic_points(points, basis)
    return PrimGenSet(len(basis), intr), basis


def fiber_structures(parent):
    """All fiber structures, one per linear span, deterministic order.

    Only spans that can carry a fiber are built.  A fiber must positively
    span its span, so it has at least k + 1 points on a k-dimensional span.
    The only primitive points on a line through the origin are p and -p,
    so a line fiber is an antipodal pair {p, -p} of the parent.  In 3D a
    plane fiber has at least three points, and the planes are those of
    independent pairs of points a, b: the kernel of the cross product
    a x b, one plane per member tuple.  The whole space is added last, once
    (in 1D a line is the whole space).
    """
    d = parent.dim
    pts = parent.points
    fibers = []
    if d > 1:
        in_parent = set(pts)
        fibers = [(q, p) for p in pts if (q := tuple(-x for x in p)) < p and q in in_parent]
    if d == 3:
        planes = {}
        for a, b in combinations(pts, 2):
            if any(n := cross3(a, b)):
                planes.setdefault(tuple(p for p in pts if dot(n, p) == 0), True)
        fibers += [fiber for fiber in planes if len(fiber) > 2]
    fibers.append(pts)
    # the candidate fibers are sorted tuples, the memo's key form; the
    # whole set is always valid, the others are kept when valid
    out = [fs for fiber in fibers if not isinstance(fs := _fiber_structure(parent, fiber), str)]
    out.sort(key=lambda fs: (fs.fiber_dim, fs.fiber))
    return tuple(out)


def mori_fiber_structures(parent):
    """The Mori fiber structures of parent, in the order of fiber_structures.

    A planar set builds only the structures of its Mori fibers, the rule
    stated by mori_fibers.
    """
    if parent.dim == 2:
        return tuple(fiber_structure_for(parent, f) for f in mori_fibers(parent))
    return tuple(fs for fs in fiber_structures(parent) if fs.mori)


def mori_fibers(parent):
    """The fibers of mori_fiber_structures(parent), in its order.

    A planar set builds no structure.  Three points are one Mori fiber, the
    whole set.  Of four points, each antipodal pair {-f, f} is one: the
    other two points span with it, so they lie on either side of its line
    and project onto the base {-1, 1}.  More points have none.
    """
    if parent.dim != 2:
        return tuple(fs.fiber for fs in mori_fiber_structures(parent))
    pts = parent.points
    if len(pts) == 3:
        return (pts,)
    if len(pts) > 4:
        return ()
    return tuple(sorted((q, p) for p in pts if (q := (-p[0], -p[1])) < p and q in pts))


def reductions(parent):
    """All one-point removals leaving a PGS."""
    out = []
    for v in parent.points:
        rest = tuple(p for p in parent.points if p != v)
        if positively_spans(rest, parent.dim):
            out.append((v, PrimGenSet.of_sorted(parent.dim, rest)))
    return tuple(out)


class ReductionResult(_Frozen):
    __slots__ = ("valid", "polytope", "removed", "reason")


def polytope_reduction(p, v):
    """Remove a vertex and re-hull the remaining primitive points.

    Valid exactly when the remaining points still form a PGS, whose hull's
    primitive points are then precisely the remaining set: p is the hull of
    its primitive points, so its vertex v, an extreme point, never lies in
    the hull of the others, in any dimension.
    """
    v = tuple(v)
    if v not in p.vertices:
        raise ValueError("polytope reduction removes a vertex")
    rest = tuple(q for q in primitive_points(p) if q != v)
    if not positively_spans(rest, p.dim):
        return ReductionResult(False, None, v, "remaining points do not span the space")
    return ReductionResult(True, hull(rest), v, "ok")

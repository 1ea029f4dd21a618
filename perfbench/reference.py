"""Reference planar geometry, computed without importing fanoweb.

The benchmark checks the program against this module, so it shares no code
with it: polygons are tuples of integer vertices, hulls come from Andrew's
monotone chain, and the class tests use Pick's theorem.

Sources:
- the 16 reflexive polygons: B. Poonen and F. Rodriguez-Villegas,
  "Lattice polygons and the number 12", Amer. Math. Monthly 107 (2000);
- the 5 terminal (smooth toric del Pezzo) polygons among them:
  A. Kasprzyk, "Toric Fano 3-folds with terminal singularities",
  Tohoku Math. J. 58 (2006).

In the plane the canonical Fano polygons are exactly the reflexive ones, so
the 16 classes below are also every canonical class.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

# name, vertices; grouped by vertex count, then by boundary points b
# (the polar dual of a class has 12 - b boundary points).
REFLEXIVE = (
    ("P2", ((1, 0), (0, 1), (-1, -1))),
    ("P112", ((1, 0), (0, 1), (-1, -2))),
    ("P123", ((1, 0), (0, 1), (-2, -3))),
    ("P112_dual", ((-1, -1), (3, -1), (-1, 1))),
    ("P2_dual", ((-1, -1), (2, -1), (-1, 2))),
    ("F0", ((1, 0), (0, 1), (-1, 0), (0, -1))),
    ("F1", ((1, 0), (0, 1), (-1, -1), (0, -1))),
    ("quad_b5", ((-1, -1), (1, -1), (0, 1), (-1, 0))),
    ("quad_b6", ((-1, -1), (1, -1), (1, 1), (-1, 0))),
    ("quad_b7", ((-2, -1), (-1, -1), (1, 0), (1, 2))),
    ("F0_dual", ((-1, -1), (1, -1), (1, 1), (-1, 1))),
    ("F1_dual", ((-1, -1), (2, -1), (0, 1), (-1, 1))),
    ("dP7", ((-1, -1), (0, -1), (1, 0), (0, 1), (-1, 0))),
    ("penta_b6", ((-1, -1), (1, -1), (1, 0), (0, 1), (-1, 0))),
    ("penta_b7", ((-1, -1), (1, -1), (1, 1), (0, 1), (-1, 0))),
    ("dP6", ((-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0))),
)

CLASSES = ("canonical", "terminal")


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points):
    """Vertices in counterclockwise order from the lexicographic minimum."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _edges(v):
    return zip(v, v[1:] + v[:1])


def boundary_count(v):
    return sum(gcd(b[0] - a[0], b[1] - a[1]) for a, b in _edges(v))


def twice_area(v):
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in _edges(v))


def origin_inside(v):
    return len(v) >= 3 and all(_cross(a, b, (0, 0)) > 0 for a, b in _edges(v))


def is_canonical(v):
    """Pick: one interior lattice point, and it is the origin."""
    return origin_inside(v) and twice_area(v) - boundary_count(v) + 2 == 2


def is_terminal(v):
    return is_canonical(v) and boundary_count(v) == len(v)


def in_class(v, cls):
    return is_terminal(v) if cls == "terminal" else is_canonical(v)


def contains(v, p):
    return all(_cross(a, b, p) >= 0 for a, b in _edges(v))


def lattice_points(v):
    xs = [p[0] for p in v]
    ys = [p[1] for p in v]
    return tuple(
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if contains(v, (x, y))
    )


def primitive_points(v):
    return frozenset(p for p in lattice_points(v) if gcd(p[0], p[1]) == 1)


def boundary_points(v):
    """Boundary lattice points in counterclockwise order."""
    out = []
    for a, b in _edges(v):
        g = gcd(b[0] - a[0], b[1] - a[1])
        dx, dy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
        out.extend((a[0] + k * dx, a[1] + k * dy) for k in range(g))
    return out


def apply(m, v):
    (a, b), (c, d) = m
    return hull((a * x + b * y, c * x + d * y) for x, y in v)


def _placements(v):
    """Images of v sending consecutive boundary points u, w to (1,0), (0,1)."""
    bd = boundary_points(v)
    for u, w in zip(bd, bd[1:] + bd[:1]):
        # the inverse of the unimodular matrix with columns u, w (det 1)
        yield apply(((w[1], -w[0]), (-u[1], u[0])), v)


def normal_form(v):
    """A GL(2,Z)-invariant key: the least placement of v or its mirror."""
    mirror = hull((y, x) for x, y in v)
    return min(min(_placements(v)), min(_placements(mirror)))


def is_mori_fibered(v):
    """A Mori fiber structure on the primitive points of a canonical polygon:
    three points (the plane), or four with an antipodal pair that has one
    point on each side of its line."""
    pts = primitive_points(v)
    if len(pts) == 3:
        return True
    if len(pts) != 4:
        return False
    for p in pts:
        if (-p[0], -p[1]) in pts:
            sides = {(p[0] * q[1] - p[1] * q[0]) > 0 for q in pts if q not in (p, (-p[0], -p[1]))}
            if sides == {True, False}:
                return True
    return False


def unimodular(box):
    rng = range(-box, box + 1)
    return [((a, b), (c, d)) for a, b, c, d in product(rng, repeat=4) if a * d - b * c in (1, -1)]


def orbit_polygons(box):
    """Every canonical polygon with vertices in |x|, |y| <= box, mapped to the
    index of its reference class.

    Each class polygon P has consecutive boundary points g(1,0), g(0,1) for
    a unimodular g; they lie in the box, so g's entries do too.
    """
    out = {}
    mats = unimodular(box)
    for idx, (_, v) in enumerate(REFLEXIVE):
        placed = next(_placements(v))
        for m in mats:
            img = apply(m, placed)
            if all(abs(x) <= box and abs(y) <= box for x, y in img):
                out[img] = idx
    return out


def self_check():
    """Failures of the reference data itself; empty when it is sound."""
    bad = []
    forms = [normal_form(v) for _, v in REFLEXIVE]
    if len(set(forms)) != 16:
        bad.append("reference polygons are not pairwise GL(2,Z)-inequivalent")
    for name, v in REFLEXIVE:
        if set(hull(v)) != set(v):
            bad.append(f"{name}: listed points are not all vertices")
        if not is_canonical(v):
            bad.append(f"{name}: not canonical")
    if sum(is_terminal(v) for _, v in REFLEXIVE) != 5:
        bad.append("the reference does not have exactly 5 terminal classes")
    mfp = [is_mori_fibered(v) for _, v in REFLEXIVE]
    if sum(mfp) != 4 or sum(m and is_terminal(v) for m, (_, v) in zip(mfp, REFLEXIVE)) != 3:
        bad.append("Mori fiber class counts are not 4 canonical and 3 terminal")
    return bad


def class_ids(cls, mfp_only=False):
    return {
        i
        for i, (_, v) in enumerate(REFLEXIVE)
        if in_class(v, cls) and (not mfp_only or is_mori_fibered(v))
    }


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------


def _by_class(box, cls):
    out = {}
    for v, i in sorted(orbit_polygons(box).items()):
        if in_class(v, cls):
            out.setdefault(i, []).append(v)
    return out


def sweep_queries(seed, n=2000, box=2):
    """Seeded pairs [p, q, cls, box] drawn uniformly from the ordered pairs,
    p == q included, of canonical and of terminal polygons in the box: the
    pairs that the all-pairs connect+verify sweep runs."""
    rng = random.Random(seed)
    pools = [(cls, sum(_by_class(box, cls).values(), [])) for cls in CLASSES]
    sizes = [len(pool) ** 2 for _, pool in pools]
    out = []
    for _ in range(n):
        r = rng.randrange(sum(sizes))
        for (cls, pool), size in zip(pools, sizes):
            if r < size:
                break
            r -= size
        p, q = divmod(r, len(pool))
        out.append([pool[p], pool[q], cls, box])
    return out


# The symmetries of the square |x|, |y| <= box.
BOX_SYMMETRIES = (
    ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
    ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)),
)


def bfs_queries(seed, box=2, reps=3):
    """[p, q, cls, box, found] BFS queries inside the box.

    A fixed base list has, `reps` times over, found queries joining every
    ordered pair of distinct terminal classes and sixteen pairs of canonical
    classes, and not-found queries that target each Mori fiber class placed
    with a vertex just outside the box, so that the search exhausts the box.
    The seed moves each query by a symmetry of the box. The search is
    equivariant under these, so the work hardly depends on the seed, while
    the polygons do.
    """
    rng = random.Random(0)
    term = _by_class(box, "terminal")
    canon = _by_class(box, "canonical")
    base = []
    for r in range(reps):
        pairs = [("terminal", a, b) for a in sorted(term) for b in sorted(term) if a != b]
        pairs += [("canonical", a, (a + 2 * r + 3) % 16) for a in range(16)]
        for cls, a, b in pairs:
            pool = term if cls == "terminal" else canon
            base.append([rng.choice(pool[a]), rng.choice(pool[b]), cls, box, True])
        for cls in CLASSES:
            pool = sum(_by_class(box, cls).values(), [])
            for i in sorted(class_ids(cls, mfp_only=True)):
                target = gl_image(rng, REFLEXIVE[i][1], box + 1, box + 2)
                base.append([rng.choice(pool), target, cls, box, False])
    rng = random.Random(seed)
    out = []
    for p, q, cls, box, found in base:
        g = rng.choice(BOX_SYMMETRIES)
        out.append([apply(g, p), apply(g, q), cls, box, found])
    # a fixed order: earlier queries warm the memo tables for later ones
    return out


def cli_queries(seed, n=24):
    """[p, q, cls] CLI queries between GL(2,Z) images of fixed class pairs,
    with largest coordinates from 3 to 8.

    The images come from a fixed base list; the seed moves each polygon by
    a symmetry of the square, which keeps its coordinate range and nearly
    all of the work it costs.
    """
    rng = random.Random(0)
    term = sorted(class_ids("terminal"))
    base = []
    for i in range(n):
        if i % 3 == 2:
            cls, a, b = "terminal", term[i % 5], term[(i + 2) % 5]
        else:
            cls, a, b = "canonical", (5 * i) % 16, (5 * i + 7) % 16
        base.append([gl_image(rng, REFLEXIVE[a][1], 3, 8), gl_image(rng, REFLEXIVE[b][1], 3, 8), cls])
    rng = random.Random(seed)
    return [[apply(rng.choice(BOX_SYMMETRIES), p), apply(rng.choice(BOX_SYMMETRIES), q), cls]
            for p, q, cls in base]


def random_unimodular(rng, steps):
    """A product of seeded elementary shears, swaps and sign flips."""
    m = ((1, 0), (0, 1))
    gens = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)),
            ((0, 1), (1, 0)), ((-1, 0), (0, 1)))
    for _ in range(steps):
        g = rng.choice(gens)
        m = tuple(
            tuple(sum(g[i][k] * m[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )
    return m


def gl_image(rng, v, lo, hi):
    """A seeded GL(2,Z) image of v whose largest coordinate lies in [lo, hi]."""
    while True:
        img = apply(random_unimodular(rng, rng.randint(3, 9)), v)
        if lo <= max(max(abs(x), abs(y)) for x, y in img) <= hi:
            return img

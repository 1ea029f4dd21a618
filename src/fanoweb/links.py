"""The elementary-link grammar between Mori-fibered generating sets.

A link relates two sets carrying Mori fiber structures through one of eight
diagram kinds.  Type I_d removes a point away from the fiber; I_m trades the
fiber for a tower of fibrations; the II types pass through a common
one-point enlargement (with irreducible or non-irreducible middle fiber
behaviour); IV_m swaps two rulings of the same set; IV_s is the trivial
link.  III_d and III_m are the mirror images of I_d and I_m.

Validation checks every condition of the diagram and reports them one by
one.  In polytope mode each constituent set must in addition equal the
primitive-point set of its own hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .genset import (
    InvalidFiberStructure,
    PrimGenSet,
    fiber_structure_for,
    fiber_structures,
    from_polytope,
    intrinsic_pgs,
    intrinsic_points,
    mori_fiber_structures,
    positively_spans,
)
from .lattice import (
    UnimodularMap,
    in_span,
    is_primitive,
    mat_mul,
    mat_vec,
    primitivize,
    right_inverse,
    saturate_span,
)
from .polytopes import CLASS_NAMES, MEMO_SIZE, hull, in_class, primitive_points_in_hull

KINDS = ("I_d", "I_m", "II_irr", "II_ni", "III_d", "III_m", "IV_m", "IV_s")

_MIRROR = {"I_d": "III_d", "III_d": "I_d", "I_m": "III_m", "III_m": "I_m",
           "II_irr": "II_irr", "II_ni": "II_ni", "IV_m": "IV_m", "IV_s": "IV_s"}


@dataclass(frozen=True)
class Constituent:
    """One column of a link diagram: a set with a marked fiber subset."""

    pgs: PrimGenSet
    fiber: tuple

    def __post_init__(self):
        object.__setattr__(self, "fiber", tuple(sorted(tuple(p) for p in self.fiber)))

    @property
    def points(self):
        return self.pgs.points

    def structure(self):
        return fiber_structure_for(self.pgs, self.fiber)


def constituent(points, fiber, dim=None):
    pts = [tuple(p) for p in points]
    if dim is None:
        dim = len(pts[0])
    return Constituent(PrimGenSet(dim, pts), fiber)


@dataclass(frozen=True, eq=False)
class ElementaryLink:
    kind: str
    left: Constituent
    middle: object  # Constituent or None
    right: Constituent
    mode: str = "set"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.mode not in ("set", "polytope"):
            raise ValueError(f"unknown link mode {self.mode!r}")
        mid = None if self.middle is None else (self.middle.points, self.middle.fiber)
        object.__setattr__(
            self,
            "_key",
            (
                self.kind,
                self.mode,
                (self.left.points, self.left.fiber),
                mid,
                (self.right.points, self.right.fiber),
            ),
        )

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, ElementaryLink) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


def inverse(link):
    """The mirrored diagram; I and III kinds swap, the others are self-dual."""
    return ElementaryLink(
        kind=_MIRROR[link.kind],
        left=link.right,
        middle=link.middle,
        right=link.left,
        mode=link.mode,
    )


@dataclass(frozen=True)
class LinkReport:
    ok: bool
    checks: tuple

    def failed(self):
        return tuple(c for c in self.checks if not c[1])


def _fs_or_none(c):
    try:
        return c.structure(), None
    except InvalidFiberStructure as e:
        return None, str(e)
    except ValueError as e:
        return None, str(e)


def _is_reduction(big, small):
    """small is big minus one point, and still a PGS of the same space."""
    if big.dim != small.dim:
        return False
    if len(big) != len(small) + 1:
        return False
    return set(small.points) < set(big.points)


def _set_purity(points):
    return set(points) == set(primitive_points_in_hull(points))


def _tower_is_mori(total_fiber, sub_fiber):
    """sub_fiber is the fiber of a Mori fiber structure on the PGS total_fiber
    viewed inside its own span."""
    try:
        parent, basis = intrinsic_pgs(total_fiber)
        sub = intrinsic_points(sub_fiber, basis)
        fs = fiber_structure_for(parent, sub)
    except (InvalidFiberStructure, ValueError):
        return False
    return fs.mori


def _intrinsic_reduction(big_fiber, small_fiber):
    """big and small are PGSs of the same span and differ by one point."""
    if not set(small_fiber) < set(big_fiber):
        return False
    if len(big_fiber) != len(small_fiber) + 1:
        return False
    try:
        big_basis = saturate_span(big_fiber)
        small_basis = saturate_span(small_fiber)
    except ValueError:
        return False
    if big_basis != small_basis:
        return False
    try:
        intr = intrinsic_points(small_fiber, big_basis)
    except InvalidFiberStructure:
        return False
    return positively_spans(intr, len(big_basis))


def validate_link(link):
    """Validate a link diagram condition by condition."""
    return _validate_link(link.key())


def _link_of(key):
    """A link with the given key(); the key holds all that validation and
    the panels read."""
    kind, mode, *cols = key
    left, middle, right = (
        None if c is None else Constituent(PrimGenSet(len(c[0][0]), c[0], _checked=True), c[1])
        for c in cols
    )
    return ElementaryLink(kind, left, middle, right, mode)


@lru_cache(maxsize=MEMO_SIZE)
def _validate_link(key):
    link = _link_of(key)
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    kind = link.kind
    if kind in ("III_d", "III_m"):
        mirror = validate_link(inverse(link))
        checks = [(f"mirror of {_MIRROR[kind]}: {n}", ok, d) for n, ok, d in mirror.checks]
        return LinkReport(all(ok for _, ok, _ in checks), tuple(checks))

    L, M, R = link.left, link.middle, link.right
    fs_l, err_l = _fs_or_none(L)
    add("left fiber structure", fs_l is not None, err_l or "")
    fs_r, err_r = _fs_or_none(R)
    add("right fiber structure", fs_r is not None, err_r or "")
    fs_m = None
    if M is not None:
        fs_m, err_m = _fs_or_none(M)
        add("middle fiber structure", fs_m is not None, err_m or "")

    if kind == "IV_s":
        add("middle absent", M is None)
        add("sets equal", L.pgs == R.pgs)
        add("fibers equal", L.fiber == R.fiber)
    elif kind == "I_d":
        add("middle absent", M is None)
        add("top reduction", _is_reduction(L.pgs, R.pgs))
        add("fibers equal", L.fiber == R.fiber)
        add("left Mori", fs_l is not None and fs_l.mori)
        add("right Mori", fs_r is not None and fs_r.mori)
        if fs_l is not None and fs_r is not None:
            base_ok = (
                fs_l.base.dim == fs_r.base.dim
                and set(fs_r.base.points) < set(fs_l.base.points)
                and len(fs_l.base) == len(fs_r.base) + 1
            )
            add("base reduction", base_ok)
    elif kind == "I_m":
        add("middle present", M is not None)
        if M is not None:
            add("top equality", L.pgs == M.pgs)
            add("top reduction", _is_reduction(M.pgs, R.pgs))
            add("left Mori", fs_l is not None and fs_l.mori)
            add("middle is a fiber structure", fs_m is not None)
            add("tower Mori", _tower_is_mori(M.fiber, L.fiber))
            add("fiber reduction", _intrinsic_reduction(M.fiber, R.fiber))
            add("right Mori", fs_r is not None and fs_r.mori)
    elif kind in ("II_irr", "II_ni"):
        add("middle present", M is not None)
        if M is not None:
            add("left enlargement", _is_reduction(M.pgs, L.pgs))
            add("right reduction", _is_reduction(M.pgs, R.pgs))
            add("left Mori", fs_l is not None and fs_l.mori)
            add("middle is a fiber structure", fs_m is not None)
            add("right Mori", fs_r is not None and fs_r.mori)
            if kind == "II_ni":
                add("fibers equal", L.fiber == M.fiber == R.fiber)
                if fs_l is not None and fs_m is not None and fs_r is not None:
                    add(
                        "bases equal",
                        fs_l.base == fs_m.base == fs_r.base,
                    )
            else:
                add("left fiber reduction", _intrinsic_reduction(M.fiber, L.fiber))
                add("right fiber reduction", _intrinsic_reduction(M.fiber, R.fiber))
    elif kind == "IV_m":
        add("middle present", M is not None)
        if M is not None:
            add("sets equal", L.pgs == M.pgs == R.pgs)
            add("distinct rulings", L.fiber != R.fiber)
            add("left Mori", fs_l is not None and fs_l.mori)
            add("middle is a fiber structure", fs_m is not None)
            add("right Mori", fs_r is not None and fs_r.mori)
            add("left tower Mori", _tower_is_mori(M.fiber, L.fiber))
            add("right tower Mori", _tower_is_mori(M.fiber, R.fiber))

    if link.mode == "polytope":
        _purity_checks(link, add)

    return LinkReport(all(ok for _, ok, _ in checks), tuple(checks))


def _purity_checks(link, add):
    for label, c in (("left", link.left), ("middle", link.middle), ("right", link.right)):
        if c is None:
            continue
        add(f"{label} set purity", _set_purity(c.points))
        add(f"{label} fiber purity", _set_purity(c.fiber))


def base_relations_report(link):
    """Check the induced relations between the bases of a link's columns.

    I_d drops one base ray; the II types and the trivial link keep all bases
    equal; I_m and IV_m project the outer bases onto the middle one (the
    primitivized images under the quotient of the larger fiber span).
    III kinds mirror.  Returns (ok, detail).
    """
    kind = link.kind
    if kind in ("III_d", "III_m"):
        return base_relations_report(inverse(link))
    fs_l = link.left.structure()
    fs_r = link.right.structure()
    if kind == "I_d":
        ok = (
            set(fs_r.base.points) < set(fs_l.base.points)
            and len(fs_l.base) == len(fs_r.base) + 1
        )
        return ok, "base reduction" if not ok else ""
    if kind == "IV_s":
        ok = fs_l.base == fs_r.base
        return ok, "bases differ" if not ok else ""
    fs_m = link.middle.structure()
    if kind in ("II_irr", "II_ni"):
        ok = fs_l.base == fs_m.base == fs_r.base
        return ok, "bases differ" if not ok else ""
    if kind == "I_m":
        if fs_m.base != fs_r.base:
            return False, "middle and right bases differ"
        ok = _base_projects(fs_l, fs_m)
        return ok, "left base does not project onto the middle base" if not ok else ""
    if kind == "IV_m":
        ok = _base_projects(fs_l, fs_m) and _base_projects(fs_r, fs_m)
        return ok, "outer bases do not project onto the middle base" if not ok else ""
    return False, f"no base relation for kind {kind}"


def _base_projects(fs_small, fs_big):
    """The base of the larger fiber is the primitivized image of the other.

    fs_small has the smaller fiber span; composing its quotient with the
    induced surjection onto the larger quotient must send its base rays onto
    the base of fs_big exactly.
    """
    pi_small = fs_small.projection.matrix
    pi_big = fs_big.projection.matrix
    if not pi_big:
        return fs_big.base.points == ()
    if not pi_small:
        return False
    x = right_inverse(pi_small)
    rho = mat_mul(pi_big, x)
    if mat_mul(rho, pi_small) != pi_big:
        return False
    image = set()
    for w in fs_small.base.points:
        y = mat_vec(rho, w)
        if any(c != 0 for c in y):
            image.add(primitivize(y)[0])
    return image == set(fs_big.base.points)


def conjugate(g, link):
    """Apply a unimodular map to every point of every constituent."""

    def move(c):
        if c is None:
            return None
        return Constituent(
            PrimGenSet(c.pgs.dim, g.apply_all(c.pgs.points), _checked=True),
            g.apply_all(c.fiber),
        )

    return ElementaryLink(
        kind=link.kind,
        left=move(link.left),
        middle=move(link.middle),
        right=move(link.right),
        mode=link.mode,
    )


# ---------------------------------------------------------------------------
# the named two-dimensional families
# ---------------------------------------------------------------------------

E1 = (1, 0)
E2 = (0, 1)
HORIZONTAL_FIBER = ((-1, 0), (1, 0))


def plane_polygon():
    """Triangle conv(e1, e2, -e1-e2); the minimal Mori fiber polygon."""
    return hull([E1, E2, (-1, -1)])


def ruled_polygon(m):
    """Quadrilateral conv(e1, e2, -e1, -m*e1-e2), fibered over a segment."""
    return hull([E1, E2, (-1, 0), (-m, -1)])


def standard_pairs():
    """The four standard Mori fiber polygons with their standard fibers."""
    tri = plane_polygon()
    return {
        "P2": (tri, from_polytope(tri).points),
        "F0": (ruled_polygon(0), HORIZONTAL_FIBER),
        "F1": (ruled_polygon(1), HORIZONTAL_FIBER),
        "F2": (ruled_polygon(2), HORIZONTAL_FIBER),
    }


def slide_link(start, end):
    """The II_ni link moving one point of a ruled set by one step.

    A state (a, b) stands for the set {-e1, e1, (a, 1), (b, -1)} with the
    horizontal fiber; start and end differ by one in the top point a or in
    the bottom point b, and the middle column is the union of the two sets.
    """
    if abs(start[0] - end[0]) + abs(start[1] - end[1]) != 1:
        raise ValueError("a slide moves one point by one step")
    left = from_polytope(hull([(-1, 0), E1, (start[0], 1), (start[1], -1)]))
    right = from_polytope(hull([(-1, 0), E1, (end[0], 1), (end[1], -1)]))
    mid = from_polytope(hull(left.points + right.points))
    return ElementaryLink(
        kind="II_ni",
        left=Constituent(left, HORIZONTAL_FIBER),
        middle=Constituent(mid, HORIZONTAL_FIBER),
        right=Constituent(right, HORIZONTAL_FIBER),
        mode="polytope",
    )


def elementary_transform(m, sign=1):
    """The II_ni link between the m-th and (m+1)-st ruled polygons, the slide
    of the bottom point from -m to -m-1.

    sign +1 goes upward (m to m+1), -1 is the inverse.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    link = slide_link((0, -m), (0, -m - 1))
    return link if sign > 0 else inverse(link)


def blowdown_link(sign=1):
    """The III_m link from the triangle to the first ruled polygon.

    Its inverse (sign -1) is the I_m link contracting back to the triangle.
    """
    tri = from_polytope(plane_polygon())
    quad = from_polytope(ruled_polygon(1))
    link = ElementaryLink(
        kind="III_m",
        left=Constituent(tri, tri.points),
        middle=Constituent(quad, quad.points),
        right=Constituent(quad, HORIZONTAL_FIBER),
        mode="polytope",
    )
    return link if sign > 0 else inverse(link)


def ruling_swap(sign=1):
    """The IV_m link exchanging the two rulings of conv(+-e1, +-e2)."""
    sq = from_polytope(ruled_polygon(0))
    link = ElementaryLink(
        kind="IV_m",
        left=Constituent(sq, HORIZONTAL_FIBER),
        middle=Constituent(sq, sq.points),
        right=Constituent(sq, ((0, -1), (0, 1))),
        mode="polytope",
    )
    return link if sign > 0 else inverse(link)


# ---------------------------------------------------------------------------
# link sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkSequence:
    steps: tuple
    joints: tuple
    class_constraint: str = "none"

    def __len__(self):
        return len(self.steps)


def sequence_from_steps(steps, class_constraint="none"):
    steps = tuple(steps)
    joints = tuple(("equal",) for _ in range(max(0, len(steps) - 1)))
    return LinkSequence(steps, joints, class_constraint)


def reverse_sequence(seq):
    return sequence_from_steps(
        tuple(inverse(s) for s in reversed(seq.steps)), seq.class_constraint
    )


def conjugate_sequence(g, seq):
    return sequence_from_steps(
        tuple(conjugate(g, s) for s in seq.steps), seq.class_constraint
    )


@dataclass(frozen=True)
class SequenceReport:
    ok: bool
    failures: tuple


def _class_ok(points, class_constraint):
    return class_constraint == "none" or in_class(hull(points), class_constraint)


@lru_cache(maxsize=MEMO_SIZE)
def _step_class_failures(key, class_constraint):
    """The columns of the link with this key() whose sets leave the class."""
    _, _, *cols = key
    return tuple(
        label
        for label, c in zip(("left", "middle", "right"), cols)
        if c is not None and not _class_ok(c[0], class_constraint)
    )


def validate_sequence(seq):
    """Steps validate, consecutive endpoints agree verbatim, and every
    top-row polytope satisfies the class constraint."""
    failures = []
    for i, step in enumerate(seq.steps):
        rep = validate_link(step)
        if not rep.ok:
            failures.append((i, "link invalid: " + "; ".join(n for n, _, _ in rep.failed())))
        for label in _step_class_failures(step.key(), seq.class_constraint):
            failures.append((i, f"{label} constituent leaves class {seq.class_constraint}"))
    for i in range(len(seq.steps) - 1):
        a, b = seq.steps[i].right, seq.steps[i + 1].left
        if a.points != b.points or a.fiber != b.fiber:
            failures.append((i, "joint mismatch between consecutive steps"))
    return SequenceReport(not failures, tuple(failures))


def link_panels(link):
    """Flatten one link into display panels and the relations between them.

    The middle panel is dropped when its point set equals the left one (the
    I_m and IV_m shapes), so a flattened chain never repeats a set at a
    purely notational equality column.
    """
    return _link_panels(link.key())


@lru_cache(maxsize=MEMO_SIZE)
def _link_panels(key):
    link = _link_of(key)
    L, M, R = link.left, link.middle, link.right
    if M is None:
        if link.kind == "IV_s":
            return [L, R], [("equal", None)]
        rel = "supset_dot" if link.kind == "I_d" else "subset_dot"
        return [L, R], [(rel, _one_point_diff(L.points, R.points))]
    if M.points == L.points:
        if link.kind == "IV_m":
            return [L, R], [("equal", None)]
        # I_m: the reduction happens between the (merged) left and the right
        return [L, R], [("supset_dot", _one_point_diff(L.points, R.points))]
    if link.kind == "III_m":
        return [L, M, R], [
            ("subset_dot", _one_point_diff(M.points, L.points)),
            ("equal", None),
        ]
    # II types
    return [L, M, R], [
        ("subset_dot", _one_point_diff(M.points, L.points)),
        ("supset_dot", _one_point_diff(M.points, R.points)),
    ]


def _one_point_diff(a, b):
    diff = set(a) ^ set(b)
    if len(diff) != 1:
        return None
    return next(iter(diff))


def sequence_panels(seq):
    """Panels of a whole sequence with joints merged.

    Returns (constituents, relations) where relations[i] sits between
    panels i and i+1 as a triple (relation, witness, step index).
    """
    panels = []
    relations = []
    for idx, step in enumerate(seq.steps):
        parts, rels = link_panels(step)
        if panels:
            if (panels[-1].points, panels[-1].fiber) != (parts[0].points, parts[0].fiber):
                raise ValueError("sequence joints do not chain verbatim")
            parts = parts[1:]
        else:
            panels.append(parts[0])
            parts = parts[1:]
        for c, r in zip(parts, rels):
            panels.append(c)
            relations.append((r[0], r[1], idx))
    return panels, relations


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def check_box(box):
    """Refuse a box that is negative or no int (True and 2.0 are not) before
    any memo, where True, 1.0 and 1 hash alike."""
    if type(box) is not int or box < 0:
        raise ValueError(f"box must be nonnegative and an int, got {box!r}")


def box_primitives(box, dim):
    check_box(box)
    if dim not in (2, 3):
        raise ValueError("enumeration supports dimensions 2 and 3")
    return tuple(c for c in product(range(-box, box + 1), repeat=dim) if is_primitive(c))


def _try_link(kind, left, middle, right, mode, cls):
    link = ElementaryLink(kind, left, middle, right, mode)
    for c in (link.left, link.middle, link.right):
        if c is not None and not _class_ok(c.points, cls):
            return None
    return link if validate_link(link).ok else None


def enumerate_links(start, class_constraint="none", box=4, mode="polytope"):
    """All valid links with the given left endpoint.

    start may be a Constituent or a FiberStructure.  Added points (for the
    growing II and III shapes) are drawn from the coordinate box.  The
    output is deduplicated and sorted, so it is deterministic.  It is
    computed once per (start, class, box, mode) and shared afterwards.

    Planar starts in polytope mode under the canonical or terminal class
    read a table: each such Mori pair is g(s) for one of four standard
    pairs s, links are GL(2,Z)-equivariant, so its links are g applied to
    the links out of s, kept when their added points lie in the box.
    Every other input (3D, set mode, the other classes) runs the candidate
    loop; the table's box independence is shown for those two classes only.
    """
    if class_constraint not in CLASS_NAMES:
        raise ValueError(f"unknown class {class_constraint!r}")
    if mode not in ("set", "polytope"):
        raise ValueError(f"unknown link mode {mode!r}")
    check_box(box)
    if not isinstance(start, Constituent):
        start = Constituent(start.parent, start.fiber)
    return _enumerate_links(start, class_constraint, box, mode)


@lru_cache(maxsize=MEMO_SIZE)
def _enumerate_links(start, class_constraint, box, mode):
    if not start.structure().mori:
        raise ValueError("link enumeration starts from a Mori fiber structure")
    if start.pgs.dim == 2 and mode == "polytope" and class_constraint in ("canonical", "terminal"):
        return _table_links(start, class_constraint, box)
    return _candidate_links(start, class_constraint, box, mode)


@lru_cache(maxsize=MEMO_SIZE)
def _link_table(class_constraint):
    """The links out of each standard pair, by key.  Their added points all
    lie in box 2: the tests find the same links at box 6."""
    return {
        key: _candidate_links(Constituent(from_polytope(p), fiber), class_constraint, 2, "polytope")
        for key, (p, fiber) in standard_pairs().items()
    }


def _frame(start):
    """(key, g) with g mapping the standard pair key onto start whenever
    start is an image of one; the caller checks that it is.

    g sends e1 to a fiber point f and e2 to the point t with det(f, t) = 1,
    which is all for P2.  For F_m the fourth point is then g(k, -1), so
    m = -k, or m = k once g also sends e1 to -f.
    """
    pts, fiber = start.points, start.fiber
    f = fiber[0]
    t = next((p for p in pts if f[0] * p[1] - f[1] * p[0] == 1), None)
    if t is None:
        return None, None
    key = "P2"
    if len(pts) == 4:  # a planar Mori pair has 3 points, all fiber, or 4 and 2
        c = next(p for p in pts if p not in fiber and p != t)
        k = t[1] * c[0] - t[0] * c[1]
        key = f"F{abs(k)}"
        if k > 0:
            f = (-f[0], -f[1])
    return key, UnimodularMap(((f[0], t[0]), (f[1], t[1])))


def _table_links(start, class_constraint, box):
    """The links of start's standard pair moved onto start, kept when their
    added points lie in the box."""
    key, g = _frame(start)
    moved = [conjugate(g, link) for link in _link_table(class_constraint).get(key, ())]
    # every table link starts at the standard pair: this checks g(s) == start
    if moved and moved[0].left != start:
        return ()
    kept = []
    for link in moved:
        added = {p for c in (link.middle, link.right) if c is not None for p in c.points}
        if all(abs(x) <= box for p in added.difference(start.points) for x in p):
            kept.append(link)
    return tuple(sorted(kept, key=ElementaryLink.key))


def _candidate_links(start, class_constraint, box, mode):
    """The links out of a Mori start, found by building and validating every
    candidate; the table's source and its reference in the tests."""
    A = start.pgs
    fiber = start.fiber
    d = A.dim
    cls = class_constraint
    found = {}

    def keep(link):
        if link is not None:
            found.setdefault(link.key(), link)

    prims = box_primitives(box, d)
    fiber_set = set(fiber)
    basis = saturate_span(fiber)
    in_fiber_span = {p: in_span(p, basis) for p in prims}

    # I_d: drop a point away from the fiber
    for v in A.points:
        if v in fiber_set:
            continue
        rest = tuple(p for p in A.points if p != v)
        if not positively_spans(rest, d):
            continue
        right = Constituent(PrimGenSet(d, rest, _checked=True), fiber)
        keep(_try_link("I_d", start, None, right, mode, cls))

    # III_d: add a box point away from the fiber span
    for w in prims:
        if w in A.points or in_fiber_span[w]:
            continue
        bigger = PrimGenSet(d, A.points + (w,), _checked=True)
        left2 = Constituent(bigger, fiber)
        keep(_try_link("III_d", start, None, left2, mode, cls))

    # II types: grow by one point, then drop another
    for w in prims:
        if w in A.points:
            continue
        bigger = PrimGenSet(d, A.points + (w,), _checked=True)
        if not in_fiber_span[w]:
            mid = Constituent(bigger, fiber)
            for u in bigger.points:
                if u == w or u in fiber_set:
                    continue
                rest = tuple(p for p in bigger.points if p != u)
                if not positively_spans(rest, d):
                    continue
                right = Constituent(PrimGenSet(d, rest, _checked=True), fiber)
                keep(_try_link("II_ni", start, mid, right, mode, cls))
        else:
            big_fiber = tuple(sorted(fiber + (w,)))
            mid = Constituent(bigger, big_fiber)
            for u in big_fiber:
                if u == w:
                    continue
                rest = tuple(p for p in bigger.points if p != u)
                rest_fiber = tuple(p for p in big_fiber if p != u)
                if not positively_spans(rest, d):
                    continue
                right = Constituent(PrimGenSet(d, rest, _checked=True), rest_fiber)
                keep(_try_link("II_irr", start, mid, right, mode, cls))

    # I_m: a tower inside some other fiber structure on the same set
    for tower in fiber_structures(A):
        if tower.fiber == fiber:
            continue
        if not set(fiber) < set(tower.fiber):
            continue
        mid = Constituent(A, tower.fiber)
        for u in tower.fiber:
            rest = tuple(p for p in A.points if p != u)
            if not positively_spans(rest, d):
                continue
            rest_fiber = tuple(p for p in tower.fiber if p != u)
            right = Constituent(PrimGenSet(d, rest, _checked=True), rest_fiber)
            keep(_try_link("I_m", start, mid, right, mode, cls))

    # III_m: grow along the fiber span, then land on a new Mori pair
    for w in prims:
        if w in A.points or not in_fiber_span[w]:
            continue
        bigger = PrimGenSet(d, A.points + (w,), _checked=True)
        big_fiber = tuple(sorted(fiber + (w,)))
        mid = Constituent(bigger, big_fiber)
        for fs2 in mori_fiber_structures(bigger):
            if not set(fs2.fiber) <= set(big_fiber):
                continue
            right = Constituent(bigger, fs2.fiber)
            keep(_try_link("III_m", start, mid, right, mode, cls))

    # IV_m: another ruling through a common enclosing fiber structure
    for other in mori_fiber_structures(A):
        if other.fiber == fiber:
            continue
        for tower in fiber_structures(A):
            if set(fiber) <= set(tower.fiber) and set(other.fiber) <= set(tower.fiber):
                mid = Constituent(A, tower.fiber)
                right = Constituent(A, other.fiber)
                keep(_try_link("IV_m", start, mid, right, mode, cls))

    return tuple(found[k] for k in sorted(found))

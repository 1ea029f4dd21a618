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

from functools import lru_cache
from itertools import product

from .genset import (
    PrimGenSet,
    _fiber_structure,
    fiber_structure_for,
    fiber_structures,
    from_polytope,
    intrinsic_pgs,
    intrinsic_points,
    mori_fiber_structures,
    positively_spans,
    reductions,
)
from .lattice import (
    UnimodularMap,
    _Frozen,
    _set,
    is_primitive,
    saturate_span,
)
from .polytopes import (
    CLASS_NAMES,
    MEMO_SIZE,
    _hull,
    hull,
    in_class,
    primitive_points,
    primitive_points_in_hull,
)

KINDS = ("I_d", "I_m", "II_irr", "II_ni", "III_d", "III_m", "IV_m", "IV_s")

_MIRROR = {"I_d": "III_d", "III_d": "I_d", "I_m": "III_m", "III_m": "I_m",
           "II_irr": "II_irr", "II_ni": "II_ni", "IV_m": "IV_m", "IV_s": "IV_s"}


class Constituent(_Frozen):
    """One column of a link diagram: a set with a marked fiber subset."""

    __slots__ = ("pgs", "fiber", "_hash")

    def __init__(self, pgs, fiber):
        _set(self, "pgs", pgs)
        _set(self, "fiber", tuple(sorted(tuple(p) for p in fiber)))
        _set(self, "_hash", hash((pgs, self.fiber)))

    @classmethod
    def of_sorted(cls, pgs, fiber):
        """The column of a fiber given as a sorted tuple of point tuples, as it is."""
        self = object.__new__(cls)
        _set(self, "pgs", pgs)
        _set(self, "fiber", fiber)
        _set(self, "_hash", hash((pgs, fiber)))
        return self

    # written out, not the base's field tuple: a memo key in link enumeration
    # and in the bfs search
    def __eq__(self, other):
        if other.__class__ is not Constituent:
            return NotImplemented
        return self.pgs == other.pgs and self.fiber == other.fiber

    def __hash__(self):
        return self._hash

    @property
    def points(self):
        return self.pgs.points

    def structure(self):
        return fiber_structure_for(self.pgs, self.fiber)


class ElementaryLink(_Frozen):
    """A link diagram: three columns (the middle one may be None), equal and
    hashed by key(), which holds all that validation and the panels read; so
    a link is its own memo key."""

    __slots__ = ("kind", "left", "middle", "right", "mode", "_key", "_hash")

    def __init__(self, kind, left, middle, right, mode="set"):
        if kind not in KINDS:
            raise ValueError(f"unknown link kind {kind!r}")
        if mode not in ("set", "polytope"):
            raise ValueError(f"unknown link mode {mode!r}")
        _set(self, "kind", kind)
        _set(self, "left", left)
        _set(self, "middle", middle)
        _set(self, "right", right)
        _set(self, "mode", mode)
        mid = None if middle is None else (middle.points, middle.fiber)
        key = (kind, mode, (left.points, left.fiber), mid, (right.points, right.fiber))
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, ElementaryLink) and self._key == other._key

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=MEMO_SIZE)
def _shared(value):
    """The first equal link or column that _link saw."""
    return value


def _link(kind, left, middle, right, mode):
    """The link of conjugate, inverse and the named links, shared with its
    columns: equal links and columns are then one object, so joints and the
    memos keyed by them compare by identity before they call __eq__."""
    middle = None if middle is None else _shared(middle)
    return _shared(ElementaryLink(kind, _shared(left), middle, _shared(right), mode))


def inverse(link):
    """The mirrored diagram; I and III kinds swap, the others are self-dual."""
    return _link(_MIRROR[link.kind], link.right, link.middle, link.left, link.mode)


class LinkReport(_Frozen):
    __slots__ = ("ok", "checks")

    def __init__(self, ok, checks):
        _set(self, "ok", ok)
        _set(self, "checks", checks)

    def failed(self):
        return tuple(c for c in self.checks if not c[1])


def _fs_or_none(c):
    """(structure, None) for a valid column, else (None, reason), read from
    the memo: a column's fiber is a sorted tuple, its key form, and the
    build raises nothing but InvalidFiberStructure, which the memo keeps as
    its reason."""
    got = _fiber_structure(c.pgs, c.fiber)
    return (None, got) if isinstance(got, str) else (got, None)


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
    except ValueError:
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
    # small lies in big, so in the saturated lattice of big's span
    return positively_spans(intrinsic_points(small_fiber, big_basis), len(big_basis))


def validate_link(link):
    """Validate a link diagram condition by condition."""
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
            add("base reduction", _is_reduction(fs_l.base, fs_r.base))
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
    """Each column's set is the primitive points of its hull.  Its fiber's
    purity follows: a valid fiber F is the full intersection of the pure
    set A with F's span, and every primitive point of conv(F) lies in
    conv(A) and in that span, so in F."""
    for label, c in (("left", link.left), ("middle", link.middle), ("right", link.right)):
        if c is not None:
            add(f"{label} set purity", _set_purity(c.points))


def conjugate(g, link):
    """Apply a unimodular map to each distinct point of the link once, fiber
    points included.  Raises ValueError when a column's dimension is not the map's."""
    cols = (link.left, link.middle, link.right)
    points = set()
    for c in cols:
        if c is not None:
            if c.pgs.dim != g.dim:
                raise ValueError(f"a map of dimension {g.dim} cannot move a column of dimension {c.pgs.dim}")
            points.update(c.pgs.points, c.fiber)
    image = dict(zip(points, g.apply_all(points))).__getitem__
    return _link(link.kind, *(_move(image, c) for c in cols), link.mode)


def _move(image, c):
    """Column c, or None, with each point sent through image, its fiber too."""
    if c is None:
        return None
    pgs = PrimGenSet.of_sorted(c.pgs.dim, tuple(sorted(map(image, c.pgs.points))))
    return Constituent.of_sorted(pgs, tuple(sorted(map(image, c.fiber))))


def _moved(g, c):
    """The state g(c) as (points, fiber), sorted, with no column built."""
    return tuple(sorted(g.apply_all(c.points))), tuple(sorted(g.apply_all(c.fiber)))


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


# The unimodular maps sending each standard polygon onto itself, of orders
# 6, 8, 2 and 2.  Those of F1 and F2 keep the ruling; four of the square's
# eight exchange its two rulings.  The square's four rotations come first:
# web._unfolded relies on that order.
STANDARD_SYMMETRIES = {
    "P2": tuple(map(UnimodularMap, (
        ((1, 0), (0, 1)), ((0, -1), (1, -1)), ((-1, 1), (-1, 0)),
        ((0, 1), (1, 0)), ((-1, 0), (-1, 1)), ((1, -1), (0, -1)),
    ))),
    "F0": tuple(map(UnimodularMap, (
        ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
        ((1, 0), (0, -1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)),
    ))),
    "F1": tuple(map(UnimodularMap, (((1, 0), (0, 1)), ((1, -1), (0, -1))))),
    "F2": tuple(map(UnimodularMap, (((1, 0), (0, 1)), ((1, -2), (0, -1))))),
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
    return _link(
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
    link = _link(
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
    link = _link(
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


class LinkSequence(_Frozen):
    __slots__ = ("steps", "class_constraint")

    def __init__(self, steps, class_constraint="none"):
        _set(self, "steps", steps)
        _set(self, "class_constraint", class_constraint)

    def __len__(self):
        return len(self.steps)


def sequence_from_steps(steps, class_constraint="none"):
    return LinkSequence(tuple(steps), class_constraint)


class SequenceReport(_Frozen):
    __slots__ = ("ok", "failures")

    def __init__(self, ok, failures):
        _set(self, "ok", ok)
        _set(self, "failures", failures)


def _step_class_failures(link, class_constraint):
    """The columns of the link whose sets leave the class."""
    if class_constraint == "none":
        return ()
    return tuple(
        label
        for label, c in zip(("left", "middle", "right"), (link.left, link.middle, link.right))
        if c is not None and not in_class(_hull(c.points), class_constraint)
    )


def _step_failures(link, class_constraint):
    """The messages of the link's failed diagram checks and of its columns
    that leave the class."""
    rep = validate_link(link)
    failures = [] if rep.ok else ["link invalid: " + "; ".join(n for n, _, _ in rep.failed())]
    failures.extend(
        f"{label} constituent leaves class {class_constraint}"
        for label in _step_class_failures(link, class_constraint)
    )
    return tuple(failures)


def validate_sequence(seq):
    """Steps validate, consecutive endpoints agree verbatim, and every
    top-row polytope satisfies the class constraint."""
    cls = seq.class_constraint
    failures = [(i, msg) for i, step in enumerate(seq.steps) for msg in _step_failures(step, cls)]
    for i in range(len(seq.steps) - 1):
        if seq.steps[i].right != seq.steps[i + 1].left:
            failures.append((i, "joint mismatch between consecutive steps"))
    return SequenceReport(not failures, tuple(failures))


@lru_cache(maxsize=MEMO_SIZE)
def step_record(link, class_constraint):
    """All that a certificate reads of one link under a class, computed once:
    (failures, first, first in class, later).  failures are the step's
    failure messages, with one more when the link is not in polytope mode,
    the only mode that connect and bfs_connect emit; first is the hull of
    its first panel; later holds (relation, witness, hull, in class,
    relation holds) for each later panel, the relation being the one from
    the panel before.

    The hulls and witnesses are the link's own.  When the link is an image
    of another link T of the canonical table (_table_link_of), its
    failures, classes and relation verdicts are those of T's record, one
    check that T shares with all its images; every other link is checked
    directly (_orbit_checks)."""
    hulls, rels = _panel_hulls(link)
    table_link = _table_link_of(link)
    if table_link is None:
        failures, classes, holds = _orbit_checks(link, class_constraint, hulls, rels)
    else:
        failures, _, first_in_class, later = step_record(table_link, class_constraint)
        classes = (first_in_class, *(x[3] for x in later))
        holds = tuple(x[4] for x in later)
    later = tuple(
        (rel, witness, b, in_cls, ok)
        for (rel, witness), b, in_cls, ok in zip(rels, hulls[1:], classes[1:], holds)
    )
    return failures, hulls[0], classes[0], later


def _panel_hulls(link):
    """The hull of each panel of the link, and the relations between them."""
    panels, rels = link_panels(link)
    return [_hull(c.points) for c in panels], rels


def _orbit_checks(link, class_constraint, hulls, rels):
    """(failures, the class of each panel, whether each panel relation
    holds) of the link with panel hulls and relations (_panel_hulls),
    checked directly: the part of its step record that a unimodular map
    keeps."""
    failures = _step_failures(link, class_constraint)
    if link.mode != "polytope":
        failures += (f"link mode {link.mode} is not polytope",)
    classes = tuple(in_class(b, class_constraint) for b in hulls)
    holds = tuple(_relation_holds(a, b, rel, w) for a, b, (rel, w) in zip(hulls, hulls[1:], rels))
    return failures, classes, holds


def _table_link_of(link):
    """The link T of the canonical table with link == g(T), g the frame of
    the link's left column (_frame), when there is one and T is not the link
    itself; else None.  The link's key is moved by g^-1, with no column
    built, and compared with the links of the frame's row, which hold those
    of the other tables too.  A link out of a standard pair is left to
    the direct check: its frame may be a symmetry of the pair, which moves
    the pair's table links onto each other."""
    cols = (link.left, link.middle, link.right)
    if link.mode != "polytope" or any(c is not None and c.pgs.dim != 2 for c in cols):
        return None
    key, g = _frame(link.left.points, link.left.fiber)
    row = [t for t in _link_table("canonical").get(key, ()) if t.kind == link.kind]
    if not row or link.left == row[0].left:
        return None
    h = g.inverse()
    moved = (link.kind, link.mode, *(None if c is None else _moved(h, c) for c in cols))
    return next((t for t in row if t.key() == moved), None)


@lru_cache(maxsize=MEMO_SIZE)
def _relation_holds(a, b, rel, witness):
    """a and b are equal, or the bigger one's primitive points are the
    smaller one's and the witness.  Both are then Fano (primitive_points
    raises otherwise), so the smaller one is the hull of the rest, and it
    does not hold the witness, a primitive point not among its own."""
    if rel == "equal":
        return a == b
    if rel == "supset_dot":
        big, small = a, b
    elif rel == "subset_dot":
        big, small = b, a
    else:
        return False
    if witness is None:
        return False
    w = tuple(witness)
    try:
        pa = primitive_points(big)
        if w not in pa:
            return False
        return set(primitive_points(small)) == set(pa) - {w}
    except ValueError:
        # tampered chains may leave the Fano world entirely
        return False


def link_panels(link):
    """Flatten one link into display panels and the relations between them.

    The middle panel is dropped when its point set equals the left one (the
    I_m and IV_m shapes), so a flattened chain never repeats a set at a
    purely notational equality column.
    """
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
        if not panels:
            panels.append(parts[0])
        elif panels[-1] != parts[0]:
            raise ValueError("sequence joints do not chain verbatim")
        for c, r in zip(parts[1:], rels):
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
    if _step_class_failures(link, cls):
        return None
    return link if validate_link(link).ok else None


def enumerate_links(start, class_constraint="none", box=4, mode="polytope"):
    """All valid links with the given left endpoint, a Constituent.

    Added points (for the growing II and III shapes) are drawn from the
    coordinate box.  The output is deduplicated and sorted, so it is
    deterministic.  It is computed once per (start, class, box, mode) and
    shared afterwards.

    Planar starts in polytope mode under the canonical, reflexive (in the
    plane the same polygons) or terminal class read a table: each such Mori
    pair is g(s) for one of four standard pairs s, links are
    GL(2,Z)-equivariant, so its links are g applied to the links out of s
    (_link_table, the named families), kept when their added points lie in
    the box.  Every other input (3D, set mode, the other classes) runs the
    candidate loop; that the named families are all the links is shown for
    those three classes only.
    """
    if class_constraint not in CLASS_NAMES:
        raise ValueError(f"unknown class {class_constraint!r}")
    if mode not in ("set", "polytope"):
        raise ValueError(f"unknown link mode {mode!r}")
    check_box(box)
    return _enumerate_links(start, class_constraint, box, mode)


@lru_cache(maxsize=MEMO_SIZE)
def _enumerate_links(start, class_constraint, box, mode):
    """enumerate_links on checked arguments.  A start that reads the table
    gets the table's links moved onto it, or none when it is a Mori pair
    but no image of a standard pair; every other start runs the candidate
    loop."""
    planar = start.pgs.dim == 2 and mode == "polytope"
    table = planar and class_constraint in ("canonical", "reflexive", "terminal")
    if table:
        links = _table_links(start, class_constraint, box)
        if links:  # start is g(a standard pair), so a Mori pair
            return links
    if not start.structure().mori:
        raise ValueError("link enumeration starts from a Mori fiber structure")
    if table:
        return ()
    return _candidate_links(start, class_constraint, box, mode)


@lru_cache(maxsize=MEMO_SIZE)
def _link_table(class_constraint):
    """The links out of each standard pair, by key, built from the named
    families: the blow-down moved by the triangle's symmetries, the four
    unit slides of each ruled state (0, -m), the ruling swap of the square
    and the contraction of the first ruled polygon.  A link is kept when
    its columns stay in the class, the candidate loop's filter since every
    named link validates; under the canonical, reflexive and terminal
    classes the tests show that the loop finds exactly these links at boxes
    2 and 6.  A table link is validated in its step record, which its images
    share (step_record, _table_link_of)."""
    named = {
        "P2": [conjugate(g, blowdown_link(1)) for g in STANDARD_SYMMETRIES["P2"]],
        "F0": [ruling_swap(1)],
        "F1": [blowdown_link(-1)],
        "F2": [],
    }
    for m in range(3):
        named[f"F{m}"] += [slide_link((0, -m), (a, b - m)) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    return {
        key: tuple(sorted(
            {link for link in links if not _step_class_failures(link, class_constraint)},
            key=ElementaryLink.key,
        ))
        for key, links in named.items()
    }


def _frame(points, fiber):
    """(key, g) with g mapping the standard pair key exactly onto (points,
    fiber), sorted tuples, when the pair is an image of one; else (None,
    None).  The one test of that fact, in closed form.

    g sends e1 to a fiber point f and e2 to the point t with det(f, t) = 1.
    P2 is all fiber, its third point g(-1, -1).  For F_m the fourth point c
    is g(-m, -1) = -m f - t, so det(c, t) = -m, or m once g also sends e1
    to -f.
    """
    if not fiber:
        return None, None
    f = fiber[0]
    t = next((p for p in points if f[0] * p[1] - f[1] * p[0] == 1), None)
    if t is None:
        return None, None
    c = next((p for p in points if p not in fiber and p != t), None)
    if c is None:
        key, fiber_image = "P2", (f, t, (-f[0] - t[0], -f[1] - t[1]))
        image = fiber_image
    else:
        m = t[1] * c[0] - t[0] * c[1]
        f = (-f[0], -f[1]) if m > 0 else f
        m = abs(m)
        key, fiber_image = f"F{m}", (f, (-f[0], -f[1]))
        image = fiber_image + (t, (-m * f[0] - t[0], -m * f[1] - t[1]))
    exact = tuple(sorted(fiber_image)) == fiber and tuple(sorted(image)) == points
    if key not in STANDARD_SYMMETRIES or not exact:
        return None, None
    return key, UnimodularMap(((f[0], t[0]), (f[1], t[1])))


def _table_links(start, class_constraint, box):
    """The links of start's standard pair s moved onto start by its frame g,
    kept when their added points lie in the box; () when start is no image
    of a standard pair.  start is the left column of every link, and only
    the middle and right columns of the kept links are built."""
    key, g = _frame(start.points, start.fiber)
    row = _link_table(class_constraint).get(key, ())
    if not row:
        return ()
    s = row[0].left
    points = {p for t in row for c in (t.middle, t.right) if c is not None for p in c.points}
    image = dict(zip(points, g.apply_all(points))).__getitem__
    kept = []
    for t in row:
        cols = (t.middle, t.right)
        added = {p for c in cols if c is not None for p in c.points}.difference(s.points)
        if all(abs(x) <= box for p in added for x in image(p)):
            kept.append(_link(t.kind, start, *(_move(image, c) for c in cols), t.mode))
    return tuple(sorted(kept, key=ElementaryLink.key))


def _candidate_links(start, class_constraint, box, mode):
    """The links out of a Mori start, found by building and validating every
    candidate; the path for 3D, set mode and the other classes, and the
    table's reference in the tests.  A box point lies in the fiber's span
    when the start's projection sends it to zero; a trivial structure's
    projection is empty, so every point does."""
    A = start.pgs
    fiber = start.fiber
    d = A.dim
    cls = class_constraint
    found = {}

    def keep(link):
        if link is not None:
            found.setdefault(link.key(), link)

    fiber_set = set(fiber)
    pi = start.structure().projection
    reduced = dict(reductions(A))

    # I_d: drop a point away from the fiber
    for v, rest in reduced.items():
        if v not in fiber_set:
            keep(_try_link("I_d", start, None, Constituent(rest, fiber), mode, cls))

    # II and III: grow by one box point w.  Away from the fiber span the
    # grown pair is III_d's right column and II_ni's middle column, from
    # which II_ni drops another point; inside it II_irr drops a fiber point
    # and III_m lands on a new Mori pair.
    for w in box_primitives(box, d):
        if w in A.points:
            continue
        bigger = PrimGenSet.of_sorted(d, tuple(sorted(A.points + (w,))))
        if any(pi.apply(w)):
            mid = Constituent(bigger, fiber)
            keep(_try_link("III_d", start, None, mid, mode, cls))
            for u in bigger.points:
                if u == w or u in fiber_set:
                    continue
                rest = tuple(p for p in bigger.points if p != u)
                if not positively_spans(rest, d):
                    continue
                right = Constituent(PrimGenSet.of_sorted(d, rest), fiber)
                keep(_try_link("II_ni", start, mid, right, mode, cls))
            continue
        big_fiber = tuple(sorted(fiber + (w,)))
        mid = Constituent(bigger, big_fiber)
        for u in big_fiber:
            if u == w:
                continue
            rest = tuple(p for p in bigger.points if p != u)
            rest_fiber = tuple(p for p in big_fiber if p != u)
            if not positively_spans(rest, d):
                continue
            right = Constituent(PrimGenSet.of_sorted(d, rest), rest_fiber)
            keep(_try_link("II_irr", start, mid, right, mode, cls))
        for fs2 in mori_fiber_structures(bigger):
            if set(fs2.fiber) <= set(big_fiber):
                keep(_try_link("III_m", start, mid, Constituent(bigger, fs2.fiber), mode, cls))

    structures = fiber_structures(A)

    # I_m: a tower inside some other fiber structure on the same set
    for tower in structures:
        if tower.fiber == fiber:
            continue
        if not set(fiber) < set(tower.fiber):
            continue
        mid = Constituent(A, tower.fiber)
        for u in tower.fiber:
            if u in reduced:
                rest_fiber = tuple(p for p in tower.fiber if p != u)
                right = Constituent(reduced[u], rest_fiber)
                keep(_try_link("I_m", start, mid, right, mode, cls))

    # IV_m: another ruling through a common enclosing fiber structure
    for other in structures:
        if not other.mori or other.fiber == fiber:
            continue
        for tower in structures:
            if set(fiber) <= set(tower.fiber) and set(other.fiber) <= set(tower.fiber):
                mid = Constituent(A, tower.fiber)
                right = Constituent(A, other.fiber)
                keep(_try_link("IV_m", start, mid, right, mode, cls))

    return tuple(found[k] for k in sorted(found))

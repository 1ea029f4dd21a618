"""The connectivity engine for webs of Fano polygons.

Pipeline: reduce a polygon to a Mori fiber polygon by class-preserving
vertex removals, move that polygon to one of the four standard forms
through a word of table links (one literal word per GL(2,Z) generator and
standard form), join the standard forms along the ladder, and flatten
everything into a certificate whose every relation, link, joint and class
membership is re-checked from scratch (verify_certificate) before it is
returned; that check is the one gate on what connect and bfs_connect
produce.  The assembly checks only which reductions the sequence joins,
which the certificate alone cannot show.

The map onto a standard form is the link table's closed-form frame
(links._frame) composed with a symmetry of the standard polygon: of those
maps, the orientation-preserving one with the shortest generator word.

The generator words, T^-1 included, and the ladder are literal
link-table choices (_MOVES, _LADDER), replayed by moving table links, so
nothing is searched; one memo (_replay) holds each replayed word.  A word
onto a standard form is cut on its moved states before any of its links is
built.

A breadth-first oracle over the link table provides shortest certificates
inside a coordinate box.  The exhaustive enumerator counts class polygons
up to unimodular equivalence.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import attrgetter

from .genset import PrimGenSet, from_polytope, mori_fibers, polytope_reduction
from .lattice import UnimodularMap, _Frozen, bezout, mat_det
from .links import (
    STANDARD_SYMMETRIES,
    TABLE_CLASSES,
    Constituent,
    _enumerate_links,
    _frame,
    _link_table,
    _moved,
    _relation_holds,
    _set_purity,
    check_box,
    conjugate,
    inverse,
    ruling_swap,
    sequence_from_steps,
    step_record,
)
from .polytopes import MEMO_SIZE, _polygon, _ring, hull, in_class, is_fano, primitive_points

GEN_S = UnimodularMap(((0, -1), (1, 0)))
GEN_T = UnimodularMap(((1, 1), (0, 1)))
GEN_U = UnimodularMap(((-1, 0), (0, 1)))

TOKENS = {
    "S": GEN_S,
    "T": GEN_T,
    "T^-1": GEN_T.inverse(),
    "U": GEN_U,
}

# the matrix of each token's inverse, which factor_unimodular left-multiplies by
_TOKEN_INVERSES = {name: g.inverse().matrix for name, g in TOKENS.items()}


class NoMoriFiberStructureError(ValueError):
    """Reduction dead-ends at a polytope with no Mori fiber structure."""


class ClassViolationError(ValueError):
    pass


class NotInStandardOrbitError(ValueError):
    pass


class CertificateVerificationError(Exception):
    """A freshly built certificate failed verification; failures says why."""

    def __init__(self, failures):
        super().__init__(f"certificate failed verification: {failures}")
        self.failures = failures


# ---------------------------------------------------------------------------
# GL(2,Z) factorization into the three generators
# ---------------------------------------------------------------------------

def factor_unimodular(g):
    """A word in S, T, T^-1 and U whose product is g.

    Euclidean reduction on the first column; words are not minimized.
    """
    (a, b), (c, d) = g.matrix
    tokens = []

    def apply(name, times=1):
        nonlocal a, b, c, d
        (p, q), (r, s) = _TOKEN_INVERSES[name]
        for _ in range(times):
            a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        tokens.extend([name] * times)

    while c != 0:
        if a == 0 or abs(a) < abs(c):
            apply("S")
            continue
        k = a // c
        apply("T" if k > 0 else "T^-1", abs(k))
    if a < 0:
        apply("U")
    if d < 0:
        apply("U")
        apply("S")
        apply("S")
    apply("T" if b > 0 else "T^-1", abs(b))
    if (a, b, c, d) != (1, 0, 0, 1):
        raise AssertionError("factorization did not terminate at the identity")
    # each step left-multiplied by a token's inverse, so ending at the
    # identity means the tokens multiply to g
    return tuple(tokens)


# ---------------------------------------------------------------------------
# words between a standard pair and its generator images, and the ladder
# ---------------------------------------------------------------------------


# The generator moves, (token, standard pair) -> word, and the ladder,
# (standard pair, standard pair) -> word, () from a pair to itself.  Each
# step is an index into links._link_table("canonical")[k], read in the frame
# (k, g) of the current state (_replay).  The S, T and U words and the
# ladder are the breadth-first oracle's shortest table words, searched from
# the target, so the triangle's quarter turn is the paper's Cremona word;
# the T^-1 words are those of T reversed and moved back by the token.
# tests/test_web.py derives every word again.  The ladder words without F2
# are the terminal table's words too, and a terminal pair's frame is never
# F2's, so each word stays in every class that connect accepts.
_MOVES = {
    ("S", "P2"): (1, 3, 1, 4), ("T", "P2"): (1, 2, 3, 4), ("U", "P2"): (1, 3, 1, 4),
    ("S", "F0"): (4,), ("T", "F0"): (3, 2), ("U", "F0"): (),
    ("S", "F1"): (3, 4, 3), ("T", "F1"): (2, 3), ("U", "F1"): (3, 1),
    ("S", "F2"): (1, 3, 4, 3, 1), ("T", "F2"): (0, 1), ("U", "F2"): (1, 3, 1, 1),
    ("T^-1", "P2"): (1, 3, 2, 4), ("T^-1", "F0"): (2, 3),
    ("T^-1", "F1"): (3, 2), ("T^-1", "F2"): (1, 0),
}
_LADDER = {
    ("P2", "F0"): (1, 3), ("P2", "F1"): (1,), ("P2", "F2"): (1, 1),
    ("F0", "P2"): (3, 4), ("F0", "F1"): (3,), ("F0", "F2"): (3, 1),
    ("F1", "P2"): (4,), ("F1", "F0"): (3,), ("F1", "F2"): (1,),
    ("F2", "P2"): (1, 4), ("F2", "F0"): (1, 3), ("F2", "F1"): (1,),
}


@lru_cache(maxsize=MEMO_SIZE)
def _replay(key, word):
    """The links of a literal word from the standard pair key, the left
    column of its table links: one frame and one moved table link per step,
    each starting where the last one ends.  The one memo of the generator
    moves and the ladder."""
    table = _link_table("canonical")
    state = table[key][0].left
    steps = []
    for i in word:
        k, g = _frame(state.points, state.fiber)
        link = conjugate(g, table[k][i])
        steps.append(link)
        state = link.right
    return tuple(steps)


# ---------------------------------------------------------------------------
# reduction to a Mori fiber polygon
# ---------------------------------------------------------------------------


class MmpReduction(_Frozen):
    __slots__ = ("polytope", "fiber", "chain")  # chain: ((removed vertex, polytope after removal), ...)


@lru_cache(maxsize=MEMO_SIZE)
def mmp_reduce(p, class_constraint="canonical"):
    """Class-preserving vertex removals until a Mori fiber structure exists.

    Removals pick the lexicographically smallest valid vertex.  A canonical
    polygon is reduced on its ring (_ring_reduce); every other polytope
    here.  In three dimensions the walk may dead-end; that raises
    NoMoriFiberStructureError since no Mori fiber structure is guaranteed
    to exist there.
    """
    if not is_fano(p):
        raise ValueError("reduction starts from a Fano polytope")
    if p.dim == 2 and in_class(p, "canonical"):
        return _ring_reduce(p, class_constraint)
    cur = p
    chain = []
    while True:
        fibers = mori_fibers(from_polytope(cur))
        if fibers:
            return MmpReduction(cur, min(fibers), tuple(chain))
        step = None
        for v in sorted(cur.vertices):
            res = polytope_reduction(cur, v)
            if res.valid and in_class(res.polytope, class_constraint):
                step = (v, res.polytope)
                break
        if step is None:
            raise _dead_end()
        chain.append(step)
        cur = step[1]


def _ring_reduce(p, class_constraint):
    """mmp_reduce of a canonical polygon, read off its ring.

    Only the origin is inside, so the ring is the primitive points and no
    vertex v lies in the hull of the other points.  The angle between ring
    neighbours is below a half turn, so the rest of the ring spans exactly
    when the one new angle, from v's neighbour u to its neighbour w, is:
    det(u, w) > 0.  The hull of the rest is canonical again, and its ring
    is the rest.
    """
    ring = _ring(p)
    cur = p
    chain = []
    while True:
        fibers = mori_fibers(PrimGenSet.of_sorted(2, tuple(sorted(ring))))
        if fibers:
            return MmpReduction(cur, min(fibers), tuple(chain))
        for v in sorted(cur.vertices):
            i = ring.index(v)
            (ux, uy), (wx, wy) = ring[i - 1], ring[(i + 1) % len(ring)]
            if ux * wy > uy * wx:
                rest = ring[:i] + ring[i + 1:]
                smaller = hull(rest)
                if in_class(smaller, class_constraint):
                    break
        else:
            raise _dead_end()
        chain.append((v, smaller))
        ring = rest
        cur = smaller


def _dead_end():
    return NoMoriFiberStructureError(
        "no Mori fiber structure and no class-preserving reduction; open-problem instance"
    )


# ---------------------------------------------------------------------------
# standard form and the connecting ladder
# ---------------------------------------------------------------------------


def to_standard_form(p, fiber, class_constraint="canonical"):
    """Connect a Mori fiber polygon to its standard form.

    Returns (key, u, seq): u maps p bit-exactly onto the standard polygon
    and seq is a link sequence from (p, fiber) to the standard pair, meant
    to stay inside the class.  Its links are validated when they enter a
    certificate (verify_certificate); the tests pin the word's endpoints
    and validity.  Raises NotInStandardOrbitError unless (p, fiber) is a
    unimodular image of a standard pair.
    """
    key, u, steps, _ = _to_standard_form(p, tuple(sorted(tuple(q) for q in fiber)))
    return key, u, sequence_from_steps(steps, class_constraint)


@lru_cache(maxsize=MEMO_SIZE)
def _to_standard_form(p, fiber):
    """(key, u, steps, steps reversed), one entry per Mori pair whatever the
    class: the word is a word of table links, which stay in every class that
    connect accepts.  The reversed word is kept with the word, so connect's
    q-side reuses its inverse links, which hit the link memos by identity.

    Each step of the word is the inverse of a generator move's link l moved
    by a prefix m of the generator word, from m(l.right) to m(l.left).
    Loops are cut on those states (_cut_loops) before any link is built;
    conjugate(m, l) is then the reversed word's step, and its inverse the
    word's, since conjugate commutes with inverse."""
    key, g = _frame(primitive_points(p), fiber)
    if key is None:
        raise NotInStandardOrbitError("pair is not an image of a standard Mori fiber pair")
    f_std = _link_table("canonical")[key][0].left.fiber
    # the maps from std onto p are g.a over the symmetries a of std; the
    # orientation-preserving one with the shortest word wins, ties broken
    # by the word; equal words multiply to equal maps, so h never decides
    ranked = []
    for a in STANDARD_SYMMETRIES[key]:
        h = g.compose(a)
        if mat_det(h.matrix) == 1:
            word = factor_unimodular(h)
            ranked.append((len(word), word, h))
    _, word, g = min(ranked)
    pairs = []  # (m, l): the step inverse(conjugate(m, l))
    if fiber != tuple(sorted(g.apply_all(f_std))):  # only the square has two rulings
        pairs.append((g, ruling_swap(1)))
    prefixes = [UnimodularMap.identity(2)]
    for t in word:
        prefixes.append(prefixes[-1].compose(TOKENS[t]))
    for i in range(len(word), 0, -1):
        pairs += [(prefixes[i - 1], l) for l in reversed(_replay(key, _MOVES[word[i - 1], key]))]
    start = _moved(pairs[0][0], pairs[0][1].right) if pairs else None
    ends = [_moved(m, l.left) for m, l in pairs]
    kept = _cut_loops(start, range(len(pairs)), ends.__getitem__)
    back = tuple(conjugate(*pairs[j]) for j in reversed(kept))
    return key, g.inverse(), tuple(inverse(l) for l in reversed(back)), back


def _concat(parts):
    """Join chained step lists, cutting each loop back to the first visit of
    its state, the Constituent a joint compares: the joints still chain
    verbatim, the endpoints stay and no link is new."""
    steps = [s for part in parts for s in part]
    return _cut_loops(steps[0].left if steps else None, steps, _right)


_right = attrgetter("right")


def _cut_loops(start, steps, end):
    """The steps of a chained walk from the state start that stay when each
    loop is cut back to the first visit of its state; end(step) is the
    state that a step ends at."""
    kept = []
    seen = {start: 0}  # state -> len(kept) there
    for step in steps:
        state = end(step)
        at = seen.get(state)
        if at is None:
            kept.append(step)
            seen[state] = len(kept)
        else:
            for cut in kept[at:]:
                del seen[end(cut)]
            del kept[at:]
    return kept


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


class Relation(_Frozen):
    __slots__ = ("rel", "witness", "origin")  # rel: "supset_dot", "subset_dot", "equal"; origin: ("reduction",) or ("link", step index)


class ConnectCertificate(_Frozen):
    __slots__ = ("chain", "relations", "sequence", "class_constraint")


class VerifyReport(_Frozen):
    __slots__ = ("ok", "failures")


def _require_class(p, class_constraint):
    if not in_class(p, class_constraint):
        raise ClassViolationError(f"polytope is not {class_constraint}")


def connect(p, q, class_constraint="canonical"):
    """A verified certificate joining two polygons of the same class."""

    def join(rp, rq):
        # a reduction's fiber is a fiber structure's, already sorted
        key_p, _, word_p, _ = _to_standard_form(rp.polytope, rp.fiber)
        key_q, _, _, back_q = _to_standard_form(rq.polytope, rq.fiber)
        return _concat([word_p, _replay(key_p, _LADDER.get((key_p, key_q), ())), back_q])

    return _certify(p, q, class_constraint, join)


def _certify(p, q, class_constraint, join):
    """The verified certificate from p to q through the link steps that
    join(rp, rq) gives between their reductions, or None when it gives None.
    The certificate's one link sequence is built here, under its class."""
    _require_class(p, class_constraint)
    _require_class(q, class_constraint)
    if p == q:
        return ConnectCertificate(
            (p,), (), sequence_from_steps([], class_constraint), class_constraint
        )
    rp = mmp_reduce(p, class_constraint)
    rq = mmp_reduce(q, class_constraint)
    steps = join(rp, rq)
    if steps is None:
        return None
    seq = sequence_from_steps(steps, class_constraint)
    cert = _assemble(p, q, rp, rq, seq, class_constraint)
    rep = verify_certificate(cert)
    if not rep.ok:
        raise CertificateVerificationError(rep.failures)
    return cert


def _assemble(p, q, rp, rq, seq, class_constraint):
    """Chain p's reduction, the panels of seq and q's reduction reversed.

    With no link steps the two reductions end at the same polygon, and they
    are joined at their first common member instead.  An empty sequence
    between distinct reductions, or one that does not end at q's, raises
    CertificateVerificationError: the certificate alone cannot show which
    polygons it was meant to join.  Where the sequence starts and whether
    its joints chain, the certificate shows: verify_certificate checks them.
    """
    chain = [p]
    relations = []
    below_q = [q] + [poly for _, poly in rq.chain]
    at = {} if seq.steps else {poly: k for k, poly in enumerate(below_q)}
    for removed, poly in rp.chain:
        if chain[-1] in at:
            break
        chain.append(poly)
        relations.append(Relation("supset_dot", removed, ("reduction",)))
    if seq.steps:
        for idx, step in enumerate(seq.steps):
            for rel, witness, panel, _, _ in step_record(step, class_constraint)[3]:
                chain.append(panel)
                relations.append(Relation(rel, witness, ("link", idx)))
        join = len(rq.chain)
    elif chain[-1] in at:
        join = at[chain[-1]]
    else:
        raise _endpoint_fault(chain, "empty sequence between distinct reductions")
    if chain[-1] != below_q[join]:
        raise _endpoint_fault(chain, "sequence does not end at the target reduction")
    for k in range(join - 1, -1, -1):
        chain.append(below_q[k])
        relations.append(Relation("subset_dot", rq.chain[k][0], ("reduction",)))
    return ConnectCertificate(tuple(chain), tuple(relations), seq, class_constraint)


def _endpoint_fault(chain, message):
    return CertificateVerificationError(((len(chain) - 1, message),))


def verify_certificate(cert):
    """Re-check every class membership, relation, link validation and joint.

    Every check runs under the certificate's class label; a sequence that
    carries another label fails.  The relations whose origin is a link must
    be exactly the panel relations of the sequence, one walk over its steps:
    contiguous, in order, each with the panel's relation, witness and step
    index, its chain member equal to the panel's hull, and covering every
    step, so a chain that claims more links than the sequence holds fails.

    Where the walk shows that part of the chain is exactly the sequence's
    panels, joined verbatim, the class of its members and its relations are
    read from the links' records, which checked them on equal values once
    per link; every other member and relation is checked here.  A malformed
    relation fails; it does not raise.
    """
    chain, relations, cls = cert.chain, cert.relations, cert.class_constraint
    if len(chain) != len(relations) + 1:
        return VerifyReport(False, ((0, "chain and relation lengths disagree"),))
    walked = []
    if cert.sequence.class_constraint != cls:
        walked.append((0, f"sequence class {cert.sequence.class_constraint} is not {cls}"))
    # an unmatched walk leaves an empty span past the chain's end
    n = len(chain)
    lo, hi, outside, broken = _walk(chain, relations, cert.sequence.steps, cls, walked) or (n, n, [], [])
    members = [i for i, p in enumerate(chain[:lo]) if not in_class(p, cls)] + outside
    members += [i for i in range(hi + 1, n) if not in_class(chain[i], cls)]
    rels = [i for i, r in enumerate(relations[:lo]) if not _holds(chain, r, i)] + broken
    rels += [i for i in range(hi, n - 1) if not _holds(chain, relations[i], i)]
    failures = [(i, f"chain member leaves class {cls}") for i in members]
    failures += [(i, f"relation {relations[i].rel} fails") for i in rels]
    failures += walked
    return VerifyReport(not failures, tuple(failures))


def _holds(chain, r, i):
    """Relation r holds between chain members i and i + 1, and is well
    formed: a relation name, a witness that is None or a tuple of ints, and
    an origin that is a nonempty tuple."""
    w = r.witness
    return (
        type(r.rel) is str
        and type(r.origin) is tuple
        and len(r.origin) > 0
        and (w is None or (type(w) is tuple and {int}.issuperset(map(type, w))))
        and _relation_holds(chain[i], chain[i + 1], r.rel, w)
    )


def _is_link(r):
    """r claims a link as its origin; a malformed origin claims none, and
    its relation fails in _holds."""
    return type(r.origin) is tuple and r.origin[:1] == ("link",)


def _walk(chain, relations, steps, cls, failures):
    """Walk the steps of the sequence along the chain, appending the
    sequence's failures.  Returns (lo, hi, outside, broken) when the chain
    members lo..hi and the relations between them are exactly the panels
    of the steps, whose joints chain verbatim: outside and broken are the
    members that leave the class and the relations that fail there, as the
    step records give them.  Returns None otherwise."""
    start = next((i for i, r in enumerate(relations) if _is_link(r)), None)
    if not steps or start is None:
        if steps or start is not None:
            failures.append((0, "one of the sequence and its link relations is empty"))
        return None
    at = start
    joined = True
    mismatch = None  # the chain index of the first panel that does not match
    outside, broken = [], []
    for idx, step in enumerate(steps):
        if idx and steps[idx - 1].right is not step.left and steps[idx - 1].right != step.left:
            failures.append((idx - 1, "sequence: joint mismatch between consecutive steps"))
            joined = False
        bad, first, first_in_class, later = step_record(step, cls)
        if bad:
            failures.extend((idx, f"sequence: {msg}") for msg in bad)
        if mismatch is not None:
            continue
        if idx == 0:
            if first is not chain[at] and first != chain[at]:
                mismatch = at
                continue
            if not first_in_class:
                outside.append(at)
        origin = ("link", idx)
        for rel, witness, panel, in_cls, holds in later:
            at += 1
            r = relations[at - 1] if at < len(chain) else None
            if (
                r is None
                or r.rel != rel
                or r.witness != witness
                or r.origin != origin
                or (chain[at] is not panel and chain[at] != panel)
            ):
                mismatch = at
                break
            if not in_cls:
                outside.append(at)
            if not holds:
                broken.append(at - 1)
    if mismatch is not None:
        failures.append((mismatch, "panel does not match the chain"))
        return None
    if any(_is_link(r) for r in relations[at:]):
        failures.append((at, "link relations beyond the sequence's panels"))
    return (start, at, outside, broken) if joined else None


# ---------------------------------------------------------------------------
# purity of whole sequences
# ---------------------------------------------------------------------------


def fano_purity_report(seq):
    """Constituent sets that differ from the primitive points of their hull."""
    offenders = []
    seen = set()
    for step in seq.steps:
        for c in (step.left, step.middle, step.right):
            if c is None:
                continue
            for pts in (c.points, c.fiber):
                if pts in seen:
                    continue
                seen.add(pts)
                if not _set_purity(pts):
                    offenders.append(pts)
    return tuple(offenders)


# ---------------------------------------------------------------------------
# enumeration of class polygons in a coordinate box
# ---------------------------------------------------------------------------

def enumerate_class_polygons(box, class_constraint):
    """Every polygon of the class with vertices in the box, bit-exact.

    Orbit-first: each row of the class table (_CLASS_TABLE) that is in the
    class is placed in the box by every unimodular map that keeps it there
    (_unfolded); the other classes are not placed.  Such a map moves the
    counter-clockwise vertices of the class onto those of the image,
    clockwise when det(a, b) < 0: reversed then and rotated to the least
    vertex, they are in hull's order, so no image is hulled.
    """
    images = set()
    for _, coords, kept in _class_placements(box, class_constraint)[1]:
        for (a0, a1), (b0, b1) in _unfolded(kept):
            image = [(s * a0 + t * b0, s * a1 + t * b1) for s, t in coords]
            if a0 * b1 < a1 * b0:
                image.reverse()
            i = image.index(min(image))
            images.add(tuple(image[i:] + image[:i]))
    return tuple(map(_polygon, sorted(images)))


def enumerate_fano(box, class_constraint, mfp_only=False):
    """The classes of the table (_CLASS_TABLE) with their counts in the box.

    By orbit and stabilizer, each image of a class in the box is hit by as
    many maps as the class has symmetries (the table's count column), so
    its count is the weight of its kept maps (_placements) divided by that
    number; no image is built.  mfp_only keeps the rows of the Mori column.
    """
    rows, placed = _class_placements(box, class_constraint)
    out = []
    for (_, symmetries, _, mori), (nf, _, kept) in zip(rows, placed):
        n = sum(w for _, _, w in kept) // symmetries
        if n and (mori or not mfp_only):
            out.append((nf, n))
    return tuple(out)


def _class_placements(box, class_constraint):
    """(the table's rows in the class, their _placements): every row, or
    under terminal the rows of the terminal column; no class predicate runs."""
    check_box(box)
    if class_constraint not in TABLE_CLASSES:
        raise ValueError("enumeration supports canonical, reflexive, terminal")
    rows = tuple(row for row in _CLASS_TABLE if row[2] or class_constraint != "terminal")
    return rows, _placements(box, tuple(_polygon(row[0]) for row in rows))


# The 16 reflexive polygons up to GL(2,Z) (Poonen and Rodriguez-Villegas,
# Lattice polygons and the number 12, 2000), sorted: the normal form's
# vertices in hull's order, its number of unimodular symmetries, whether it
# is terminal and whether it has a Mori fiber structure.  In the plane the
# canonical polygons are exactly the reflexive ones.  No module here
# computes a normal form or a column: the tests pin the vertices with one
# (tests/normal_forms.py) against the growth search from the minimal
# classes and an independent orbit key, and each column against a brute
# force count or the class and fiber predicates.
_CLASS_TABLE = (
    (((-3, -4), (1, 0), (1, 2)), 2, False, False),
    (((-3, -2), (1, 0), (0, 1)), 1, False, False),
    (((-3, -2), (1, 0), (1, 1), (0, 1)), 1, False, False),
    (((-3, -2), (1, 0), (2, 1), (0, 1)), 2, False, False),
    (((-2, -3), (1, 0), (1, 3)), 6, False, False),
    (((-2, -1), (-1, -1), (1, 0), (0, 1)), 1, False, False),
    (((-2, -1), (-1, -1), (1, 0), (1, 1), (0, 1)), 2, False, False),
    (((-2, -1), (-1, -1), (1, 0), (2, 1), (0, 1)), 2, False, False),
    (((-2, -1), (0, -1), (1, 0), (0, 1)), 1, False, False),
    (((-2, -1), (1, 0), (0, 1)), 2, False, True),
    (((-1, -2), (1, 0), (1, 2), (-1, 0)), 8, False, False),
    (((-1, -1), (0, -1), (1, 0), (0, 1)), 2, True, True),
    (((-1, -1), (0, -1), (1, 0), (0, 1), (-1, 0)), 2, True, False),
    (((-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)), 12, True, False),
    (((-1, -1), (1, 0), (0, 1)), 6, True, True),
    (((-1, 0), (0, -1), (1, 0), (0, 1)), 8, True, True),
)


def _basis_partners(a, box):
    """The points b of the box with det(a, b) = +-1: +-b0 + t a, with b0
    = (-q, p) from a Bezout pair p a0 + q a1 = 1 of the primitive a and t in
    the interval that keeps the larger coordinate of a in the box."""
    _, p, q = bezout(*a)
    i = 0 if abs(a[0]) >= abs(a[1]) else 1
    for b0 in ((-q, p), (q, -p)):
        c, z = (a[i], b0[i]) if a[i] > 0 else (-a[i], -b0[i])
        for t in range(-((box + z) // c), (box - z) // c + 1):
            b = (b0[0] + t * a[0], b0[1] + t * a[1])
            if abs(b[1 - i]) <= box:
                yield b


# The square's eight symmetries as integer matrices, the four rotations
# first.  A rotation fixes no nonzero point, so the rotations move a box
# point once onto each point of its orbit when that orbit has four points.
_SQUARE = tuple(g.matrix for g in STANDARD_SYMMETRIES["F0"])


def _unfolded(kept):
    """The maps (a, b) of the kept maps (a, b, w) of _placements, each kept
    map moved by the first w symmetries of the square."""
    for (a0, a1), (b0, b1), w in kept:
        for (p, q), (r, s) in _SQUARE[:w]:
            yield (p * a0 + q * a1, r * a0 + s * a1), (p * b0 + q * b1, r * b0 + s * b1)


def _placements(box, classes):
    """((class, its vertices in basis coordinates, its kept maps (a, b, w)),
    ...) for the given classes of the table and no other.

    The first vertex u and the next boundary point v = u + (n - u) / g of a
    reflexive polygon, n its next vertex and g the gcd of n - u, form a
    lattice basis with det(u, v) = 1, so a vertex x has coordinates
    (det(x, v), det(u, x)), and the maps [a b] [u v]^-1 over the pairs a, b
    of box primitives with det(a, b) = +-1 are all unimodular maps that can
    keep it in the box.  The square's symmetries act freely on those maps,
    so only pairs with 0 <= a1 <= a0 are walked, and a kept one carries the
    weight w of a's orbit: 4 when a1 is 0 or a0, else 8.  Each pair tests
    each coordinate other than u's (1, 0) once, the classes sharing them (the
    16 have 12), and a class keeps it when none of its own left the box.
    """
    bits = {}
    placed = []
    for nf in classes:
        (u0, u1), (n0, n1) = nf.vertices[:2]
        g = gcd(n0 - u0, n1 - u1)
        v0, v1 = u0 + (n0 - u0) // g, u1 + (n1 - u1) // g
        coords = [(x * v1 - y * v0, u0 * y - u1 * x) for x, y in nf.vertices]
        mask = 0
        for st in coords[1:]:
            mask |= bits.setdefault(st, 1 << len(bits))
        placed.append((nf, coords, mask, []))
    pairs = [((a0, a1), b, 4 if a1 in (0, a0) else 8) for a0 in range(box + 1) for a1 in range(a0 + 1)
             if gcd(a0, a1) == 1 for b in _basis_partners((a0, a1), box)]
    for a, b, w in pairs:
        (a0, a1), (b0, b1) = a, b
        outside = 0
        for (s, t), bit in bits.items():
            if not (-box <= s * a0 + t * b0 <= box and -box <= s * a1 + t * b1 <= box):
                outside |= bit
        for _, _, mask, kept in placed:
            if not mask & outside:
                kept.append((a, b, w))
    return tuple((nf, coords, tuple(kept)) for nf, coords, _, kept in placed)


# ---------------------------------------------------------------------------
# breadth-first oracle
# ---------------------------------------------------------------------------


def bfs_connect(p, q, class_constraint="canonical", box=4):
    """Shortest-link certificate inside a coordinate box, or None.

    Both endpoints are first reduced to Mori fiber polygons; the search then
    walks link moves between fibered pairs, any Mori fiber structure of the
    reduced endpoints being a valid source or target.  A target that no
    link can reach (_in_reach) is answered None without a search.
    """
    check_box(box)

    def join(rp, rq):
        sources, targets = _mori_pairs(rp.polytope), _mori_pairs(rq.polytope)
        if not _in_reach(sources, targets, box):
            return None
        return _bfs_pairs(sources, targets, class_constraint, box)

    return _certify(p, q, class_constraint, join)


def _mori_pairs(p):
    a = from_polytope(p)
    return [Constituent(a, f) for f in mori_fibers(a)]


def _in_reach(sources, targets, box):
    """Whether some target has all its points in a source or in the box.
    A link adds only points of the box (enumerate_links draws them from
    it), so every state the search reaches has its points there."""
    known = {x for s in sources for x in s.points}
    return any(
        all(x in known or max(map(abs, x)) <= box for x in t.points) for t in targets
    )


def _pair_key(c):
    return (c.points, c.fiber)


def _bfs_pairs(sources, targets, class_constraint, box):
    """The links of a shortest walk from a source to a target, or None, on
    the box that bfs_connect checked and the class that _certify did."""
    targets = set(targets)
    prev = {}
    frontier = []
    for c in sorted(sources, key=_pair_key):
        if c in targets:
            return []
        if c not in prev:
            prev[c] = (None, None)
            frontier.append(c)
    while frontier:
        nxt = []
        for c in frontier:
            for link in _enumerate_links(c, class_constraint, box, "polytope"):
                r = link.right
                if r in prev:
                    continue
                prev[r] = (c, link)
                if r in targets:
                    return _rebuild(prev, r)
                nxt.append(r)
        frontier = sorted(nxt, key=_pair_key)
    return None


def _rebuild(prev, state):
    steps = []
    while True:
        parent, link = prev[state]
        if parent is None:
            break
        steps.append(link)
        state = parent
    steps.reverse()
    return steps

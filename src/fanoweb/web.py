"""The connectivity engine for webs of Fano polygons.

Pipeline: reduce a polygon to a Mori fiber polygon by class-preserving
vertex removals, move that polygon to one of the four standard forms
through a word of link sequences (one per GL(2,Z) generator and standard
form), join the standard forms along the fixed ladder, and flatten
everything into a certificate whose every relation, link, and class
membership is re-checked from scratch (verify_certificate) before it is
returned; that check is the one gate on what the builder produces.

A breadth-first oracle over the same link moves provides shortest
certificates inside a coordinate box, and the exhaustive enumerator counts
class polygons up to unimodular equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .genset import from_polytope, mori_fiber_structures, polytope_reduction
from .lattice import UnimodularMap, bezout, mat_inverse_unimodular, mat_mul, mat_vec
from .links import (
    Constituent,
    LinkSequence,
    _set_purity,
    blowdown_link,
    box_primitives,
    check_box,
    conjugate,
    conjugate_sequence,
    elementary_transform,
    enumerate_links,
    plane_polygon,
    reverse_sequence,
    ruled_polygon,
    ruling_swap,
    sequence_from_steps,
    sequence_panels,
    slide_link,
    standard_pairs,
    validate_sequence,
)
from .polytopes import (
    MEMO_SIZE,
    _canonical_terminal,
    _polygon,
    hull,
    in_class,
    is_fano,
    lattice_points,
    normal_form,
    primitive_points,
)

GEN_S = UnimodularMap(((0, -1), (1, 0)))
GEN_T = UnimodularMap(((1, 1), (0, 1)))
GEN_U = UnimodularMap(((-1, 0), (0, 1)))

TOKENS = {
    "S": GEN_S,
    "S^-1": GEN_S.inverse(),
    "T": GEN_T,
    "T^-1": GEN_T.inverse(),
    "U": GEN_U,
}

_INVERSE_TOKEN = {"S": "S^-1", "S^-1": "S", "T": "T^-1", "T^-1": "T", "U": "U"}


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


STANDARD_KEYS = ("P2", "F0", "F1", "F2")


# ---------------------------------------------------------------------------
# GL(2,Z) factorization into the three generators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MEMO_SIZE)
def factor_unimodular(g):
    """A word in S, T, U (and inverses) whose product is g.

    Euclidean reduction on the first column; words are not minimized.
    """
    m = [list(r) for r in g.matrix]
    tokens = []

    def apply(name):
        inv = TOKENS[name].inverse().matrix
        new = mat_mul(inv, (tuple(m[0]), tuple(m[1])))
        m[0], m[1] = list(new[0]), list(new[1])
        tokens.append(name)

    while m[1][0] != 0:
        a, c = m[0][0], m[1][0]
        if a == 0 or abs(a) < abs(c):
            apply("S")
            continue
        q = a // c
        name = "T" if q > 0 else "T^-1"
        for _ in range(abs(q)):
            apply(name)
    if m[0][0] < 0:
        apply("U")
    if m[1][1] < 0:
        apply("U")
        apply("S")
        apply("S")
    b = m[0][1]
    name = "T" if b > 0 else "T^-1"
    for _ in range(abs(b)):
        apply(name)
    if (tuple(m[0]), tuple(m[1])) != ((1, 0), (0, 1)):
        raise AssertionError("factorization did not terminate at the identity")
    # each step left-multiplied by a token's inverse, so ending at the
    # identity means the tokens multiply to g
    return tuple(tokens)


# ---------------------------------------------------------------------------
# base sequences between a standard form and its generator images
# ---------------------------------------------------------------------------


def _cremona_word():
    """From the triangle to its quarter-turn image, four links."""
    return sequence_from_steps(
        [
            blowdown_link(1),
            elementary_transform(0, -1),
            conjugate(GEN_U, elementary_transform(0, 1)),
            conjugate(GEN_U, blowdown_link(-1)),
        ]
    )


def _s_on_ruled_word(m):
    """From the m-th ruled polygon to its quarter-turn image."""
    steps = []
    for j in range(m - 1, -1, -1):
        steps.append(elementary_transform(j, -1))
    steps.append(ruling_swap(1))
    for j in range(m):
        steps.append(conjugate(GEN_S, elementary_transform(j, 1)))
    return sequence_from_steps(steps)


def _slide_word(states):
    """Slides through the ruled-set states (a, b) in order."""
    return sequence_from_steps([slide_link(s, e) for s, e in zip(states, states[1:])])


# The frame maps the triangle onto itself and frame.turn maps it onto
# T(triangle), so the word from the triangle through the first ruled polygon
# to turn(triangle), moved by the frame, ends at T(triangle).
_T_ON_P2_FRAME = UnimodularMap(((-1, 0), (-1, 1)))
_T_ON_P2_TURN = UnimodularMap(((-1, 2), (0, 1)))


def _t_on_plane_word():
    steps = [
        blowdown_link(1),
        slide_link((0, -1), (1, -1)),
        slide_link((1, -1), (2, -1)),
        conjugate(_T_ON_P2_TURN, blowdown_link(-1)),
    ]
    return sequence_from_steps([conjugate(_T_ON_P2_FRAME, s) for s in steps])


def _forward_builtin(token, key):
    if key == "P2":
        if token == "T":
            return _t_on_plane_word()
        # S, and U: the mirror image of the triangle equals its quarter turn
        return _cremona_word()
    m = int(key[1])
    if token == "S":
        return _s_on_ruled_word(m)
    if token == "T":
        # T sends the state (0, -m) to (1, -m-1).  For m > 0 the top point
        # must move first: the bottom point first would pass through the
        # (m+1)-st ruled polygon, and F2 is not terminal, F3 not canonical.
        if m == 0:
            return _slide_word([(0, 0), (0, -1), (1, -1)])
        return _slide_word([(0, -m), (1, -m), (1, -m - 1)])
    # U sends the state (0, -m) to (0, m)
    return _slide_word([(0, b) for b in range(-m, m + 1)])


@lru_cache(maxsize=MEMO_SIZE)
def forward_sequence(token, key):
    """Link sequence from (std, fiber) to (token.std, token.fiber).

    Its links are validated when they enter a certificate; the tests pin
    every move's endpoints and validity.
    """
    if token in ("S^-1", "T^-1"):
        base = forward_sequence(_INVERSE_TOKEN[token], key)
        return conjugate_sequence(TOKENS[token], reverse_sequence(base))
    return _forward_builtin(token, key)


def base_sequence(token, key):
    """From (token.std, token.fiber) back to (std, fiber)."""
    return reverse_sequence(forward_sequence(token, key))


# ---------------------------------------------------------------------------
# matching a Mori fiber polygon to its standard form
# ---------------------------------------------------------------------------

def _orbit_maps(src, dst):
    """All unimodular maps sending the point set src onto dst."""
    out = {}
    src_set = set(src)
    dst_set = set(dst)
    pairs_src = [
        (a, b)
        for a in src
        for b in src
        if a != b and a[0] * b[1] - a[1] * b[0] != 0
    ]
    pairs_dst = {}
    for a in dst:
        for b in dst:
            det = a[0] * b[1] - a[1] * b[0]
            if a != b and det != 0:
                pairs_dst.setdefault(det, []).append((a, b))
    for a, b in pairs_src:
        det = a[0] * b[1] - a[1] * b[0]
        for c, d in pairs_dst.get(det, ()):
            # u * (a b) == (c d): u = (c d) * adj(a b) / det
            adj = ((b[1], -b[0]), (-a[1], a[0]))
            cols = ((c[0], d[0]), (c[1], d[1]))
            raw = mat_mul(cols, adj)
            if any(x % det for row in raw for x in row):
                continue
            mat = tuple(tuple(x // det for x in row) for row in raw)
            if mat in out:
                continue
            a11, a12 = mat[0]
            a21, a22 = mat[1]
            if a11 * a22 - a12 * a21 not in (1, -1):
                continue
            u = UnimodularMap(mat)
            if {u.apply(p) for p in src_set} == dst_set:
                out[mat] = u
    return list(out.values())


@lru_cache(maxsize=MEMO_SIZE)
def match_standard(p):
    """The standard form key and a map u with u(p) equal to it on the nose.

    Among all matching maps the one with the shortest factorization word for
    its inverse is chosen, with deterministic tie-breaks.
    """
    a = primitive_points(p)
    for key in STANDARD_KEYS:
        std, _ = standard_pairs()[key]
        b = primitive_points(std)
        if len(a) != len(b) or len(p.vertices) != len(std.vertices):
            continue
        if len(lattice_points(p)) != len(lattice_points(std)):
            continue
        cands = _orbit_maps(a, b)
        if not cands:
            continue

        def rank(u):
            word = factor_unimodular(u.inverse())
            return (len(word), word, u.matrix)

        return key, min(cands, key=rank)
    raise NotInStandardOrbitError(
        "polygon is not unimodular-equivalent to a standard Mori fiber polygon"
    )


# ---------------------------------------------------------------------------
# reduction to a Mori fiber polygon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MmpReduction:
    polytope: object
    fiber: tuple
    chain: tuple  # ((removed vertex, polytope after removal), ...)


@lru_cache(maxsize=MEMO_SIZE)
def mmp_reduce(p, class_constraint="canonical"):
    """Class-preserving vertex removals until a Mori fiber structure exists.

    Removals pick the lexicographically smallest valid vertex.  In three
    dimensions the walk may dead-end; that raises NoMoriFiberStructureError
    since no Mori fiber structure is guaranteed to exist there.
    """
    if not is_fano(p):
        raise ValueError("reduction starts from a Fano polytope")
    cur = p
    chain = []
    while True:
        mori = mori_fiber_structures(from_polytope(cur))
        if mori:
            return MmpReduction(cur, min(fs.fiber for fs in mori), tuple(chain))
        step = None
        for v in sorted(cur.vertices):
            res = polytope_reduction(cur, v)
            if res.valid and in_class(res.polytope, class_constraint):
                step = (v, res.polytope)
                break
        if step is None:
            raise NoMoriFiberStructureError(
                "no Mori fiber structure and no class-preserving reduction; "
                "open-problem instance"
            )
        chain.append(step)
        cur = step[1]


# ---------------------------------------------------------------------------
# standard form and the connecting ladder
# ---------------------------------------------------------------------------


def to_standard_form(p, fiber, class_constraint="canonical"):
    """Connect a Mori fiber polygon to its standard form.

    Returns (key, u, seq): u maps p bit-exactly onto the standard polygon
    and seq is a link sequence from (p, fiber) to the standard pair, meant
    to stay inside the class.  Its links are validated when they enter a
    certificate (verify_certificate); the tests pin the word's endpoints
    and validity.
    """
    return _to_standard_form(p, tuple(sorted(tuple(q) for q in fiber)), class_constraint)


@lru_cache(maxsize=MEMO_SIZE)
def _to_standard_form(p, fiber, class_constraint):
    key, u = match_standard(p)
    g = u.inverse()
    _, f_std = standard_pairs()[key]
    word = factor_unimodular(g)
    parts = []
    expected = tuple(sorted(g.apply_all(f_std)))
    if fiber != expected:
        if key != "F0":
            raise ValueError("fiber does not match the unique ruling")
        parts.append(conjugate_sequence(g, sequence_from_steps([ruling_swap(-1)])))
    prefixes = [UnimodularMap.identity(2)]
    for t in word:
        prefixes.append(prefixes[-1].compose(TOKENS[t]))
    for i in range(len(word), 0, -1):
        parts.append(conjugate_sequence(prefixes[i - 1], base_sequence(word[i - 1], key)))
    return key, u, _concat(parts, class_constraint)


def _concat(parts, class_constraint):
    """Join link sequences, cutting each loop back to the first visit of its
    (points, fiber) state, the pair validate_sequence compares at a joint: the
    joints still chain verbatim, the endpoints stay and no link is new."""
    steps = [s for part in parts for s in part.steps]
    out = []
    seen = {_pair_key(steps[0].left): 0} if steps else {}  # state -> len(out) there
    for step in steps:
        at = seen.get(_pair_key(step.right))
        if at is None:
            out.append(step)
            seen[_pair_key(step.right)] = len(out)
        else:
            for cut in out[at:]:
                del seen[_pair_key(cut.right)]
            del out[at:]
    return sequence_from_steps(out, class_constraint)


def _ladder_steps(a, b):
    """Steps joining two standard pairs along P2 - F1 - F0 and F1 - F2."""
    if a == b:
        return []
    words = {
        ("P2", "F1"): lambda: [blowdown_link(1)],
        ("F1", "P2"): lambda: [blowdown_link(-1)],
        ("F0", "F1"): lambda: [elementary_transform(0, 1)],
        ("F1", "F0"): lambda: [elementary_transform(0, -1)],
        ("F1", "F2"): lambda: [elementary_transform(1, 1)],
        ("F2", "F1"): lambda: [elementary_transform(1, -1)],
    }
    if (a, b) in words:
        return words[(a, b)]()
    return _ladder_steps(a, "F1") + _ladder_steps("F1", b)


def join_standard(a, b, class_constraint="canonical"):
    if class_constraint == "terminal" and "F2" in (a, b):
        raise ClassViolationError("the F2 polygon is not terminal")
    return sequence_from_steps(_ladder_steps(a, b), class_constraint)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    rel: str  # "supset_dot", "subset_dot", "equal"
    witness: object
    origin: tuple  # ("reduction",) or ("link", step index)


@dataclass(frozen=True)
class ConnectCertificate:
    chain: tuple
    relations: tuple
    sequence: LinkSequence
    class_constraint: str


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple


def _require_class(p, class_constraint):
    if not in_class(p, class_constraint):
        raise ClassViolationError(f"polytope is not {class_constraint}")


def connect(p, q, class_constraint="canonical"):
    """A verified certificate joining two polygons of the same class."""

    def join(rp, rq):
        key_p, _, seq_p = to_standard_form(rp.polytope, rp.fiber, class_constraint)
        key_q, _, seq_q = to_standard_form(rq.polytope, rq.fiber, class_constraint)
        ladder = join_standard(key_p, key_q, class_constraint)
        return _concat([seq_p, ladder, reverse_sequence(seq_q)], class_constraint)

    return _certify(p, q, class_constraint, join)


def _certify(p, q, class_constraint, join):
    """The verified certificate from p to q through the link sequence that
    join(rp, rq) gives between their reductions, or None when it gives None."""
    _require_class(p, class_constraint)
    _require_class(q, class_constraint)
    if p == q:
        return ConnectCertificate(
            (p,), (), sequence_from_steps([], class_constraint), class_constraint
        )
    rp = mmp_reduce(p, class_constraint)
    rq = mmp_reduce(q, class_constraint)
    seq = join(rp, rq)
    if seq is None:
        return None
    cert = _assemble(p, q, rp, rq, seq, class_constraint)
    rep = verify_certificate(cert)
    if not rep.ok:
        raise CertificateVerificationError(rep.failures)
    return cert


def _assemble(p, q, rp, rq, seq, class_constraint):
    """Chain p's reduction, the panels of seq and q's reduction reversed.

    With no link steps the two reductions end at the same polygon, and they
    are joined at their first common member instead.  A sequence that does
    not chain or does not join the two reductions raises
    CertificateVerificationError: the certificate alone cannot show which
    polygons it was meant to join.
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
        try:
            panels, rels = sequence_panels(seq)
        except ValueError as e:  # the joints of seq do not chain
            raise _endpoint_fault(chain, str(e)) from None
        first = _hull_of(panels[0].points)
        if first != chain[-1]:
            raise _endpoint_fault(chain, "sequence does not start at the reduced polygon")
        for panel, (rel, witness, idx) in zip(panels[1:], rels):
            chain.append(_hull_of(panel.points))
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


@lru_cache(maxsize=MEMO_SIZE)
def _hull_of(points):
    return hull(points)


@lru_cache(maxsize=MEMO_SIZE)
def _relation_holds(a, b, rel, witness):
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
        rest = tuple(x for x in pa if x != w)
        if set(primitive_points(small)) != set(rest):
            return False
        if small != hull(rest):
            return False
        return not small.contains(w)
    except ValueError:
        # tampered chains may leave the Fano world entirely
        return False


def verify_certificate(cert):
    """Re-check every relation, link validation, and class membership."""
    failures = []
    chain = cert.chain
    if len(chain) != len(cert.relations) + 1:
        return VerifyReport(False, ((0, "chain and relation lengths disagree"),))
    for i, member in enumerate(chain):
        if not in_class(member, cert.class_constraint):
            failures.append((i, f"chain member leaves class {cert.class_constraint}"))
    for i, r in enumerate(cert.relations):
        if not _relation_holds(chain[i], chain[i + 1], r.rel, r.witness):
            failures.append((i, f"relation {r.rel} fails"))
    seq_rep = validate_sequence(cert.sequence)
    if not seq_rep.ok:
        failures.extend((i, f"sequence: {msg}") for i, msg in seq_rep.failures)
    link_positions = [i for i, r in enumerate(cert.relations) if r.origin[0] == "link"]
    if cert.sequence.steps:
        if not link_positions:
            failures.append((0, "sequence present but no link relations"))
        else:
            start = link_positions[0]
            try:
                panels, _ = sequence_panels(cert.sequence)
            except ValueError as e:
                panels = None
                failures.append((start, str(e)))
            if panels is not None:
                for j, panel in enumerate(panels):
                    idx = start + j
                    if idx >= len(chain) or _hull_of(panel.points) != chain[idx]:
                        failures.append((idx, "panel does not match the chain"))
                        break
    return VerifyReport(not failures, tuple(failures))


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

    Orbit-first: each canonical class (_classes) that is in the class is
    placed in the box by every unimodular map that keeps it there
    (_placements); the other classes are not placed.
    """
    polys = (p for _, ps in _class_placements(box, class_constraint) for p in ps)
    return tuple(sorted(polys, key=lambda p: p.vertices))


def enumerate_fano(box, class_constraint, mfp_only=False):
    """Normal-form classes with concrete-representative counts, each the
    number of placements of its class; the filters run once per class."""
    return tuple(
        (nf, len(polys))
        for nf, polys in _class_placements(box, class_constraint)
        if polys and (not mfp_only or mori_fiber_structures(from_polytope(nf)))
    )


def _class_placements(box, class_constraint):
    check_box(box)
    if class_constraint not in ("canonical", "reflexive", "terminal"):
        raise ValueError("enumeration supports canonical, reflexive, terminal")
    return _placements(box, tuple(nf for nf in _classes() if in_class(nf, class_constraint)))


def _minimal_classes():
    """Normal forms of the minimal canonical polygons: the triangles and the
    parallelograms {+-u, +-v} (the planar case of Kasprzyk, Toric Fano
    3-folds with terminal singularities, 2006).  A canonical polygon is
    reflexive, so its boundary is a cycle of counter-clockwise level-one
    edges u -> v, det(u, v) = gcd(v - u); these are the 3-cycles and the
    4-cycles u, v, -u, -v in box 2, where all 16 classes have a member
    (Poonen and Rodriguez-Villegas, 2000)."""
    prims = box_primitives(2, 2)
    succ = {
        u: {v for v in prims if u[0] * v[1] - u[1] * v[0] == gcd(v[0] - u[0], v[1] - u[1]) > 0}
        for u in prims
    }
    cycles = {frozenset((u, v, w)) for u in prims for v in succ[u] for w in succ[v] if u in succ[w]}
    cycles |= {
        frozenset((u, v, (-u[0], -u[1]), (-v[0], -v[1])))
        for u in prims for v in succ[u] if (-u[0], -u[1]) in succ[v]
    }
    return {normal_form(hull(c)) for c in cycles}


@lru_cache(maxsize=MEMO_SIZE)
def _classes():
    """Normal forms of all canonical polygons, grown from the minimal ones.

    A canonical Q that is not minimal loses a vertex w to a canonical R, and
    the edges of Q at w have independent normals n1, n2 in the dual of R (the
    hull of its facet normals, R being reflexive) with <n1, w> = <n2, w> = -1.
    The step commutes with GL(2,Z), so it runs on normal forms.
    """
    found = list(_minimal_classes())
    for r in found:  # a worklist: the loop also visits what it appends
        normals = [n for n in lattice_points(hull([n for n, _ in r.facets])) if n != (0, 0)]
        for w in {
            ((b - d) // det, (c - a) // det)
            for a, b in normals
            for c, d in normals
            if (det := a * d - b * c) > 0 and (b - d) % det == (c - a) % det == 0
        }:
            q = hull(r.vertices + (w,))
            if q != r and _canonical_terminal(q)[0]:
                nf = normal_form(q)
                if nf not in found:
                    found.append(nf)
    return tuple(sorted(found, key=lambda p: p.vertices))


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


@lru_cache(maxsize=MEMO_SIZE)
def _placements(box, classes):
    """((class normal form, its distinct images in the box), ...) for the
    given class normal forms and no other.

    Consecutive boundary points u, v of a reflexive polygon form a lattice
    basis, so the maps [a b] [u v]^-1 over the pairs a, b of box primitives
    with det(a, b) = +-1 are all unimodular maps that can keep it in the box.
    Such a map moves the counter-clockwise vertices of the class onto those
    of the image, clockwise when det(a, b) < 0: reversed then and rotated to
    the least vertex, they are in hull's order, so no image is hulled.
    """
    pairs = [(a, b) for a in box_primitives(box, 2) for b in _basis_partners(a, box)]
    out = []
    for nf in classes:
        (x0, y0), (x1, y1) = nf.vertices[:2]
        k = gcd(x1 - x0, y1 - y0)
        inv = mat_inverse_unimodular(((x0, x0 + (x1 - x0) // k), (y0, y0 + (y1 - y0) // k)))
        coords = [mat_vec(inv, x) for x in nf.vertices]
        images = set()
        for (a0, a1), (b0, b1) in pairs:
            image = []
            for s, t in coords:
                x, y = s * a0 + t * b0, s * a1 + t * b1
                if not (-box <= x <= box and -box <= y <= box):
                    break
                image.append((x, y))
            else:
                if a0 * b1 < a1 * b0:
                    image.reverse()
                i = image.index(min(image))
                images.add(tuple(image[i:] + image[:i]))
        out.append((nf, tuple(map(_polygon, images))))
    return tuple(out)


# ---------------------------------------------------------------------------
# breadth-first oracle
# ---------------------------------------------------------------------------


def bfs_connect(p, q, class_constraint="canonical", box=4):
    """Shortest-link certificate inside a coordinate box, or None.

    Both endpoints are first reduced to Mori fiber polygons; the search then
    walks link moves between fibered pairs, any Mori fiber structure of the
    reduced endpoints being a valid source or target.
    """
    check_box(box)

    def join(rp, rq):
        steps = _bfs_pairs(
            _mori_pairs(rp.polytope), _mori_pairs(rq.polytope), class_constraint, box
        )
        return None if steps is None else sequence_from_steps(steps, class_constraint)

    return _certify(p, q, class_constraint, join)


def _mori_pairs(p):
    a = from_polytope(p)
    return [Constituent(a, fs.fiber) for fs in mori_fiber_structures(a)]


def _pair_key(c):
    return (c.points, c.fiber)


def _bfs_pairs(sources, targets, class_constraint, box):
    target_keys = {_pair_key(c) for c in targets}
    prev = {}
    frontier = []
    for c in sorted(sources, key=_pair_key):
        k = _pair_key(c)
        if k in target_keys:
            return []
        if k not in prev:
            prev[k] = (None, None, c)
            frontier.append(c)
    while frontier:
        nxt = []
        for c in frontier:
            for link in enumerate_links(c, class_constraint, box, "polytope"):
                r = link.right
                k = _pair_key(r)
                if k in prev:
                    continue
                prev[k] = (_pair_key(c), link, r)
                if k in target_keys:
                    return _rebuild(prev, k)
                nxt.append(r)
        frontier = sorted(nxt, key=_pair_key)
    return None


def _rebuild(prev, key):
    steps = []
    while True:
        parent, link, _ = prev[key]
        if parent is None:
            break
        steps.append(link)
        key = parent
    steps.reverse()
    return steps

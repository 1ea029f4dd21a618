import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoweb import web
from fanoweb.cli import main
from fanoweb.genset import from_polytope, mori_fiber_structures, positively_spans
from fanoweb.jsonio import certificate_from_json, certificate_to_json, dumps
from fanoweb.lattice import UnimodularMap
from fanoweb.links import (
    Constituent,
    _enumerate_links,
    blowdown_link,
    box_primitives,
    conjugate_sequence,
    enumerate_links,
    elementary_transform,
    plane_polygon,
    ruled_polygon,
    sequence_from_steps,
    validate_sequence,
)
from fanoweb.polytopes import _polygon, classify, hull, in_class, normal_form, primitive_points
from fanoweb.web import (
    GEN_S,
    GEN_T,
    GEN_U,
    TOKENS,
    CertificateVerificationError,
    ClassViolationError,
    ConnectCertificate,
    NoMoriFiberStructureError,
    Relation,
    _bfs_pairs,
    _classes,
    _minimal_classes,
    _placements,
    bfs_connect,
    connect,
    enumerate_class_polygons,
    enumerate_fano,
    factor_unimodular,
    fano_purity_report,
    forward_sequence,
    join_standard,
    match_standard,
    mmp_reduce,
    standard_pairs,
    to_standard_form,
    verify_certificate,
)
from test_links import _box2_mori_states
from test_memo import _clear_memos, _memos


def test_factor_generators():
    assert factor_unimodular(GEN_S) == ("S",)
    assert factor_unimodular(GEN_T) == ("T",)
    assert factor_unimodular(GEN_U) == ("U",)
    assert factor_unimodular(UnimodularMap.identity(2)) == ()


def test_factor_roundtrip_random():
    import random

    rng = random.Random(11)
    toks = list(TOKENS)
    for _ in range(150):
        g = UnimodularMap.identity(2)
        for _ in range(rng.randrange(1, 9)):
            g = g.compose(TOKENS[rng.choice(toks)])
        word = factor_unimodular(g)
        prod = UnimodularMap.identity(2)
        for t in word:
            prod = prod.compose(TOKENS[t])
        assert prod.matrix == g.matrix


def test_mmp_reduce_pentagon_rule():
    pent = hull([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)])
    r = mmp_reduce(pent, "canonical")
    assert [v for v, _ in r.chain] == [(-1, -1)]
    assert r.polytope == ruled_polygon(0)


def test_mmp_reduce_already_minimal():
    tri = plane_polygon()
    r = mmp_reduce(tri, "terminal")
    assert r.chain == ()
    assert r.polytope == tri
    assert r.fiber == from_polytope(tri).points


def test_mmp_reduce_hexagon():
    hexagon = hull([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)])
    r = mmp_reduce(hexagon, "canonical")
    # lexicographically smallest removable vertex at each step
    assert [v for v, _ in r.chain] == [(-1, -1), (0, 1)]
    assert mori_fiber_structures(from_polytope(r.polytope))
    assert normal_form(r.polytope) == normal_form(ruled_polygon(1))


def test_mmp_chain_strictly_decreases():
    hexagon = hull([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)])
    r = mmp_reduce(hexagon, "canonical")
    sizes = [len(from_polytope(hexagon).points)] + [
        len(from_polytope(p).points) for _, p in r.chain
    ]
    assert sizes == sorted(sizes, reverse=True)
    assert all(a - b == 1 for a, b in zip(sizes, sizes[1:]))


def test_match_standard_identity_and_images():
    for key, (std, _) in standard_pairs().items():
        k, u = match_standard(std)
        assert k == key
        assert u.matrix == ((1, 0), (0, 1))
    moved = hull(GEN_T.apply_all(ruled_polygon(2).vertices))
    k, u = match_standard(moved)
    assert k == "F2"
    assert hull(u.apply_all(moved.vertices)) == ruled_polygon(2)


def test_to_standard_form_identity():
    std, fiber = standard_pairs()["F0"]
    key, u, seq = to_standard_form(std, fiber, "terminal")
    assert key == "F0" and u.matrix == ((1, 0), (0, 1))
    assert seq.steps == ()


def test_to_standard_form_mirrored_square_is_trivial():
    # the mirror fixes the square and its horizontal ruling pointwise
    std, fiber = standard_pairs()["F0"]
    moved = hull(GEN_U.apply_all(std.vertices))
    assert moved == std
    key, u, seq = to_standard_form(moved, fiber, "terminal")
    assert key == "F0"
    assert seq.steps == ()


def test_to_standard_form_quarter_turn_triangle():
    tri, fiber = standard_pairs()["P2"]
    moved = hull(GEN_S.apply_all(tri.vertices))
    key, u, seq = to_standard_form(moved, from_polytope(moved).points, "terminal")
    assert key == "P2"
    assert hull(u.apply_all(moved.vertices)) == tri
    assert len(seq.steps) == 4
    kinds = [s.kind for s in seq.steps]
    assert kinds == ["III_m", "II_ni", "II_ni", "I_m"]


def test_to_standard_form_ruling_normalization():
    std, _ = standard_pairs()["F0"]
    vertical = ((0, -1), (0, 1))
    key, u, seq = to_standard_form(std, vertical, "terminal")
    assert key == "F0"
    assert len(seq.steps) == 1
    assert seq.steps[0].kind == "IV_m"


def test_forward_sequences_all_tokens_all_keys():
    for tok in TOKENS:
        g = TOKENS[tok]
        for key, (std, fiber) in standard_pairs().items():
            seq = forward_sequence(tok, key)
            cls = "canonical" if key == "F2" else "terminal"
            rep = validate_sequence(sequence_from_steps(seq.steps, cls))
            assert rep.ok, (tok, key, rep.failures)
            end = (hull(g.apply_all(std.vertices)), tuple(sorted(g.apply_all(fiber))))
            if not seq.steps:  # U fixes the square and its ruling
                assert end == (std, fiber), (tok, key)
                continue
            first, last = seq.steps[0].left, seq.steps[-1].right
            assert (hull(first.points), first.fiber) == (std, fiber), (tok, key)
            assert (hull(last.points), last.fiber) == end, (tok, key)


def test_generator_moves_no_longer_than_bfs():
    """The closed-form generator moves against the breadth-first oracle's
    shortest words, searched in growing boxes."""
    moves = {
        ("T", "P2", "terminal"): ["III_m", "II_ni", "II_ni", "I_m"],
        ("T", "F0", "terminal"): ["II_ni"] * 2,
        ("T", "F1", "terminal"): ["II_ni"] * 2,
        ("T", "F2", "canonical"): ["II_ni"] * 2,
        ("U", "F1", "terminal"): ["II_ni"] * 2,
        ("U", "F2", "canonical"): ["II_ni"] * 4,
    }
    for (tok, key, cls), kinds in moves.items():
        seq = forward_sequence(tok, key)
        assert [s.kind for s in seq.steps] == kinds, (tok, key)
        std, fiber = standard_pairs()[key]
        g = TOKENS[tok]
        source = Constituent(from_polytope(std), fiber)
        target = Constituent(from_polytope(hull(g.apply_all(std.vertices))), g.apply_all(fiber))
        shortest = None
        for box in (2, 3, 4):
            shortest = _bfs_pairs([source], [target], cls, box)
            if shortest is not None:
                break
        assert shortest is not None, (tok, key)
        assert len(seq.steps) <= len(shortest), (tok, key)


def test_join_standard_words():
    seq = join_standard("F0", "F2", "canonical")
    assert [s.kind for s in seq.steps] == ["II_ni", "II_ni"]
    assert join_standard("F1", "F1", "terminal").steps == ()
    with pytest.raises(ClassViolationError):
        join_standard("F0", "F2", "terminal")


def test_connect_same_polytope_trivial():
    p = hull([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    cert = connect(p, p, "canonical")
    assert cert.chain == (p,)
    assert cert.relations == ()
    assert cert.sequence.steps == ()
    assert verify_certificate(cert).ok


def test_connect_to_own_reduction_step_joins_at_common_member():
    hexagon = hull([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
    pentagon = mmp_reduce(hexagon, "canonical").chain[0][1]
    for p, q in ((hexagon, pentagon), (pentagon, hexagon)):
        cert = connect(p, q)
        assert cert.chain == (p, q)
        assert verify_certificate(cert).ok


def test_connect_square_to_f2():
    cert = connect(ruled_polygon(0), hull([(1, 0), (0, 1), (-2, -1)]), "canonical")
    assert verify_certificate(cert).ok
    kinds = [s.kind for s in cert.sequence.steps]
    assert kinds == ["II_ni", "II_ni"]
    from fanoweb.polytopes import in_class

    assert all(in_class(p, "reflexive") for p in cert.chain)


def test_connect_rejects_class_violation():
    not_canonical = hull([(1, 0), (0, 1), (-3, -1)])
    with pytest.raises(ClassViolationError):
        connect(not_canonical, plane_polygon(), "canonical")
    with pytest.raises(ClassViolationError):
        connect(ruled_polygon(2), plane_polygon(), "terminal")


def test_unknown_class_name_raises_value_error():
    tri = plane_polygon()
    calls = (
        lambda: in_class(tri, "bogus"),
        lambda: connect(tri, ruled_polygon(1), "bogus"),
        lambda: validate_sequence(sequence_from_steps([blowdown_link(1)], "bogus")),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown class 'bogus'"):
            call()


def test_connect_endpoints_bit_exact():
    p = hull(GEN_T.apply_all(ruled_polygon(1).vertices))
    q = plane_polygon()
    cert = connect(p, q, "canonical")
    assert cert.chain[0] == p
    assert cert.chain[-1] == q
    assert verify_certificate(cert).ok


def test_verify_detects_tampering():
    tri = plane_polygon()
    s_tri = hull(GEN_S.apply_all(tri.vertices))
    cert = connect(tri, s_tri, "terminal")
    assert verify_certificate(cert).ok
    from fanoweb.web import ConnectCertificate

    bad_chain = list(cert.chain)
    bad_chain[437 % len(bad_chain)] = hull([(1, 0), (0, 1), (-1, -2)])
    tampered = ConnectCertificate(
        tuple(bad_chain), cert.relations, cert.sequence, cert.class_constraint
    )
    rep = verify_certificate(tampered)
    assert not rep.ok
    assert rep.failures


def test_fano_purity_on_planar_families():
    seq = sequence_from_steps([elementary_transform(m) for m in range(3)][:1])
    assert fano_purity_report(seq) == ()
    seq2 = sequence_from_steps([blowdown_link(1)])
    assert fano_purity_report(seq2) == ()


def test_mmp_3d_dead_end_reports():
    # the three-dimensional walk is fixture-grade: a dead end must raise
    p = hull(
        [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (-1, -1, -1),
        ]
    )
    try:
        r = mmp_reduce(p, "canonical")
        assert r.polytope.dim == 3
    except NoMoriFiberStructureError:
        pass


def test_enumerate_fano_counts_box2():
    classes = enumerate_fano(2, "reflexive")
    assert len(classes) == 16
    total = sum(c for _, c in classes)
    assert total == len(enumerate_class_polygons(2, "reflexive"))


def test_enumerate_fano_mfp_box2():
    term = enumerate_fano(2, "terminal", mfp_only=True)
    assert len(term) == 3
    canon = enumerate_fano(2, "canonical", mfp_only=True)
    assert len(canon) == 4


@lru_cache(maxsize=None)
def _brute_force_canonical(box):
    """Reference enumeration: hulls of every 3- and 4-subset of box primitives
    that positively spans, then growth one primitive point at a time (a
    canonical polygon with five or more vertices has a vertex whose removal
    stays canonical, so the closure is exhaustive)."""
    prims = box_primitives(box, 2)
    seen = {}
    queue = []
    for size in (3, 4):
        for comb in combinations(prims, size):
            if positively_spans(comb, 2):
                p = hull(comb)
                if in_class(p, "canonical") and p.vertices not in seen:
                    seen[p.vertices] = p
                    queue.append(p)
    while queue:
        pts = primitive_points(queue.pop())
        for w in prims:
            if w not in pts:
                bigger = hull(pts + (w,))
                if bigger.vertices not in seen and in_class(bigger, "canonical"):
                    seen[bigger.vertices] = bigger
                    queue.append(bigger)
    return tuple(sorted(seen.values(), key=lambda p: p.vertices))


@pytest.mark.parametrize("box", [0, 1, 2, 3])
def test_enumeration_matches_brute_force(box):
    canon = _brute_force_canonical(box)
    nfs = {p: normal_form(p) for p in canon}
    for cls in ("canonical", "reflexive", "terminal"):
        polys = tuple(p for p in canon if in_class(p, cls))
        got = enumerate_class_polygons(box, cls)
        assert [p.vertices for p in got] == [p.vertices for p in polys]
        for mfp in (False, True):
            kept = [p for p in polys if not mfp or mori_fiber_structures(from_polytope(p))]
            counts = Counter(nfs[p] for p in kept)
            want = sorted((nf.vertices, n) for nf, n in counts.items())
            assert [(nf.vertices, n) for nf, n in enumerate_fano(box, cls, mfp)] == want


@pytest.mark.parametrize("box", [0, 1, 2, 3, 4])
def test_placed_polygons_are_their_hulls(box):
    for cls in ("canonical", "terminal", "reflexive"):
        for p in enumerate_class_polygons(box, cls):
            h = hull(p.vertices)
            assert (p.vertices, p.facets) == (h.vertices, h.facets)


def test_a_query_places_only_its_classes(monkeypatch):
    _clear_memos()
    placed = []

    def spy(vertices):
        placed.append(vertices)
        return _polygon(vertices)

    monkeypatch.setattr(web, "_polygon", spy)
    assert len(enumerate_fano(3, "terminal", mfp_only=True)) == 3
    assert _placements.cache_info().currsize == 1
    terminal = {nf for nf in _classes() if in_class(nf, "terminal")}
    assert len(terminal) == 5
    assert {normal_form(hull(v)) for v in placed} == terminal
    # in the plane the canonical and the reflexive classes are the same 16
    enumerate_fano(3, "canonical")
    enumerate_class_polygons(3, "reflexive")
    assert _placements.cache_info()[:2] == (1, 2)


@pytest.mark.parametrize("box", [2.0, 2.5, True, -1])
def test_a_box_that_is_no_nonnegative_int_is_refused_before_any_memo(box):
    tri = plane_polygon()
    s_tri = hull(GEN_S.apply_all(tri.vertices))
    start = Constituent(from_polytope(tri), from_polytope(tri).points)
    calls = [
        lambda: box_primitives(box, 2),
        lambda: enumerate_links(start, "terminal", box),
        lambda: bfs_connect(tri, s_tri, "canonical", box),
        lambda: enumerate_fano(box, "canonical"),
        lambda: enumerate_class_polygons(box, "terminal"),
    ]
    for call in calls:
        before = [fn.cache_info() for _, fn in _memos()]
        with pytest.raises(ValueError, match="box must be"):
            call()
        assert [fn.cache_info() for _, fn in _memos()] == before


def test_orbit_counts():
    # 5 triangles and 2 parallelograms are minimal; 5 of the 16 are terminal
    assert len(_minimal_classes()) == 7
    classes = _classes()
    assert len(classes) == 16
    assert all(normal_form(c) == c for c in classes)
    assert len([c for c in classes if in_class(c, "terminal")]) == 5


def test_bfs_connect_square_to_quad():
    cert = bfs_connect(ruled_polygon(0), ruled_polygon(1), "terminal", box=2)
    assert cert is not None
    assert len(cert.sequence.steps) == 1
    assert cert.sequence.steps[0].kind == "II_ni"
    assert verify_certificate(cert).ok


def test_bfs_connect_trivial():
    cert = bfs_connect(ruled_polygon(0), ruled_polygon(0), "canonical", box=2)
    assert cert.sequence.steps == ()
    assert cert.chain == (ruled_polygon(0),)


def test_bfs_connect_quarter_turn():
    tri = plane_polygon()
    s_tri = hull(GEN_S.apply_all(tri.vertices))
    cert = bfs_connect(tri, s_tri, "terminal", box=2)
    assert cert is not None
    assert len(cert.sequence.steps) <= 4
    assert verify_certificate(cert).ok
    direct = connect(tri, s_tri, "terminal")
    assert cert.chain[0] == direct.chain[0]
    assert cert.chain[-1] == direct.chain[-1]


def test_bfs_and_connect_agree_on_endpoints():
    p = ruled_polygon(1)
    q = hull(GEN_U.apply_all(ruled_polygon(1).vertices))
    a = connect(p, q, "terminal")
    b = bfs_connect(p, q, "terminal", box=2)
    assert b is not None
    assert a.chain[0] == b.chain[0] and a.chain[-1] == b.chain[-1]
    assert verify_certificate(a).ok and verify_certificate(b).ok


def test_bfs_reuses_each_boxed_neighbourhood():
    tri, square = plane_polygon(), ruled_polygon(0)
    sheared = hull([(1, 0), (2, 1), (-1, 0), (-2, -1)])
    queries = [
        (square, ruled_polygon(1), "terminal", 2),
        (tri, hull(GEN_S.apply_all(tri.vertices)), "terminal", 2),
        (ruled_polygon(1), hull(GEN_U.apply_all(ruled_polygon(1).vertices)), "canonical", 2),
        # not found at box 1, found at box 2: the box is part of the memo key
        (square, sheared, "canonical", 1),
        (square, sheared, "canonical", 2),
    ]

    def answer(query):
        cert = bfs_connect(*query)
        return None if cert is None else certificate_to_json(cert)

    first = [answer(q) for q in queries]
    assert first[3] is None and first[4] is not None
    before = _enumerate_links.cache_info()
    assert [answer(q) for q in queries] == first
    after = _enumerate_links.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    cold = []
    for q in queries:
        _clear_memos()
        cold.append(answer(q))
    assert cold == first


def test_minimal_polygons_admit_mori_structures():
    # exhaustive reduction over the box-2 canonical polygons: wherever the
    # walk bottoms out, a Mori fiber structure must exist
    minimal_seen = 0
    for p in enumerate_class_polygons(2, "canonical"):
        cur = p
        while True:
            from fanoweb.genset import polytope_reduction

            step = None
            for v in sorted(cur.vertices):
                res = polytope_reduction(cur, v)
                if res.valid:
                    step = res.polytope
                    break
            if step is None:
                break
            cur = step
        assert mori_fiber_structures(from_polytope(cur)), cur
        minimal_seen += 1
    assert minimal_seen == len(enumerate_class_polygons(2, "canonical"))


def test_verify_survives_non_fano_tampering():
    # tampering can push a chain member outside the Fano world entirely;
    # verification must localize that, not blow up
    from fanoweb.web import ConnectCertificate

    cert = connect(ruled_polygon(0), ruled_polygon(1), "canonical")
    bad_chain = list(cert.chain)
    bad_chain[1] = hull([(2, 1), (0, 1), (-1, 0), (0, -1)])
    tampered = ConnectCertificate(
        tuple(bad_chain), cert.relations, cert.sequence, cert.class_constraint
    )
    rep = verify_certificate(tampered)
    assert not rep.ok
    assert rep.failures


def test_concat_cancels_link_and_inverse():
    from fanoweb.links import inverse
    from fanoweb.web import _concat

    link = elementary_transform(0, 1)
    seq = _concat([sequence_from_steps([link]), sequence_from_steps([inverse(link)])], "canonical")
    assert seq.steps == ()
    assert seq.class_constraint == "canonical"


def test_concat_cuts_loop_and_keeps_surrounding_steps():
    from fanoweb.links import ElementaryLink, constituent, ruling_swap
    from fanoweb.web import _concat

    # three II_ni links from (square, horizontal ruling) back to it, each
    # trading one lower point for another; set mode, because in polytope mode
    # the middle set of the b-to-c link misses (0, -1) on its hull
    fiber = ((-1, 0), (1, 0))
    top = [(-1, 0), (1, 0), (0, 1)]
    a, b, c = (0, -1), (-1, -1), (1, -1)

    def pair(*lower):
        return constituent(top + list(lower), fiber)

    def swap(x, y):
        return ElementaryLink("II_ni", pair(x), pair(x, y), pair(y))

    loop = [swap(a, b), swap(b, c), swap(c, a)]
    before, after = ruling_swap(-1), elementary_transform(0, 1)
    word = [before] + loop + [after]
    assert validate_sequence(sequence_from_steps(word)).ok
    assert loop[-1].right == before.right
    # after lands on the loop's first state, which the cut has forgotten
    assert after.right == loop[0].right
    seq = _concat([sequence_from_steps(word[:2]), sequence_from_steps(word[2:])], "none")
    assert seq.steps == (before, after)
    assert validate_sequence(seq).ok


_GL_WORDS = st.lists(st.sampled_from(sorted(TOKENS)), max_size=4)


def _gl_map(word):
    g = UnimodularMap.identity(2)
    for t in word:
        g = g.compose(TOKENS[t])
    return g


def _gl_image(p, word):
    return hull(_gl_map(word).apply_all(p.vertices))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from(["canonical", "terminal"]),
    i=st.integers(min_value=0),
    j=st.integers(min_value=0),
    g=_GL_WORDS,
    h=_GL_WORDS,
)
def test_connect_words_never_revisit_a_state(cls, i, j, g, h):
    from fanoweb.web import ConnectCertificate, Relation

    polys = enumerate_class_polygons(2, cls)
    p = _gl_image(polys[i % len(polys)], g)
    q = _gl_image(polys[j % len(polys)], h)
    cert = connect(p, q, cls)
    steps = cert.sequence.steps
    states = [(c.points, c.fiber) for c in [s.left for s in steps[:1]] + [s.right for s in steps]]
    assert len(states) == len(set(states))
    assert verify_certificate(cert).ok
    assert cert.chain[0] == p and cert.chain[0].vertices == p.vertices
    assert cert.chain[-1] == q and cert.chain[-1].vertices == q.vertices
    s = dumps(certificate_to_json(cert))
    assert dumps(certificate_to_json(certificate_from_json(json.loads(s)))) == s
    if p == q:
        return
    k = next(k for k, r in enumerate(cert.relations) if r.witness is not None)
    r = cert.relations[k]
    relations = list(cert.relations)
    relations[k] = Relation(r.rel, (r.witness[0] + 1, r.witness[1]), r.origin)
    tampered = ConnectCertificate(cert.chain, tuple(relations), cert.sequence, cls)
    assert not verify_certificate(tampered).ok


def _moved_certificate(g, cert):
    """The image of a certificate under g: its chain, witnesses and links."""
    return ConnectCertificate(
        tuple(hull(g.apply_all(p.vertices)) for p in cert.chain),
        tuple(
            Relation(r.rel, None if r.witness is None else g.apply(r.witness), r.origin)
            for r in cert.relations
        ),
        conjugate_sequence(g, cert.sequence),
        cert.class_constraint,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from(["canonical", "terminal"]),
    i=st.integers(min_value=0),
    j=st.integers(min_value=0),
    g=st.lists(st.sampled_from(sorted(TOKENS)), min_size=1, max_size=6),
)
def test_certificates_are_gl_equivariant(cls, i, j, g):
    polys = enumerate_class_polygons(2, cls)
    cert = connect(polys[i % len(polys)], polys[j % len(polys)], cls)
    image = _moved_certificate(_gl_map(g), cert)
    assert verify_certificate(image).ok
    k = next((k for k, r in enumerate(image.relations) if r.witness is not None), None)
    if k is None:
        return
    r = image.relations[k]
    relations = list(image.relations)
    relations[k] = Relation(r.rel, (r.witness[0] + 1, r.witness[1]), r.origin)
    assert not verify_certificate(replace(image, relations=tuple(relations))).ok


@settings(max_examples=150, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), g=_GL_WORDS)
def test_enumeration_is_gl_equivariant(i, g):
    polys = enumerate_class_polygons(3, "canonical")
    image = _gl_image(polys[i % len(polys)], g)
    if max(abs(x) for v in image.vertices for x in v) <= 3:
        assert image in set(polys)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), g=_GL_WORDS)
def test_to_standard_form_joins_gl_images_to_the_standard_pair(i, g):
    states = _box2_mori_states()
    c, cls = states[i % len(states)]
    m = _gl_map(g)
    p = hull(m.apply_all(c.points))
    fiber = tuple(sorted(m.apply_all(c.fiber)))
    key, u, seq = to_standard_form(p, fiber, cls)
    std, f_std = standard_pairs()[key]
    assert hull(u.apply_all(p.vertices)).vertices == std.vertices
    rep = validate_sequence(sequence_from_steps(seq.steps, cls))
    assert rep.ok, rep.failures
    if not seq.steps:
        assert (p, fiber) == (std, f_std)
        return
    first, last = seq.steps[0].left, seq.steps[-1].right
    assert (hull(first.points), first.fiber) == (p, fiber)
    assert (hull(last.points), last.fiber) == (std, f_std)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), g=_GL_WORDS)
def test_classify_is_gl_invariant(i, g):
    polys = enumerate_class_polygons(2, "canonical")
    p = polys[i % len(polys)]
    assert classify(_gl_image(p, g)) == classify(p)


def _patch_cremona_move(monkeypatch, edit):
    """Replace the steps of the S and U moves on the triangle (the Cremona
    word) by edit(steps); memos are cleared around it."""
    builtin = web._forward_builtin

    def faulty(token, key):
        seq = builtin(token, key)
        if key != "P2" or token == "T":
            return seq
        return sequence_from_steps(edit(seq.steps))

    _clear_memos()
    monkeypatch.setattr(web, "_forward_builtin", faulty)
    yield
    _clear_memos()


@pytest.fixture
def faulty_cremona_move(monkeypatch):
    """Every link of the Cremona word relabelled IV_s, a kind none has."""
    yield from _patch_cremona_move(monkeypatch, lambda steps: [replace(s, kind="IV_s") for s in steps])


@pytest.fixture
def broken_cremona_joint(monkeypatch):
    """The Cremona word without its second step, so its joints do not chain."""
    yield from _patch_cremona_move(monkeypatch, lambda steps: steps[:1] + steps[2:])


def _connect_triangle_to_quarter_turn(tmp_path, capsys):
    """connect's exception and the `fanoweb connect` exit code and JSON for
    the triangle and its quarter turn, joined by the Cremona word alone."""
    tri = standard_pairs()["P2"][0]
    moved = hull(GEN_S.apply_all(tri.vertices))
    with pytest.raises(CertificateVerificationError) as err:
        connect(tri, moved, "terminal")
    paths = []
    for name, p in (("a.json", tri), ("b.json", moved)):
        path = tmp_path / name
        path.write_text(json.dumps({"dim": 2, "points": [list(v) for v in p.vertices]}))
        paths.append(str(path))
    code = main(["connect", *paths, "--class", "terminal"])
    return err.value, code, json.loads(capsys.readouterr().out)


def test_verify_certificate_is_the_one_gate(faulty_cremona_move, tmp_path, capsys):
    err, code, out = _connect_triangle_to_quarter_turn(tmp_path, capsys)
    assert any("link invalid" in msg for _, msg in err.failures)
    assert code == 3
    assert out["error"]["type"] == "verification"
    assert any("link invalid" in msg for _, msg in out["error"]["failures"])


def test_broken_joint_is_a_verification_error(broken_cremona_joint, tmp_path, capsys):
    err, code, out = _connect_triangle_to_quarter_turn(tmp_path, capsys)
    assert any("do not chain" in msg for _, msg in err.failures)
    assert code == 3
    assert out["error"]["type"] == "verification"
    assert any("do not chain" in msg for _, msg in out["error"]["failures"])


def test_assemble_refuses_a_sequence_that_misses_the_reductions():
    tri, square = plane_polygon(), ruled_polygon(0)
    rp, rq = mmp_reduce(tri, "terminal"), mmp_reduce(square, "terminal")
    for seq, message in (
        (sequence_from_steps([]), "empty sequence between distinct reductions"),
        (forward_sequence("T", "F0"), "does not start at the reduced polygon"),
        (forward_sequence("T", "P2"), "does not end at the target reduction"),
    ):
        with pytest.raises(CertificateVerificationError, match=message):
            web._assemble(tri, square, rp, rq, seq, "terminal")

import copy
import json
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoweb import genset, web
from fanoweb.cli import main
from fanoweb.genset import from_polytope, mori_fiber_structures, mori_fibers, positively_spans
from fanoweb.jsonio import certificate_from_json, certificate_to_json, dumps
from fanoweb.lattice import UnimodularMap, bezout, mat_det, mat_inverse_unimodular, mat_mul, mat_vec
from fanoweb.links import (
    HORIZONTAL_FIBER,
    Constituent,
    ElementaryLink,
    _enumerate_links,
    _frame,
    _relation_holds,
    blowdown_link,
    box_primitives,
    conjugate,
    enumerate_links,
    elementary_transform,
    inverse,
    plane_polygon,
    ruled_polygon,
    ruling_swap,
    sequence_from_steps,
    standard_pairs,
    validate_sequence,
)
from fanoweb.polytopes import (
    _canonical_terminal,
    _polygon,
    classify,
    hull,
    in_class,
    is_fano,
    lattice_points,
    primitive_points,
)
from fanoweb.web import (
    GEN_S,
    GEN_T,
    GEN_U,
    CertificateVerificationError,
    ClassViolationError,
    ConnectCertificate,
    NoMoriFiberStructureError,
    NotInStandardOrbitError,
    Relation,
    _bfs_pairs,
    bfs_connect,
    connect,
    enumerate_class_polygons,
    enumerate_fano,
    factor_unimodular,
    fano_purity_report,
    mmp_reduce,
    to_standard_form,
    verify_certificate,
)
from normal_forms import normal_form
from test_links import _GL_TOKENS, _GL_WORDS, _box2_mori_states, _gl_map
from test_memo import _clear_memos, _memos


def _classes():
    """Normal forms of all canonical polygons, sorted by vertices: the
    polygons of the class table's rows."""
    return tuple(_polygon(row[0]) for row in web._CLASS_TABLE)


def reverse_sequence(seq):
    """The sequence walked backwards: its steps' inverses, last first."""
    return sequence_from_steps(tuple(inverse(s) for s in reversed(seq.steps)), seq.class_constraint)


def conjugate_sequence(g, seq):
    """The image of the sequence under g, step by step."""
    return sequence_from_steps(tuple(conjugate(g, s) for s in seq.steps), seq.class_constraint)


def _move(tok, key):
    """The replayed literal word of a generator move, as a sequence."""
    return sequence_from_steps(web._replay(key, web._MOVES[tok, key]))


def _ladder(a, b):
    """The replayed literal ladder word between two standard pairs."""
    return web._replay(a, web._LADDER.get((a, b), ()))


def test_factor_generators():
    assert factor_unimodular(GEN_S) == ("S",)
    assert factor_unimodular(GEN_T) == ("T",)
    assert factor_unimodular(GEN_U) == ("U",)
    assert factor_unimodular(UnimodularMap.identity(2)) == ()


def test_factor_roundtrip_random():
    import random

    rng = random.Random(11)
    toks = list(_GL_TOKENS)
    for _ in range(150):
        g = UnimodularMap.identity(2)
        for _ in range(rng.randrange(1, 9)):
            g = g.compose(_GL_TOKENS[rng.choice(toks)])
        word = factor_unimodular(g)
        prod = UnimodularMap.identity(2)
        for t in word:
            prod = prod.compose(_GL_TOKENS[t])
        assert prod.matrix == g.matrix


def _reference_factor(g):
    """factor_unimodular by the matrix product: each step left-multiplies by
    the inverse map of its token, on the same floor-division schedule."""
    m = g.matrix
    tokens = []

    def apply(name):
        nonlocal m
        m = mat_mul(_GL_TOKENS[name].inverse().matrix, m)
        tokens.append(name)

    while m[1][0] != 0:
        a, c = m[0][0], m[1][0]
        if a == 0 or abs(a) < abs(c):
            apply("S")
            continue
        q = a // c
        for _ in range(abs(q)):
            apply("T" if q > 0 else "T^-1")
    if m[0][0] < 0:
        apply("U")
    if m[1][1] < 0:
        for name in ("U", "S", "S"):
            apply(name)
    b = m[0][1]
    for _ in range(abs(b)):
        apply("T" if b > 0 else "T^-1")
    assert m == ((1, 0), (0, 1))
    return tuple(tokens)


def _gl2_elements(n, bound, seed):
    """n seeded elements of GL(2,Z) with entries at most bound in size,
    about half of them of determinant -1."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        g, x, y = bezout(a, c)
        if g != 1:
            continue
        # ((a, -y), (c, x)) has determinant 1; shearing its second column by
        # the first keeps that, flipping the column's sign makes it -1
        shears = [k for k in range(-2 * bound, 2 * bound + 1) if max(abs(k * a - y), abs(k * c + x)) <= bound]
        k = rng.choice(shears)
        sign = rng.choice((1, -1))
        out.append(UnimodularMap(((a, sign * (k * a - y)), (c, sign * (k * c + x)))))
    return out


def test_factor_words_equal_the_matrix_product_route():
    elements = _gl2_elements(500, 50, 28)
    assert {mat_det(g.matrix) for g in elements} == {1, -1}
    assert max(abs(x) for g in elements for row in g.matrix for x in row) == 50
    for g in elements:
        assert factor_unimodular(g) == _reference_factor(g), g.matrix


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


def _reference_mmp_reduce(p, cls):
    """The general removal loop on fiber structures and hulled reductions:
    (polytope, fiber, chain), or the type of the error it raises."""
    cur = p
    chain = []
    try:
        while True:
            mori = mori_fiber_structures(from_polytope(cur))
            if mori:
                return cur, min(fs.fiber for fs in mori), tuple(chain)
            for v in sorted(cur.vertices):
                res = genset.polytope_reduction(cur, v)
                if res.valid and in_class(res.polytope, cls):
                    chain.append((v, res.polytope))
                    cur = res.polytope
                    break
            else:
                raise NoMoriFiberStructureError(cur)
    except ValueError as e:
        return type(e)


def _mmp_reduce_or_error(p, cls):
    try:
        r = mmp_reduce(p, cls)
    except ValueError as e:
        return type(e)
    return r.polytope, r.fiber, r.chain


ALL_CLASSES = ("canonical", "terminal", "reflexive", "fano", "none")


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_ring_reduction_equals_the_general_loop(cls):
    polys = enumerate_class_polygons(4, "canonical")
    got = [_mmp_reduce_or_error(p, cls) for p in polys]
    assert got == [_reference_mmp_reduce(p, cls) for p in polys]
    assert {len(r[2]) for r in got if type(r) is tuple} >= {0, 1, 2, 3}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), g=st.lists(st.sampled_from(sorted(_GL_TOKENS)), max_size=30),
       cls=st.sampled_from(ALL_CLASSES))
@example(i=0, g=["T"] * 200, cls="canonical")
@example(i=13, g=["S", "T", "T"] * 40, cls="terminal")
@example(i=7, g=["U"] + ["T^-1", "S"] * 60, cls="none")
def test_ring_reduction_equals_the_general_loop_on_gl_images(i, g, cls):
    polys = enumerate_class_polygons(2, "canonical")
    p = _gl_image(polys[i % len(polys)], g)
    assert _mmp_reduce_or_error(p, cls) == _reference_mmp_reduce(p, cls)


def _noncanonical_fano_polygons():
    """Seeded Fano polygons in box 3 with an interior point besides the
    origin, and a triangle whose primitive points are four, one of them
    interior and antipodal to a vertex."""
    import random

    rng = random.Random(3)
    out = {hull([(1, 0), (-2, 1), (-2, -1)])}
    while len(out) < 150:
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))]
        try:
            p = hull(pts)
        except ValueError:
            continue
        if is_fano(p) and not in_class(p, "canonical"):
            out.add(p)
    return sorted(out, key=lambda p: p.vertices)


def test_mori_pairs_equal_the_fiber_structure_route():
    canonical = enumerate_class_polygons(3, "canonical")
    others = _noncanonical_fano_polygons()
    for p in canonical + tuple(others):
        a = from_polytope(p)
        assert web._mori_pairs(p) == [Constituent(a, fs.fiber) for fs in mori_fiber_structures(a)]
    assert len({len(web._mori_pairs(p)) for p in others}) > 1


def test_a_canonical_reduction_builds_no_structure_and_scans_nothing(monkeypatch):
    from fanoweb import polytopes

    calls = Counter()

    def spy(mod, name):
        real = getattr(mod, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mod, name, wrapped)

    spy(genset, "_build_fiber_structure")
    spy(genset, "polytope_reduction")
    spy(web, "polytope_reduction")
    spy(polytopes, "_scan")
    polys = enumerate_class_polygons(2, "canonical")
    _clear_memos()
    chains = 0
    for cls in ("canonical", "terminal", "reflexive", "fano", "none"):
        for p in polys:
            r = _mmp_reduce_or_error(p, cls)
            chains += len(r[2]) if type(r) is tuple else 0
            web._mori_pairs(p)
    assert chains > 0
    assert calls == Counter()
    # the general loop scans a polygon that is not canonical
    mmp_reduce(hull([(1, 0), (-2, 1), (-2, -1)]), "fano")
    assert calls["_scan"] == 1


def _pruned(p, q, cls, box):
    """(pruned, unpruned search result) of bfs_connect's join on p and q."""
    sources = web._mori_pairs(mmp_reduce(p, cls).polytope)
    targets = web._mori_pairs(mmp_reduce(q, cls).polytope)
    return not web._in_reach(sources, targets, box), lambda: _bfs_pairs(sources, targets, cls, box)


def test_the_reach_prune_only_drops_queries_the_search_cannot_answer():
    import random

    rng = random.Random(1)
    queries = []
    for cls in ("canonical", "terminal"):
        for src in (3, 4):
            polys = enumerate_class_polygons(src, cls)
            for box in (1, 2, 3):
                queries += [(rng.choice(polys), rng.choice(polys), cls, box) for _ in range(12)]
    pruned = 0
    for p, q, cls, box in queries:
        cut, search = _pruned(p, q, cls, box)
        if cut:
            pruned += 1
            assert search() is None, (p, q, cls, box)
    assert 0 < pruned < len(queries)


def test_an_unreachable_target_is_answered_without_a_search(monkeypatch):
    tri, far = plane_polygon(), hull([(1, 0), (300, 1), (-301, -1)])
    cut, search = _pruned(tri, far, "terminal", 10)
    assert cut and search() is None
    monkeypatch.setattr(web, "_bfs_pairs", lambda *args: pytest.fail("searched"))
    for cls in ("terminal", "canonical"):
        assert bfs_connect(tri, far, cls, 80) is None


def test_match_standard_identity_and_images():
    for key, (std, fiber) in standard_pairs().items():
        k, u, seq = to_standard_form(std, fiber, "canonical")
        assert (k, u.matrix, seq.steps) == (key, ((1, 0), (0, 1)), ())
    moved = hull(GEN_T.apply_all(ruled_polygon(2).vertices))
    k, u, _ = to_standard_form(moved, GEN_T.apply_all(HORIZONTAL_FIBER), "canonical")
    assert k == "F2"
    assert hull(u.apply_all(moved.vertices)) == ruled_polygon(2)


def test_to_standard_form_identity():
    std, fiber = standard_pairs()["F0"]
    key, u, seq = to_standard_form(std, fiber, "terminal")
    assert key == "F0" and u.matrix == ((1, 0), (0, 1))
    assert seq.steps == ()


def test_non_orbit_pairs_raise_not_in_standard_orbit():
    square = ruled_polygon(0)
    pentagon = hull([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)])
    for p, fiber in (
        (square, from_polytope(square).points),  # all four points as the fiber
        (square, ()),
        (pentagon, HORIZONTAL_FIBER),
        (pentagon, from_polytope(pentagon).points),
        (plane_polygon(), ((-1, -1), (1, 0))),
        (ruled_polygon(3), HORIZONTAL_FIBER),  # the frame names F3
    ):
        with pytest.raises(NotInStandardOrbitError):
            to_standard_form(p, fiber, "canonical")


def _orbit_maps(src, dst):
    """All unimodular maps sending the point set src onto dst: each pair of
    independent points of src against each pair of dst with the same
    determinant, so every map found preserves orientation."""
    out = {}
    pairs_dst = {}
    for a in dst:
        for b in dst:
            det = a[0] * b[1] - a[1] * b[0]
            if det != 0:
                pairs_dst.setdefault(det, []).append((a, b))
    for a in src:
        for b in src:
            det = a[0] * b[1] - a[1] * b[0]
            for c, d in pairs_dst.get(det, ()):  # no key 0
                # u * (a b) == (c d): u = (c d) * adj(a b) / det
                raw = mat_mul(((c[0], d[0]), (c[1], d[1])), ((b[1], -b[0]), (-a[1], a[0])))
                if any(x % det for row in raw for x in row):
                    continue
                u = UnimodularMap(tuple(tuple(x // det for x in row) for row in raw))
                if set(u.apply_all(src)) == set(dst):
                    out[u.matrix] = u
    return list(out.values())


def _searched_standard_form(p):
    """The key and the map u onto the standard polygon that a search over
    all maps between primitive points finds: the shortest word for u^-1,
    ties broken by the word and then by the matrix."""

    def rank(u):
        word = factor_unimodular(u.inverse())
        return len(word), word, u.matrix

    for key, (std, _) in standard_pairs().items():
        cands = _orbit_maps(primitive_points(p), primitive_points(std))
        if cands:
            return key, min(cands, key=rank)
    raise NotInStandardOrbitError(p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0), g=st.lists(st.sampled_from(sorted(_GL_TOKENS)), max_size=12))
@example(i=0, g=["T"] * 100)
@example(i=40, g=["S", "T", "T"] * 20)
@example(i=97, g=["T^-1", "U", "S^-1"] * 15)
@example(i=150, g=["U", "S"] + ["T"] * 50)
def test_to_standard_form_map_is_the_searched_one(i, g):
    states = _box2_mori_states()
    c, cls = states[i % len(states)]
    m = _gl_map(g)
    p = hull(m.apply_all(c.points))
    key, u, _ = to_standard_form(p, m.apply_all(c.fiber), cls)
    ref_key, ref_u = _searched_standard_form(p)
    assert (key, u.matrix) == (ref_key, ref_u.matrix)


def _reference_standard_form(p, fiber):
    """The reference for _to_standard_form's word and reversed word: the
    searched map (_searched_standard_form), each generator move's word
    reversed and moved whole by the prefix before it, the square's second
    ruling swapped back first, and the parts joined by _concat."""
    key, u = _searched_standard_form(p)
    g = u.inverse()
    word = factor_unimodular(g)
    std, f_std = standard_pairs()[key]
    parts = []
    if tuple(sorted(fiber)) != tuple(sorted(g.apply_all(f_std))):
        parts.append([conjugate(g, ruling_swap(-1))])
    prefixes = [UnimodularMap.identity(2)]
    for t in word:
        prefixes.append(prefixes[-1].compose(_GL_TOKENS[t]))
    for i in range(len(word), 0, -1):
        back = reverse_sequence(_move(word[i - 1], key))
        parts.append(conjugate_sequence(prefixes[i - 1], back).steps)
    steps = tuple(web._concat(parts))
    return steps, tuple(inverse(s) for s in reversed(steps))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(("P2", "F0", "F0 second ruling", "F1", "F2")),
    g=_GL_WORDS,
    cls=st.sampled_from(("canonical", "terminal", "reflexive")),
)
@example(key="P2", g=["T"] * 12, cls="terminal")
@example(key="F0 second ruling", g=["S", "T", "T"] * 4, cls="canonical")
@example(key="F2", g=["T^-1", "U", "S^-1"] * 4, cls="reflexive")
def test_to_standard_form_matches_the_concat_reference(key, g, cls):
    # the memo holds the class-free steps; the public form labels them
    pairs = dict(standard_pairs(), **{"F0 second ruling": (ruled_polygon(0), ((0, -1), (0, 1)))})
    std, fiber = pairs[key]
    m = _gl_map(g)
    p, moved = hull(m.apply_all(std.vertices)), tuple(sorted(m.apply_all(fiber)))
    _, _, word, back = web._to_standard_form(p, moved)
    assert (word, back) == _reference_standard_form(p, moved)
    seq = to_standard_form(p, moved, cls)[2]
    assert (seq.steps, seq.class_constraint) == (word, cls)


def test_the_standard_form_memo_holds_one_entry_per_mori_pair():
    # a terminal connect and then a canonical one of the same two Mori
    # polygons share both words
    p, q = ruled_polygon(1), hull(GEN_S.apply_all(plane_polygon().vertices))
    _clear_memos()
    connect(p, q, "terminal")
    terminal = web._to_standard_form.cache_info()
    connect(p, q, "canonical")
    canonical = web._to_standard_form.cache_info()
    assert (terminal.misses, terminal.currsize) == (2, 2)
    assert (canonical.misses, canonical.currsize) == (2, 2)
    assert canonical.hits == terminal.hits + 2


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
    # factor_unimodular spells a map with S, T, T^-1 and U only
    for tok in ("S", "T", "T^-1", "U"):
        g = _GL_TOKENS[tok]
        for key, (std, fiber) in standard_pairs().items():
            seq = _move(tok, key)
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


def test_generator_and_ladder_words_are_pinned():
    """The table words of the generator moves and of the ladder, by kind:
    blow-down, slide, ruling swap and contraction."""
    b, s, r, c = "III_m", "II_ni", "IV_m", "I_m"
    moves = {
        "P2": {"S": [b, s, s, c], "T": [b, s, s, c], "U": [b, s, s, c]},
        "F0": {"S": [r], "T": [s, s], "U": []},
        "F1": {"S": [s, r, s], "T": [s, s], "U": [s, s]},
        "F2": {"S": [s, s, r, s, s], "T": [s, s], "U": [s, s, s, s]},
    }
    for key, words in moves.items():
        for tok, kinds in words.items():
            assert [x.kind for x in _move(tok, key).steps] == kinds, (tok, key)
    ladder = {
        ("P2", "F0"): [b, s], ("P2", "F1"): [b], ("P2", "F2"): [b, s],
        ("F0", "F1"): [s], ("F0", "F2"): [s, s], ("F1", "F2"): [s],
    }
    for a in moves:
        assert _ladder(a, a) == ()
    for (a, z), kinds in ladder.items():
        assert [x.kind for x in _ladder(a, z)] == kinds, (a, z)
        assert [x.kind for x in _ladder(z, a)] == [
            {b: c}.get(k, k) for k in reversed(kinds)
        ], (z, a)


def _table_word(source, target):
    """The reference for the literal words: the breadth-first oracle's word
    from source to target, two Mori pairs (polygon, fiber), searched from
    the target and reversed, in the box of the largest coordinate of the
    two ends, over the terminal table when both ends are terminal and the
    canonical one otherwise."""
    (p, f), (q, h) = source, target
    cls = "terminal" if in_class(p, "terminal") and in_class(q, "terminal") else "canonical"
    box = max(abs(x) for v in p.vertices + q.vertices for x in v)
    steps = _bfs_pairs([Constituent(from_polytope(q), h)], [Constituent(from_polytope(p), f)], cls, box)
    assert steps is not None, "no table word between two standard pairs"
    return reverse_sequence(sequence_from_steps(steps)).steps


def test_literal_words_are_the_searched_table_words():
    """Each replayed S, T and U move and ladder word is the search's word,
    and each T^-1 move is the T word reversed and moved back, link by link.
    The search reads the terminal table between terminal pairs, so the
    ladder words without F2, replayed from the canonical table, are the
    terminal table's words too."""
    pairs = standard_pairs()
    assert sorted(web._MOVES) == sorted((tok, key) for tok in ("S", "T", "T^-1", "U") for key in pairs)
    for tok, key in web._MOVES:
        if tok.endswith("^-1"):
            base = _move(tok.removesuffix("^-1"), key)
            want = conjugate_sequence(_GL_TOKENS[tok], reverse_sequence(base)).steps
        else:
            std, fiber = pairs[key]
            g = _GL_TOKENS[tok]
            want = _table_word((std, fiber), (hull(g.apply_all(std.vertices)), g.apply_all(fiber)))
        assert _move(tok, key).steps == want, (tok, key)
    assert sorted(web._LADDER) == sorted((a, b) for a in pairs for b in pairs if a != b)
    for a in pairs:
        for b in pairs:
            assert _ladder(a, b) == _table_word(pairs[a], pairs[b]), (a, b)


def test_join_standard_words():
    assert [s.kind for s in _ladder("F0", "F2")] == ["II_ni", "II_ni"]
    assert _ladder("F1", "F1") == ()


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
    placed = []
    real = web._placements
    monkeypatch.setattr(web, "_placements", lambda box, classes: placed.append(real(box, classes)) or placed[-1])
    assert len(enumerate_fano(3, "terminal", mfp_only=True)) == 3
    # in the plane the canonical and the reflexive classes are the same 16
    enumerate_fano(3, "canonical")
    enumerate_class_polygons(3, "reflexive")
    terminal = tuple(nf for nf in _classes() if in_class(nf, "terminal"))
    assert len(terminal) == 5 and len(_classes()) == 16
    assert [tuple(nf for nf, _, _ in held) for held in placed] == [terminal, _classes(), _classes()]
    assert placed[1] == placed[2]
    # a kept map's image lies in the box and is a polygon of its class
    for held in placed[:2]:
        for nf, coords, kept in held:
            assert kept
            for (a0, a1), (b0, b1), _ in kept:
                image = [(s * a0 + t * b0, s * a1 + t * b1) for s, t in coords]
                assert all(abs(x) <= 3 and abs(y) <= 3 for x, y in image)
                assert normal_form(hull(image)) == nf


def _brute_force_symmetry_count(nf):
    """Maps sending the first two vertices onto an ordered pair of vertices,
    solved over the rationals, that are integral and unimodular and permute
    the vertices."""
    vs = nf.vertices
    (p0, p1), (q0, q1) = vs[:2]
    d = Fraction(p0 * q1 - p1 * q0)
    count = 0
    for (x0, x1), (y0, y1) in permutations(vs, 2):
        m = [[(x * q1 - y * p1) / d, (y * p0 - x * q0) / d] for x, y in ((x0, y0), (x1, y1))]
        if any(e.denominator != 1 for row in m for e in row):
            continue
        m = [[int(e) for e in row] for row in m]
        if abs(mat_det(m)) == 1 and {tuple(mat_vec(m, v)) for v in vs} == set(vs):
            count += 1
    return count


def test_symmetry_count_of_each_class_matches_brute_force():
    counts = {vs: n for vs, n, _, _ in web._CLASS_TABLE}
    assert list(counts.values()) == [_brute_force_symmetry_count(nf) for nf in _classes()]
    # the triangle of P^2 and the hexagon: the dihedral groups of order 6 and 12
    assert counts[hull([(1, 0), (0, 1), (-1, -1)]).vertices] == 6
    assert [n for vs, n in counts.items() if len(vs) == 6] == [12]


def test_the_class_columns_are_the_class_and_fiber_predicates():
    rows = web._CLASS_TABLE
    assert [terminal for _, _, terminal, _ in rows] == [in_class(nf, "terminal") for nf in _classes()]
    assert [mori for _, _, _, mori in rows] == [bool(mori_fibers(from_polytope(nf))) for nf in _classes()]
    mori = [row for row in rows if row[3]]
    assert (len(rows), sum(row[2] for row in rows), len(mori), sum(row[2] for row in mori)) == (16, 5, 4, 3)


def _unfolded_loop(box, nf):
    """Every pair a, b of box primitives with det(a, b) = +-1 whose map
    [a b] [u v]^-1 keeps the class in the box, u its first vertex and v the
    next boundary point: the enumeration loop before it was folded by the
    square's symmetries."""
    (x0, y0), (x1, y1) = nf.vertices[:2]
    k = gcd(x1 - x0, y1 - y0)
    inv = mat_inverse_unimodular(((x0, x0 + (x1 - x0) // k), (y0, y0 + (y1 - y0) // k)))
    coords = [mat_vec(inv, x) for x in nf.vertices]
    prims = box_primitives(box, 2)
    return [
        (a, b)
        for a in prims
        for b in prims
        if abs(mat_det((a, b))) == 1
        and all(abs(s * a[0] + t * b[0]) <= box >= abs(s * a[1] + t * b[1]) for s, t in coords)
    ]


@pytest.mark.parametrize("box", range(9))
def test_the_folded_maps_unfold_to_each_map_of_the_unfolded_loop_once(box):
    # every class subset a query places: all 16, the 5 terminal ones, each
    # class alone, so each mask is read over the coordinates of its own query
    want = {nf: sorted(_unfolded_loop(box, nf)) for nf in _classes()}
    terminal = tuple(nf for nf in want if in_class(nf, "terminal"))
    for classes in [_classes(), terminal] + [(nf,) for nf in want]:
        placed = web._placements(box, classes)
        assert tuple(nf for nf, _, _ in placed) == classes
        for nf, _, kept in placed:
            assert sorted(web._unfolded(kept)) == want[nf]


@pytest.mark.parametrize("box", [4, 6])
def test_counts_are_the_normal_forms_of_the_enumerated_polygons(box):
    canon = enumerate_class_polygons(box, "canonical")
    nfs = {p: normal_form(p) for p in canon}
    fibered = {p for p in canon if mori_fiber_structures(from_polytope(p))}
    for cls in ("canonical", "reflexive", "terminal"):
        polys = enumerate_class_polygons(box, cls)
        for mfp in (False, True):
            counts = Counter(nfs[p] for p in polys if not mfp or p in fibered)
            want = sorted((nf.vertices, n) for nf, n in counts.items())
            assert [(nf.vertices, n) for nf, n in enumerate_fano(box, cls, mfp)] == want


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


@lru_cache(maxsize=None)
def _grown_classes():
    """Reference for the class table: normal forms of all canonical polygons,
    grown from the minimal ones.

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


def test_orbit_counts():
    # 5 triangles and 2 parallelograms are minimal; 5 of the 16 are terminal
    assert len(_minimal_classes()) == 7
    classes = _grown_classes()
    assert len(classes) == 16
    assert all(normal_form(c) == c for c in classes)
    assert len([c for c in classes if in_class(c, "terminal")]) == 5


def test_the_class_table_is_the_grown_list():
    table = _classes()
    grown = _grown_classes()
    assert len(table) == len(grown)
    for c, g in zip(table, grown):
        assert (c.dim, c.vertices, c.facets) == (g.dim, g.vertices, g.facets)
        h = hull(c.vertices)
        assert (c.vertices, c.facets) == (h.vertices, h.facets)
        nf = normal_form(c)
        assert (nf.vertices, nf.facets) == (c.vertices, c.facets)


def test_a_cold_bfs_builds_the_link_table_without_a_candidate_search(monkeypatch):
    """Neither a cold bfs nor a cold connect runs the candidate loop, under
    every class that connect accepts, and a cold connect, whose generator
    words and ladder are literal table words, runs no breadth-first search
    and builds the canonical table only."""
    from fanoweb import links

    calls, searches, tables, words = [], [], set(), set()
    real, replay, search, table = links._candidate_links, web._replay, web._bfs_pairs, web._link_table
    monkeypatch.setattr(links, "_candidate_links", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(web, "_replay", lambda key, word: words.add((key, word)) or replay(key, word))
    monkeypatch.setattr(web, "_bfs_pairs", lambda *args: searches.append(args) or search(*args))
    monkeypatch.setattr(web, "_link_table", lambda cls: tables.add(cls) or table(cls))
    _clear_memos()
    for cls in ("canonical", "terminal"):
        assert links._link_table(cls)["F0"]
    tri, square = plane_polygon(), ruled_polygon(0)
    assert bfs_connect(tri, hull(GEN_S.apply_all(tri.vertices)), "terminal", 2) is not None
    sq2 = hull([(1, 0), (2, 1), (-1, 0), (-2, -1)])
    canonical = bfs_connect(square, sq2, "canonical", 2)
    assert canonical is not None
    # the reflexive table is the canonical one, and so is the certificate, but for its label
    _clear_memos()
    reflexive = bfs_connect(square, sq2, "reflexive", 2)
    assert reflexive.sequence.steps == canonical.sequence.steps
    assert (reflexive.chain, reflexive.relations) == (canonical.chain, canonical.relations)
    assert len(searches) == 3
    assert calls == []
    # the word onto F1 of this image is T^-1 T^-1 S U U S S
    p = hull(UnimodularMap(((2, 1), (-1, 0))).apply_all(ruled_polygon(1).vertices))
    searches.clear()
    for cls in ("canonical", "terminal", "reflexive"):
        _clear_memos()
        connect(p, tri, cls)
        assert links._link_table.cache_info().misses == 1
    assert {("F1", web._MOVES[tok, "F1"]) for tok in ("S", "T^-1", "U")} <= words
    assert tables == {"canonical"}
    assert searches == []
    assert calls == []


def _link_moves(cls, box):
    """The triangle's Mori pair, and every state that the links inside the
    box reach from it with the states one link away from that state."""
    (start,) = web._mori_pairs(plane_polygon())
    moves, todo = {}, [start]
    while todo:
        c = todo.pop()
        if c not in moves:
            moves[c] = [link.right for link in _enumerate_links(c, cls, box, "polytope")]
            todo += moves[c]
    return start, moves


def _distances(moves, start):
    """The breadth-first distance of every state that moves reach from start."""
    dist, frontier = {start: 0}, [start]
    while frontier:
        nxt = []
        for c in frontier:
            for r in moves[c]:
                if r not in dist:
                    dist[r] = dist[c] + 1
                    nxt.append(r)
        frontier = nxt
    return dist


@pytest.mark.parametrize("cls, counts", [
    ("terminal", (26, 74, 170, 266)), ("canonical", (30, 94, 222, 350)),
])
def test_the_links_of_a_box_join_all_its_mori_pairs(cls, counts):
    """The paper's theorem, measured on boxes 1-4: the links inside the box
    reach from the triangle exactly the Mori pairs of the class polygons of
    the box, each polygon's reduction among them; the triangle's greatest
    distance is pinned too."""
    for box, count, eccentricity in zip((1, 2, 3, 4), counts, (5, 8, 11, 13)):
        start, moves = _link_moves(cls, box)
        dist = _distances(moves, start)
        polys = enumerate_class_polygons(box, cls)
        assert set(dist) == {c for p in polys for c in web._mori_pairs(p)}
        assert len(dist) == count
        for r in (mmp_reduce(p, cls) for p in polys):
            assert Constituent(from_polytope(r.polytope), r.fiber) in dist
        assert max(dist.values()) == eccentricity


@pytest.mark.parametrize("cls, pairs", [("terminal", 5476), ("canonical", 8836)])
def test_box_2_walks_are_as_short_as_box_4_walks(cls, pairs):
    """Box-convexity, measured at box 2: between every two Mori pairs of box
    2, the links inside box 2 are as short a walk as those inside box 4."""
    _, inner = _link_moves(cls, 2)
    _, outer = _link_moves(cls, 4)
    seen = 0
    for s in inner:
        near, far = _distances(inner, s), _distances(outer, s)
        assert {t: far[t] for t in near} == near
        seen += len(near)
    assert seen == pairs


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
    assert _concat([(link,), (inverse(link),)]) == []


def test_concat_cuts_loop_and_keeps_surrounding_steps():
    from fanoweb.genset import PrimGenSet
    from fanoweb.links import Constituent, ElementaryLink, ruling_swap
    from fanoweb.web import _concat

    # three II_ni links from (square, horizontal ruling) back to it, each
    # trading one lower point for another; set mode, because in polytope mode
    # the middle set of the b-to-c link misses (0, -1) on its hull
    fiber = ((-1, 0), (1, 0))
    top = [(-1, 0), (1, 0), (0, 1)]
    a, b, c = (0, -1), (-1, -1), (1, -1)

    def pair(*lower):
        return Constituent(PrimGenSet(2, top + list(lower)), fiber)

    def swap(x, y):
        return ElementaryLink("II_ni", pair(x), pair(x, y), pair(y))

    loop = [swap(a, b), swap(b, c), swap(c, a)]
    before, after = ruling_swap(-1), elementary_transform(0, 1)
    word = [before] + loop + [after]
    assert validate_sequence(sequence_from_steps(word)).ok
    assert loop[-1].right == before.right
    # after lands on the loop's first state, which the cut has forgotten
    assert after.right == loop[0].right
    steps = _concat([word[:2], word[2:]])
    assert steps == [before, after]
    assert validate_sequence(sequence_from_steps(steps)).ok


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


def test_images_with_corresponding_frames_share_one_check(monkeypatch):
    # T^j moves the frame of every left column of this certificate to T^j
    # after that frame, so the four images of its links read the same table
    # links' records: only the first image builds fiber structures.  T^0
    # would hold the table's own links out of the triangle, which are
    # checked directly, so the images start at T^1
    cert = connect(hull([(1, 0), (0, 1), (-1, -1)]), hull([(0, 1), (-1, 0), (1, -1)]), "terminal")
    maps = [_gl_map(["T"] * j) for j in range(1, 5)]
    for g in maps:
        for step in cert.sequence.steps:
            _, frame = _frame(step.left.points, step.left.fiber)
            moved = conjugate(g, step).left
            assert _frame(moved.points, moved.fiber)[1] == g.compose(frame)
    images = [_moved_certificate(g, cert) for g in maps]
    built = []
    build = genset._build_fiber_structure
    monkeypatch.setattr(genset, "_build_fiber_structure", lambda *a: built.append(a) or build(*a))
    _clear_memos()
    counts = []
    for image in images:
        before = len(built)
        assert verify_certificate(image).ok
        counts.append(len(built) - before)
    assert counts[0] > 0
    assert counts[1:] == [0, 0, 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from(["canonical", "terminal"]),
    i=st.integers(min_value=0),
    j=st.integers(min_value=0),
    g=st.lists(st.sampled_from(sorted(_GL_TOKENS)), min_size=1, max_size=6),
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
    tampered = ConnectCertificate(image.chain, tuple(relations), image.sequence, image.class_constraint)
    assert not verify_certificate(tampered).ok


@pytest.mark.parametrize("g", [
    UnimodularMap(((1, 3), (0, 1))),
    GEN_S,
    UnimodularMap(((2, 3), (1, 2))),
])
def test_verify_refuses_a_sequence_cut_short(g):
    tri = plane_polygon()
    cert = connect(tri, hull(g.apply_all(tri.vertices)), "terminal")
    steps = cert.sequence.steps
    n = len(steps)
    assert n >= 4 and verify_certificate(cert).ok
    for keep in (1, n - 2, n - 1):
        cut = ConnectCertificate(
            cert.chain, cert.relations, sequence_from_steps(steps[:keep], "terminal"), "terminal"
        )
        assert not verify_certificate(cut).ok, keep


def test_verify_uses_the_certificate_class_label():
    cert = connect(plane_polygon(), hull(GEN_T.apply_all(ruled_polygon(1).vertices)), "terminal")
    data = json.loads(dumps(certificate_to_json(cert)))
    assert verify_certificate(certificate_from_json(data)).ok
    data["sequence"]["class"] = "none"
    rep = verify_certificate(certificate_from_json(data))
    assert not rep.ok
    assert rep.failures == ((0, "sequence class none is not terminal"),)


def _tampered_certificates(data, draw):
    """JSON certificates tampered in the link sequence or in the relations
    that claim to be its panels."""
    steps = data["sequence"]["steps"]
    n = len(steps)
    for k in range(1, n + 1):
        for kept in (steps[k:], steps[:n - k]):
            bad = copy.deepcopy(data)
            bad["sequence"]["steps"] = kept
            yield bad
    links = [k for k, r in enumerate(data["relations"]) if r["origin"][0] == "link"]
    k = draw(st.sampled_from(links))
    idx = data["relations"][k]["origin"][1]
    for moved in (idx - 1, idx + 1, n):
        bad = copy.deepcopy(data)
        bad["relations"][k]["origin"][1] = moved
        yield bad
    pairs = [
        (a, b) for a, b in combinations(links, 2)
        if data["relations"][a]["witness"] != data["relations"][b]["witness"]
    ]
    if pairs:
        a, b = draw(st.sampled_from(pairs))
        bad = copy.deepcopy(data)
        ra, rb = bad["relations"][a], bad["relations"][b]
        ra["witness"], rb["witness"] = rb["witness"], ra["witness"]
        yield bad
    # an equality holds whatever its witness, so only the panel check sees this
    for k in links:
        if data["relations"][k]["rel"] == "equal":
            bad = copy.deepcopy(data)
            bad["relations"][k]["witness"] = [1, 0]
            yield bad


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from(["canonical", "terminal"]),
    i=st.integers(min_value=0),
    j=st.integers(min_value=0),
    g=_GL_WORDS,
    data=st.data(),
)
def test_verify_refuses_tampered_link_relations(cls, i, j, g, data):
    polys = enumerate_class_polygons(2, cls)
    cert = connect(polys[i % len(polys)], _gl_image(polys[j % len(polys)], g), cls)
    loaded = json.loads(dumps(certificate_to_json(cert)))
    assert verify_certificate(certificate_from_json(loaded)).ok
    if not cert.sequence.steps:
        return
    for bad in _tampered_certificates(loaded, data.draw):
        assert not verify_certificate(certificate_from_json(bad)).ok


def test_equal_links_and_columns_are_one_object():
    link = elementary_transform(1, 1)
    a = conjugate(GEN_S, conjugate(GEN_S, link))
    b = conjugate(GEN_S.compose(GEN_S), link)
    assert a is b and a.left is b.left and a.middle is b.middle and a.right is b.right
    assert inverse(inverse(a)) is a and inverse(a) is inverse(b)
    # the columns of consecutive steps are one object, so a joint is an identity
    seq = conjugate_sequence(GEN_T, _move("S", "F1"))
    assert all(s.right is t.left for s, t in zip(seq.steps, seq.steps[1:]))


def _reduced_on_both_sides(cls):
    """A certificate whose endpoints both need class-preserving reductions."""
    polys = [p for p in enumerate_class_polygons(2, cls) if mmp_reduce(p, cls).chain]
    cert = connect(polys[0], polys[-1], cls)
    links = [i for i, r in enumerate(cert.relations) if r.origin[0] == "link"]
    assert links and links[0] > 0 and links[-1] < len(cert.relations) - 1
    return cert, links[0], links[-1] + 1


def test_a_warm_verify_checks_only_the_reduction_sides_itself(monkeypatch):
    cert, lo, hi = _reduced_on_both_sides("canonical")
    assert verify_certificate(cert).ok
    members, relations = [], []
    real_in_class, real_holds = web.in_class, web._relation_holds

    def spy_in_class(p, cls):
        members.append(p)
        return real_in_class(p, cls)

    def spy_holds(a, b, rel, witness):
        relations.append((a, b, rel, witness))
        return real_holds(a, b, rel, witness)

    monkeypatch.setattr(web, "in_class", spy_in_class)
    monkeypatch.setattr(web, "_relation_holds", spy_holds)
    assert verify_certificate(cert).ok
    chain, rels = cert.chain, cert.relations
    outside = [i for i in range(len(chain)) if not lo <= i <= hi]
    assert members == [chain[i] for i in outside]
    assert relations == [
        (chain[i], chain[i + 1], rels[i].rel, rels[i].witness)
        for i in range(len(rels)) if not lo <= i < hi
    ]
    assert all(rels[i].origin == ("reduction",) for i in outside if i < len(rels))


def _direct_failures(cert):
    """The class and relation failures of every chain member and relation,
    each checked on its own, as when no link record is read."""
    chain, cls = cert.chain, cert.class_constraint
    out = {(i, f"chain member leaves class {cls}") for i, p in enumerate(chain) if not in_class(p, cls)}
    out |= {
        (i, f"relation {r.rel} fails")
        for i, r in enumerate(cert.relations)
        if not _relation_holds(chain[i], chain[i + 1], r.rel, r.witness)
    }
    return out


def _with(cert, chain=None, relations=None):
    return ConnectCertificate(
        cert.chain if chain is None else tuple(chain),
        cert.relations if relations is None else tuple(relations),
        cert.sequence,
        cert.class_constraint,
    )


def test_an_equal_copy_inside_a_link_span_still_verifies():
    cert, lo, hi = _reduced_on_both_sides("terminal")
    for k in (lo, (lo + hi) // 2, hi):
        chain = list(cert.chain)
        chain[k] = _polygon(chain[k].vertices)
        assert chain[k] == cert.chain[k] and chain[k] is not cert.chain[k]
        assert verify_certificate(_with(cert, chain=chain)) == verify_certificate(cert)


def test_a_tampered_span_fails_as_every_check_run_on_its_own():
    cert, lo, hi = _reduced_on_both_sides("canonical")
    outside_class = hull([(1, 0), (0, 1), (-1, -3)])
    assert not in_class(outside_class, "canonical")
    for k in sorted({0, lo - 1, lo, (lo + hi) // 2, hi, hi + 1, len(cert.chain) - 1}):
        chain = list(cert.chain)
        chain[k] = outside_class
        rep = verify_certificate(_with(cert, chain=chain))
        mismatch = {(k, "panel does not match the chain")} if lo <= k <= hi else set()
        assert set(rep.failures) == _direct_failures(_with(cert, chain=chain)) | mismatch, k
    for k in sorted({0, lo, (lo + hi) // 2, hi - 1, hi}):
        r = cert.relations[k]
        if r.witness is None:
            continue
        relations = list(cert.relations)
        relations[k] = Relation(r.rel, (r.witness[0] + 1, r.witness[1]), r.origin)
        rep = verify_certificate(_with(cert, relations=relations))
        mismatch = {(k + 1, "panel does not match the chain")} if lo <= k < hi else set()
        assert (k, f"relation {r.rel} fails") in rep.failures
        assert set(rep.failures) == _direct_failures(_with(cert, relations=relations)) | mismatch, k


def test_a_tampered_span_keeps_its_failure_entries():
    cert = connect(plane_polygon(), hull(GEN_S.apply_all(plane_polygon().vertices)), "terminal")
    chain = list(cert.chain)
    chain[3] = hull([(1, 0), (0, 1), (-1, -2)])
    assert verify_certificate(_with(cert, chain=chain)).failures == (
        (3, "chain member leaves class terminal"),
        (2, "relation subset_dot fails"),
        (3, "relation supset_dot fails"),
        (3, "panel does not match the chain"),
    )
    relations = list(cert.relations)
    r = relations[2]
    relations[2] = Relation(r.rel, (r.witness[0] + 1, r.witness[1]), r.origin)
    assert verify_certificate(_with(cert, relations=relations)).failures == (
        (2, "relation subset_dot fails"),
        (3, "panel does not match the chain"),
    )


@pytest.mark.parametrize("witness", [5, [1, 0], ((1,), 0), 1.5])
def test_verify_fails_a_malformed_witness_without_raising(witness):
    cert, lo, hi = _reduced_on_both_sides("terminal")
    for k in (0, lo, hi - 1):
        relations = list(cert.relations)
        r = relations[k]
        relations[k] = Relation(r.rel, witness, r.origin)
        rep = verify_certificate(_with(cert, relations=relations))
        assert not rep.ok and (k, f"relation {r.rel} fails") in rep.failures


@pytest.mark.parametrize("origin", [5, (), "reduction", None])
def test_verify_fails_a_malformed_origin_without_raising(origin):
    cert, lo, _ = _reduced_on_both_sides("terminal")
    for k in (0, lo):
        relations = list(cert.relations)
        r = relations[k]
        relations[k] = Relation(r.rel, r.witness, origin)
        assert not verify_certificate(_with(cert, relations=relations)).ok


def test_verify_fails_a_step_that_is_not_in_polytope_mode():
    tri = plane_polygon()
    cert = connect(tri, hull(GEN_S.apply_all(tri.vertices)), "terminal")
    data = json.loads(dumps(certificate_to_json(cert)))
    data["sequence"]["steps"][0]["mode"] = "set"
    rep = verify_certificate(certificate_from_json(data))
    assert not rep.ok
    assert rep.failures == ((0, "sequence: link mode set is not polytope"),)


def test_a_warm_connect_builds_no_link(monkeypatch):
    from fanoweb import links

    p = ruled_polygon(1)
    q = hull(UnimodularMap(((2, 3), (1, 2))).apply_all(plane_polygon().vertices))
    cert = connect(p, q, "canonical")
    built = []
    real_inverse, real_init = links.inverse, ElementaryLink.__init__

    def spy_inverse(link):
        built.append(link)
        return real_inverse(link)

    def spy_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(links, "inverse", spy_inverse)
    monkeypatch.setattr(ElementaryLink, "__init__", spy_init)
    assert connect(p, q, "canonical") == cert
    assert built == []


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
    """Replace the replayed steps of the table word from the triangle to
    its quarter turn (the Cremona word; the S and U moves on the triangle
    share it) by edit(steps); memos are cleared around it."""
    replay, cremona = web._replay, ("P2", web._MOVES["S", "P2"])
    assert web._MOVES["U", "P2"] == cremona[1]

    def faulty(key, word):
        steps = replay(key, word)
        return edit(steps) if (key, word) == cremona else steps

    _clear_memos()
    monkeypatch.setattr(web, "_replay", faulty)
    yield
    _clear_memos()


@pytest.fixture
def faulty_cremona_move(monkeypatch):
    """Every link of the Cremona word relabelled IV_s, a kind none has."""
    yield from _patch_cremona_move(monkeypatch, lambda steps: [
        ElementaryLink("IV_s", s.left, s.middle, s.right, s.mode) for s in steps
    ])


@pytest.fixture
def broken_cremona_joint(monkeypatch):
    """The Cremona word without its second step, so its joints do not chain."""
    yield from _patch_cremona_move(monkeypatch, lambda steps: steps[:1] + steps[2:])


@pytest.fixture
def cremona_word_from_a_wrong_start(monkeypatch):
    """The Cremona word without its first step, so it starts away from the
    triangle and still ends at the quarter turn."""
    yield from _patch_cremona_move(monkeypatch, lambda steps: steps[1:])


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
    assert any("joint mismatch" in msg for _, msg in err.failures)
    assert code == 3
    assert out["error"]["type"] == "verification"
    assert any("joint mismatch" in msg for _, msg in out["error"]["failures"])


def test_a_wrong_start_is_a_verification_error(cremona_word_from_a_wrong_start, tmp_path, capsys):
    err, code, out = _connect_triangle_to_quarter_turn(tmp_path, capsys)
    assert (0, "panel does not match the chain") in err.failures
    assert code == 3
    assert out["error"]["type"] == "verification"
    assert [0, "panel does not match the chain"] in out["error"]["failures"]


def test_assemble_refuses_a_sequence_that_misses_the_reductions():
    tri, square = plane_polygon(), ruled_polygon(0)
    rp, rq = mmp_reduce(tri, "terminal"), mmp_reduce(square, "terminal")
    for seq, message in (
        (sequence_from_steps([]), "empty sequence between distinct reductions"),
        (_move("T", "P2"), "does not end at the target reduction"),
    ):
        with pytest.raises(CertificateVerificationError, match=message):
            web._assemble(tri, square, rp, rq, seq, "terminal")
    # a sequence from F1 onto the square starts away from the triangle: the
    # certificate shows it, so verify_certificate refuses it
    cert = web._assemble(tri, square, rp, rq, sequence_from_steps(_ladder("F1", "F0")), "terminal")
    assert (0, "panel does not match the chain") in verify_certificate(cert).failures


def test_the_general_reduction_loop_equals_its_reference():
    # polygons that are not canonical are reduced by the general loop
    polys = _noncanonical_fano_polygons()
    got = [_mmp_reduce_or_error(p, cls) for cls in ALL_CLASSES for p in polys]
    assert got == [_reference_mmp_reduce(p, cls) for cls in ALL_CLASSES for p in polys]
    assert sum(len(r[2]) for r in got if type(r) is tuple) > 0
    assert any(type(r) is type for r in got)


def test_verify_reads_a_panel_class_from_the_step_record():
    # relabelled terminal, the F2 polygon (the first panel, chain member 0)
    # and the next panel leave the class; both are read from step records
    cert = connect(ruled_polygon(2), plane_polygon(), "canonical")
    seq = sequence_from_steps(cert.sequence.steps, "terminal")
    rep = verify_certificate(ConnectCertificate(cert.chain, cert.relations, seq, "terminal"))
    members = [i for i, msg in rep.failures if msg == "chain member leaves class terminal"]
    assert members == [i for i, p in enumerate(cert.chain) if not in_class(p, "terminal")] == [0, 1]


def test_verify_reads_the_panels_of_an_edited_link_from_its_record():
    # the README certificate with step 1's middle point (0,-1) moved to (1,-1),
    # and the chain assembled from the edited sequence, so the walk matches
    # the panels and reads their classes and relations from the step record
    tri, tri90 = hull([(1, 0), (0, 1), (-1, -1)]), hull([(0, 1), (-1, 0), (1, -1)])
    data = certificate_to_json(connect(tri, tri90, "terminal"))
    middle = data["sequence"]["steps"][1]["middle"]
    middle["points"][middle["points"].index([0, -1])] = [1, -1]
    seq = certificate_from_json(data).sequence
    rp, rq = mmp_reduce(tri, "terminal"), mmp_reduce(tri90, "terminal")
    rep = verify_certificate(web._assemble(tri, tri90, rp, rq, seq, "terminal"))
    assert sorted(rep.failures) == [
        (1, "sequence: link invalid: right reduction; middle set purity"),
        (1, "sequence: middle constituent leaves class terminal"),
        (2, "relation subset_dot fails"),
        (3, "chain member leaves class terminal"),
        (3, "relation supset_dot fails"),
    ]

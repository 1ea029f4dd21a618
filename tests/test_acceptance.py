"""Acceptance suite: one test per criterion, one pass/fail line each."""

import itertools

from fanoweb.links import (
    elementary_transform,
    plane_polygon,
    ruled_polygon,
    validate_sequence,
)
from fanoweb.obstruction import (
    GENERATORS,
    impure_sequence,
    points,
    pure_sequence,
)
from fanoweb.polytopes import hull, in_class, in_hull
from fanoweb.web import (
    GEN_S,
    GEN_U,
    connect,
    enumerate_class_polygons,
    enumerate_fano,
    fano_purity_report,
    verify_certificate,
)
from normal_forms import normal_form


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_standard_form_classification():
    term = enumerate_fano(3, "terminal", mfp_only=True)
    canon = enumerate_fano(3, "canonical", mfp_only=True)
    term_nfs = {nf for nf, _ in term}
    canon_nfs = {nf for nf, _ in canon}
    expected_term = {
        normal_form(plane_polygon()),
        normal_form(ruled_polygon(0)),
        normal_form(ruled_polygon(1)),
    }
    expected_canon = expected_term | {normal_form(ruled_polygon(2))}
    ok = (
        len(term) == 3
        and len(canon) == 4
        and term_nfs == expected_term
        and canon_nfs == expected_canon
    )
    _report(
        1,
        ok,
        f"Mori fiber polygon classes in box 3: {len(term)} terminal, {len(canon)} canonical, "
        "normal forms match the standard polygons",
    )


def test_criterion_2_desk_scale_connectivity():
    failures = 0
    totals = {}
    for cls, box in (("canonical", 2), ("terminal", 2)):
        polys = enumerate_class_polygons(box, cls)
        assert len(polys) >= 100, "expected several hundred concrete polygons"
        n = 0
        for p, q in itertools.product(polys, repeat=2):
            cert = connect(p, q, cls)
            rep = verify_certificate(cert)
            if not (rep.ok and cert.chain[0] == p and cert.chain[-1] == q):
                failures += 1
            n += 1
        totals[cls] = (len(polys), n)
    ok = failures == 0
    _report(
        2,
        ok,
        "connect+verify on every ordered pair in box 2: "
        f"{totals['canonical'][0]} canonical polygons ({totals['canonical'][1]} pairs), "
        f"{totals['terminal'][0]} terminal polygons ({totals['terminal'][1]} pairs), "
        f"{failures} failures",
    )


# the nine figure panels; the chain merges the repeated seventh set
_FIGURE_PANELS = [
    {(1, 0), (0, 1), (-1, -1)},
    {(1, 0), (0, 1), (-1, 0), (-1, -1)},
    {(1, 0), (0, 1), (-1, 0), (-1, -1)},
    {(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)},
    {(1, 0), (0, 1), (-1, 0), (0, -1)},
    {(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)},
    {(1, 0), (0, 1), (-1, 0), (1, -1)},
    {(1, 0), (0, 1), (-1, 0), (1, -1)},
    {(0, 1), (-1, 0), (1, -1)},
]

_CHAIN_PANELS = _FIGURE_PANELS[:7] + [_FIGURE_PANELS[8]]


def test_criterion_3_quarter_turn_reproduction():
    tri = plane_polygon()
    s_tri = hull(GEN_S.apply_all(tri.vertices))
    cert = connect(tri, s_tri, "terminal")
    chain_sets = [set(p.vertices) for p in cert.chain]
    expected_word = [
        ("III_m", None),
        ("II_ni", None),
        ("II_ni", GEN_U),
        ("I_m", GEN_U),
    ]
    word_ok = len(cert.sequence.steps) == 4
    if word_ok:
        from fanoweb.links import blowdown_link, conjugate

        target = [
            blowdown_link(1),
            elementary_transform(0, -1),
            conjugate(GEN_U, elementary_transform(0, 1)),
            conjugate(GEN_U, blowdown_link(-1)),
        ]
        word_ok = list(cert.sequence.steps) == target
    ok = (
        len(cert.chain) == 8
        and chain_sets == _CHAIN_PANELS
        and word_ok
        and verify_certificate(cert).ok
        and cert.chain[0] == tri
        and cert.chain[-1] == s_tri
    )
    _report(
        3,
        ok,
        "quarter-turn certificate: 8 polytopes matching the figure panels, "
        "word = (U b- U^-1) o (U e0+ U^-1) o e0- o b+",
    )


def test_criterion_4_threefold_fixtures():
    impure = impure_sequence()
    pure = pure_sequence()
    a = validate_sequence(impure).ok and tuple(s.kind for s in impure.steps) == ("I_m", "II_ni")
    b = validate_sequence(pure).ok and tuple(s.kind for s in pure.steps) == ("II_ni", "I_m")
    flags = set(fano_purity_report(impure)) == {points("12357"), points("123567")}
    clean = fano_purity_report(pure) == ()
    membership = in_hull(GENERATORS[4], points("12357")) and not in_hull(
        GENERATORS[6], points("12357")
    )
    ok = a and b and flags and clean and membership
    _report(
        4,
        ok,
        "threefold fixtures: both sequences validate at set level with their diagram kinds, "
        "purity flags exactly the two unsaturated sets, membership facts hold",
    )


def test_criterion_5_link_family_classes():
    ok = True
    for sign in (1, -1):
        link = elementary_transform(0, sign)
        ok = ok and all(
            in_class(hull(c.points), "terminal")
            for c in (link.left, link.middle, link.right)
        )
        link = elementary_transform(1, sign)
        ok = ok and all(
            in_class(hull(c.points), "canonical")
            for c in (link.left, link.middle, link.right)
        )
    middle2 = elementary_transform(2, 1).middle
    ok = ok and not in_class(hull(middle2.points), "canonical")
    _report(
        5,
        ok,
        "family classes: the m=0 links are terminal throughout, m=1 canonical throughout, "
        "and the m=2 middle polygon is not canonical",
    )


def test_criterion_6_property_suites():
    import random

    from fanoweb.genset import (
        from_polytope,
        is_pgs,
        fiber_structures,
        mori_fiber_structures,
        reductions,
        PrimGenSet,
    )
    from fanoweb.lattice import UnimodularMap, mat_mul
    from fanoweb.polytopes import classify, polar_dual
    from test_polytopes import _hull_route_dual

    problems = []

    refl = enumerate_class_polygons(2, "reflexive")
    for p in refl:
        d = polar_dual(p)
        if (d.vertices, d.facets) != _hull_route_dual(p) or polar_dual(d) != p:
            problems.append(("duality", p))
            break

    fixtures_3d = [
        hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
        hull([GENERATORS[i] for i in (1, 2, 3, 4, 5, 7)]),
        hull(list(GENERATORS.values())),
    ]
    for p in list(refl) + fixtures_3d:
        f = classify(p)
        chain_ok = (
            (not f.terminal or f.canonical)
            and (not f.reflexive or f.pseudoreflexive)
            and (not f.pseudoreflexive or f.almost_pseudoreflexive)
            and (not f.almost_pseudoreflexive or f.canonical)
        )
        if not chain_ok:
            problems.append(("implication chain", p))
            break
        if p.dim == 2 and f.canonical != f.reflexive:
            problems.append(("planar canonical/reflexive equivalence", p))
            break

    rng = random.Random(2024)
    gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((-1, 0), (0, 1))]
    fixtures = [plane_polygon(), ruled_polygon(0), ruled_polygon(1), ruled_polygon(2)]
    for p in fixtures:
        nf = normal_form(p)
        for _ in range(20):
            m = ((1, 0), (0, 1))
            for _ in range(6):
                m = mat_mul(m, rng.choice(gens))
            moved = hull(UnimodularMap(m).apply_all(p.vertices))
            if normal_form(moved) != nf:
                problems.append(("normal form orbit", p))
                break

    quad1 = from_polytope(ruled_polygon(1))
    if len(reductions(quad1)) != 1:
        problems.append(("reduction count", quad1))
    tri = from_polytope(plane_polygon())
    if reductions(tri) != ():
        problems.append(("minimal triangle", tri))
    if len(mori_fiber_structures(from_polytope(ruled_polygon(0)))) != 2:
        problems.append(("two rulings", None))
    if len(mori_fiber_structures(from_polytope(ruled_polygon(2)))) != 1:
        problems.append(("unique ruling", None))

    for p in refl[:80]:
        for fs in fiber_structures(from_polytope(p)):
            ok, _ = is_pgs(fs.base.points, fs.base.dim)
            if not ok:
                problems.append(("base is a generating set", p))
                break

    _report(6, not problems, f"property suites: {problems or 'all invariants hold'}")


def test_criterion_7_reflexive_class_count():
    classes = enumerate_fano(3, "reflexive")
    ok = len(classes) == 16
    _report(7, ok, f"reflexive polygons in box 3 fall into {len(classes)} classes (frozen: 16)")

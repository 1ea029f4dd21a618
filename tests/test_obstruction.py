from fanoweb.genset import fiber_structure_for
from fanoweb.links import validate_sequence
from fanoweb.obstruction import (
    GENERATORS,
    gen_set,
    impure_sequence,
    points,
    pure_sequence,
    run_suite,
)
from fanoweb.polytopes import in_hull
from fanoweb.web import fano_purity_report


def test_generator_coordinates():
    assert GENERATORS[7] == (-2, 0, -1)
    assert GENERATORS[4] == (-1, 0, 0)
    assert points("14") == ((-1, 0, 0), (1, 0, 0))


def test_impure_sequence_validates_with_kinds():
    seq = impure_sequence()
    assert tuple(s.kind for s in seq.steps) == ("I_m", "II_ni")
    assert validate_sequence(seq).ok


def test_pure_sequence_validates_with_kinds():
    seq = pure_sequence()
    assert tuple(s.kind for s in seq.steps) == ("II_ni", "I_m")
    assert validate_sequence(seq).ok


def test_purity_flags():
    assert set(fano_purity_report(impure_sequence())) == {
        points("12357"),
        points("123567"),
    }
    assert fano_purity_report(pure_sequence()) == ()


def test_membership_facts():
    five = points("12357")
    assert in_hull(GENERATORS[4], five)
    assert not in_hull(GENERATORS[6], five)


def test_middle_tower_of_the_impure_route():
    # the middle column carries the planar quadrilateral as its fiber
    fs = fiber_structure_for(gen_set("123457"), points("1234"))
    assert fs.irreducible and not fs.mori
    assert fs.base.points == ((-1,), (1,))


def test_run_suite_green():
    rep = run_suite()
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]
    assert len(rep["checks"]) >= 10


def test_pure_sequence_as_certificate_verifies():
    from fanoweb.links import sequence_panels
    from fanoweb.polytopes import hull
    from fanoweb.web import ConnectCertificate, Relation, verify_certificate

    seq = pure_sequence()
    panels, rels = sequence_panels(seq)
    chain = tuple(hull(c.points) for c in panels)
    relations = tuple(
        Relation(rel, witness, ("link", idx)) for rel, witness, idx in rels
    )
    cert = ConnectCertificate(chain, relations, seq, "none")
    rep = verify_certificate(cert)
    assert rep.ok, rep.failures

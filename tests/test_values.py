"""Value semantics of fanoweb's immutable record types: construction by
position and keyword, the normalisation and checks done on construction,
equality and hash by value, inequality across types, read-only fields and a
repr that names the type."""

import copy
import pickle

import pytest

from fanoweb.genset import FiberStructure, PrimGenSet, ReductionResult, fiber_structure_for
from fanoweb.jsonio import link_from_json, link_to_json
from fanoweb.lattice import QuotientProjection, UnimodularMap
from fanoweb.links import (
    Constituent,
    ElementaryLink,
    LinkReport,
    LinkSequence,
    SequenceReport,
    _step_class_failures,
    blowdown_link,
    inverse,
    step_record,
    validate_link,
)
from fanoweb.polytopes import CLASS_NAMES, ClassFlags, MavlyutovDual, hull
from fanoweb.web import ConnectCertificate, MmpReduction, Relation, VerifyReport

TRI = hull([(1, 0), (0, 1), (-1, -1)])
SQUARE = hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
SQUARE_PGS = PrimGenSet(2, SQUARE.vertices)
HORIZONTAL = ((-1, 0), (1, 0))
VERTICAL = ((0, -1), (0, 1))
LINK = blowdown_link(1)
FS = fiber_structure_for(SQUARE_PGS, HORIZONTAL)
FS_VERTICAL = fiber_structure_for(SQUARE_PGS, VERTICAL)


def _fields(link):
    return (link.kind, link.left, link.middle, link.right, link.mode)


# type -> (field names in constructor order, the fields of one value, those
# of a different value of the same type)
CASES = {
    FiberStructure: (
        ("parent", "fiber", "span_basis", "projection", "base", "irreducible", "mori"),
        (FS.parent, FS.fiber, FS.span_basis, FS.projection, FS.base, FS.irreducible, FS.mori),
        (FS.parent, FS.fiber, FS.span_basis, FS.projection, FS.base, FS.irreducible, not FS.mori),
    ),
    ReductionResult: (
        ("valid", "polytope", "removed", "reason"),
        (True, TRI, (1, 1), "ok"),
        (False, None, (1, 1), "remaining points do not span the space"),
    ),
    UnimodularMap: (("matrix",), (((0, -1), (1, 0)),), (((1, 0), (0, 1)),)),
    QuotientProjection: (
        ("source_dim", "fiber_basis", "matrix"),
        (2, ((1, 0),), ((0, 1),)),
        (2, ((0, 1),), ((1, 0),)),
    ),
    Constituent: (("pgs", "fiber"), (SQUARE_PGS, HORIZONTAL), (SQUARE_PGS, VERTICAL)),
    ElementaryLink: (
        ("kind", "left", "middle", "right", "mode"),
        _fields(LINK),
        _fields(inverse(LINK)),
    ),
    LinkReport: (("ok", "checks"), (True, ()), (False, (("left is Mori", False, "no"),))),
    LinkSequence: (
        ("steps", "class_constraint"),
        ((LINK,), "terminal"),
        ((LINK,), "none"),
    ),
    SequenceReport: (("ok", "failures"), (True, ()), (False, ((0, "joint mismatch"),))),
    MavlyutovDual: (
        ("dim", "points", "polytope"),
        (2, TRI.vertices, TRI),
        (1, ((0, 0), (1, 0)), None),
    ),
    ClassFlags: (
        CLASS_NAMES[1:],
        (True, True, True, True, True, True),
        (True, True, False, True, True, True),
    ),
    MmpReduction: (("polytope", "fiber", "chain"), (SQUARE, HORIZONTAL, ()), (SQUARE, VERTICAL, ())),
    Relation: (
        ("rel", "witness", "origin"),
        ("supset_dot", (1, 1), ("reduction",)),
        ("equal", None, ("link", 0)),
    ),
    ConnectCertificate: (
        ("chain", "relations", "sequence", "class_constraint"),
        ((TRI,), (), LinkSequence((), "terminal"), "terminal"),
        ((SQUARE,), (), LinkSequence((), "canonical"), "canonical"),
    ),
    VerifyReport: (("ok", "failures"), (True, ()), (False, ((0, "chain and relation lengths disagree"),))),
}
TYPES = list(CASES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    names, values, other_values = CASES[cls]
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert tuple(getattr(a, n) for n in names) == values
    assert a == b and not a != b and hash(a) == hash(b)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    c = cls(*other_values)
    assert a != c and c == cls(*other_values)
    # unequal to a plain tuple of the same fields and to every other type
    assert a != values and values != a
    other_type = TYPES[(TYPES.index(cls) + 1) % len(TYPES)]
    assert a != other_type(*CASES[other_type][1])
    with pytest.raises(AttributeError):
        setattr(a, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, names[-1])
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert repr(a).startswith(f"{cls.__name__}({names[0]}=")


def test_reports_with_the_same_fields_differ_by_type():
    reports = [LinkReport(True, ()), SequenceReport(True, ()), VerifyReport(True, ())]
    assert len(set(reports)) == 3
    assert all(r != s for r in reports for s in reports if r is not s)


def test_constructor_defaults():
    link = ElementaryLink(LINK.kind, LINK.left, LINK.middle, LINK.right)
    assert link.mode == "set"
    assert link != LINK  # blowdown_link is a polytope-mode link
    seq = LinkSequence((LINK,))
    assert seq.class_constraint == "none" and len(seq) == 1
    assert len(LinkSequence(())) == 0


def test_construction_normalises_and_checks():
    assert Constituent(SQUARE_PGS, [[1, 0], [-1, 0]]).fiber == HORIZONTAL
    assert Constituent(SQUARE_PGS, [[1, 0], [-1, 0]]) == Constituent(SQUARE_PGS, HORIZONTAL)
    with pytest.raises(ValueError, match="not unimodular"):
        UnimodularMap(((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="unknown link kind"):
        ElementaryLink("V", LINK.left, LINK.middle, LINK.right)
    with pytest.raises(ValueError, match="unknown link mode"):
        ElementaryLink(LINK.kind, LINK.left, LINK.middle, LINK.right, "polygon")
    assert FS_VERTICAL.fiber_dim == 1 and not FS_VERTICAL.trivial
    assert ClassFlags(*CASES[ClassFlags][1]).get("terminal") is True


def test_constituent_stores_its_hash():
    c = Constituent(SQUARE_PGS, [[1, 0], [-1, 0]])
    assert hash(c) == c._hash == hash((SQUARE_PGS, HORIZONTAL))
    assert "_hash" not in repr(c)
    assert c.__reduce__() == (Constituent, (SQUARE_PGS, HORIZONTAL))


def test_elementary_link_is_equal_and_hashed_by_key():
    key = LINK.key()
    assert key == (
        LINK.kind,
        LINK.mode,
        (LINK.left.points, LINK.left.fiber),
        None if LINK.middle is None else (LINK.middle.points, LINK.middle.fiber),
        (LINK.right.points, LINK.right.fiber),
    )
    rebuilt = link_from_json(link_to_json(LINK))
    assert rebuilt is not LINK and rebuilt == LINK and hash(rebuilt) == hash(LINK) == hash(key)
    assert inverse(inverse(LINK)) == LINK and inverse(LINK) != LINK
    assert {LINK, rebuilt, inverse(LINK)} == {LINK, inverse(LINK)}


def test_an_equal_link_built_apart_hits_the_link_memos():
    rebuilt = link_from_json(link_to_json(LINK))
    assert rebuilt is not LINK and rebuilt == LINK
    first = (validate_link(LINK), step_record(LINK, "terminal"), _step_class_failures(LINK, "terminal"))
    before = step_record.cache_info()
    again = (validate_link(rebuilt), step_record(rebuilt, "terminal"), _step_class_failures(rebuilt, "terminal"))
    after = step_record.cache_info()
    assert again == first and again[0].ok
    assert (after.hits - before.hits, after.misses) == (1, before.misses)

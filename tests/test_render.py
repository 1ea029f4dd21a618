import xml.etree.ElementTree as ET

import pytest

from fanoweb.genset import PrimGenSet
from fanoweb.links import (
    Constituent,
    ElementaryLink,
    LinkSequence,
    elementary_transform,
    plane_polygon,
    sequence_from_steps,
)
from fanoweb.polytopes import hull
from fanoweb.render import render_svg
from fanoweb.web import GEN_S, ConnectCertificate, Relation, connect, verify_certificate


def _cremona_certificate():
    tri = plane_polygon()
    return connect(tri, hull(GEN_S.apply_all(tri.vertices)), "terminal")


def test_render_byte_identical():
    cert = _cremona_certificate()
    a = render_svg(cert)
    b = render_svg(cert)
    assert a == b
    assert a.startswith("<?xml")


def test_render_is_valid_xml_with_panels():
    cert = _cremona_certificate()
    svg = render_svg(cert, cell_size=20)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    polygons = root.findall(f"{ns}polygon")
    assert len(polygons) == len(cert.chain) == 8
    texts = [t.text for t in root.findall(f"{ns}text")]
    mfp_positions = [i + 1 for i, (_, f, m, _) in enumerate(_panels(cert)) if m]
    assert texts.count("Mfp") == 5
    assert mfp_positions == [1, 3, 5, 7, 8]


def _panels(cert):
    from fanoweb.render import _panel_data

    return _panel_data(cert)


def test_render_gray_overlays():
    cert = _cremona_certificate()
    svg = render_svg(cert)
    # whole-set fibers are filled panels (1, 2, and the final triangle);
    # the five segment fibers are thick gray lines
    assert svg.count('fill="#c0c0c0"') == 3
    assert svg.count('stroke="#909090"') == 5


def test_render_plain_sequence():
    seq = sequence_from_steps([elementary_transform(0)], "terminal")
    svg = render_svg(seq)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polygon")) == 3


def test_cell_size_scales_output():
    seq = sequence_from_steps([elementary_transform(0)], "terminal")
    small = render_svg(seq, cell_size=10)
    large = render_svg(seq, cell_size=40)
    assert small != large
    assert ET.fromstring(small).get("width") < ET.fromstring(large).get("width")


@pytest.mark.parametrize("cell_size", [0, -5, 2.7, 24.0, True, "24", None])
def test_cell_size_must_be_a_positive_int(cell_size):
    seq = sequence_from_steps([elementary_transform(0)], "terminal")
    with pytest.raises(ValueError, match="cell size"):
        render_svg(seq, cell_size)
    assert render_svg(seq, 1).startswith("<?xml")


def _with_first_left(cert, left):
    """cert with the left column of its first link replaced."""
    first, *rest = cert.sequence.steps
    step = ElementaryLink(first.kind, left, first.middle, first.right, first.mode)
    seq = LinkSequence((step, *rest), cert.sequence.class_constraint)
    return ConnectCertificate(cert.chain, cert.relations, seq, cert.class_constraint)


def test_render_refuses_a_fiber_that_is_not_planar():
    # a one-dimensional column in a planar chain: its fiber has no place on
    # the page, and the verifier refuses the certificate too
    line = Constituent(PrimGenSet(1, [(1,), (-1,)]), [(1,), (-1,)])
    cert = _with_first_left(_cremona_certificate(), line)
    with pytest.raises(ValueError, match="two-dimensional chains only"):
        render_svg(cert)
    with pytest.raises(ValueError):
        verify_certificate(cert)


def test_render_finds_link_relations_by_the_verifiers_rule():
    # an empty origin claims no link: the verifier reports it, and the
    # panels start at the first relation that does claim one
    cert = _cremona_certificate()
    first, *rest = cert.relations
    bad = ConnectCertificate(
        cert.chain, (Relation(first.rel, first.witness, ()), *rest), cert.sequence, cert.class_constraint
    )
    assert not verify_certificate(bad).ok
    assert [f for _, f, _, _ in _panels(bad)][1:] == [f for _, f, _, _ in _panels(cert)][:-1]
    assert render_svg(bad).startswith("<?xml")

"""Deterministic SVG diagrams of link sequences and certificates.

One panel per chain entry: the polygon outline on a lattice-dot background,
the fiber drawn as a thick gray segment (one-dimensional fiber) or a gray
fill (fiber equal to the whole set), an "Mfp" caption under Mori panels,
and the relation glyph between panels.  Output is a pure function of the
input: integer-only geometry at a fixed scale, so identical inputs give
byte-identical SVG.
"""

from __future__ import annotations

from .lattice import matrix_rank
from .links import LinkSequence, _fs_or_none, sequence_panels
from .polytopes import hull, lattice_points
from .web import ConnectCertificate, _is_link

_REL_GLYPH = {"subset_dot": "⊂·", "supset_dot": "⊃·", "equal": "="}


def _panel_data(obj):
    """Normalize input to (polytope, fiber or None, mori flag, relation)."""
    if isinstance(obj, ConnectCertificate):
        seq = obj.sequence
        chain = obj.chain
        rels = [r.rel for r in obj.relations]
        fibers = {}
        moris = {}
        if seq.steps:
            panels, _ = sequence_panels(seq)
            start = next((i for i, r in enumerate(obj.relations) if _is_link(r)), None)
            if start is not None:
                for j, c in enumerate(panels):
                    fibers[start + j] = c.fiber
                    moris[start + j] = _is_mori(c)
        out = []
        for i, p in enumerate(chain):
            rel = rels[i] if i < len(rels) else None
            out.append((p, fibers.get(i), moris.get(i, False), rel))
        return out
    if isinstance(obj, LinkSequence):
        panels, rels = sequence_panels(obj)
        out = []
        for i, c in enumerate(panels):
            rel = rels[i][0] if i < len(rels) else None
            out.append((hull(c.points), c.fiber, _is_mori(c), rel))
        return out
    raise TypeError("render expects a link sequence or a certificate")


def _is_mori(c):
    fs, _ = _fs_or_none(c)
    return fs is not None and fs.mori


def render_svg(obj, cell_size=24):
    """Render to an SVG 1.1 string (two-dimensional data only).

    cell_size is the lattice spacing in pixels: a positive int (True is not).
    """
    if type(cell_size) is not int or cell_size < 1:
        raise ValueError(f"cell size must be a positive int, got {cell_size!r}")
    panels = _panel_data(obj)
    if not panels:
        raise ValueError("nothing to render")
    if any(p.dim != 2 or any(len(q) != 2 for q in fiber or ()) for p, fiber, _, _ in panels):
        raise ValueError("rendering supports two-dimensional chains only")
    cell = cell_size
    reach = 1
    for p, _, _, _ in panels:
        for v in p.vertices:
            reach = max(reach, abs(v[0]), abs(v[1]))
    half = reach * cell + cell  # panel half-width with one cell of padding
    side = 2 * half
    gap = 2 * cell
    caption = cell
    width = len(panels) * side + (len(panels) - 1) * gap + 2 * cell
    height = side + caption + 2 * cell
    parts = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    x0 = cell
    y0 = cell

    def spot(panel_index, v):
        # +y points up, so the vertical axis is flipped
        cx = x0 + panel_index * (side + gap) + half + v[0] * cell
        cy = y0 + half - v[1] * cell
        return cx, cy

    for i, (poly, fiber, mori, rel) in enumerate(panels):
        pts = " ".join("%d,%d" % spot(i, v) for v in poly.vertices)
        full_fiber = fiber is not None and matrix_rank(fiber) == 2
        if full_fiber:
            parts.append(f'<polygon points="{pts}" fill="#c0c0c0" stroke="#000000" stroke-width="2"/>')
        else:
            parts.append(f'<polygon points="{pts}" fill="none" stroke="#000000" stroke-width="2"/>')
            if fiber is not None and len(fiber) == 2:
                (ax, ay), (bx, by) = spot(i, fiber[0]), spot(i, fiber[1])
                parts.append(
                    f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                    f'stroke="#909090" stroke-width="5"/>'
                )
        for q in lattice_points(poly):
            cx, cy = spot(i, q)
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#000000"/>')
        if mori:
            cx = x0 + i * (side + gap) + half
            cy = y0 + side + caption // 2
            parts.append(
                f'<text x="{cx}" y="{cy}" font-family="monospace" font-size="{cell // 2 + 4}" '
                f'text-anchor="middle" fill="#000000">Mfp</text>'
            )
        if rel is not None and i + 1 < len(panels):
            cx = x0 + i * (side + gap) + side + gap // 2
            cy = y0 + half
            glyph = _REL_GLYPH.get(rel, "?")
            parts.append(
                f'<text x="{cx}" y="{cy}" font-family="monospace" font-size="{cell // 2 + 6}" '
                f'text-anchor="middle" fill="#000000">{glyph}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

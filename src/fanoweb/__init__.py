"""fanoweb: exact combinatorics of Fano lattice polytopes and their link webs.

Everything is integer- or rational-exact.  The package covers lattice
linear algebra (Hermite forms, saturated spans, quotient
projections), convex hulls with facet data in dimensions two and three,
polar and lattice-point duals with the classification predicates,
primitive generating sets with reductions and fiber structures, the
elementary-link grammar with validation and enumeration, and a
connectivity engine that produces verifiable certificates joining
reflexive or terminal polygons.
"""

from .genset import (
    FiberStructure,
    InvalidFiberStructure,
    PrimGenSet,
    fiber_structure_for,
    fiber_structures,
    from_polytope,
    is_pgs,
    mori_fiber_structures,
    polytope_reduction,
    reductions,
)
from .lattice import (
    QuotientProjection,
    UnimodularMap,
    pibar,
    primitivize,
    quotient_projection,
    saturate_span,
)
from .links import (
    Constituent,
    ElementaryLink,
    LinkSequence,
    blowdown_link,
    conjugate,
    elementary_transform,
    enumerate_links,
    inverse,
    ruling_swap,
    sequence_from_steps,
    validate_link,
    validate_sequence,
)
from .polytopes import (
    ClassFlags,
    DegenerateHullError,
    Polytope,
    classify,
    hull,
    interior_lattice_points,
    lattice_points,
    mavlyutov_dual,
    polar_dual,
    primitive_points,
)
from .render import render_svg
from .web import (
    CertificateVerificationError,
    ConnectCertificate,
    NoMoriFiberStructureError,
    bfs_connect,
    connect,
    enumerate_class_polygons,
    enumerate_fano,
    fano_purity_report,
    mmp_reduce,
    to_standard_form,
    verify_certificate,
)

__version__ = "0.1.0"

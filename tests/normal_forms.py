"""The tests' normal form of a lattice polytope.

No fanoweb module computes one: the package names the reflexive classes
from a literal table (web._CLASS_TABLE), and the tests pin that table,
the enumeration counts and the acceptance criteria with this function.
"""

from itertools import permutations

from fanoweb.lattice import mat_det, mat_vec, row_hermite
from fanoweb.polytopes import hull


def normal_form(p):
    """Canonical representative of the GL(d,Z)-orbit of p.

    Over all ordered d-subsets of vertices with nonzero determinant, map
    the vertices by the unique unimodular u putting the subset matrix in
    Hermite form (row_hermite) and keep the hull whose vertex tuple is
    least.  The result is constant on unimodular orbits.
    """
    best = None
    for cols in permutations(p.vertices, p.dim):
        m = tuple(zip(*cols))
        if mat_det(m):
            image = hull([mat_vec(row_hermite(m)[0], v) for v in p.vertices])
            if best is None or image.vertices < best.vertices:
                best = image
    if best is None:
        raise ValueError("polytope has no spanning vertex subset")
    return best

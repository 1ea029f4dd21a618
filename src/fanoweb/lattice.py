"""Exact integer linear algebra over Z^d.

Vectors are tuples of Python ints, matrices are tuples of row tuples.
Everything runs on arbitrary-precision integers, so no overflow is possible
anywhere downstream.  The workhorse is the row Hermite normal form: on the
matrix whose columns are some vectors, its transform spans the integer
vectors orthogonal to them, which gives ranks, saturated spans, quotient
projections with free cokernel and deterministic (HNF-normalized) bases;
back-substitution on the Hermite form of a basis gives integer coordinates
in it.  In the plane, saturated spans, span tests against one vector and
the quotient projection along a line have closed forms (determinants and a
gcd).
"""

from __future__ import annotations

from math import gcd

_set = object.__setattr__


class _Frozen:
    """Base of the immutable value classes.  A subclass names its fields in
    __slots__ in constructor order (a leading underscore marks a derived
    slot) and sets them in __init__ through _set.  Fields compare and hash
    as one tuple, equal only within one type; assigning to or deleting a
    field afterwards raises AttributeError."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, n) for n in self.__slots__ if n[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def bezout(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g (extended Euclid)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def primitivize(v):
    """Return (w, k) with w primitive and v == k*w, k >= 1.

    Raises ValueError on the zero vector, which generates no ray.
    """
    k = vec_gcd(v)
    if k == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // k for x in v), k


def is_primitive(v):
    return vec_gcd(v) == 1


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    if len(a) == 2 == len(b) == len(a[0]) == len(b[0]):  # the planar case, in closed form
        (p, q), (r, s) = a
        (w, x), (y, z) = b
        return ((p * w + q * y, p * x + q * z), (r * w + s * y, r * x + s * z))
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_det(m):
    d = len(m)
    if d == 1:
        return m[0][0]
    if d == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if d == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise ValueError("determinants beyond 3x3 are not needed here")


def mat_inverse_unimodular(m):
    """Inverse of an integer matrix with determinant +-1."""
    d = len(m)
    det = mat_det(m)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    if d == 2:
        a, b = m[0]
        c, e = m[1]
        return (
            (e * det, -b * det),
            (-c * det, a * det),
        )
    # u * m is the Hermite form of a unimodular matrix, the identity
    return row_hermite(m)[0]


def row_hermite(mat):
    """Row-style Hermite normal form.

    Returns (u, h) with u unimodular and h == u * mat, where h is in row
    echelon form with positive pivots and the entries above each pivot
    reduced into [0, pivot).  For a nonsingular square input this form is
    unique, which is what makes it usable as a canonical representative of
    the left GL(d,Z)-orbit.
    """
    rows = [list(r) for r in mat]
    n = len(rows)
    m = len(rows[0]) if n else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def addrow(i, j, q):
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        u[i], u[j] = u[j], u[i]

    def negate(i):
        rows[i] = [-a for a in rows[i]]
        u[i] = [-a for a in u[i]]

    pivot = 0
    for col in range(m):
        if pivot >= n:
            break
        while True:
            nz = [i for i in range(pivot, n) if rows[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(rows[i][col]))
            if best != pivot:
                swap(best, pivot)
            p = rows[pivot][col]
            done = True
            for i in range(pivot + 1, n):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    addrow(i, pivot, q)
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rows[pivot][col] == 0:
            continue
        if rows[pivot][col] < 0:
            negate(pivot)
        p = rows[pivot][col]
        for i in range(pivot):
            q = rows[i][col] // p
            if q:
                addrow(i, pivot, q)
        pivot += 1
    return tuple(tuple(r) for r in u), tuple(tuple(r) for r in rows)


def _hermite_of_columns(vectors, d):
    """(u, h, rank) for the row Hermite form h == u * a of the d x k matrix a
    whose columns are the vectors.  Rows rank.. of u are a basis of the
    integer vectors orthogonal to every input vector."""
    u, h = row_hermite(tuple(tuple(v[i] for v in vectors) for i in range(d)))
    return u, h, sum(1 for row in h if any(row))


def saturate_span(vectors):
    """Basis of the saturated sublattice N ∩ span_R(vectors).

    The result is normalized by Hermite normal form, so it is deterministic.
    Raises ValueError if every input vector is zero.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise ValueError("saturate_span needs at least one vector")
    d = len(vecs[0])
    if d == 2 and any(map(any, vecs)):
        # closed form in the plane: the identity for rank 2, else the
        # primitive vector of the line with its first nonzero entry positive
        v = next(w for w in vecs if any(w))
        if any(v[0] * w[1] != v[1] * w[0] for w in vecs):
            return ((1, 0), (0, 1))
        p, _ = primitivize(v)
        return (p if p > (0, 0) else (-p[0], -p[1]),)
    u, _, rank = _hermite_of_columns(vecs, d)
    if rank == 0:
        raise ValueError("cannot saturate the span of zero vectors")
    # the saturated span is the lattice orthogonal to the orthogonal lattice
    w, _, _ = _hermite_of_columns(u[rank:], d)
    return row_hermite(w[d - rank:])[1]


class UnimodularMap(_Frozen):
    """An element of GL(d,Z) acting on column vectors."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        if mat_det(matrix) not in (1, -1):
            raise ValueError("matrix is not unimodular")
        _set(self, "matrix", matrix)

    @property
    def dim(self):
        return len(self.matrix)

    def apply(self, v):
        """g(v); ValueError when v's length is not the map's dimension."""
        if len(v) != len(self.matrix):
            raise ValueError(f"a map of dimension {self.dim} cannot move {v!r}")
        return mat_vec(self.matrix, v)

    def apply_all(self, vs):
        """g(v) for each v, in order; ValueError as apply.  In the plane,
        unpacking each vector into two entries is the length check."""
        if len(self.matrix) != 2:
            return tuple(map(self.apply, vs))
        (a, b), (c, d) = self.matrix
        return tuple((a * x + b * y, c * x + d * y) for x, y in vs)

    def inverse(self):
        return UnimodularMap(mat_inverse_unimodular(self.matrix))

    def compose(self, other):
        """self after other, as maps."""
        return UnimodularMap(mat_mul(self.matrix, other.matrix))

    @staticmethod
    def identity(d):
        return UnimodularMap(mat_identity(d))


class QuotientProjection(_Frozen):
    """Projection N -> N_b with kernel exactly the saturated fiber lattice.

    The matrix has shape (d-k) x d and is normalized by row Hermite form so
    two calls with the same fiber basis produce identical output.
    """

    __slots__ = ("source_dim", "fiber_basis", "matrix")

    def __init__(self, source_dim, fiber_basis, matrix):
        _set(self, "source_dim", source_dim)
        _set(self, "fiber_basis", fiber_basis)
        _set(self, "matrix", matrix)

    def apply(self, v):
        return tuple(dot(row, v) for row in self.matrix)


def quotient_projection(fiber_basis, dim):
    """Build the quotient projection for a saturated fiber sublattice.

    fiber_basis must be a basis (independent rows) of a saturated sublattice
    of Z^dim; otherwise ValueError is raised.  The rows kill the basis by
    construction: (-f1, f0) in the plane, else the Hermite form of rows k..
    of the transform, orthogonal to the basis as rows k.. of h are zero.
    """
    basis = tuple(tuple(b) for b in fiber_basis)
    k = len(basis)
    if k == 0:
        raise ValueError("empty fiber basis")
    if any(len(b) != dim for b in basis):
        raise ValueError("fiber basis vectors must have length dim")
    if dim == 2 and k == 1:
        # a line in the plane: its orthogonal row (-f1, f0), first nonzero
        # entry positive, is the Hermite route's answer
        f0, f1 = basis[0]
        if not (f0 or f1):
            raise ValueError("fiber basis is not linearly independent")
        if gcd(f0, f1) != 1:
            raise ValueError("fiber basis does not span a saturated sublattice")
        row = (-f1, f0) if (-f1, f0) > (0, 0) else (f1, -f0)
        return QuotientProjection(dim, basis, (row,))
    u, h, rank = _hermite_of_columns(basis, dim)
    if rank != k:
        raise ValueError("fiber basis is not linearly independent")
    if h[:k] != mat_identity(k):
        raise ValueError("fiber basis does not span a saturated sublattice")
    if k == dim:
        return QuotientProjection(dim, basis, ())
    return QuotientProjection(dim, basis, row_hermite(u[k:])[1])


def pibar(pi, v):
    """Primitive generator of the ray through pi(v).

    Raises ValueError when v lies in the fiber lattice (projection zero).
    """
    w = pi.apply(v)
    if not w or all(x == 0 for x in w):
        raise ValueError("vector lies in the fiber lattice; no base ray")
    return primitivize(w)[0]


def matrix_rank(rows):
    """Rank over Q, from the Hermite form of the transpose: its transform is
    d x d for rows of length d, so many rows cost linear time and memory."""
    return _hermite_of_columns(rows, len(rows[0]))[2] if rows else 0


def in_span(v, basis):
    """Exact test for v in span_R(basis)."""
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    if len(v) == 2 and len(basis) == 1:  # a determinant test in the plane
        b = basis[0]
        return any(b) and v[0] * b[1] == v[1] * b[0]
    return matrix_rank(basis) == matrix_rank(list(basis) + [v])


def coordinates_in_basis(v, basis):
    """Integer coordinates c of v with respect to lattice basis rows, so that
    sum_i c_i * basis[i] == v.

    Back-substitution on the row Hermite form h == u * basis: solve
    y * h == v over the pivot columns with floor division, check every
    column (a remainder shows there), then c = y * u.  Returns None when v
    is not an integer combination of the basis.
    """
    if basis == mat_identity(len(v)):  # the coordinates are the point itself
        return tuple(v)
    if len(basis) == 1:  # one exact division on the first nonzero entry
        c = next((y // x for x, y in zip(basis[0], v) if x), 0)
        return (c,) if all(c * x == y for x, y in zip(basis[0], v)) else None
    u, h = row_hermite(basis)
    y = []
    for row in h:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:  # the zero rows of a dependent basis come last
            break
        y.append((v[col] - sum(a * r[col] for a, r in zip(y, h))) // row[col])
    if any(dot(y, column) != b for column, b in zip(zip(*h), v)):
        return None
    return tuple(dot(y, column) for column in zip(*u))

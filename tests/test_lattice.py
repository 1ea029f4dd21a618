import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoweb.lattice import (
    UnimodularMap,
    _hermite_of_columns,
    bezout,
    coordinates_in_basis,
    dot,
    in_span,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    mat_vec,
    matrix_rank,
    pibar,
    primitivize,
    quotient_projection,
    row_hermite,
    saturate_span,
)


def test_primitivize_basic():
    assert primitivize((4, -6)) == ((2, -3), 2)
    assert primitivize((-2, 0, -1)) == ((-2, 0, -1), 1)
    assert primitivize((0, 7)) == ((0, 1), 7)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
@example(a=0, b=0)
@example(a=0, b=-7)
@example(a=-75025, b=46368)
def test_bezout_pair(a, b):
    g, x, y = bezout(a, b)
    assert g == gcd(a, b) and x * a + y * b == g


def test_primitivize_zero_vector_errors():
    with pytest.raises(ValueError):
        primitivize((0, 0))


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_primitivize_scaling_invariance(k):
    v = (6, -9)
    w, _ = primitivize(v)
    wk, kk = primitivize(tuple(k * x for x in v))
    assert wk == w
    assert kk == 3 * k


def test_row_hermite_reconstructs_input():
    m = ((4, 7), (2, 3))
    u, h = row_hermite(m)
    assert mat_mul(u, m) == h
    assert mat_det(u) in (1, -1)
    # unique echelon shape: positive pivots, reduced above
    assert h[0][0] > 0 and h[1][0] == 0 and h[1][1] > 0
    assert 0 <= h[0][1] < h[1][1] or h[0][1] == 0 or h[1][1] == 1


def test_saturate_span_examples():
    # index-2 sublattice saturates to the coordinate axis
    assert saturate_span([(2, 0)]) == ((1, 0),)
    # already saturated
    assert saturate_span([(1, 0, 0)]) == ((1, 0, 0),)
    # rank-2 span in Z^2 saturates to the full lattice
    assert saturate_span([(1, 1), (-1, 1)]) == ((1, 0), (0, 1))


def test_saturate_span_zero_input_errors():
    with pytest.raises(ValueError):
        saturate_span([(0, 0), (0, 0)])


def test_quotient_projection_coordinate_fiber():
    pi = quotient_projection([(1, 0)], 2)
    assert pi.matrix == ((0, 1),)
    assert pi.apply((5, 7)) == (7,)


def test_quotient_projection_3d_fiber():
    pi = quotient_projection([(1, 0, 0)], 3)
    assert pi.matrix == ((0, 1, 0), (0, 0, 1))
    assert pi.apply((-1, 0, -1)) == (0, -1)


def test_quotient_projection_diagonal_fiber():
    pi = quotient_projection([(1, 1)], 2)
    # deterministic HNF normalization; kernel is the diagonal
    assert pi.matrix == ((1, -1),)
    assert pi.apply((1, 1)) == (0,)
    assert pi.apply((0, 1)) == (-1,)


def test_quotient_projection_rejects_non_saturated():
    with pytest.raises(ValueError):
        quotient_projection([(2, 0)], 2)
    with pytest.raises(ValueError):
        quotient_projection([(1, 0), (2, 0)], 2)


def test_quotient_projection_kernel_is_fiber():
    pi = quotient_projection([(1, 2, 0), (0, 0, 1)], 3)
    # anything in the span maps to zero; anything outside does not
    assert pi.apply((1, 2, 0)) == (0,)
    assert pi.apply((2, 4, 5)) == (0,)
    assert pi.apply((0, 1, 0)) != (0,)
    # the projection is onto Z^1: its maximal minors have gcd 1
    assert _is_saturated(pi.matrix)


def test_pibar_examples():
    y = quotient_projection([(1, 0)], 2)
    for m in range(6):
        assert pibar(y, (-m, -1)) == (-1,)
    assert pibar(y, (0, 2)) == (1,)
    with pytest.raises(ValueError):
        pibar(y, (3, 0))
    yz = quotient_projection([(1, 0, 0)], 3)
    assert pibar(yz, (-1, 0, -1)) == (0, -1)


def _random_unimodular(rng, d):
    m = mat_identity(d)
    gens = []
    for i in range(d):
        for j in range(d):
            if i != j:
                for q in (1, -1):
                    g = [list(r) for r in mat_identity(d)]
                    g[i][j] = q
                    gens.append(tuple(tuple(r) for r in g))
    neg = [list(r) for r in mat_identity(d)]
    neg[0][0] = -1
    gens.append(tuple(tuple(r) for r in neg))
    for _ in range(8):
        m = mat_mul(m, rng.choice(gens))
    return m


def test_unimodular_preserves_primitivity_factor():
    rng = random.Random(20240817)
    for d in (2, 3):
        for _ in range(40):
            g = UnimodularMap(_random_unimodular(rng, d))
            v = tuple(rng.randint(-9, 9) for _ in range(d))
            if all(x == 0 for x in v):
                continue
            assert primitivize(g.apply(v))[1] == primitivize(v)[1]


def test_unimodular_map_validation_and_inverse():
    g = UnimodularMap(((0, -1), (1, 0)))
    assert g.inverse().compose(g).matrix == mat_identity(2)
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)))


def test_in_span_and_coordinates():
    basis = ((1, 0, 0), (0, 1, 0))
    assert in_span((3, -4, 0), basis)
    assert not in_span((0, 0, 1), basis)
    assert coordinates_in_basis((3, -4, 0), basis) == (3, -4)
    assert coordinates_in_basis((0, 0, 1), basis) is None
    skew = ((1, 1),)
    assert coordinates_in_basis((3, 3), skew) == (3,)
    assert coordinates_in_basis((1, 2), skew) is None
    # bases that are not in Hermite form, and one of an unsaturated lattice
    assert coordinates_in_basis((3, 2), ((2, 1), (1, 1))) == (1, 1)
    assert coordinates_in_basis((1, 4, 3), ((1, 1, 0), (0, 1, 1))) == (1, 3)
    assert coordinates_in_basis((1, 0), ((2, 0), (0, 1))) is None


def test_coordinates_in_the_identity_basis_are_the_point(monkeypatch):
    from fanoweb import lattice

    monkeypatch.setattr(lattice, "row_hermite", lambda basis: pytest.fail("Hermite form computed"))
    for v in ((3, -4), (0, 0), (1, 2, -7)):
        assert coordinates_in_basis(v, mat_identity(len(v))) == v


def test_projection_from_saturated_span_output():
    basis = saturate_span([(2, 2)])
    assert basis == ((1, 1),)
    pi = quotient_projection(basis, 2)
    assert all(all(x == 0 for x in pi.apply(b)) for b in basis)


def _reference_rank(rows):
    # Gauss-Jordan elimination over Fraction
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        work[rank] = [x / work[rank][col] for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def _deficient_matrices(draw):
    """Integer matrices of 2 to 4 rows and columns whose later rows are
    often integer combinations of earlier ones."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = []
    for _ in range(n):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)])
        else:
            rows.append(draw(st.lists(entry, min_size=m, max_size=m)))
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rows=_deficient_matrices())
# rank 3: a fraction-free elimination that skipped scaling the second row
# (zero below the first pivot) floored a later division and counted 4
@example(rows=[[-4, -2, 0, 0], [0, 7, 9, -1], [-9, 7, 0, 8], [-15, 27, 0, 24]])
def test_rank_matches_fraction_reference(rows):
    assert matrix_rank(rows) == _reference_rank(rows)


@st.composite
def _vector_lists(draw):
    """(d, vectors): one to three vectors in Z^2 or Z^3 with small entries,
    later ones often integer combinations or multiples of earlier ones."""
    d = draw(st.sampled_from((2, 3)))
    entry = st.integers(-3, 3)
    vecs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("free", "combination", "multiple"))) if vecs else "free"
        if kind == "free":
            v = draw(st.lists(entry, min_size=d, max_size=d))
        elif kind == "combination":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(vecs), max_size=len(vecs)))
            v = [sum(c * w[i] for c, w in zip(coeffs, vecs)) for i in range(d)]
        else:
            k = draw(st.integers(-3, 3))
            v = [k * x for x in draw(st.sampled_from(vecs))]
        vecs.append(tuple(v))
    return d, vecs


def _box(d):
    return list(product(range(-2, 3), repeat=d))


def _is_saturated(basis):
    """Independent rows span a saturated lattice exactly when their maximal
    minors have gcd 1."""
    k, d = len(basis), len(basis[0])
    g = 0
    for cols in combinations(range(d), k):
        g = gcd(g, mat_det(tuple(tuple(b[c] for c in cols) for b in basis)))
    return g == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_vector_lists())
def test_saturate_span_is_the_hermite_basis_of_the_saturation(case):
    d, vecs = case
    if not any(any(v) for v in vecs):
        with pytest.raises(ValueError):
            saturate_span(vecs)
        return
    basis = saturate_span(vecs)
    assert len(basis) == _reference_rank(vecs)
    assert row_hermite(basis)[1] == basis
    for p in _box(d):
        c = coordinates_in_basis(p, basis)
        assert (c is not None) == in_span(p, vecs)
        if c is not None:
            assert tuple(sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(d)) == p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_vector_lists())
def test_quotient_projection_matches_its_definition(case):
    d, basis = case
    k = len(basis)
    if _reference_rank(basis) != k or not _is_saturated(basis):
        with pytest.raises(ValueError):
            quotient_projection(basis, d)
        return
    pi = quotient_projection(basis, d)
    assert not any(x for b in basis for x in pi.apply(b))
    for p in _box(d):
        assert (not any(pi.apply(p))) == in_span(p, basis)
    if k < d:  # onto Z^(d-k): the maximal minors have gcd 1
        assert _is_saturated(pi.matrix)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=st.sampled_from((1, 2, 3)), seed=st.integers(0, 2**32))
def test_mat_inverse_unimodular_inverts(d, seed):
    m = _random_unimodular(random.Random(seed), d)
    inv = mat_inverse_unimodular(m)
    assert mat_mul(m, inv) == mat_identity(d)
    assert mat_mul(inv, m) == mat_identity(d)
    doubled = (tuple(2 * x for x in m[0]),) + m[1:]
    with pytest.raises(ValueError):
        mat_inverse_unimodular(doubled)


@st.composite
def _plane_vectors(draw):
    """One to three vectors of Z^2: free ones, zero vectors, and multiples
    (often negative) of earlier ones."""
    vecs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("free", "zero", "multiple") if vecs else ("free", "zero")))
        if kind == "free":
            v = tuple(draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        elif kind == "zero":
            v = (0, 0)
        else:
            k = draw(st.integers(-3, 3))
            v = tuple(k * x for x in draw(st.sampled_from(vecs)))
        vecs.append(v)
    return vecs


def _hermite_saturation(vecs):
    """The saturated span by the Hermite route every dimension can take,
    or None for zero vectors."""
    u, _, rank = _hermite_of_columns(vecs, 2)
    if rank == 0:
        return None
    w, _, _ = _hermite_of_columns(u[rank:], 2)
    return row_hermite(w[2 - rank:])[1]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(vecs=_plane_vectors(), v=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
@example(vecs=[(-2, 4), (1, -2)], v=(3, -6))
@example(vecs=[(0, 0), (0, -3)], v=(0, 5))
@example(vecs=[(0, 0)], v=(1, 1))
def test_plane_span_closed_forms_match_the_hermite_route(vecs, v):
    expected = _hermite_saturation(vecs)
    if expected is None:
        with pytest.raises(ValueError):
            saturate_span(vecs)
    else:
        assert saturate_span(vecs) == expected
    for b in vecs:
        by_rank = not any(v) or matrix_rank([b]) == matrix_rank([b, v])
        assert in_span(v, [b]) == by_rank


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.sampled_from((2, 3)),
    entries=st.lists(st.integers(-10**6, 10**6), min_size=12, max_size=12),
)
def test_mat_vec_matches_the_dot_form(d, entries):
    m = tuple(tuple(entries[d * i:d * i + d]) for i in range(d))
    v = tuple(entries[9:9 + d])
    assert mat_vec(m, v) == tuple(dot(row, v) for row in m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.sampled_from((2, 3)),
    entries=st.lists(st.integers(-10**6, 10**6), min_size=18, max_size=18),
)
def test_mat_mul_matches_the_dot_form(d, entries):
    a = tuple(tuple(entries[d * i:d * i + d]) for i in range(d))
    b = tuple(tuple(entries[9 + d * i:9 + d * i + d]) for i in range(d))
    assert mat_mul(a, b) == tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


def _hermite_coordinates(v, basis):
    """Integer coordinates by back-substitution on the row Hermite form,
    the route coordinates_in_basis takes for a basis of several rows."""
    u, h = row_hermite(basis)
    y = []
    for row in h:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            break
        y.append((v[col] - sum(a * r[col] for a, r in zip(y, h))) // row[col])
    if any(dot(y, column) != b for column, b in zip(zip(*h), v)):
        return None
    return tuple(dot(y, column) for column in zip(*u))


@st.composite
def _row_and_vector(draw):
    """A row in Z^2 or Z^3 and an integer multiple of it, negative ones
    included, that is then in most draws moved off the multiples."""
    d = draw(st.sampled_from((2, 3)))
    row = tuple(draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)))
    k = draw(st.integers(-5, 5))
    v = tuple(k * x for x in row)
    if draw(st.booleans()):
        i = draw(st.integers(0, d - 1))
        v = v[:i] + (v[i] + draw(st.integers(1, 3)),) + v[i + 1:]
    return row, v


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_row_and_vector())
@example(case=((2, -4), (3, -6)))
@example(case=((0, -3, 6), (0, 2, -4)))
@example(case=((0, -3), (0, 9)))
@example(case=((0, 0), (0, 0)))
@example(case=((0, 0, 0), (1, 0, 0)))
def test_one_row_coordinates_match_the_hermite_route(case):
    row, v = case
    assert coordinates_in_basis(v, (row,)) == _hermite_coordinates(v, (row,))


def test_a_vector_of_the_wrong_length_is_refused():
    g = UnimodularMap(((0, -1), (1, 0)))
    with pytest.raises(ValueError):
        g.apply((1, 2, 3))  # was (-2, 1), the third entry dropped
    with pytest.raises(ValueError):
        g.apply((1,))
    with pytest.raises(ValueError):
        g.apply_all([(1, 0), (1, 2, 3)])
    with pytest.raises(ValueError):
        g.apply_all([(1, 0), (1,)])
    h = UnimodularMap(mat_identity(3))
    with pytest.raises(ValueError):
        h.apply_all([(1, 0, 0), (1, 0)])
    assert g.apply((1, 2)) == (-2, 1)
    assert g.apply_all([(1, 2), (0, 1)]) == ((-2, 1), (-1, 0))
    assert g.apply_all([]) == ()
    assert h.apply_all([(1, 2, 3)]) == ((1, 2, 3),)


def _hermite_line_projection(f):
    """The quotient projection along the line of f by the Hermite route every
    dimension takes, or the ValueError message it raises."""
    u, h, rank = _hermite_of_columns([f], 2)
    if rank != 1:
        return "fiber basis is not linearly independent"
    if h[:1] != mat_identity(1):
        return "fiber basis does not span a saturated sublattice"
    return row_hermite(u[1:])[1]


def test_planar_line_projection_is_the_hermite_one():
    for f in product(range(-12, 13), repeat=2):
        expected = _hermite_line_projection(f)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                quotient_projection([f], 2)
            continue
        pi = quotient_projection([f], 2)
        assert pi.matrix == expected
        assert pi.fiber_basis == (f,)
        assert pi.apply(f) == (0,)

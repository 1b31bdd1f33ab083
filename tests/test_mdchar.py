import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leibniz_det, nonzero_vectors, small_matrices, unimodular_matrices
from hesslab.exact import ExactError, IntMatrix, IntVector, det, parse_matrix
from hesslab.hessenberg import hessenberg_complexity, is_hessenberg
from hesslab.mdchar import md_characteristic, md_form3

M1 = parse_matrix("0 1 2; 1 0 0; 0 3 5")
FRO = parse_matrix("0 0 1; 1 0 1; 0 1 3")


def test_md_at_e1_equals_complexity():
    assert md_characteristic(M1, IntVector((1, 0, 0))) == 3
    assert md_characteristic(FRO, IntVector((1, 0, 0))) == 1


def test_md_zero_vector_rejected():
    with pytest.raises(ExactError):
        md_characteristic(M1, IntVector((0, 0, 0)))


def test_md_invariant_under_matrix():
    for v in [(1, 0, 0), (2, -1, 3), (0, 0, 1)]:
        w = IntVector(v)
        assert md_characteristic(M1, M1 * w) == md_characteristic(M1, w)


def test_form_reproduces_md():
    f = md_form3(M1)
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 1), (5, 5, -4)]:
        assert abs(f(v)) == md_characteristic(M1, IntVector(v))


def test_form_x3_coefficient_is_complexity():
    assert abs(md_form3(FRO).coeffs[0]) == 1
    assert abs(md_form3(M1).coeffs[0]) == 3


@settings(max_examples=150, deadline=None)
@given(small_matrices(n=3, lo=-6, hi=6), nonzero_vectors(lo=-8, hi=8),
       st.integers(min_value=-5, max_value=5).filter(lambda k: k != 0))
def test_md_homogeneity_degree_n(m, v, k):
    assert md_characteristic(m, v.scale(k)) == \
        abs(k) ** 3 * md_characteristic(m, v)


@settings(max_examples=120, deadline=None)
@given(small_matrices(n=3, lo=-6, hi=6), nonzero_vectors(lo=-8, hi=8),
       unimodular_matrices())
def test_md_equivariance(m, v, u):
    if det(u) not in (1, -1):
        return
    h = u.inverse_unimodular() * m * u
    assert md_characteristic(h, v) == md_characteristic(m, u * v)


@settings(max_examples=100, deadline=None)
@given(small_matrices(n=3, lo=-6, hi=6), nonzero_vectors(lo=-10, hi=10))
def test_form_matches_md_everywhere(m, v):
    assert abs(md_form3(m)(tuple(v))) == md_characteristic(m, v)


@settings(max_examples=150, deadline=None)
@given(small_matrices(n=3, lo=-40, hi=40), nonzero_vectors(lo=-50, hi=50))
def test_form_equals_signed_det(m, v):
    value = md_form3(m)(v)
    w = m * v
    u = m * w
    assert value == det(IntMatrix.from_columns([v, w, u]))
    assert value == leibniz_det([[v[i], w[i], u[i]] for i in range(3)])


@settings(max_examples=100, deadline=None)
@given(small_matrices(n=3, lo=-9, hi=9))
def test_complexity_identity_n3(m):
    rows = [list(r) for r in m.rows]
    rows[2][0] = 0
    rows[1][0] = abs(rows[1][0]) + 1
    rows[2][1] = abs(rows[2][1]) + 1
    h = IntMatrix(rows)
    assert is_hessenberg(h)
    assert hessenberg_complexity(h) == md_characteristic(h, IntVector((1, 0, 0)))


# the ten exponent vectors of the cubic monomials, (i, j, k) with i + j + k
# = 3: the principal lattice of degree 3, on which a cubic form's values
# fix its ten coefficients
_LATTICE3 = [IntVector((i, j, 3 - i - j)) for i in range(4)
             for j in range(4 - i)]


@settings(max_examples=150, deadline=None)
@given(small_matrices(n=3, lo=-10 ** 6, hi=10 ** 6),
       nonzero_vectors(lo=-10 ** 6, hi=10 ** 6))
def test_closed_form_md_form3_matches_md_characteristic(m, v):
    # md_form3 builds its ten coefficients from the columns of M and M^2
    # with the monomial slots precomputed; oracle: the determinant that
    # md_characteristic takes the absolute value of, at the principal
    # lattice, which fixes the form, and at one more vector
    form = md_form3(m)
    for w in _LATTICE3 + [v]:
        value = form(w)
        assert value == det(IntMatrix.from_columns([w, m * w, m * (m * w)]))
        assert abs(value) == md_characteristic(m, w)

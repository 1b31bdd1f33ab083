import random
import re
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leibniz_det, nonzero_vectors, small_matrices, unimodular_matrices
from hesslab.exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    _det_rows,
    char_poly,
    count_real_roots,
    det,
    discriminant,
    factor_small,
    integer_distance,
    integer_volume,
    parse_matrix,
    quartic_real_root_count,
)


def test_det_identity():
    assert det(IntMatrix.identity(3)) == 1


def test_identity_and_scale_match_the_constructor():
    # both skip the constructor's int() pass; the results must not differ
    for n in range(1, 5):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert IntMatrix.identity(n) == IntMatrix(ident)
        assert IntMatrix.identity(n).scale(-7) == \
            IntMatrix([[-7 * x for x in row] for row in ident])
    with pytest.raises(ExactError, match="nonempty"):
        IntMatrix.identity(0)


def test_det_paper_example():
    assert det(parse_matrix("0 1 2; 1 0 0; 0 3 5")) == 1


def test_det_2x2_by_hand():
    assert det(IntMatrix([[1, 2], [3, 4]])) == -2


@settings(max_examples=200, deadline=None)
@given(small_matrices(n=2, lo=-10 ** 12, hi=10 ** 12))
def test_det_2x2_closed_form_matches_bareiss(m):
    # block-diag(m, I_2) is 4x4, so _det_rows takes it through Bareiss
    (a, b), (c, d) = m.rows
    block = [[a, b, 0, 0], [c, d, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert det(m) == _det_rows(block) == leibniz_det(m.rows)


def test_char_poly_identity():
    assert char_poly(IntMatrix.identity(3)) == IntPoly([-1, 3, -3, 1])


def test_char_poly_frobenius_cofactor_oracle():
    # companion of t^3 - n t^2 - m t - 1 at (m, n) = (2, 3)
    m = IntMatrix([[0, 0, 1], [1, 0, 2], [0, 1, 3]])
    assert char_poly(m) == IntPoly([-1, -2, -3, 1])


def test_discriminant_golden_quadratic():
    assert discriminant(IntPoly([-1, -1, 1])) == 5


def test_discriminant_frobenius_at_origin():
    m = IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert discriminant(char_poly(m)) == -27


def test_discriminant_repeated_root():
    # (t-1)^2 (t-2)
    assert discriminant(IntPoly([-2, 5, -4, 1])) == 0


def test_discriminant_degree_range():
    with pytest.raises(ExactError):
        discriminant(IntPoly([1, 1]))


def test_integer_volume_unit_cell():
    basis = [IntVector((1, 0, 0)), IntVector((0, 1, 0)), IntVector((0, 0, 1))]
    assert integer_volume(basis) == 1


def test_integer_volume_rectangle():
    assert integer_volume([IntVector((2, 0)), IntVector((0, 3))]) == 6


def test_integer_volume_full_rank_det():
    assert integer_volume([IntVector((1, 2)), IntVector((3, 4))]) == 2


def test_integer_volume_dependent_rejected():
    with pytest.raises(ExactError):
        integer_volume([IntVector((1, 2)), IntVector((2, 4))])


def test_integer_distance_trivial():
    basis = [IntVector((1, 0, 0)), IntVector((0, 1, 0))]
    assert integer_distance(IntVector((0, 0, 1)), basis) == 1
    assert integer_distance(IntVector((0, 0, 2)), basis) == 2


def test_integer_distance_smith_oracle():
    basis = [IntVector((1, 0, 0)), IntVector((0, 2, 0))]
    v = IntVector((1, 1, 3))
    # index of lattice(basis) inside lattice(basis + v) relative heights:
    # brute count of lattice planes between v and span(basis)
    assert integer_distance(v, basis) == 3


def test_integer_distance_in_span_rejected():
    basis = [IntVector((1, 0, 0)), IntVector((0, 1, 0))]
    with pytest.raises(ExactError):
        integer_distance(IntVector((2, 3, 0)), basis)


def test_factor_small_irreducible_cubic():
    assert len(factor_small(IntPoly([-1, -1, -3, 1]))) == 1


def test_factor_small_quartic_quadratic_split():
    # (t^2 + t + 1)(t^2 + 2t + 1); the second factor splits further
    q = IntPoly([1, 1, 1]) * IntPoly([1, 2, 1])
    fs = factor_small(q)
    assert sorted(str(f) for f in fs) == sorted(
        [str(IntPoly([1, 1, 1])), str(IntPoly([1, 1])), str(IntPoly([1, 1]))])


def test_factor_small_quartic_root_at_one():
    # 4D family at (l, m, n) = (0, 0, 0): t^4 - 2t^3 - 2t^2 + 2t + 1
    p = IntPoly([1, 2, -2, -2, 1])
    fs = factor_small(p)
    assert len(fs) > 1
    assert any(f(1) == 0 for f in fs)


def test_parse_matrix_position_annotated():
    with pytest.raises(ExactError) as ei:
        parse_matrix("1 2; 3 x")
    assert "row 2" in str(ei.value) and "entry 2" in str(ei.value)


@settings(max_examples=120, deadline=None)
@given(small_matrices(), unimodular_matrices())
def test_char_poly_conjugacy_invariant(m, u):
    if det(u) not in (1, -1):
        return
    h = u.inverse_unimodular() * m * u
    assert char_poly(h) == char_poly(m)


_BIG = 10 ** 20


@settings(max_examples=160, deadline=None)
@given(st.one_of(
    st.sampled_from((2, 3, 4)).flatmap(
        lambda n: small_matrices(n=n, lo=-30, hi=30)),
    # entries near 10^20 run the 3x3 closed form on big integers
    small_matrices(n=3, lo=-_BIG - 30, hi=-_BIG + 30),
    small_matrices(n=3, lo=-_BIG, hi=_BIG)))
def test_char_poly_matches_determinant_oracle(m):
    p = char_poly(m)
    n = m.n
    assert p.degree == n and p.monic
    for x in range(-1, n + 1):
        rows = [[(x if i == j else 0) - m[i, j] for j in range(n)]
                for i in range(n)]
        assert p(x) == leibniz_det(rows)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(
    lambda n: st.tuples(small_matrices(n=n, lo=-_BIG, hi=_BIG),
                        small_matrices(n=n, lo=-_BIG, hi=_BIG))))
def test_matrix_kernel_matches_loops(pair):
    # the 3x3 closed forms and the generic code against plain loops
    a, b = pair
    n = a.n
    prod = [[sum(a[i, k] * b[k, j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert (a * b).rows == tuple(map(tuple, prod))
    v = b.column(0)
    assert (a * v).coords == tuple(row[0] for row in prod)
    assert det(a) == leibniz_det(a.rows)
    assert a * a.adjugate() == IntMatrix.identity(n).scale(det(a))
    assert (a + b) - b == a and -(-a) == a and a.transpose().transpose() == a
    for x in [a * b, a * v, a.adjugate(), a + b, a - b, -a, a.row(1)]:
        entries = x.coords if isinstance(x, IntVector) else sum(x.rows, ())
        assert all(type(c) is int for c in entries)


def test_public_constructors_convert_numpy_integers():
    np = pytest.importorskip("numpy")
    rows = np.array([[0, 1, 2], [1, 0, 0], [0, 3, 5]], dtype=np.int64)
    m = IntMatrix(rows)
    v = IntVector(rows[0])
    assert all(type(c) is int for c in sum(m.rows, ()) + v.coords)
    assert m == parse_matrix("0 1 2; 1 0 0; 0 3 5") and v == IntVector((0, 1, 2))
    # products of converted entries stay Python ints, which do not wrap
    big = IntMatrix(rows * 2 ** 40)
    assert (big * big)[2, 2] == 25 * 2 ** 80


@settings(max_examples=100, deadline=None)
@given(small_matrices(n=3, lo=-5, hi=5))
def test_integer_volume_equals_abs_det(m):
    cols = [m.column(j) for j in range(3)]
    d = det(m)
    if d == 0:
        return
    assert integer_volume(cols) == abs(d)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=4).flatmap(unimodular_matrices),
       st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9).filter(bool))
def test_lattice_indices_in_unimodular_frame(u, d1, d2, a, b, k):
    # e1, e2, e3 through a unimodular u: the lattice d1 Z Ue1 + d2 Z (Ue2 +
    # a Ue1) has index d1 d2 in its saturation Z Ue1 + Z Ue2, and k Ue3 +
    # b Ue1 sits |k| lattice planes away from that saturation
    e1, e2, e3 = (u.column(j) for j in range(3))
    assert integer_volume([e1.scale(d1), (e2 + e1.scale(a)).scale(d2)]) == d1 * d2
    assert integer_distance(e3.scale(k) + e1.scale(b), [e1, e2]) == abs(k)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3))
def test_discriminant_zero_iff_repeated_factor(cs):
    p = IntPoly([cs[0], cs[1], cs[2], 1])
    fs = factor_small(p)
    expanded = fs[0]
    for f in fs[1:]:
        expanded = expanded * f
    assert expanded == p
    repeated = len(set(str(f) for f in fs)) < len(fs) or any(
        discriminant(f) == 0 for f in fs if f.degree >= 2)
    assert (discriminant(p) == 0) == repeated


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3))
def test_negative_discriminant_iff_one_real_root(cs):
    p = IntPoly([cs[0], cs[1], cs[2], 1])
    d = discriminant(p)
    if d == 0:
        return
    bound = Fraction(1) + max(abs(c) for c in p.coeffs[:-1])
    real = count_real_roots(p, -bound, bound)
    assert (d < 0) == (real == 1)


_NONZERO = st.integers(min_value=-6, max_value=6).filter(bool)


@st.composite
def _small_polys(draw):
    """Integer polynomials of degree 2..4, non-monic ones included; about a
    third carry a repeated factor (q t - r)^2."""
    d = draw(st.integers(min_value=2, max_value=4))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        q, r = draw(_NONZERO), draw(st.integers(min_value=-4, max_value=4))
        rest = draw(st.lists(st.integers(min_value=-6, max_value=6),
                             min_size=d - 2, max_size=d - 2))
        square = IntPoly([-r, q]) * IntPoly([-r, q])
        return square * IntPoly(rest + [draw(_NONZERO)])
    low = draw(st.lists(st.integers(min_value=-9, max_value=9),
                        min_size=d, max_size=d))
    return IntPoly(low + [draw(_NONZERO)])


@settings(max_examples=300, deadline=None)
@given(_small_polys())
def test_discriminant_matches_sylvester(p):
    # oracle: (-1)^(d(d-1)/2) Res(p, p') / lc, with Res(p, p') the
    # determinant of the Sylvester matrix built here
    d = p.degree
    pc = list(reversed(p.coeffs))
    qc = list(reversed(p.derivative().coeffs))
    size = 2 * d - 1
    rows = [[0] * i + pc + [0] * (size - d - 1 - i) for i in range(d - 1)]
    rows += [[0] * i + qc + [0] * (size - d - i) for i in range(d)]
    res = _det_rows(rows)
    lc = p.coeffs[-1]
    assert res % lc == 0
    assert discriminant(p) == (-1) ** (d * (d - 1) // 2) * res // lc


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
       _NONZERO)
def test_quartic_real_roots_matches_sturm(low, a):
    p = IntPoly(low + [a])
    if discriminant(p) == 0:
        with pytest.raises(ExactError):
            quartic_real_root_count(a, *reversed(low))
        return
    assert quartic_real_root_count(a, *reversed(low)) == count_real_roots(p)


def _ratio(t):
    return Fraction(*t)


_RATIONAL = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                      st.integers(min_value=1, max_value=4))


@settings(max_examples=300, deadline=None)
@given(_NONZERO,
       st.lists(st.tuples(st.integers(min_value=-12, max_value=12),
                          st.integers(min_value=1, max_value=4)),
                max_size=4, unique_by=_ratio),
       st.lists(st.integers(min_value=1, max_value=9), max_size=2, unique=True),
       st.one_of(st.none(), _RATIONAL), st.one_of(st.none(), _RATIONAL))
def test_count_real_roots_factored_oracle(c, linear, quadratic, lo, hi):
    # p = c (q1 t - p1)...(qk t - pk)(t^2 + k1)...: its real roots are the
    # distinct rationals pi/qi, so (lo, hi] holds those between the ends
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    p = IntPoly([c])
    for num, den in linear:
        p = p * IntPoly([-num, den])
    for k in quadratic:
        p = p * IntPoly([k, 0, 1])
    roots = [Fraction(num, den) for num, den in linear]
    want = sum(1 for r in roots
               if (lo is None or lo < r) and (hi is None or r <= hi))
    assert count_real_roots(p, lo, hi) == want
    if p.degree == 4:
        assert quartic_real_root_count(*reversed(p.coeffs)) == len(roots)


def _constructors():
    """Each public constructor of integer data, as a function of one
    entry x placed among integers."""
    from hesslab.gauss2 import Period
    from hesslab.hessenberg import FamilyPoint, HessType

    return {
        "IntVector": lambda x: IntVector([2, x, 1]),
        "IntMatrix": lambda x: IntMatrix([[0, 1], [x, 1]]),
        "IntPoly": lambda x: IntPoly([x, 0, 1]),
        "HessType": lambda x: HessType([[0, x]]),
        "FamilyPoint": lambda x: FamilyPoint(HessType([[0, 1]]), (1, 0), [x]),
        "Period": lambda x: Period([1, x]),
    }


@pytest.mark.parametrize("name", sorted(_constructors()))
def test_constructors_refuse_to_truncate(name):
    # entries are read through operator.index: Python and numpy integers
    # are taken as the integers they are, and a float, a Fraction or a
    # numpy float, which int() truncated, is an ExactError naming it
    np = pytest.importorskip("numpy")
    make = _constructors()[name]
    for good in (3, np.int64(3)):
        assert make(good) == make(3)
        assert all(type(c) is int for c in _flat(astuple(make(good))))
    for bad in (1.9, 3.0, Fraction(7, 2), Fraction(3), np.float64(3.0)):
        with pytest.raises(ExactError, match=re.escape(repr(bad))):
            make(bad)


def _flat(x):
    """The leaves of nested tuples."""
    return [c for y in x for c in _flat(y)] if isinstance(x, tuple) else [x]


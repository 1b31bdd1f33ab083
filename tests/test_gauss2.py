import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import continuant_matrix, random_unimodular
from hesslab.exact import ExactError, IntMatrix, det, parse_matrix
from hesslab.gauss2 import (
    Period,
    Sl2Class,
    classify_sl2,
    periods_equal,
    sail_period,
)


def h25(m):
    # the <2,5>, anchor (1,3) family: [[2, 1+2m], [5, 3+5m]]
    return IntMatrix([[2, 1 + 2 * m], [5, 3 + 5 * m]])


def h01(m):
    # <0,1> family fixed so the determinant is one: [[0,-1],[1,1+m]]
    return IntMatrix([[0, -1], [1, 1 + m]])


def test_period_type():
    p = Period((2, 1, 1, 3))
    assert len(p) == 4
    with pytest.raises(ExactError):
        Period((1, 0))
    with pytest.raises(ExactError):
        Period(())


def test_periods_equal_cyclic():
    assert periods_equal(Period((2, 1, 1, 3)), Period((1, 3, 2, 1)))
    assert not periods_equal(Period((2, 1)), Period((2, 1, 2, 1)))
    assert not periods_equal(Period((2, 1, 1, 3)), Period((2, 1, 3, 1)))


def test_classify_complex_spectrum():
    for tr, rep in [(0, "0 1; -1 0"), (1, "1 1; -1 0"), (-1, "0 1; -1 -1")]:
        cls = classify_sl2(parse_matrix(rep))
        assert cls.kind == "ComplexSpectrum"
        assert cls.canonical.trace() == tr


def test_classify_unipotent():
    cls = classify_sl2(parse_matrix("1 3; 0 1"))
    assert cls.kind == "MultipleEigen" and cls.epsilon == 1 and cls.k == 3
    cls = classify_sl2(parse_matrix("-1 0; 4 -1"))
    assert cls.kind == "MultipleEigen" and cls.epsilon == -1 and abs(cls.k) == 4
    cls = classify_sl2(IntMatrix.identity(2))
    assert cls.kind == "MultipleEigen" and cls.epsilon == 1 and cls.k == 0


def test_classify_parabolic_under_shear_words():
    # [[eps, k], [0, eps]] is the canonical form of its class and k a
    # conjugacy invariant: the closed form recovers k from a conjugate by
    # any shear word (NOTES.md, "The parabolic class in closed form")
    rng = random.Random(47)
    for eps in (1, -1):
        for k in range(-50, 51):
            u = random_unimodular(rng, 2, steps=8)
            m = u * IntMatrix([[eps, k], [0, eps]]) \
                * u.inverse_unimodular()
            cls = classify_sl2(m)
            assert (cls.kind, cls.epsilon, cls.k) \
                == ("MultipleEigen", eps, k), (m.rows, u.rows)


def test_classify_real_spectrum():
    cls = classify_sl2(h25(3))
    assert cls.kind == "RealSpectrum"
    assert periods_equal(cls.period, Period((2, 1, 1, 3)))


def test_sl2_membership_required():
    with pytest.raises(ExactError):
        classify_sl2(parse_matrix("1 2; 3 4"))


def test_h25_period_family():
    for m in range(2, 11):
        p = sail_period(h25(m))
        assert periods_equal(p, Period((2, 1, 1, m))), (m, p.entries)


def test_h25_negative_m_periods():
    # the sail algorithm yields (1,1,2,-m-2); the continuant trace test
    # below pins the geometry down independently
    for m in range(-8, -3):
        p = sail_period(h25(m))
        assert periods_equal(p, Period((1, 1, 2, -m - 2))), (m, p.entries)


def test_h01_period_family():
    for m in range(3, 11):
        p = sail_period(h01(m))
        assert periods_equal(p, Period((1, m - 1))), (m, p.entries)


def test_period_against_continuant_trace():
    # a matrix with LLS period (a1..a2k) is conjugate to the continuant
    # product, so the absolute traces must agree
    for m in list(range(2, 11)) + list(range(-8, -3)):
        mat = h25(m)
        p = sail_period(mat)
        cm = continuant_matrix(p.entries)
        assert abs(cm.trace()) == abs(mat.trace()), (m, p.entries)


def test_sail_period_of_powers():
    # g^k has the period of g repeated k times
    assert sail_period(h25(3) ** 2).entries == (2, 1, 1, 3) * 2
    assert sail_period(h25(3) ** 3).entries == (2, 1, 1, 3) * 3


def _hyperbolic_sl2(lo, hi):
    r = range(lo, hi + 1)
    return [IntMatrix([[a, b], [c, d]])
            for a in r for b in r for c in r for d in r
            if a * d - b * c == 1 and abs(a + d) > 2]


def test_sail_period_exact_under_shears():
    # T^k = [[1,k],[0,1]] fixes (1,0), so T^-k m T^k has the same cone of
    # (1,0) and the same sail: the period must match exactly, not only up
    # to a cyclic shift, however large the conjugate's entries get
    mats = _hyperbolic_sl2(-6, 6)
    assert len(mats) == 216
    for m in mats:
        want = sail_period(m).entries
        for k in (9, -9, 25, -25, 60, -60):
            t = IntMatrix([[1, k], [0, 1]])
            got = sail_period(t.inverse_unimodular() * m * t).entries
            assert got == want, (m.rows, k, got, want)
            assert len(got) % 2 == 0
            assert abs(continuant_matrix(got).trace()) == abs(m.trace())


def test_sail_period_large_entry_golden():
    # T^9 [[-5,-4],[-6,-5]] T^-9; the period of its (1,0) cone is (2,4),
    # as for the unconjugated matrix, not the odd shift (4,2)
    assert sail_period(parse_matrix("-5 -4; -6 -5")).entries == (2, 4)
    assert sail_period(parse_matrix("-59 482; -6 49")).entries == (2, 4)


def test_sail_period_needs_hyperbolic():
    with pytest.raises(ExactError):
        sail_period(parse_matrix("0 1; -1 0"))
    with pytest.raises(ExactError):
        sail_period(parse_matrix("1 1; 0 1"))


def test_negative_trace_same_period():
    m = h25(3)
    neg = IntMatrix([[-m[0, 0], -m[0, 1]], [-m[1, 0], -m[1, 1]]])
    assert periods_equal(sail_period(m), sail_period(neg))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=8))
def test_period_conjugation_invariant(seed, m):
    rng = random.Random(seed)
    u = random_unimodular(rng, 2)
    if det(u) != 1:
        u = u * IntMatrix([[0, 1], [1, 0]])
        if det(u) != 1:
            return
    mat = h25(m)
    conj = u.inverse_unimodular() * mat * u
    assert periods_equal(sail_period(conj), sail_period(mat))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_classify_total_on_random_sl2(seed):
    rng = random.Random(seed)
    u = random_unimodular(rng, 2, steps=8)
    if det(u) != 1:
        u = u * IntMatrix([[0, 1], [1, 0]])
    if det(u) != 1:
        return
    cls = classify_sl2(u)
    assert cls.kind in ("ComplexSpectrum", "MultipleEigen", "RealSpectrum")
    if cls.kind == "RealSpectrum":
        cm = continuant_matrix(cls.period.entries)
        assert abs(cm.trace()) == abs(u.trace())

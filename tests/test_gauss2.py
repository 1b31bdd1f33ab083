import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cf_by_seen_states,
    continuant_matrix,
    period_by_seen_states,
    random_unimodular,
)
from hard_inputs import continued_fraction_conjugates
from hesslab.exact import ExactError, IntMatrix, det, parse_matrix
from hesslab.gauss2 import (
    Period,
    Sl2Class,
    _first_reduced,
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


def _hyperbolic_sl2(r):
    """Every hyperbolic matrix of SL(2,Z) with entries in [-r, r]: d solves
    ad - bc = 1 for a != 0, and is free when a = 0 and bc = -1."""
    out = []
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            for c in range(-r, r + 1):
                if a:
                    d, rem = divmod(1 + b * c, a)
                    ds = [d] if rem == 0 and abs(d) <= r else []
                else:
                    ds = range(-r, r + 1) if b * c == -1 else []
                out.extend(IntMatrix([[a, b], [c, d]]) for d in ds
                           if abs(a + d) > 2)
    return out


def test_sail_period_exact_under_shears():
    # T^k = [[1,k],[0,1]] fixes (1,0), so T^-k m T^k has the same cone of
    # (1,0) and the same sail: the period must match exactly, not only up
    # to a cyclic shift, however large the conjugate's entries get
    mats = _hyperbolic_sl2(6)
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


def _outcome(f, m):
    """The exact period entries of f(m), or its ExactError message."""
    try:
        return f(m).entries
    except ExactError as e:
        return str(e)


def _assert_matches_oracle(mats):
    for m in mats:
        want = _outcome(period_by_seen_states, m)
        assert _outcome(sail_period, m) == want, (m.rows, want)


def test_sail_period_matches_seen_state_walk_on_small_entries():
    # the first reduced quotient is the first that recurs (NOTES.md, "The
    # 2D period from the first reduced quotient"): exact entries equal the
    # seen-state walk's on every hyperbolic matrix with entries in [-30, 30]
    mats = _hyperbolic_sl2(30)
    assert len(mats) == 7832
    _assert_matches_oracle(mats)


def test_sail_period_matches_seen_state_walk_on_shears_and_powers():
    base = _hyperbolic_sl2(4)
    shears = []
    for k in (1, 7, 1000, 10 ** 6):
        for t in (IntMatrix([[1, k], [0, 1]]), IntMatrix([[1, -k], [0, 1]])):
            t_inv = t.inverse_unimodular()
            shears.extend(t_inv * m * t for m in base)
    _assert_matches_oracle(shears)
    _assert_matches_oracle([m ** k for m in base for k in (2, 3, 4)])


def test_sail_period_matches_seen_state_walk_on_conjugates():
    mats = continued_fraction_conjugates(random.Random(1829), 2000)
    _assert_matches_oracle(mats)


def test_sail_period_errors_match_seen_state_walk():
    # non-hyperbolic, det != 1 and 3x3 inputs raise the oracle's messages
    r = range(-3, 4)
    mats = [IntMatrix([[a, b], [c, d]])
            for a in r for b in r for c in r for d in r]
    mats += [IntMatrix.identity(3), parse_matrix("0 1 2; 1 0 0; 0 3 5")]
    assert sum(isinstance(_outcome(sail_period, m), str) for m in mats) > 2000
    _assert_matches_oracle(mats)


def _is_reduced(p, q, disc):
    """Galois's reduced: x = (p + sqrt(disc)) / q > 1 and -1 < x' < 0, in
    50-digit decimals (ample for these small integers)."""
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(disc).sqrt()
        x, x_conj = (p + s) / q, (p - s) / q
        return x > 1 and -1 < x_conj < 0


def test_first_reduced_is_first_recurring_state():
    # on every (p + sqrt(D)) / q with D < 60 not a square, |p|, |q| <= 15:
    # the first quotient that recurs is the first reduced one (Galois), and
    # _first_reduced finds it with its index; D here need not be tr^2 - 4
    count = 0
    for disc in range(2, 60):
        root = math.isqrt(disc)
        if root * root == disc:
            continue
        for p in range(-15, 16):
            for q in range(-15, 16):
                if q == 0 or (disc - p * p) % q:
                    continue
                quotients, start, state = cf_by_seen_states(p, q, disc)
                walk = [(p, q)]
                for k in quotients[:start]:
                    pp = k * walk[-1][1] - walk[-1][0]
                    walk.append((pp, (disc - pp * pp) // walk[-1][1]))
                assert walk[-1] == state
                assert [_is_reduced(*pq, disc) for pq in walk] \
                    == [False] * start + [True], (p, q, disc)
                assert _first_reduced(p, q, disc, root) == (*state, start)
                count += 1
    assert count == 9858


def test_first_reduced_floor_for_negative_q():
    # -sqrt(7) = -3 + 1/x1, x1 = (3 + sqrt 7)/2 = 2 + 1/x2, x2 = (1 + sqrt 7)/3
    # is reduced (1.22 > 1, conjugate -0.55): with q < 0 dividing p + root,
    # floor((p + sqrt D) / q) is one below (p + root) // q
    assert _first_reduced(0, -1, 7, 2) == (1, 3, 2)
    assert not _is_reduced(0, -1, 7) and not _is_reduced(3, 2, 7)
    assert _is_reduced(1, 3, 7)
    quotients, start, state = cf_by_seen_states(1, -3, 7)
    assert _first_reduced(1, -3, 7, 2) == (*state, start)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesslab.exact import IntPoly
from hesslab.numberfield import (
    NumberField,
    PrecisionExhausted,
    isolate_real_roots,
    sign_a_plus_b_sqrt,
    sign_three_sqrt,
)


def _field():
    # the NRS cubic t^3 - 3t^2 - 2t - 1: unique real root near 3.627
    return NumberField.for_largest_root(IntPoly([-1, -2, -3, 1]))


def test_isolate_real_roots_counts():
    roots = isolate_real_roots(IntPoly([-1, -2, -3, 1]))
    assert len(roots) == 1
    roots = isolate_real_roots(IntPoly([2, -3, 1]))  # (t-1)(t-2)
    assert len(roots) == 2
    for lo, hi in roots:
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)


def test_generator_satisfies_minpoly():
    k = _field()
    r = k.gen()
    assert (r * r * r - 3 * (r * r) - 2 * r - 1).is_zero()


def test_field_arithmetic():
    k = _field()
    r = k.gen()
    x = (r + 1) * (r - 1) - (r * r)
    assert x.sign() == -1 and (x + 1).is_zero()
    assert (r.inverse() * r - 1).is_zero()
    assert r.sign() == 1
    lo, hi = r.interval(Fraction(1, 10 ** 20))
    assert lo <= hi and hi - lo <= Fraction(1, 10 ** 20)
    assert abs(r.approx() - 3.627) < 1e-3


def test_sign_of_exact_zero():
    k = _field()
    assert k.zero().sign() == 0
    assert (k.gen() - k.gen()).sign() == 0


def test_division_by_zero():
    k = _field()
    with pytest.raises(Exception):
        k.one() / k.zero()


def test_cmp_orders_elements():
    k = _field()
    r = k.gen()
    assert (r - 3).sign() == 1
    assert (r - 4).sign() == -1
    assert r.cmp(r * 1) == 0
    assert (r * r).cmp(r) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50),
       st.integers(min_value=0, max_value=60))
def test_sign_a_plus_b_sqrt_fuzz(a, b, d):
    k = _field()
    got = sign_a_plus_b_sqrt(k.element([a]), k.element([b]), k.element([d]))
    val = a + b * math.sqrt(d)
    if abs(val) > 1e-9:
        assert got == (1 if val > 0 else -1)
    else:
        # near-zero float: recheck exactly via squaring
        exact = (a * abs(a) * 1 + 0) + 0
        assert got == _sign_exact(a, b, d)


def _sign_exact(a, b, d):
    # sign of a + b sqrt(d) with integers, by case analysis
    if d == 0 or b == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1 if (a or b) else 0
    lhs = a * a
    rhs = b * b * d
    if a > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-20, max_value=20),
       st.integers(min_value=0, max_value=30),
       st.integers(min_value=-20, max_value=20),
       st.integers(min_value=0, max_value=30),
       st.integers(min_value=-20, max_value=20),
       st.integers(min_value=0, max_value=30))
def test_sign_three_sqrt_fuzz(a, s3, b, s2, c, s1):
    k = _field()
    got = sign_three_sqrt(k.element([a]), k.element([s3]),
                          k.element([b]), k.element([s2]),
                          k.element([c]), k.element([s1]))
    val = a * math.sqrt(s3) + b * math.sqrt(s2) + c * math.sqrt(s1)
    if abs(val) > 1e-7:
        assert got == (1 if val > 0 else -1)


def test_precision_exhausted_is_raised():
    # comparing r against a rational agreeing to hundreds of digits must
    # either resolve exactly or raise, never return a wrong sign
    k = NumberField.for_largest_root(IntPoly([-1, -2, -3, 1]),
                                     precision_bits=64)
    r = k.gen()
    lo, hi = r.interval(Fraction(1, 2 ** 40))
    mid = (lo + hi) / 2
    try:
        s = (r - mid).sign()
    except PrecisionExhausted:
        return
    val = r.approx() - float(mid)
    if s != 0:
        assert s == (1 if val > 0 else -1) or abs(val) < 1e-9

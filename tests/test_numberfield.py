import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PolyModField
from hesslab.exact import ExactError, IntPoly
from hesslab.numberfield import (
    NumberField,
    PrecisionExhausted,
    RealRoot,
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=3, max_size=3),
       st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=-40, max_value=80))
def test_floor_is_exact_and_ignores_refinement(num, den, shift):
    # floor(value * 2^shift) is the floor read off a narrow enclosure, and
    # a root refined first gives the same
    scale = Fraction(2) ** shift / den
    a = _field().element(num) * Fraction(1, den)
    lo, hi = _field().element(num).interval(Fraction(1, 2) ** (shift + 220))
    assert math.floor(lo * scale) == math.floor(hi * scale) == a.floor(shift)
    b = _field().element(num) * Fraction(1, den)
    b.interval(Fraction(1, 2 ** 300))
    assert b.floor(shift) == a.floor(shift)
    # r minus its floor at 2^-(shift + 40) lies in [0, 2^-(shift + 40)):
    # enclosures straddle 0 until sign() decides the side
    r = _field().gen()
    g = math.floor(r.interval(Fraction(1, 2) ** (shift + 60))[0]
                   * 2 ** (shift + 40))
    tiny = r - Fraction(g, 1) * Fraction(1, 2) ** (shift + 40)
    assert tiny.floor(shift) == 0 and (-tiny).floor(shift) == -1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=3, max_size=3),
       st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=-40, max_value=80),
       st.integers(min_value=0, max_value=300))
def test_bounds_enclose_and_ignore_refinement(num, den, shift, refined):
    # floor and ceiling of value * 2^shift, checked by exact signs, the same
    # whether r was refined to 2^-refined first or not at all
    a = _field().element(num) * Fraction(1, den)
    lo, hi = a.bounds(shift)
    assert lo == a.floor(shift)
    scaled = a * Fraction(2) ** shift
    assert (scaled - lo).sign() >= 0 and (scaled - hi).sign() <= 0
    assert hi - lo == (0 if a.is_rational() and (scaled - lo).is_zero()
                       else 1)
    b = _field().element(num) * Fraction(1, den)
    b.interval(Fraction(1, 2 ** refined))
    assert b.bounds(shift) == (lo, hi)


def test_bounds_of_rationals_and_near_integers():
    k = _field()
    assert k.element([Fraction(3, 4)]).bounds(2) == (3, 3)
    assert k.element([Fraction(-3, 4)]).bounds(1) == (-2, -1)
    assert k.element([Fraction(-3, 4)]).bounds(-1) == (-1, 0)
    # r - d is positive and below 2^-60, so the enclosures straddle 0 until
    # the exact sign decides
    r = k.gen()
    d = Fraction(math.floor(r.interval(Fraction(1, 2 ** 80))[0] * 2 ** 60),
                 2 ** 60)
    tiny = _field().gen() - d
    assert tiny.bounds(20) == (0, 1) and (-tiny).bounds(20) == (-1, 0)


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


# (minimal polynomial low-first, an isolating interval of its largest real
# root): the NRS cubic, its mirror t -> -t (a negative root), sqrt(2) and
# the quartic t^4 - t - 1
_ORACLE_FIELDS = (((-1, -2, -3, 1), 3, 4), ((1, -2, 3, 1), -4, -3),
                  ((-2, 0, 1), 1, 2), ((-1, -1, 0, 0, 1), 1, 2))


def _coefficients(d):
    return st.lists(st.fractions(min_value=-30, max_value=30,
                                 max_denominator=12),
                    min_size=d, max_size=d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_matches_fraction_oracle(data):
    poly, lo, hi = data.draw(st.sampled_from(_ORACLE_FIELDS))
    d = len(poly) - 1
    k = NumberField.for_largest_root(IntPoly(poly))
    ref = PolyModField(poly, lo, hi)
    a = data.draw(_coefficients(d))
    b = data.draw(_coefficients(d))
    x, y = k.element(a), k.element(b)
    assert list(x.coeffs) == a and list(y.coeffs) == b

    cases = [(x, a), (y, b),
             (x + y, ref.add(a, b)), (x - y, ref.sub(a, b)),
             (x * y, ref.mul(a, b)), (x * 3 - y, ref.sub([3 * c for c in a], b)),
             (2 - x * x, ref.sub([2] + [0] * (d - 1), ref.mul(a, a))),
             (x * Fraction(-5, 7) + 1, ref.add([c * Fraction(-5, 7) for c in a],
                                               [1] + [0] * (d - 1)))]
    if any(b):
        cases.append((x / y, ref.mul(a, ref.inverse(b))))
        cases.append((y.inverse() * y, [1] + [0] * (d - 1)))
    for z, want in cases:
        assert list(z.coeffs) == want
        assert z.sign() == ref.sign(want)
        assert z == k.element(want) and hash(z) == hash(k.element(want))
    assert x.cmp(y) == ref.sign(ref.sub(a, b))
    assert (x < y) == (ref.sign(ref.sub(a, b)) < 0)

    z, want = cases[data.draw(st.integers(0, len(cases) - 1))]
    width = Fraction(1, 2 ** data.draw(st.integers(0, 60)))
    z_lo, z_hi = z.interval(width)
    assert isinstance(z_lo, Fraction) and 0 <= z_hi - z_lo <= width
    assert ref.sign(ref.sub(want, [z_lo] + [0] * (d - 1))) >= 0
    assert ref.sign(ref.sub(want, [z_hi] + [0] * (d - 1))) <= 0
    # a rational within 2^-41 of the value: the sign must still be exact
    mid = (z_lo + z_hi) / 2
    assert (z - mid).sign() == ref.sign(ref.sub(want, [mid] + [0] * (d - 1)))
    assert abs(z.approx() - float(mid)) <= (float(width) + 2.0 ** -40
                                            + 1e-15 * abs(float(mid)))


def test_non_monic_minimal_polynomial_is_rejected():
    p = IntPoly([-1, 0, 2])
    lo, hi = isolate_real_roots(p)[-1]
    with pytest.raises(ExactError):
        NumberField(p, RealRoot(p, lo, hi))

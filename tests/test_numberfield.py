import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PolyModField
from hesslab.exact import ExactError, IntPoly, IntVector, parse_matrix
from hesslab.hessenberg import FamilyPoint, HessType, family_member
from hesslab.numberfield import (
    NumberField,
    RealRoot,
    isolate_real_roots,
)
from hesslab.reducedness import Sail, _sail_minimum


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


def test_sign_and_bounds_are_exact_near_a_rational():
    # r against a rational within 2^-200 of it: from a fresh isolating
    # interval, sign() and bounds() refine r as far as they need, with no
    # cap, and agree with the Fraction oracle
    lo, hi = _field().gen().interval(Fraction(1, 2 ** 200))
    mid = (lo + hi) / 2
    ref = PolyModField((-1, -2, -3, 1), 3, 4)
    want = ref.sign([-mid, 1, 0])
    assert want != 0
    assert (_field().gen() - mid).sign() == want
    assert (_field().gen() - mid).bounds(0) == ((0, 1) if want > 0
                                                else (-1, 0))
    # scaled by 2^190 the value is still below 2^-10 in magnitude
    assert ((_field().gen() - mid) * 2 ** 190).bounds(0) \
        == ((0, 1) if want > 0 else (-1, 0))


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


# 2^20 t^2 - 2 on (0, 2): the root sqrt(2)/1024 sits near the left end, so
# Newton's step from the midpoint overshoots until the interval is narrow
_SKEWED = ((-2, 0, 1 << 20), 0, 2)


def _count_bisections(monkeypatch):
    """A list that gains an entry at every RealRoot.refine call."""
    calls = []
    bisect = RealRoot.refine
    monkeypatch.setattr(RealRoot, "refine",
                        lambda self: calls.append(1) or bisect(self))
    return calls


def _assert_refined(root, old, bits):
    """The contract of refine_to(bits), checked with Fraction values of p:
    a narrower isolating interval inside the old one, precision exactly
    bits if it was below."""
    def p(x):
        return sum(c * x ** i for i, c in enumerate(root.poly.coeffs))
    old_lo, old_hi, old_bits = old
    assert root.a < root.b
    assert root.sign_a == (p(root.lo) > 0) - (p(root.lo) < 0) != 0
    assert p(root.lo) * p(root.hi) < 0
    assert old_lo <= root.lo and root.hi <= old_hi
    assert root.hi - root.lo < Fraction(2) ** -bits
    assert root.bits == max(bits, old_bits)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS + (_SKEWED,)),
       st.integers(0, 60), st.integers(-5, 400))
def test_refine_to_keeps_an_isolating_interval(field, start, bits):
    poly, lo, hi = field
    root = RealRoot(IntPoly(poly), lo, hi)
    assert root.k == 0
    for _ in range(start):
        root.refine()
    old = (root.lo, root.hi, root.bits)
    root.refine_to(bits)
    _assert_refined(root, old, bits)


def test_refine_to_takes_newton_steps_and_bisections(monkeypatch):
    # from a k = 0 start both paths run: bisections until Newton's bracket
    # holds, then Newton steps; on the skewed field the bracket check turns
    # the overshooting steps into bisections
    calls = _count_bisections(monkeypatch)
    for poly, lo, hi in _ORACLE_FIELDS + (_SKEWED,):
        for bits in range(0, 41):
            root = RealRoot(IntPoly(poly), lo, hi)
            old = (root.lo, root.hi, root.bits)
            root.refine_to(bits)
            _assert_refined(root, old, bits)
        del calls[:]
        root = RealRoot(IntPoly(poly), lo, hi)
        root.refine_to(400)
        assert 1 <= len(calls) <= (30 if poly == _SKEWED[0] else 8)
        assert root.bits == 400


def test_refine_to_cuts_the_bisections_of_a_verdict(monkeypatch):
    # M1 and ten criterion-9 NRS band cells: bisecting alone takes about 73
    # steps per operator, Newton steps leave about 14.  The sail's minimum,
    # not the verdict: the content bound decides five of the cells' verdicts
    # without a sail
    t = HessType.parse("<0,1|1,0,2>")
    cells = [(m, n) for m in (-4, -3, -2) for n in range(6, 10)][:10]
    mats = [parse_matrix("0 1 2; 1 0 0; 0 3 5")] + [
        family_member(FamilyPoint(t, IntVector((1, 0, 1)), mn))
        for mn in cells]
    calls = _count_bisections(monkeypatch)
    for mat in mats:
        del calls[:]
        assert _sail_minimum(mat, Sail())[0] >= 1
        assert len(calls) <= 25


def test_non_monic_minimal_polynomial_is_rejected():
    p = IntPoly([-1, 0, 2])
    lo, hi = isolate_real_roots(p)[-1]
    with pytest.raises(ExactError):
        NumberField(p, RealRoot(p, lo, hi))

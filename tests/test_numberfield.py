import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PolyModField,
    RealRoot,
    field_bounds,
    isolate_real_roots,
    num_sum,
    num_times,
    pin_conjugates,
    root_ends,
)
from hesslab.exact import ExactError, IntPoly, IntVector, parse_matrix
from hesslab.hessenberg import FamilyPoint, HessType, family_member
from hesslab import sail3
from hesslab.numberfield import NumberField
from hesslab.reducedness import _sail_minimum
from hesslab.sail3 import fundamental_window, require_nrs

# the NRS cubic t^3 - 3t^2 - 2t - 1: unique real root near 3.627
_CUBIC = (-1, -2, -3, 1)
# the numerator of r
R = (0, 1, 0)
# the Fraction oracle of the cubic, shared: its bisections only narrow the
# isolating interval of the same root
_REF = PolyModField(_CUBIC, 3, 4)


def _field(poly=_CUBIC):
    """Q(r) for the real root r > 0 of the NRS cubic poly, on a fresh
    isolating interval (0, 1 + max |c_i|), as eigen_data falls back to."""
    return NumberField(IntPoly(list(poly)), 0, 1 + max(map(abs, poly[:-1])))


def _over(num, den):
    """The Fraction coefficients of num over den, as the oracle holds
    them."""
    return [Fraction(c, den) for c in num]


def test_isolate_real_roots_counts():
    roots = isolate_real_roots(IntPoly([-1, -2, -3, 1]))
    assert len(roots) == 1
    roots = isolate_real_roots(IntPoly([2, -3, 1]))  # (t-1)(t-2)
    assert len(roots) == 2
    for lo, hi in roots:
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)


def test_generator_satisfies_minpoly():
    k = _field()
    r2 = k.mul(R, R)
    r3 = k.mul(r2, R)
    assert num_sum(r3, num_times(r2, -3), num_times(R, -2),
                   (-1, 0, 0)) == (0, 0, 0)
    assert _over(r3, 1) == _REF.mul(_REF.mul([0, 1, 0], [0, 1, 0]), [0, 1, 0])


def test_products_match_the_oracle_on_fixed_numerators():
    # products whose r^4 and r^3 terms both reduce, r^2 r^2 among them, on
    # every oracle field
    nums = ((0, 0, 1), (0, 1, 1), (2, -3, 5), (-7, 0, 4), (1, 1, 1))
    for poly, lo, hi in _ORACLE_FIELDS:
        k, ref = _field(poly), PolyModField(poly, lo, hi)
        for x in nums:
            for y in nums:
                assert _over(k.mul(x, y), 1) == ref.mul(list(x), list(y))


def test_field_arithmetic():
    k = _field()
    # (r + 1)(r - 1) - r^2 = -1
    x = num_sum(k.mul((1, 1, 0), (-1, 1, 0)), num_times(k.mul(R, R), -1))
    assert x == (-1, 0, 0) and k.sign(x) == -1
    assert k.sign(R) == 1 == _REF.sign([0, 1, 0])
    lo, hi = field_bounds(k, R, 1, 67)
    assert lo < hi and hi - lo == 1
    assert _REF.sign([-Fraction(lo, 2 ** 67), 1, 0]) > 0 \
        > _REF.sign([-Fraction(hi, 2 ** 67), 1, 0])


def test_sign_of_exact_zero():
    k = _field()
    assert k.sign((0, 0, 0)) == 0
    # the minimal polynomial at r, by products
    r2 = k.mul(R, R)
    zero = num_sum(k.mul(r2, R), num_times(r2, -3), num_times(R, -2),
                   (-1, 0, 0))
    assert k.sign(zero) == 0 and field_bounds(k, zero, 5, 10) == (0, 0)


def test_cmp_orders_elements():
    # orders are signs of numerator differences
    k = _field()
    assert k.sign(num_sum(R, (-3, 0, 0))) == 1
    assert k.sign(num_sum(R, (-4, 0, 0))) == -1
    assert k.sign(num_sum(k.mul(R, (1, 0, 0)), num_times(R, -1))) == 0
    assert k.sign(num_sum(k.mul(R, R), num_times(R, -1))) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=3, max_size=3),
       st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=-40, max_value=80))
def test_floor_is_exact_and_ignores_refinement(num, den, shift):
    # floor(value * 2^shift) is the oracle's, from its own bisection, and a
    # root refined first gives the same
    want = _REF.floor(_over(num, den), shift)
    assert _field().floor(num, den, shift) == want
    k = _field()
    k.floor(num, den, 300)
    assert k.floor(num, den, shift) == want
    # r minus its floor at 2^-(shift + 40) lies in [0, 2^-(shift + 40)):
    # enclosures straddle 0 until sign() decides the side
    k = _field()
    g = k.floor(R, 1, shift + 60) >> 20
    t = 1 << (shift + 40)
    tiny = (-g, t, 0)
    assert k.floor(tiny, t, shift) == 0
    assert k.floor(num_times(tiny, -1), t, shift) == -1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=3, max_size=3),
       st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=-40, max_value=80),
       st.integers(min_value=0, max_value=300))
def test_bounds_enclose_and_ignore_refinement(num, den, shift, refined):
    # floor and ceiling, -floor(-num), of value * 2^shift, checked by the
    # oracle's exact signs, the same whether r was refined to 2^-refined
    # first or not at all
    lo, hi = field_bounds(_field(), num, den, shift)
    scaled = [c * Fraction(2) ** shift for c in _over(num, den)]
    assert _REF.sign(_REF.sub(scaled, [lo, 0, 0])) >= 0
    assert _REF.sign(_REF.sub(scaled, [hi, 0, 0])) <= 0
    assert hi - lo == (0 if not any(num[1:]) and scaled[0] == lo else 1)
    k = _field()
    k.floor(num, den, refined)
    assert field_bounds(k, num, den, shift) == (lo, hi)


def test_bounds_of_rationals_and_near_integers():
    k = _field()
    assert field_bounds(k, (3, 0, 0), 4, 2) == (3, 3)
    assert field_bounds(k, (-3, 0, 0), 4, 1) == (-2, -1)
    assert field_bounds(k, (-3, 0, 0), 4, -1) == (-1, 0)
    # r - d is positive and below 2^-60, so the enclosures straddle 0 until
    # the exact sign decides
    tiny = (-(k.floor(R, 1, 80) >> 20), 1 << 60, 0)
    k = _field()
    assert field_bounds(k, tiny, 1 << 60, 20) == (0, 1)
    assert field_bounds(k, num_times(tiny, -1), 1 << 60, 20) == (-1, 0)


def test_sign_and_bounds_are_exact_near_a_rational():
    # r against a rational within 2^-200 of it: from a fresh isolating
    # interval, sign() and floor() refine r as far as they need, with no
    # cap, and agree with the Fraction oracle
    lo, hi = (Fraction(k, 2 ** 200) for k in field_bounds(_field(), R, 1,
                                                          200))
    mid = (lo + hi) / 2
    ref = PolyModField(_CUBIC, 3, 4)
    want = ref.sign([-mid, 1, 0])
    assert want != 0
    num, den = (-mid.numerator, mid.denominator, 0), mid.denominator
    assert _field().sign(num) == want
    assert field_bounds(_field(), num, den) \
        == ((0, 1) if want > 0 else (-1, 0))
    # scaled by 2^190 the value is still below 2^-10 in magnitude
    assert field_bounds(_field(), num_times(num, 2 ** 190), den) \
        == ((0, 1) if want > 0 else (-1, 0))


# (minimal polynomial low-first, an isolating interval of its real root
# r): the characteristic polynomials of M1 = 0 1 2; 1 0 0; 0 3 5, of FRO =
# 0 0 1; 1 0 1; 0 1 3 and of M1^-1 (r < 1), and an NRS cubic with a
# coefficient near 10^40
_NRS_FIELDS = (((-1, -1, -5, 1), 5, 6), ((-1, -1, -3, 1), 3, 4),
               ((-1, 5, 1, 1), 0, 1))
_ORACLE_FIELDS = _NRS_FIELDS + (
    ((-1, 3, -10 ** 40 - 1, 1), 10 ** 40, 10 ** 40 + 1),)


def _coefficients(d):
    return st.lists(st.fractions(min_value=-30, max_value=30,
                                 max_denominator=12),
                    min_size=d, max_size=d)


def _numerator(coeffs):
    """The numerator of Fraction coefficients over their least common
    denominator, and that denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_matches_fraction_oracle(data):
    # products, signs, floors and ceilings of the kernel against the
    # oracle's, on the fields of NRS cubics; sums and integer multiples are
    # integer operations on the numerators
    poly, lo, hi = data.draw(st.sampled_from(_ORACLE_FIELDS))
    d = 3
    k = _field(poly)
    ref = PolyModField(poly, lo, hi)
    a = data.draw(_coefficients(d))
    b = data.draw(_coefficients(d))
    (x, dx), (y, dy) = _numerator(a), _numerator(b)
    one = (1,) + (0,) * (d - 1)

    cases = [(x, dx, a), (y, dy, b),
             (num_sum(num_times(x, dy), num_times(y, dx)), dx * dy,
              ref.add(a, b)),
             (num_sum(num_times(x, dy), num_times(y, -dx)), dx * dy,
              ref.sub(a, b)),
             (k.mul(x, y), dx * dy, ref.mul(a, b)),
             (num_sum(num_times(x, 3 * dy), num_times(y, -dx)), dx * dy,
              ref.sub([3 * c for c in a], b)),
             (num_sum(num_times(one, 2 * dx * dx), num_times(k.mul(x, x), -1)),
              dx * dx, ref.sub([2] + [0] * (d - 1), ref.mul(a, a))),
             (num_sum(num_times(x, -5), num_times(one, 7 * dx)), 7 * dx,
              ref.add([c * Fraction(-5, 7) for c in a], [1] + [0] * (d - 1)))]
    for z, dz, want in cases:
        assert _over(z, dz) == want
        assert k.sign(z) == ref.sign(want)

    z, dz, want = cases[data.draw(st.integers(0, len(cases) - 1))]
    bits = data.draw(st.integers(0, 60))
    width = Fraction(1, 2 ** bits)
    z_lo, z_hi = (Fraction(t, 2 ** bits)
                  for t in field_bounds(k, z, dz, bits))
    assert 0 <= z_hi - z_lo <= width
    assert ref.sign(ref.sub(want, [z_lo] + [0] * (d - 1))) >= 0
    assert ref.sign(ref.sub(want, [z_hi] + [0] * (d - 1))) <= 0
    # a rational within 2^-41 of the value: the sign must still be exact
    mid = (z_lo + z_hi) / 2
    near = num_sum(num_times(z, mid.denominator),
                   num_times(one, -mid.numerator * dz))
    assert k.sign(near) == ref.sign(ref.sub(want, [mid] + [0] * (d - 1)))


# t^3 + 2^20 t^2 - 2 on (0, 2): the root, about sqrt(2)/1024, sits near
# the left end, so Newton's step from the midpoint overshoots until the
# interval is narrow
_SKEWED = ((-2, 0, 1 << 20, 1), 0, 2)


def _count_bisections(monkeypatch):
    """A list that gains an entry at every NumberField.refine call."""
    calls = []
    bisect = NumberField.refine
    monkeypatch.setattr(NumberField, "refine",
                        lambda self: calls.append(1) or bisect(self))
    return calls


class _CountingField(NumberField):
    """A NumberField that counts its bisections, and among them those
    taken where refine_to(bits) tries a Newton step first, at K = min(2
    precision, bits + 2) >= k + 2: where p' has no root in (0, oo), as on
    _SKEWED, each of those follows a rejected Newton step."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bisections = self.rejected = 0
        self.target = None

    def refine_to(self, bits):
        self.target = bits
        super().refine_to(bits)

    def refine(self):
        self.bisections += 1
        if (self.target is not None
                and min(2 * self.bits, self.target + 2) >= self.k + 2):
            self.rejected += 1
        super().refine()


def _assert_refined(field, old, bits):
    """The contract of refine_to(bits), checked with Fraction values of p:
    a narrower isolating interval inside the old one, precision exactly
    bits if it was below."""
    def p(x):
        return sum(c * x ** i for i, c in enumerate(field.minpoly.coeffs))
    old_lo, old_hi, old_bits = old
    lo, hi = root_ends(field)
    assert field.a < field.b
    assert field.sign_a == (p(lo) > 0) - (p(lo) < 0) != 0
    assert p(lo) * p(hi) < 0
    assert old_lo <= lo and hi <= old_hi
    assert hi - lo < Fraction(2) ** -bits
    assert field.bits == max(bits, old_bits)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS + (_SKEWED,)),
       st.integers(0, 60), st.integers(-5, 400))
def test_refine_to_keeps_an_isolating_interval(field, start, bits):
    poly, lo, hi = field
    k = NumberField(IntPoly(poly), lo, hi)
    assert k.k == 0
    for _ in range(start):
        k.refine()
    old = root_ends(k) + (k.bits,)
    k.refine_to(bits)
    _assert_refined(k, old, bits)


def test_refine_to_takes_newton_steps_and_bisections():
    # from a k = 0 start both paths run: bisections until Newton's bracket
    # holds, then Newton steps; on the skewed field the bracket check turns
    # the overshooting steps into bisections.  (The root near 10^40 takes
    # about 67 bisections from its unit interval: precision is absolute.)
    for poly, lo, hi in ((_CUBIC, 3, 4),) + _NRS_FIELDS + (_SKEWED,):
        for bits in range(0, 41):
            k = NumberField(IntPoly(poly), lo, hi)
            old = root_ends(k) + (k.bits,)
            k.refine_to(bits)
            _assert_refined(k, old, bits)
        k = _CountingField(IntPoly(poly), lo, hi)
        old = root_ends(k) + (k.bits,)
        k.refine_to(400)
        _assert_refined(k, old, 400)
        assert 1 <= k.bisections <= (30 if poly == _SKEWED[0] else 8)
        if poly == _SKEWED[0]:
            assert k.rejected >= 1


def _state(root):
    return root.a, root.b, root.k, root.sign_a


def test_refinement_matches_the_generic_oracle():
    # the field's straight-line steps against conftest.RealRoot's Horner
    # loops over any degree: the same interval and sign after every
    # bisection, after refine_to(bits) from a fresh interval for every bits
    # up to 400, and along one chain of refine_to calls, also where Newton
    # steps are rejected
    for poly, lo, hi in ((_CUBIC, 3, 4),) + _ORACLE_FIELDS + (_SKEWED,):
        p = IntPoly(list(poly))
        k, ref = NumberField(p, lo, hi), RealRoot(p, lo, hi)
        for _ in range(200):
            k.refine()
            ref.refine()
            assert _state(k) == _state(ref), poly
        chain, chain_ref = NumberField(p, lo, hi), RealRoot(p, lo, hi)
        for bits in range(0, 401):
            k, ref = NumberField(p, lo, hi), RealRoot(p, lo, hi)
            k.refine_to(bits)
            ref.refine_to(bits)
            assert _state(k) == _state(ref), (poly, bits)
            chain.refine_to(bits)
            chain_ref.refine_to(bits)
            assert _state(chain) == _state(chain_ref), (poly, bits)


def test_isolated_r_matches_the_generic_oracle_on_the_pins():
    # r as _isolate_r brackets it for the 40 pin conjugates, then refined
    # as eigen_data does and further, against the oracle on that bracket
    for m in pin_conjugates():
        p = require_nrs(m).poly
        k = sail3._isolate_r(p)
        ref = RealRoot(p, k.a, k.b, k.k)
        assert _state(k) == _state(ref)
        for bits in (sail3._R_BITS, 400):
            k.refine_to(bits)
            ref.refine_to(bits)
            assert _state(k) == _state(ref)


def test_refine_to_cuts_the_bisections_of_a_verdict(monkeypatch):
    # M1 and ten criterion-9 NRS band cells: from r's Cauchy interval
    # (0, B), bisecting alone takes about 73 steps per operator and Newton
    # steps leave about 14; from eigen_data's float bracket, 2^-32 wide
    # relative to r, Newton steps leave none.  The sail's minimum, not the
    # verdict: the content bound decides five of the cells' verdicts
    # without a sail
    t = HessType.parse("<0,1|1,0,2>")
    cells = [(m, n) for m in (-4, -3, -2) for n in range(6, 10)][:10]
    mats = [parse_matrix("0 1 2; 1 0 0; 0 3 5")] + [
        family_member(FamilyPoint(t, IntVector((1, 0, 1)), mn))
        for mn in cells]
    calls = _count_bisections(monkeypatch)
    for mat in mats:
        del calls[:]
        assert _sail_minimum(fundamental_window(require_nrs(mat)))[0] >= 1
        assert calls == []


def test_non_monic_minimal_polynomial_is_rejected():
    with pytest.raises(ExactError):
        NumberField(IntPoly([-3, -1, 0, 2]), 1, 2)


@pytest.mark.parametrize("poly, lo, hi", [
    ((-2, 0, 1), 1, 2),            # sqrt(2): a quadratic
    ((-1, -1, 0, 0, 1), 1, 2),     # t^4 - t - 1: a quartic
    (_CUBIC, -1, 4),               # r's interval reaches below 0
])
def test_field_takes_a_monic_cubic_on_a_nonnegative_interval(poly, lo, hi):
    # each interval isolates a root of its polynomial; the field of an NRS
    # operator takes none of them
    with pytest.raises(ExactError):
        NumberField(IntPoly(list(poly)), lo, hi)

"""Exact arithmetic in the cubic field Q(r) of a real algebraic number.

The sail machinery needs exact signs of expressions built from the real
eigenvalue r of an NRS matrix and square roots of nonnegative field
elements.  Elements of Q(r) are polynomials of degree < deg(minpoly) with
rational coefficients; signs are decided by refining an isolating interval
of r (termination is guaranteed because a nonzero element of the field
cannot vanish at r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import ExactError, IntPoly, count_real_roots, sturm_chain

_DEFAULT_PRECISION_BITS = 4096


class PrecisionExhausted(ExactError):
    """An adaptive sign computation hit the configured precision cap."""


def _poly_eval_interval(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction):
    """Interval Horner evaluation: encloses {p(t) : t in [lo, hi]}."""
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def isolate_real_roots(p: IntPoly) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all real roots, left to right."""
    if p.degree < 1:
        return []
    bound = Fraction(1) + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.coeffs[-1]))
    total = count_real_roots(p, -bound, bound)
    intervals = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        # nudge off a root of p so the subdivision point is regular
        while p(mid) == 0:
            mid = (lo + mid) / 2
        left = count_real_roots(p, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, cnt - left))
    intervals.sort()
    return intervals


@dataclass
class RealRoot:
    """A real root of an integer polynomial, held as a shrinking isolating
    interval.  Mutable on purpose: refinement is shared by every field
    element pointing at the same root."""

    poly: IntPoly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.poly(self.lo) == 0:
            raise ExactError("isolating interval endpoint hits the root")
        if self.poly(self.lo) * self.poly(self.hi) > 0:
            raise ExactError("interval does not isolate a sign change")

    def refine(self) -> None:
        mid = (self.lo + self.hi) / 2
        if self.poly(mid) == 0:
            # land the interval strictly around the (rational) root
            w = (self.hi - self.lo) / 4
            self.lo, self.hi = mid - w, mid + w
            return
        if self.poly(self.lo) * self.poly(mid) < 0:
            self.hi = mid
        else:
            self.lo = mid

    def refine_to(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            self.refine()

    def approx(self) -> float:
        self.refine_to(Fraction(1, 1 << 30))
        return float((self.lo + self.hi) / 2)


def _polydiv(num: List[Fraction], den: List[Fraction]):
    """Quotient and remainder in Q[t]; coefficient lists are low-first."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    inv = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


class NumberField:
    """Q(r) for a fixed real root r of an irreducible integer polynomial."""

    def __init__(self, minpoly: IntPoly, root: RealRoot,
                 precision_bits: int = _DEFAULT_PRECISION_BITS):
        self.minpoly = minpoly
        self.root = root
        self.degree = minpoly.degree
        self.precision_bits = precision_bits
        self._min_coeffs = [Fraction(c) for c in minpoly.coeffs]

    @staticmethod
    def for_largest_root(minpoly: IntPoly,
                         precision_bits: int = _DEFAULT_PRECISION_BITS) -> "NumberField":
        roots = isolate_real_roots(minpoly)
        if not roots:
            raise ExactError("polynomial has no real roots")
        lo, hi = roots[-1]
        return NumberField(minpoly, RealRoot(minpoly, lo, hi), precision_bits)

    def element(self, coeffs) -> "FieldElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            _, cs = _polydiv(cs, self._min_coeffs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs[: self.degree]))

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def gen(self) -> "FieldElement":
        return self.element([0, 1])


@dataclass(frozen=True)
class FieldElement:
    """An element of Q(r), stored as coefficients of 1, r, ..., r^(d-1)."""

    field: NumberField
    coeffs: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        _, rem = _polydiv(prod, self.field._min_coeffs)
        rem += [Fraction(0)] * (d - len(rem))
        return FieldElement(self.field, tuple(rem[:d]))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def inverse(self) -> "FieldElement":
        """Extended Euclid against the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        r0 = list(self.field._min_coeffs)
        r1 = [c for c in self.coeffs]
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1) and len(r1) > 1:
            q, r2 = _polydiv(r0, r1)
            s2 = list(s0)
            s2 += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s2))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s2[i + j] -= qc * sc
            r0, r1 = r1, r2
            s0, s1 = s1, s2
            while len(r1) > 1 and r1[-1] == 0:
                r1.pop()
        if r1 == [Fraction(0)]:
            raise ExactError("element shares a factor with the minimal polynomial")
        inv_lead = 1 / r1[0]
        return self.field.element([c * inv_lead for c in s1])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        return self.field.element([Fraction(other)])

    def sign(self) -> int:
        if self.is_zero():
            return 0
        if self.is_rational():
            c = self.coeffs[0]
            return (c > 0) - (c < 0)
        root = self.field.root
        budget = self.field.precision_bits
        while True:
            lo, hi = _poly_eval_interval(self.coeffs, root.lo, root.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if budget <= 0:
                raise PrecisionExhausted("sign of field element undecided at cap")
            root.refine()
            budget -= 1

    def interval(self, width: Fraction) -> Tuple[Fraction, Fraction]:
        """A rational enclosure of the real value, of at most given width."""
        root = self.field.root
        while True:
            lo, hi = _poly_eval_interval(self.coeffs, root.lo, root.hi)
            if hi - lo <= width:
                return lo, hi
            root.refine()

    def approx(self) -> float:
        lo, hi = self.interval(Fraction(1, 1 << 40))
        return float((lo + hi) / 2)

    def __eq__(self, other):
        if not isinstance(other, (FieldElement, int, Fraction)):
            return NotImplemented
        return (self - self._coerce(other)).is_zero()

    def __hash__(self):
        return hash(self.coeffs)

    def cmp(self, other) -> int:
        return (self - self._coerce(other)).sign()

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __repr__(self):
        return "FieldElement(%s)" % (self.coeffs,)


def sign_a_plus_b_sqrt(a: FieldElement, b: FieldElement, d: FieldElement) -> int:
    """Exact sign of a + b*sqrt(d), for d >= 0 in Q(r)."""
    sd = d.sign()
    if sd < 0:
        raise ExactError("negative radicand")
    if sd == 0 or b.is_zero():
        return a.sign()
    sa, sb = a.sign(), b.sign()
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: compare a^2 against b^2 d
    t = (a * a - b * b * d).sign()
    if t == 0:
        return 0
    return sa * t if t > 0 else sb


def sign_three_sqrt(a: FieldElement, s3: FieldElement,
                    b: FieldElement, s2: FieldElement,
                    c: FieldElement, s1: FieldElement) -> int:
    """Exact sign of a*sqrt(s3) + b*sqrt(s2) + c*sqrt(s1), s_i >= 0 in Q(r).

    Splits off the first radical and squares twice; the nested comparison
    stays inside expressions of the shape A + B*sqrt(D) with A, B, D in the
    field, so every branch is decided exactly.
    """
    for x, s in ((a, s3), (b, s2), (c, s1)):
        if s.sign() < 0:
            raise ExactError("negative radicand")
    if a.is_zero() or s3.is_zero():
        return sign_a_plus_b_sqrt_pair(b, s2, c, s1)
    if b.is_zero() or s2.is_zero():
        return sign_a_plus_b_sqrt_pair(a, s3, c, s1)
    if c.is_zero() or s1.is_zero():
        return sign_a_plus_b_sqrt_pair(a, s3, b, s2)
    sa, sb, sc = a.sign(), b.sign(), c.sign()
    if sa == sb == sc:
        return sa
    # sign of a*sqrt(s3) vs -(b*sqrt(s2)+c*sqrt(s1)): compare squares,
    # tracking which side is nonnegative
    lhs_sq = a * a * s3
    rhs_sq = b * b * s2 + c * c * s1
    cross = b * c  # rhs^2 = rhs_sq + 2*b*c*sqrt(s2*s1)
    # t = lhs_sq - rhs^2 = (lhs_sq - rhs_sq) - 2*cross*sqrt(s2*s1)
    t = sign_a_plus_b_sqrt(lhs_sq - rhs_sq, -2 * cross, s2 * s1)
    rhs_sign = sign_a_plus_b_sqrt_pair(b, s2, c, s1)  # sign of b*sqrt+c*sqrt
    if sa > 0:
        if rhs_sign >= 0:
            return 1
        # both magnitudes compared: a*sqrt(s3) vs |rhs|
        return t if t != 0 else 0
    else:
        if rhs_sign <= 0:
            return -1
        return -t if t != 0 else 0


def sign_a_plus_b_sqrt_pair(a: FieldElement, sa: FieldElement,
                            b: FieldElement, sb: FieldElement) -> int:
    """Exact sign of a*sqrt(sa) + b*sqrt(sb), radicands >= 0 in Q(r)."""
    if a.is_zero() or sa.is_zero():
        return b.sign() if sb.sign() != 0 else 0
    if b.is_zero() or sb.is_zero():
        return a.sign() if sa.sign() != 0 else 0
    s1, s2 = a.sign(), b.sign()
    if s1 == s2:
        return s1
    t = (a * a * sa - b * b * sb).sign()
    if t == 0:
        return 0
    return s1 * t if t > 0 else s2

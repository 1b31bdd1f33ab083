"""Exact arithmetic in the number field Q(r) of a real algebraic number.

The sail machinery needs exact signs of expressions built from the real
eigenvalue r of an NRS matrix.  The minimal polynomial is monic with
integer coefficients, so an element of Q(r) is held as integer
coefficients of 1, r, ..., r^(d-1) over one positive denominator (Cohen,
A Course in Computational Algebraic Number Theory, 4.2) and products
reduce by the minimal polynomial in integers.  Signs are decided by
interval evaluation on a dyadic isolating interval of r, refined to the
precision each decision asks for by certified Newton steps, with a
bisection wherever a step fails (quadratic interval refinement: Abbott,
2006; Kerber and Sagraloff, 2011).  Termination is guaranteed because a
nonzero element of the field cannot vanish at r.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Tuple

from .exact import ExactError, IntPoly, _det_rows, count_real_roots


def isolate_real_roots(p: IntPoly) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all real roots, left to right.

    The root bound is an integer, so every endpoint is dyadic."""
    if p.degree < 1:
        return []
    lead = abs(p.coeffs[-1])
    bound = Fraction(1 - (-max(abs(c) for c in p.coeffs[:-1]) // lead))
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


def _dyadic_numerator(x: Fraction, k: int) -> int:
    """x * 2^k, which must be an integer."""
    num, rem = divmod(x.numerator << k, x.denominator)
    if rem:
        raise ExactError("isolating interval endpoints must be dyadic")
    return num


class RealRoot:
    """A real root of an integer polynomial, held as a shrinking isolating
    interval (a/2^k, b/2^k) with integers a < b, plus the sign of the
    polynomial at the left end.  Mutable on purpose: refinement is shared
    by every field element pointing at the same root."""

    __slots__ = ("poly", "a", "b", "k", "sign_a")

    def __init__(self, poly: IntPoly, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        k = max(lo.denominator, hi.denominator).bit_length() - 1
        self.poly = poly
        self.a = _dyadic_numerator(lo, k)
        self.b = _dyadic_numerator(hi, k)
        self.k = k
        self.sign_a = self._sign_at(self.a, k)
        if self.sign_a == 0:
            raise ExactError("isolating interval endpoint hits the root")
        if self.sign_a * self._sign_at(self.b, k) > 0:
            raise ExactError("interval does not isolate a sign change")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, 1 << self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, 1 << self.k)

    def _sign_at(self, m: int, k: int) -> int:
        """Sign of poly(m / 2^k), from sum c_i m^i 2^(k(d-i)) by Horner."""
        cs = self.poly.coeffs
        acc = cs[-1]
        shift = 0
        for c in cs[-2::-1]:
            shift += k
            acc = acc * m + (c << shift)
        return (acc > 0) - (acc < 0)

    @property
    def bits(self) -> int:
        """The precision: the largest n with width (b - a)/2^k below 2^-n."""
        return self.k - (self.b - self.a).bit_length()

    def refine_to(self, bits: int) -> None:
        """Refine until the interval is narrower than 2^-bits; one that is
        not yet ends with precision exactly `bits`.

        Each step tries Newton's method from the midpoint m / 2^j at K bits,
        about twice the current precision: T = floor(2^K (m/2^j -
        p/p')), in integers, with p and p' scaled by 2^(jd) and 2^(j(d-1)).
        The interval ((T - 1)/2^K, (T + 2)/2^K) holds the root once
        Newton's error is below 2^-K, and it is kept only if it lies inside
        the old one and exact signs of p at its ends bracket the root;
        otherwise the step is one bisection.
        """
        cs = self.poly.coeffs
        while True:
            have = self.bits
            if have >= bits:
                return
            a, b, k = self.a, self.b, self.k
            big_k = min(2 * have, bits + 2)
            if big_k >= k + 2:
                m, j = a + b, k + 1
                pv, dv = cs[-1], 0
                shift = 0
                for c in cs[-2::-1]:
                    shift += j
                    dv = dv * m + pv
                    pv = pv * m + (c << shift)
                if dv:
                    t = ((m * dv - pv) << (big_k - j)) // dv
                    lo, hi, up = t - 1, t + 2, big_k - k
                    if (a << up <= lo and hi <= b << up
                            and self._sign_at(lo, big_k) == self.sign_a
                            and self._sign_at(hi, big_k) == -self.sign_a):
                        self.a, self.b, self.k = lo, hi, big_k
                        continue
            self.refine()

    def refine(self) -> None:
        """One bisection step: the interval halves."""
        a, b, k = self.a, self.b, self.k + 1
        mid = a + b
        s = self._sign_at(mid, k)
        if s == 0:
            # land the interval strictly around the (rational) root
            self.a, self.b, self.k = 3 * a + b, a + 3 * b, k + 1
            self.sign_a = self._sign_at(self.a, self.k)
        elif self.sign_a * s < 0:
            self.a, self.b, self.k = 2 * a, mid, k
        else:
            self.a, self.b, self.k = mid, 2 * b, k
            self.sign_a = s

    def __repr__(self):
        return "RealRoot(%s, %s, %s)" % (self.poly, self.lo, self.hi)


def _horner_interval(num, a: int, b: int, k: int) -> Tuple[int, int]:
    """Interval Horner evaluation of sum num_i t^i over t in [a/2^k, b/2^k]:
    integers lo <= hi such that [lo, hi] / 2^(k(d-1)) is the enclosure."""
    lo = hi = num[-1]
    shift = 0
    for c in num[-2::-1]:
        shift += k
        if a >= 0:
            lo *= a if lo >= 0 else b
            hi *= b if hi >= 0 else a
        else:
            products = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(products), max(products)
        c <<= shift
        lo += c
        hi += c
    return lo, hi


class NumberField:
    """Q(r) for a fixed real root r of an irreducible monic integer
    polynomial."""

    def __init__(self, minpoly: IntPoly, root: RealRoot):
        if not minpoly.monic:
            raise ExactError("the minimal polynomial must be monic")
        self.minpoly = minpoly
        self.root = root
        self.degree = minpoly.degree
        self._low = minpoly.coeffs[:-1]   # r^d = -sum _low[i] r^i

    @staticmethod
    def for_largest_root(minpoly: IntPoly) -> "NumberField":
        roots = isolate_real_roots(minpoly)
        if not roots:
            raise ExactError("polynomial has no real roots")
        lo, hi = roots[-1]
        return NumberField(minpoly, RealRoot(minpoly, lo, hi))

    def _reduce(self, cs: list) -> tuple:
        """Integer coefficients of a polynomial in r, reduced to degree < d
        (in place) by the monic minimal polynomial."""
        d = self.degree
        low = self._low
        for i in range(len(cs) - 1, d - 1, -1):
            h = cs[i]
            if h:
                base = i - d
                for j, c in enumerate(low):
                    cs[base + j] -= h * c
        if len(cs) < d:
            cs += [0] * (d - len(cs))
        return tuple(cs[:d])

    def element(self, coeffs) -> "FieldElement":
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            return FieldElement(self, self._reduce(cs))
        cs = [Fraction(c) for c in cs]
        den = lcm(*(c.denominator for c in cs))
        return FieldElement(
            self, self._reduce([c.numerator * (den // c.denominator) for c in cs]),
            den)

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def gen(self) -> "FieldElement":
        return self.element([0, 1])


class FieldElement:
    """An element of Q(r): integer coefficients `num` of 1, r, ..., r^(d-1)
    over the positive denominator `den`, with gcd(den, *num) = 1, so equal
    values have equal representations."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int = 1):
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients of 1, r, ..., r^(d-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __add__(self, other):
        num, den = self.num, self.den
        if other.__class__ is int:
            return FieldElement(self.field, (num[0] + other * den,) + num[1:], den)
        other = self._coerce(other)
        if den == other.den:
            return FieldElement(self.field,
                                tuple(a + b for a, b in zip(num, other.num)), den)
        oden = other.den
        return FieldElement(self.field,
                            tuple(a * oden + b * den for a, b in zip(num, other.num)),
                            den * oden)

    def __sub__(self, other):
        if other.__class__ is int:
            return self + (-other)
        return self + (-self._coerce(other))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if other.__class__ is int:
            return FieldElement(self.field, tuple(a * other for a in self.num),
                                self.den)
        other = self._coerce(other)
        b = other.num
        prod = [0] * (len(self.num) + len(b) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return FieldElement(self.field, self.field._reduce(prod),
                            self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def inverse(self) -> "FieldElement":
        """Adjugate over determinant of the integer matrix of multiplication
        by this element: its first adjugate column solves num * y = 1."""
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        low = self.field._low
        d = len(low)
        cols = [self.num]
        for _ in range(d - 1):
            v = cols[-1]
            top = v[-1]
            cols.append((-top * low[0],)
                        + tuple(v[i - 1] - top * low[i] for i in range(1, d)))
        rows = list(zip(*cols))
        cof = [(-1) ** j * _det_rows([r[:j] + r[j + 1:] for r in rows[1:]])
               if d > 1 else 1 for j in range(d)]
        det = sum(x * c for x, c in zip(rows[0], cof))
        if det == 0:
            raise ExactError("element shares a factor with the minimal polynomial")
        if det < 0:
            det, cof = -det, [-c for c in cof]
        return FieldElement(self.field, tuple(self.den * c for c in cof), det)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        return self.field.element([other])

    def sign(self) -> int:
        """The exact sign: the Horner enclosure over the interval of r,
        with r refined to twice its bits plus 8 while it straddles 0.

        The loop ends.  A rational element's sign is that of its constant
        term.  An element with an r-term is irrational, as the minimal
        polynomial is irreducible, so it is nonzero, and its enclosure
        shrinks onto its value as the interval of r does."""
        num = self.num
        if not any(num[1:]):
            c = num[0]
            return (c > 0) - (c < 0)
        root = self.field.root
        while True:
            lo, hi = _horner_interval(num, root.a, root.b, root.k)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            root.refine_to(2 * max(root.bits, 0) + 8)

    def bounds(self, shift: int = 0) -> Tuple[int, int]:
        """The floor and the ceiling of value * 2^shift, exactly, so whatever
        the refinement of r: the Horner enclosure is refined until, rounded
        outward, it spans at most one unit, or is narrow enough that sign()
        puts the value on one side of the one integer inside it.  The value
        of an element with an r-term is irrational, so its bounds differ by
        one; a rational element's enclosure is the value itself.

        The loop ends.  Each refinement asks r for the bits that narrow the
        enclosure, scaled by 2^shift, from its current width to about
        2^-10; while that width is above 2^-8 this is at least two more
        bits, and the enclosure narrows with the interval of r, so it gets
        2^-8 wide, where sign() decides."""
        up, down = 1 << max(shift, 0), 1 << max(-shift, 0)
        num, root = self.num, self.field.root
        while True:
            lo, hi = _horner_interval(num, root.a, root.b, root.k)
            scale = (self.den << (root.k * (len(num) - 1))) * down
            n, m = lo * up // scale, -(-hi * up // scale)
            if m - n <= 1:
                return n, m
            spread = (hi - lo) * up
            if spread << 8 <= scale:
                # 2^-8 wide: n + 1 is the one integer inside
                s = (self * up - (n + 1) * down).sign()
                return n + (s >= 0), n + 1 + (s > 0)
            root.refine_to(root.bits + spread.bit_length()
                           - scale.bit_length() + 10)

    def floor(self, shift: int = 0) -> int:
        """floor(value * 2^shift), exactly."""
        return self.bounds(shift)[0]

    def interval(self, width: Fraction) -> Tuple[Fraction, Fraction]:
        """A dyadic enclosure of the real value, of at most given width:
        the bounds at the least 2^-b <= width."""
        width = Fraction(width)
        b = (-(-width.denominator // width.numerator) - 1).bit_length()
        lo, hi = self.bounds(b)
        return Fraction(lo, 1 << b), Fraction(hi, 1 << b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        elif not isinstance(other, FieldElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def cmp(self, other) -> int:
        return (self - other).sign()

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

"""Exact arithmetic in the number field Q(r) of an NRS operator.

An NRS operator has one real eigenvalue r, the root of its irreducible
characteristic polynomial p = t^3 + c2 t^2 + c1 t - 1; p(0) = -1 puts r
> 0.  A value of Q(r) is a numerator, the integer coefficients of 1, r,
r^2, over one positive denominator that its caller keeps (Cohen, A Course
in Computational Algebraic Number Theory, 4.2).  A NumberField is the
kernel on numerators, for a monic cubic and a root interval in [0, oo),
with three operations: a product, reduced by r^3 = -(c0 + c1 r + c2 r^2)
in straight-line integers, the exact sign, and the exact floor of a value
scaled by 2^shift, the one integer path out of Q(r); a ceiling is minus
the floor of the negated numerator, and sums and integer multiples are
the caller's integer operations.  Signs and floors are decided by one
straight-line Horner enclosure of the numerator at a dyadic isolating
interval of r, given by integer endpoint numerators over 2^k.  The field
holds that interval and refines it itself, by certified Newton steps, with
a bisection wherever a step fails (quadratic interval refinement: Abbott,
2006; Kerber and Sagraloff, 2011), in straight-line integers for the
cubic.  The sail route hands the kernel r on a narrow interval, refined
once to a working precision, and a decision refines it further only where
that interval leaves it open.  Termination is guaranteed because a nonzero
element of the field cannot vanish at r.
"""

from __future__ import annotations

from math import gcd
from typing import Tuple

from .exact import ExactError, IntPoly


class NumberField:
    """Q(r) for the real root r > 0 of an irreducible monic integer cubic,
    as the characteristic polynomial t^3 + c2 t^2 + c1 t - 1 of an NRS
    operator is, acting on numerators: triples of the integer coefficients
    of 1, r, r^2.  It holds r as a shrinking isolating interval (a/2^k,
    b/2^k), with integers 0 <= a < b and k >= 0, plus the sign at the left
    end of its minimal polynomial p.  Mutable on purpose: a refinement is
    shared by every decision of the field."""

    __slots__ = ("minpoly", "_low", "a", "b", "k", "sign_a")

    def __init__(self, minpoly: IntPoly, a: int, b: int, k: int = 0):
        """Q(r) for the root r of minpoly in (a/2^k, b/2^k), once minpoly is
        a monic cubic, a >= 0 and exact signs of minpoly at the ends differ;
        else ExactError."""
        if minpoly.degree != 3 or not minpoly.monic:
            raise ExactError("the minimal polynomial must be a monic cubic")
        if a < 0:
            raise ExactError("the interval of r must lie in [0, oo)")
        self.minpoly = minpoly
        self._low = minpoly.coeffs[:3]   # r^3 = -(c0 + c1 r + c2 r^2)
        self.a, self.b, self.k = a, b, k
        self.sign_a = self._sign_at(a, k)
        if self.sign_a == 0:
            raise ExactError("isolating interval endpoint hits the root")
        if self.sign_a * self._sign_at(b, k) > 0:
            raise ExactError("interval does not isolate a sign change")

    def _sign_at(self, m: int, k: int) -> int:
        """Sign of p(m / 2^k), from m^3 + c2 m^2 2^k + c1 m 2^2k + c0 2^3k."""
        c0, c1, c2 = self._low
        v = ((m + (c2 << k)) * m + (c1 << 2 * k)) * m + (c0 << 3 * k)
        return (v > 0) - (v < 0)

    @property
    def bits(self) -> int:
        """The precision: the largest n with width (b - a)/2^k below 2^-n."""
        return self.k - (self.b - self.a).bit_length()

    def refine_to(self, bits: int) -> None:
        """Refine r until its interval is narrower than 2^-bits; one that is
        not yet ends with precision exactly `bits`.

        Each step tries Newton's method from the midpoint m / 2^j at K bits,
        about twice the current precision: T = floor(2^K (m/2^j - p/p')),
        in integers, with p and p' scaled by 2^3j and 2^2j.  The interval
        ((T - 1)/2^K, (T + 2)/2^K) holds the root once Newton's error is
        below 2^-K, and it is kept only if it lies inside the old one and
        exact signs of p at its ends bracket the root; otherwise the step is
        one bisection.
        """
        c0, c1, c2 = self._low
        while True:
            have = self.bits
            if have >= bits:
                return
            a, b, k = self.a, self.b, self.k
            big_k = min(2 * have, bits + 2)
            if big_k >= k + 2:
                # p and p' at the midpoint m / 2^j, times 2^3j and 2^2j,
                # through q = m^2 + c2 m 2^j + c1 2^2j
                m, j = a + b, k + 1
                t2 = c2 << j
                q = (m + t2) * m + (c1 << 2 * j)
                dv = (2 * m + t2) * m + q
                pv = q * m + (c0 << 3 * j)
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
        """One bisection step: r's interval halves."""
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

    def mul(self, a, b) -> tuple:
        """The numerator of the product of the values of a and b, whose
        denominator is the product of theirs: the product of the
        polynomials in r, with its r^4 and then its r^3 term reduced by
        r^3 = -(c0 + c1 r + c2 r^2), in integers."""
        c0, c1, c2 = self._low
        a0, a1, a2 = a
        b0, b1, b2 = b
        p4 = a2 * b2
        p3 = a1 * b2 + a2 * b1 - p4 * c2
        return (a0 * b0 - p3 * c0,
                a0 * b1 + a1 * b0 - p4 * c0 - p3 * c1,
                a0 * b2 + a1 * b1 + a2 * b0 - p4 * c1 - p3 * c2)

    def _enclose(self, num) -> Tuple[int, int, int]:
        """(lo, hi, k) with 2^2k times the value of num in [lo, hi]: the
        straight-line Horner enclosure at r's interval (a, b) / 2^k, a >= 0,
        where a lower bound is multiplied by a where it is >= 0 and by b
        where it is < 0, an upper bound the other way round."""
        a, b, k = self.a, self.b, self.k
        c0, c1, c2 = num
        c1 <<= k
        lo = c2 * (a if c2 >= 0 else b) + c1
        hi = c2 * (b if c2 >= 0 else a) + c1
        c0 <<= 2 * k
        return (lo * (a if lo >= 0 else b) + c0,
                hi * (b if hi >= 0 else a) + c0, k)

    def sign(self, num) -> int:
        """The exact sign of the value of num (over any positive
        denominator): the enclosure at the interval of r, with r refined to
        twice its bits plus 8 while it straddles 0.

        The loop ends.  A rational value's sign is that of its constant
        term.  A numerator with an r- or r^2-term is irrational, as the
        minimal polynomial is irreducible, so it is nonzero, and its
        enclosure shrinks onto its value as the interval of r does."""
        if not (num[1] or num[2]):
            c = num[0]
            return (c > 0) - (c < 0)
        while True:
            lo, hi, _ = self._enclose(num)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine_to(2 * max(self.bits, 0) + 8)

    def floor(self, num, den: int = 1, shift: int = 0) -> int:
        """floor(2^shift times the value of num over the positive
        denominator den), exact at any refinement of r: the floor of the
        enclosure's ends, where they agree, and else _slow_floor, which
        refines r until it decides."""
        lo, hi, k = self._enclose(num)
        scale = den << 2 * k
        if shift >= 0:
            lo, hi = lo << shift, hi << shift
        else:
            scale <<= -shift
        n = lo // scale
        if hi // scale == n:
            return n
        return self._slow_floor(num, den, shift)

    def _slow_floor(self, num, den: int, shift: int) -> int:
        """floor(), refining r, with num and den first divided by gcd(den,
        *num) so that the refinements depend on the value alone: until the
        enclosure, rounded outward, spans at most one unit (an irrational
        value lies strictly inside it, a rational one's is the value), or
        is 2^-8 wide and sign() puts the value on one side of the one
        integer inside.  The loop ends: each refinement asks r for the bits
        that narrow the scaled enclosure to about 2^-10, at least two more
        while it is wider than 2^-8, and it narrows as r's does."""
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        up, down = 1 << max(shift, 0), 1 << max(-shift, 0)
        while True:
            lo, hi, k = self._enclose(num)
            scale = (den << 2 * k) * down
            n = lo * up // scale
            if -(-hi * up // scale) - n <= 1:
                return n
            spread = (hi - lo) * up
            if spread << 8 <= scale:
                # 2^-8 wide: n + 1 is the one integer inside
                s = self.sign((num[0] * up - (n + 1) * down * den,
                               num[1] * up, num[2] * up))
                return n + (s >= 0)
            self.refine_to(self.bits + spread.bit_length()
                           - scale.bit_length() + 10)

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from hesslab.exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    char_poly,
    count_real_roots,
    discriminant,
    factor_small,
)
from hesslab.gauss2 import Period
from hesslab.hessenberg import FamilyPoint, HessType, family_member


def band_cell(m, n):
    """The member at (m, n) of the criterion-9 family <0,1|1,0,2>, anchor
    1,0,1."""
    t = HessType.parse("<0,1|1,0,2>")
    return family_member(FamilyPoint(t, IntVector((1, 0, 1)), (m, n)))


def criterion9_nrs_cells():
    """The matrices of the NRS cells of the two criterion-9 windows,
    <0,1|0,0,1> at anchor 1,0,0 and <0,1|1,0,2> at anchor 1,0,1, with m and
    n in [-20, 20]: 838 cells."""
    for t, anchor in (("<0,1|0,0,1>", (1, 0, 0)), ("<0,1|1,0,2>", (1, 0, 1))):
        for mn in ((m, n) for m in range(-20, 21) for n in range(-20, 21)):
            mat = family_member(FamilyPoint(HessType.parse(t),
                                            IntVector(anchor), mn))
            p = char_poly(mat)
            if len(factor_small(p)) == 1 and discriminant(p) < 0:
                yield mat


def shear(n, i, j, k):
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][j] = k
    return IntMatrix(rows)


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    """Product of integer shears and coordinate swaps; always det +-1."""
    m = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        m = m * shear(n, i, j, rng.randint(-3, 3))
    return m


def pin_conjugates():
    """40 seeded conjugates u^-1 M1 u, u from random_unimodular, M1 = 0 1 2;
    1 0 0; 0 3 5: the inputs of the output pins."""
    m1 = IntMatrix([[0, 1, 2], [1, 0, 0], [0, 3, 5]])
    rng = random.Random(32)
    return [u.inverse_unimodular() * m1 * u
            for u in (random_unimodular(rng, 3) for _ in range(40))]


def continuant_matrix(entries):
    """prod R^a L^b ... for the even period (a1, ..., a2k)."""
    r = IntMatrix([[1, 1], [0, 1]])
    l = IntMatrix([[1, 0], [1, 1]])
    out = IntMatrix.identity(2)
    for i, a in enumerate(entries):
        g = r if i % 2 == 0 else l
        out = out * (g ** a)
    return out


def cf_by_seen_states(p, q, disc):
    """The regular continued fraction of x = (p + sqrt(disc)) / q, disc > 0
    not a square and q | disc - p^2, walked by storing every complete
    quotient (p, q) until one recurs: (quotients, start, (p, q)), where the
    recurring quotient (p, q) has index start and the period is
    quotients[start:]."""
    root = math.isqrt(disc)
    seen = {}
    quotients = []
    while (p, q) not in seen:
        seen[p, q] = len(quotients)
        k = (p + root + (q < 0)) // q  # floor((p + sqrt(disc)) / q)
        quotients.append(k)
        p = k * q - p
        q = (disc - p * p) // q
    return quotients, seen[p, q], (p, q)


def period_by_seen_states(m):
    """The sail period of m by the walk that stores every complete quotient
    of the fixed point (a - d + sqrt(D)) / 2c of g = +-m (positive trace)
    until one recurs: the test oracle of gauss2.sail_period, with the same
    ExactError messages.  The cycle is rotated by one place when its start
    index plus [c < 0] is even, doubled when odd, repeated k times when the
    continuant traces reach |tr| at the k-th, and read from its
    lexicographically largest even rotation."""
    if m.n != 2:
        raise ExactError("sail_period requires a 2x2 matrix")
    if leibniz_det(m.rows) != 1:
        raise ExactError("matrix is not in SL(2,Z)")
    (a, _), (c, d) = m.rows
    tr = a + d
    if abs(tr) <= 2:
        raise ExactError("sail periods require |trace| > 2")
    if tr < 0:
        a, c, d = -a, -c, -d
    quotients, start, _ = cf_by_seen_states(a - d, 2 * c, tr * tr - 4)
    cycle = quotients[start:]
    if (start + (c < 0)) % 2 == 0:
        cycle = cycle[1:] + cycle[:1]
    if len(cycle) % 2:
        cycle = cycle + cycle
    t1 = continuant_matrix(cycle).trace()
    prev, cur, reps = 2, t1, 1
    while cur < abs(tr):
        prev, cur, reps = cur, t1 * cur - prev, reps + 1
    if cur != abs(tr):
        raise ExactError("trace is not a continuant trace of the period")
    entries = cycle * reps
    return Period(max(tuple(entries[i:] + entries[:i])
                      for i in range(0, len(entries), 2)))


@st.composite
def unimodular_matrices(draw, n=3, steps=6):
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return random_unimodular(random.Random(seed), n, steps)


@st.composite
def small_matrices(draw, n=3, lo=-9, hi=9):
    rows = draw(st.lists(
        st.lists(st.integers(min_value=lo, max_value=hi),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))
    return IntMatrix(rows)


@st.composite
def nonzero_vectors(draw, n=3, lo=-20, hi=20):
    coords = draw(st.lists(st.integers(min_value=lo, max_value=hi),
                           min_size=n, max_size=n)
                  .filter(lambda c: any(c)))
    return IntVector(coords)


def num_sum(*nums):
    """The termwise sum of numerators over Z[r], tuples of integer
    coefficients of 1, r, r^2, ..."""
    return tuple(map(sum, zip(*nums)))


def num_times(num, c):
    return tuple(a * c for a in num)


class RealRoot:
    """A real root of an integer polynomial, held as a shrinking isolating
    interval (a/2^k, b/2^k) with integers a < b and k >= 0, plus the sign
    of the polynomial at the left end: the test oracle of NumberField's
    refinement, with the same steps written as Horner loops over any
    degree."""

    __slots__ = ("poly", "a", "b", "k", "sign_a")

    def __init__(self, poly: IntPoly, a: int, b: int, k: int = 0):
        """The root of poly in (a/2^k, b/2^k), once exact signs of poly at
        the ends differ; else ExactError."""
        self.poly, self.a, self.b, self.k = poly, a, b, k
        self.sign_a = self._sign_at(a, k)
        if self.sign_a == 0:
            raise ExactError("isolating interval endpoint hits the root")
        if self.sign_a * self._sign_at(b, k) > 0:
            raise ExactError("interval does not isolate a sign change")

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


def root_ends(root):
    """The ends a / 2^k and b / 2^k of the isolating interval of r held by
    a NumberField or a RealRoot, as Fractions."""
    return Fraction(root.a, 1 << root.k), Fraction(root.b, 1 << root.k)


def field_bounds(field, num, den=1, shift=0):
    """The floor and the ceiling of 2^shift times the value of num over den,
    from NumberField.floor: the ceiling is -floor(-num)."""
    return (field.floor(num, den, shift),
            -field.floor(num_times(num, -1), den, shift))


def leibniz_det(rows):
    """Determinant by the permutation expansion, independent of the
    library's elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def isolate_real_roots(p: IntPoly):
    """Disjoint open isolating intervals for all real roots, left to right,
    by bisection on integer Sturm counts: the oracle's root isolation.

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


def adjugate_coeffs(m: IntMatrix):
    """Matrix coefficients omega_0,1,2 with adj(M - t I) = sum omega_k t^k.

    By Cayley-Hamilton, omega_0 = M^2 - tr(M) M + c1 I = adj(M),
    omega_1 = M - tr(M) I and omega_2 = I, with c1 the sum of the
    principal 2-minors of M, the coefficient of t in p.
    """
    ident = IntMatrix.identity(3)
    return m.adjugate(), m - ident.scale(m.trace()), ident


class PolyModField:
    """Plain Fraction-polynomial oracle for Q(r) = Q[t]/(minpoly): schoolbook
    products with long division, extended Euclid for inverses, and signs
    and floors from Fraction bisection of the root with interval Horner
    evaluation."""

    def __init__(self, minpoly, lo, hi):
        self.p = [Fraction(c) for c in minpoly]
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        self.d = len(minpoly) - 1

    def _rem(self, a):
        a = list(a)
        for i in range(len(a) - 1, self.d - 1, -1):
            f = a[i] / self.p[-1]
            for j, c in enumerate(self.p):
                a[i - self.d + j] -= f * c
        return (a + [Fraction(0)] * self.d)[:self.d]

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b):
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return self._rem(prod)

    def inverse(self, a):
        def trim(c):
            c = list(c)
            while len(c) > 1 and c[-1] == 0:
                c.pop()
            return c

        def divmod_poly(num, den):
            num, q = list(num), [Fraction(0)] * max(1, len(num) - len(den) + 1)
            for i in range(len(num) - len(den), -1, -1):
                q[i] = num[i + len(den) - 1] / den[-1]
                for j, c in enumerate(den):
                    num[i + j] -= q[i] * c
            return q, trim(num[:len(den) - 1] or [Fraction(0)])

        def mul_poly(x, y):
            out = [Fraction(0)] * (len(x) + len(y) - 1)
            for i, u in enumerate(x):
                for j, v in enumerate(y):
                    out[i + j] += u * v
            return out

        r0, r1 = trim(self.p), trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r2 = divmod_poly(r0, r1)
            qs = mul_poly(q, s1)
            s2 = [(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
                  for i in range(max(len(s0), len(qs)))]
            r0, r1, s0, s1 = r1, r2, s1, s2
        assert r1[0] != 0
        return self._rem([c / r1[0] for c in s1])

    def _enclose(self, a):
        lo = hi = Fraction(0)
        for c in reversed(a):
            products = (lo * self.lo, lo * self.hi, hi * self.lo, hi * self.hi)
            lo, hi = min(products) + c, max(products) + c
        return lo, hi

    def _bisect(self):
        def ev(x):
            return sum(c * x ** i for i, c in enumerate(self.p))
        mid = (self.lo + self.hi) / 2
        if ev(self.lo) * ev(mid) < 0:
            self.hi = mid
        else:
            self.lo = mid

    def sign(self, a):
        if not any(a):
            return 0
        while True:
            lo, hi = self._enclose(a)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._bisect()

    def floor(self, a, shift=0):
        """floor(value * 2^shift): bisect until both ends of the enclosure
        have one floor, which ends for an irrational value, as the
        enclosure shrinks onto it, and at once for a rational one, whose
        enclosure is the value."""
        scale = Fraction(2) ** shift
        while True:
            lo, hi = self._enclose(a)
            n = math.floor(lo * scale)
            if math.floor(hi * scale) == n:
                return n
            self._bisect()

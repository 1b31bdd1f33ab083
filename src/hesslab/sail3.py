"""Klein-Voronoi continued fractions for SL(3,Z) NRS operators.

An NRS operator has one real eigenvalue r and a complex conjugate pair.
The cone pi_+ is a half-plane with coordinates (x, y): x along the real
eigenvector, y the torus-orbit radius.  Both are carried exactly: x lives
in Q(r) and y is stored through its square y_sq in Q(r) (a fixed positive
multiple of the true squared radius; convex hulls in (x, y) are invariant
under positive axis scalings, so the scale never matters).

eigen_data compiles an operator once, in integers, into tables over the
power basis 1, r, r^2 of Q(r), from the coefficients of its
characteristic polynomial (NOTES.md, "Closed forms over Z[r]"): r is
isolated on (0, 1 + max |c_i|) with no Sturm chain, F = y_sq is a
closed-form table over Z[r] of the six monomials f_a f_b of the omega rows
f = (f_0, f_1, f_2), and x is a 3x3 table over one denominator, from the
adjugate of one integer multiplication matrix.  x(v) and F(v) are integer
dot products.  Every floor the slab takes goes from those numerators
through _floor, which needs a FieldElement only where r's interval leaves
the floor open; a FieldElement is kept only for a value that is compared
exactly, such as a slab's x(p) and f_max or a PiPoint.  The slab
enumeration walks the basis coordinates level by level, in ranges from
one integer quadratic form made of the floors its leaf filter takes, in
Python integers.  Every sign, order and orientation is decided on
integer floors at 2^b with a proven error, and in Q(r) where that leaves
it open: slab membership and signs of x(v) on the floors of 2^40 x,
orders and hull orientations of projected points on the floors and
ceilings of 2^20 x, 2^20 y_sq and 2^20 y that each point keeps.

fundamental_window is the one place that knows which of M and M^-1
expands x; its window is anchored at the fundamental slab's seed, so it
holds every slab point.  The reducedness verdict, where the content of the
MD form leaves it open, and the fingerprint share its points and its
window, and compute_sail, which builds the sail's hull from them, serves
only the `sail` command.  require_nrs is the one check that an operator is
NRS in SL(3,Z), and the one maker of an NrsCheck: eigen_data and
fundamental_window take that handle, with the matrix, its characteristic
polynomial and its MD form, and not the bare matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    char_poly,
    count_real_roots,
    det,
    discriminant,
)
from .mdchar import MDForm3, md_form3
from .numberfield import FieldElement, NumberField, RealRoot, _horner_interval

# bits of the PiPoint boxes
_BOX_BITS = 20
# bits of the integer filters of x(v) and of the slab's cuts
_FILTER_BITS = 40
# enumeration nodes of one slab before it is Inconclusive
NODE_BUDGET = 40_000_000


class SailError(ExactError):
    pass


class Inconclusive(SailError):
    """Raised when a certified computation exceeds its node budget or fails
    one of its own consistency checks."""


class NrsCheck(NamedTuple):
    """An NRS operator in SL(3,Z), with its characteristic polynomial and
    its MD form; only require_nrs makes one."""

    matrix: IntMatrix
    poly: IntPoly
    md: MDForm3


def require_nrs(m: IntMatrix) -> NrsCheck:
    """The NrsCheck of m, once m is known to be an NRS operator in SL(3,Z),
    else SailError.  Every sail route starts from it."""
    if m.n != 3:
        raise SailError("sails are implemented for 3x3 operators only")
    if det(m) != 1:
        raise SailError("matrix is not in SL(3,Z)")
    p = char_poly(m)
    # monic with constant term -det = -1: a rational root divides 1
    if p(1) == 0 or p(-1) == 0:
        raise SailError("characteristic polynomial is reducible")
    if discriminant(p) >= 0:
        raise SailError("matrix has real spectrum (RS); sails unsupported")
    return NrsCheck(m, p, md_form3(m))


@dataclass
class EigenData3:
    """Exact eigen data of an NRS operator, compiled for x and F.

    The characteristic polynomial is p = t^3 + c2 t^2 + c1 t - 1, and r its
    one real root.  The coordinate x is the linear form x_form, row 0 of
    adj(M - rI) divided once by its entry at (0, 0).  The elementary
    symmetric functions s = c + conj(c) = -c2 - r and q = c conj(c) = 1 / r
    of the complex pair fold the complex coordinate modulus into Q(r):
    with f = omega_rows v, F(v) = f_0^2 + f_0 f_1 s + f_0 f_2 (s^2 - 2q) +
    f_1^2 q + f_1 f_2 sq + f_2^2 q^2.

    The compiled tables hold the same values as integers over the power
    basis 1, r, r^2, one row per power r^k: x_table[k][j] is the
    coefficient of r^k in x_form[j] over the denominator x_den, so the
    coefficient of r^k in x(v) is x_table[k] . v / x_den; f_table[k] holds
    the coefficients of r^k in the six constants 1, s, s^2 - 2q, q, sq, q^2
    (the multipliers of the monomials f_0^2, f_0 f_1, f_0 f_2, f_1^2,
    f_1 f_2, f_2^2), which all lie in Z[r] (NOTES.md, "Closed forms over
    Z[r]").
    """

    matrix: IntMatrix
    md: MDForm3  # fundamental_slab compares seeds by |md|
    inverse: IntMatrix  # adj(M), as det M = 1
    field: NumberField
    r: FieldElement
    x_form: Tuple[FieldElement, FieldElement, FieldElement]
    x_floor: Tuple[int, int, int]  # floor(2^40 x_form[i]), for _x_sign
    omega_rows: Tuple[Tuple[int, ...], ...]  # row 0 of omega_0, 1 and 2
    x_table: Tuple[Tuple[int, int, int], ...]
    x_den: int
    f_table: Tuple[Tuple[int, ...], ...]


def _adjugate_coeffs(m: IntMatrix):
    """Matrix coefficients omega_0,1,2 with adj(M - t I) = sum omega_k t^k.

    By Cayley-Hamilton, omega_0 = M^2 - tr(M) M + c1 I = adj(M),
    omega_1 = M - tr(M) I and omega_2 = I, with c1 the sum of the
    principal 2-minors of M, the coefficient of t in p.
    """
    ident = IntMatrix.identity(3)
    return m.adjugate(), m - ident.scale(m.trace()), ident


def _quadratic(f_table, f0: int, f1: int, f2: int) -> tuple:
    """The coefficients of 1, r, r^2 in F at the omega-row values (f0, f1,
    f2), from the compiled table."""
    mono = (f0 * f0, f0 * f1, f0 * f2, f1 * f1, f1 * f2, f2 * f2)
    return tuple(sum(map(operator.mul, mono, row)) for row in f_table)


def _mult_matrix(b, c1: int, c2: int) -> IntMatrix:
    """The matrix of multiplication by b_0 + b_1 r + b_2 r^2 on the power
    basis, reduced by r^3 = 1 - c1 r - c2 r^2."""
    def times_r(v):
        return v[2], v[0] - c1 * v[2], v[1] - c2 * v[2]
    rb = times_r(b)
    return IntMatrix(zip(b, rb, times_r(rb)))


def eigen_data(nrs: NrsCheck) -> EigenData3:
    """The eigen data of the operator of `nrs`, in integers from the
    coefficients of p = t^3 + c2 t^2 + c1 t - 1 (NOTES.md, "Closed forms
    over Z[r]"): r is isolated on (0, 1 + max |c_i|), f_table is the
    closed form of the six constants, and x_form is row 0 of adj(M - rI)
    over its entry b(r) at (0, 0), b(t) = t^2 + omega_1[0, 0] t +
    omega_0[0, 0], through the adjugate of the integer matrix of
    multiplication by b(r).  b(r) is nonzero, and so is F at row 0's entry
    (0, 0), |b(c)|^2 at a complex eigenvalue c: b is monic of degree 2,
    and r and c have degree 3."""
    m, p, md = nrs
    _, c1, c2, _ = p.coeffs
    field = NumberField(p, RealRoot(p, 0, 1 + max(map(abs, p.coeffs[:-1]))))
    a0, w1, w2 = _adjugate_coeffs(m)
    omega_rows = (a0.rows[0], w1.rows[0], w2.rows[0])
    # adj(B) = d B^-1, with B the multiplication by b(r) and d = det B, is
    # the multiplication by d / b(r): applied to the coefficients of row 0,
    # it gives d times x_form, column by column
    mult = _mult_matrix((a0[0, 0], w1[0, 0], 1), c1, c2)
    d = det(mult)
    rows = (mult.adjugate() * IntMatrix(omega_rows)).rows
    g = math.gcd(d, *itertools.chain(*rows)) * (1 if d > 0 else -1)
    x_table, x_den = tuple(tuple(c // g for c in row) for row in rows), d // g
    x_nums = tuple(zip(*x_table))
    s2 = c2 * c2
    f_table = ((1, -c2, s2 - 2 * c1, c1, -c1 * c2 - 1, c1 * c1 + c2),
               (0, -1, 0, c2, -s2, c1 * c2 + 1),
               (0, 0, -1, 1, -c2, c1))
    return EigenData3(m, md, a0, field, field.gen(),
                      tuple(FieldElement(field, c, x_den) for c in x_nums),
                      tuple(_floor(field, c, x_den, _FILTER_BITS)
                            for c in x_nums),
                      omega_rows, x_table, x_den, f_table)


@dataclass(frozen=True)
class PiPoint:
    preimage: IntVector
    x: FieldElement
    y_sq: FieldElement

    @functools.cached_property
    def box(self) -> Tuple[int, int, int, int]:
        """(x_lo, x_hi, y_sq_lo, y_sq_hi): the integer bounds of 2^20 x and
        2^20 y_sq (FieldElement.bounds), computed once."""
        return self.x.bounds(_BOX_BITS) + self.y_sq.bounds(_BOX_BITS)

    @functools.cached_property
    def y_box(self) -> Tuple[int, int]:
        """(y_lo, y_hi): integer bounds of 2^20 y, y = sqrt(y_sq), the
        integer square roots of 2^20 times box's bounds of 2^20 y_sq."""
        lo, hi = (b << _BOX_BITS for b in self.box[2:])
        return math.isqrt(lo), _sqrt_upper(Fraction(hi)).numerator


def _floor(field: NumberField, num, den: int, shift: int) -> int:
    """floor(2^shift (num . (1, r, r^2)) / den), exactly: from the Horner
    enclosure at r's current interval when both its ends have that floor,
    else from FieldElement.floor, which refines r."""
    root = field.root
    lo, hi = _horner_interval(num, root.a, root.b, root.k)
    scale = den << (root.k * (len(num) - 1))
    if shift >= 0:
        lo, hi = lo << shift, hi << shift
    else:
        scale <<= -shift
    n = lo // scale
    if hi // scale == n:
        return n
    return FieldElement(field, num, den).floor(shift)


def _x_num(e: EigenData3, v) -> tuple:
    """The coefficients of 1, r, r^2 in x(v) times x_den."""
    a, b, c = v[0], v[1], v[2]
    return tuple(a * t0 + b * t1 + c * t2 for t0, t1, t2 in e.x_table)


def _x_coord(e: EigenData3, v: IntVector) -> FieldElement:
    return FieldElement(e.field, _x_num(e, v), e.x_den)


def _omega(e: EigenData3, v) -> list:
    return [w[0] * v[0] + w[1] * v[1] + w[2] * v[2] for w in e.omega_rows]


def _y_sq(e: EigenData3, v: IntVector) -> FieldElement:
    return FieldElement(e.field, _quadratic(e.f_table, *_omega(e, v)))


def project_pi(e: EigenData3, v: IntVector) -> PiPoint:
    if not isinstance(v, IntVector):
        v = IntVector(v)
    return PiPoint(v, _x_coord(e, v), _y_sq(e, v))


def verify_dirichlet_element(m: IntMatrix, x: IntMatrix) -> bool:
    """Membership test for the Dirichlet group of m: commutes with m, has
    determinant one, and all its real eigenvalues are positive."""
    if m.n != x.n:
        return False
    if m * x != x * m:
        return False
    if det(x) != 1:
        return False
    return count_real_roots(char_poly(x), None, 0) == 0


def _orientation(p1: PiPoint, p2: PiPoint, p3: PiPoint) -> int:
    """Sign of the cross product (p2-p1) x (p3-p1) in the (x, y) chart, for
    points in strictly ascending x, as _pareto_filter returns them: with a =
    x3 - x2 > 0 and b = x2 - x1 > 0, the sign of a y1 + b y3 - (a + b) y2.

    The integer filter evaluates 2^40 times that sum over the points'
    bounds of 2^20 x (box) and 2^20 y (y_box), in integer interval
    arithmetic, so the interval it builds contains the exact value.  It
    decides when the interval lies strictly on one side of 0; otherwise the
    chord test decides in Q(r).  Both a y1 + b y3 and (a + b) y2 are >= 0,
    so the sign is that of the difference of their squares, 2 a b y1 y3 -
    D with D = (a + b)^2 F2 - a^2 F1 - b^2 F3 (F = y^2): +1 when D < 0, and
    else -sign(D^2 - 4 a^2 b^2 F1 F3), comparing the squares again
    (NOTES.md, "Hull orientation by the chord test").
    """
    lo = hi = 0
    for u, v, w in ((p2, p1, p3), (p1, p3, p2), (p3, p2, p1)):
        # the term (x_u - x_v) * y_w
        d_lo, d_hi = u.box[0] - v.box[1], u.box[1] - v.box[0]
        y_lo, y_hi = w.y_box
        lo += d_lo * (y_lo if d_lo >= 0 else y_hi)
        hi += d_hi * (y_hi if d_hi >= 0 else y_lo)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    a, b = p3.x - p2.x, p2.x - p1.x
    d = (a + b) * (a + b) * p2.y_sq - a * a * p1.y_sq - b * b * p3.y_sq
    if d.sign() < 0:
        return 1
    ab = a * b
    return -(d * d - 4 * ab * ab * p1.y_sq * p3.y_sq).sign()


def _box_sign(a_lo, a_hi, b_lo, b_hi) -> int:
    """1 or -1 when [a_lo, a_hi] lies wholly above or below [b_lo, b_hi],
    else 0."""
    return (b_hi < a_lo) - (a_hi < b_lo)


def _x_cmp(p: PiPoint, q: PiPoint) -> int:
    """The sign of x(p) - x(q): from the points' boxes where these are
    disjoint, else in Q(r)."""
    return _box_sign(p.box[0], p.box[1], q.box[0], q.box[1]) or p.x.cmp(q.x)


def _y_cmp(p: PiPoint, q: PiPoint) -> int:
    """The sign of y_sq(p) - y_sq(q), decided as _x_cmp decides x."""
    return _box_sign(p.box[2], p.box[3], q.box[2], q.box[3]) \
        or p.y_sq.cmp(q.y_sq)


_X_ORDER = functools.cmp_to_key(_x_cmp)


def _pareto_filter(points: List[PiPoint]) -> List[PiPoint]:
    """The points that no other point weakly dominates in (x, y_sq), in
    ascending x, each once.

    Hull vertices of a point set with positive-quadrant recession cone
    survive: in x order, p is dropped when the last point q kept, whose
    y_sq is the least so far, has y_sq(q) <= y_sq(p), so that p lies in
    q + R_+^2.  Both orders are decided exactly, and distinct integer
    vectors have distinct x, since x vanishes on no nonzero integer vector.
    """
    out = []
    for p in sorted(points, key=_X_ORDER):
        if not out or _y_cmp(out[-1], p) > 0:
            out.append(p)
    return out


@dataclass(frozen=True)
class SailData:
    operator: IntMatrix
    vertices: Tuple[PiPoint, ...]          # hull vertices, x ascending
    generator: IntMatrix
    fundamental: Tuple[int, ...]           # indices into vertices

    def to_json(self) -> list:
        out = []
        fund = set(self.fundamental)
        for i, p in enumerate(self.vertices):
            # 10^9 x lies in [x_lo, x_hi] and 10^18 y_sq in [f, c], c <= f + 1,
            # so 10^9 y lies in [isqrt(f), isqrt(f) + 1], and is isqrt(f)
            # when f = c is a square
            x_lo, x_hi = (p.x * 10 ** 9).bounds()
            f, c = (p.y_sq * 10 ** 18).bounds()
            y_lo = math.isqrt(f)
            y_hi = y_lo + (f != c or y_lo * y_lo != f)
            out.append({
                "preimage": list(p.preimage),
                "x": [_dec(Fraction(x_lo, 10 ** 9)),
                      _dec(Fraction(x_hi, 10 ** 9))],
                "y": [_dec(Fraction(y_lo, 10 ** 9)),
                      _dec(Fraction(y_hi, 10 ** 9))],
                "is_fundamental": i in fund,
            })
        return out


def _sqrt_upper(x: Fraction) -> Fraction:
    """ceil(sqrt(n d)) / d >= sqrt(x) for x = n / d >= 0."""
    nd = x.numerator * x.denominator
    s = math.isqrt(nd)
    return Fraction(s + (s * s < nd), x.denominator)


def _dec(x: Fraction) -> str:
    """x to 9 decimals, rounded half to even, with its sign."""
    n = round(abs(x) * 10 ** 9)
    return "%s%d.%09d" % ("-" if x < 0 else "", n // 10 ** 9, n % 10 ** 9)


def _x_sum(e: EigenData3, v: IntVector) -> int:
    """sum v_i X_i with X_i = x_floor[i]: 2^40 x_form[i] lies in [X_i,
    X_i + 1), so the sum is within sum |v_i| of 2^40 x(v), strictly."""
    x0, x1, x2 = e.x_floor
    return v[0] * x0 + v[1] * x1 + v[2] * x2


def _x_sign(e: EigenData3, v: IntVector) -> int:
    """The sign of x(v): that of _x_sum where its magnitude is at least
    its error bound sum |v_i|, the bound of gamma0_slab_points' filter;
    any other is decided in Q(r)."""
    s = _x_sum(e, v)
    if abs(s) >= abs(v[0]) + abs(v[1]) + abs(v[2]):
        return (s > 0) - (s < 0)
    return _x_coord(e, v).sign()


def _positive(e: EigenData3, v: IntVector) -> IntVector:
    """v or -v, whichever has positive x (x vanishes on no nonzero integer
    vector, since the real eigenvalue is irrational)."""
    return -v if _x_sign(e, v) < 0 else v


def _integral_lll(gram):
    """Rows of a unimodular integer matrix, LLL-reduced (delta = 3/4) for
    the integer Gram matrix `gram` (3x3).

    Cohen's all-integer form (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): d[i] is the Gram determinant of the first i rows
    and lam[k][j] = d[j+1] * mu_kj, so every quantity is an integer and
    every division exact.  A Gram determinant d[i] <= 0 means `gram` is
    not positive definite, where the swaps need not terminate; it raises
    Inconclusive.
    """
    b = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lam = [[0] * 3 for _ in range(3)]
    d = [1, 0, 0, 0]

    def dot(u, v):
        return sum(ui * (row[0] * v[0] + row[1] * v[1] + row[2] * v[2])
                   for ui, row in zip(u, gram))

    def gram_schmidt(k):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise Inconclusive("slab metric is not positive definite")
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        mu = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k + 1]
        d[k] = new

    gram_schmidt(0)
    k, k_max = 1, 0
    while k < 3:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


@dataclass(frozen=True)
class Slab:
    """The slab {x between x(p) and x(Mp), F <= f_max = max(F(p), F(Mp))}
    of a seed p, with an integral-LLL basis (rows of a unimodular matrix),
    x(p), f_max and the floors of their log2."""

    seed: IntVector
    basis: Tuple[Tuple[int, int, int], ...]
    x_p: FieldElement
    f_max: FieldElement
    logs: Tuple[int, int]


_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _polar_nums(e: EigenData3, rows) -> List[tuple]:
    """The coefficients of 1, r, r^2 in 2 Phi(b_k, b_l), Phi the polar form
    of F, for the rows b and the pairs (k, l) of _PAIRS, from the compiled
    table."""
    fs = [_omega(e, b) for b in rows]
    out = []
    for k, l in _PAIRS:
        (f0, f1, f2), (g0, g1, g2) = fs[k], fs[l]
        mono = (2 * f0 * g0, f0 * g1 + f1 * g0, f0 * g2 + f2 * g0,
                2 * f1 * g1, f1 * g2 + f2 * g1, 2 * f2 * g2)
        out.append(tuple(sum(map(operator.mul, mono, row))
                         for row in e.f_table))
    return out


def _log2_floor(a: FieldElement) -> int:
    """floor(log2 a), exactly, from the first nonzero floor n of 2^shift a,
    shift = 0, 64, 128, 256, ...  A floor n >= 1 puts 2^shift a in [n,
    n + 1), which lies in [2^k, 2^(k+1)) for k = n.bit_length() - 1, so
    the answer is k minus the shift at any such shift; doubling reaches
    one in O(log shift) floors.  For a > 0 the floor is nonzero once
    2^shift a >= 1, so the loop ends; a <= 0, which the slab's x(p) and
    f_max never are, is Inconclusive."""
    field, num, den = a.field, a.num, a.den
    shift, n = 0, _floor(field, num, den, 0)
    while n == 0 and any(num):
        shift = max(2 * shift, 64)
        n = _floor(field, num, den, shift)
    if n <= 0:
        raise Inconclusive("slab metric is not positive definite")
    return n.bit_length() - 1 - shift


def reduced_slab(e: EigenData3, p: IntVector, start=None) -> Slab:
    """The slab of p, reduced from the basis rows `start` (the identity by
    default).

    Gamma^0(p) sits inside the slab (x is linear and F convex), a needle
    that an integral LLL basis of the metric x^2 / h^2 + F / f_max, h =
    |x(Mp) - x(p)| / 2, makes short in every basis coordinate.  Scaled,
    with x(p) and f_max rounded down to powers of 2, the metric is x(u)
    x(v) / x(p)^2 + (r - 1)^2 / 8 * 2 Phi(u, v) / f_max; its Gram matrix is
    made from the floors of x, (r - 1)^2 / 8 and 2 Phi at 2^b, a function
    of p and `start` alone however far r is refined, and rounding affects
    only the basis quality.

    b starts at 62, and doubles while the integral LLL rejects the Gram
    matrix.  That ends: 2^-b times the Gram matrix tends to the exact
    metric, which is positive definite, as x^2 has rank 1, F rank 2, and
    eigen_data's checks make their kernels meet only in 0 (NOTES.md, "The
    slab metric is positive definite").
    """
    x_p = _x_coord(e, p)
    if x_p.sign() <= 0:
        raise SailError("slab seed must have positive x coordinate")
    rows = tuple(map(tuple, start or IntMatrix.identity(3).rows))
    # f_max = max(F(p), F(Mp)), as F(Mp) = F(p) / r
    f_max = _y_sq(e, p if (e.r - 1).sign() > 0 else e.matrix * p)
    sx, sf = -_log2_floor(x_p), -_log2_floor(f_max)
    field, x_den = e.field, e.x_den
    xs = [_x_num(e, c) for c in rows]
    polar = _polar_nums(e, rows)
    bits = 62
    while True:
        x = [_floor(field, a, x_den, sx + bits) for a in xs]
        # (r - 1)^2 = 1 - 2 r + r^2
        b = _floor(field, (1, -2, 1), 1, bits - 3)
        g = [(x[k] * x[l] + b * _floor(field, a, 1, sf + bits)) >> bits
             for (k, l), a in zip(_PAIRS, polar)]
        try:
            h = _integral_lll([g[0:3], [g[1], g[3], g[4]], [g[2], g[4], g[5]]])
            return Slab(p, tuple(tuple(sum(map(operator.mul, hk, col))
                                       for col in zip(*rows)) for hk in h),
                        x_p, f_max, (-sx, -sf))
        except Inconclusive:
            bits *= 2


def _span(alpha: int, beta: int, gamma: int) -> range:
    """The integers u from -floor((beta + s) / alpha) to floor((s - beta) /
    alpha), s = isqrt(beta^2 - alpha gamma): a superset of those with alpha
    u^2 + 2 beta u + gamma < 0, alpha > 0.  Those lie strictly between the
    roots (-beta -+ sqrt(D)) / alpha, D = beta^2 - alpha gamma, and sqrt(D)
    < s + 1, so alpha u < s + 1 - beta and alpha u > -beta - s - 1, that
    is alpha u <= s - beta and alpha u >= -beta - s in integers.  D <= 0
    leaves the form nonnegative, and the range empty."""
    d = beta * beta - alpha * gamma
    if d <= 0:
        return range(0)
    s = math.isqrt(d)
    return range(-((beta + s) // alpha), (s - beta) // alpha + 1)


def _eliminate(t, k: int):
    """The fraction-free Schur complement of t at the pivot t[k][k]: t_kk
    t_ij - t_ik t_kj over the indices other than k.  When t_kk > 0, for
    fixed other coordinates, the minimum over real u_k of the form u^T t u
    is that complement's value divided by t_kk."""
    keep = [i for i in range(len(t)) if i != k]
    return [[t[k][k] * t[i][j] - t[i][k] * t[k][j] for j in keep]
            for i in keep]


def gamma0_slab_points(e: EigenData3, slab: Slab) -> List[IntVector]:
    """The nonzero integer points of the slab, a certified superset of
    Gamma^0(slab.seed), in the lexicographic order of their basis
    coordinates u.

    The leaves u pass an integer filter with a proven bound: with X_i =
    floor(2^sx x(b_i)) and P_ij = floor(2^sf Phi(b_i, b_j)), xv = sum u_i
    X_i and fv = sum u_i u_j P_ij are within n and n^2 (n = sum |u_i|) of
    2^sx x(u B) and 2^sf F(u B); the leaves it cannot decide are decided
    in Q(r).  The same floors bound the leaves: every slab point has u^T T
    u < 0 for the integer form T on (u0, u1, u2, 1) below (NOTES.md,
    "Enumerating the slab"), and the levels u0, then u1 given u0, then u2
    given both, range over _span of T's fraction-free Schur complements.
    Raises Inconclusive when a pivot of T is not positive, when the ranges
    visited come to more than NODE_BUDGET nodes, or when p or Mp, both in the
    slab, is missing from the output.
    """
    p, basis, x_p, f_max = slab.seed, slab.basis, slab.x_p, slab.f_max
    field, x_den = e.field, e.x_den
    mp = e.matrix * p
    sx, sf = (_FILTER_BITS - k for k in slab.logs)
    x_lo, x_hi = sorted((_floor(field, x_p.num, x_p.den, sx),
                         _floor(field, _x_num(e, mp), x_den, sx)))
    f_hi = _floor(field, f_max.num, f_max.den, sf)
    xs = [_floor(field, _x_num(e, b), x_den, sx) for b in basis]
    p00, p01, p02, p11, p12, p22 = (_floor(field, a, 1, sf - 1)
                                    for a in _polar_nums(e, basis))

    # A (2 xv - c)^2 + B fv - 3 (8 A + B) |u|^2 - 3 A w^2 as u^T T u
    c, w = x_lo + x_hi + 1, x_hi + 1 - x_lo
    a, b = f_hi + 1, w * w
    pm = ((p00, p01, p02), (p01, p11, p12), (p02, p12, p22))
    t = [[4 * a * xs[i] * xs[j] + b * pm[i][j] - 3 * (8 * a + b) * (i == j)
          for j in range(3)] + [-2 * a * c * xs[i]] for i in range(3)]
    t.append([row[3] for row in t] + [a * (c * c - 3 * w * w)])
    t1 = _eliminate(t, 2)   # on (u0, u1, 1)
    t0 = _eliminate(t1, 1)  # on (u0, 1)
    if min(t[2][2], t1[1][1], t0[0][0]) <= 0:
        raise Inconclusive("slab form is not positive definite")
    (t00, t01, t02, t03), (_, t11, t12, t13), (_, _, t22, t23) = t[:3]
    t33 = t[3][3]
    nodes = 0

    def level(alpha, beta, gamma):
        nonlocal nodes
        span = _span(alpha, beta, gamma)
        nodes += len(span)
        if nodes > NODE_BUDGET:
            raise Inconclusive("slab enumeration exceeds %d nodes"
                               % NODE_BUDGET)
        return span

    x0, x1, x2 = xs
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = basis
    out = []
    for u0 in level(t0[0][0], t0[0][1], t0[1][1]):
        for u1 in level(t1[1][1], t1[1][0] * u0 + t1[1][2],
                        (t1[0][0] * u0 + 2 * t1[0][2]) * u0 + t1[2][2]):
            xa, na = u0 * x0 + u1 * x1, abs(u0) + abs(u1)
            fa = (u0 * p00 + 2 * u1 * p01) * u0 + u1 * u1 * p11
            fl = 2 * (u0 * p02 + u1 * p12)
            gamma = ((t00 * u0 + 2 * (t01 * u1 + t03)) * u0
                     + (t11 * u1 + 2 * t13) * u1 + t33)
            for u2 in level(t22, t02 * u0 + t12 * u1 + t23, gamma):
                n = na + abs(u2)
                xv, fv = xa + u2 * x2, fa + u2 * (fl + u2 * p22)
                if xv + n < x_lo or xv - n > x_hi or fv - n * n > f_hi:
                    continue
                v = IntVector((u0 * b00 + u1 * b10 + u2 * b20,
                               u0 * b01 + u1 * b11 + u2 * b21,
                               u0 * b02 + u1 * b12 + u2 * b22))
                if (xv - n > x_lo and xv + n < x_hi and fv + n * n < f_hi
                        or v == p or v == mp
                        or (_x_sign(e, v - p) * _x_sign(e, mp - v) >= 0
                            and _y_sq(e, v).cmp(f_max) <= 0)):
                    out.append(v)
    for end in {p, mp} - set(out):
        raise Inconclusive("slab enumeration lost its end %s" % (tuple(end),))
    return out


# a basis row replaces e1 as the seed only when its slab is this many
# times smaller: e1's slabs are tiny on the atlas families, and switching
# there costs a second reduction for nothing
_SEED_GAIN = 16


def fundamental_slab(e: EigenData3) -> Slab:
    """The slab of fundamental_window: that of e1 (up to sign), or, while
    a row of the current reduced basis has a slab at least _SEED_GAIN
    times smaller, that of the row with the smallest.

    A slab's volume is proportional to x(p) * F(p), and so to the integer
    |MD(p)|, MD(p) = det[p, Mp, M^2 p] (MD = K x F for one K in Q(r), see
    NOTES.md); e1's depends on the basis the input is written in.  A
    shortest vector v of any metric alpha X + beta F (X = x^2) has x(v) *
    F(v) <= C sqrt(det(X + F)), which no unimodular change of basis alters,
    so a short row of the basis bounds the slab whatever the input basis.
    Every integer vector with positive x spans one full period of x, so
    every G-orbit with positive x meets the slab; the choice moves the
    window and the cost, not the verdict's minimum or the fingerprint.  A
    row seed is re-reduced from the current basis (on long conjugators one
    step can leave 10^6 points); each step divides the positive integer
    |MD| of the seed by at least _SEED_GAIN, so the steps end, and the
    choice depends on the operator alone.
    """
    slab = reduced_slab(e, _positive(e, IntVector((1, 0, 0))))
    while True:
        cands = [slab.seed] + [_positive(e, IntVector(b)) for b in slab.basis]
        vols = [abs(e.md(v)) for v in cands]
        i = min((1, 2, 3), key=vols.__getitem__)
        if vols[i] * _SEED_GAIN > vols[0]:
            return slab
        slab = reduced_slab(e, cands[i], slab.basis)


@dataclass(frozen=True)
class FundamentalWindow:
    """The window of the fundamental slab's seed p and the slab points that
    the verdict, the fingerprint and the sail share.

    The generator G is the one of M and M^-1 that expands x; start is p
    when G = M and M p otherwise, so the closed window [x(start),
    x(G start)] has the ends x(p) and x(M p) in x order.  points are
    gamma0_slab_points of fundamental_slab: all of them lie in the closed
    window, and both start and G start are among them.
    """

    eigen: EigenData3
    generator: IntMatrix
    generator_inv: IntMatrix
    start: IntVector
    points: List[IntVector]


def fundamental_window(nrs: NrsCheck) -> FundamentalWindow:
    """The window of the fundamental slab of nrs's operator, with the points
    of that slab (Inconclusive past NODE_BUDGET enumeration nodes)."""
    e = eigen_data(nrs)
    m = nrs.matrix
    slab = fundamental_slab(e)
    points = gamma0_slab_points(e, slab)
    if (e.r - 1).sign() > 0:
        return FundamentalWindow(e, m, e.inverse, slab.seed, points)
    return FundamentalWindow(e, e.inverse, m, m * slab.seed, points)


def compute_sail(m: IntMatrix) -> SailData:
    """The sail vertices with x in [x(G^-1 p), x(G^2 p)], p the fundamental
    slab's seed, with those of fundamental_window's window [x(start),
    x(G start)) marked fundamental; G and the window are
    fundamental_window's (Inconclusive past NODE_BUDGET enumeration
    nodes).

    The window's slab points span one period of x.  Their Pareto-minimal
    points, with the G^-1 and G images of those, have a full period, and so
    a sail vertex, on each side of the window, so the vertices of their
    hull there are the sail's; their period consistency is verified, and
    their G-images fill the output range.
    """
    w = fundamental_window(require_nrs(m))
    e, g, g_inv = w.eigen, w.generator, w.generator_inv
    base = _pareto_filter([project_pi(e, v) for v in w.points])
    hull = _lower_hull(_pareto_filter(base + [
        project_pi(e, u) for p in base
        for u in (g_inv * p.preimage, g * p.preimage)]))

    x0, x1 = project_pi(e, w.start), project_pi(e, g * w.start)
    fund = [p for p in hull if _x_cmp(p, x0) >= 0 and _x_cmp(p, x1) < 0]
    hull_keys = {p.preimage for p in hull}
    if not fund or any(g * p.preimage not in hull_keys for p in fund):
        raise Inconclusive("sail period window failed the consistency check")

    # the output range is the window's G^-1, G^0 and G^1 images when
    # G = M (start = p), its G^0, G^1 and G^2 images when G = M^-1
    # (start = G^-1 p), and G^2 p where p is a vertex
    first = g_inv if g == m else IntMatrix.identity(3)
    level = [first * p.preimage for p in fund]
    preimages = []
    for _ in range(3):
        preimages += level
        level = [g * v for v in level]
    if fund[0].preimage == w.start:
        preimages.append(level[0])
    lo = len(fund) if g == m else 0
    return SailData(m, tuple(project_pi(e, v) for v in preimages), g,
                    tuple(range(lo, lo + len(fund))))


def _lower_hull(points: List[PiPoint]) -> List[PiPoint]:
    hull: List[PiPoint] = []
    for p in points:
        while len(hull) >= 2 and _orientation(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull

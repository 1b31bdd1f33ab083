"""Exact integer and rational linear algebra primitives.

Everything in this module works over arbitrary-precision integers (or
``fractions.Fraction`` where division is unavoidable); no floating point
arithmetic is used anywhere.  The central objects are square integer
matrices, integer vectors and monic integer polynomials of degree at most
four; their constructors take Python and numpy integers and refuse any
other entry rather than truncate it.  Lattice indices (the integer
volume of a set of vectors and the integer distance of a vector from
their span) are gcds of maximal minors.
Discriminants are closed forms in the coefficients, and real roots are
counted by integer Sturm chains of primitive pseudo-remainders.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


class ExactError(ValueError):
    """Raised on violated preconditions of exact-arithmetic operations."""


def _int_tuple(values: Iterable[int]) -> tuple:
    """The entries of values as Python ints, read through operator.index,
    which takes Python and numpy integers and truncates nothing; any other
    entry, a float or a Fraction, is an ExactError that names it."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            if not hasattr(type(v), "__index__"):
                raise ExactError("entry %r is not an integer" % (v,)) from None
        raise


# ---------------------------------------------------------------------------
# vectors and matrices


@dataclass(frozen=True)
class IntVector:
    coords: tuple

    def __init__(self, coords: Iterable[int]):
        object.__setattr__(self, "coords", _int_tuple(coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other: "IntVector") -> "IntVector":
        return _vector(tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        return _vector(tuple(map(operator.sub, self.coords, other.coords)))

    def __neg__(self) -> "IntVector":
        return _vector(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "IntVector":
        return IntVector(k * a for a in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_primitive(self) -> bool:
        g = 0
        for c in self.coords:
            g = math.gcd(g, c)
        return g == 1

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(map(_int_tuple, rows))
        if not rs or any(len(r) != len(rs) for r in rs):
            raise ExactError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rs)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> IntVector:
        return _vector(self.rows[i])

    def column(self, j: int) -> IntVector:
        return _vector(tuple(r[j] for r in self.rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 1:
            raise ExactError("matrix must be square and nonempty")
        return _matrix(tuple(tuple(int(i == j) for j in range(n))
                             for i in range(n)))

    @staticmethod
    def from_columns(cols: Sequence[IntVector]) -> "IntMatrix":
        return IntMatrix([[c[i] for c in cols] for i in range(len(cols))])

    def transpose(self) -> "IntMatrix":
        return _matrix(tuple(zip(*self.rows)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return _matrix(tuple(tuple(map(operator.add, ra, rb))
                             for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return _matrix(tuple(tuple(map(operator.sub, ra, rb))
                             for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return _matrix(tuple(tuple(-x for x in r) for r in self.rows))

    def scale(self, k: int) -> "IntMatrix":
        return _matrix(tuple(tuple(k * x for x in r) for r in self.rows))

    def __mul__(self, other):
        rows = self.rows
        if isinstance(other, IntMatrix):
            if len(rows) == 3 and len(other.rows) == 3:
                (a, b, c), (d, e, f), (g, h, i) = rows
                (p, q, r), (s, t, u), (v, w, x) = other.rows
                return _matrix((
                    (a * p + b * s + c * v, a * q + b * t + c * w,
                     a * r + b * u + c * x),
                    (d * p + e * s + f * v, d * q + e * t + f * w,
                     d * r + e * u + f * x),
                    (g * p + h * s + i * v, g * q + h * t + i * w,
                     g * r + h * u + i * x)))
            cols = tuple(zip(*other.rows))
            return _matrix(tuple(tuple(sum(map(operator.mul, row, col))
                                       for col in cols) for row in rows))
        if isinstance(other, IntVector):
            vs = other.coords
            if len(rows) == 3 and len(vs) == 3:
                (a, b, c), (d, e, f), (g, h, i) = rows
                x, y, z = vs
                return _vector((a * x + b * y + c * z, d * x + e * y + f * z,
                                g * x + h * y + i * z))
            return _vector(tuple(sum(map(operator.mul, row, vs))
                                 for row in rows))
        return NotImplemented

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            return self.inverse_unimodular() ** (-k)
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def adjugate(self) -> "IntMatrix":
        n = self.n
        if n == 1:
            return _matrix(((1,),))
        if n == 3:  # the columns are cross products of the rows
            (a, b, c), (d, e, f), (g, h, i) = self.rows
            return _matrix(((e * i - f * h, c * h - b * i, b * f - c * e),
                            (f * g - d * i, a * i - c * g, c * d - a * f),
                            (d * h - e * g, b * g - a * h, a * e - b * d)))
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [self.rows[r][c] for c in range(n) if c != j]
                    for r in range(n) if r != i
                ]
                adj[j][i] = (-1) ** (i + j) * _det_rows(minor)
        return _matrix(tuple(map(tuple, adj)))

    def inverse_unimodular(self) -> "IntMatrix":
        d = det(self)
        if d not in (1, -1):
            raise ExactError("matrix is not unimodular")
        adj = self.adjugate()
        return adj if d == 1 else -adj

    def __str__(self) -> str:
        return "; ".join(" ".join(str(x) for x in r) for r in self.rows)


# Results of arithmetic are built from tuples of Python ints by these two,
# which skip the public constructors' _int_tuple pass: that pass checks and
# converts entries from outside (numpy integers, say), and it dominated
# small 3x3 products.

def _vector(coords: tuple) -> IntVector:
    v = object.__new__(IntVector)
    object.__setattr__(v, "coords", coords)
    return v


def _matrix(rows: tuple) -> IntMatrix:
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    return m


def _det_rows(rows) -> int:
    """Determinant of a list-of-lists: the cofactor expansion for 3x3, ad - bc
    for 2x2, fraction-free Gauss-Bareiss otherwise."""
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a = [list(r) for r in rows]
    if n == 1:
        return a[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(m: IntMatrix) -> int:
    return _det_rows(m.rows)


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial c0 + c1 t + ... + cd t^d, low-degree first."""

    coeffs: tuple

    def __init__(self, coeffs: Iterable[int]):
        cs = list(_int_tuple(coeffs))
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly([0])
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                t = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                t = mag + ("t" if i == 1 else "t^%d" % i)
            if not terms:
                terms.append(("-" if c < 0 else "") + t)
            else:
                terms.append(("- " if c < 0 else "+ ") + t)
        return " ".join(terms)


def char_poly(m: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(tI - M), exact integer coefficients.

    A closed form for 3x3; otherwise Faddeev-LeVerrier over the integers:
    M_k = M M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(M M_k) / k, where the
    division is exact.
    """
    n = m.n
    a = m.rows
    if n == 3:  # t^3 - tr t^2 + c2 t - det, c2 the principal 2-minors
        (p, q, r), (s, t, u), (v, w, x) = a
        c2 = p * t - q * s + p * x - r * v + t * x - u * w
        return IntPoly((-det(m), c2, -(p + t + x), 1))
    cols = list(zip(*a))
    coeffs = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        mk_cols = list(zip(*mk))
        mk = [[sum(x * y for x, y in zip(row, col)) + (c if i == j else 0)
               for j, col in enumerate(mk_cols)]
              for i, row in enumerate(a)]
        trace = sum(x * y for row, col in zip(mk, cols) for x, y in zip(row, col))
        q, r = divmod(-trace, k)
        if r:
            raise ExactError("characteristic polynomial recursion is not integral")
        coeffs[n - k] = q
    return IntPoly(coeffs)


def discriminant(p: IntPoly) -> int:
    """Discriminant of an integer polynomial of degree 2..4, by the closed
    forms in its coefficients (any leading coefficient)."""
    d = p.degree
    if d == 2:
        c, b, a = p.coeffs
        return b * b - 4 * a * c
    if d == 3:
        d, c, b, a = p.coeffs
        return cubic_discriminant(a, b, c, d)
    if d == 4:
        e, d, c, b, a = p.coeffs
        return quartic_discriminant(a, b, c, d, e)
    raise ExactError("discriminant requires degree in 2..4, got %d" % d)


def cubic_discriminant(a: int, b: int, c: int, d: int) -> int:
    """Discriminant of a t^3 + b t^2 + c t + d:
    b^2 c^2 - 4ac^3 - 4b^3 d - 27a^2 d^2 + 18abcd."""
    bc = b * c
    return (bc * (bc + 18 * a * d) - 4 * (a * c * c * c + b * b * b * d)
            - 27 * a * a * d * d)


def quartic_discriminant(a: int, b: int, c: int, d: int, e: int) -> int:
    """Discriminant of a t^4 + b t^3 + c t^2 + d t + e, from the invariants
    D0 = c^2 - 3bd + 12ae and D1 = 2c^3 - 9bcd + 27b^2 e + 27ad^2 - 72ace of
    weight 2 and 3: 27 disc = 4 D0^3 - D1^2, and the division is exact."""
    d0 = c * c - 3 * b * d + 12 * a * e
    d1 = (2 * c * c * c - 9 * b * c * d + 27 * b * b * e + 27 * a * d * d
          - 72 * a * c * e)
    return (4 * d0 * d0 * d0 - d1 * d1) // 27


# ---------------------------------------------------------------------------
# lattice indices


def _minor_gcd(rows: Sequence[Sequence[int]]) -> int:
    """gcd of the maximal minors of the k x n matrix with the given rows;
    0 exactly when the rows are linearly dependent."""
    if not rows:
        return 1
    k = len(rows)
    g = 0
    for cs in itertools.combinations(range(len(rows[0])), k):
        g = math.gcd(g, _det_rows([[r[c] for c in cs] for r in rows]))
        if g == 1:
            break
    return g


def integer_volume(vs: Sequence[IntVector]) -> int:
    """Index of the sublattice spanned by vs inside the integer lattice of
    their span: the gcd of the maximal minors of the rows vs."""
    vol = _minor_gcd([list(v) for v in vs])
    if vol == 0:
        raise ExactError("vectors are linearly dependent")
    return vol


def integer_distance(v: IntVector, basis: Sequence[IntVector]) -> int:
    """Lattice-index distance from v to the plane spanned by basis.

    The plane carries its full integer sublattice (the saturation of
    span(basis)); the distance is the index of the lattice generated by
    that sublattice together with v inside the full integer lattice of the
    bigger span.  Both indices are gcds of maximal minors, and the minors
    of (basis, v) are those of (saturation, v) times integer_volume(basis).
    """
    rows = [list(b) for b in basis]
    base = _minor_gcd(rows)
    if base == 0:
        raise ExactError("basis vectors are linearly dependent")
    full = _minor_gcd(rows + [list(v)])
    if full == 0:
        raise ExactError("vector lies in the span of the basis")
    return full // base


# ---------------------------------------------------------------------------
# factorization over Q (monic, degree <= 4)


def _divisors(n: int):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _integer_roots(p: IntPoly):
    """Integer roots of a monic integer polynomial (with multiplicity 1 each
    in the returned list; callers re-divide)."""
    c0 = p.coeffs[0]
    if c0 == 0:
        return [0]
    roots = []
    for d in _divisors(c0):
        for r in (d, -d):
            if p(r) == 0:
                roots.append(r)
    return roots


def _divide_linear(p: IntPoly, r: int) -> IntPoly:
    """Divide monic p by (t - r), exact."""
    out = []
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * r + c
        out.append(acc)
    assert out[-1] == 0
    # out[:-1] holds the quotient coefficients, high first
    return IntPoly(list(reversed(out[:-1])))


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def factor_small(p: IntPoly):
    """Irreducible monic integer factors of a monic polynomial, degree <= 4.

    Rational roots are peeled off first; a remaining quartic is tested for
    quadratic splittings by enumerating divisor pairs of the constant term.
    Returns the factors sorted by (degree, coefficients) so the output is
    deterministic.
    """
    if not p.monic:
        raise ExactError("factor_small requires a monic polynomial")
    if p.degree > 4:
        raise ExactError("factor_small supports degree <= 4")
    factors = []
    work = p
    while work.degree >= 1:
        roots = _integer_roots(work)
        if not roots:
            break
        r = min(roots)
        factors.append(IntPoly([-r, 1]))
        work = _divide_linear(work, r)
    if work.degree == 4:
        split = _split_quartic(work)
        if split is not None:
            factors.extend(split)
            work = IntPoly([1])
    if work.degree >= 1:
        factors.append(work)
    return sorted(factors, key=lambda f: (f.degree, f.coeffs))


def _split_quartic(p: IntPoly):
    """Factor a monic quartic with no rational roots into two monic integer
    quadratics, if possible."""
    c0, c1, c2, c3, _ = p.coeffs
    candidates = set()
    for c in _divisors(c0):
        for cc in (c, -c):
            if c0 % cc == 0:
                candidates.add((cc, c0 // cc))
    for c, cp in sorted(candidates):
        # (t^2+a t+c)(t^2+b t+cp): a+b = c3, ab = c2-c-cp, a cp + b c = c1
        s = c3
        prod = c2 - c - cp
        disc = s * s - 4 * prod
        if not _is_square(disc):
            continue
        root = math.isqrt(disc)
        for a2 in ((s + root), (s - root)):
            if a2 % 2:
                continue
            a = a2 // 2
            b = s - a
            if a * cp + b * c == c1:
                f1 = IntPoly([c, a, 1])
                f2 = IntPoly([cp, b, 1])
                return sorted([f1, f2], key=lambda f: f.coeffs)
    return None


# ---------------------------------------------------------------------------
# real roots


def quartic_real_root_count(a: int, b: int, c: int, d: int, e: int) -> int:
    """Number of real roots of the squarefree quartic a t^4 + b t^3 + c t^2
    + d t + e (a != 0), from its coefficients alone: 2 when its
    discriminant is negative; otherwise 4 when P = 8ac - 3b^2 < 0 and
    D = 64a^3 e - 16a^2 c^2 + 16ab^2 c - 16a^2 bd - 3b^4 < 0, else 0 (Rees
    1922; Lazard 1988)."""
    disc = quartic_discriminant(a, b, c, d, e)
    if disc == 0:
        raise ExactError("quartic has a repeated root")
    if disc < 0:
        return 2
    bb = b * b
    big_p = 8 * a * c - 3 * bb
    big_d = (64 * a * a * a * e - 16 * a * a * c * c + 16 * a * bb * c
             - 16 * a * a * b * d - 3 * bb * bb)
    return 4 if big_p < 0 and big_d < 0 else 0


def _sturm_remainder(a, b):
    """-|lc(b)|^(deg a - deg b + 1) (a mod b) over its content: a positive
    multiple of the rational Sturm remainder, so every sign is kept."""
    a = list(a)
    lead, scale, db = b[-1], abs(b[-1]), len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        top = a.pop()
        f = top if lead > 0 else -top
        a = [scale * x for x in a]
        for i in range(db):
            a[k + i] -= f * b[i]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    g = math.gcd(*a)
    return [-x // g for x in a] if g else [0]


def _sign_changes(chain, x, side: int) -> int:
    """Sign changes of the chain at the rational x = u/v (v > 0), where a
    member of degree d takes the sign of v^d times its value, the sum of
    c_j u^j v^(d-j); x = None is side * infinity, the point (side, 0)."""
    u, v = (side, 0) if x is None else (x.numerator, x.denominator)
    values = []
    for cs in chain:
        acc, w = 0, 1
        for c in reversed(cs):
            acc = acc * u + c * w
            w *= v
        values.append(acc)
    signs = [y > 0 for y in values if y]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_real_roots(p: IntPoly, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in (lo, hi]; the endpoints are
    integers or Fractions, and None means -inf for lo and +inf for hi.

    p must be squarefree for exact counts on half-open intervals containing
    roots at the endpoints; the usual Sturm caveats apply.
    """
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while len(chain[-1]) > 1:
        rem = _sturm_remainder(chain[-2], chain[-1])
        if rem == [0]:
            break
        chain.append(rem)
    return _sign_changes(chain, lo, -1) - _sign_changes(chain, hi, 1)


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_matrix(text: str) -> IntMatrix:
    """Parse the `a b c; d e f; g h i` matrix text format."""
    rows = []
    for rn, chunk in enumerate(text.strip().split(";")):
        entries = chunk.split()
        if not entries:
            raise ExactError("row %d is empty" % (rn + 1))
        row = []
        for cn, tok in enumerate(entries):
            try:
                row.append(int(tok))
            except ValueError:
                raise ExactError(
                    "row %d, entry %d: %r is not an integer" % (rn + 1, cn + 1, tok)
                ) from None
        rows.append(row)
    return IntMatrix(rows)


def parse_vector(text: str) -> IntVector:
    toks = text.replace(",", " ").split()
    try:
        return IntVector(int(t) for t in toks)
    except ValueError:
        raise ExactError("vector entry is not an integer: %r" % text) from None


def matrix_to_json(m: IntMatrix) -> dict:
    return {"n": m.n, "rows": [list(r) for r in m.rows]}

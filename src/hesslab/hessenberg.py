"""Hessenberg types, perfectness, and the constructive reduction algorithm.

A Hessenberg matrix is upper Hessenberg (zero below the first subdiagonal).
Its type collects the first n-1 columns; its complexity is the product
prod |a_{j+1,j}|^(n-j).  Every SL(n,Z) matrix with irreducible
characteristic polynomial can be conjugated, starting from any primitive
seed vector, to a unique perfect Hessenberg matrix; `reduce_to_perfect`
implements that basis construction: in closed form for 3x3 operators,
from one cross product and two Bezout vectors, and by Euclid steps on one
unimodular matrix for every other size.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    _int_tuple,
    _matrix,
    char_poly,
    det,
)


class ReductionError(ExactError):
    """Raised when the flag construction degenerates (reducible char poly)
    or a seed precondition is violated."""


@dataclass(frozen=True)
class HessType:
    """Subdiagonal-column data <a11,a21|a12,a22,a32|...> of a family H(Omega).

    `columns[j]` holds the j-th matrix column entries (rows 1..j+2), so it
    has j+2 entries; subdiagonal entries must be positive.
    """

    columns: tuple

    def __init__(self, columns: Sequence[Sequence[int]]):
        cols = tuple(map(_int_tuple, columns))
        for j, c in enumerate(cols):
            if len(c) != j + 2:
                raise ExactError("column %d must have %d entries" % (j + 1, j + 2))
            if c[-1] <= 0:
                raise ExactError("subdiagonal entry of column %d must be positive" % (j + 1))
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return len(self.columns) + 1

    def column_vector(self, j: int) -> IntVector:
        """The j-th type column padded with zeros to full length."""
        c = self.columns[j]
        return IntVector(list(c) + [0] * (self.n - len(c)))

    def complexity(self) -> int:
        n = self.n
        out = 1
        for j, c in enumerate(self.columns):
            out *= c[-1] ** (n - 1 - j)
        return out

    @staticmethod
    def parse(text: str) -> "HessType":
        text = text.strip()
        if text.startswith("<") and text.endswith(">"):
            text = text[1:-1]
        cols = []
        for cn, chunk in enumerate(text.split("|")):
            col = []
            for en, tok in enumerate(chunk.split(",")):
                try:
                    col.append(int(tok))
                except ValueError:
                    raise ExactError("type column %d, entry %d: %r is not an "
                                     "integer" % (cn + 1, en + 1, tok)) from None
            cols.append(col)
        return HessType(cols)

    def __str__(self) -> str:
        return "<" + "|".join(",".join(str(x) for x in c) for c in self.columns) + ">"


@dataclass(frozen=True)
class FamilyPoint:
    """A member of the affine family H(Omega): type, anchor last column v0,
    and the integer parameters (c_1, ..., c_{n-1})."""

    type: HessType
    anchor: IntVector
    params: tuple

    def __init__(self, type: HessType, anchor: IntVector, params: Sequence[int]):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "anchor", IntVector(anchor))
        object.__setattr__(self, "params", _int_tuple(params))
        if self.anchor.n != type.n:
            raise ExactError("anchor dimension mismatch")
        if len(self.params) != type.n - 1:
            raise ExactError("expected %d parameters" % (type.n - 1))

    def to_json(self) -> dict:
        return {
            "type": str(self.type),
            "anchor": list(self.anchor),
            "params": list(self.params),
        }


def is_hessenberg(m: IntMatrix) -> bool:
    """Whether every entry below the first subdiagonal is zero: row i
    vanishes in its first i - 1 columns."""
    return not any(any(row[:i]) for i, row in enumerate(m.rows[2:], 1))


def hessenberg_complexity(m: IntMatrix) -> int:
    if not is_hessenberg(m):
        raise ExactError("matrix does not have the Hessenberg zero pattern")
    rows = m.rows
    n = len(rows)
    out = 1
    for j in range(n - 1):
        out *= abs(rows[j + 1][j]) ** (n - 1 - j)
    return out


def is_perfect(m: IntMatrix) -> bool:
    """Hessenberg pattern plus the column bounds 0 <= a_{i,j} < a_{j+1,j}.

    Irreducibility of the characteristic polynomial is deliberately not
    checked here; callers that need it check it themselves.
    """
    if not is_hessenberg(m):
        return False
    rows = m.rows
    for j in range(len(rows) - 1):
        sub = rows[j + 1][j]
        if sub <= 0 or any(not 0 <= rows[i][j] < sub for i in range(j + 1)):
            return False
    return True


def matrix_type(m: IntMatrix) -> HessType:
    if not is_hessenberg(m):
        raise ExactError("matrix does not have the Hessenberg zero pattern")
    n = m.n
    return HessType([[m[i, j] for i in range(j + 2)] for j in range(n - 1)])


def reduce_to_perfect(m: IntMatrix, seed: IntVector) -> Tuple[IntMatrix, IntMatrix]:
    """Conjugate m to its unique perfect Hessenberg form for the given seed.

    Returns (H, U) with U unimodular, U^-1 m U = H, and the columns of U the
    integer basis g_1, ..., g_n with g_1 = seed.  Given the seed, H and U
    are unique: g_{k+1} must complete (g_1..g_k) to a basis of the integer
    points of span(seed, m seed, ..., m^k seed), signed so the subdiagonal
    entry is positive and shifted so the entries above it land in
    [0, subdiagonal).  So the two routes below give the same (H, U): a
    3x3 operator takes the closed form (_reduce_3x3), any other size the
    Euclid steps (_reduce_by_euclid).  A flag that degenerates at step k,
    m^k seed in the span of the earlier ones, raises ReductionError
    "flag degenerated at step k" on either route.
    """
    n = m.n
    if seed.n != n:
        raise ReductionError("seed dimension mismatch")
    if seed.is_zero():
        raise ReductionError("seed is the zero vector")
    if not seed.is_primitive():
        raise ReductionError("seed must be primitive (unit integer length)")
    if n == 3:
        return _reduce_3x3(m, seed)
    return _reduce_by_euclid(m, seed)


_DEGENERATE = "flag degenerated at step %d: characteristic polynomial reducible"


def _bezout(x: int, y: int) -> Tuple[int, int]:
    """(s, t) with s x + t y = gcd(x, y), from one gcd and one inverse
    modulo y / gcd(x, y); (0, 0) when x = y = 0."""
    g = math.gcd(x, y)
    if not g:
        return 0, 0
    if not y:
        return (1 if x > 0 else -1), 0
    s = pow(x // g, -1, abs(y // g))
    return s, (g - s * x) // y


def _unit_dual(x: int, y: int, z: int) -> Tuple[int, int, int]:
    """An integer a with a . (x, y, z) = 1, for primitive (x, y, z): the
    Bezout pair of x and y, then that of gcd(x, y) and z."""
    s, t = _bezout(x, y)
    p, q = _bezout(math.gcd(x, y), z)
    return p * s, p * t, q


def _reduce_3x3(m: IntMatrix, v: IntVector) -> Tuple[IntMatrix, IntMatrix]:
    """The perfect form of a 3x3 operator from a primitive seed v in closed
    form (NOTES.md, "The perfect form of a 3x3 operator in closed form").

    With w = m v and c = v x w, a21 = gcd(c) and n = c / a21.  For a with
    a . v = 1, g2 = n x a + floor(a . w / a21) v.  For b with n . b = 1,
    gamma = n . (m g2), a32 = |gamma|, and g3 = sign(gamma) b +
    floor(alpha / a32) v + floor(beta / a32) g2, where alpha and beta are
    the dual rows g2 x b and b x v applied to m g2.  U = [v, g2, g3] must
    have det U = +-1, and H = det U adj(U) (m U) must be perfect.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.rows
    v0, v1, v2 = v.coords
    w0 = m00 * v0 + m01 * v1 + m02 * v2
    w1 = m10 * v0 + m11 * v1 + m12 * v2
    w2 = m20 * v0 + m21 * v1 + m22 * v2
    c0, c1, c2 = v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0
    a21 = math.gcd(c0, c1, c2)
    if not a21:
        raise ReductionError(_DEGENERATE % 1)
    n0, n1, n2 = c0 // a21, c1 // a21, c2 // a21
    a0, a1, a2 = _unit_dual(v0, v1, v2)
    q = (a0 * w0 + a1 * w1 + a2 * w2) // a21
    g20 = n1 * a2 - n2 * a1 + q * v0
    g21 = n2 * a0 - n0 * a2 + q * v1
    g22 = n0 * a1 - n1 * a0 + q * v2
    y0 = m00 * g20 + m01 * g21 + m02 * g22
    y1 = m10 * g20 + m11 * g21 + m12 * g22
    y2 = m20 * g20 + m21 * g21 + m22 * g22
    gamma = n0 * y0 + n1 * y1 + n2 * y2
    if not gamma:
        raise ReductionError(_DEGENERATE % 2)
    b0, b1, b2 = _unit_dual(n0, n1, n2)
    alpha = ((g21 * b2 - g22 * b1) * y0 + (g22 * b0 - g20 * b2) * y1
             + (g20 * b1 - g21 * b0) * y2)
    beta = ((b1 * v2 - b2 * v1) * y0 + (b2 * v0 - b0 * v2) * y1
            + (b0 * v1 - b1 * v0) * y2)
    a32 = abs(gamma)
    if gamma < 0:
        b0, b1, b2 = -b0, -b1, -b2
    qa, qb = alpha // a32, beta // a32
    g30 = b0 + qa * v0 + qb * g20
    g31 = b1 + qa * v1 + qb * g21
    g32 = b2 + qa * v2 + qb * g22
    # the rows of adj(U): adj(U) U = det(U) I holds identically
    r0 = (g21 * g32 - g22 * g31, g22 * g30 - g20 * g32, g20 * g31 - g21 * g30)
    r1 = (g31 * v2 - g32 * v1, g32 * v0 - g30 * v2, g30 * v1 - g31 * v0)
    r2 = (v1 * g22 - v2 * g21, v2 * g20 - v0 * g22, v0 * g21 - v1 * g20)
    d = v0 * r0[0] + v1 * r0[1] + v2 * r0[2]
    if d != 1 and d != -1:
        raise ReductionError("column operations lost the inverse")
    z = (m00 * g30 + m01 * g31 + m02 * g32,
         m10 * g30 + m11 * g31 + m12 * g32,
         m20 * g30 + m21 * g31 + m22 * g32)
    h = _matrix(tuple(
        (d * (r[0] * w0 + r[1] * w1 + r[2] * w2),
         d * (r[0] * y0 + r[1] * y1 + r[2] * y2),
         d * (r[0] * z[0] + r[1] * z[1] + r[2] * z[2]))
        for r in (r0, r1, r2)))
    if not is_perfect(h):
        raise ReductionError("reduction did not reach a perfect matrix")
    return h, _matrix(((v0, g20, g30), (v1, g21, g31), (v2, g22, g32)))


def _reduce_by_euclid(m: IntMatrix, seed: IntVector) -> Tuple[IntMatrix, IntMatrix]:
    """The flag of any size, built inside one unimodular matrix C, kept with
    its inverse and changed only by integer column operations (the
    matching row operations on C^-1): columns 0..k-1 of C are g_1..g_k and
    the rest complete them to a basis of Z^n.  Step k writes t = seed
    (k = 0) or t = m g_k in C's coordinates, runs Euclid on the completion
    coordinates until only coordinate k is nonzero (a Hermite normal form
    step), shifts column k by the flag columns into the perfect range, and
    size-reduces the remaining completion columns against the flag to keep
    the entries small.  The seed is reduce_to_perfect's, checked there.
    """
    n = m.n
    # cols[j] is column j of C; inv[i] is row i of C^-1
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    mul = operator.mul

    def add_col(dst, src, q):
        # c_dst += q c_src; C^-1 row src -= q row dst
        cols[dst] = [a + q * b for a, b in zip(cols[dst], cols[src])]
        inv[src] = [a - q * b for a, b in zip(inv[src], inv[dst])]

    for k in range(n):
        t = list(seed) if k == 0 else [
            sum(map(mul, row, cols[k - 1])) for row in m.rows]
        y = [sum(map(mul, row, t)) for row in inv]
        while True:
            # the first of the least nonzero |y_j|, j >= k, in one pass
            p, least, nonzero = k, 0, 0
            for j in range(k, n):
                a = abs(y[j])
                if a:
                    nonzero += 1
                    if not least or a < least:
                        p, least = j, a
            if not nonzero:
                raise ReductionError(_DEGENERATE % k)
            if p != k:
                cols[k], cols[p] = cols[p], cols[k]
                inv[k], inv[p] = inv[p], inv[k]
                y[k], y[p] = y[p], y[k]
            if nonzero == 1:
                break
            for j in range(k + 1, n):
                q = y[j] // y[k]
                if q:
                    add_col(k, j, q)
                    y[j] -= q * y[k]
        if y[k] < 0:
            cols[k] = [-a for a in cols[k]]
            inv[k] = [-a for a in inv[k]]
        d = abs(y[k])
        for i in range(k):
            q = y[i] // d
            if q:
                add_col(k, i, q)
        # the flag columns 0..k stay fixed from here: their norms once
        norms = [sum(map(mul, c, c)) for c in cols[:k + 1]]
        for j in range(k + 1, n):
            for i in range(k, -1, -1):
                q = (2 * sum(map(mul, cols[j], cols[i])) + norms[i]) \
                    // (2 * norms[i])
                if q:
                    add_col(j, i, -q)

    # the entries are Python ints already: no conversion pass
    u = _matrix(tuple(zip(*cols)))
    u_inv = _matrix(tuple(map(tuple, inv)))
    if u_inv * u != IntMatrix.identity(n):
        raise ReductionError("column operations lost the inverse")
    h = u_inv * m * u
    if not is_perfect(h):
        raise ReductionError("reduction did not reach a perfect matrix")
    return h, u


def family_member(fp: FamilyPoint) -> IntMatrix:
    """Realize M_0 + sum c_i M_i(Omega) for a family point."""
    t = fp.type
    n = t.n
    family_info(t, fp.anchor)  # raises on an invalid pair
    last = list(fp.anchor)
    for j, c in enumerate(fp.params):
        col = t.column_vector(j)
        last = [x + c * y for x, y in zip(last, col)]
    cols = [t.column_vector(j) for j in range(n - 1)] + [IntVector(last)]
    return IntMatrix.from_columns(cols)


@functools.lru_cache(maxsize=1024)
def family_info(t: HessType, anchor: IntVector) -> Tuple[bool, int]:
    """The anchor's dimension and validate_type, checked once per (type,
    anchor) pair (ExactError when either fails, with FamilyPoint's message
    for the first), and (perfect, det) of every member: is_perfect reads
    only the type columns, and det, linear in the last column and 0 on the
    type columns, is the anchor member's, so validate_type is |det| = 1."""
    if anchor.n != t.n:
        raise ExactError("anchor dimension mismatch")
    base = IntMatrix.from_columns(
        [t.column_vector(j) for j in range(t.n - 1)] + [IntVector(anchor)])
    d = det(base)
    if abs(d) != 1:
        raise ExactError("type/anchor pair does not give an SL(n,Z) family")
    return is_perfect(base), d


def validate_type(t: HessType, anchor: IntVector) -> bool:
    """The two lattice conditions for H(Omega) to sit inside SL(n,Z), unit
    integer volume of the type simplex and unit integer distance from the
    anchor to its hyperplane, as one: family_info's |det[type columns |
    anchor]| = 1, as that det is the volume times the distance (NOTES.md,
    "The type conditions are one determinant")."""
    try:
        family_info(t, IntVector(anchor))
    except ExactError:
        return False
    return True


def last_column_from(t: HessType, p: IntPoly) -> Optional[IntVector]:
    """The unique last column giving characteristic polynomial p, or None.

    The coefficients of det(tI - M) are affine-linear in the last column, so
    the column solves an (invertible, triangular) linear system; a
    fractional solution means no integer matrix of this type has
    characteristic polynomial p.
    """
    n = t.n
    if p.degree != n or not p.monic:
        raise ExactError("polynomial degree must match the type dimension and be monic")
    zero = IntVector([0] * n)
    cols = [t.column_vector(j) for j in range(n - 1)]
    base = char_poly(IntMatrix.from_columns(cols + [zero]))
    gradients = []
    for i in range(n):
        e = IntVector([1 if j == i else 0 for j in range(n)])
        pe = char_poly(IntMatrix.from_columns(cols + [e]))
        gradients.append([pe.coeffs[k] - base.coeffs[k] for k in range(n)])
    # solve sum_i v_i * gradients[i][k] = p_k - base_k   for k = 0..n-1,
    # as adj(A) b / det(A)
    a = IntMatrix([[gradients[i][k] for i in range(n)] for k in range(n)])
    den = det(a)
    if den == 0:
        return None
    b = [p.coeffs[k] - base.coeffs[k] for k in range(n)]
    sol = [divmod(sum(x * y for x, y in zip(row, b)), den)
           for row in a.adjugate().rows]
    if any(r for _, r in sol):
        return None
    return IntVector(q for q, _ in sol)

"""Hessenberg types, perfectness, and the constructive reduction algorithm.

A Hessenberg matrix is upper Hessenberg (zero below the first subdiagonal).
Its type collects the first n-1 columns; its complexity is the product
prod |a_{j+1,j}|^(n-j).  Every SL(n,Z) matrix with irreducible
characteristic polynomial can be conjugated, starting from any primitive
seed vector, to a unique perfect Hessenberg matrix; `reduce_to_perfect`
implements that basis construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    char_poly,
    det,
    elementary_divisors,
    integer_distance,
    integer_volume,
    rational_inverse,
    saturation_basis,
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
        cols = tuple(tuple(int(x) for x in c) for c in columns)
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

    def satisfies_perfect_bounds(self) -> bool:
        return all(0 <= x < c[-1] for c in self.columns for x in c[:-1])

    @staticmethod
    def parse(text: str) -> "HessType":
        text = text.strip()
        if text.startswith("<") and text.endswith(">"):
            text = text[1:-1]
        cols = []
        for chunk in text.split("|"):
            cols.append([int(t) for t in chunk.split(",")])
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
        object.__setattr__(self, "params", tuple(int(p) for p in params))
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

    @staticmethod
    def from_json(obj) -> "FamilyPoint":
        return FamilyPoint(HessType.parse(obj["type"]), IntVector(obj["anchor"]),
                           obj["params"])


def is_hessenberg(m: IntMatrix) -> bool:
    n = m.n
    return all(m[i, j] == 0 for j in range(n) for i in range(j + 2, n))


def hessenberg_complexity(m: IntMatrix) -> int:
    if not is_hessenberg(m):
        raise ExactError("matrix does not have the Hessenberg zero pattern")
    n = m.n
    out = 1
    for j in range(n - 1):
        out *= abs(m[j + 1, j]) ** (n - 1 - j)
    return out


def is_perfect(m: IntMatrix) -> bool:
    """Hessenberg pattern plus the column bounds 0 <= a_{i,j} < a_{j+1,j}.

    Irreducibility of the characteristic polynomial is deliberately not
    checked here; callers that need it check it themselves.
    """
    if not is_hessenberg(m):
        return False
    n = m.n
    for j in range(n - 1):
        sub = m[j + 1, j]
        if sub <= 0:
            return False
        if any(not 0 <= m[i, j] < sub for i in range(j + 1)):
            return False
    return True


def matrix_type(m: IntMatrix) -> HessType:
    if not is_hessenberg(m):
        raise ExactError("matrix does not have the Hessenberg zero pattern")
    n = m.n
    return HessType([[m[i, j] for i in range(j + 2)] for j in range(n - 1)])


def _solve_in_basis(basis: Sequence[IntVector], target: IntVector):
    """Exact rational coordinates of target in the given basis (full rank)."""
    k = len(basis)
    n = target.n
    a = [[Fraction(basis[j][i]) for j in range(k)] for i in range(n)]
    b = [Fraction(target[i]) for i in range(n)]
    # gaussian elimination on the n x k system (consistent by assumption)
    piv_rows = []
    col = 0
    r = 0
    used = [False] * n
    sol = [Fraction(0)] * k
    rows = list(range(n))
    for col in range(k):
        pr = None
        for i in rows:
            if not used[i] and a[i][col] != 0:
                pr = i
                break
        if pr is None:
            raise ExactError("basis is rank deficient")
        used[pr] = True
        piv_rows.append(pr)
        inv = a[pr][col]
        for i in range(n):
            if i != pr and a[i][col] != 0:
                f = a[i][col] / inv
                for j in range(col, k):
                    a[i][j] -= f * a[pr][j]
                b[i] -= f * b[pr]
    for col, pr in enumerate(piv_rows):
        sol[col] = b[pr] / a[pr][col]
    # consistency
    for i in range(n):
        if not used[i] and b[i] != 0:
            raise ExactError("target is not in the span of the basis")
    return sol


def reduce_to_perfect(m: IntMatrix, seed: IntVector) -> Tuple[IntMatrix, IntMatrix]:
    """Conjugate m to its unique perfect Hessenberg form for the given seed.

    Returns (H, U) with U unimodular, U^-1 m U = H, and the columns of U the
    constructed integer basis g_1, ..., g_n with g_1 = seed.  The basis is
    built inductively: g_{k+1} completes (g_1..g_k) to a basis of the
    integer points of span(seed, m seed, ..., m^k seed), signed so the
    subdiagonal entry is positive and shifted so the entries above it land
    in [0, subdiagonal).
    """
    n = m.n
    if seed.n != n:
        raise ReductionError("seed dimension mismatch")
    if seed.is_zero():
        raise ReductionError("seed is the zero vector")
    if not seed.is_primitive():
        raise ReductionError("seed must be primitive (unit integer length)")

    basis = [seed]
    for k in range(n - 1):
        u = m * basis[k]
        rows = [list(g) for g in basis] + [list(u)]
        divs = elementary_divisors(rows)
        if len(divs) != k + 2:
            raise ReductionError(
                "flag degenerated at step %d: characteristic polynomial reducible" % (k + 1)
            )
        sat = saturation_basis(rows)
        # coordinates of the current basis inside the saturated lattice
        coords = [_solve_in_basis(sat, g) for g in basis]
        crows = [[c.numerator if c.denominator == 1 else None for c in row] for row in coords]
        if any(c is None for row in crows for c in row):
            raise ReductionError("saturation bookkeeping failed")
        # complete to a unimodular (k+2)x(k+2) matrix: the last row of V'
        # from the Smith form of the coordinate matrix does it
        from .exact import smith_normal_form, IntMatrix as _IM

        _, d, v, rank = smith_normal_form(crows)
        assert rank == k + 1 and all(d[i][i] == 1 for i in range(rank))
        vinv = _IM(v).inverse_unimodular()
        hcoords = vinv.row(k + 1)
        h = IntVector(
            sum(hcoords[j] * sat[j][i] for j in range(k + 2)) for i in range(n)
        )
        # express u in (g_1..g_k, h) and normalize
        coeffs = _solve_in_basis(basis + [h], u)
        dcoef = coeffs[-1]
        assert dcoef.denominator == 1 and dcoef != 0
        dcoef = dcoef.numerator
        if dcoef < 0:
            h = -h
            coeffs = _solve_in_basis(basis + [h], u)
            dcoef = coeffs[-1].numerator
        shifts = []
        for c in coeffs[:-1]:
            assert c.denominator == 1
            shifts.append(c.numerator // dcoef)
        if any(shifts):
            h = h + IntVector(
                sum(s * g[i] for s, g in zip(shifts, basis)) for i in range(n)
            )
        basis.append(h)

    u = IntMatrix.from_columns(basis)
    if det(u) not in (1, -1):
        raise ReductionError("constructed basis is not unimodular")
    h = u.inverse_unimodular() * m * u
    if not is_perfect(h):
        raise ReductionError("reduction did not reach a perfect matrix")
    return h, u


def family_member(fp: FamilyPoint) -> IntMatrix:
    """Realize M_0 + sum c_i M_i(Omega) for a family point."""
    t = fp.type
    n = t.n
    if not _valid_pair(t, fp.anchor):
        raise ExactError("type/anchor pair does not give an SL(n,Z) family")
    last = list(fp.anchor)
    for j, c in enumerate(fp.params):
        col = t.column_vector(j)
        last = [x + c * y for x, y in zip(last, col)]
    cols = [t.column_vector(j) for j in range(n - 1)] + [IntVector(last)]
    return IntMatrix.from_columns(cols)


@functools.lru_cache(maxsize=1024)
def _valid_pair(t: HessType, anchor: IntVector) -> bool:
    """validate_type, checked once per (type, anchor) pair."""
    return validate_type(t, anchor)


def validate_type(t: HessType, anchor: IntVector) -> bool:
    """Check the two lattice conditions for H(Omega) to sit inside SL(n,Z):
    unit integer volume of the type simplex and unit integer distance from
    the anchor to its hyperplane."""
    cols = [t.column_vector(j) for j in range(t.n - 1)]
    try:
        if integer_volume(cols) != 1:
            return False
        return integer_distance(IntVector(anchor), cols) == 1
    except ExactError:
        return False


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
    # solve sum_i v_i * gradients[i][k] = p_k - base_k   for k = 0..n-1
    inv = rational_inverse([[gradients[i][k] for i in range(n)] for k in range(n)])
    if inv is None:
        return None
    rows, den = inv
    b = [p.coeffs[k] - base.coeffs[k] for k in range(n)]
    sol = [divmod(sum(x * y for x, y in zip(row, b)), den) for row in rows]
    if any(r for _, r in sol):
        return None
    return IntVector(q for q, _ in sol)

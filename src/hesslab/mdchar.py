"""Markoff-Davenport characteristic and the associated cubic form (n = 3).

The MD-characteristic of an operator A at a vector v is the nonoriented
integer volume of the pyramid spanned by v, A v, ..., A^(n-1) v, i.e. the
absolute value of det [v | Av | ... | A^(n-1) v].  For a Hessenberg matrix
this determinant at e_1 reproduces the Hessenberg complexity, which is the
bridge between sails and reducedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .exact import ExactError, IntMatrix, IntVector, det, rational_inverse

# monomial order of the stored cubic coefficients
MONOMIALS3 = ("x^3", "x^2*y", "x^2*z", "x*y^2", "x*y*z", "x*z^2",
              "y^3", "y^2*z", "y*z^2", "z^3")
_EXPONENTS3 = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
               (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))

# ten evaluation points with coordinates in {0,1,2}; the induced monomial
# matrix is invertible, so the coefficients are recovered exactly
_POINTS3 = ((0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0),
            (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 2, 0))
_POINTS3_INVERSE, _POINTS3_DEN = rational_inverse(
    [[p[0] ** a * p[1] ** b * p[2] ** g for a, b, g in _EXPONENTS3]
     for p in _POINTS3])


@dataclass(frozen=True)
class MDForm3:
    """Integer cubic form det[v | Mv | M^2 v] in the coordinates of v."""

    coeffs: Tuple[int, ...]

    def __call__(self, v) -> int:
        x, y, z = v[0], v[1], v[2]
        out = 0
        for c, (a, b, g) in zip(self.coeffs, _EXPONENTS3):
            if c:
                out += c * x ** a * y ** b * z ** g
        return out

    def parity_all_even(self) -> bool:
        return all(c % 2 == 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for c, mono in zip(self.coeffs, MONOMIALS3):
            if c == 0:
                continue
            term = "%d*%s" % (c, mono)
            if c >= 0 and parts:
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) if parts else "0"


def md_characteristic(m: IntMatrix, v: IntVector) -> int:
    """|det[v, Mv, ..., M^(n-1) v]|, exact."""
    v = IntVector(v)
    if v.is_zero():
        raise ExactError("zero vector")
    cols = [v]
    for _ in range(m.n - 1):
        cols.append(m * cols[-1])
    return abs(det(IntMatrix.from_columns(cols)))


def md_det3(m: IntMatrix, v) -> int:
    """Signed determinant det[v, Mv, M^2 v] for n = 3."""
    v = IntVector(v)
    w = m * v
    u = m * w
    return det(IntMatrix.from_columns([v, w, u]))


def md_form3(m: IntMatrix) -> MDForm3:
    """Coefficients of det[v | Mv | M^2 v] as a cubic form in v.

    Recovered from its values at the fixed ten points by the precomputed
    integer inverse of their monomial matrix; the division by its
    denominator is exact because the form is integral.
    """
    if m.n != 3:
        raise ExactError("md_form3 requires a 3x3 matrix")
    vals = [md_det3(m, p) for p in _POINTS3]
    coeffs = []
    for row in _POINTS3_INVERSE:
        c, r = divmod(sum(a * b for a, b in zip(row, vals)), _POINTS3_DEN)
        if r:
            raise ExactError("interpolation produced a non-integer coefficient")
        coeffs.append(c)
    return MDForm3(tuple(coeffs))


def parity_all_even(f: MDForm3) -> bool:
    return f.parity_all_even()

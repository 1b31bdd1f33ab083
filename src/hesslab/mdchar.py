"""Markoff-Davenport characteristic and the associated cubic form (n = 3).

The MD-characteristic of an operator A at a vector v is the nonoriented
integer volume of the pyramid spanned by v, A v, ..., A^(n-1) v, i.e. the
absolute value of det [v | Av | ... | A^(n-1) v].  For a Hessenberg matrix
this determinant at e_1 reproduces the Hessenberg complexity, which is the
bridge between sails and reducedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .exact import ExactError, IntMatrix, IntVector, det

# monomial order of the stored cubic coefficients
MONOMIALS3 = ("x^3", "x^2*y", "x^2*z", "x*y^2", "x*y*z", "x*z^2",
              "y^3", "y^2*z", "y*z^2", "z^3")
_EXPONENTS3 = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
               (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))
# _SLOT[i][j][k]: the index in _EXPONENTS3 of the monomial v_i v_j v_k
_SLOT = [[[_EXPONENTS3.index(tuple((i, j, k).count(t) for t in range(3)))
           for k in range(3)] for j in range(3)] for i in range(3)]

@dataclass(frozen=True)
class MDForm3:
    """Integer cubic form det[v | Mv | M^2 v] in the coordinates of v."""

    coeffs: Tuple[int, ...]

    def __call__(self, v) -> int:
        return self.along_z(v[0], v[1], (v[2],))[0]

    def along_z(self, x: int, y: int, zs: Iterable[int]) -> List[int]:
        """Values at (x, y, z) for each z in zs: the form as a cubic in z,
        its four coefficients taken from x and y, evaluated by Horner."""
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = self.coeffs
        a2 = c5 * x + c8 * y
        a1 = (c2 * x + c4 * y) * x + c7 * y * y
        a0 = ((c0 * x + c1 * y) * x + c3 * y * y) * x + c6 * y * y * y
        return [((c9 * z + a2) * z + a1) * z + a0 for z in zs]

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
    if v.n != m.n:
        raise ExactError("vector has %d entries, the matrix is %dx%d"
                         % (v.n, m.n, m.n))
    if v.is_zero():
        raise ExactError("zero vector")
    cols = [v]
    for _ in range(m.n - 1):
        cols.append(m * cols[-1])
    return abs(det(IntMatrix.from_columns(cols)))


def md_form3(m: IntMatrix) -> MDForm3:
    """Coefficients of det[v | Mv | M^2 v] as a cubic form in v.

    In closed form: det[v | Mv | M^2 v] = v . (Mv x M^2 v)
    = sum_(i,j,k) v_i v_j v_k (a_j x b_k)_i, with a_j the columns of M and
    b_k those of M^2, so the coefficient of a monomial is the sum of
    (a_j x b_k)_i over the ordered triples (i, j, k) of its variables.
    """
    if m.n != 3:
        raise ExactError("md_form3 requires a 3x3 matrix")
    cols = m.transpose().rows
    cols2 = (m * m).transpose().rows
    coeffs = [0] * len(_EXPONENTS3)
    for j, a in enumerate(cols):
        for k, b in enumerate(cols2):
            cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0])
            for i, c in enumerate(cross):
                coeffs[_SLOT[i][j][k]] += c
    return MDForm3(tuple(coeffs))


"""Family-scale experiments: discriminant grids, NRS parabola bounds,
ray scans, the 4D quartic family, and grid rendering.

A 3x3 family H(Omega) is scanned cell by cell from its invariants, in
integers: reducibility first, from p(1) and p(-1) of the characteristic
polynomial, then the sign of its cubic discriminant (RS vs NRS), then a
reducedness verdict for NRS cells, which builds the cell's matrix only
where the content of the MD form leaves the verdict open.
The parabola machinery gives the asymptotic two-parabola picture of the
NRS region.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    ExactError,
    IntMatrix,
    IntPoly,
    IntVector,
    _is_square,
    char_poly,
    cubic_discriminant,
    discriminant,
    quartic_real_root_count,
)
from .hessenberg import FamilyPoint, HessType, family_info, family_member
from .mdchar import md_form3
from .reducedness import ReducedVerdict, Sail, content_certifies, is_reduced


def discriminant_at(fp: FamilyPoint) -> int:
    return discriminant(char_poly(family_member(fp)))


@dataclass(frozen=True)
class ParabolaParams:
    """Exact coefficients of the two bounding parabolas of the NRS region."""

    alpha1: Fraction
    beta1: Fraction
    gamma1: Fraction
    alpha2: Fraction
    beta2: Fraction
    gamma2: Fraction
    a11: int
    a21: int

    def p1(self, m, n) -> Fraction:
        m, n = Fraction(m), Fraction(n)
        return m - self.alpha1 * n * n - self.beta1 * n - self.gamma1

    def p2(self, m, n) -> Fraction:
        m, n = Fraction(m), Fraction(n)
        u = (self.a21 * m - self.a11 * n) / Fraction(self.a21)
        return n / Fraction(self.a21) - self.alpha2 * u * u - self.beta2 * u \
            - self.gamma2


def parabola_params(t: HessType, anchor) -> ParabolaParams:
    if t.n != 3:
        raise ExactError("parabola parameters are defined for 3x3 families")
    base = family_member(FamilyPoint(t, IntVector(anchor), (0, 0)))
    a11, a21 = base[0, 0], base[1, 0]
    a22, a32 = base[1, 1], base[2, 1]
    a33 = base[2, 2]
    # det(tI - base) = t^3 - b1 t^2 + b2 t - b3
    minus_b3, b2, minus_b1, _ = char_poly(base).coeffs
    b1, b3 = -minus_b1, -minus_b3
    return ParabolaParams(
        alpha1=Fraction(-a32, 4 * a21),
        beta1=Fraction(a11 - a22 - a33, 2 * a21),
        gamma1=Fraction(4 * b2 - b1 * b1, 4 * a21 * a32),
        alpha2=Fraction(a32 * a21, 4 * b3),
        beta2=Fraction(-b2, 2 * b3),
        gamma2=Fraction(b2 * b2 - 4 * b1 * b3, 4 * a21 * a32 * b3),
        a11=a11,
        a21=a21,
    )


def lambda_membership(pp: ParabolaParams, eps, mn) -> bool:
    """Whether (m, n) lies in lambda_eps = {(p1 - eps)(p2 - eps) < 0}: one of
    p1, p2 is strictly above eps and the other strictly below it, so points
    on either shifted parabola are outside.

    For the Frobenius family p1 p2 = -(n^2 + 4m)(m^2 - 4n)/16 and the
    discriminant is -16 p1 p2 - 2mn - 27, so far from both parabolas the
    discriminant has the sign of -p1 p2: the unbounded part of lambda_eps
    is the RS side, not the NRS side (NOTES.md, criterion 14).
    """
    m, n = mn
    eps = Fraction(eps)
    return (pp.p1(m, n) - eps) * (pp.p2(m, n) - eps) < 0


def normalize_to_frobenius(fp: FamilyPoint) -> Tuple[int, int]:
    """Parameters (-c2, tr) of the Frobenius matrix with the member's
    characteristic polynomial t^3 - tr t^2 + c2 t - 1: the printed affine
    map, which preserves the discriminant exactly."""
    if fp.type.n != 3:
        raise ExactError("defined for 3x3 families")
    _, c2, minus_tr, _ = char_poly(family_member(fp)).coeffs
    return -c2, -minus_tr


@dataclass
class GridCell:
    params: tuple
    cls: str            # ReduciblePoly | RS | NRS_Reduced | NRS_Nonreduced
    #                     | NRS_Unknown | Spectrum4(...)
    verdict: Optional[ReducedVerdict] = None

    def to_json(self) -> dict:
        out = {"params": list(self.params), "class": self.cls}
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_json()
        return out


_NRS_CLASS = {"Reduced": "NRS_Reduced", "Nonreduced": "NRS_Nonreduced",
              "Inconclusive": "NRS_Unknown"}
# the verdict of an NRS cell whose MD form's content is the complexity
_CONTENT_CERTIFIED = ReducedVerdict("Reduced", certificate="SailCertified")


def _matrix_cell(args) -> GridCell:
    """An NRS cell classified from its matrix by is_reduced."""
    mn, matrix = args
    verdict = is_reduced(matrix, Sail())
    return GridCell(mn, _NRS_CLASS[verdict.status], verdict)


def _classify_cells(t: HessType, anchor, points,
                    jobs: int = 1) -> List[GridCell]:
    """The family's cells at `points`, in their order, from its invariants
    (NOTES.md, "Atlas cells from the family's invariants").  A cell that
    does not reach a sail takes its class from integers alone: the
    coefficients b = -tr and c2 of its characteristic polynomial, p(1),
    p(-1) and cubic_discriminant.  Only the NRS cells that the MD form's
    content leaves open build a matrix, from the last column that the
    invariants are made of, and take their Sail verdicts in a pool of at
    most `jobs` processes."""
    if jobs < 1:
        raise ExactError("jobs must be at least 1, got %d" % jobs)
    if not isinstance(anchor, IntVector):
        anchor = IntVector(anchor)
    if t.n != 3:  # raises FamilyPoint's error for the two parameters
        FamilyPoint(t, anchor, (0, 0))
    perfect, det = family_info(t, anchor)
    (a11, a21), (a12, a22, a32) = t.columns
    w1, w2, w3 = anchor.coords
    tr0, minor0 = a11 + a22, a11 * a22 - a12 * a21
    c = t.complexity()
    certifies = {}  # (m mod c, n mod c) -> whether the content is c

    def certified(m, n):
        key = (m % c, n % c)
        if key not in certifies:
            md = md_form3(family_member(FamilyPoint(t, anchor, (m, n))))
            certifies[key] = content_certifies(md, c)
        return certifies[key]

    cells, left = [], []
    for m, n in points:
        v2, v3 = w2 + m * a21 + n * a22, w3 + n * a32
        b = -tr0 - v3
        c2 = minor0 + tr0 * v3 - a32 * v2
        if 1 + b + c2 - det == 0 or -1 + b - c2 - det == 0:  # p(1), p(-1)
            cells.append(GridCell((m, n), "ReduciblePoly"))
        elif cubic_discriminant(1, b, c2, -det) > 0:  # p is squarefree
            cells.append(GridCell((m, n), "RS"))
        elif det == 1 and perfect and (c == 1 or certified(m, n)):
            cells.append(GridCell((m, n), "NRS_Reduced", _CONTENT_CERTIFIED))
        else:
            v1 = w1 + m * a11 + n * a12
            cells.append(None)
            left.append(((m, n), IntMatrix(((a11, a12, v1), (a21, a22, v2),
                                            (0, a32, v3)))))
    workers = min(jobs, len(left))
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            done = iter(pool.map(_matrix_cell, left, chunksize=1))
    else:
        done = map(_matrix_cell, left)
    return [cell or next(done) for cell in cells]


def classify_grid(t: HessType, anchor, m_range, n_range, jobs: int = 1):
    """Classify every cell of the window (_classify_cells); returns (cells,
    counts) with the cells ordered by (m, n).  A range lo:hi with lo > hi
    holds no cell and is an ExactError."""
    for axis, (lo, hi) in (("m", m_range), ("n", n_range)):
        if lo > hi:
            raise ExactError("the %s range %d:%d is empty" % (axis, lo, hi))
    points = [(m, n) for m in range(m_range[0], m_range[1] + 1)
              for n in range(n_range[0], n_range[1] + 1)]
    cells = _classify_cells(t, anchor, points, jobs)
    counts = {}
    for cell in cells:
        counts[cell.cls] = counts.get(cell.cls, 0) + 1
    return cells, counts


def ray_scan(t: HessType, anchor, start, direction, t_max: int):
    """Verdicts along the ray start + t*direction, t = 0..t_max.

    Returns (entries, last_nonreduced) where entries are
    (t, cell class, verdict-or-None); non-NRS cells are flagged by their
    class and carry no verdict.
    """
    if t_max < 0:
        raise ExactError("t_max must be at least 0, got %d" % t_max)
    if len(start) != 2:
        raise ExactError("ray start must have two entries (m,n), got %d"
                         % len(start))
    if tuple(direction) not in ((-1, 0), (t.columns[0][0], t.columns[0][1])):
        raise ExactError("ray direction must be (-1,0) or (a11,a21)")
    points = [(start[0] + k * direction[0], start[1] + k * direction[1])
              for k in range(t_max + 1)]
    cells = _classify_cells(t, anchor, points)
    entries = [(k, cell.cls, cell.verdict) for k, cell in enumerate(cells)]
    return entries, max((k for k, cls, _ in entries
                         if cls == "NRS_Nonreduced"), default=None)


# the fixed 4D family of the quartic atlas
FAMILY_4D_TYPE = HessType([[0, 1], [0, 0, 1], [1, 3, 1, 4]])
# the anchor reproducing the printed quartic; the last column of a family
# member is fixed by its characteristic polynomial, and this is the one at
# l = m = n = 0 (NOTES.md, the 4D family anchor)
FAMILY_4D_ANCHOR = IntVector((0, 0, 0, 1))


def quartic_4d(l: int, m: int, n: int) -> IntPoly:
    """t^4 + (-4n-2)t^3 + (-4m-2)t^2 + (2-4l)t + 1."""
    return IntPoly((1, 2 - 4 * l, -4 * m - 2, -4 * n - 2, 1))


def reducible_4d(l: int, m: int, n: int) -> bool:
    """Reducibility of the quartic by the closed-form criteria: a root at
    +-1 or a splitting into two integer quadratics with constant terms
    both +1 or both -1."""
    if l + m + n == 0 or n - m + l == 0:
        return True
    s = -4 * n - 2
    if l - n - 1 == 0 and _is_square(s * s - 4 * (-4 * m - 4)):
        return True
    if l + n == 0 and _is_square(s * s - 4 * (-4 * m)):
        return True
    return False


def classify_family_4d(bound: int = 15) -> List[GridCell]:
    """Classification of the fixed 4D family on |l|,|m|,|n| <= bound, from
    (l, m, n) alone: reducible cells by reducible_4d, and for irreducible
    ones the spectrum kind from quartic_real_root_count on the coefficients
    (1, -4n-2, -4m-2, 2-4l, 1) of quartic_4d, the family's characteristic
    polynomial at every cell (its coefficients are affine in (l, m, n), and
    the tests check it at four affinely independent points).  An irreducible
    quartic is squarefree, so no cell has a zero discriminant (NOTES.md, 4D
    cells from closed forms)."""
    if bound < 0:
        raise ExactError("bound must be at least 0, got %d" % bound)
    kinds = {0: "Spectrum4(complex)", 2: "Spectrum4(2+2)", 4: "Spectrum4(real)"}
    cells = []
    rng = range(-bound, bound + 1)
    for l in rng:
        d = 2 - 4 * l
        for m in rng:
            c = -4 * m - 2
            for n in rng:
                if reducible_4d(l, m, n):
                    cls = "ReduciblePoly"
                else:
                    real = quartic_real_root_count(1, -4 * n - 2, c, d, 1)
                    cls = kinds[real]
                cells.append(GridCell((l, m, n), cls))
    return cells


DEFAULT_PALETTE = {
    "ReduciblePoly": (0, 0, 0),
    "RS": (200, 200, 200),
    "NRS_Nonreduced": (100, 100, 100),
    "NRS_Reduced": (255, 255, 255),
    "NRS_Unknown": (150, 150, 150),
}


def render_grid(cells: Sequence[GridCell], fmt: str = "PPM",
                palette: Dict[str, tuple] = None) -> bytes:
    """Render 2-parameter cells as one square per cell; n grows rightward,
    m grows downward (row-major in m)."""
    palette = dict(DEFAULT_PALETTE, **(palette or {}))
    ms = sorted({c.params[0] for c in cells})
    ns = sorted({c.params[1] for c in cells})
    lookup = {c.params: c.cls for c in cells}
    if len(lookup) != len(ms) * len(ns):
        raise ExactError("cells do not fill a rectangular window")
    if fmt.upper() == "PPM":
        lines = ["P3", "%d %d" % (len(ns), len(ms)), "255"]
        for m in ms:
            row = []
            for n in ns:
                row.extend(str(x) for x in palette[lookup[(m, n)]])
            lines.append(" ".join(row))
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt.upper() == "SVG":
        cell_px = 8
        out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
               % (len(ns) * cell_px, len(ms) * cell_px)]
        for i, m in enumerate(ms):
            for j, n in enumerate(ns):
                r, g, b = palette[lookup[(m, n)]]
                out.append(
                    '<rect x="%d" y="%d" width="%d" height="%d" '
                    'fill="rgb(%d,%d,%d)"><title>m=%d n=%d</title></rect>'
                    % (j * cell_px, i * cell_px, cell_px, cell_px, r, g, b, m, n))
        out.append("</svg>")
        return "\n".join(out).encode("ascii")
    raise ExactError("unknown render format %r" % fmt)

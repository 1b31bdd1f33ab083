"""Klein-Voronoi continued fractions for SL(3,Z) NRS operators.

An NRS operator has one real eigenvalue r and a complex conjugate pair.
The cone pi_+ is a half-plane with coordinates (x, y): x along the real
eigenvector, y the torus-orbit radius.  Both are carried exactly: x lives
in Q(r) and y is stored through its square y_sq in Q(r) (a fixed positive
multiple of the true squared radius; convex hulls in (x, y) are invariant
under positive axis scalings, so the scale never matters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .exact import (
    ExactError,
    IntMatrix,
    IntVector,
    char_poly,
    count_real_roots,
    det,
    discriminant,
    factor_small,
)
from .numberfield import (
    FieldElement,
    NumberField,
    sign_three_sqrt,
)

_SMALL = Fraction(1, 1 << 20)


class SailError(ExactError):
    pass


class Inconclusive(SailError):
    """Raised when a certified computation exceeds its configured budget."""


def _require_nrs(m: IntMatrix) -> None:
    if m.n != 3:
        raise SailError("sails are implemented for 3x3 operators only")
    if det(m) != 1:
        raise SailError("matrix is not in SL(3,Z)")
    p = char_poly(m)
    if len(factor_small(p)) != 1:
        raise SailError("characteristic polynomial is reducible")
    if discriminant(p) >= 0:
        raise SailError("matrix has real spectrum (RS); sails unsupported")


@dataclass
class EigenData3:
    """Exact eigen data of an NRS operator.

    g1 is the real eigenvector, a column of adj(M - rI); the coordinate x
    is the linear form x_form, a row w of adj(M - rI) divided once by the
    entry where that row meets g1's column.  s and q are the elementary
    symmetric functions c + conj(c) and c*conj(c) of the complex pair, used
    to fold the complex coordinate modulus into Q(r).
    """

    matrix: IntMatrix
    inverse: IntMatrix  # adj(M), as det M = 1
    field: NumberField
    r: FieldElement
    g1: Tuple[FieldElement, FieldElement, FieldElement]
    x_form: Tuple[FieldElement, FieldElement, FieldElement]
    omega_rows: Tuple[Tuple[int, ...], ...]  # 3 integer rows: omega_0/1/2 at a fixed row
    s: FieldElement
    q: FieldElement

    @property
    def precision_bits(self) -> int:
        return self.field.precision_bits


def _adjugate_coeffs(m: IntMatrix):
    """Matrix coefficients omega_0,1,2 with adj(M - t I) = sum omega_k t^k."""
    ident = IntMatrix.identity(3)
    a0 = m.adjugate()
    ap = (m - ident).adjugate()
    am = (m + ident).adjugate()
    w1 = [[(ap[i, j] - am[i, j]) // 2 for j in range(3)] for i in range(3)]
    w2 = [[(ap[i, j] + am[i, j]) // 2 - a0[i, j] for j in range(3)] for i in range(3)]
    return a0, IntMatrix(w1), IntMatrix(w2)


def eigen_data(m: IntMatrix, bits: int = 4096) -> EigenData3:
    _require_nrs(m)
    p = char_poly(m)
    field = NumberField.for_largest_root(p, precision_bits=bits)
    r = field.gen()
    a0, w1, w2 = _adjugate_coeffs(m)

    def b_entry(i, j):
        return field.element([a0[i, j], w1[i, j], w2[i, j]])

    pivot = None
    for i in range(3):
        for j in range(3):
            if b_entry(i, j).sign() != 0:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        raise SailError("adjugate vanished at the real eigenvalue")
    i0, j0 = pivot
    g1 = tuple(b_entry(i, j0) for i in range(3))
    wg_inv = b_entry(i0, j0).inverse()
    x_form = tuple(b_entry(i0, j) * wg_inv for j in range(3))

    trace = m.trace()
    s = field.element([trace]) - r
    q = r.inverse()

    # a row of the adjugate that stays nonzero at the complex eigenvalues:
    # row i works iff the induced modulus form is not identically zero
    omega_rows = None
    for i in range(3):
        rows = (tuple(a0[i, j] for j in range(3)),
                tuple(w1[i, j] for j in range(3)),
                tuple(w2[i, j] for j in range(3)))
        probe = EigenData3(m, a0, field, r, g1, x_form, rows, s, q)
        if any(_y_sq(probe, IntVector(e)).sign() != 0
               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            omega_rows = rows
            break
    if omega_rows is None:
        raise SailError("no usable left eigenvector row for the complex pair")
    return EigenData3(m, a0, field, r, g1, x_form, omega_rows, s, q)


@dataclass(frozen=True)
class PiPoint:
    preimage: IntVector
    x: FieldElement
    y_sq: FieldElement


def _x_coord(e: EigenData3, v: IntVector) -> FieldElement:
    f0, f1, f2 = e.x_form
    return f0 * v[0] + f1 * v[1] + f2 * v[2]


def _y_sq(e: EigenData3, v: IntVector) -> FieldElement:
    f0 = sum(c * vi for c, vi in zip(e.omega_rows[0], v))
    f1 = sum(c * vi for c, vi in zip(e.omega_rows[1], v))
    f2 = sum(c * vi for c, vi in zip(e.omega_rows[2], v))
    K = e.field
    s, q = e.s, e.q
    out = K.element([f0 * f0])
    out = out + (f0 * f1) * s
    out = out + (f0 * f2) * (s * s - 2 * q)
    out = out + (f1 * f1) * q
    out = out + (f1 * f2) * (s * q)
    out = out + (f2 * f2) * (q * q)
    return out


def project_pi(e: EigenData3, v: IntVector) -> PiPoint:
    v = IntVector(v)
    return PiPoint(v, _x_coord(e, v), _y_sq(e, v))


def dirichlet_generator(m: IntMatrix) -> IntMatrix:
    """The smallest power (up to sign) of M with positive real eigenvalue.

    For SL(3,Z) NRS matrices the real eigenvalue satisfies r * |c|^2 = 1,
    so r > 0 always and the generator is M itself.
    """
    _require_nrs(m)
    return m


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
    """Sign of the cross product (p2-p1) x (p3-p1) in the (x, y) chart."""
    a = p2.x - p1.x
    b = p1.x - p3.x
    c = p3.x - p2.x
    return sign_three_sqrt(a, p3.y_sq, b, p2.y_sq, c, p1.y_sq)


def _pareto_filter(points: List[PiPoint]) -> List[PiPoint]:
    """Keep points not dominated in both coordinates; hull vertices of a
    point set with positive-quadrant recession cone survive this cull."""
    decorated = []
    for p in points:
        x_lo, x_hi = p.x.interval(_SMALL)
        y_lo, y_hi = p.y_sq.interval(_SMALL)
        decorated.append((x_lo, x_hi, y_lo, y_hi, p))
    decorated.sort(key=lambda t: (t[0], t[2]))
    out = []
    best_y_hi = None
    for x_lo, x_hi, y_lo, y_hi, p in decorated:
        if best_y_hi is not None and y_lo >= best_y_hi:
            continue
        out.append(p)
        if best_y_hi is None or y_hi < best_y_hi:
            best_y_hi = y_hi
    return out


@dataclass(frozen=True)
class SailData:
    operator: IntMatrix
    vertices: Tuple[PiPoint, ...]          # hull vertices, x ascending
    generator: IntMatrix
    fundamental: Tuple[int, ...]           # indices into vertices

    def fundamental_vertices(self) -> List[PiPoint]:
        return [self.vertices[i] for i in self.fundamental]

    def to_json(self) -> list:
        out = []
        fund = set(self.fundamental)
        for i, p in enumerate(self.vertices):
            x_lo, x_hi = p.x.interval(Fraction(1, 10 ** 12))
            ysq_lo, ysq_hi = p.y_sq.interval(Fraction(1, 10 ** 12))
            y_lo = _sqrt_lower(max(ysq_lo, Fraction(0)))
            y_hi = _sqrt_upper(max(ysq_hi, Fraction(0)))
            out.append({
                "preimage": list(p.preimage),
                "x": [_dec(x_lo), _dec(x_hi)],
                "y": [_dec(y_lo), _dec(y_hi)],
                "is_fundamental": i in fund,
            })
        return out


def _sqrt_lower(x: Fraction) -> Fraction:
    """floor(sqrt(n d)) / d <= sqrt(x) for x = n / d >= 0."""
    n, d = x.numerator, x.denominator
    return Fraction(math.isqrt(n * d), d)


def _sqrt_upper(x: Fraction) -> Fraction:
    """ceil(sqrt(n d)) / d >= sqrt(x) for x = n / d >= 0."""
    nd = x.numerator * x.denominator
    s = math.isqrt(nd)
    return Fraction(s + (s * s < nd), x.denominator)


def _dec(x: Fraction) -> str:
    return "%.9f" % float(x)


def _expansion(e: EigenData3):
    """(G, G^-1, rho): the generator of the sail period action that expands
    x, its inverse, and the float expansion factor rho > 1 of x."""
    if (e.r - 1).sign() > 0:
        return e.matrix, e.inverse, e.r.approx()
    return e.inverse, e.matrix, 1 / e.r.approx()


def _x_sign(e: EigenData3, v: IntVector) -> int:
    """The sign of x(v), from floats where their error bound decides it.

    Each x_form[i].approx() is the midpoint of an enclosure of width
    2^-40, so it is within 2^-41 + 2^-53 |x_form[i]| of its value, and the
    float dot product adds at most 4 * 2^-53 * sum |x_form[i] v_i|.  A
    float result beyond twice that bound has the exact sign; any other is
    decided in Q(r).
    """
    terms = [f.approx() * c for f, c in zip(e.x_form, v)]
    xf = sum(terms)
    bound = 2.0 ** -40 * sum(abs(c) for c in v) \
        + 2.0 ** -49 * sum(abs(t) for t in terms)
    if abs(xf) > bound:
        return 1 if xf > 0 else -1
    return _x_coord(e, v).sign()


def _positive(e: EigenData3, v: IntVector) -> IntVector:
    """v or -v, whichever has positive x (x vanishes on no nonzero integer
    vector, since the real eigenvalue is irrational)."""
    return -v if _x_sign(e, v) < 0 else v


def _period_shift(e: EigenData3, g: IntMatrix, g_inv: IntMatrix, rho: float,
                  v: IntVector, t: IntVector):
    """(k, G^k v) with x(G^k v) <= x(t) < x(G^(k+1) v), for x(v) > 0 and G
    expanding x by rho: a float guess of k from logarithms, fixed by the
    signs of x, which is linear."""
    ratio = _x_approx(e, t) / _x_approx(e, v)
    k = math.floor(math.log(ratio) / math.log(rho)) \
        if 0 < ratio < math.inf else 0
    u = v
    for _ in range(abs(k)):
        u = (g if k > 0 else g_inv) * u
    while _x_sign(e, u - t) > 0:
        u, k = g_inv * u, k - 1
    while _x_sign(e, g * u - t) <= 0:
        u, k = g * u, k + 1
    return k, u


def _x_approx(e: EigenData3, v: IntVector) -> float:
    return sum(f.approx() * c for f, c in zip(e.x_form, v))


def _x_float(e: EigenData3, pts):
    import numpy as np
    return pts.astype(float) @ np.array([f.approx() for f in e.x_form])


def _y_float(e: EigenData3, pts):
    import numpy as np
    coords = pts.astype(float)
    sf, qf = e.s.approx(), e.q.approx()
    f = [coords @ np.array(row, dtype=float) for row in e.omega_rows]
    return (f[0] * f[0] + f[0] * f[1] * sf + f[0] * f[2] * (sf * sf - 2 * qf)
            + f[1] * f[1] * qf + f[1] * f[2] * sf * qf + f[2] * f[2] * qf * qf)


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
    """The slab of a seed p, {x between x(p) and x(Mp)} cut with
    {F <= f_max}, padded, with an integral-LLL basis of its metric (rows of
    a unimodular matrix) and the box [los, his] of basis coordinates that
    covers its ellipsoid."""

    seed: IntVector
    x_lo: float
    x_hi: float
    f_max: float
    basis: Tuple[Tuple[int, int, int], ...]
    los: Tuple[int, int, int]
    his: Tuple[int, int, int]


def _f_quadratic(e: EigenData3):
    """Float 3x3 matrix of the quadratic form F (squared orbit radius)."""
    import numpy as np
    rows = np.array([row for row in e.omega_rows], dtype=float)
    sf, qf = e.s.approx(), e.q.approx()
    c = np.array([
        [1.0, sf / 2, (sf * sf - 2 * qf) / 2],
        [sf / 2, qf, sf * qf / 2],
        [(sf * sf - 2 * qf) / 2, sf * qf / 2, qf * qf],
    ])
    return rows.T @ c @ rows


def reduced_slab(e: EigenData3, p: IntVector, start=None) -> Slab:
    """The slab of p, reduced from the basis rows `start` (the identity by
    default).

    Gamma^0(p) sits inside the slab {x(p') between x(p) and x(Mp)} cut with
    {F <= max(F(p), F(Mp))}: x is linear and F is convex, so both bounds
    pass from the two orbits to their convex hull.  That region is a long
    thin needle around the real eigenline, so its coordinate bounding box
    can be astronomically larger than its point count.  The metric blending
    the (x - x_mid)^2 window term with F/F_max, scaled and rounded to an
    integer Gram matrix, gets an integral LLL basis (Lenstra-Lenstra-Lovasz)
    that turns the needle into a small box, whose bounds come from the
    inverse Gram matrix (Fincke-Pohst).  The basis is unimodular by
    construction, so rounding affects only its quality; the box and the
    cuts of gamma0_slab_points are float, with wide inflation but no proven
    error bound.

    Raises Inconclusive when the metric is not finite and positive
    definite, or when a box bound is out of range.
    """
    import numpy as np
    x_p = _x_coord(e, p)
    if x_p.sign() <= 0:
        raise SailError("slab seed must have positive x coordinate")
    rf = e.r.approx()
    xpf = x_p.approx()
    x_lo, x_hi = sorted((xpf, rf * xpf))
    pad = 1e-6
    x_lo *= 1 - pad
    x_hi *= 1 + pad
    x_mid = (x_lo + x_hi) / 2
    half = (x_hi - x_lo) / 2
    f_p = _y_sq(e, p).approx()
    f_max = (f_p * max(1.0, 1.0 / rf)) * (1 + pad) + pad

    wf = np.array([f.approx() for f in e.x_form])
    a = np.outer(wf, wf) / (half * half) + _f_quadratic(e) / f_max
    if start is not None:
        s = np.array(start, dtype=float)
        a = s @ a @ s.T
    top = float(np.abs(a).max())
    if not 0 < top < math.inf:  # NaN fails too
        raise Inconclusive("slab metric is not finite")
    shift = 62 - math.frexp(top)[1]
    gram = [[round(math.ldexp(c, shift)) for c in row] for row in a.tolist()]
    h = _integral_lll(gram)
    basis = IntMatrix(h) if start is None else IntMatrix(h) * IntMatrix(start)

    # u-coordinates of the ellipsoid (u B - c) a (u B - c)^T <= 2.2 have
    # |u_i - u0_i| <= sqrt(2.2 * (G^-1)_ii), G = h gram h^T / 2^shift
    hg = [[sum(hk[j] * gram[j][l] for j in range(3)) for l in range(3)]
          for hk in h]
    g = [[sum(x * y for x, y in zip(row, hl)) for hl in h] for row in hg]
    minors = (g[1][1] * g[2][2] - g[1][2] ** 2,
              g[0][0] * g[2][2] - g[0][2] ** 2,
              g[0][0] * g[1][1] - g[0][1] ** 2)
    det_g = (g[0][0] * minors[0]
             - g[0][1] * (g[0][1] * g[2][2] - g[1][2] * g[0][2])
             + g[0][2] * (g[0][1] * g[1][2] - g[1][1] * g[0][2]))
    try:
        radii = np.sqrt([2.2 * math.ldexp(mi / det_g, shift)
                         for mi in minors]) + 1
    except OverflowError:
        raise Inconclusive("reduced-basis ellipsoid has an out-of-range bound")
    g1f = np.array([gi.approx() for gi in e.g1])
    center = (x_mid / float(wf @ g1f)) * g1f
    # u_i = v . (b_(i+1) x b_(i+2)) / det(B) for v = u B
    b = basis.rows
    cross = [[b[i][1] * b[j][2] - b[i][2] * b[j][1],
              b[i][2] * b[j][0] - b[i][0] * b[j][2],
              b[i][0] * b[j][1] - b[i][1] * b[j][0]]
             for i, j in ((1, 2), (2, 0), (0, 1))]
    u0 = (np.array(cross, dtype=float) @ center) \
        / sum(x * y for x, y in zip(cross[0], b[0]))
    los = np.ceil(u0 - radii)
    his = np.floor(u0 + radii)
    reach = np.abs(np.concatenate((los, his))).max() \
        * max(abs(c) for row in basis.rows for c in row)
    # NaN, infinite and non-integral (beyond 2^53) bounds all fail here,
    # as do points beyond int64
    if not reach < 2.0 ** 53:
        raise Inconclusive(
            "reduced-basis ellipsoid has a non-finite or out-of-range bound")
    return Slab(p, x_lo, x_hi, f_max, basis.rows,
                tuple(int(c) for c in los), tuple(int(c) for c in his))


def gamma0_slab_points(e: EigenData3, slab: Slab, cap: int = 40_000_000):
    """Integer points of the slab of reduced_slab, a certified superset of
    Gamma^0(slab.seed), as an (N, 3) numpy array.

    Raises Inconclusive when the box has more than `cap` cells, or when
    the seed p itself is missing from the output: p lies in its own slab
    (x(p) is a window end and F(p) <= F_max), so its absence proves that
    points were dropped.
    """
    import numpy as np
    los, his = np.array(slab.los), np.array(slab.his)
    total = float(np.prod(his - los + 1))
    if total > cap:
        raise Inconclusive(
            "reduced-basis ellipsoid with %d cells exceeds the cap" % total)
    grids = np.meshgrid(*[np.arange(l, h + 1, dtype=np.int64)
                          for l, h in zip(los, his)], indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    pts = u @ np.array(slab.basis, dtype=np.int64)
    xv = _x_float(e, pts)
    slack = 1e-9 * (1.0 + np.abs(pts).sum(axis=1).astype(float)) + 1e-9
    keep = (xv >= slab.x_lo - slack) & (xv <= slab.x_hi + slack) \
        & np.any(pts != 0, axis=1)
    pts = pts[keep]
    pts = pts[_y_float(e, pts) <= slab.f_max]
    p = slab.seed
    if not np.any(np.all(pts == np.array(tuple(p)), axis=1)):
        raise Inconclusive("slab enumeration lost its own seed %s"
                           % (tuple(p),))
    return pts


# a basis row replaces e1 as the seed only when its slab is this many
# times smaller: e1's slabs are tiny on the atlas families, and switching
# there costs a second reduction for nothing
_SEED_GAIN = 16


def fundamental_slab(e: EigenData3) -> Slab:
    """The slab that both the verdict and the sail enumerate: that of e1 (up
    to sign), or that of the row of e1's reduced basis with the smallest
    slab, when it is at least _SEED_GAIN times smaller.

    A slab's volume is proportional to x(p) * F(p), so e1's depends on the
    basis the input is written in.  A shortest vector v of any metric
    alpha X + beta F (X = x^2) has x(v) * F(v) <= C sqrt(det(X + F)), which
    no unimodular change of basis alters, so a short row of the basis bounds
    the slab whatever the input basis.  Every integer vector with positive x
    spans a window of one full period, so the choice affects cost only; the
    row seed's slab is re-reduced from e1's basis.
    """
    import numpy as np
    slab = reduced_slab(e, _positive(e, IntVector((1, 0, 0))))
    cands = np.array((tuple(slab.seed),) + slab.basis, dtype=np.int64)
    vol = np.abs(_x_float(e, cands)) * _y_float(e, cands)
    i = 1 + int(np.argmin(vol[1:]))
    if _SEED_GAIN * vol[i] > vol[0]:
        return slab
    return reduced_slab(e, _positive(e, IntVector(cands[i])), slab.basis)


def _candidate_preimages(e: EigenData3, pts) -> List[IntVector]:
    """Cull an integer point array to possible hull vertices: positive x
    and Pareto-minimal in (x, y_sq) up to a wide float safety margin.  Only
    surely-positive points may dominate others, and survivors with an
    uncertain x sign are resolved exactly."""
    import numpy as np
    xf = _x_float(e, pts)
    yf = _y_float(e, pts)
    eps = 1e-9 * (1.0 + np.abs(pts).sum(axis=1).astype(float))
    keep = xf > -eps
    pts, xf, yf, eps = pts[keep], xf[keep], yf[keep], eps[keep]

    margin = 1e-6
    order = np.argsort(xf, kind="stable")
    y_hi = np.where(xf[order] > eps[order],
                    yf[order] * (1 + margin) + margin, np.inf)
    y_lo = yf[order] * (1 - margin) - margin
    best_prev = np.concatenate(([np.inf], np.minimum.accumulate(y_hi)[:-1]))
    surv = order[y_lo < best_prev]

    out = []
    for idx in surv:
        v = IntVector(int(c) for c in pts[idx])
        if xf[idx] <= eps[idx] and _x_coord(e, v).sign() <= 0:
            continue
        out.append(v)
    return out


def compute_sail(m: IntMatrix, bits: int = 4096,
                 point_cap: int = 40_000_000) -> SailData:
    """The sail vertices with x in [x(G^-1 e1), x(G^2 e1)], where G is the
    generator (M or M^-1) that expands x and e1 is taken up to sign, with
    the fundamental window [x(e1), x(M e1)) (ends in x order) marked.

    Points come from the slab of fundamental_slab (at most `point_cap`
    enumerated cells, else Inconclusive), which spans one period
    [x(p0), x(G p0)] of x.  The hull of the G^-1, G^0 and G^1 images of its
    hull candidates has a full period, and so a sail vertex, on each side
    of [x(p0), x(G p0)), so its vertices there are the sail's; their period
    consistency is verified.  With k such that x(G^k p0) <= x(e1) <
    x(G^(k+1) p0), the G^j images of that period, j = k-1..k+2, cover the
    output range.
    """
    e = eigen_data(m, bits)
    g, g_inv, rho = _expansion(e)
    slab = fundamental_slab(e)
    base = _candidate_preimages(e, gamma0_slab_points(e, slab, point_cap))
    near = {tuple(u): u for v in base for u in (g_inv * v, v, g * v)}
    hull = _lower_hull(_sort_points(_pareto_filter(
        [project_pi(e, u) for u in near.values()])))

    p0 = slab.seed if g == e.matrix else e.matrix * slab.seed
    x0, x1 = _x_coord(e, p0), _x_coord(e, g * p0)
    period = [p.preimage for p in hull if p.x.cmp(x0) >= 0 and p.x.cmp(x1) < 0]
    hull_keys = {tuple(p.preimage) for p in hull}
    if not period or any(tuple(g * v) not in hull_keys for v in period):
        raise Inconclusive("sail period window failed the consistency check")

    e1 = _positive(e, IntVector((1, 0, 0)))
    x_e1 = _x_coord(e, e1)
    k, _ = _period_shift(e, g, g_inv, rho, p0, e1)
    lo = _x_coord(e, g_inv * e1)
    hi = _x_coord(e, g * (g * e1))
    step = g ** (k - 1) if k >= 1 else g_inv ** (1 - k)
    vertices = []
    for _ in range(4):
        for v in period:
            p = project_pi(e, step * v)
            if p.x.cmp(lo) >= 0 and p.x.cmp(hi) <= 0:
                vertices.append(p)
        step = g * step

    # fundamental window: [x(e1), x(G e1)) when G = M, else [x(M e1), x(e1))
    xa, xb = (x_e1, _x_coord(e, g * e1)) if g == e.matrix else (lo, x_e1)
    fund = [i for i, p in enumerate(vertices)
            if p.x.cmp(xa) >= 0 and p.x.cmp(xb) < 0]
    return SailData(m, tuple(vertices), g, tuple(fund))


def _sort_points(points: List[PiPoint]) -> List[PiPoint]:
    import functools

    def cmp(p1, p2):
        c = p1.x.cmp(p2.x)
        if c:
            return c
        return p1.y_sq.cmp(p2.y_sq)

    pts = sorted(points, key=functools.cmp_to_key(cmp))
    out = []
    for p in pts:
        if out and out[-1].x.cmp(p.x) == 0:
            continue  # keep the lower point at equal x
        out.append(p)
    return out


def _lower_hull(points: List[PiPoint]) -> List[PiPoint]:
    hull: List[PiPoint] = []
    for p in points:
        while len(hull) >= 2 and _orientation(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull

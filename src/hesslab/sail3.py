"""Klein-Voronoi continued fractions for SL(3,Z) NRS operators.

An NRS operator has one real eigenvalue r and a complex conjugate pair.
The cone pi_+ is a half-plane with coordinates (x, y): x along the real
eigenvector, y the torus-orbit radius.  Both are carried exactly: x lives
in Q(r) and y is stored through its square y_sq in Q(r) (a fixed positive
multiple of the true squared radius; convex hulls in (x, y) are invariant
under positive axis scalings, so the scale never matters).
"""

from __future__ import annotations

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

    g1 is the real eigenvector and w a left real eigenvector, both as
    columns/rows of adj(M - rI); s and q are the elementary symmetric
    functions c + conj(c) and c*conj(c) of the complex pair, used to fold
    the complex coordinate modulus into Q(r).
    """

    matrix: IntMatrix
    field: NumberField
    r: FieldElement
    g1: Tuple[FieldElement, FieldElement, FieldElement]
    w: Tuple[FieldElement, FieldElement, FieldElement]
    w_dot_g1: FieldElement
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
    w = tuple(b_entry(i0, j) for j in range(3))
    wg = b_entry(i0, j0)

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
        probe = EigenData3(m, field, r, g1, w, wg, rows, s, q)
        if any(_y_sq(probe, IntVector(e)).sign() != 0
               for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            omega_rows = rows
            break
    if omega_rows is None:
        raise SailError("no usable left eigenvector row for the complex pair")
    return EigenData3(m, field, r, g1, w, wg, omega_rows, s, q)


@dataclass(frozen=True)
class PiPoint:
    preimage: IntVector
    x: FieldElement
    y_sq: FieldElement


def _x_coord(e: EigenData3, v: IntVector) -> FieldElement:
    num = e.field.zero()
    for wi, vi in zip(e.w, v):
        num = num + wi * vi
    return num / e.w_dot_g1


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


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(max(x, 0))."""
    if x <= 0:
        return Fraction(0)
    n = max(x.numerator, 1)
    d = x.denominator
    # integer sqrt upper bounds
    return Fraction(_isqrt_up(n), _isqrt_down(d))


def _isqrt_up(n: int) -> int:
    import math
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def _isqrt_down(n: int) -> int:
    import math
    return max(math.isqrt(n), 1)


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
    p = char_poly(x)
    bound = Fraction(1) + max(abs(c) for c in p.coeffs[:-1])
    return count_real_roots(p, -bound, Fraction(0)) == 0


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
            y_hi = _sqrt_upper(ysq_hi)
            out.append({
                "preimage": list(p.preimage),
                "x": [_dec(x_lo), _dec(x_hi)],
                "y": [_dec(y_lo), _dec(y_hi)],
                "is_fundamental": i in fund,
            })
        return out


def _sqrt_lower(x: Fraction) -> Fraction:
    if x <= 0:
        return Fraction(0)
    import math
    n, d = x.numerator, x.denominator
    return Fraction(math.isqrt(n), _isqrt_up(d))


def _dec(x: Fraction) -> str:
    return "%.9f" % float(x)


def _expansion(e: EigenData3):
    """(generator G, its x-expansion rho > 1) for the sail period action."""
    one = e.field.one()
    if (e.r - one).sign() > 0:
        return e.matrix, e.r
    return e.matrix.inverse_unimodular(), e.r.inverse()


def _x_float(e: EigenData3, pts):
    import numpy as np
    wf = np.array([wi.approx() for wi in e.w]) / e.w_dot_g1.approx()
    return pts.astype(float) @ wf


def _y_float(e: EigenData3, pts):
    import numpy as np
    coords = pts.astype(float)
    sf, qf = e.s.approx(), e.q.approx()
    f = [coords @ np.array(row, dtype=float) for row in e.omega_rows]
    return (f[0] * f[0] + f[0] * f[1] * sf + f[0] * f[2] * (sf * sf - 2 * qf)
            + f[1] * f[1] * qf + f[1] * f[2] * sf * qf + f[2] * f[2] * qf * qf)


def _lll_basis(a):
    """Rows of a unimodular integer matrix, LLL-reduced for the inner
    product <x, y> = x a y with a positive definite (3x3, float)."""
    import numpy as np
    b = np.eye(3, dtype=np.int64)

    def gram_schmidt():
        mu = np.zeros((3, 3))
        norms = np.zeros(3)
        star = np.zeros((3, 3))
        for i in range(3):
            star[i] = b[i].astype(float)
            for j in range(i):
                mu[i, j] = (b[i] @ a @ star[j]) / norms[j]
                star[i] = star[i] - mu[i, j] * star[j]
            norms[i] = star[i] @ a @ star[i]
        return mu, norms

    k = 1
    guard = 0
    while k < 3 and guard < 1000:
        guard += 1
        mu, norms = gram_schmidt()
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[k] = b[k] - q * b[j]
                mu, norms = gram_schmidt()
        if norms[k] >= (0.75 - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            k = max(k - 1, 1)
    return b


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


def gamma0_slab_points(e: EigenData3, p: IntVector, cap: int = 40_000_000):
    """Integer points of a certified superset of Gamma^0(p), as an (N, 3)
    numpy array.

    Gamma^0(p) sits inside the slab {x(p') between x(p) and x(Mp)} cut with
    {F <= max(F(p), F(Mp))}: x is linear and F is convex, so both bounds
    pass from the two orbits to their convex hull.  That region is a long
    thin needle around the real eigenline, so its coordinate bounding box
    can be astronomically larger than its point count.  An LLL basis
    (Lenstra-Lenstra-Lovasz) for the metric blending the (x - x_mid)^2
    window term with F/F_max turns the needle into a small box, whose
    bounds come from the inverse metric (Fincke-Pohst).  All cuts are
    float, with wide inflation but no proven error bound.

    Raises Inconclusive when the box has more than `cap` cells, when the
    float metric yields a non-finite or out-of-range bound, or when p
    itself is missing from the output: p lies in its own slab (x(p) is a
    window end and F(p) <= F_max), so its absence proves that points were
    dropped.
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

    wf = np.array([wi.approx() for wi in e.w]) / e.w_dot_g1.approx()
    fq = _f_quadratic(e)
    a = np.outer(wf, wf) / (half * half) + fq / f_max
    g1f = np.array([gi.approx() for gi in e.g1])
    center = (x_mid / float(wf @ g1f)) * g1f

    basis = _lll_basis(a)
    dual = np.linalg.inv(basis.astype(float).T)  # u_i = dual[i] . v
    a_inv = np.linalg.inv(a)
    u0 = dual @ center
    with np.errstate(invalid="ignore"):
        radii = np.sqrt(2.2 * np.einsum("ij,jk,ik->i", dual, a_inv, dual)) + 1
    los = np.ceil(u0 - radii)
    his = np.floor(u0 + radii)
    # NaN, infinite and non-integral (beyond 2^53) bounds all fail here
    if not np.all(np.abs(np.concatenate((los, his))) < 2.0 ** 53):
        raise Inconclusive(
            "reduced-basis ellipsoid has a non-finite or out-of-range bound")
    total = float(np.prod(his - los + 1))
    if total > cap:
        raise Inconclusive(
            "reduced-basis ellipsoid with %d cells exceeds the cap" % total)
    grids = np.meshgrid(*[np.arange(l, h + 1, dtype=np.int64)
                          for l, h in zip(los, his)], indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    pts = u @ basis
    xv = pts.astype(float) @ wf
    slack = 1e-9 * (1.0 + np.abs(pts).sum(axis=1).astype(float)) + 1e-9
    keep = (xv >= x_lo - slack) & (xv <= x_hi + slack) \
        & np.any(pts != 0, axis=1)
    pts = pts[keep]
    pts = pts[_y_float(e, pts) <= f_max]
    if not np.any(np.all(pts == np.array(tuple(p)), axis=1)):
        raise Inconclusive("slab enumeration lost its own seed %s"
                           % (tuple(p),))
    return pts


def improve_seed(e: EigenData3, seed: IntVector, boxes=(16, 96)):
    """A primitive integer vector with positive x and a smaller orbit
    radius F than the seed, or None.

    The slab of gamma0_slab_points scales with F(seed), so a seed closer
    to the real eigenline (F measures the squared distance) can shrink an
    infeasible enumeration by orders of magnitude.  Any integer point with
    positive x is a valid seed: the window it spans still covers one full
    period of the Dirichlet action.
    """
    import numpy as np
    best_f = _y_sq(e, seed).approx()
    best_v = None
    for b in boxes:
        rng = np.arange(-b, b + 1)
        grids = np.meshgrid(rng, rng, rng, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        xf = _x_float(e, pts)
        eps = 1e-9 * (1.0 + np.abs(pts).sum(axis=1).astype(float))
        keep = np.abs(xf) > eps
        pts = pts[keep]
        if not len(pts):
            continue
        yf = _y_float(e, pts)
        idx = int(np.argmin(yf))
        if yf[idx] < 0.7 * best_f:
            best_f = yf[idx]
            best_v = IntVector(int(c) for c in pts[idx])
    if best_v is None:
        return None
    from math import gcd
    g = 0
    for c in best_v:
        g = gcd(g, abs(c))
    if g > 1:
        best_v = IntVector(c // g for c in best_v)
    if _x_coord(e, best_v).sign() < 0:
        best_v = -best_v
    if _x_coord(e, best_v).sign() <= 0:
        return None
    return best_v


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
    wg_sign = e.w_dot_g1.sign()
    for idx in surv:
        v = IntVector(int(c) for c in pts[idx])
        if xf[idx] <= eps[idx]:
            num = e.field.zero()
            for wi, vi in zip(e.w, v):
                num = num + wi * vi
            if num.sign() * wg_sign <= 0:
                continue
        out.append(v)
    return out


def compute_sail(m: IntMatrix, bits: int = 4096,
                 point_cap: int = 40_000_000) -> SailData:
    """Hull vertices of one sail covering a full period of the Dirichlet
    action, with the fundamental window marked.

    Points are gathered from the certified Gamma^0(e1) slab of
    gamma0_slab_points (at most `point_cap` enumerated cells, else
    Inconclusive) together with its generator images, so the central
    period window of the hull is the true sail; the period consistency of
    the result is verified before returning.
    """
    e = eigen_data(m, bits)
    g, rho = _expansion(e)
    seed = IntVector((1, 0, 0))
    if _x_coord(e, seed).sign() < 0:
        seed = -seed
    pts = gamma0_slab_points(e, seed, point_cap)
    base = _candidate_preimages(e, pts)

    seen = set()
    pts: List[PiPoint] = []
    for v in base:
        for k in (-1, 0, 1):
            u = v
            if k == 1:
                u = g * v
            elif k == -1:
                u = g.inverse_unimodular() * v
            key = tuple(u)
            if key in seen:
                continue
            seen.add(key)
            pts.append(project_pi(e, u))

    surv = _pareto_filter(pts)
    surv_sorted = _sort_points(surv)
    hull = _lower_hull(surv_sorted)

    # fundamental window [xa, rho*xa) with xa = min over the seed pair
    # (p, M p); the slab spans the same x range
    x_seed = _x_coord(e, seed)
    x_gseed = x_seed * e.r
    xa = x_seed if x_seed.cmp(x_gseed) <= 0 else x_gseed
    xb = xa * rho
    fund = [i for i, p in enumerate(hull)
            if p.x.cmp(xa) >= 0 and p.x.cmp(xb) < 0]

    # period consistency: G images of fundamental vertices are hull vertices
    hull_keys = {tuple(p.preimage) for p in hull}
    if any(tuple(g * hull[i].preimage) not in hull_keys for i in fund):
        raise Inconclusive("sail period window failed the consistency check")
    return SailData(m, tuple(hull), g, tuple(fund))


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

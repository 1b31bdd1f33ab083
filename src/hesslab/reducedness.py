"""Reducedness verdicts and conjugacy fingerprints.

A perfect Hessenberg matrix is reduced when no integer-conjugate perfect
matrix has smaller Hessenberg complexity; equivalently, when the minimum of
the MD-characteristic over nonzero integer vectors equals the complexity.
The Sail strategy takes that minimum exactly, in Python integers, over the
slab points of sail3.fundamental_window: they meet the orbit of every sail
vertex, where the MD form (a multiple of x y^2 on pi_+) attains its
minimum, and each minimiser is carried into e1's window.  The
fingerprint reads the same minimum off the sail that compute_sail builds
from the same points; only it builds a hull.  The Bounded strategy is a
plain box scan and is only ever a heuristic certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exact import ExactError, IntMatrix, IntVector, char_poly, det, factor_small
from .hessenberg import hessenberg_complexity, is_perfect, reduce_to_perfect
from .mdchar import md_characteristic, md_form3
from .numberfield import PrecisionExhausted
from .sail3 import Inconclusive as SailInconclusive
from .sail3 import compute_sail, fundamental_window


@dataclass(frozen=True)
class Bounded:
    B: int


@dataclass(frozen=True)
class Sail:
    precision: int = 4096
    region: int = 40_000_000


@dataclass(frozen=True)
class ReducedVerdict:
    status: str                      # Reduced | Nonreduced | Inconclusive
    certificate: Optional[str] = None  # SailCertified | BoundChecked
    bound: Optional[int] = None        # for BoundChecked
    witness: Optional[IntVector] = None
    reason: Optional[str] = None

    def __post_init__(self):
        assert self.status in ("Reduced", "Nonreduced", "Inconclusive")

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.status == "Reduced":
            cert = {"kind": self.certificate}
            if self.certificate == "BoundChecked":
                cert["bound"] = self.bound
            out["certificate"] = cert
        elif self.status == "Nonreduced":
            out["witness"] = list(self.witness)
        else:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class Fingerprint:
    """Sorted distinct perfect matrices reached from MD-minimal sail
    vertices, plus the shared minimal MD value."""

    matrices: Tuple[IntMatrix, ...]
    min_value: int

    def to_json(self) -> dict:
        return {
            "min_value": self.min_value,
            "matrices": [[list(r) for r in m.rows] for m in self.matrices],
        }


def _canonical_sign(v: IntVector) -> IntVector:
    """md is even in v; keep the lexicographically larger of v and -v."""
    return v if tuple(v) >= tuple(-v) else -v


def _eval_form_batch(coeffs, pts):
    """Vectorized signed-det cubic over an (N, 3) int array; falls back to
    exact Python integers when int64 could overflow."""
    import numpy as np
    bmax = int(np.abs(pts).max()) if len(pts) else 0
    cmax = max((abs(c) for c in coeffs), default=0)
    if cmax * (bmax ** 3) * 10 < 2 ** 62:
        x = pts[:, 0].astype(np.int64)
        y = pts[:, 1].astype(np.int64)
        z = pts[:, 2].astype(np.int64)
        from .mdchar import _EXPONENTS3
        out = np.zeros(len(pts), dtype=np.int64)
        for c, (a, b, g) in zip(coeffs, _EXPONENTS3):
            if c:
                out += c * x ** a * y ** b * z ** g
        return out
    from .mdchar import MDForm3
    form = MDForm3(tuple(coeffs))
    return np.array([form(p) for p in pts.tolist()], dtype=object)


def minimize_md_bounded(m: IntMatrix, bound: int) -> Tuple[int, List[IntVector]]:
    """Exact minimum of the MD-characteristic over primitive vectors with
    sup-norm at most `bound`, with every attaining vector (up to sign)."""
    if bound < 1:
        raise ExactError("bound must be positive")
    n = m.n
    if n == 3:
        import numpy as np
        coeffs = md_form3(m).coeffs
        rng = np.arange(-bound, bound + 1)
        side = 2 * bound + 1
        # slice along the first axis so memory stays bounded for large B
        step = max(1, 4_000_000 // (side * side))
        best = None
        wits = []
        for x0 in range(-bound, bound + 1, step):
            xs = np.arange(x0, min(x0 + step, bound + 1))
            gx, gy, gz = np.meshgrid(xs, rng, rng, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
            pts = pts[np.any(pts != 0, axis=1)]
            vals = np.abs(_eval_form_batch(coeffs, pts))
            nz = vals > 0
            pts, vals = pts[nz], vals[nz]
            if not len(vals):
                continue
            chunk_best = int(vals.min())
            if best is None or chunk_best < best:
                best = chunk_best
                wits = [pts[vals == chunk_best]]
            elif chunk_best == best:
                wits.append(pts[vals == chunk_best])
        wits = np.concatenate(wits) if wits else np.empty((0, 3), dtype=np.int64)
    else:
        import itertools
        best = None
        wits = []
        for p in itertools.product(range(-bound, bound + 1), repeat=n):
            if all(c == 0 for c in p):
                continue
            v = IntVector(p)
            val = md_characteristic(m, v)
            if val == 0:
                continue
            if best is None or val < best:
                best, wits = val, [p]
            elif val == best:
                wits.append(p)
    seen = set()
    out = []
    for p in wits:
        v = IntVector(int(c) for c in p)
        if not v.is_primitive():
            continue
        v = _canonical_sign(v)
        if tuple(v) not in seen:
            seen.add(tuple(v))
            out.append(v)
    out.sort(key=tuple)
    return best, out


def _sail_minimum(m: IntMatrix, strategy: Sail) -> Tuple[int, List[IntVector]]:
    """Certified global MD minimum over nonzero integer vectors, with its
    minimisers (up to sign) in the closed window [x(e1), x(M e1)] of e1
    (taken up to sign; ends in x order).

    The points of fundamental_window meet the orbit of every sail vertex,
    where the minimum is attained; md vanishes on no nonzero vector, as the
    characteristic polynomial is irreducible.  The MD characteristic is
    invariant under M, so each minimiser is carried into e1's window; both
    ends of the window count when e1's orbit is minimal.
    """
    w = fundamental_window(m, strategy.precision, strategy.region)
    form = md_form3(m)
    vals = [abs(form(v)) for v in w.points]
    best = min(vals)
    wits = set()
    for v, val in zip(w.points, vals):
        if val == best and v.is_primitive():
            u = w.carry(v)
            wits.add(_canonical_sign(u))
            if u == w.start:
                wits.add(_canonical_sign(w.generator * u))
    return best, sorted(wits, key=tuple)


def is_reduced(m: IntMatrix, strategy) -> ReducedVerdict:
    """The reducedness verdict of a perfect Hessenberg matrix with an
    irreducible characteristic polynomial.  The Sail route checks
    irreducibility in sail3, which raises SailError (an ExactError) with
    the message the Bounded route raises."""
    if not is_perfect(m):
        raise ExactError("matrix is not a perfect Hessenberg matrix")
    target = hessenberg_complexity(m)
    if isinstance(strategy, Bounded):
        if len(factor_small(char_poly(m))) != 1:
            raise ExactError("characteristic polynomial is reducible")
        best, wits = minimize_md_bounded(m, strategy.B)
        if best < target:
            return ReducedVerdict("Nonreduced", witness=wits[0])
        return ReducedVerdict("Reduced", certificate="BoundChecked",
                              bound=strategy.B)
    if isinstance(strategy, Sail):
        try:
            best, wits = _sail_minimum(m, strategy)
        except (SailInconclusive, PrecisionExhausted) as ex:
            return ReducedVerdict("Inconclusive", reason=str(ex))
        if best < target:
            return ReducedVerdict("Nonreduced", witness=wits[0])
        return ReducedVerdict("Reduced", certificate="SailCertified")
    raise ExactError("unknown strategy %r" % (strategy,))


def fingerprint(m: IntMatrix, precision: int = 4096,
                region: int = 40_000_000) -> Fingerprint:
    """Distinct perfect forms reached from the MD-minimal vertices of a
    fundamental domain, one reduction per vertex.  The second sail is the
    -E image of the first, and it needs none: reduce_to_perfect is even in
    the seed, as -U(v) meets every condition that fixes U(-v), so H(-v) =
    H(v)."""
    if det(m) != 1 or m.n != 3:
        raise ExactError("fingerprints require SL(3,Z) input")
    sail = compute_sail(m, bits=precision, point_cap=region)
    fund = sail.fundamental_vertices()
    if not fund:
        raise ExactError("empty fundamental domain")
    values = [md_characteristic(m, p.preimage) for p in fund]
    best = min(values)
    seen = {}
    for p, val in zip(fund, values):
        if val != best:
            continue
        h, _ = reduce_to_perfect(m, p.preimage)
        seen[h.rows] = h
    mats = [seen[k] for k in sorted(seen)]
    for h in mats:
        complexity = hessenberg_complexity(h)
        if complexity != best:
            raise ExactError("perfect form %s has complexity %d, not the "
                             "minimal MD value %d" % (h, complexity, best))
    return Fingerprint(tuple(mats), best)

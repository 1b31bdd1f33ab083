"""Reducedness verdicts and conjugacy fingerprints.

A perfect Hessenberg matrix is reduced when no integer-conjugate perfect
matrix has smaller Hessenberg complexity; equivalently, when the minimum of
the MD-characteristic over nonzero integer vectors equals the complexity.
That minimum is at least the content of the MD form, the gcd of its
coefficients.  The Sail strategy first checks, in sail3.require_nrs, that
its input is NRS in SL(3,Z), and certifies Reduced at once when the
content equals the complexity.  Otherwise it takes the minimum exactly, in
Python integers, in one fold over the slab points of
sail3.fundamental_window as sail3.slab_points streams them: they fill the
closed window of the slab's seed, which meets the orbit of every sail
vertex, where the MD form (a multiple of x y^2 on pi_+) attains its
minimum.  The fingerprint needs every minimiser, not the minimum alone,
so it always takes that route, behind the same require_nrs, and reduces
one minimiser per M-orbit.  The Bounded strategy is the box scan of
`verdict --strategy bounded` and `minimize`, in Python integers, and the
only verdict for RS and n != 3 input: it finds the exact minimum over the
box (or raises ExactError when the MD characteristic vanishes on all of
it), but a minimum over a box is only ever a heuristic certificate.  The
family scans of the atlas module take the Sail strategy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exact import (
    ExactError,
    IntMatrix,
    IntVector,
    char_poly,
    discriminant,
    factor_small,
)
from .hessenberg import hessenberg_complexity, is_perfect, reduce_to_perfect
from .mdchar import MDForm3, md_characteristic, md_form3
from .sail3 import (
    FundamentalWindow,
    Inconclusive as SailInconclusive,
    fundamental_window,
    require_nrs,
    slab_points,
)


@dataclass(frozen=True)
class Bounded:
    B: int


@dataclass(frozen=True)
class Sail:
    """The certified strategy: the exact minimum over the fundamental
    window, behind the content bound."""


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


def minimize_md_bounded(m: IntMatrix, bound: int) -> Tuple[int, List[IntVector]]:
    """Exact minimum of the MD-characteristic over the primitive vectors of
    sup-norm at most `bound` on which it is nonzero, with every attaining
    vector (up to sign, sorted).  The box is scanned in columns along the
    last coordinate; for n = 3 each (x, y) column is one cubic in z,
    evaluated by Horner.  Raises ExactError when the characteristic
    vanishes on the whole box."""
    if bound < 1:
        raise ExactError("bound must be positive")
    span = range(-bound, bound + 1)
    if m.n == 3:
        form = md_form3(m)
        columns = (((x, y), form.along_z(x, y, span))
                   for x in span for y in span)
    else:
        def md(p):
            return md_characteristic(m, IntVector(p)) if any(p) else 0
        columns = ((head, [md(head + (z,)) for z in span])
                   for head in itertools.product(span, repeat=m.n - 1))
    best, wits = None, []
    for head, vals in columns:
        vals = [abs(v) for v in vals]
        low = min(filter(None, vals), default=None)
        if low is None or best is not None and low > best:
            continue
        if best is None or low < best:
            best, wits = low, []
        wits += [head + (z,) for z, v in zip(span, vals) if v == low]
    if best is None:
        raise ExactError("the MD characteristic vanishes on every vector "
                         "of sup-norm at most %d" % bound)
    out = {_canonical_sign(v) for v in map(IntVector, wits)
           if v.is_primitive()}
    return best, sorted(out, key=tuple)


def _sail_minimum(w: FundamentalWindow) -> Tuple[int, List[IntVector]]:
    """Certified global MD minimum over nonzero integer vectors, with its
    primitive minimisers (up to sign) in the closed window [x(start),
    x(G start)] of the fundamental window w, in one fold over the window's
    points.

    The window's points are every integer point of the fundamental slab,
    which holds both ends of the window and meets the orbit of every sail
    vertex, where the minimum is attained; md vanishes on no nonzero
    vector, as the characteristic polynomial is irreducible.  A minimum
    past Davenport's bound, 23 best^2 > |disc p|, is Inconclusive (NOTES.md,
    "Davenport's bound on the MD minimum").
    """
    md, best, wits = w.eigen.md, math.inf, set()
    for v in slab_points(w.eigen, w.slab):
        val = abs(md(v))
        if val < best:
            best, wits = val, set()
        if val == best and v.is_primitive():
            wits.add(_canonical_sign(v))
    if 23 * best * best > abs(discriminant(w.eigen.field.minpoly)):
        raise SailInconclusive("Davenport's bound fails")
    return best, sorted(wits, key=tuple)


def content_certifies(md: MDForm3, complexity: int) -> bool:
    """Whether the MD form's content, the gcd of its coefficients, is the
    complexity (NOTES.md, "The content bound")."""
    return math.gcd(*md.coeffs) == complexity


def is_reduced(m: IntMatrix, strategy) -> ReducedVerdict:
    """The reducedness verdict of a perfect Hessenberg matrix with an
    irreducible characteristic polynomial.  The Sail route checks
    irreducibility in sail3.require_nrs, which raises SailError (an
    ExactError) with the message the Bounded route raises.

    Once its input is known to be NRS in SL(3,Z), the Sail route certifies
    Reduced without a sail when content_certifies: every value of MD is a
    multiple of the content, none is 0 on a nonzero vector, and MD(e1) is
    the complexity (NOTES.md, "The content bound").  Otherwise it takes
    the minimum over the fundamental window."""
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
        nrs = require_nrs(m)
        if content_certifies(nrs.md, target):
            return ReducedVerdict("Reduced", certificate="SailCertified")
        try:
            best, wits = _sail_minimum(fundamental_window(nrs))
        except SailInconclusive as ex:
            return ReducedVerdict("Inconclusive", reason=str(ex))
        if best < target:
            return ReducedVerdict("Nonreduced", witness=wits[0])
        return ReducedVerdict("Reduced", certificate="SailCertified")
    raise ExactError("unknown strategy %r" % (strategy,))


def fingerprint(m: IntMatrix) -> Fingerprint:
    """Distinct perfect forms reached from the verdict's MD minimisers, one
    reduction per M-orbit.  Those are the MD-minimal points of the
    fundamental window up to sign, both of its ends included; neither sign
    nor the window changes the form.  reduce_to_perfect is even in the
    seed, as -U(v) meets every condition that fixes U(-v), so H(-v) =
    H(v); and the flag of M v is M times the flag of v, so U(M v) = M U(v)
    and H(M v) = H(v), and likewise for M^-1: so the forms are those of
    every MD-minimal sail vertex, whichever window holds them.  G
    multiplies x by the ratio of the window's ends, so the one orbit that
    meets the closed window twice is that of start and G start; as MD(G v)
    = MD(v), start is a witness whenever G start is, and G start is
    skipped."""
    w = fundamental_window(require_nrs(m))
    best, wits = _sail_minimum(w)
    end = _canonical_sign(w.generator * w.start)
    seen = {}
    for v in wits:
        if v != end:
            h, _ = reduce_to_perfect(m, v)
            seen[h.rows] = h
    mats = [seen[k] for k in sorted(seen)]
    for h in mats:
        complexity = hessenberg_complexity(h)
        if complexity != best:
            raise ExactError("perfect form %s has complexity %d, not the "
                             "minimal MD value %d" % (h, complexity, best))
    return Fingerprint(tuple(mats), best)

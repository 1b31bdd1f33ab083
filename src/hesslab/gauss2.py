"""Classical Gauss reduction theory in SL(2,Z).

Conjugacy classes split by trace: |tr| < 2 gives three finite classes,
tr = +-2 the unipotent families, and |tr| > 2 the real-spectrum classes,
classified completely by the period of the characteristic sequence
(alternating integer lengths and integer angles) of a sail of the
Klein continued fraction.  That period is read from the regular
continued fraction of an eigenline slope: it starts at the first reduced
complete quotient (Galois) and ends when that quotient recurs, so no
lattice points are scanned and no quotient is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .exact import ExactError, IntMatrix, _int_tuple


@dataclass(frozen=True)
class Period:
    entries: Tuple[int, ...]

    def __init__(self, entries):
        es = _int_tuple(entries)
        if not es or min(es) < 1:
            raise ExactError("period entries must be positive")
        object.__setattr__(self, "entries", es)

    def __len__(self):
        return len(self.entries)


def periods_equal(p: Period, q: Period) -> bool:
    """Cyclic-shift equality; multiplicity matters, so lengths must match."""
    if len(p) != len(q):
        return False
    doubled = p.entries + p.entries
    n = len(p)
    return any(doubled[i:i + n] == q.entries for i in range(n))


@dataclass(frozen=True)
class Sl2Class:
    kind: str                    # ComplexSpectrum | MultipleEigen | RealSpectrum
    canonical: IntMatrix = None  # ComplexSpectrum representative
    epsilon: int = 0             # MultipleEigen
    k: int = 0                   # MultipleEigen
    period: Period = None        # RealSpectrum

    def to_json(self) -> dict:
        if self.kind == "ComplexSpectrum":
            return {"kind": self.kind,
                    "canonical": [list(r) for r in self.canonical.rows]}
        if self.kind == "MultipleEigen":
            return {"kind": self.kind, "epsilon": self.epsilon, "k": self.k}
        return {"kind": self.kind, "period": list(self.period.entries)}


_COMPLEX_REPS = {
    1: IntMatrix([[1, 1], [-1, 0]]),
    0: IntMatrix([[0, 1], [-1, 0]]),
    -1: IntMatrix([[0, 1], [-1, -1]]),
}


def _sl2_entries(m: IntMatrix, caller: str) -> Tuple[int, int, int, int]:
    """The entries a, b, c, d of m = [[a, b], [c, d]], checked to lie in
    SL(2,Z): det = ad - bc = 1 in closed form."""
    rows = m.rows
    if len(rows) != 2:
        raise ExactError("%s requires a 2x2 matrix" % caller)
    (a, b), (c, d) = rows
    if a * d - b * c != 1:
        raise ExactError("matrix is not in SL(2,Z)")
    return a, b, c, d


def classify_sl2(m: IntMatrix) -> Sl2Class:
    a, b, c, d = _sl2_entries(m, "classify_sl2")
    tr = a + d
    if abs(tr) < 2:
        return Sl2Class("ComplexSpectrum", canonical=_COMPLEX_REPS[tr])
    if abs(tr) == 2:
        # m - eps I = k u (-u_2, u_1)^T for a primitive u, so k is the gcd of
        # its entries with the sign of b, or of -c when b = 0 (NOTES.md,
        # "The parabolic class in closed form")
        eps = tr // 2
        s = 1 if b > 0 or b == 0 and c < 0 else -1
        return Sl2Class("MultipleEigen", epsilon=eps,
                        k=s * math.gcd(a - eps, b, c))
    return Sl2Class("RealSpectrum", period=_hyperbolic_period(a, c, d, tr))


def sail_period(m: IntMatrix) -> Period:
    """Period of the characteristic sequence of the sail of m.

    The sail is that of the cone between the eigenlines of m that
    contains (1,0) in the basis m is written in.  Its characteristic
    (LLS) sequence alternates integer lengths and integer angles, and it
    is the periodic part of the regular continued fraction of the fixed
    point (a - d + sqrt(D)) / 2c of g = [[a, b], [c, d]], where g = m or
    -m, whichever has positive trace, and D = tr^2 - 4 (c != 0 because
    m is hyperbolic).  The complete quotients are (p + sqrt(D)) / q on
    exact integers.  By Galois's theorem the period starts at the first
    reduced quotient (x > 1 and -1 < x' < 0), which is the first that
    recurs, and the cycle closes when that quotient comes back, in
    O(preperiod + period) steps with no state stored (NOTES.md, "The 2D
    period from the first reduced quotient").  The cycle is rotated by
    one place when the preperiod's length plus [c < 0] is even, so that
    lengths sit at even places.  Then:

    - an odd continued-fraction period is doubled, so the result always
      has even length;
    - when g is the k-th power of a primitive element the period is
      repeated k times; k comes from the continuant traces
      t_(j+1) = t_1 t_j - t_(j-1), t_0 = 2, which must reach |tr|;
    - the result is the lexicographically largest even rotation.
    """
    a, _, c, d = _sl2_entries(m, "sail_period")
    tr = a + d
    if abs(tr) <= 2:
        raise ExactError("sail periods require |trace| > 2")
    return _hyperbolic_period(a, c, d, tr)


def _hyperbolic_period(a: int, c: int, d: int, tr: int) -> Period:
    """sail_period of [[a, b], [c, d]] in SL(2,Z) with trace tr, |tr| > 2."""
    if tr < 0:
        a, c, d = -a, -c, -d
    disc = tr * tr - 4
    root = math.isqrt(disc)
    # x = (p + sqrt(disc)) / q with q | disc - p^2, since disc - (a-d)^2 = 4bc
    p0, q0, start = _first_reduced(a - d, 2 * c, disc, root)
    p, q = p0, q0
    cycle: List[int] = []
    while True:
        k = (p + root) // q  # q > 0 on the cycle
        cycle.append(k)
        p = k * q - p
        q = (disc - p * p) // q
        if p == p0 and q == q0:
            break
    if (start + (c < 0)) % 2 == 0:
        cycle = cycle[1:] + cycle[:1]
    if len(cycle) % 2:
        cycle = cycle + cycle
    # t_1 is the trace of the product of [[e, 1], [1, 0]] over the cycle
    x00, x01, x10, x11 = 1, 0, 0, 1
    for e in cycle:
        x00, x01, x10, x11 = x00 * e + x01, x00, x10 * e + x11, x10
    t1 = x00 + x11
    prev, cur, reps = 2, t1, 1
    while cur < abs(tr):
        prev, cur, reps = cur, t1 * cur - prev, reps + 1
    if cur != abs(tr):
        raise ExactError("trace is not a continuant trace of the period")
    return Period(_canonical_rotation(cycle * reps))


def _first_reduced(p: int, q: int, disc: int,
                   root: int) -> Tuple[int, int, int]:
    """(p', q', j): the first reduced complete quotient (p' + sqrt(disc)) / q'
    of the regular continued fraction of x = (p + sqrt(disc)) / q, and its
    index j.  disc > 0 is not a square, root = isqrt(disc), q != 0 divides
    disc - p^2.  A quotient is reduced, x > 1 and -1 < x' < 0, iff
    root - p < q <= root + p and p <= root, and then q > 0."""
    j = 0
    while not (root - p < q <= root + p and p <= root):
        k = (p + root + (q < 0)) // q  # floor((p + sqrt(disc)) / q)
        p = k * q - p
        q = (disc - p * p) // q
        j += 1
    return p, q, j


def _canonical_rotation(entries: List[int]) -> List[int]:
    """The lexicographically largest even rotation: rerooting the sequence at
    another vertex shifts it by two (length/angle alternation preserved), so
    this picks a canonical starting vertex."""
    best = tuple(entries)
    for i in range(2, len(entries), 2):
        cand = tuple(entries[i:] + entries[:i])
        if cand > best:
            best = cand
    return list(best)

"""Classical Gauss reduction theory in SL(2,Z).

Conjugacy classes split by trace: |tr| < 2 gives three finite classes,
tr = +-2 the unipotent families, and |tr| > 2 the real-spectrum classes,
classified completely by the period of the characteristic sequence
(alternating integer lengths and integer angles) of a sail of the
Klein continued fraction.  That period is read from the regular
continued fraction of an eigenline slope; no lattice points are scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .exact import ExactError, IntMatrix, _int_tuple, det


@dataclass(frozen=True)
class Period:
    entries: Tuple[int, ...]

    def __init__(self, entries):
        es = _int_tuple(entries)
        if not es or any(x < 1 for x in es):
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


def classify_sl2(m: IntMatrix) -> Sl2Class:
    if m.n != 2:
        raise ExactError("classify_sl2 requires a 2x2 matrix")
    if det(m) != 1:
        raise ExactError("matrix is not in SL(2,Z)")
    tr = m.trace()
    if abs(tr) < 2:
        return Sl2Class("ComplexSpectrum", canonical=_COMPLEX_REPS[tr])
    if abs(tr) == 2:
        # m - eps I = k u (-u_2, u_1)^T for a primitive u, so k is the gcd of
        # its entries with the sign of b, or of -c when b = 0 (NOTES.md,
        # "The parabolic class in closed form")
        eps = tr // 2
        a, b, c = m[0, 0] - eps, m[0, 1], m[1, 0]
        s = 1 if b > 0 or b == 0 and c < 0 else -1
        return Sl2Class("MultipleEigen", epsilon=eps, k=s * math.gcd(a, b, c))
    return Sl2Class("RealSpectrum", period=sail_period(m))


def sail_period(m: IntMatrix) -> Period:
    """Period of the characteristic sequence of the sail of m.

    The sail is that of the cone between the eigenlines of m that
    contains (1,0) in the basis m is written in.  Its characteristic
    (LLS) sequence alternates integer lengths and integer angles, and it
    is the periodic part of the regular continued fraction of the fixed
    point (a - d + sqrt(D)) / 2c of g = [[a, b], [c, d]], where g = m or
    -m, whichever has positive trace, and D = tr^2 - 4 (c != 0 because
    m is hyperbolic).  The expansion runs on exact integers in O(period)
    steps; its cycle is rotated by one place when the cycle's start
    index plus [c < 0] is even, so that lengths sit at even places.
    Then:

    - an odd continued-fraction period is doubled, so the result always
      has even length;
    - when g is the k-th power of a primitive element the period is
      repeated k times; k comes from the continuant traces
      t_(j+1) = t_1 t_j - t_(j-1), t_0 = 2, which must reach |tr|;
    - the result is the lexicographically largest even rotation.
    """
    if m.n != 2:
        raise ExactError("sail_period requires a 2x2 matrix")
    if det(m) != 1:
        raise ExactError("matrix is not in SL(2,Z)")
    tr = m.trace()
    if abs(tr) <= 2:
        raise ExactError("sail periods require |trace| > 2")
    s = 1 if tr > 0 else -1
    a, c, d = s * m[0, 0], s * m[1, 0], s * m[1, 1]
    disc = tr * tr - 4
    root = math.isqrt(disc)
    # x = (p + sqrt(disc)) / q with q | disc - p^2, since disc - (a-d)^2 = 4bc
    p, q = a - d, 2 * c
    seen = {}
    quotients: List[int] = []
    while (p, q) not in seen:
        seen[p, q] = len(quotients)
        k = (p + root + (q < 0)) // q  # floor((p + sqrt(disc)) / q)
        quotients.append(k)
        p = k * q - p
        q = (disc - p * p) // q
    start = seen[p, q]
    cycle = quotients[start:]
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

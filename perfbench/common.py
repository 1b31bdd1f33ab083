"""Shared constants and helpers of the hesslab benchmark.

Importing this module pins numpy/BLAS to one thread and puts the
checkout's `src` directory first on `sys.path`, so the benchmark always
measures the library of the checkout it sits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("atlas", "conjugates", "quartic4d", "periods2d")

# the criterion-6 operator and its fingerprint partner
M1_ROWS = ((0, 1, 2), (1, 0, 0), (0, 3, 5))
M2_ROWS = ((0, 2, 3), (1, 1, 1), (0, 3, 4))
M1_MIN_VALUE = 3

# atlas tiles: (family type, anchor, m range, n range), both ranges
# inclusive.  The <0,1|1,0,2> tile reaches into the NRS band (m in
# [-4, 3], n >= 6), where Gamma^0 enumeration dominates, and holds seven
# Nonreduced cells; its cells cost up to 0.5 s.  The band's 2-4.5 s cells
# at n >= 10 are left out: a run holds too few of them to be steady.  The
# Frobenius tile is mostly NRS cells of 12-30 ms, where Q(r) arithmetic
# is heavy, plus a corner of RS cells.
ATLAS_TILES = (
    ("<0,1|1,0,2>", (1, 0, 1), (-3, 1), (0, 9)),
    ("<0,1|0,0,1>", (1, 0, 0), (-9, -2), (-6, 2)),
)

# half-width of the 4D quartic cube classified by each quartic4d call
QUARTIC_BOUND = 2

# trace bins of the periods2d words, lower bound inclusive
PERIOD_TRACE_BINS = ((3, 10), (10, 30), (30, 100), (100, 300), (300, 900))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def random_unimodular_rows(rng: random.Random, steps: int):
    """Product of `steps` random integer shears (coefficients in [-3, 3])
    on 3x3 integers, as rows; the determinant is always 1."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        for row in m:
            row[j] += k * row[i]
    return [list(r) for r in m]


def cf_trace(word) -> int:
    """Trace of the product of [[a, 1], [1, 0]] over the word."""
    a, b, c, d = 1, 0, 0, 1
    for x in word:
        a, b, c, d = a * x + b, a, c * x + d, c
    return a + d


def even_word(word):
    """The continued-fraction period as an even-length word: an odd word
    is doubled, since its matrix has determinant -1."""
    word = list(word)
    return word + word if len(word) % 2 else word


def period_candidate(rng: random.Random, lo: int, hi: int):
    """(word, conjugator rows, sign) for periods2d: a word a1..aL (L <= 6,
    ai <= 12) whose even form has trace in [lo, hi), a product of 2 to 8
    random SL(2,Z) shears, and a random sign."""
    while True:
        word = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        if lo <= cf_trace(even_word(word)) < hi:
            break
    u = [[1, 0], [0, 1]]
    for _ in range(rng.randint(2, 8)):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.5:   # u *= [[1, k], [0, 1]]
            u = [[r[0], r[0] * k + r[1]] for r in u]
        else:                    # u *= [[1, 0], [k, 1]]
            u = [[r[0] + k * r[1], r[1]] for r in u]
    return word, u, rng.choice((1, -1))


def read_reference(name: str):
    """Load a frozen reference file and verify its embedded digest."""
    path = os.path.join(REFERENCE_DIR, name)
    with open(path) as fh:
        ref = json.load(fh)
    body = {k: v for k, v in ref.items() if k != "digest"}
    if digest(body) != ref.get("digest"):
        raise ValueError("reference %s does not match its digest" % name)
    return ref


def write_reference(name: str, body: dict) -> None:
    body = dict(body)
    body["digest"] = digest(body)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, name), "w") as fh:
        json.dump(body, fh, indent=0, sort_keys=True)
        fh.write("\n")

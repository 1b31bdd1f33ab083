"""The four benchmark workloads.

A workload yields *rounds*: lists of units, where a unit is one timed
call into hesslab's public API (an atlas window, a 4D cube, one
fingerprint, one period) covering `ops` operations.  An end-to-end run
draws `rounds_per_second` rounds per second of `--seconds`, sized so that
one pass over them takes a third of that at the anchor commit; a traced
run draws `traced_rounds`.  Rounds are drawn
from a seeded `random.Random`, so a seed fixes the inputs.  `check`
compares a unit's output with the frozen reference and returns one
message per failed operation.

Library functions are looked up on their modules at call time, so the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import random
import statistics

import common

import hesslab.atlas as atlas_mod
import hesslab.gauss2 as gauss2_mod
import hesslab.hessenberg as hess_mod
import hesslab.mdchar as mdchar_mod
import hesslab.reducedness as red_mod
from hesslab.exact import IntMatrix, IntVector
from hesslab.hessenberg import FamilyPoint, HessType


class Unit:
    __slots__ = ("ops", "args", "props")

    def __init__(self, ops, args, props):
        self.ops = ops
        self.args = args
        self.props = props


def cell_record(cell):
    """What the atlas reference freezes for one cell: class, verdict
    status, certificate kind and witness."""
    v = cell.verdict
    if v is None:
        return [cell.cls, None, None, None]
    witness = list(v.witness) if v.witness is not None else None
    return [cell.cls, v.status, v.certificate, witness]


def fingerprint_record(fp):
    return {"min_value": fp.min_value,
            "matrices": [[list(r) for r in m.rows] for m in fp.matrices]}


def stratified(rng, entries, draws, cost="ms"):
    """`draws` pool entries, one from each of `draws` equal slices of
    `entries` sorted by their anchor-commit time `cost`, so that every
    round spans the costs of its bin alike."""
    entries = sorted(entries, key=lambda e: e[cost])
    n = len(entries)
    return [rng.choice(entries[i * n // draws:(i + 1) * n // draws])
            for i in range(draws)]


def _split(lo, hi, width):
    """Cut [lo, hi] into consecutive ranges of `width` (the last clipped)."""
    return [(a, min(hi, a + width - 1)) for a in range(lo, hi + 1, width)]


# window shape (m rows, n columns) per atlas tile: the whole
# <0,1|1,0,2> tile, three cells of the Frobenius tile.  With fewer than
# ten band windows in a run, the median and the tail latency both fall
# among the many small Frobenius windows, where samples are dense.
WINDOW = ((5, 10), (1, 3))


class Atlas:
    """classify_grid on windows of the two criterion-9 families.

    Each round covers both tiles of `common.ATLAS_TILES` once, cut into
    the fixed windows of `WINDOW` and run in seeded order.  Window shapes
    do not depend on the seed, so per-window latencies compare across
    seeds.  The <0,1|1,0,2> window overlaps the NRS band.
    """

    name = "atlas"
    traced_rounds = 2
    rounds_per_second = 0.1

    def __init__(self, seed):
        self.rng = random.Random("atlas-%d" % seed)
        ref = common.read_reference("atlas.json")
        self.tiles = []
        for (type_str, anchor, m_range, n_range), tile in zip(
                common.ATLAS_TILES, ref["tiles"]):
            cells = {tuple(c[0]): c[1] for c in tile["cells"]}
            self.tiles.append((type_str, HessType.parse(type_str),
                               IntVector(anchor), m_range, n_range, cells))

    def round(self):
        units = []
        for ti, (type_str, t, anchor, m_range, n_range, _) in \
                enumerate(self.tiles):
            m_parts = _split(m_range[0], m_range[1], WINDOW[ti][0])
            n_parts = _split(n_range[0], n_range[1], WINDOW[ti][1])
            for mr in m_parts:
                for nr in n_parts:
                    ops = (mr[1] - mr[0] + 1) * (nr[1] - nr[0] + 1)
                    units.append(Unit(ops, (ti, mr, nr),
                                      {"family": type_str, "m": list(mr),
                                       "n": list(nr)}))
        self.rng.shuffle(units)
        return units

    def call(self, unit):
        ti, mr, nr = unit.args
        _, t, anchor, _, _, _ = self.tiles[ti]
        cells, _ = atlas_mod.classify_grid(t, anchor, mr, nr, jobs=1)
        return cells

    def check(self, unit, cells):
        ti, mr, nr = unit.args
        type_str, t, anchor, _, _, ref = self.tiles[ti]
        errors = []
        want = [(m, n) for m in range(mr[0], mr[1] + 1)
                for n in range(nr[0], nr[1] + 1)]
        got = {tuple(c.params): c for c in cells}
        unit.props["classes"] = [c.cls for c in cells]
        if len(cells) != len(want):
            errors.append("window returned %d cells, expected %d"
                          % (len(cells), len(want)))
        for mn in want:
            cell = got.get(mn)
            if cell is None:
                errors.append("%s %s missing" % (type_str, mn))
                continue
            err = self._check_cell(type_str, t, anchor, mn, cell, ref[mn])
            if err:
                errors.append("%s %s: %s" % (type_str, mn, err))
        return errors[:unit.ops]

    @staticmethod
    def _check_cell(type_str, t, anchor, mn, cell, ref):
        rec = cell_record(cell)
        if rec[0] == "NRS_Unknown":
            return "NRS_Unknown is not a certified verdict"
        if rec[2] == "BoundChecked":
            return "BoundChecked is a heuristic, not a certificate"
        if rec != ref:
            return "got %s, reference %s" % (rec, ref)
        if rec[0] == "NRS_Nonreduced":
            mat = hess_mod.family_member(FamilyPoint(t, anchor, mn))
            w = IntVector(rec[3])
            if not (mdchar_mod.md_characteristic(mat, w)
                    < hess_mod.hessenberg_complexity(mat)):
                return "witness %s does not beat the complexity" % rec[3]
        return None

    @staticmethod
    def summary(units):
        classes = {}
        band = total = 0
        for u in units:
            for cls in u.props.get("classes", ()):
                classes[cls] = classes.get(cls, 0) + 1
            total += u.ops
            if u.props["family"] == common.ATLAS_TILES[0][0]:
                # NRS band of <0,1|1,0,2>: m in [-4, 3], n >= 6
                (m0, m1), (n0, n1) = u.props["m"], u.props["n"]
                band += (len(range(max(m0, -4), min(m1, 3) + 1))
                         * len(range(max(n0, 6), n1 + 1)))
        return {"cells_per_class": classes,
                "nrs_band_share": band / total if total else 0.0,
                "windows": len(units)}


class Conjugates:
    """fingerprint(u^-1 M1 u) for seeded conjugators from the frozen pool.

    The pool holds 312 random unimodular conjugators of 4 to 16 shear
    steps, each timed in a fresh process at the anchor commit, and those
    under 300 ms timed again warm (`cpu_ms`, see make_reference.py).  A
    round draws conjugators from the bins of BINS, stratified by
    `cpu_ms`, so every run sees the same mix of cheaper and dearer bases
    and runs with different seeds cost alike.  Entries that were
    Inconclusive at the anchor commit are not timed: `retry_inconclusive`
    re-tries them after the loop.  Entries that timed out (3 s) or hit
    the 1.5 GiB cap at the anchor commit are never drawn.
    """

    name = "conjugates"
    traced_rounds = 8
    rounds_per_second = 0.35
    # (cpu_ms range, peak RSS MB range) at the anchor commit, lows
    # inclusive, and draws per round.  The cheap draws hold the median;
    # the dear draws are enough for the tail, with 10 samples beyond it,
    # to fall among them.  The dear bin's narrow RSS range above the cheap
    # one sets the run's peak memory.
    BINS = (((35, 75), (0, 75), 5),
            ((100, 180), (85, 100), 2))
    RETRY_BUDGET_S = 3.0

    def __init__(self, seed):
        self.rng = random.Random("conjugates-%d" % seed)
        ref = common.read_reference("conjugates_pool.json")
        self.ref_digest = ref["fingerprint_digest"]
        self.m1 = IntMatrix(common.M1_ROWS)
        self.expected = sorted([[list(r) for r in common.M1_ROWS],
                                [list(r) for r in common.M2_ROWS]])
        self.bins = [([e for e in ref["entries"] if "cpu_ms" in e
                       and ms[0] <= e["cpu_ms"] < ms[1]
                       and rss[0] <= e["rss_mb"] < rss[1]], draws)
                     for ms, rss, draws in self.BINS]
        if not all(entries for entries, _ in self.bins):
            raise ValueError("empty conjugator cost bin")
        self.inconclusive = [e for e in ref["entries"]
                       if e["status"] == "Inconclusive"]

    def _unit(self, entry):
        u = IntMatrix(entry["u"])
        m = u.inverse_unimodular() * self.m1 * u
        max_entry = max(abs(x) for row in m.rows for x in row)
        return Unit(1, m, {"steps": entry["steps"], "max_entry": max_entry,
                           "anchor_ms": entry.get("cpu_ms")})

    def round(self):
        units = [self._unit(e) for entries, draws in self.bins
                 for e in stratified(self.rng, entries, draws, "cpu_ms")]
        self.rng.shuffle(units)
        return units

    def call(self, unit):
        return red_mod.fingerprint(unit.args)

    def check(self, unit, fp):
        rec = fingerprint_record(fp)
        if rec["min_value"] != common.M1_MIN_VALUE or \
                sorted(rec["matrices"]) != self.expected:
            return ["fingerprint %s differs from fingerprint(M1)" % rec]
        if common.digest(rec) != self.ref_digest:
            return ["fingerprint digest differs from the reference"]
        return []

    def retry_inconclusive(self, clock):
        """Fingerprint the pool's Inconclusive-at-anchor conjugators, for
        at most RETRY_BUDGET_S; returns (tried, still failing)."""
        tried = failing = 0
        start = clock()
        for entry in self.inconclusive:
            if clock() - start > self.RETRY_BUDGET_S:
                break
            unit = self._unit(entry)
            tried += 1
            try:
                if self.check(unit, self.call(unit)):
                    failing += 1
            except Exception:  # Inconclusive, PrecisionExhausted, ...
                failing += 1
        return tried, failing

    @staticmethod
    def summary(units):
        steps = [u.props["steps"] for u in units]
        entries = [u.props["max_entry"] for u in units]
        return {"steps": {s: steps.count(s) for s in sorted(set(steps))},
                "max_entry": {"min": min(entries),
                              "median": statistics.median(entries),
                              "max": max(entries)}}


class Quartic4d:
    """classify_family_4d on the cube |l|, |m|, |n| <= QUARTIC_BOUND.

    Deterministic: the seed does not enter it.
    """

    name = "quartic4d"
    traced_rounds = 30
    rounds_per_second = 2.0

    def __init__(self, seed):
        ref = common.read_reference("quartic4d.json")
        self.bound = ref["bound"]
        self.ref = {tuple(p): cls for p, cls in ref["cells"]}
        self.reducible = {p for p in self.ref if atlas_mod.reducible_4d(*p)}

    def round(self):
        return [Unit(len(self.ref), self.bound, {"bound": self.bound})]

    def call(self, unit):
        return atlas_mod.classify_family_4d(unit.args)

    def check(self, unit, cells):
        errors = []
        got = {tuple(c.params): c.cls for c in cells}
        if len(cells) != len(self.ref):
            errors.append("cube returned %d cells, expected %d"
                          % (len(cells), len(self.ref)))
        for p, want in self.ref.items():
            cls = got.get(p)
            if cls != want:
                errors.append("%s: got %s, reference %s" % (p, cls, want))
            elif (cls == "ReduciblePoly") != (p in self.reducible):
                errors.append("%s: %s disagrees with reducible_4d" % (p, cls))
        unit.props["classes"] = list(got.values())
        return errors[:unit.ops]

    @staticmethod
    def summary(units):
        classes = {}
        for u in units:
            for cls in u.props.get("classes", ()):
                classes[cls] = classes.get(cls, 0) + 1
        return {"cells_per_class": classes, "cubes": len(units)}


def _cyclic_match(got, want) -> bool:
    if len(got) != len(want):
        return False
    doubled = list(got) * 2
    n = len(want)
    return any(doubled[i:i + n] == list(want) for i in range(n))


def period_matrix(word, u_rows, sign):
    """sign * u^-1 g u, with g the product of [[a, 1], [1, 0]] over the
    even form of the word."""
    g = IntMatrix.identity(2)
    for a in common.even_word(word):
        g = g * IntMatrix([[a, 1], [1, 0]])
    u = IntMatrix(u_rows)
    return (u.inverse_unimodular() * g * u).scale(sign)


class Periods2d:
    """sail_period on conjugates of continued-fraction matrices, drawn by
    the seed from the frozen pool `reference/periods_pool.json`.

    A pool entry is a word a1..aL (L <= 6, ai <= 12), a conjugator u of
    2 to 8 SL(2,Z) shears and a sign; its matrix is sign * u^-1 g u with
    g the product of [[a, 1], [1, 0]] over the even word (odd words
    doubled), and it was timed at the anchor commit.  The pool has 150
    entries per trace bin of `common.PERIOD_TRACE_BINS` (3 to 900).  A
    round draws from the bins of BINS, narrow in anchor-commit time, so
    runs with different seeds cost alike.  The period must equal the
    even word up to rotation and reversal.
    """

    name = "periods2d"
    traced_rounds = 100
    rounds_per_second = 5.0
    # (|trace| range, ms range at the anchor commit, draws per round), lows
    # inclusive.  The cheap draws hold the median; the two expensive bins
    # take most of the time, and the tail falls in the top one.
    BINS = (((3, 10), (0.3, 0.5), 2), ((10, 30), (0.4, 0.6), 2),
            ((30, 100), (0.5, 0.8), 2), ((100, 300), (0.8, 1.2), 1),
            ((300, 900), (15, 25), 1), ((300, 900), (35, 50), 1))

    def __init__(self, seed):
        self.rng = random.Random("periods2d-%d" % seed)
        pool = common.read_reference("periods_pool.json")["entries"]
        self.bins = [([e for e in pool if tr[0] <= abs(e["trace"]) < tr[1]
                       and ms[0] <= e["ms"] < ms[1]], draws)
                     for tr, ms, draws in self.BINS]
        if not all(entries for entries, _ in self.bins):
            raise ValueError("empty periods2d bin")

    def round(self):
        units = []
        for entries, draws in self.bins:
            for e in stratified(self.rng, entries, draws):
                m = period_matrix(e["word"], e["u"], e["sign"])
                units.append(Unit(1, m, {"word": e["word"],
                                         "trace": e["trace"],
                                         "word_length": len(e["word"]),
                                         "anchor_ms": e["ms"]}))
        self.rng.shuffle(units)
        return units

    def call(self, unit):
        return gauss2_mod.sail_period(unit.args)

    def check(self, unit, period):
        want = common.even_word(unit.props["word"])
        got = list(period.entries)
        if _cyclic_match(got, want) or _cyclic_match(got, want[::-1]):
            return []
        return ["period %s does not match word %s" % (got, want)]

    @staticmethod
    def summary(units):
        traces = sorted(abs(u.props["trace"]) for u in units)
        lengths = [u.props["word_length"] for u in units]
        return {"trace": {"min": traces[0],
                          "median": statistics.median(traces),
                          "max": traces[-1]},
                "word_length": {n: lengths.count(n)
                                for n in sorted(set(lengths))}}


WORKLOADS = {w.name: w for w in (Atlas, Conjugates, Quartic4d, Periods2d)}

#!/usr/bin/env python3
"""Show that the benchmark's checks catch corrupted outputs.

    python3 perfbench/selfcheck.py

For each workload one real unit is run and must pass its check; then its
output is corrupted and the check, and a Run over it, must report the
operation as failed.  The stall guard and the atlas witness check are
exercised directly.  Exits non-zero on the first check that lets a
corruption through.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys

import common  # noqa: F401  (puts src/ on sys.path)

from hesslab.exact import IntMatrix, IntVector
from hesslab.gauss2 import Period
from hesslab.reducedness import Bounded, Fingerprint, ReducedVerdict
import hesslab.reducedness as red_mod

import run as bench
import workloads


def corrupt_atlas(cells):
    c = cells[0]
    return [dataclasses.replace(c, cls="RS" if c.cls != "RS" else
                                "NRS_Reduced")] + list(cells[1:])


def corrupt_conjugates(fp):
    return Fingerprint(fp.matrices[:1], fp.min_value)


def corrupt_quartic(cells):
    i = next(i for i, c in enumerate(cells) if c.cls == "ReduciblePoly")
    bad = dataclasses.replace(cells[i], cls="Spectrum4(real)")
    return cells[:i] + [bad] + cells[i + 1:]


def corrupt_period(period):
    e = list(period.entries)
    e[0] += 1
    return Period(e)


CASES = {
    "atlas": corrupt_atlas,
    "conjugates": corrupt_conjugates,
    "quartic4d": corrupt_quartic,
    "periods2d": corrupt_period,
}


class Corrupting:
    """A workload whose outputs pass through `corrupt` before the check."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt

    def call(self, unit):
        return self.corrupt(self.wl.call(unit))

    def check(self, unit, out):
        return self.wl.check(unit, out)


def cheapest(wl):
    units = wl.round()
    if wl.name == "atlas":  # a Frobenius window: cells of a few ms
        units = [u for u in units if u.args[0] == 1]
    if wl.name == "conjugates":
        units.sort(key=lambda u: u.props["anchor_ms"])
    return units[0]


def expect(cond, what):
    print("%-4s %s" % ("ok" if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def main():
    for name, corrupt in CASES.items():
        wl = workloads.WORKLOADS[name](seed=0)
        unit = cheapest(wl)
        out = wl.call(unit)
        expect(wl.check(unit, out) == [], "%s: real output passes" % name)
        expect(wl.check(unit, corrupt(out)) != [],
               "%s: corrupted output is caught" % name)
        run = bench.Run(Corrupting(wl, corrupt))
        run.add([unit])
        expect(run.failed >= 1 and run.mismatches >= 1,
               "%s: a run counts the corrupted operation as failed" % name)

    # the witness check stands on its own, even if the reference agreed
    atlas = workloads.WORKLOADS["atlas"](seed=0)
    _, t, anchor, _, _, ref = atlas.tiles[0]
    mn, rec = next((mn, rec) for mn, rec in ref.items()
                   if rec[0] == "NRS_Nonreduced")
    bad = ["NRS_Nonreduced", "Nonreduced", None, [1, 0, 0]]
    fake = workloads.atlas_mod.GridCell(
        mn, "NRS_Nonreduced", ReducedVerdict("Nonreduced",
                                             witness=IntVector(bad[3])))
    expect(atlas._check_cell("", t, anchor, mn, fake, bad) is not None,
           "atlas: a witness that does not beat the complexity is caught")
    good = workloads.atlas_mod.GridCell(
        mn, "NRS_Nonreduced", ReducedVerdict("Nonreduced",
                                             witness=IntVector(rec[3])))
    expect(atlas._check_cell("", t, anchor, mn, good, rec) is None,
           "atlas: the reference witness %s passes" % (rec[3],))
    for cls, cert in (("NRS_Unknown", None), ("NRS_Reduced", "BoundChecked")):
        v = ReducedVerdict("Reduced" if cert else "Inconclusive",
                           certificate=cert, bound=1000 if cert else None,
                           reason=None if cert else "cap")
        c = workloads.atlas_mod.GridCell(mn, cls, v)
        expect(atlas._check_cell("", t, anchor, mn, c,
                                 workloads.cell_record(c)) is not None,
               "atlas: %s %s counts as failed" % (cls, cert or ""))

    # the Bounded(1000) fallback fails fast instead of scanning
    bench.install_fallback_guard()
    m1 = IntMatrix(common.M1_ROWS)
    try:
        red_mod.is_reduced(m1, Bounded(bench.BOUNDED_FALLBACK))
        stalled = False
    except bench.Stall:
        stalled = True
    expect(stalled, "the Bounded(%d) fallback raises Stall"
           % bench.BOUNDED_FALLBACK)
    expect(red_mod.is_reduced(m1, Bounded(3)).status == "Reduced",
           "small Bounded scans still run under the guard")
    print("selfcheck passed")


if __name__ == "__main__":
    main()

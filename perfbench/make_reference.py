#!/usr/bin/env python3
"""Freeze the benchmark's reference data from the current library.

Run once at the commit the benchmark is anchored to; later commits are
checked against what it writes into `perfbench/reference/`.

    python3 perfbench/make_reference.py atlas       # every atlas tile cell
    python3 perfbench/make_reference.py quartic4d   # the quartic cube
    python3 perfbench/make_reference.py pool        # conjugator pool
    python3 perfbench/make_reference.py pool_cpu    # its warm CPU times
    python3 perfbench/make_reference.py periods     # periods2d input pool

`pool` measures each candidate conjugator in its own child process, one
at a time, under a 1.5 GiB address-space cap and a 3 s timeout.
`pool_cpu` then adds `cpu_ms` to each entry that took under 300 ms there:
the least host-scaled CPU time of three calls in one warm process, the
measure the benchmark reports.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time

import common

POOL_STEPS = range(4, 17)
POOL_PER_STEP = 24
CHILD_TIMEOUT_S = 3
CHILD_AS_LIMIT = 3 << 29
POOL_CPU_MAX_MS = 300
PERIOD_CANDIDATES = 150


def atlas_reference():
    from hesslab.atlas import classify_grid
    from hesslab.exact import IntVector
    from hesslab.hessenberg import HessType
    from workloads import cell_record
    tiles = []
    for type_str, anchor, m_range, n_range in common.ATLAS_TILES:
        cells, _ = classify_grid(HessType.parse(type_str), IntVector(anchor),
                                 m_range, n_range)
        tiles.append({"type": type_str, "anchor": list(anchor),
                      "cells": [[list(c.params), cell_record(c)]
                                for c in cells]})
    common.write_reference("atlas.json", {"tiles": tiles})


def quartic_reference():
    from hesslab.atlas import classify_family_4d
    cells = classify_family_4d(common.QUARTIC_BOUND)
    common.write_reference("quartic4d.json", {
        "bound": common.QUARTIC_BOUND,
        "cells": [[list(c.params), c.cls] for c in cells]})


def periods_reference():
    """Candidate periods2d inputs, PERIOD_CANDIDATES per trace bin, each
    timed in this process as the least CPU time of three calls."""
    from hesslab.gauss2 import sail_period
    from workloads import period_matrix
    entries = []
    for lo, hi in common.PERIOD_TRACE_BINS:
        rng = random.Random("period-%d-%d" % (lo, hi))
        for _ in range(PERIOD_CANDIDATES):
            word, u, sign = common.period_candidate(rng, lo, hi)
            m = period_matrix(word, u, sign)
            times = []
            for _ in range(3):
                t0 = time.process_time()
                sail_period(m)
                times.append(time.process_time() - t0)
            entries.append({"word": word, "u": u, "sign": sign,
                            "trace": m.trace(),
                            "ms": round(min(times) * 1000.0, 3)})
    common.write_reference("periods_pool.json", {"entries": entries})


def measure_child(rows_json: str) -> None:
    """Child side of `pool`: fingerprint one conjugate of M1 and print
    time, peak RSS and outcome as one JSON line."""
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))
    import numpy  # noqa: F401  (imported before timing, like the benchmark)
    from hesslab import IntMatrix, fingerprint
    u = IntMatrix(json.loads(rows_json))
    m = u.inverse_unimodular() * IntMatrix(common.M1_ROWS) * u
    t0 = time.perf_counter()
    try:
        out = fingerprint(m).to_json()
        status = "ok"
    except MemoryError:
        out, status = None, "MemoryError"
    except Exception as ex:  # Inconclusive, PrecisionExhausted, ...
        out, status = None, type(ex).__name__
    ms = (time.perf_counter() - t0) * 1000.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    print(json.dumps({"ms": round(ms, 1), "rss_mb": rss, "status": status,
                      "digest": common.digest(out) if out else None}))


def pool_reference():
    entries = []
    for steps in POOL_STEPS:
        for j in range(POOL_PER_STEP):
            rng = random.Random("conjugator-%d-%d" % (steps, j))
            rows = common.random_unimodular_rows(rng, steps)
            cmd = [sys.executable, __file__, "_measure", json.dumps(rows)]
            rec = {"ms": None, "rss_mb": None, "status": "timeout",
                   "digest": None}
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
                lines = proc.stdout.strip().splitlines()
                rec = json.loads(lines[-1]) if lines else dict(
                    rec, status="crashed")
            except subprocess.TimeoutExpired:
                pass
            rec.update({"u": rows, "steps": steps})
            entries.append(rec)
            print(json.dumps(rec), file=sys.stderr, flush=True)
    from hesslab import IntMatrix, fingerprint
    ref = fingerprint(IntMatrix(common.M1_ROWS)).to_json()
    common.write_reference("conjugates_pool.json", {
        "fingerprint_m1": ref, "fingerprint_digest": common.digest(ref),
        "entries": entries})


def pool_cpu_reference():
    from hesslab import IntMatrix, fingerprint
    from run import PROBE_REF_S, probe_s
    body = dict(common.read_reference("conjugates_pool.json"))
    del body["digest"]
    m1 = IntMatrix(common.M1_ROWS)
    for e in body["entries"]:
        if e["status"] != "ok" or e["ms"] >= POOL_CPU_MAX_MS:
            continue
        u = IntMatrix(e["u"])
        m = u.inverse_unimodular() * m1 * u
        times = []
        for _ in range(3):
            probe = probe_s()
            t0 = time.process_time()
            fingerprint(m)
            dt = time.process_time() - t0
            times.append(dt * PROBE_REF_S * 2 / (probe + probe_s()))
        e["cpu_ms"] = round(min(times) * 1000.0, 2)
    common.write_reference("conjugates_pool.json", body)


def main(argv):
    if len(argv) == 2 and argv[0] == "_measure":
        measure_child(argv[1])
        return 0
    jobs = {"atlas": atlas_reference, "quartic4d": quartic_reference,
            "pool": pool_reference, "pool_cpu": pool_cpu_reference,
            "periods": periods_reference}
    if not argv or any(a not in jobs for a in argv):
        print("usage: make_reference.py {%s}..." % ",".join(jobs),
              file=sys.stderr)
        return 2
    for a in argv:
        jobs[a]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

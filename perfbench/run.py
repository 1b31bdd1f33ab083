#!/usr/bin/env python3
"""Run one hesslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Workloads: atlas, conjugates, quartic4d, periods2d (see README.md).

With `--trace 0` the workload draws a sample of seeded units, sized so
that one pass over it took a third of `--seconds` of CPU time at the
anchor commit, calls the sample three times over, and prints every
end-to-end metric of BENCHMARK.json.  With `--trace 1` it runs a fixed
number of rounds, each once untraced and once with every layer traced,
and prints every per-layer metric; the spans go to `perfbench/results/`.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import faulthandler
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import common  # pins BLAS threads, puts src/ on sys.path

DEADLINE_S = 150        # SIGALRM: the unit in flight fails, the run reports
HARD_EXIT_S = 170       # faulthandler ends the process without a result
# address-space cap, above the 2.5-3 GB peak RSS measured for full atlases
# and 16-step conjugates at the anchor commit
MEMORY_CAP = 4 << 30
SETUP_SAMPLES = 9       # fresh processes timed for setup_s, in 3 batches
# Calls per unit on the end-to-end run; a unit's latency is the least of
# them, since contention from other tenants of the host only adds time.
REPEATS = 3
BOUNDED_FALLBACK = 1000  # is_reduced's Bounded(1000) fallback, ~45 minutes
TAIL_BEYOND = 10


# Host-speed probe: a fixed pure-Python loop, timed next to each call.  A
# call's CPU time is scaled by PROBE_REF_S over the probe's time, which
# takes out most of the host's slow spells and drift.  PROBE_REF_S is the
# probe's least time on the host the benchmark was built on (a 2-core
# Xeon VM at 2.1 GHz, Python 3), so scaled times read as that host's,
# uncontended.
PROBE_REF_S = 0.00052
PROBE_EVERY_S = 0.05    # CPU seconds between probes


def probe_s():
    """Least CPU time of three runs of the fixed probe loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        d, x = {}, 1
        for i in range(4000):
            x = (x * 31 + i) % 1000003
            d[x & 255] = (i, x)
        best = min(best, time.process_time() - t0)
    return best


class Stall(Exception):
    """The run passed its deadline or entered the Bounded(1000) scan."""


def load_library():
    """Import numpy and the checkout's hesslab, or exit non-zero."""
    src = os.path.join(common.ROOT, "src")
    try:
        import numpy
        import hesslab
    except ImportError as ex:
        sys.exit("perfbench: cannot import hesslab from %s: %s" % (src, ex))
    if not os.path.abspath(hesslab.__file__).startswith(src + os.sep):
        sys.exit("perfbench: hesslab was imported from %s, not %s"
                 % (hesslab.__file__, src))
    return numpy, hesslab


def install_fallback_guard():
    """Make is_reduced's Bounded(1000) fallback fail fast instead of
    scanning for most of an hour."""
    import functools
    import hesslab.reducedness as red
    from tracer import patch_everywhere
    original = red.minimize_md_bounded

    @functools.wraps(original)
    def guarded(m, bound, *args, **kwargs):
        if bound >= BOUNDED_FALLBACK:
            raise Stall("entered the Bounded(%d) fallback" % bound)
        return original(m, bound, *args, **kwargs)

    patch_everywhere(original, guarded)


def arm_deadline():
    """Fail the unit in flight at DEADLINE_S, end the process at
    HARD_EXIT_S, and cap the address space."""
    def on_alarm(signum, frame):
        raise Stall("run passed its %d s deadline" % DEADLINE_S)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    faulthandler.dump_traceback_later(HARD_EXIT_S, exit=True)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


class Run:
    """Times units, checks their outputs and keeps one record per unit."""

    def __init__(self, wl):
        self.wl = wl
        # [unit, [(CPU seconds, wall seconds, failed ops, host scale)
        #         per call]]
        self.records = []
        self.probed_at = None   # CPU time of the last probe, and its scale
        self.scale = 1.0
        self.errors = []
        self.mismatches = 0
        self.stalled = False

    def host_scale(self):
        """PROBE_REF_S over the probe's time, probed again when the last
        probe is PROBE_EVERY_S of CPU time old."""
        now = time.process_time()
        if self.probed_at is None or now - self.probed_at >= PROBE_EVERY_S:
            self.scale = PROBE_REF_S / probe_s()
            self.probed_at = time.process_time()
        return self.scale

    def call(self, unit, tracer=None, op_id=0):
        """One timed call of the unit and its check: (CPU seconds, wall
        seconds, failed operations, host scale)."""
        out = exc = None
        scale = self.host_scale()
        if tracer is not None:
            tracer.op_id, tracer.active = op_id, True
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            out = self.wl.call(unit)
        except Exception as ex:  # any library failure fails the unit's ops
            exc = ex
        finally:
            dt = time.process_time() - t0
            wall = time.perf_counter() - w0
            if tracer is not None:
                tracer.active = False
        if exc is None:
            try:
                errors = self.wl.check(unit, out)
            except Stall as ex:
                exc = ex
            except Exception as ex:  # a malformed output is a mismatch
                errors = ["%s while checking: %s" % (type(ex).__name__, ex)]
        if exc is None:
            self.mismatches += len(errors)
            failed = len(errors)
        else:
            self.stalled = self.stalled or isinstance(exc, Stall)
            errors = ["%s: %s" % (type(exc).__name__, exc)]
            failed = unit.ops
        self.errors.extend(errors[:3])
        if dt >= PROBE_EVERY_S:   # a long call: also probe after it
            scale = (scale + self.host_scale()) / 2
        return dt, wall, failed, scale

    def add(self, units, tracer=None):
        """Call each unit once, as a new record."""
        for unit in units:
            if self.stalled:
                return
            op_id = len(self.records)
            self.records.append([unit, [self.call(unit, tracer, op_id)]])

    def again(self):
        """Call every recorded unit once more, in the same order."""
        for op_id, (unit, calls) in enumerate(self.records):
            if self.stalled:
                return
            calls.append(self.call(unit, None, op_id))

    # -- summaries -------------------------------------------------------
    @property
    def attempted(self):
        return sum(unit.ops for unit, _ in self.records)

    @property
    def failed(self):
        return sum(max(c[2] for c in calls) for _, calls in self.records)

    @property
    def busy_s(self):
        """CPU seconds spent in timed calls."""
        return sum(c[0] for _, calls in self.records for c in calls)

    @property
    def least_s(self):
        """Sum over units of the least scaled CPU time of the unit's
        calls."""
        return sum(min(c[0] * c[3] for c in calls)
                   for _, calls in self.records)

    def latencies(self):
        """Unit latencies, each the least scaled CPU time of the unit's
        calls, a failed unit counting as infinite."""
        return sorted(min(c[0] * c[3] for c in calls)
                      if not max(c[2] for c in calls) else float("inf")
                      for _, calls in self.records)


def tail(lat):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum when there are
    too few samples."""
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return lat[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def ms(seconds):
    """Milliseconds, or None for the infinite latency of a failed unit."""
    return seconds * 1000.0 if seconds != float("inf") else None


def setup_seconds(args, samples):
    """Host-scaled CPU times of `samples` fresh processes, each from its
    start, through the imports of hesslab and numpy, until the workload's
    inputs are built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    times = []
    for _ in range(samples):
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True, timeout=60).stdout.split()
        cpu_s, probe = float(out[-2]), float(out[-1])
        times.append(cpu_s * PROBE_REF_S / probe)
    return times


def machine_facts(numpy):
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def metric_specs(kind):
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def unit_records(run):
    return [dict(u.props, ops=u.ops, cpu_s=[c[0] for c in calls],
                 wall_s=[c[1] for c in calls],
                 host_scale=[c[3] for c in calls],
                 failed=max(c[2] for c in calls))
            for u, calls in run.records]


def end_to_end(run, wl, args, rounds):
    """The sample `rounds`, called REPEATS times over; the end-to-end values
    and what the report shows beside them.  The set-up samples are taken
    after each pass, so that they too span the run."""
    run.add([unit for rnd in rounds for unit in rnd])
    setup_samples = setup_seconds(args, SETUP_SAMPLES // REPEATS)
    for _ in range(REPEATS - 1):
        run.again()
        setup_samples += setup_seconds(args, SETUP_SAMPLES // REPEATS)
    extra = {}
    if hasattr(wl, "retry_inconclusive") and not run.stalled:
        tried, failing = wl.retry_inconclusive(time.perf_counter)
        extra["inconclusive_retry"] = {
            "tried": tried, "still_failing": failing,
            "failed_share": failing / tried if tried else 0.0}
    signal.alarm(0)
    lat = run.latencies()
    tail_v, tail_pct, beyond = tail(lat)
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": (run.attempted - run.failed) / run.least_s,
        "latency_p50_ms": ms(statistics.median(lat)),
        "latency_tail_ms": ms(tail_v),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # printed beside the metrics; not in BENCHMARK.json, being 0 at
        # the anchor commit
        "failed_share": run.failed / run.attempted,
    }
    extra.update({"timed_cpu_s": run.busy_s,
                  "latency_tail_percentile": tail_pct,
                  "latency_tail_beyond": beyond,
                  "latency_samples": len(lat),
                  "setup_samples_s": setup_samples})
    return values, extra


def per_layer(run, wl, args, rounds):
    """Each round untraced and traced, in alternating order, so that a slow
    spell of the host weighs on both alike; the per-layer values and the
    trace file's path."""
    from tracer import Tracer, per_layer_values
    tracer = Tracer()
    traced = Run(wl)
    for i, rnd in enumerate(rounds):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if run.stalled or traced.stalled:
                break
            if not with_trace:
                run.add(rnd)
                continue
            tracer.install()
            try:
                traced.add(rnd, tracer)
            finally:
                tracer.uninstall()
    untraced_s = run.busy_s
    signal.alarm(0)
    run.records += traced.records
    run.errors += traced.errors
    run.mismatches += traced.mismatches
    os.makedirs(common.RESULTS_DIR, exist_ok=True)
    path = os.path.join(common.RESULTS_DIR, "trace-%s-seed%d.json"
                        % (args.workload, args.seed))
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "functions": tracer.function_stats(),
                        "counters": tracer.counters})
    values = per_layer_values(tracer, traced.busy_s, untraced_s)
    return values, {"trace_file": os.path.relpath(path, common.ROOT)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit")
    args = ap.parse_args(argv)

    numpy, _ = load_library()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        n = wl.traced_rounds
    else:
        n = max(1, round(wl.rounds_per_second * args.seconds))
    rounds = [wl.round() for _ in range(n)]
    if args.setup_only:
        # CPU time so far, then the probe on the same core
        print(time.process_time(), probe_s())
        return 0
    install_fallback_guard()
    arm_deadline()

    run = Run(wl)
    if args.trace:
        values, extra = per_layer(run, wl, args, rounds)
        specs = metric_specs("per_layer")
    else:
        values, extra = end_to_end(run, wl, args, rounds)
        specs = metric_specs("end_to_end")
    metrics = {s["name"]: {"value": values.get(s["name"], 0),
                           "unit": s["unit"]} for s in specs}
    result = {"correct": run.mismatches == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "result": result, "extra": extra,
              "inputs": wl.summary([unit for unit, _ in run.records]),
              "units": unit_records(run), "errors": run.errors[:20],
              "machine": machine_facts(numpy)}
    os.makedirs(common.RESULTS_DIR, exist_ok=True)
    with open(os.path.join(common.RESULTS_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    for err in run.errors[:5]:
        print("check failed:", err)
    shown = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if "failed_share" in values:
        shown.append(("failed_share", values["failed_share"], "ratio"))
    for name, value, unit in shown:
        print("%-36s %14.6g %s" % (name, value or 0, unit))
    for k, v in extra.items():
        print("%-36s %s" % (k, v))
    print("%-36s %s" % ("inputs", json.dumps(report["inputs"], default=str)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

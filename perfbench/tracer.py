"""Outside-in tracing of hesslab's layers.

`Tracer.install()` replaces every public function of each layer module
with a wrapper, in every hesslab module namespace that holds it, plus a
few hot `numberfield` methods.  No library file changes.  Each wrapped
call records a span (name, start, end, parent span, operation id) in
memory, timed in process CPU time; self time is the span's duration
minus the time of its child spans, accumulated when the span closes.
`uninstall()` puts the originals back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("exact", "numberfield", "hessenberg", "mdchar", "sail3",
          "reducedness", "gauss2", "atlas")

# class methods traced under a short name: (module, class, attribute, name)
METHODS = (
    ("numberfield", "FieldElement", "__mul__", "numberfield.mul"),
    ("numberfield", "FieldElement", "__rmul__", "numberfield.mul"),
    ("numberfield", "FieldElement", "inverse", "numberfield.inverse"),
    ("numberfield", "FieldElement", "sign", "numberfield.sign"),
    ("numberfield", "FieldElement", "interval", "numberfield.interval"),
    ("numberfield", "RealRoot", "refine", "numberfield.refine"),
)

# spans kept for the trace file; every span is still counted and timed
MAX_STORED_SPANS = 200_000


def hesslab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hesslab"
                                  or name.startswith("hesslab."))]


def patch_everywhere(original, replacement):
    """Point every hesslab module attribute that holds `original` at
    `replacement`; returns the (module, attribute, original) patches."""
    patches = []
    for mod in hesslab_modules():
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                patches.append((mod, attr, obj))
                setattr(mod, attr, replacement)
    return patches


class Tracer:
    def __init__(self):
        self.names = []            # span name id -> name
        self._ids = {}
        self.calls = []            # per name id
        self.self_s = []
        self.total_s = []
        self.counters = {}
        self.op_id = -1
        self.active = False
        self.span_count = 0
        # stored spans, columnar: name id, start, end, parent, op id
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        # open spans: [span index, name id, start, child time]
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return i

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def inside(self, name) -> bool:
        """True while a span of this name is open."""
        i = self._ids.get(name)
        return i is not None and any(f[1] == i for f in self._stack)

    def _wrap(self, fn, name, post=None):
        nid = self._id(name)
        tracer = self
        clock = time.process_time

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = tracer.span_count
            tracer.span_count += 1
            frame = [idx, nid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                if post is not None:
                    post(tracer, args, None, ex)
                raise
            else:
                if post is not None:
                    post(tracer, args, result, None)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                tracer.calls[nid] += 1
                tracer.total_s[nid] += dur
                tracer.self_s[nid] += dur - frame[3]
                parent = -1
                if stack:
                    stack[-1][3] += dur
                    parent = stack[-1][0]
                if idx < MAX_STORED_SPANS:
                    tracer._name.append(nid)
                    tracer._start.append(frame[2])
                    tracer._end.append(end)
                    tracer._parent.append(parent)
                    tracer._op.append(tracer.op_id)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------
    def install(self, hooks=None):
        """Wrap every layer's public functions; `hooks` maps a span name to
        a post-call callback (tracer, args, result, exception)."""
        hooks = HOOKS if hooks is None else hooks
        mods = {name: importlib.import_module("hesslab." + name)
                for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                # a function defined here, possibly behind a guard wrapper
                if inspect.unwrap(obj).__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                wrappers[id(obj)] = (obj, self._wrap(obj, name,
                                                     hooks.get(name)))
        for original, wrapper in wrappers.values():
            self._patches.extend(patch_everywhere(original, wrapper))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                continue
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, hooks.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reporting -------------------------------------------------------
    def function_stats(self):
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                       "total_s": self.total_s[i]}
                for i, name in enumerate(self.names) if self.calls[i]}

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_s[i]
        return out

    def write(self, path, extra):
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans_recorded"] = self.span_count
        doc["spans_stored"] = len(self._name)
        doc["spans"] = {"name": list(self._name), "start": list(self._start),
                        "end": list(self._end), "parent": list(self._parent),
                        "op": list(self._op)}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- hesslab-specific counters and the per-layer metrics -------------------

# traced functions reported by name with `.calls` and `.self_s`
FUNCTIONS = (
    "sail3.gamma0_slab_points", "sail3.improve_seed", "sail3.compute_sail",
    "sail3.eigen_data",
    "numberfield.isolate_real_roots", "numberfield.mul",
    "numberfield.inverse", "numberfield.sign", "numberfield.interval",
    "numberfield.refine",
    "reducedness.is_reduced", "reducedness.fingerprint",
    "reducedness.minimize_md_bounded",
    "mdchar.md_form3", "mdchar.md_characteristic",
    "exact.char_poly", "exact.factor_small", "exact.discriminant",
    "exact.count_real_roots", "exact.smith_normal_form",
    "hessenberg.family_member", "hessenberg.validate_type",
    "hessenberg.reduce_to_perfect",
    "gauss2.sail_period",
    "atlas.classify_grid", "atlas.classify_family_4d",
)

# atlas cell classes and their metric suffixes
CELL_CLASSES = (
    ("ReduciblePoly", "ReduciblePoly"), ("RS", "RS"),
    ("NRS_Reduced", "NRS_Reduced"), ("NRS_Nonreduced", "NRS_Nonreduced"),
    ("NRS_Unknown", "NRS_Unknown"),
    ("Spectrum4(complex)", "Spectrum4_complex"),
    ("Spectrum4(2+2)", "Spectrum4_2p2"), ("Spectrum4(real)", "Spectrum4_real"),
)

_FAILED_VERDICT = ("Inconclusive", "PrecisionExhausted")


def _slab_points(tr, args, result, ex):
    if ex is None:
        tr.count("sail3.slab_points", len(result))
        if tr.inside("sail3.compute_sail"):
            tr.count("sail3.slab_points_in_sail", len(result))


def _hull(tr, args, result, ex):
    if ex is None:
        tr.count("sail3.hull_vertices", len(result.vertices))


def _verdict(tr, args, result, ex):
    if ex is None and result.status == "Inconclusive":
        tr.count("reducedness.inconclusive")


def _fingerprint(tr, args, result, ex):
    if ex is not None and type(ex).__name__ in _FAILED_VERDICT:
        tr.count("reducedness.inconclusive")


def _sign(tr, args, result, ex):
    if ex is not None and type(ex).__name__ == "PrecisionExhausted":
        tr.count("numberfield.precision_exhausted")


def _grid(tr, args, result, ex):
    if ex is None:
        for cls, k in result[1].items():
            tr.count("cells." + cls, k)


def _cube(tr, args, result, ex):
    if ex is None:
        for cell in result:
            tr.count("cells." + cell.cls)


HOOKS = {
    "sail3.gamma0_slab_points": _slab_points,
    "sail3.compute_sail": _hull,
    "reducedness.is_reduced": _verdict,
    "reducedness.fingerprint": _fingerprint,
    "numberfield.sign": _sign,
    "atlas.classify_grid": _grid,
    "atlas.classify_family_4d": _cube,
}


def per_layer_values(tr, traced_s, untraced_s):
    """Every per-layer metric by name, from one traced pass that took
    `traced_s` over units that took `untraced_s` untraced."""
    stats = tr.function_stats()
    out = {}
    listed = 0.0
    for name in FUNCTIONS:
        st = stats.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = st["calls"]
        out[name + ".self_s"] = st["self_s"]
        if not name.startswith("atlas."):
            listed += st["self_s"]
    c = tr.counters
    out["sail3.slab_points"] = c.get("sail3.slab_points", 0)
    out["sail3.hull_vertices"] = c.get("sail3.hull_vertices", 0)
    in_sail = c.get("sail3.slab_points_in_sail", 0)
    out["sail3.vertices_per_slab_point"] = (
        out["sail3.hull_vertices"] / in_sail if in_sail else 0.0)
    out["reducedness.inconclusive"] = c.get("reducedness.inconclusive", 0)
    out["numberfield.precision_exhausted"] = c.get(
        "numberfield.precision_exhausted", 0)
    for cls, suffix in CELL_CLASSES:
        out["atlas.cells." + suffix] = c.get("cells." + cls, 0)
    for layer, s in tr.layer_self_s().items():
        out["layer.%s.self_s" % layer] = s
    out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    out["trace.cpu_s"] = traced_s
    out["trace.listed_share"] = listed / traced_s if traced_s else 0.0
    out["trace.spans"] = tr.span_count
    return out

"""Command line surface.

Every library operation is exposed as a subcommand; `--json` switches the
output to JSON (atlas and atlas4 also take a path to write it to). Exit
codes: 0 success, 1 usage or input error, 2 when the result is
Inconclusive because the slab enumeration ran past sail3.NODE_BUDGET.
Every setting is a flag: no file or environment variable changes a
result.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import (
    ExactError,
    IntVector,
    matrix_to_json,
    parse_matrix,
    parse_vector,
)
from .hessenberg import (
    HessType,
    hessenberg_complexity,
    reduce_to_perfect,
)
from .mdchar import md_characteristic, md_form3
from .reducedness import (
    Bounded,
    Sail,
    fingerprint,
    is_reduced,
    minimize_md_bounded,
)
from .sail3 import Inconclusive, compute_sail, verify_dirichlet_element
from .gauss2 import classify_sl2, sail_period
from . import atlas as atlas_mod


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ExactError("%s must be an integer, got %r" % (what, text)) \
            from None


def _emit(args, data, text):
    if getattr(args, "json", False):
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _cmd_reduce(args):
    m = parse_matrix(args.matrix)
    if args.seed is None:  # e1, of the matrix's size
        seed = IntVector(int(i == 0) for i in range(m.n))
    else:
        seed = parse_vector(args.seed)
    h, u = reduce_to_perfect(m, seed)
    _emit(args, {"perfect": matrix_to_json(h), "conjugator": matrix_to_json(u)},
          "perfect: %s\nconjugator: %s" % (h, u))
    return 0


def _cmd_complexity(args):
    v = hessenberg_complexity(parse_matrix(args.matrix))
    _emit(args, {"complexity": v}, str(v))
    return 0


def _cmd_mdchar(args):
    m = parse_matrix(args.matrix)
    val = md_characteristic(m, parse_vector(args.vector))
    _emit(args, {"md": val}, str(val))
    return 0


def _cmd_form(args):
    f = md_form3(parse_matrix(args.matrix))
    _emit(args, {"coeffs": list(f.coeffs)}, str(f))
    return 0


def _cmd_minimize(args):
    m = parse_matrix(args.matrix)
    # no default: the scan visits (2 bound + 1)^n vectors, and bound 1000
    # takes most of an hour
    bound = args.bound
    if bound is None:
        raise ExactError("a bounded scan needs --bound")
    best, wits = minimize_md_bounded(m, bound)
    _emit(args,
          {"min": best, "bound": bound, "witnesses": [list(w) for w in wits]},
          "min %d within bound %d at %s" % (
              best, bound, ", ".join(str(tuple(w)) for w in wits)))
    return 0


def _cmd_verdict(args):
    m = parse_matrix(args.matrix)
    # a bound asks for the box scan; the sail route takes none
    strategy = Sail() if args.bound is None else Bounded(args.bound)
    verdict = is_reduced(m, strategy)
    _emit(args, verdict.to_json(), _verdict_text(verdict))
    return 2 if verdict.status == "Inconclusive" else 0


def _verdict_text(v):
    if v.status == "Reduced":
        extra = " (bound %d)" % v.bound if v.certificate == "BoundChecked" else ""
        return "Reduced [%s]%s" % (v.certificate, extra)
    if v.status == "Nonreduced":
        return "Nonreduced, witness %s" % (tuple(v.witness),)
    return "Inconclusive: %s" % v.reason


def _cmd_fingerprint(args):
    m = parse_matrix(args.matrix)
    fp = fingerprint(m)
    text = ["min MD value %d" % fp.min_value]
    text += [str(h) for h in fp.matrices]
    _emit(args, fp.to_json(), "\n".join(text))
    return 0


def _cmd_sail(args):
    m = parse_matrix(args.matrix)
    sail = compute_sail(m)
    dump = sail.to_json()
    lines = []
    for entry in dump:
        lines.append("%s x=[%s,%s] y=[%s,%s]%s" % (
            tuple(entry["preimage"]), entry["x"][0], entry["x"][1],
            entry["y"][0], entry["y"][1],
            " *" if entry["is_fundamental"] else ""))
    _emit(args, dump, "\n".join(lines))
    return 0


def _cmd_period(args):
    p = sail_period(parse_matrix(args.matrix))
    _emit(args, {"period": list(p.entries)},
          "(" + ",".join(str(x) for x in p.entries) + ")")
    return 0


def _cmd_classify2(args):
    cls = classify_sl2(parse_matrix(args.matrix))
    data = cls.to_json()
    if cls.kind == "ComplexSpectrum":
        text = "ComplexSpectrum, canonical %s" % (cls.canonical,)
    elif cls.kind == "MultipleEigen":
        text = "MultipleEigen(epsilon=%d, k=%d)" % (cls.epsilon, cls.k)
    else:
        text = "RealSpectrum, period (%s)" % ",".join(
            str(x) for x in cls.period.entries)
    _emit(args, data, text)
    return 0


def _parse_range(text):
    """`-20:20,-20:20` -> ((-20,20), (-20,20))."""
    parts = [p.split(":") for p in text.split(",")]
    if len(parts) != 2 or any(len(p) != 2 for p in parts):
        raise ExactError("range must look like -20:20,-20:20")
    return tuple(tuple(_int(x, "a range bound") for x in p) for p in parts)


def _cmd_atlas(args):
    t = HessType.parse(args.type)
    anchor = tuple(parse_vector(args.anchor))
    m_range, n_range = _parse_range(args.range)
    cells, counts = atlas_mod.classify_grid(
        t, anchor, m_range, n_range, jobs=args.jobs)
    if args.out:
        fmt = "SVG" if args.out.lower().endswith(".svg") else "PPM"
        with open(args.out, "wb") as fh:
            fh.write(atlas_mod.render_grid(cells, fmt))
    return _emit_atlas(args, {"window": {"m": list(m_range),
                                         "n": list(n_range)},
                              "counts": counts,
                              "cells": [c.to_json() for c in cells]})


def _cmd_atlas4(args):
    if args.bound < 0:
        raise ExactError("atlas4 --bound must be at least 0, got %d"
                         % args.bound)
    cells = atlas_mod.classify_family_4d(args.bound)
    counts = {}
    for c in cells:
        counts[c.cls] = counts.get(c.cls, 0) + 1
    return _emit_atlas(args, {"bound": args.bound, "counts": counts,
                              "cells": [c.to_json() for c in cells]})


# items of a top-level list that _write_json encodes in one piece
_JSON_CHUNK = 1024


def _write_json(fh, data: dict) -> None:
    """The bytes of json.dumps(data, sort_keys=True), data a nonempty
    dict, to fh, written one top-level value, or _JSON_CHUNK items of a
    top-level list, at a time, so that the document is never held whole.
    Each piece is one json.dumps, which keeps the C encoder; a chunk's
    encoding, brackets stripped, is its items' joined by ", ", as in the
    whole list's."""
    sep = "{"
    for key in sorted(data):
        fh.write("%s%s: " % (sep, json.dumps(key)))
        value = data[key]
        if isinstance(value, list):
            fh.write("[")
            for i in range(0, len(value), _JSON_CHUNK):
                chunk = json.dumps(value[i:i + _JSON_CHUNK], sort_keys=True)
                fh.write((", " if i else "") + chunk[1:-1])
            fh.write("]")
        else:
            fh.write(json.dumps(value, sort_keys=True))
        sep = ", "
    fh.write("}")


def _emit_atlas(args, data):
    """An atlas's JSON to `--json PATH`, or to stdout under a bare --json,
    and its class counts as text otherwise."""
    if args.json and args.json is not True:
        with open(args.json, "w") as fh:
            _write_json(fh, data)
        args = argparse.Namespace(**{**vars(args), "json": False})
    _emit(args, data, "\n".join(
        "%s %d" % (k, v) for k, v in sorted(data["counts"].items())))
    return 0


def _cmd_ray(args):
    t = HessType.parse(args.type)
    anchor = tuple(parse_vector(args.anchor))
    start = tuple(parse_vector(args.start))
    direction = tuple(parse_vector(args.dir))
    entries, last = atlas_mod.ray_scan(t, anchor, start, direction, args.tmax)
    data = {"last_nonreduced": last,
            "entries": [{"t": k, "class": cls,
                         "verdict": v.to_json() if v else None}
                        for k, cls, v in entries]}
    lines = ["t=%d %s%s" % (k, cls, " " + _verdict_text(v) if v else "")
             for k, cls, v in entries]
    lines.append("last nonreduced: %s" % last)
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_verify_dirichlet(args):
    m = parse_matrix(args.matrix)
    x = parse_matrix(args.element)
    ok = verify_dirichlet_element(m, x)
    _emit(args, {"member": ok}, "member" if ok else "not a member")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hesslab",
        description="Exact Gauss reduction theory for SL(n,Z) matrices")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, json_path=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        if json_path:
            # only the atlases take a path: elsewhere an optional value
            # would swallow a matrix written after --json
            p.add_argument("--json", nargs="?", const=True, default=False,
                           help="JSON output, to stdout or to a path")
        else:
            p.add_argument("--json", action="store_true", help="JSON output")
        return p

    p = add("reduce", _cmd_reduce, help="perfect Hessenberg form of a matrix")
    p.add_argument("matrix")
    p.add_argument("--seed", help="primitive seed vector (default e1)")
    p = add("complexity", _cmd_complexity, help="Hessenberg complexity")
    p.add_argument("matrix")
    p = add("mdchar", _cmd_mdchar, help="MD-characteristic at a vector")
    p.add_argument("matrix")
    p.add_argument("--vector", required=True)
    p = add("form", _cmd_form, help="associated cubic MD form (n=3)")
    p.add_argument("matrix")
    p = add("minimize", _cmd_minimize, help="minimum MD value within a box")
    p.add_argument("matrix")
    p.add_argument("--bound", type=int)
    p = add("verdict", _cmd_verdict, help="reducedness verdict")
    p.add_argument("matrix")
    p.add_argument("--bound", type=int,
                   help="scan the box of this bound, not the sail")
    p = add("fingerprint", _cmd_fingerprint, help="conjugacy fingerprint")
    p.add_argument("matrix")
    p = add("sail", _cmd_sail, help="Klein-Voronoi sail vertices")
    p.add_argument("matrix")
    p = add("period", _cmd_period, help="2D characteristic-sequence period")
    p.add_argument("matrix")
    p = add("classify2", _cmd_classify2, help="SL(2,Z) conjugacy class")
    p.add_argument("matrix")
    p = add("atlas", _cmd_atlas, json_path=True,
            help="classify a 3x3 family window")
    p.add_argument("--type", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--range", default="-20:20,-20:20",
                   help="m and n windows, default -20:20,-20:20")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write a PPM/SVG rendering here")
    p = add("atlas4", _cmd_atlas4, json_path=True,
            help="classify the fixed 4D family cube")
    p.add_argument("--bound", type=int, default=15)
    p = add("ray", _cmd_ray, help="verdicts along an NRS-ray")
    p.add_argument("--type", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--tmax", type=int, default=30)
    p = add("verify-dirichlet", _cmd_verify_dirichlet,
            help="Dirichlet group membership check")
    p.add_argument("matrix")
    p.add_argument("element")
    return ap


_VALUE_OPTS = ("--range", "--start", "--dir", "--vector", "--seed", "--anchor")


def _join_negative_values(argv):
    """Merge `--range -3:3,-3:3` into `--range=-3:3,-3:3` so argparse does
    not mistake the value for an option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_OPTS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append("%s=%s" % (tok, val))
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 1 if ex.code not in (0, None) else 0
    try:
        return args.fn(args)
    except Inconclusive as ex:
        print("Inconclusive: %s" % ex, file=sys.stderr)
        return 2
    except (ExactError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

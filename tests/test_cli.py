import argparse
import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hesslab import cli
from hesslab.exact import IntMatrix, parse_matrix
from hesslab.mdchar import md_form3


def run(argv, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_complexity_golden(capsys):
    code, out, _ = run(["complexity", "0 1 2; 1 0 0; 0 3 5"], capsys)
    assert code == 0
    assert out.strip() == "3"


def test_period_golden(capsys):
    code, out, _ = run(["period", "2 7; 5 18"], capsys)
    assert code == 0
    assert out.strip() == "(2,1,1,3)"


def test_form_of_m1(capsys):
    # the associated cubic form of M1, as text and as JSON coefficients in
    # the order of MONOMIALS3, against md_form3
    m1 = "0 1 2; 1 0 0; 0 3 5"
    form = md_form3(parse_matrix(m1))
    code, out, _ = run(["form", m1], capsys)
    assert code == 0
    assert out.strip() == str(form) == (
        "3*x^3+15*x^2*y+24*x^2*z-3*x*y^2-18*x*y*z-20*x*z^2+3*y^3+6*y^2*z"
        "+4*y*z^2+4*z^3")
    code, out, _ = run(["form", m1, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"coeffs": list(form.coeffs)} \
        == {"coeffs": [3, 15, 24, -3, -18, -20, 3, 6, 4, 4]}


@pytest.mark.parametrize("matrix,text,doc", [
    ("0 1; -1 0", "ComplexSpectrum, canonical 0 1; -1 0",
     {"kind": "ComplexSpectrum", "canonical": [[0, 1], [-1, 0]]}),
    ("1 1; 0 1", "MultipleEigen(epsilon=1, k=1)",
     {"kind": "MultipleEigen", "epsilon": 1, "k": 1}),
    ("2 7; 5 18", "RealSpectrum, period (2,1,1,3)",
     {"kind": "RealSpectrum", "period": [2, 1, 1, 3]}),
], ids=["complex", "multiple", "real"])
def test_classify2_of_each_kind(matrix, text, doc, capsys):
    code, out, _ = run(["classify2", matrix], capsys)
    assert code == 0 and out.strip() == text
    code, out, _ = run(["classify2", matrix, "--json"], capsys)
    assert code == 0 and json.loads(out) == doc


def test_mdchar_and_zero_vector(capsys):
    code, out, _ = run(["mdchar", "0 1 2; 1 0 0; 0 3 5",
                        "--vector", "1,0,0"], capsys)
    assert code == 0 and out.strip() == "3"
    code, _, err = run(["mdchar", "0 1 2; 1 0 0; 0 3 5",
                        "--vector", "0,0,0"], capsys)
    assert code == 1
    assert "zero vector" in err
    # a vector of the wrong length is an input error, not a traceback or
    # a silently truncated product
    for vec in ("1,0", "1,0,0,0"):
        code, out, err = run(["mdchar", "0 1 2; 1 0 0; 0 3 5",
                              "--vector", vec], capsys)
        assert code == 1 and out == ""
        assert "vector has %d entries" % len(vec.split(",")) in err


def test_malformed_matrix_is_annotated(capsys):
    code, _, err = run(["complexity", "0 1 2; 1 x 0; 0 3 5"], capsys)
    assert code == 1
    assert "row 2, entry 2" in err


def test_json_output_deterministic(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run(["reduce", "1 2 3; 4 5 6; 7 8 10", "--json"], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    doc = json.loads(outs.pop())
    assert "matrix" in doc or "hessenberg" in doc or len(doc) > 0


def test_verdict_exit_codes(capsys):
    code, out, _ = run(["verdict", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Reduced"
    assert doc["certificate"]["kind"] == "SailCertified"
    # a nonreduced input is still a successful verdict: exit 0, witness
    code, out, _ = run(["verdict", "0 1 1; 1 0 0; 0 2 1", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "Nonreduced" and doc["witness"]


def test_verdict_on_a_far_out_member(capsys):
    # <0,1|1,0,2>, anchor 1,0,1, at (4, 10^12): the slab's bounding box
    # held 4e7 cells, past the node budget, and the verdict exited 2
    code, out, _ = run(["verdict", "0 1 1000000000001; 1 0 4; "
                        "0 2 2000000000001", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"status": "Reduced",
                               "certificate": {"kind": "SailCertified"}}


def test_fingerprint(capsys):
    code, out, _ = run(["fingerprint", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["min_value"] == 3
    assert len(doc["matrices"]) == 2


# (preimage, x, y, is_fundamental) of M1's sail; the printed intervals
# enclose x and y, with ends at 10^-9 (an x that is an integer is printed
# as a point)
_M1_SAIL = (
    ((0, -5, 3), ("0.191282440", "0.191282441"),
     ("5.131338957", "5.131338958"), False),
    ((-1, 2, -1), ("0.678862990", "0.678862991"),
     ("2.723812374", "2.723812375"), False),
    ((1, 0, 0), ("1.000000000", "1.000000000"),
     ("2.244234607", "2.244234608"), True),
    ((0, -1, 1), ("3.549008421", "3.549008422"),
     ("1.191282440", "1.191282441"), True),
    ((0, 1, 0), ("5.227871411", "5.227871412"),
     ("0.981535036", "0.981535037"), False),
    ((1, 0, 2), ("18.553759666", "18.553759667"),
     ("0.521017477", "0.521017478"), False),
    ((1, 0, 3), ("27.330639499", "27.330639500"),
     ("0.429282671", "0.429282672"), False),
)


def test_sail_and_fingerprint_json_golden(capsys):
    code, out, _ = run(["sail", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    assert out == "[%s]\n" % ", ".join(
        '{"is_fundamental": %s, "preimage": [%s], "x": ["%s", "%s"], '
        '"y": ["%s", "%s"]}' % (("true" if fund else "false",
                                 ", ".join(map(str, v))) + x + y)
        for v, x, y, fund in _M1_SAIL)
    code, out, _ = run(["fingerprint", "0 1 2; 1 0 0; 0 3 5", "--json"],
                       capsys)
    assert code == 0
    assert out == ('{"matrices": [[[0, 1, 2], [1, 0, 0], [0, 3, 5]], '
                   '[[0, 2, 3], [1, 1, 1], [0, 3, 4]]], "min_value": 3}\n')


def test_sail_below_one_real_eigenvalue(capsys):
    # r ~ 0.57 < 1; certified Reduced by verdict, so sail must not exit 2
    code, out, _ = run(["sail", "0 0 1; 1 0 -2; 0 1 1", "--json"], capsys)
    assert code == 0
    assert any(e["is_fundamental"] for e in json.loads(out))
    code, out, _ = run(["verdict", "0 0 1; 1 0 -2; 0 1 1", "--json"], capsys)
    assert code == 0 and json.loads(out)["status"] == "Reduced"


def test_fingerprint_where_the_float_metric_was_singular(capsys):
    # entries near 2.4e8 made the float slab metric singular: it escaped as
    # numpy's LinAlgError, then exited 2 as Inconclusive; the metric in
    # Q(r) is positive definite and the input is a conjugate of M1
    code, out, err = run(["fingerprint",
                          "-142846070 -73023007 -244434686; "
                          "108932175 55686202 186402060; "
                          "50935673 26038350 87159873"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == ["min MD value 3", "0 1 2; 1 0 0; 0 3 5",
                                "0 2 3; 1 1 1; 0 3 4"]


def _check_shear_conjugate(row, col, power, capsys):
    # X^-1 M1 X for the shear X = I + 10^power E_(row+1)(col+1): the
    # fingerprint is M1's, as for every conjugate, and the sail prints
    rows = [[int(i == j) for j in range(3)] for i in range(3)]
    rows[row][col] = 10 ** power
    x = IntMatrix(rows)
    m1 = IntMatrix([[0, 1, 2], [1, 0, 0], [0, 3, 5]])
    m = x.inverse_unimodular() * m1 * x
    text = "; ".join(" ".join(map(str, r)) for r in m.rows)
    code, out, _ = run(["fingerprint", text, "--json"], capsys)
    assert code == 0
    assert run(["fingerprint", _M1, "--json"], capsys) == (0, out, "")
    code, out, _ = run(["sail", text, "--json"], capsys)
    assert code == 0 and any(e["is_fundamental"] for e in json.loads(out))


def test_conjugate_beyond_the_float_range(capsys):
    # the shear I + 10^320 E12: its x form has entries beyond the float
    # range, where a float filter of x's sign overflowed
    _check_shear_conjugate(0, 1, 320, capsys)


@pytest.mark.parametrize("row, col, power", [(2, 0, 320), (0, 1, 1000)],
                         ids=["E31-10^320", "E12-10^1000"])
def test_sheared_conjugates_fingerprint_as_m1(row, col, power, capsys):
    # the precision such inputs need grows with their entries, and a
    # capped precision made them Inconclusive ("slab metric is not
    # positive definite", "bounds of field element undecided at cap")
    _check_shear_conjugate(row, col, power, capsys)


def test_json_flag_before_the_matrix(capsys):
    # --json took an optional path on every subcommand and swallowed a
    # matrix written after it, exiting 1
    last = run(["fingerprint", _M1, "--json"], capsys)
    assert last[0] == 0
    assert run(["fingerprint", "--json", _M1], capsys) == last
    assert run(["verdict", "--json", _M1], capsys) \
        == run(["verdict", _M1, "--json"], capsys)


_ATLAS = ["atlas", "--type", "<0,1|1,0,2>", "--anchor", "1,0,1"]


# sha256 of `atlas --json` on the two criterion-9 windows, as printed
# when every cell was classified from its member's matrix
_ATLAS_JSON_SHA256 = {
    "<0,1|1,0,2>":
        "a6f173c13cfa58c5c99af9ff95f66c181c753a7b4422b3363f776d066031f3f8",
    "<0,1|0,0,1>":
        "072c42ae30015341fa06a5ca9fd06ee03caf1d4db30d49698edc62ffd318ac9a",
}


@pytest.mark.parametrize("family, anchor", [("<0,1|1,0,2>", "1,0,1"),
                                            ("<0,1|0,0,1>", "1,0,0")])
def test_criterion9_atlas_json_is_pinned(family, anchor, capsys):
    code, out, _ = run(["atlas", "--type", family, "--anchor", anchor,
                        "--range=-20:20,-20:20", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _ATLAS_JSON_SHA256[family]


# sha256 of `atlas --json` on the 201x201 Frobenius window, as printed
# when every cell's polynomial was an IntPoly put through discriminant
_FROBENIUS_201_JSON_SHA256 = \
    "0980c6601ec4547e53cbd3697eb2b672087c0b67857d88851acde7cef9e9c32e"


def test_frobenius_201_atlas_json_is_pinned(capsys):
    code, out, _ = run(["atlas", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
                        "--range=-100:100,-100:100", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _FROBENIUS_201_JSON_SHA256


# sha256 of `atlas4 --bound 15 --json`, as printed when every cell was
# classified from its polynomial by factor_small and the discriminant
_ATLAS4_BOUND15_JSON_SHA256 = \
    "948ca2241e9c7a9ba2aeb495a3d7287916bbd6a397d77de7697c0e538f01817c"


def test_atlas4_bound15_json_is_pinned(capsys):
    code, out, _ = run(["atlas4", "--bound", "15", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _ATLAS4_BOUND15_JSON_SHA256


@pytest.mark.parametrize("argv", [
    _ATLAS + ["--range", "x:1,2:3"],
    _ATLAS + ["--range", "12,2:3"],
    ["ray", "--type", "<a>", "--anchor", "1,0,1", "--start", "0,0",
     "--dir", "1,0"],
], ids=["range-not-int", "range-no-colon", "type-not-int"])
def test_malformed_numbers_are_input_errors(argv, capsys):
    # each escaped as a ValueError traceback
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("matrix", ["1 0 0; 0 1 0; 0 0 1", "1 0; 0 1"])
def test_minimize_where_md_vanishes_on_the_box(matrix, capsys):
    # the scan returned no minimum, and printing it escaped as a TypeError
    # traceback
    code, out, err = run(["minimize", matrix, "--bound", "2"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: the MD characteristic vanishes on every vector "
                   "of sup-norm at most 2\n")


def test_malformed_type_names_the_entry(capsys):
    # int() in HessType.parse escaped as a ValueError traceback
    code, _, err = run(["atlas", "--type", "<0,1|1,x,2>", "--anchor", "1,0,1"],
                       capsys)
    assert code == 1
    assert err == "error: type column 2, entry 2: 'x' is not an integer\n"


def test_bounded_scan_needs_a_bound(capsys):
    code, out, err = run(["minimize", "0 1 2; 1 0 0; 0 3 5"], capsys)
    assert code == 1 and out == ""
    assert "--bound" in err
    code, out, _ = run(["minimize", "0 1 2; 1 0 0; 0 3 5", "--bound", "4",
                        "--json"], capsys)
    assert code == 0
    assert json.loads(out)["bound"] == 4


def test_verdict_bound_is_the_box_scan(capsys):
    # `verdict M --bound B` is the box scan, `verdict M` the sail route;
    # --strategy is an unknown option, as on atlas and ray
    m1 = "0 1 2; 1 0 0; 0 3 5"
    code, out, _ = run(["verdict", m1, "--bound", "3", "--json"], capsys)
    assert code == 0
    assert out == ('{"certificate": {"bound": 3, "kind": "BoundChecked"}, '
                   '"status": "Reduced"}\n')
    code, out, _ = run(["verdict", m1, "--json"], capsys)
    assert code == 0 and json.loads(out)["status"] == "Reduced"
    assert "BoundChecked" not in out
    for flags in (["--strategy", "sail"], ["--strategy", "bounded"],
                  ["--strategy", "bounded", "--bound", "3"]):
        code, out, err = run(["verdict", m1] + flags, capsys)
        assert code == 1 and out == ""
        assert "--strategy" in err
    code, out, _ = run(["minimize", m1, "--bound", "3"], capsys)
    assert code == 0
    assert out == ("min 3 within bound 3 at (0, 1, -1), (0, 1, 0), (1, -2, 1),"
                   " (1, 0, 0), (1, 0, 2), (1, 0, 3), (2, 3, -2)\n")


def test_atlas4_bound_zero_and_negative(capsys):
    # --bound 0 is the one-cell cube, not the default bound 15
    code, out, _ = run(["atlas4", "--bound", "0", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 0
    assert [c["params"] for c in doc["cells"]] == [[0, 0, 0]]
    code, out, err = run(["atlas4", "--bound", "-1"], capsys)
    assert code == 1 and out == ""
    assert "--bound" in err


def test_atlas_out_and_json_files(tmp_path, capsys):
    ppm = tmp_path / "grid.ppm"
    js = tmp_path / "grid.json"
    code, out, _ = run(["atlas", "--type", "<0,1|0,0,1>",
                        "--anchor", "1,0,0", "--range", "-1:1,-1:1",
                        "--out", str(ppm), "--json", str(js)], capsys)
    assert code == 0
    assert ppm.read_bytes().startswith(b"P3\n3 3\n255\n")
    doc = json.loads(js.read_text())
    assert len(doc["cells"]) == 9
    # the file holds what a bare --json prints, without the newline
    code, out, _ = run(["atlas", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
                        "--range", "-1:1,-1:1", "--json"], capsys)
    assert code == 0
    assert js.read_bytes() + b"\n" == out.encode()


@pytest.mark.parametrize("argv", [
    ["atlas", "--type", "<0,1|1,0,2>", "--anchor", "1,0,1",
     "--range=-20:20,-20:20"],
    ["atlas4", "--bound", "6"]], ids=["atlas", "atlas4"])
@pytest.mark.parametrize("chunk", [None, 7])
def test_atlas_json_file_is_written_in_pieces(argv, chunk, tmp_path, capsys,
                                              monkeypatch):
    # `--json PATH` writes the document a list chunk at a time; the file
    # holds the bytes of json.dumps(data, sort_keys=True), which a bare
    # --json prints, on 1681 and 2197 cells: with the default chunk, and
    # with chunks of 7 that leave a remainder
    if chunk:
        monkeypatch.setattr(cli, "_JSON_CHUNK", chunk)
    path = tmp_path / "atlas.json"
    code, _, _ = run(argv + ["--json", str(path)], capsys)
    assert code == 0
    code, out, _ = run(argv + ["--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]) in (41 * 41, 13 ** 3)
    assert path.read_text() == json.dumps(data, sort_keys=True) == out[:-1]


@pytest.mark.parametrize("output", ["text", "json", "grid.ppm", "grid.svg",
                                    "grid.json"])
def test_atlas_reversed_range_is_an_input_error(output, tmp_path, capsys):
    # a reversed range exited 0 with no counts, "cells": [] or a 0x0
    # picture
    argv = ["atlas", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
            "--range", "5:1,0:0"]
    path = tmp_path / output
    argv += {"text": [], "json": ["--json"]}.get(
        output, ["--json" if output.endswith(".json") else "--out",
                 str(path)])
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == "error: the m range 5:1 is empty\n"
    assert list(tmp_path.iterdir()) == []


_ATLAS = ["atlas", "--type", "<0,1|1,0,2>", "--anchor", "1,0,1",
          "--range", "0:0,0:0"]
_RAY = ["ray", "--type", "<0,1|1,0,2>", "--anchor", "1,0,1", "--start", "0,0",
        "--dir", "-1,0", "--tmax", "1"]


@pytest.mark.parametrize("scan", [_ATLAS, _RAY], ids=["atlas", "ray"])
@pytest.mark.parametrize("flags", [["--strategy", "sail"],
                                   ["--strategy", "bounded"],
                                   ["--bound", "3"]])
def test_family_scans_take_no_strategy(scan, flags, capsys):
    # a family scan has one route, the certified one: the box scan's bound
    # belongs to minimize and verdict --bound
    code, out, _ = run(scan + flags, capsys)
    assert code == 1 and out == ""
    code, out, _ = run(scan, capsys)
    assert code == 0 and out


def test_family_scan_options_are_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {name: {a.dest for a in sub.choices[name]._actions}
             for name in ("atlas", "ray")}
    assert dests == {
        "atlas": {"help", "json", "type", "anchor", "range", "jobs", "out"},
        "ray": {"help", "json", "type", "anchor", "start", "dir", "tmax"},
    }


def test_ray_cli(capsys):
    code, out, _ = run(["ray", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
                        "--start", "2,2", "--dir", "-1,0", "--tmax", "4",
                        "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 5


def test_ray_negative_tmax_is_an_input_error(capsys):
    # an empty ray printed "last nonreduced: None" and exited 0
    code, out, err = run(["ray", "--type", "<0,1|0,0,1>", "--anchor",
                          "1,0,0", "--start", "2,2", "--dir", "-1,0",
                          "--tmax", "-1"], capsys)
    assert code == 1 and out == ""
    assert "t_max must be at least 0" in err


@pytest.mark.parametrize("matrix, e1, text", [
    ("5 2; 2 1", "1,0", None),
    ("0 0 0 -1; 1 0 0 4; 0 1 0 6; 0 0 1 4", "1,0,0,0", None),
    # the README example, as printed with the fixed default 1,0,0
    ("2 1 0; 1 1 1; 3 0 2", "1,0,0",
     "perfect: 0 5 5; 1 0 -2; 0 6 5\nconjugator: 1 2 0; 0 1 1; 0 3 2\n"),
], ids=["2x2", "4x4", "3x3"])
def test_reduce_seeds_with_e1_of_the_input_size(matrix, e1, text, capsys):
    # without --seed, a 2x2 or 4x4 input exited 1 with "seed dimension
    # mismatch" against the fixed default 1,0,0
    for argv in ([], ["--json"]):
        code, out, err = run(["reduce", matrix] + argv, capsys)
        assert code == 0 and err == ""
        assert run(["reduce", matrix, "--seed", e1] + argv, capsys) \
            == (0, out, "")
    assert text is None or run(["reduce", matrix], capsys) == (0, text, "")


def test_verify_dirichlet_cli(capsys):
    code, out, _ = run(["verify-dirichlet", "0 0 1; 1 0 1; 0 1 3",
                        "0 0 1; 1 0 1; 0 1 3"], capsys)
    assert code == 0
    assert "member" in out


def test_verify_dirichlet_size_mismatch_is_an_error(capsys):
    # an element of another size than the matrix is an input error, as a
    # vector of the wrong length is for mdchar; it printed "not a member"
    # and exited 0
    for argv in ([], ["--json"]):
        code, out, err = run(["verify-dirichlet", "0 0 1; 1 0 1; 0 1 3",
                              "1 0; 0 1"] + argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: the element is 2x2, the matrix is 3x3\n"


def test_usage_error_exit_code(capsys):
    code, _, err = run(["no-such-command"], capsys)
    assert code == 1
    assert "invalid choice" in err


def test_python_m_hesslab():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hesslab", "atlas4", "--bound", "1", "--json"],
        capture_output=True, text=True, env=env, cwd=root, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["cells"]) == 27


_M1 = "0 1 2; 1 0 0; 0 3 5"
_FRO = "0 0 1; 1 0 1; 0 1 3"
_NUMPY_FREE_RUNS = {
    "reduce": ["reduce", "1 2 3; 4 5 6; 7 8 10"],
    "complexity": ["complexity", _M1],
    "mdchar": ["mdchar", _M1, "--vector", "1,0,0"],
    "form": ["form", _M1],
    "minimize3": ["minimize", _M1, "--bound", "4"],
    "minimize2": ["minimize", "2 7; 5 18", "--bound", "6"],
    "verdict": ["verdict", _M1],
    "verdict-bounded": ["verdict", _M1, "--bound", "4"],
    "fingerprint": ["fingerprint", _M1],
    "sail": ["sail", _M1],
    "period": ["period", "2 7; 5 18"],
    "classify2": ["classify2", "2 7; 5 18"],
    "atlas-212": ["atlas", "--type", "<0,1|1,0,2>", "--anchor", "1,0,1",
                  "--range", "-1:1,7:9"],
    "atlas-fro": ["atlas", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
                  "--range", "-5:-3,-1:1"],
    "atlas4": ["atlas4", "--bound", "1"],
    "ray": ["ray", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
            "--start", "2,2", "--dir", "-1,0", "--tmax", "4"],
    "verify-dirichlet": ["verify-dirichlet", _FRO, _FRO],
}

_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from hesslab import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv + ["--json"]) != 0:
        sys.exit("%s failed" % argv[0])
"""


def test_certified_path_runs_without_numpy():
    # hesslab has no runtime dependency: every subcommand, the bounded scan
    # of minimize and verdict included, runs with numpy blocked
    commands = next(a.choices for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in _NUMPY_FREE_RUNS.values()} == set(commands)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY,
         json.dumps(list(_NUMPY_FREE_RUNS.values()))],
        capture_output=True, text=True, env=env, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(_NUMPY_FREE_RUNS)
    docs = dict(zip(_NUMPY_FREE_RUNS, map(json.loads, lines)))
    assert docs["complexity"] == {"complexity": 3}
    assert docs["minimize3"]["min"] == 3 and docs["minimize2"]["min"] == 5
    assert docs["verdict"]["status"] == "Reduced"
    assert docs["verdict-bounded"]["certificate"] == {"kind": "BoundChecked",
                                                      "bound": 4}
    assert docs["fingerprint"]["min_value"] == 3
    assert len(docs["fingerprint"]["matrices"]) == 2
    assert any(v["is_fundamental"] for v in docs["sail"])
    assert docs["period"] == {"period": [2, 1, 1, 3]}
    for name in ("atlas-212", "atlas-fro"):
        atlas = docs[name]
        assert len(atlas["cells"]) == 9
        assert "NRS_Unknown" not in atlas["counts"]
        assert any(k.startswith("NRS") for k in atlas["counts"])
    assert len(docs["atlas4"]["cells"]) == 27
    assert len(docs["ray"]["entries"]) == 5
    assert docs["verify-dirichlet"] == {"member": True}


# a member of complexity 5.4e10 whose fundamental slab holds 162,923
# points, and the sha256 of its `sail --json`
_LARGE = "2391 2344 -205147829; 4229 2887 -362848366; 0 3029 276"
_LARGE_SAIL_SHA = \
    "f5b91c9437b37ea62cd2ef6d849083c5774d6091cf9d7b4f1ed30a287feb2a3a"

_AT_SCALE = """
import contextlib, hashlib, io, json, resource, sys
from hesslab import cli

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()

run(["verdict", "0 1 2; 1 0 0; 0 3 5"])
warm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
m = sys.argv[1]
(_, verdict), (_, fp), (_, sail) = (
    run(argv) for argv in (["verdict", m], ["fingerprint", m],
                           ["sail", "--json", m]))
print(json.dumps({
    "growth_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - warm,
    "verdict": verdict, "fingerprint": fp,
    "sail_sha": hashlib.sha256(sail.encode()).hexdigest()}))
"""


def test_large_member_runs_in_constant_memory():
    # the verdict and the fingerprint fold the slab's points, and the sail
    # keeps only their Pareto front: after a warm-up verdict of M1, the
    # three commands on a 162,923-point slab grow the peak RSS (ru_maxrss,
    # in KB on Linux) by less than 10 MB, where a materialised slab and
    # its sort grew it by about 155 MB
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", _AT_SCALE, _LARGE],
                          capture_output=True, text=True, env=env, cwd=root,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "Reduced [SailCertified]\n"
    assert doc["fingerprint"].startswith("min MD value 54171971789\n")
    assert doc["sail_sha"] == _LARGE_SAIL_SHA
    assert doc["growth_kb"] < 10 * 1024, doc["growth_kb"]


def test_no_module_imports_numpy():
    src = pathlib.Path(cli.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "numpy" for n in names), path.name

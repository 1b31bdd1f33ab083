import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hesslab import cli
from hesslab.exact import IntMatrix


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
    # held 4e7 cells, past the region cap, and the verdict exited 2
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


# (preimage, x, y, is_fundamental) of M1's sail; the printed enclosures are
# FieldElement.interval at width 10^-12, rounded to nine decimals
_M1_SAIL = (
    ((0, -5, 3), "0.191282440", "5.131338958", False),
    ((-1, 2, -1), "0.678862991", "2.723812375", False),
    ((1, 0, 0), "1.000000000", "2.244234607", True),
    ((0, -1, 1), "3.549008421", "1.191282440", True),
    ((0, 1, 0), "5.227871412", "0.981535037", False),
    ((1, 0, 2), "18.553759666", "0.521017477", False),
    ((1, 0, 3), "27.330639500", "0.429282672", False),
)


def test_sail_and_fingerprint_json_golden(capsys):
    code, out, _ = run(["sail", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    assert out == "[%s]\n" % ", ".join(
        '{"is_fundamental": %s, "preimage": [%s], "x": ["%s", "%s"], '
        '"y": ["%s", "%s"]}' % ("true" if fund else "false",
                                ", ".join(map(str, v)), x, x, y, y)
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


@pytest.mark.parametrize("argv, config", [
    (_ATLAS + ["--range", "x:1,2:3"], None),
    (_ATLAS + ["--range", "12,2:3"], None),
    (["complexity", "0 1 2; 1 0 0; 0 3 5"], "region = abc\n"),
    (["ray", "--type", "<a>", "--anchor", "1,0,1", "--start", "0,0",
      "--dir", "1,0"], None),
], ids=["range-not-int", "range-no-colon", "config-region", "type-not-int"])
def test_malformed_numbers_are_input_errors(argv, config, tmp_path, capsys,
                                            monkeypatch):
    # each escaped as a ValueError traceback
    monkeypatch.chdir(tmp_path)  # no hessenberg-lab.toml here
    if config is not None:
        (tmp_path / "conf").write_text(config)
        argv = ["--config", str(tmp_path / "conf")] + argv
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


def test_config_file_keys(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "hessenberg-lab.toml"
    cfg.write_text("region = 1000\nbound = 7\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["minimize", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 7
    assert cli.load_config().region == 1000  # file beats built-in
    # there is no precision budget: its old key is as unknown as any other
    cfg.write_text("precision_bits = 1024\n")
    code, out, err = run(["complexity", "0 1 2; 1 0 0; 0 3 5"], capsys)
    assert code == 1 and out == ""
    assert err == "error: unknown config key 'precision_bits'\n"


def test_bounded_scan_needs_a_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no hessenberg-lab.toml here
    for argv in (["minimize", "0 1 2; 1 0 0; 0 3 5"],
                 ["verdict", "0 1 2; 1 0 0; 0 3 5", "--strategy", "bounded"]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert "--bound" in err
    code, out, _ = run(["minimize", "0 1 2; 1 0 0; 0 3 5", "--bound", "4",
                        "--json"], capsys)
    assert code == 0
    assert json.loads(out)["bound"] == 4


def test_atlas4_bound_zero_and_negative(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no hessenberg-lab.toml here
    # --bound 0 is the one-cell cube, not the config's default window
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


def test_ray_cli(capsys):
    code, out, _ = run(["ray", "--type", "<0,1|0,0,1>", "--anchor", "1,0,0",
                        "--start", "2,2", "--dir", "-1,0", "--tmax", "4",
                        "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 5


def test_verify_dirichlet_cli(capsys):
    code, out, _ = run(["verify-dirichlet", "0 0 1; 1 0 1; 0 1 3",
                        "0 0 1; 1 0 1; 0 1 3"], capsys)
    assert code == 0
    assert "member" in out


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
    "verdict-bounded": ["verdict", _M1, "--strategy", "bounded",
                        "--bound", "4"],
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

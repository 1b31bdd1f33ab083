import json
import os
import subprocess
import sys

import pytest

from hesslab import cli


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


def test_fingerprint(capsys):
    code, out, _ = run(["fingerprint", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["min_value"] == 3
    assert len(doc["matrices"]) == 2


def test_sail_below_one_real_eigenvalue(capsys):
    # r ~ 0.57 < 1; certified Reduced by verdict, so sail must not exit 2
    code, out, _ = run(["sail", "0 0 1; 1 0 -2; 0 1 1", "--json"], capsys)
    assert code == 0
    assert any(e["is_fundamental"] for e in json.loads(out))
    code, out, _ = run(["verdict", "0 0 1; 1 0 -2; 0 1 1", "--json"], capsys)
    assert code == 0 and json.loads(out)["status"] == "Reduced"


def test_singular_float_metric_is_inconclusive(capsys):
    # entries near 2.4e8 make the float slab metric singular; it used to
    # escape as numpy's LinAlgError
    code, out, err = run(["fingerprint",
                          "-142846070 -73023007 -244434686; "
                          "108932175 55686202 186402060; "
                          "50935673 26038350 87159873"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("Inconclusive:")


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "hessenberg-lab.toml"
    cfg.write_text("precision_bits = 1024\nbound = 7\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["minimize", "0 1 2; 1 0 0; 0 3 5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 7
    monkeypatch.setenv("HESSLAB_PRECISION_BITS", "2048")
    cfg2 = tmp_path / "conf2"
    cfg2.write_text("precision_bits = 1024\n")
    conf = cli.load_config(str(cfg2))
    assert conf.precision_bits == 2048  # env beats file
    monkeypatch.delenv("HESSLAB_PRECISION_BITS")
    conf = cli.load_config(str(cfg2))
    assert conf.precision_bits == 1024  # file beats built-in


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

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, cwd):
    # the child runs in cwd, so the package path must be absolute
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, "-m", "gsb.cli", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_verify_mass_passes(tmp_path):
    r = run_cli(["verify", "mass", "--group", "torus:1", "--t", "0.5,1", "--out", "o"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    assert (tmp_path / "o" / "verify_mass_torus-1_t0.5.csv").exists()


def test_outputs_deterministic(tmp_path):
    args = ["verify", "mass", "--group", "su2", "--t", "1", "--seed", "7"]
    run_cli([*args, "--out", "a"], tmp_path)
    run_cli([*args, "--out", "b"], tmp_path)
    fa = (tmp_path / "a" / "verify_mass_su2_t1.csv").read_bytes()
    fb = (tmp_path / "b" / "verify_mass_su2_t1.csv").read_bytes()
    assert fa == fb


def test_impossible_tolerance_fails(tmp_path):
    r = run_cli(
        ["verify", "reproducing", "--group", "torus:1", "--t", "1", "--tolerance", "1e-300", "--out", "o"],
        tmp_path,
    )
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    r = run_cli(["verify", "mass", "--config", str(bad), "--out", "o"], tmp_path)
    assert r.returncode == 2
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"group": "su2", "bogus": 1}))
    r = run_cli(["verify", "mass", "--config", str(bad), "--out", "o"], tmp_path)
    assert r.returncode == 2
    assert "bogus" in (r.stderr + r.stdout)


def test_invalid_group_exits_2(tmp_path):
    r = run_cli(["verify", "mass", "--group", "so3"], tmp_path)
    assert r.returncode == 2


def test_symbol_report(tmp_path):
    r = run_cli(
        ["report", "symbol", "--group", "su2", "--t", "1", "--n", "1,2", "--fmt", "json", "--out", "o"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    files = list((tmp_path / "o").glob("*.json"))
    assert files
    rows = json.loads(files[0].read_text())
    assert any(int(row["degree"]) == 2 for row in rows)


def test_invert_roundtrip(tmp_path):
    coeffs = {
        "group": "torus:1",
        "entries": [
            {"label": [1], "matrix": [[[1.0, 0.0]]]},
            {"label": [-2], "matrix": [[[0.0, 0.5]]]},
        ],
    }
    pts = [[0.0], [1.1], [2.5]]
    (tmp_path / "c.json").write_text(json.dumps(coeffs))
    (tmp_path / "p.json").write_text(json.dumps(pts))
    r = run_cli(
        ["invert", "--coeffs", "c.json", "--points", "p.json", "--group", "torus:1", "--t", "1", "--out", "o"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    csv = list((tmp_path / "o").glob("invert*")).pop().read_text()
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + len(pts)


def test_invert_empty_points(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"group": "su2", "entries": []}))
    (tmp_path / "p.json").write_text("[]")
    r = run_cli(
        ["invert", "--coeffs", "c.json", "--points", "p.json", "--group", "su2", "--t", "1", "--out", "o"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr


def test_invert_malformed_coeffs_exits_2(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"group": "su2", "entries": [{"label": 99}]}))
    (tmp_path / "p.json").write_text("[]")
    r = run_cli(
        ["invert", "--coeffs", "c.json", "--points", "p.json", "--group", "su2", "--t", "1", "--out", "o"],
        tmp_path,
    )
    assert r.returncode == 2


def test_su2_unitarity_high_irreps_tight_gaps(tmp_path):
    # irreps up to m = 16 at t = 2 peak far from t/2; each radial term is
    # integrated on a rule centred at its own peak, so every gap is tiny
    args = ["verify", "unitarity", "--group", "su2", "--t", "2", "--cutoff", "16", "--out", "o"]
    r = run_cli(args, tmp_path)
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    with open(tmp_path / "o" / "verify_unitarity_su2_t2.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == sum(m * m for m in range(1, 17))
    assert all(row["pass"] == "1" and float(row["gap"]) <= 1e-10 for row in rows)

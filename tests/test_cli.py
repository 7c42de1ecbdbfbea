import csv
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gsb.config import VERIFY_SUITES


def _main_in_process(args, capsys):
    from gsb.cli import main

    code = main(args)
    return code, capsys.readouterr()


def test_verify_mass_passes(tmp_path, capsys):
    out = tmp_path / "o"
    code, captured = _main_in_process(["verify", "mass", "--group", "torus:1", "--t", "0.5,1", "--out", str(out)], capsys)
    assert code == 0, captured.err
    assert "PASS" in captured.out
    assert (out / "verify_mass_torus-1_t0.5.csv").exists()


def test_outputs_deterministic(fresh):
    # `python -m gsb.cli` exits 0 on a passing run, and the sampled suite
    # writes the bytes of the probed run in another process
    entry, probed = fresh["-m gsb.cli verify reproducing --group su2"], fresh["verify reproducing --group su2"]
    assert entry.code == 0, entry.err
    assert entry.out.splitlines()[-1] == "reproducing: PASS"
    name = "verify_reproducing_su2_t1.csv"
    assert (entry.cwd / "o" / name).read_bytes() == (probed.cwd / "o" / name).read_bytes()


def test_the_parser_offers_the_suites_in_their_order():
    # the parser's choices are config's names, read without running suites
    from gsb import suites

    assert tuple(suites.SUITES) == VERIFY_SUITES


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_impossible_tolerance_fails(tmp_path, capsys, suite):
    # no row of any suite meets a tolerance of 1e-300, so each one must fail
    args = ["verify", suite, "--group", "torus:1", "--t", "1", "--tolerance", "1e-300", "--out", str(tmp_path / "o")]
    code, captured = _main_in_process(args, capsys)
    assert code == 1, captured.err
    assert captured.out.splitlines()[-1] == f"{suite}: FAIL"


def test_malformed_config_exits_2(tmp_path, capsys):
    # a file that is not JSON, and one that is not even UTF-8 text
    bad = tmp_path / "cfg.json"
    for content in (b"{not json", b"\xff\xfe{"):
        bad.write_bytes(content)
        code, captured = _main_in_process(["verify", "mass", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"group": "su2", "bogus": 1}))
    code, captured = _main_in_process(["verify", "mass", "--config", str(bad), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "bogus" in (captured.err + captured.out)


def test_invalid_group_exits_2(fresh):
    # `python -m gsb.cli` exits with main's 2 on bad input
    run = fresh["-m gsb.cli verify mass --group so3"]
    assert run.code == 2
    assert run.err.startswith("error: ") and run.err.count("\n") == 1
    assert not (run.cwd / "o").exists()


def test_symbol_report(tmp_path, capsys):
    out = tmp_path / "o"
    args = ["report", "symbol", "--group", "su2", "--t", "1", "--n", "1,2", "--fmt", "json", "--out", str(out)]
    code, captured = _main_in_process(args, capsys)
    assert code == 0, captured.err
    files = list(out.glob("*.json"))
    assert files
    rows = json.loads(files[0].read_text())
    assert any(int(row["degree"]) == 2 for row in rows)


def test_invert_roundtrip(tmp_path, capsys):
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
    args = ["invert", "--coeffs", str(tmp_path / "c.json"), "--points", str(tmp_path / "p.json"), "--group", "torus:1"]
    code, captured = _main_in_process([*args, "--t", "1", "--out", str(tmp_path / "o")], capsys)
    assert code == 0, captured.err
    csv = list((tmp_path / "o").glob("invert*")).pop().read_text()
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + len(pts)


def test_invert_empty_points(tmp_path, capsys):
    # an empty point list is bad input: no header-only report
    coeffs, pts = tmp_path / "c.json", tmp_path / "p.json"
    coeffs.write_text(json.dumps({"group": "su2", "entries": []}))
    pts.write_text("[]")
    args = ["invert", "--coeffs", str(coeffs), "--points", str(pts), "--group", "su2", "--t", "1", "--out", str(tmp_path / "o")]
    code, captured = _main_in_process(args, capsys)
    assert code == 2
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_invert_malformed_coeffs_exits_2(tmp_path, capsys):
    # a block with no matrix, a block holding NaN (JSON's NaN token), a cell
    # that is one number, not an [re, im] pair, and a cell holding a string:
    # one error line that names the file, the entry and what is wrong
    coeffs, pts = tmp_path / "c.json", tmp_path / "p.json"
    cases = [
        ({"label": 99}, "entry 1: no 'matrix'"),
        ({"label": 1, "matrix": [[[math.nan, 0.0]]]}, "entry 1: the matrix of label 1 is not finite"),
        ({"label": 1, "matrix": [[[1.0]]]}, "entry 1: the matrix of label 1 is not rows of [re, im] pairs of numbers"),
        ({"label": 1, "matrix": [[["1", 0.0]]]}, "entry 1: the matrix of label 1 is not rows of [re, im] pairs of numbers"),
    ]
    for entry, message in cases:
        coeffs.write_text(json.dumps({"group": "su2", "entries": [{"label": 2, "matrix": [[[1.0, 0.0]] * 2] * 2}, entry]}))
        pts.write_text("[[0.1, 0.2, 0.3]]")
        args = ["invert", "--coeffs", str(coeffs), "--points", str(pts), "--group", "su2", "--t", "1"]
        code, captured = _main_in_process([*args, "--out", str(tmp_path / "o")], capsys)
        assert code == 2, captured.err
        assert captured.err == f"error: coefficient file {str(coeffs)!r}, {message}\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "coeffs, points, message",
    [
        ("nope", "[[0.1]]", "coefficient file {c!r} is not JSON: Expecting value"),
        ('{"group": 3, "entries": []}', "[[0.1]]", "coefficient file {c!r} needs a 'group' string and an 'entries' list"),
        ('{"group": "torus:1", "entries": 5}', "[[0.1]]", "coefficient file {c!r} needs a 'group' string and an 'entries' list"),
        ('{"group": "torus:1", "entries": ["x"]}', "[[0.1]]", "coefficient file {c!r}, entry 0: not a JSON object"),
        ('{"group": "torus:1", "entries": []}', "nope", "point file {p!r} is not JSON: Expecting value"),
    ],
)
def test_invert_data_file_errors_name_the_file(tmp_path, capsys, coeffs, points, message):
    # a data file that is not JSON, or not of the documented shape, is one
    # error line that names it, never a traceback
    c, p = tmp_path / "c.json", tmp_path / "p.json"
    c.write_text(coeffs)
    p.write_text(points)
    code, captured = _main_in_process(["invert", "--coeffs", str(c), "--points", str(p), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert captured.err.startswith("error: " + message.format(c=str(c), p=str(p)))
    assert captured.err.count("\n") == 1 and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "group, points",
    [("torus:1", [[0.1, 0.2]]), ("torus:2", [[0.1], [0.2, 0.3]]), ("su2", [[0.1, 0.2]]), ("torus:1", [[math.nan]])],
)
def test_invert_malformed_points_exits_2(tmp_path, capsys, group, points):
    # a point with the wrong number of coordinates, or a non-finite one, is
    # bad input, not a traceback or a row of nan
    label = 1 if group == "su2" else [1] * int(group.split(":")[1])
    coeffs, pts = tmp_path / "c.json", tmp_path / "p.json"
    coeffs.write_text(json.dumps({"group": group, "entries": [{"label": label, "matrix": [[[1.0, 0.0]]]}]}))
    pts.write_text(json.dumps(points))
    args = ["invert", "--coeffs", str(coeffs), "--points", str(pts), "--group", group, "--out", str(tmp_path / "o")]
    code, captured = _main_in_process(args, capsys)
    assert code == 2
    assert captured.err.startswith(f"error: point file {str(pts)!r} must hold")
    assert not (tmp_path / "o").exists()


def test_su2_unitarity_high_irreps_tight_gaps(tmp_path, capsys):
    # irreps up to m = 16 at t = 2 peak far from t/2; each radial term is
    # integrated on a rule centred at its own peak, so every gap is tiny
    out = tmp_path / "o"
    args = ["verify", "unitarity", "--group", "su2", "--t", "2", "--cutoff", "16", "--out", str(out)]
    code, captured = _main_in_process(args, capsys)
    assert code == 0, captured.err
    assert "PASS" in captured.out
    with open(out / "verify_unitarity_su2_t2.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == sum(m * m for m in range(1, 17))
    assert all(row["pass"] == "1" and float(row["gap"]) <= 1e-10 for row in rows)


def test_kernel_tworoute_composes_each_point_once(tmp_path, capsys, monkeypatch):
    # the 15 queries of one (t, n) form one batch; the suite composes the
    # batch of g and the batch of h once into the elements g h^*, and both
    # routes use them as they are: 2 batches of 15 points
    import gsb.polar

    calls = []
    exp_iy_batch = gsb.polar.exp_iy_batch

    def counted(spec, ys):
        calls.append(len(ys))
        return exp_iy_batch(spec, ys)

    monkeypatch.setattr(gsb.polar, "exp_iy_batch", counted)
    args = ["verify", "kernel-tworoute", "--group", "su2", "--t", "1", "--n", "1", "--out", str(tmp_path / "o")]
    code, captured = _main_in_process(args, capsys)
    assert code == 0, captured.err
    assert 0 < len(calls) <= 2
    assert sum(calls) == 2 * 15


def _count_calls(monkeypatch, module, name):
    # wrap the function in every gsb module that bound it; returns the call log
    import gsb.cli  # noqa: F401  (registers every gsb module; the scan's getattr runs it)

    orig, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key == "gsb" or key.startswith("gsb.")]:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "suite, group, layer, most",
    [
        # one call per (n, form) and per (axis, side): 2 x 2 + 2 x 2
        ("toeplitz", "torus:2", "holo_inner", 8),
        ("unitarity", "torus:2", "holo_inner", 1),
        ("unitarity", "su2", "holo_inner", 1),
        ("reproducing", "torus:2", "reproduce_check", 1),
        ("reproducing", "su2", "reproduce_check", 1),
    ],
)
def test_kc_suites_batch_their_forms(tmp_path, capsys, monkeypatch, suite, group, layer, most):
    # each suite hands a K_C form the whole basis (every function at every
    # point for reproducing): calls per t stay fixed however large the basis is
    import gsb.kernels
    import gsb.transform

    module = gsb.kernels if layer == "reproduce_check" else gsb.transform
    calls = _count_calls(monkeypatch, module, layer)
    args = ["verify", suite, "--group", group, "--t", "0.5,1", "--n", "1,2", "--levels", "16,24", "--out", str(tmp_path / "o")]
    code, captured = _main_in_process(args, capsys)
    assert code in (0, 1), captured.err
    assert 2 <= len(calls) <= 2 * most


def _invert(tmp_path, capsys, labels, t, points, extra=()):
    """invert on torus:1 of sum_k c_k e_{n_k}, labels {n_k: c_k}, at one t:
    (exit code, captured output, report path)."""
    entries = [{"label": [n], "matrix": [[[c, 0.0]]]} for n, c in labels.items()]
    (tmp_path / "c.json").write_text(json.dumps({"group": "torus:1", "entries": entries}))
    (tmp_path / "p.json").write_text(json.dumps(points))
    head = ["invert", "--coeffs", str(tmp_path / "c.json"), "--points", str(tmp_path / "p.json"), "--t", str(t)]
    out = tmp_path / ("o" + "".join(extra))
    code, captured = _main_in_process([*head, *extra, "--out", str(out)], capsys)
    return code, captured, out / f"invert_torus-1_t{t}.csv"


def _invert_label_3_at_t4(tmp_path, capsys, points, extra=()):
    """invert of e_3 + 0.5 on torus:1 at t = 4: (exit code, stdout, report rows)."""
    code, captured, path = _invert(tmp_path, capsys, {3: 1.0, 0: 0.5}, 4, points, extra)
    with open(path, newline="") as fp:
        return code, captured.out, list(csv.DictReader(fp))


def _old_radii(monkeypatch):
    # the radii 7, 10 that the --radii default 4,7,10 ended on, whatever t
    import gsb.transform

    monkeypatch.setattr(gsb.transform, "inversion_radii", lambda spec, t, labels: (7.0, 10.0))


def test_invert_reads_the_configured_tolerance(tmp_path, capsys, monkeypatch):
    # at t = 4 the inversion integrand of label 3 peaks near |Y| = t|n| = 12,
    # past the radii 7, 10: the two values differ by more than the default
    # 1e-6, but by less than 0.5; the values are off by about 0.84, more than
    # 0.5 |f(x)|, so every point fails at either tolerance
    _old_radii(monkeypatch)
    stabilized = {}
    for extra in ([], ["--tolerance", "0.5"]):
        code, _, rows = _invert_label_3_at_t4(tmp_path, capsys, [[0.3], [1.1]], extra)
        assert code == 1
        assert [row["tol"] for row in rows] == [format(0.5 if extra else 1e-6, ".17g")] * 2
        assert [row["pass"] for row in rows] == ["0", "0"]
        stabilized[tuple(extra)] = [row["stabilized"] for row in rows]
    assert stabilized == {(): ["0", "0"], ("--tolerance", "0.5"): ["1", "1"]}


def test_invert_fails_unconverged_points_and_passes_at_larger_radii(tmp_path, capsys, monkeypatch):
    # the derived radii R = t|n| + sqrt(2t ln 2^52) = 28.98 and R + sqrt(2t)
    # take in the integrand's peak near |Y| = 12 and recover f to rounding;
    # the old radii 7, 10 miss it: the values are off by 0.84 (56 %) and not
    # stabilized, so the stability check still fails such a run
    code, out, rows = _invert_label_3_at_t4(tmp_path, capsys, [[0.3], [1.7]])
    assert code == 0 and out.splitlines()[-1] == "invert: PASS"
    assert [(row["stabilized"], row["pass"]) for row in rows] == [("1", "1")] * 2
    assert all(float(row["abs-err"]) <= 1e-13 and float(row["gap"]) <= 1e-6 for row in rows)
    _old_radii(monkeypatch)
    code, out, rows = _invert_label_3_at_t4(tmp_path, capsys, [[0.3], [1.7]])
    assert code == 1 and out.splitlines()[-1] == "invert: FAIL"
    assert [(row["stabilized"], row["pass"]) for row in rows] == [("0", "0")] * 2
    assert all(0.8 < float(row["abs-err"]) < 0.9 for row in rows)


@pytest.mark.parametrize("labels, t", [({1: 1.0}, 2), ({3: 1.0, 0: 0.5}, 4)])
def test_invert_passes_at_default_flags_where_fixed_radii_failed(tmp_path, capsys, labels, t):
    # the integrand of label n peaks near |Y| = t|n|; the radii follow it, so
    # e_1 at t = 2 and e_3 + 0.5 at t = 4 recover f to rounding
    code, captured, path = _invert(tmp_path, capsys, labels, t, [[0.3], [1.7], [4.0]])
    assert code == 0, captured.err
    assert captured.out.splitlines()[-1] == "invert: PASS"
    with open(path, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert [(row["stabilized"], row["pass"]) for row in rows] == [("1", "1")] * 3
    assert all(float(row["abs-err"]) <= 1e-13 for row in rows)


def test_invert_level_gap_is_a_fail_row_not_an_error(tmp_path, capsys):
    # at levels 4, 6 the inversion rule is far from converged at every
    # point: each row carries its gap and fails, the report is written, and
    # the run ends on the verdict line with exit 1, not on an error line
    code, captured, path = _invert(tmp_path, capsys, {3: 1.0, 0: 0.5}, 4, [[0.3], [1.7]], ["--levels", "4,6"])
    assert code == 1
    assert captured.out.splitlines()[-1] == "invert: FAIL"
    assert "error:" not in captured.err + captured.out
    with open(path, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 2
    assert all(float(row["gap"]) > 1e-6 and row["pass"] == "0" for row in rows)


def test_invert_keeps_a_label_damped_within_the_doubles(tmp_path, capsys):
    # e_40 at t = 0.85 (damping e^-680) is not refused; on rules fine enough
    # for its radii, 41.8 and 43.1, it is recovered
    code, captured, path = _invert(tmp_path, capsys, {40: 1.0}, 0.85, [[0.3]], ["--levels", "128,150"])
    assert code == 0, captured.err
    with open(path, newline="") as fp:
        (row,) = list(csv.DictReader(fp))
    assert float(row["abs-err"]) <= 1e-12


def test_invert_recovers_a_label_whose_damping_underflows(tmp_path, capsys):
    # e_40 at t = 1 is damped by e^-800, below the doubles, yet the damping
    # meets the rule's scale e^{t |n|^2 / 2} as the one exponent 0: at levels
    # fine enough for its radii, 48.5 and 49.9, it is recovered
    code, captured, path = _invert(tmp_path, capsys, {40: 1.0}, 1, [[0.3]], ["--levels", "128,150"])
    assert code == 0, captured.err
    with open(path, newline="") as fp:
        (row,) = list(csv.DictReader(fp))
    assert float(row["abs-err"]) <= 1e-12


@pytest.mark.parametrize("t", [0.85, 1])
def test_invert_levels_follow_the_gaussian_widths(tmp_path, capsys, t):
    # the rule of e_40 spans R'/sqrt(t) = 47 and 50 Gaussian widths, where
    # the default levels 64, 96 meet 12: its levels grow to 100, 150
    from gsb.groups import torus
    from gsb.transform import inversion_levels, inversion_radii

    radius = inversion_radii(torus(1), t, [(40,)])[1]
    assert inversion_levels(t, radius, (64, 96)) == (100, 150)
    code, captured, path = _invert(tmp_path, capsys, {40: 1.0}, t, [[0.3]])
    assert code == 0, captured.err
    with open(path, newline="") as fp:
        (row,) = list(csv.DictReader(fp))
    assert float(row["abs-err"]) <= 1e-12 and float(row["gap"]) <= 1e-6


def test_invert_levels_keep_the_configured_floor():
    # at most 12 widths the configured levels stand; past them they scale,
    # never beyond MAX_ORDER; levels that reach it stay as they are
    from gsb.transform import inversion_levels

    assert inversion_levels(1.0, 11.4, (64, 96)) == (64, 96)
    assert inversion_levels(4.0, 2 * 18.0, (4, 6)) == (6, 9)
    assert inversion_levels(0.01, 50.0, (16, 24, 32)) == (75, 113, 150)
    assert inversion_levels(0.01, 50.0, (128, 150)) == (128, 150)


def test_reproducing_forms_each_label_trace_once(tmp_path, capsys, monkeypatch):
    # reproduce_check takes f(g) and the label traces from one label_traces
    # pass: one representation batch per label of each of the 5 functions
    import gsb.groups

    calls = _count_calls(monkeypatch, gsb.groups, "rep_matrix_batch")
    for group in ("su2", "torus:2"):
        calls.clear()
        args = ["verify", "reproducing", "--group", group, "--levels", "16,24", "--out", str(tmp_path / "o")]
        code, captured = _main_in_process(args, capsys)
        assert code == 0, captured.err
        assert len(calls) == 5


def test_no_command_imports_numpy_random(fresh):
    # numpy.random (with secrets, hashlib and OpenSSL) adds about 6 MB to a
    # process; the sampled suites draw from the stdlib's random.Random
    from gsb.cli import REPORT_COLUMNS

    commands = [*(f"verify {suite}" for suite in VERIFY_SUITES), *(f"report {kind}" for kind in REPORT_COLUMNS)]
    commands.append("invert --coeffs c.json --points p.json")
    runs = {line: fresh[line] for line in (f"{command} --group {group}" for command in commands for group in ("torus:1", "su2"))}
    assert len(runs) == 24
    assert {command: (run.code, "numpy.random" in run.loaded) for command, run in runs.items()} == dict.fromkeys(runs, (0, False))


def test_pointwise_commands_stay_near_the_import_floor(fresh):
    # the smoothness grid is one character series, the sampled suites draw
    # without numpy.random and a chamber lattice sum is a product of 1-D
    # theta series, so no command holds more than a few MB beyond the
    # numerical core's import
    floor = fresh[""].peak_mb
    commands = {
        # the su2-pointwise benchmark workload's two largest commands (its
        # smoothness flags --cutoff 4 --t 1 --n 1,2 are the defaults)
        "smoothness": "report smoothness --group su2",
        "kernel-tworoute": "verify kernel-tworoute --group su2 --cutoff 4 --t 0.25,0.5,1,2 --n 1,2,3 --seed 0",
        "lattice": "report lattice --group torus:3",
        "bounds": "report bounds --group torus:3",
        # the spectral route sums |n|^2 shells, not the 9^4-label box
        "kernel-tworoute torus:4": "verify kernel-tworoute --group torus:4",
    }
    for name, command in commands.items():
        run = fresh[command]
        assert run.code == 0, (name, run.err)
        assert run.peak_mb <= floor + 5.0, f"{name}: {run.peak_mb:.1f} MB against an import floor of {floor:.1f} MB"


def test_basis_suites_stream_their_rows(fresh):
    # holo_inner takes each matrix entry as indices and a scale, and the
    # report takes the rows a block at a time, so the 88,560 rows of su2
    # cutoff 40 at four orders cost neither sum d^4 block entries nor a
    # held row each
    floor = fresh[""].peak_mb
    run = fresh["verify sobolev-isometry --group su2 --cutoff 40 --n 1,2,3,4"]
    assert run.code == 0, run.err
    with open(run.cwd / "o" / "verify_sobolev-isometry_su2_t1.csv", newline="") as fp:
        assert sum(1 for _ in fp) == 1 + 88_560
    assert run.peak_mb <= floor + 16.0, f"{run.peak_mb:.1f} MB against an import floor of {floor:.1f} MB"


def test_basis_suites_keep_no_radial_rule_past_its_t(fresh):
    # _profile_sum keeps each (level, m) sum, not the su2 radial rule behind
    # it, so four t values at cutoff 40 hold no more than one does
    floor = fresh[""].peak_mb
    run = fresh["verify unitarity --group su2 --cutoff 40 --t 0.5,1,2,4"]
    assert run.code == 0, run.err
    assert run.out.splitlines()[-1] == "unitarity: PASS"
    assert run.peak_mb <= floor + 16.0, f"{run.peak_mb:.1f} MB against an import floor of {floor:.1f} MB"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("group", ["su2", "torus:2"])
def test_basis_suites_write_the_bytes_of_one_block_in_many(tmp_path, capsys, monkeypatch, group, fmt):
    # blocks of 7 entries split su2 at cutoff 4 into labels 1-3 and 4, and
    # torus:2 into 12 blocks; every row, the ratio spread and the verdict
    # lines are those of the single block of the default BLOCK
    from gsb import suites

    calls, default = _count_calls(monkeypatch, suites, "holo_inner"), suites.BLOCK
    for suite in ("unitarity", "sobolev-isometry", "weighted-norm"):
        runs = []
        for block in (default, 7):
            monkeypatch.setattr(suites, "BLOCK", block)
            calls.clear()
            out = tmp_path / f"{suite}-{block}"
            args = ["verify", suite, "--group", group, "--t", "0.5,1", "--n", "1,2", "--fmt", fmt, "--out", str(out)]
            code, captured = _main_in_process(args, capsys)
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            runs.append(((code, captured.out.replace(str(out), "<out>"), captured.err, files), len(calls)))
        (one, calls_one), (many, calls_many) = runs
        assert sorted(many[3]) == [f"verify_{suite}_{group.replace(':', '-')}_t{t}.{fmt}" for t in ("0.5", "1")]
        assert many == one, suite
        assert calls_many > calls_one, suite


@pytest.mark.parametrize("existing", [False, True])
def test_a_run_that_fails_after_its_first_block_leaves_no_report(tmp_path, capsys, monkeypatch, existing):
    # the parts of every t are removed, and an --out made by the run with
    # them; one that existed keeps what it held
    from gsb import suites

    unitarity, tol = suites.SUITES["unitarity"]
    out, seen = tmp_path / "o", []

    def failing(cfg, t, tol, q):
        blocks = unitarity(cfg, t, tol, q)
        yield next(blocks)
        if t == 2.0:
            seen.extend(sorted(os.listdir(out)))
            raise FloatingPointError("overflow after the first block")
        yield from blocks

    monkeypatch.setitem(suites.SUITES, "unitarity", (failing, tol))
    monkeypatch.setattr(suites, "BLOCK", 7)
    if existing:
        out.mkdir()
        (out / "kept.csv").write_bytes(b"kept\n")
    code, captured = _main_in_process(["verify", "unitarity", "--group", "su2", "--t", "1,2", "--out", str(out)], capsys)
    assert code == 1
    assert captured.out == "" and captured.err == "error: FloatingPointError: overflow after the first block\n"
    assert seen == sorted(["kept.csv"] * existing + [f"verify_unitarity_su2_t{t}.csv.part" for t in (1, 2)])
    assert sorted(os.listdir(out)) == ["kept.csv"] if existing else not out.exists()


def test_report_smoothness_stays_small_at_large_cutoffs(fresh):
    # F is one character series per grid, so neither the 64 labels of su2
    # (the largest a 64 x 64 representation batch) nor the 17^4 of torus:4
    # at cutoff 8 is formed one by one
    for group, cutoff in (("su2", 64), ("torus:4", 8)):
        run = fresh[f"report smoothness --group {group} --cutoff {cutoff}"]
        assert run.code == 0, (group, run.err)
        assert run.peak_mb < 40.0, f"{group}: {run.peak_mb:.1f} MB"


def test_validate_takes_the_su2_basis_suites_at_the_largest_cutoff():
    # su2 cutoff 64 has 89,440 matrix entries, far inside the bound
    from gsb.config import BASIS_SUITES, RunConfig

    for suite in BASIS_SUITES:
        RunConfig(group="su2", cutoff=64).validate(suite)


def test_report_smoothness_fails_on_a_growth_functional_that_is_not_finite(tmp_path, capsys):
    # on torus:1 at cutoff 64 the traces of e_64 overflow at radius 12, and
    # G_n is nan there: the report is written, and the verdict is FAIL
    out = tmp_path / "o"
    code, captured = _main_in_process(["report", "smoothness", "--group", "torus:1", "--cutoff", "64", "--out", str(out)], capsys)
    assert code == 1
    assert "smoothness: FAIL" in captured.out
    with open(out / "report_smoothness_torus-1_t1.csv", newline="") as fp:
        values = [float(row["G_n"]) for row in csv.DictReader(fp)]
    assert any(math.isnan(v) for v in values) and any(math.isfinite(v) for v in values)


def test_kernel_tworoute_judges_laguerre_gap(tmp_path, capsys, monkeypatch):
    # with the Gamma route's levels forced to (3, 32) the finer level still
    # agrees with the spectral route, but the level gap is far above tol:
    # every row has rel-err <= tol < gap and must fail
    from gsb import kernels
    from gsb.quadrature import QuadSpec

    route = kernels.integrate_laguerre
    monkeypatch.setattr(kernels, "integrate_laguerre", lambda c, n, f, t, q=None: route(c, n, f, t, QuadSpec(levels=(3, 32))))
    out = tmp_path / "o"
    code, captured = _main_in_process(["verify", "kernel-tworoute", "--group", "torus:2", "--out", str(out)], capsys)
    assert code == 1
    assert "FAIL" in captured.out
    with open(out / "verify_kernel-tworoute_torus-2_t1.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 30
    for row in rows:
        assert row["pass"] == "0"
        assert float(row["rel-err"]) <= float(row["tol"]) < float(row["gap"])


_LABEL_3 = {"group": "torus:1", "entries": [{"label": [3], "matrix": [[[1.0, 0.0]]]}]}


def _coeffs(group, *labels):
    """A coefficient file of one 1 x 1 block per label, the labels as given."""
    return {"group": group, "entries": [{"label": label, "matrix": [[[1.0, 0.0]]]} for label in labels]}


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "mass", "--t", "nan"], "t values"),
        (["verify", "mass", "--t", "inf"], "t values"),
        (["verify", "unitarity", "--group", "su2", "--c", "nan"], "c must"),
        (["verify", "mass", "--c", "inf"], "c must"),
        # the radii follow from t and the labels: a config that sets them is refused
        (["invert", "--coeffs", "c.json", "--points", "p.json", "--config", {"radii": [4.0, 7.0, 10.0]}], "radii"),
        (["report", "lattice", "--tau", "1,inf"], "tau values"),
        (["verify", "mass", "--tolerance", "nan"], "tolerance"),
        (["verify", "reproducing", "--seed", "-1"], "seed"),
        # a basis suite with more than 2^20 matrix entries at one t (config.MAX_ENTRIES): 129^3, and 101^3 fit
        (["verify", "sobolev-isometry", "--group", "torus:3", "--cutoff", "64"], "largest allowed cutoff is 50"),
        (["verify", "unitarity", "--group", "torus:4", "--cutoff", "18"], "largest allowed cutoff is 15"),
        # 3^13 basis entries pass the bound even at cutoff 1
        (["verify", "unitarity", "--group", "torus:13", "--cutoff", "1"], "no cutoff fits on torus:13"),
        (["verify", "mass", "--t", "abc"], "--t expects a comma list of numbers"),
        (["verify", "mass", "--levels", "64,x"], "--levels expects a comma list of integers"),
        (["verify", "mass", "--config", {"seed": "1"}], "seed must be an integer"),
        (["verify", "mass", "--config", {"t": "1"}], "t must be a list of numbers"),
        (["verify", "mass", "--levels", "64,151"], "each in 2..150"),
        (["verify", "sobolev-isometry", "--n", "0"], "sobolev-isometry has no case to check at n = 0"),
        (["verify", "kernel-tworoute", "--t", "1,2", "--n", "0"], "kernel-tworoute has no case to check at n = 0"),
        (["report", "smoothness", "--config", {"n": []}], "n must not be empty"),
        # label 3 at t = 10 needs R' = 30 + 9.90 sqrt(10) = 61.3 > MAX_ABS_Y = 50
        (["invert", "--coeffs", _LABEL_3, "--points", [[0.3]], "--t", "10"], "largest t these labels allow is 7.578"),
        (["verify", "mass", "--fmt", "xml"], "format must be csv or json"),
        (["verify", "weighted-norm", "--group", "torus:8", "--cutoff", "3"], "largest allowed cutoff is 2"),
        # tau^2 underflows to 0 and overflows on torus:4: the range is 4 pi 2^-510 .. 2^510
        (["report", "lattice", "--group", "torus:4", "--tau", "1e-300"], "must lie in [3.74897e-153, 3.35195e+153]"),
        (["report", "lattice", "--group", "torus:4", "--tau", "1,1e300"], "must lie in [3.74897e-153, 3.35195e+153]"),
        # the Sobolev kernel needs c > |delta|^2 = 1/4 on SU(2)
        (["verify", "kernel-tworoute", "--group", "su2", "--c", "0.1"], "need c > |delta|^2"),
        # the Sobolev orders share the cutoff's bound
        (["report", "symbol", "--group", "su2", "--n", "65"], "n values must be in 0..64"),
        # 3^12 basis entries fit the bound, 5^12 do not
        (["verify", "sobolev-isometry", "--group", "torus:12", "--cutoff", "2"], "largest allowed cutoff is 1"),
        # an --out under a regular file (this module) can never be made
        (["verify", "mass", "--out", os.path.join(__file__, "o")], "which is not a directory"),
        # a data file that does not exist, given for either input of invert
        (["invert", "--coeffs", "missing/coeffs.json", "--points", [[0.3]]], "No such file or directory: 'missing/coeffs.json'"),
        (["invert", "--coeffs", _LABEL_3, "--points", "missing/points.json"], "No such file or directory: 'missing/points.json'"),
        (["verify", "mass", "--config", "missing/config.json"], "No such file or directory: 'missing/config.json'"),
        # (2 pi)^r, vol K, passes the double range past torus rank 386
        (["verify", "mass", "--group", "torus:400"], "torus rank must be in 1..386"),
        (["report", "lattice", "--group", "torus:387"], "torus rank must be in 1..386"),
        (["verify", "toeplitz", "--group", "torus:400", "--cutoff", "1"], "torus rank must be in 1..386"),
        # invert's labels: [1] and 1 are one label on torus:1, and a second block would replace the first
        (["invert", "--coeffs", _coeffs("torus:1", [1], 1), "--points", [[0.3]]], "two coefficient blocks have the label (1,)"),
        (["invert", "--coeffs", _coeffs("torus:1", [1, 2]), "--points", [[0.3]]], "label [1, 2] has 2 entries, and torus:1 needs 1"),
        (["invert", "--coeffs", _coeffs("torus:2", 1), "--points", [[0.3, 0.5]], "--group", "torus:2"], "label 1 has 1 entries"),
        (["invert", "--coeffs", _coeffs("su2", 2.5), "--points", [[0.3, 0.5, 0.7]], "--group", "su2"], "label 2.5 is not made of integers"),
        (["invert", "--coeffs", _coeffs("su2", 0), "--points", [[0.3, 0.5, 0.7]], "--group", "su2"], "label 0 is no SU(2) dimension"),
        (["invert", "--coeffs", _coeffs("su2", True), "--points", [[0.3, 0.5, 0.7]], "--group", "su2"], "label True is not made"),
    ],
)
def test_bad_input_exits_2_before_work(tmp_path, capsys, args, message):
    # a dict or list in args stands for a JSON file with that content
    files = {k: tmp_path / f"arg{k}.json" for k, arg in enumerate(args) if not isinstance(arg, str)}
    for k, path in files.items():
        path.write_text(json.dumps(args[k]))
    args = [str(files[k]) if k in files else arg for k, arg in enumerate(args)]
    out = tmp_path / "o"
    code, captured = _main_in_process(args if "--out" in args else [*args, "--out", str(out)], capsys)
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_only_report_lattice_checks_the_tau_range(tmp_path, capsys):
    # the default tau 256 lies past torus:300's range [0.113, 111]; report
    # lattice, tau's one reader, refuses it, and verify mass runs (its radial
    # weight r^(dim - 1) overflows from rank 257 at t = 1, so its row FAILs)
    code, captured = _main_in_process(["verify", "mass", "--group", "torus:300", "--out", str(tmp_path / "m")], capsys)
    assert code != 2 and "tau" not in captured.err
    assert (tmp_path / "m" / "verify_mass_torus-300_t1.csv").exists()
    code, captured = _main_in_process(["report", "lattice", "--group", "torus:300", "--out", str(tmp_path / "l")], capsys)
    assert code == 2
    assert "tau values must lie in [0.112773, 111.43] on torus:300" in captured.err
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("head", [["verify", "mass"], ["report", "lattice"]])
def test_out_naming_a_file_exits_2_before_work(tmp_path, capsys, monkeypatch, head):
    # an --out that exists but is no directory is refused before the rows are
    # formed, and the file is left as it was
    from gsb import cli, suites

    def refuse(*args):
        raise AssertionError("rows formed")

    monkeypatch.setitem(suites.SUITES, "mass", (refuse, 1e-6))
    monkeypatch.setattr(cli, "_report_rows", refuse)
    out = tmp_path / "o"
    out.write_bytes(b"kept\n")
    code, captured = _main_in_process([*head, "--out", str(out)], capsys)
    assert code == 2
    assert captured.err == f"error: out {str(out)!r} exists and is not a directory\n"
    assert captured.out == ""
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("group", ["torus:1", "su2"])
@pytest.mark.parametrize("head", [["report", "bounds"], ["report", "lattice"], ["verify", "weighted-norm"]])
def test_integers_in_a_config_file_write_the_bytes_of_float_flags(tmp_path, capsys, group, head):
    # JSON integers reach the rows as ints, and the columns that mix them with
    # floats (tau, and weighted-norm's rhs, which holds the tolerance) take
    # the one rule of float cells
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"t": [1, 2], "tau": [1, 4], "tolerance": 1}))
    runs = {
        "config": ["--config", str(config)],
        "flags": ["--t", "1.0,2.0", "--tau", "1.0,4.0", "--tolerance", "1.0"],
    }
    written = {}
    for name, extra in runs.items():
        code, captured = _main_in_process([*head, "--group", group, *extra, "--out", str(tmp_path / name)], capsys)
        assert captured.err == ""
        written[name] = (code, {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()})
    assert len(written["flags"][1]) == 2
    assert written["config"] == written["flags"]


@pytest.mark.parametrize("group", ["torus:2", "torus:3", "torus:4", "torus:8", "su2"])
def test_lattice_takes_every_tau_of_its_range(group):
    # at both ends of the accepted range every written value is a finite
    # double, and the next double outside it is refused
    from gsb import bounds
    from gsb.config import ConfigError, RunConfig, _tau_range

    spec = RunConfig(group=group).spec
    lo, hi = _tau_range(spec)
    ends = [tau for tau in (lo, hi) if 0 < tau < math.inf]
    for tau in ends + [1.0]:
        (row,) = bounds.lattice_limit_check(spec, [tau])
        assert all(math.isfinite(v) for v in row) and tau ** (spec.rank / 2) > 0
    for tau in (math.nextafter(lo, 0), math.nextafter(hi, math.inf)):
        if 0 < tau < math.inf:
            with pytest.raises(ConfigError, match="tau values must lie in"):
                RunConfig(group=group, tau=(tau,)).validate("lattice")
    assert len(ends) == (0 if spec.rank == 1 else 2)


def test_every_config_field_has_one_flag_and_one_parse_path(tmp_path, capsys):
    # each RunConfig field is a --flag of every command; a numeric value that
    # does not parse is one error line, not argparse's usage block
    from dataclasses import fields

    from gsb.cli import build_parser
    from gsb.config import RunConfig

    parser = build_parser()
    heads = (["verify", "mass"], ["report", "lattice"], ["invert", "--coeffs", "c.json", "--points", "p.json"])
    for field in fields(RunConfig):
        for head in heads:
            assert getattr(parser.parse_args([*head, f"--{field.name}", "v"]), field.name) == "v"
        if field.metadata["kind"] is str:
            continue
        out = tmp_path / "o"
        code, captured = _main_in_process(["verify", "mass", f"--{field.name}", "x", "--out", str(out)], capsys)
        assert code == 2
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: --{field.name} expects ")
        assert captured.err.strip().endswith("got 'x'")
        assert "usage:" not in captured.err + captured.out
        assert not out.exists()


def _readme_section(start, end):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text[text.index(start) : text.index(end, text.index(start))]


def test_readme_names_every_suite_and_flag():
    from dataclasses import fields

    import gsb
    from gsb.config import RunConfig

    suites = re.findall(r"`([a-z-]+)`", _readme_section("Suites:", "Report kinds:"))
    assert suites == list(VERIFY_SUITES)
    flags = re.findall(r"`--([a-z]+)", _readme_section("Common flags", "\n\n"))
    assert sorted(flags) == sorted([f.name for f in fields(RunConfig)] + ["config"])
    exports = re.findall(r"`(\w+)`", _readme_section("exports `", ";"))
    assert sorted(exports) == sorted(gsb.__all__)


@pytest.mark.parametrize("group", ["su2", "torus:2"])
def test_verify_mass_reads_nu_t(tmp_path, capsys, monkeypatch, group):
    # the mass suite integrates the closed form of nu_t, so a density off by
    # a factor 1 + 1e-5 must fail it
    import gsb.heat

    exact = gsb.heat.log_nu_t
    monkeypatch.setattr(gsb.heat, "log_nu_t", lambda spec, t, y: exact(spec, t, y) + math.log1p(1e-5))
    code, captured = _main_in_process(["verify", "mass", "--group", group, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "mass: FAIL" in captured.out


@pytest.mark.parametrize("group", ["su2", "torus:2"])
def test_verify_mass_sees_every_coordinate(tmp_path, capsys, monkeypatch, group):
    # the radial nodes have every coordinate nonzero, so a density that
    # ignores the last coordinate must fail the suite
    import gsb.heat

    exact = gsb.heat.log_nu_t
    monkeypatch.setattr(gsb.heat, "log_nu_t", lambda spec, t, y: exact(spec, t, y * (np.arange(y.shape[1]) + 1 < y.shape[1])))
    code, captured = _main_in_process(["verify", "mass", "--group", group, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "mass: FAIL" in captured.out


def test_symbols_need_no_sympy(fresh):
    for command in ("report symbol --group su2", "verify toeplitz --group su2 --cutoff 1"):
        run = fresh[command]
        assert run.code == 0, (command, run.err)
        assert "sympy" not in run.loaded, command


@pytest.mark.parametrize("group", ["torus:3", "su2", "torus:1", "torus:8"])
def test_mass_evaluates_density_once_per_level(tmp_path, capsys, monkeypatch, group):
    # the mass suite hands log_nu_t the whole radial node batch of a level at
    # once, whatever the rank
    import gsb.heat

    exact, calls = gsb.heat.log_nu_t, []
    monkeypatch.setattr(gsb.heat, "log_nu_t", lambda spec, t, y: calls.append(len(y)) or exact(spec, t, y))
    code, captured = _main_in_process(["verify", "mass", "--group", group, "--levels", "16,24", "--out", str(tmp_path)], capsys)
    assert code in (0, 1), captured.err
    assert calls == [16, 24]


def test_commands_need_no_scipy(fresh):
    commands = [
        "verify reproducing --group su2 --cutoff 2 --levels 16,24",
        "verify unitarity --group torus:2 --cutoff 2",
        "report lattice --group su2",
        "report bounds --group su2",
        "invert --coeffs c.json --points p.json --group torus:1",
    ]
    for command in commands:
        run = fresh[command]
        assert run.code == 0, (command, run.err)
        assert "scipy" not in run.loaded, command


def test_torus_unitarity_builds_no_tensor_rule(tmp_path, capsys, monkeypatch):
    # every torus K_C integral runs on the shifted per-label rule, so the
    # L^r tensor rule (kept as the tests' oracle) is never built
    import gsb.quadrature

    calls = []
    build = gsb.quadrature._kspace_rule_cached
    monkeypatch.setattr(gsb.quadrature, "_kspace_rule_cached", lambda *key: calls.append(key) or build(*key))
    args = ["verify", "unitarity", "--group", "torus:3", "--cutoff", "1", "--out", str(tmp_path)]
    code, captured = _main_in_process(args, capsys)
    assert code == 0, captured.err
    assert calls == []


def test_verify_mass_torus4_passes_at_default_flags(tmp_path, capsys):
    # the radial rule has level nodes on every group, so torus:4 runs at the
    # default levels 64,96 and integrates nu_t / Phi^2 to vol K
    out = tmp_path / "o"
    code, captured = _main_in_process(["verify", "mass", "--group", "torus:4", "--t", "0.25,1,4", "--out", str(out)], capsys)
    assert code == 0, captured.err
    assert "mass: PASS" in captured.out
    for t in ("0.25", "1", "4"):
        with open(out / f"verify_mass_torus-4_t{t}.csv", newline="") as fp:
            (row,) = list(csv.DictReader(fp))
        assert row["pass"] == "1"
        assert float(row["rel-err"]) <= 1e-13 and float(row["gap"]) <= 1e-13
        assert float(row["rhs"]) == pytest.approx((2 * math.pi) ** 4, rel=1e-15)


@pytest.mark.parametrize("group", ["torus:20", "torus:60", "torus:100", "torus:200"])
def test_verify_mass_passes_on_wide_tori(tmp_path, capsys, group):
    # |Y|^2 ~ (t/2) chi^2_r under nu_t: the radius grows with the rank, so
    # no mass is cut off (a radius of 8 sqrt(t) loses 3.1e-2 of it on torus:100)
    out = tmp_path / "o"
    code, captured = _main_in_process(["verify", "mass", "--group", group, "--t", "0.5,1,2", "--out", str(out)], capsys)
    assert code == 0, captured.err
    for path in out.iterdir():
        with open(path, newline="") as fp:
            (row,) = list(csv.DictReader(fp))
        assert float(row["rel-err"]) <= 1e-13 and float(row["gap"]) <= 1e-13, (path.name, row)


def test_report_names_use_shortest_form_of_t(tmp_path, capsys):
    # file names carry the shortest round-trip form of t; values keep 17 digits
    out = tmp_path / "o"
    code, captured = _main_in_process(["verify", "mass", "--t", "0.05,1,0.25,2", "--out", str(out)], capsys)
    assert code == 0, captured.err
    names = sorted(path.name for path in out.iterdir())
    assert names == [f"verify_mass_torus-1_t{t}.csv" for t in ("0.05", "0.25", "1", "2")]
    with open(out / "verify_mass_torus-1_t0.05.csv", newline="") as fp:
        (row,) = list(csv.DictReader(fp))
    assert row["tol"] == "9.9999999999999995e-07"


def test_report_and_invert_write_one_file_per_t(tmp_path, capsys):
    # report and invert read every --t, as verify does, name each file by it,
    # and end on one verdict over every t: the inversion radii follow t, so
    # the point passes at t = 1 and at t = 2
    coeffs, pts = tmp_path / "c.json", tmp_path / "p.json"
    coeffs.write_text(json.dumps({"group": "torus:1", "entries": [{"label": [1], "matrix": [[[1.0, 0.0]]]}]}))
    pts.write_text(json.dumps([[0.3]]))
    invert = ["invert", "--coeffs", str(coeffs), "--points", str(pts)]
    for head, stem, verdict in ((["report", "smoothness"], "report_smoothness", "smoothness: PASS"), (invert, "invert", "invert: PASS")):
        out = tmp_path / stem
        code, captured = _main_in_process([*head, "--t", "1,2", "--out", str(out)], capsys)
        assert code == (0 if verdict.endswith("PASS") else 1), captured.err
        paths = [out / f"{stem}_torus-1_t{t}.csv" for t in ("1", "2")]
        assert sorted(out.iterdir()) == paths
        assert captured.out == "".join(f"wrote {path}\n" for path in paths) + verdict + "\n"
        assert paths[0].read_bytes() != paths[1].read_bytes()


def test_report_bounds_alpha_underflow_exits_1_without_traceback(fresh):
    # t^2 underflows to 0 at t = 1e-300 on torus:4, so alpha_t is no finite
    # double: `python -m gsb.cli` prints one error line naming t, exits 1
    # and writes no report
    run = fresh["-m gsb.cli report bounds --group torus:4 --t 1e-300"]
    assert run.code == 1
    assert "Traceback" not in run.err
    assert run.err.startswith("error: FloatingPointError: ") and run.err.count("\n") == 1
    assert "t = 1e-300" in run.err
    assert not (run.cwd / "o").exists()


@pytest.mark.parametrize("group", ["su2", "torus:2"])
def test_report_bounds_numeric_failure_exits_1_without_traceback(tmp_path, capsys, group):
    # at t = 0.01 the heat series at the grid's largest |Y| leaves the double
    # range (or no cutoff bounds its tail): one error line, exit 1
    code, captured = _main_in_process(["report", "bounds", "--group", group, "--t", "0.01", "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if line] == [captured.err.strip()]
    assert captured.err.startswith("error: ")
    # the line names the series, its cutoff, the smallest t (the kernel of
    # tau = t is rho_{2 tau}) and the largest |Y| (2 x the grid radius 4)
    line = captured.err.strip()
    assert "heat series" in line
    assert re.search(r"cutoff \d+", line), line
    assert "smallest t 0.02" in line
    assert "largest |Y| 8" in line


def test_report_bounds_writes_report_then_fails_on_failed_check(tmp_path, capsys, monkeypatch):
    # the check fails at t = 2 only: both reports are written, the run fails
    import gsb.bounds

    monkeypatch.setattr(gsb.bounds, "kernel_bound_check", lambda spec, t: [(t, 2.0 if t == 2 else 0.5, 1.0, t != 2)])
    out = tmp_path / "o"
    code, captured = _main_in_process(["report", "bounds", "--t", "1,2", "--out", str(out)], capsys)
    assert code == 1
    assert captured.out.splitlines()[-1] == "bounds: FAIL"
    for t, ratio, passed in (("1", 0.5, "1"), ("2", 2.0, "0")):
        with open(out / f"report_bounds_torus-1_t{t}.csv", newline="") as fp:
            (row,) = list(csv.DictReader(fp))
        assert float(row["max-ratio"]) == ratio and row["pass"] == passed


def test_report_bounds_passing_run_prints_pass_verdict(tmp_path, capsys):
    out = tmp_path / "o"
    code, captured = _main_in_process(["report", "bounds", "--out", str(out)], capsys)
    assert code == 0, captured.err
    assert captured.out == f"wrote {out / 'report_bounds_torus-1_t1.csv'}\nbounds: PASS\n"


def test_report_bounds_forms_alpha_once_per_t(tmp_path, capsys, monkeypatch):
    # alpha_t is the lattice sum at tau = t, formed once for the report's
    # three rows; the nine-point scan, formed twice, made 18 calls
    from gsb import bounds

    calls = []
    lattice_sum = bounds.lattice_sum
    monkeypatch.setattr(bounds, "lattice_sum", lambda spec, tau: calls.append(tau) or lattice_sum(spec, tau))
    code, captured = _main_in_process(["report", "bounds", "--t", "1", "--out", str(tmp_path / "o")], capsys)
    assert code == 0, captured.err
    assert calls == [1.0]

"""Check every value a gsb command writes against bench/reference.py.

An operation is one report row.  It fails if the program marks it failed,
if a reference check rejects it, or if the command's exit code is not the
one its rows call for (0, or 1 for a verify suite with a failed row).
Where no closed form is at hand the row must show a property the method
must have: two routes that agree within the row's tolerance with a
measured quadrature gap below it, residuals under tolerance, bound ratios
<= 1 + slack, and stable growth functionals for finitely supported input.
"""

from __future__ import annotations

import ast
import csv
import json
import re
from fractions import Fraction

from reference import (
    Group,
    alpha_t,
    chamber_gaussian_limit,
    chamber_lattice_sum,
    character_sum_growth,
    coefficient_scale,
    digits,
    entry_norm,
    evaluate_coefficients,
    positivity_threshold,
    sobolev_entry_norm,
    su2_weighted_norm,
    symbol_coefficients,
    torus_weighted_norm,
)

# The CLI's default quadrature tolerances, which bound the error of values
# whose row carries no tolerance of its own (weighted-norm lhs).
QUAD_TOL = {"torus": 1e-8, "su2": 1e-4}
EXACT = 1e-12  # values the program computes in closed form
BOUND_SLACK = 0.05  # kernel_bound_check's documented slack


class Op:
    """One checked row: ok, and the correct digits of each value checked."""

    __slots__ = ("ok", "digits")

    def __init__(self):
        self.ok = True
        self.digits = []

    def close(self, value, ref, tol, scale=None):
        """|value - ref| <= tol * scale (scale defaults to |ref|)."""
        scale = abs(ref) if scale is None else scale
        err = abs(value - ref)
        self.digits.append(digits(err, scale))
        self.require(err <= tol * scale)

    def require(self, cond):
        if not cond:
            self.ok = False


def _rows(path):
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


def _num(text):
    return complex(text) if text.endswith("j") else float(text)


def _entry(cid):
    """'3[0,2]' or '(1, -2)[0,0]' -> (label, i, j)."""
    m = re.fullmatch(r"(.+)\[(\d+),(\d+)\]", cid)
    return ast.literal_eval(m.group(1)), int(m.group(2)), int(m.group(3))


def _threshold(group, t, n):
    return positivity_threshold(group, Fraction(t), n)


def check_verify(cmd, path, rows):
    group = Group(cmd.group)
    suite = cmd.what
    t = float(re.search(r"_t([^_]+)\.csv$", path).group(1))
    ops = []
    ratios = []  # weighted-norm: reference lhs/rhs per basis row
    for row in rows:
        op = Op()
        cid = row["case-id"]
        lhs, rhs = _num(row["lhs"]), _num(row["rhs"])
        tol, gap = float(row["tol"]), float(row["gap"])
        op.require(row["pass"] == "1")
        if suite == "unitarity":
            ref = entry_norm(group, _entry(cid)[0])
            op.close(lhs, ref, tol)
            op.close(rhs, ref, EXACT)
            op.require(gap <= tol)
        elif suite == "mass":
            op.close(lhs, group.volume, tol)
            op.require(gap <= tol)
        elif suite == "reproducing":
            op.digits.append(digits(lhs, 1.0))
            op.require(0 <= lhs <= tol)
        elif suite == "sobolev-isometry":
            order, rest = cid.split(":", 1)
            n = int(order[2:])
            if rest == "commutation":
                op.require(lhs == 1.0)
            else:
                ref = sobolev_entry_norm(group, _entry(rest)[0], n, _threshold(group, t, n))
                op.close(lhs, ref, tol)
                op.close(rhs, ref, EXACT)
        elif suite == "kernel-tworoute":
            err = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            op.digits.append(digits(err, 1.0))
            op.require(err <= tol and gap <= tol)
        elif suite == "toeplitz":
            _check_toeplitz(op, group, t, cid, lhs, rhs, tol, gap)
        elif suite == "weighted-norm":
            _check_weighted(op, group, t, cid, lhs, rhs, float(row["rel-err"]), tol, ratios)
        else:
            raise ValueError(f"no check for suite {suite!r}")
        ops.append(op)
    return ops


def _check_toeplitz(op, group, t, cid, lhs, rhs, tol, gap):
    head, pair = cid.split(":", 1)
    first, second = re.fullmatch(r"<(.+?\]),(.+\])>", pair).groups()
    (l1, i1, j1), (l2, i2, j2) = _entry(first), _entry(second)
    norms = entry_norm(group, l1) * entry_norm(group, l2)
    if head.startswith("n="):
        n = int(head[2:])
        shift = _threshold(group, t, n) + group.eigenvalue(l2)
        if (l1, i1, j1) == (l2, i2, j2):
            ref = float(shift**n) * entry_norm(group, l1) ** 2
            op.close(lhs, ref, tol)
            op.close(rhs, ref, tol)
            op.require(gap <= tol)
            return
        scale = float(shift**n) * norms
    else:
        # <F, X_k F> = (vol/m) <dpi(E_k)>_jj: i(m-1-2j)/2 for E_3 on SU(2),
        # i k_k on tori; zero for the other SU(2) directions
        k = int(head[1:])
        if group.kind == "su2":
            ref = entry_norm(group, l1) ** 2 * abs(l1 - 1 - 2 * j1) / 2.0 if k == 2 else 0.0
        else:
            ref = group.volume * abs(l1[k])
        if ref:
            op.close(lhs, ref, tol)
            op.close(rhs, ref, tol)
            return
        scale = norms
    # the form vanishes: both sides must be rounding noise at the natural
    # size of the form, the zero floor the suite itself uses
    op.close(lhs, 0.0, tol * 1e-6, scale)
    op.close(rhs, 0.0, tol * 1e-6, scale)


def _check_weighted(op, group, t, cid, lhs, rhs, ratio, tol, ratios):
    order, rest = cid.split(":", 1)
    n = int(order[2:])
    c = _threshold(group, t, n)
    qtol = QUAD_TOL[group.kind]
    if rest == "ratio-spread":
        ref = max(ratios) / min(ratios)
        op.close(lhs, ref, qtol)
        op.require(lhs <= tol)
        return
    label = _entry(rest)[0]
    if group.kind == "su2":
        ref = su2_weighted_norm(t, label, n)
    else:
        ref = torus_weighted_norm(group, Fraction(t), label, n)
    ref_rhs = sobolev_entry_norm(group, label, 2 * n, c)
    op.close(lhs, ref, qtol)
    op.close(rhs, ref_rhs, EXACT)
    op.close(ratio, ref / ref_rhs, qtol)
    ratios.append(ref / ref_rhs)


def check_report(cmd, path, rows):
    group = Group(cmd.group)
    t = cmd.values("t")[0]
    kind = cmd.what
    ops = []
    for row in rows:
        op = Op()
        if kind == "symbol":
            n, power = int(row["n"]), int(row["power-of-u"])
            exact = symbol_coefficients(group, n, Fraction(t), _threshold(group, t, n))
            size = float(max(abs(x) for x in exact))
            op.require(int(row["degree"]) == n)
            op.close(float(row["coefficient"]), float(exact[power]), EXACT, size)
        elif kind == "lattice":
            tau = float(row["tau"])
            scaled = chamber_lattice_sum(group, tau) / tau ** (group.rank / 2.0)
            target = chamber_gaussian_limit(group)
            op.close(float(row["scaled-sum"]), scaled, EXACT)
            op.close(float(row["target"]), target, EXACT)
            gap = abs(scaled - target) / target
            op.require(abs(float(row["rel-gap"]) - gap) <= EXACT * max(1.0, scaled / target))
        elif kind == "bounds":
            op.close(float(row["alpha_t"]), alpha_t(group, t), EXACT)
            op.require(0.0 < float(row["max-ratio"]) <= 1.0 + BOUND_SLACK)
            op.require(row["chamber"] == ("full-lattice" if group.kind == "torus" else "halfline"))
        elif kind == "smoothness":
            cutoff = cmd.values("cutoff", int)[0]
            ref = character_sum_growth(group, t, cutoff, int(row["n"]), float(row["radius"]))
            op.close(float(row["G_n"]), ref, 1e-9)
            op.require(row["stable"] == "1")
        else:
            raise ValueError(f"no check for report {kind!r}")
        ops.append(op)
    if kind == "smoothness":
        n_max = max(cmd.values("n", int))
        if len(rows) != 2 * (n_max + 1):
            ops.append(_failed())
    return ops


def check_invert(cmd, path, rows):
    group = Group(cmd.group)
    with open(cmd.flags["coeffs"]) as fp:
        entries = json.load(fp)["entries"]
    with open(cmd.flags["points"]) as fp:
        points = json.load(fp)
    scale = coefficient_scale(group, entries)
    ops = []
    for k, point in enumerate(points):
        op = Op()
        row = rows[k] if k < len(rows) else None
        if row is None or row["point"] != f"p{k}":
            op.require(False)
        else:
            ref = evaluate_coefficients(group, entries, point)
            value = complex(float(row["value-re"]), float(row["value-im"]))
            exact = complex(float(row["exact-re"]), float(row["exact-im"]))
            op.close(value, ref, 1e-6, scale)  # the inversion tolerance of the CLI
            op.close(exact, ref, EXACT, scale)
            op.require(row["stabilized"] == "1")
        ops.append(op)
    return ops


def _failed():
    op = Op()
    op.ok = False
    return op


def check_command(cmd, returncode, stdout):
    """(ops, whole) for one finished command, from the reports its stdout
    names; whole is False when the command left no readable report."""
    paths = [line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote ")]
    expect_files = len(cmd.values("t")) if cmd.verb == "verify" else 1
    if len(paths) != expect_files:
        return [_failed()], False
    ops = []
    any_marked = False
    try:
        for path in paths:
            rows = _rows(path)
            if cmd.verb == "verify":
                any_marked = any_marked or any(row["pass"] != "1" for row in rows)
                ops += check_verify(cmd, path, rows)
            elif cmd.verb == "report":
                ops += check_report(cmd, path, rows)
            else:
                ops += check_invert(cmd, path, rows)
    except (OSError, KeyError, ValueError, AttributeError, IndexError, ZeroDivisionError):
        return [_failed()], False
    if not ops:
        return [_failed()], False
    if returncode != (1 if any_marked else 0):
        for op in ops:
            op.ok = False
    return ops, True

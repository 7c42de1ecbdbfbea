"""Command-line driver: verification suites, diagnostic reports, inversion.

Exit codes: 0 all checks passed, 1 numeric failure, 2 usage/config error.
Reports are CSV or JSON with locale-independent 17-significant-digit
numbers, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import random
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bounds, heat, kernels, sobolev
from .coeffs import CoefVec, basis_entry
from .groups import (
    GroupSpec,
    enumerate_irreps,
    irrep_dim,
    parse_group,
    random_algebra,
    random_k,
    su2_euler,
)
from .polar import log_phi, polar_compose
from .quadrature import MAX_ORDER, QuadSpec, integrate_levels, rel_gap, roots_legendre
from .transform import ct_forward, ct_inverse_integral, holo_inner, inversion_levels, inversion_radii

REPORT_COLUMNS = {
    "bounds": ["tau", "max-ratio", "alpha_t", "chamber", "pass"],
    "smoothness": ["n", "radius", "G_n", "stable"],
    "lattice": ["tau", "scaled-sum", "target", "rel-gap"],
    "symbol": ["n", "degree", "power-of-u", "coefficient"],
}

VERIFY_COLUMNS = ["case-id", "lhs", "rhs", "rel-err", "tol", "pass", "gap"]

MEMORY_BUDGET = 1 << 30  # bytes: the largest peak RSS estimate (peak_estimate) that validate accepts
# basis suite -> bytes per row (matrix entry), fitted to peak RSS on su2 and torus:3-4
BASIS_COST = {"unitarity": 900, "weighted-norm": 1000, "sobolev-isometry": 1350}
SMOOTHNESS_LABEL_COST = 1000  # bytes per label of report smoothness besides its traces, fitted to peak RSS on torus:2-4


class ConfigError(ValueError):
    pass


_TYPE_NAMES = {str: ("a string", "strings"), int: ("an integer", "integers"), float: ("a number", "numbers")}


def _has_type(value, kind) -> bool:
    if kind is str:
        return isinstance(value, str)
    base = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, base) and not isinstance(value, bool)


def _flag(default, kind, help: str):
    """A RunConfig field and its --flag: kind is the element type (of each
    entry, when the default is a tuple and the flag a comma list)."""
    return field(default=default, metadata={"kind": kind, "help": help})


@dataclass(frozen=True)
class RunConfig:
    group: str = _flag("torus:1", str, "torus:r or su2")
    t: tuple = _flag((1.0,), float, "comma list of times")
    n: tuple = _flag((1, 2), int, "comma list of Sobolev orders, each in 0..64")
    c: float | None = _flag(None, float, "spectral shift (default: positivity threshold; kernel-tworoute: |delta|^2+1)")
    cutoff: int = _flag(4, int, "irrep label cutoff (max 64)")
    levels: tuple = _flag(
        (64, 96), int, "comma list of quadrature levels of the K_C forms and mass, and the floor of invert's (kernel-tworoute's Gamma route: 48,64)"
    )
    tau: tuple = _flag((1.0, 4.0, 16.0, 64.0, 256.0), float, "comma list of lattice scales")
    tolerance: float | None = _flag(None, float, "override the suite or invert tolerance")
    seed: int = _flag(0, int, "RNG seed for sampled cases")
    out: str = _flag("reports", str, "output directory (default: reports)")
    fmt: str = _flag("csv", str, "report format: csv or json")

    def validate(self, command: str | None = None) -> "RunConfig":
        """Check every field; command (a suite or report kind) adds its memory bound."""
        for f in fields(self):
            value, kind = getattr(self, f.name), f.metadata["kind"]
            if value is None and f.default is None:
                continue
            if isinstance(f.default, tuple):
                if not isinstance(value, tuple) or not all(_has_type(v, kind) for v in value):
                    raise ConfigError(f"{f.name} must be a list of {_TYPE_NAMES[kind][1]}")
                if not value:
                    raise ConfigError(f"{f.name} must not be empty")
            elif not _has_type(value, kind):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[kind][0]}")
        # written so that nan fails every comparison and is rejected
        try:
            spec = self.spec
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not all(0 < t < math.inf for t in self.t):
            raise ConfigError("t values must be positive and finite")
        if not (1 <= self.cutoff <= 64):
            raise ConfigError("cutoff must be in 1..64")
        if not all(0 <= n <= 64 for n in self.n):
            raise ConfigError("n values must be in 0..64")
        if not all(0 < tau < math.inf for tau in self.tau):
            raise ConfigError("tau values must be positive and finite")
        lo, hi = _tau_range(spec)
        if not all(lo <= tau <= hi for tau in self.tau):
            raise ConfigError(
                f"tau values must lie in [{lo:.6g}, {hi:.6g}] on {self.group}, "
                "where tau^(r/2) and the scaled lattice sum are finite doubles"
            )
        if len(self.levels) < 2 or not all(2 <= lv <= MAX_ORDER for lv in self.levels):
            raise ConfigError(f"need at least two quadrature levels, each in 2..{MAX_ORDER}")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ConfigError("c must be positive and finite")
        if self.tolerance is not None and not 0 < self.tolerance < math.inf:
            raise ConfigError("tolerance must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        need = peak_estimate(spec, command, self.cutoff)
        if need > MEMORY_BUDGET:
            fits = [k for k in range(1, self.cutoff) if peak_estimate(spec, command, k) <= MEMORY_BUDGET]
            largest = f"the largest allowed cutoff is {fits[-1]}" if fits else f"no cutoff fits on {self.group}"
            raise ConfigError(f"{command} at cutoff {self.cutoff} needs about {need / 2**30:.3g} GB, over {MEMORY_BUDGET / 2**30:g} GB; {largest}")
        return self

    @property
    def spec(self) -> GroupSpec:
        return parse_group(self.group)

    def quad(self) -> QuadSpec:
        return QuadSpec(levels=tuple(self.levels))

    def tol(self, default: float) -> float:
        """The configured tolerance, else the command's default."""
        return default if self.tolerance is None else self.tolerance

    def c_value(self, spec: GroupSpec, t: float, n: int) -> float:
        """Configured c, or the positivity threshold of phi_max(n, 1)."""
        return self.c if self.c is not None else sobolev.symbol_positivity_threshold(spec, t, max(n, 1))


def basis_cost(spec: GroupSpec, suite: str, cutoff: int) -> tuple:
    """(rows, bytes) of a basis suite: sum d^2 matrix entries, and a peak RSS
    of the 31 MB import floor and the suite's cost per row."""
    rows = (2 * cutoff + 1) ** spec.rank if spec.kind == "torus" else sum(m**2 for m in range(1, cutoff + 1))
    return rows, (31 << 20) + BASIS_COST[suite] * rows


def smoothness_cost(spec: GroupSpec, cutoff: int) -> tuple:
    """(labels, bytes) of report smoothness: the labels up to the cutoff, and
    a peak RSS of the 31 MB import floor, a per-label cost, two complex
    traces of each label (f's and C_t f's) on one block of the growth
    functional's grid, and the largest label's representation batch on it
    (d x d entries a point, 24 B an entry: fitted to su2 at cutoffs 32, 64)."""
    labels = (2 * cutoff + 1) ** spec.rank if spec.kind == "torus" else cutoff
    d = 1 if spec.kind == "torus" else cutoff
    block = min(len(bounds.polar_grid(spec, bounds.GRID_RADIUS)), bounds.GRID_BLOCK)
    return labels, (31 << 20) + labels * (SMOOTHNESS_LABEL_COST + 2 * 16 * block) + 24 * block * d * d


def peak_estimate(spec: GroupSpec, command: str | None, cutoff: int) -> int:
    """Estimated peak RSS in bytes of a command (a suite or report kind) at a
    cutoff: basis_cost, smoothness_cost, or 0 where the cutoff sets no large array."""
    if command in BASIS_COST:
        return basis_cost(spec, command, cutoff)[1]
    if command == "smoothness":
        return smoothness_cost(spec, cutoff)[1]
    return 0


def _tau_range(spec: GroupSpec) -> tuple:
    """(lo, hi) = ((step^2/pi) 2^-s, 2^s), s = 2040/r for rank r: the lattice
    scales tau that report lattice takes (hi is inf, and lo 0, when 2^s
    passes the double range, as on rank 1).

    bounds.lattice_limit_check writes tau^{r/2}, the scaled sum h theta^r /
    tau^{r/2} (h <= 1, theta = sum_k e^{-(step k)^2/tau}) and its gap to the
    target h (pi/step^2)^{r/2} < 1, which is at most the ratio R = theta^r
    (step^2/(pi tau))^{r/2} plus 1.  theta grows with tau, theta/sqrt(tau)
    falls (Jacobi), and theta(1) <= 1 + 3 e^{-4 pi^2} (step >= 2 pi), so c =
    theta(1)^r < 2 for every rank below 10^16.

    For lo <= tau <= 1: tau^{r/2} >= 2^-1020 (step^2/pi > 1), a normal
    double; theta^r <= c; the scaled sum, R times the target, is below R <=
    c 2^1020.  For 1 <= tau <= hi: tau^{r/2} <= 2^1020; theta^r <= c
    tau^{r/2}; the scaled sum <= c; R <= c (step^2/pi)^{r/2} < c step^r,
    finite, as are the target's own pi^{r/2} and step^r, while r log2(step)
    < 1024 (torus ranks up to 386).  So every value is a finite double, with
    two binades to spare for rounding, and tau^{r/2} is not 0.
    """
    span = 2040.0 / spec.rank
    return spec.lattice_step**2 / math.pi * 2.0**-span, (2.0**span if span < 1024 else math.inf)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fp:
            data = json.load(fp)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **{key: tuple(v) if isinstance(v, list) else v for key, v in data.items()})
    overrides = {}
    for f in fields(RunConfig):
        raw, kind = getattr(args, f.name), f.metadata["kind"]
        if raw is None:
            continue
        is_list = isinstance(f.default, tuple)
        try:
            overrides[f.name] = tuple(kind(part) for part in raw.split(",")) if is_list else kind(raw)
        except ValueError:
            expected = f"a comma list of {_TYPE_NAMES[kind][1]}" if is_list else _TYPE_NAMES[kind][0]
            raise ConfigError(f"--{f.name} expects {expected}, got {raw!r}") from None
    return replace(cfg, **overrides).validate(getattr(args, "suite", None) or getattr(args, "kind", None))


def _fmt_num(x) -> str:
    return format(float(x), ".17g")


def _name_num(x) -> str:
    """Shortest round-trip form of x for file names: 0.05, not 0.050000000000000003; 1, not 1.0."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _row_strings(row):
    out = []
    for cell in row:
        if isinstance(cell, bool):
            out.append("1" if cell else "0")
        elif isinstance(cell, complex):
            out.append(_fmt_num(cell.real) + ("+" if cell.imag >= 0 else "") + _fmt_num(cell.imag) + "j")
        elif isinstance(cell, (int, np.integer)):
            out.append(str(int(cell)))
        elif isinstance(cell, (float, np.floating)):
            out.append(_fmt_num(cell))
        else:
            out.append(str(cell))
    return out


def write_report(path: str, columns, rows, fmt: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(columns)
            for row in rows:
                writer.writerow(_row_strings(row))
    else:
        payload = [dict(zip(columns, _row_strings(row))) for row in rows]
        with open(path, "w") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True)
            fp.write("\n")


def _basis(spec: GroupSpec, cutoff: int, limit: int | None = None):
    """Matrix-entry basis up to the label cutoff: (case id, entry (label, i,
    j)), the entry pi_ij of the label, as holo_inner takes it."""
    out = []
    for label in enumerate_irreps(spec, cutoff):
        d = irrep_dim(spec, label)
        for i in range(d):
            for j in range(d):
                out.append((f"{label}[{i},{j}]", (label, i, j)))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def _entry_norm(spec: GroupSpec, label, scale: float = 1.0) -> float:
    """The Plancherel norm sqrt((vol/d) |s|^2) of s times a matrix entry of the label."""
    return math.sqrt(spec.volume / irrep_dim(spec, label) * (abs(scale) * abs(scale)))


def _shifts(spec: GroupSpec, basis, n: int, c: float) -> dict:
    """The Sobolev shift's scale (c + lambda)^n on each label of the basis."""
    return {label: sobolev.shift_scale(spec, label, n, c) for label in {e[0] for _, e in basis}}


def _row(cid, lhs, rhs, err, tol, gap):
    """A verify row: it passes when both its error and its level gap are within tol."""
    return (cid, lhs, rhs, err, tol, err <= tol and gap <= tol, gap)


def _orders(cfg: RunConfig) -> list:
    """The configured Sobolev orders n >= 1 (n = 0 has no Sobolev identity to check)."""
    return [n for n in cfg.n if n >= 1]


def _mass_level(spec: GroupSpec, t: float, radius: float, level: int) -> complex:
    """int exp(log nu_t - 2 log Phi) dY over |Y| <= R by the radial Gauss-Legendre
    rule on [0, R] with weight |S^{dim-1}| r^{dim-1}: the integrand is radial on
    every group, so it is evaluated along one unit direction with every
    coordinate nonzero (a density that ignored a coordinate would fail)."""
    x, w = roots_legendre(level)
    r = radius * (x + 1.0) / 2.0
    weights = math.pi ** (spec.dim / 2.0) / math.gamma(spec.dim / 2.0) * radius * w * r ** (spec.dim - 1)
    nodes = r[:, None] * np.full(spec.dim, 1.0 / math.sqrt(spec.dim))
    return np.dot(weights, np.exp(heat.log_nu_t(spec, t, nodes) - 2.0 * log_phi(spec, nodes)))


# Each suite maps (cfg, t, tol, q) to its rows for one time t.


def _mass_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    # nu_t against the polar Haar density 1/Phi^2 has total mass 1; the
    # Gaussian factor e^{-(r - t/2)^2/t} on SU(2) is below e^-64 past R
    spec = cfg.spec
    radius = 8.0 * math.sqrt(t) + (t / 2.0 if spec.kind == "su2" else 0.0)
    res = integrate_levels(q, lambda level: _mass_level(spec, t, radius, level))
    lhs = spec.volume * res.value.item().real
    return [_row("mass", lhs, spec.volume, rel_gap(lhs, spec.volume), tol, res.gap.item())]


def _norms(res):
    """sqrt of the real part of each value of a batch of K_C forms."""
    return [math.sqrt(max(value.real, 0.0)) for value in res.value.tolist()]


def _norm_rows(prefix, basis, res, rhs, tol):
    """One row per basis function: its K_C norm from the batch res against rhs."""
    return [
        _row(prefix + cid, lhs, r, rel_gap(lhs, r), tol, gap)
        for (cid, _), lhs, r, gap in zip(basis, _norms(res), rhs, res.gap.tolist())
    ]


def _unitarity_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    basis = _basis(spec, cfg.cutoff)
    res = holo_inner(spec, t, [(e, e, 1.0) for _, e in basis], q)
    return _norm_rows("", basis, res, [_entry_norm(spec, e[0]) for _, e in basis], tol)


def _reproducing_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    rng = random.Random(cfg.seed)
    points = []
    for _ in range(20):
        y = random_algebra(spec, rng)
        y *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(y), 1e-12)
        points.append((random_k(spec, rng), y))
    basis = _basis(spec, cfg.cutoff, limit=5)
    xs, ys = (np.stack(part) for part in zip(*points))
    Fs = [ct_forward(basis_entry(spec, *e), t) for _, e in basis]
    # every function at every point, function by function
    residual, gap = kernels.reproduce_check(Fs, polar_compose(spec, xs, ys), q)
    cids = [f"{cid}@p{k}" for cid, _ in basis for k in range(len(points))]
    return [_row(cid, r, 0.0, r, tol, g) for cid, r, g in zip(cids, residual.ravel().tolist(), gap.ravel().tolist())]


def _sobolev_isometry_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    basis = _basis(spec, cfg.cutoff)
    rows = []
    for n in _orders(cfg):
        shift = _shifts(spec, basis, n, cfg.c_value(spec, t, n))
        res = holo_inner(spec, t, [(e, e, shift[e[0]] * shift[e[0]]) for _, e in basis], q)
        rows += _norm_rows(f"n={n}:", basis, res, [_entry_norm(spec, e[0], shift[e[0]]) for _, e in basis], tol)
    return rows


def _kernel_tworoute_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    rng = random.Random(cfg.seed)
    rows = []
    for n in _orders(cfg):
        c = spec.delta_sq + 1.0 if cfg.c is None else cfg.c
        # 15 pairs (g, h), drawn g, h, g, h, ..., each as (x, Y): one batched query
        draws = [(random_k(spec, rng), random_algebra(spec, rng, 0.6)) for _ in range(30)]
        xs, ys = (np.stack(part) for part in zip(*draws))
        g, h = polar_compose(spec, xs[0::2], ys[0::2]), polar_compose(spec, xs[1::2], ys[1::2])
        gh = kernels.pair_point(spec, g, h)
        try:
            query = kernels.KernelQuery(spec, gh, t, n, c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        lhs = kernels.k_sobolev_spectral(query)
        rhs, res = kernels.k_sobolev_integral(query)
        for k, (left, right, gap) in enumerate(zip(lhs.tolist(), rhs.tolist(), res.gap.tolist())):
            rows.append(_row(f"n={n}:q{k}", left, right, rel_gap(left, right), tol, gap))
    return rows


def _toeplitz_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    basis = _basis(spec, min(cfg.cutoff, 3))
    norms = [_entry_norm(spec, e[0]) for _, e in basis]
    same = list(range(len(basis)))
    # (tag, lhs, rhs): the quadratic forms on the pairs (f_i, f_i), then
    # (f_i, f_{i+1}); the first-order forms on the first of them, (f_i, f_i)
    forms, first, second = [], same + same[:-1], same + same[1:]
    # forms that vanish identically leave only rounding noise, so each
    # pair's zero floor is scaled to the natural size of the form
    floor = [1e-6 * norms[i] * norms[j] for i, j in zip(first, second)]
    pairs = [(basis[i][1], basis[j][1], 1.0) for i, j in zip(first, second)]
    for n in _orders(cfg):
        c = cfg.c_value(spec, t, n)
        shift = _shifts(spec, basis, n, c)
        quad = holo_inner(spec, t, pairs, q, sobolev.toeplitz_symbol(spec, t, c, n), floor)
        shifted = [(e1, e2, shift[e2[0]]) for e1, e2, _ in pairs]
        forms.append((f"n={n}", quad, holo_inner(spec, t, shifted, q, None, floor)))
    diagonal, diagonal_floor = pairs[: len(same)], floor[: len(same)]
    for k in range(spec.dim):
        # <F, X_k F> by the gather of dpi(E_k), against the quadratic form of the symbol of X_k
        lhs = holo_inner(spec, t, diagonal, q, None, diagonal_floor, axis=k)
        forms.append((f"X{k}", lhs, holo_inner(spec, t, diagonal, q, sobolev.phi_x_weight(spec, t, k), diagonal_floor)))
    rows = []
    for tag, lhs_res, rhs_res in forms:
        sides = (lhs_res.value.tolist(), rhs_res.value.tolist(), lhs_res.gap.tolist(), rhs_res.gap.tolist())
        for i, j, f, lhs, rhs, lhs_gap, rhs_gap in zip(first, second, floor, *sides):
            cid, gap = f"{tag}:<{basis[i][0]},{basis[j][0]}>", max(lhs_gap, rhs_gap)
            rows.append(_row(cid, abs(lhs), abs(rhs), rel_gap(lhs, rhs, f), tol, gap))
    return rows


def _weighted_norm_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    n = min(_orders(cfg), default=1)
    basis = _basis(spec, cfg.cutoff)
    shift = _shifts(spec, basis, 2 * n, cfg.c_value(spec, t, n))
    lhs_res = holo_inner(spec, t, [(e, e, 1.0) for _, e in basis], q, weight=lambda u: (1.0 + u) ** (2 * n))
    rhs_res = holo_inner(spec, t, [(e, e, shift[e[0]] * shift[e[0]]) for _, e in basis], q)
    # the row's tol bounds the ratio spread; the gap tolerance bounds each form's level gap
    rows, gap_tol = [], cfg.tol(1e-8)
    forms = zip(basis, _norms(lhs_res), _norms(rhs_res), lhs_res.gap.tolist(), rhs_res.gap.tolist())
    for (cid, _), lhs, rhs, lhs_gap, rhs_gap in forms:
        ratio = lhs / rhs if rhs > 0 else math.inf
        gap = max(lhs_gap, rhs_gap)
        rows.append((f"n={n}:{cid}", lhs, rhs, ratio, tol, math.isfinite(ratio) and gap <= gap_tol, gap))
    ratios = [row[3] for row in rows]
    spread = max(ratios) / min(ratios)
    rows.append(_row(f"n={n}:ratio-spread", spread, tol, spread, tol, 0.0))
    return rows


# suite name -> (rows function, default tolerance)
SUITES = {
    "unitarity": (_unitarity_rows, 1e-6),
    "mass": (_mass_rows, 1e-6),
    "reproducing": (_reproducing_rows, 1e-6),
    "sobolev-isometry": (_sobolev_isometry_rows, 1e-6),
    "kernel-tworoute": (_kernel_tworoute_rows, 1e-6),
    "toeplitz": (_toeplitz_rows, 1e-3),
    "weighted-norm": (_weighted_norm_rows, 50.0),
}


def _write_reports(cfg: RunConfig, stem: str, columns, result_at) -> int:
    """result_at(t) -> (rows, ok) at every configured t, then one report
    per t, <stem>_<group>_t<t>.<fmt>, each path printed; nothing is written
    unless every t ran.  Prints the verdict line `<name>: PASS|FAIL`, name
    the stem less its `verify_` or `report_` prefix (suite and kind names
    hold no underscore), and returns the exit code: 0 when every t was ok,
    else 1."""
    results = [(t, *result_at(t)) for t in cfg.t]
    for t, rows, _ in results:
        path = os.path.join(cfg.out, f"{stem}_{cfg.group.replace(':', '-')}_t{_name_num(t)}.{cfg.fmt}")
        write_report(path, columns, rows, cfg.fmt)
        print(f"wrote {path}")
    ok = all(ok for _, _, ok in results)
    print(f"{stem.split('_', 1)[-1]}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    rows_fn, default_tol = SUITES[suite]
    tol = cfg.tol(default_tol)

    def result_at(t):
        rows = rows_fn(cfg, t, tol, cfg.quad())
        if not rows:
            raise ConfigError(f"{suite} has no case to check at n = {','.join(map(str, cfg.n))}")
        return rows, all(row[5] for row in rows)

    return _write_reports(cfg, f"verify_{suite}", VERIFY_COLUMNS, result_at)


def _report_rows(kind: str, cfg: RunConfig, t: float):
    """(rows, ok) of one report kind at time t; bounds fails on a failed row,
    symbol on a coefficient <= 0, smoothness on a G_n that is not finite."""
    spec = cfg.spec
    if kind == "symbol":
        rows = []
        for n in cfg.n:
            sym = sobolev.toeplitz_symbol(spec, t, cfg.c_value(spec, t, n), n)
            rows += [(n, sym.degree, k, coef) for k, coef in enumerate(sym.coefficients)]
        return rows, all(row[3] > 0 for row in rows)
    if kind == "lattice":
        return bounds.lattice_limit_check(spec, cfg.tau), True
    if kind == "smoothness":
        f = CoefVec(spec, {label: np.eye(irrep_dim(spec, label)) for label in enumerate_irreps(spec, cfg.cutoff)})
        rows = bounds.smoothness_report(ct_forward(f, t), n_max=max(cfg.n))
        return rows, all(math.isfinite(row[2]) for row in rows)
    # bounds
    chamber = "full-lattice" if spec.kind == "torus" else "halfline"
    rows = [(tau, ratio, alpha, chamber, ok) for tau, ratio, alpha, ok in bounds.kernel_bound_check(spec, t)]
    return rows, all(row[-1] for row in rows)


def cmd_report(kind: str, cfg: RunConfig) -> int:
    return _write_reports(cfg, f"report_{kind}", REPORT_COLUMNS[kind], lambda t: _report_rows(kind, cfg, t))


def load_coefficients(path: str) -> CoefVec:
    """Read {group, entries: [{label, matrix: rows of [re, im] pairs}]}."""
    with open(path) as fp:
        data = json.load(fp)
    if not isinstance(data, dict) or "group" not in data or "entries" not in data:
        raise ConfigError("coefficient file needs 'group' and 'entries'")
    spec = parse_group(data["group"])
    blocks = {}
    for entry in data["entries"]:
        label = entry["label"]
        if spec.kind == "torus":
            label = tuple(int(v) for v in (label if isinstance(label, list) else [label]))
        else:
            label = int(label)
        mat = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in entry["matrix"]],
            dtype=complex,
        )
        if not np.all(np.isfinite(mat)):
            raise ConfigError(f"coefficient block {label} is not finite")
        blocks[label] = mat
    return CoefVec(spec, blocks)


def _parse_points(spec: GroupSpec, path: str):
    with open(path) as fp:
        data = json.load(fp)
    # torus: one angle per axis; su2: Euler triples [phi, theta, psi]
    points = np.asarray(data, dtype=float).reshape(len(data), spec.dim)
    if not len(points) or not np.all(np.isfinite(points)):
        raise ConfigError("point file must hold a nonempty list of finite points")
    return points if spec.kind == "torus" else su2_euler(*points.T)


def cmd_invert(cfg: RunConfig, coeff_path: str, points_path: str) -> int:
    try:
        f = load_coefficients(coeff_path)
        if f.spec != cfg.spec:
            raise ConfigError("coefficient file group does not match --group")
        points = _parse_points(f.spec, points_path)
        # refuse a radius past |Y| = MAX_ABS_Y
        inversion_radii(f.spec, max(cfg.t), f.support)
    except (ConfigError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    columns = ["point", "value-re", "value-im", "exact-re", "exact-im", "abs-err", "stabilized", "tol", "pass", "gap"]
    tol = cfg.tol(1e-6)
    exact = f.eval_k_batch(points).tolist()

    def result_at(t):
        radii = inversion_radii(f.spec, t, f.support)
        q = QuadSpec(levels=inversion_levels(t, max(radii), cfg.levels))
        (inner, outer), gap = ct_inverse_integral(ct_forward(f, t), points, radii, q)
        rows = []
        for k, (a, rec, ex, g) in enumerate(zip(inner.tolist(), outer.tolist(), exact, gap.tolist())):
            stable, err = abs(rec - a) <= tol * max(1.0, abs(rec)), abs(rec - ex)
            passed = stable and g <= tol and err <= tol * max(1.0, abs(ex))
            rows.append((f"p{k}", rec.real, rec.imag, ex.real, ex.imag, err, stable, tol, passed, g))
        return rows, all(row[8] for row in rows)

    return _write_reports(cfg, "invert", columns, result_at)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gsb", description="heat-kernel transform verification tool")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name}", help=f.metadata["help"])
        p.add_argument("--config", help="JSON config file; flags override it")

    p_verify = sub.add_parser("verify", help="run a pass/fail verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    add_common(p_verify)

    p_report = sub.add_parser("report", help="emit a diagnostic table")
    p_report.add_argument("kind", choices=REPORT_COLUMNS)
    add_common(p_report)

    p_invert = sub.add_parser("invert", help="pointwise inversion from a coefficient file")
    p_invert.add_argument("--coeffs", required=True, help="JSON coefficient file")
    p_invert.add_argument("--points", required=True, help="JSON point list")
    add_common(p_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, cfg)
        if args.command == "report":
            return cmd_report(args.kind, cfg)
        return cmd_invert(cfg, args.coeffs, args.points)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (heat.TailBoundError, OverflowError, FloatingPointError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

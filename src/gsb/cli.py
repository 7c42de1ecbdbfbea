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
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .bounds import (
    LatticePoly,
    alpha_t_estimate,
    kernel_bound_check,
    lattice_limit_check,
    smoothness_report,
)
from .coeffs import CoefVec, basis_entry
from .groups import (
    GroupSpec,
    enumerate_irreps,
    irrep_dim,
    laplacian_eigenvalue,
    parse_group,
    random_algebra,
    random_k,
    su2_euler,
)
from .heat import TailBoundError, log_nu_t
from .kernels import KernelQuery, k_sobolev_integral, k_sobolev_spectral, reproduce_check
from .polar import MAX_ABS_Y, PointKC, log_phi
from .quadrature import MAX_ORDER, QuadSpec, integrate_levels
from .sobolev import (
    first_order_forms,
    laplacian_apply,
    sobolev_norm,
    sobolev_shift,
    symbol_positivity_threshold,
    toeplitz_quadratic_form,
    toeplitz_symbol,
    weighted_form,
)
from .transform import QuadratureError, _ball_radii, ct_forward, holo_inner, inverse_integral_trace

VERIFY_SUITES = (
    "unitarity",
    "mass",
    "reproducing",
    "sobolev-isometry",
    "kernel-tworoute",
    "toeplitz",
    "weighted-norm",
)
REPORT_KINDS = ("bounds", "smoothness", "lattice", "symbol")

VERIFY_COLUMNS = ["case-id", "lhs", "rhs", "rel-err", "tol", "pass", "gap"]


class ConfigError(ValueError):
    pass


# element type of each RunConfig field; a tuple field is checked element-wise
_FIELD_TYPES = {
    "group": str,
    "t": float,
    "n": int,
    "c": float,
    "cutoff": int,
    "levels": int,
    "radii": float,
    "tau": float,
    "tolerance": float,
    "seed": int,
    "out": str,
    "fmt": str,
}
_TYPE_NAMES = {str: ("a string", "strings"), int: ("an integer", "integers"), float: ("a number", "numbers")}


def _has_type(value, kind) -> bool:
    if kind is str:
        return isinstance(value, str)
    base = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, base) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    group: str = "torus:1"
    t: tuple = (1.0,)
    n: tuple = (1, 2)
    c: float | None = None
    cutoff: int = 4
    levels: tuple = (64, 96)
    radii: tuple = (4.0, 7.0, 10.0)
    tau: tuple = (1.0, 4.0, 16.0, 64.0, 256.0)
    tolerance: float | None = None
    seed: int = 0
    out: str = "reports"
    fmt: str = "csv"

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value, kind = getattr(self, f.name), _FIELD_TYPES[f.name]
            if value is None and f.default is None:
                continue
            if isinstance(f.default, tuple):
                if not isinstance(value, tuple) or not all(_has_type(v, kind) for v in value):
                    raise ConfigError(f"{f.name} must be a list of {_TYPE_NAMES[kind][1]}")
            elif not _has_type(value, kind):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[kind][0]}")
        # written so that nan fails every comparison and is rejected
        try:
            spec = self.spec
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not self.t or not all(0 < t < math.inf for t in self.t):
            raise ConfigError("t values must be positive and finite")
        if not (1 <= self.cutoff <= 64):
            raise ConfigError("cutoff must be in 1..64")
        if not all(0 < r <= MAX_ABS_Y for r in self.radii):
            raise ConfigError(f"radii must lie in (0, {MAX_ABS_Y}]")
        if any(n < 0 for n in self.n):
            raise ConfigError("n values must be nonnegative")
        if not all(0 < tau < math.inf for tau in self.tau):
            raise ConfigError("tau values must be positive and finite")
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
        # the damping e^{-lambda t/2} of the top irrep must stay a normal double
        half_t = max(self.t) / 2.0

        def top_damping(cutoff):
            return laplacian_eigenvalue(spec, cutoff if spec.kind == "su2" else (cutoff,) * spec.rank) * half_t

        if top_damping(self.cutoff) > 700.0:
            allowed = max((k for k in range(1, self.cutoff) if top_damping(k) <= 700.0), default=0)
            raise ConfigError(
                f"cutoff {self.cutoff} damps the top irrep below e^-700 at t = {max(self.t):g}; "
                f"the largest allowed cutoff is {allowed}"
            )
        return self

    @property
    def spec(self) -> GroupSpec:
        return parse_group(self.group)

    def quad(self, tol: float | None = None) -> QuadSpec:
        if tol is None:
            tol = self.tolerance
        if tol is None:
            tol = 1e-8
        return QuadSpec(levels=tuple(self.levels), tolerance=tol)

    def c_value(self, spec: GroupSpec, t: float, n: int) -> float:
        """Configured c, or the positivity threshold (floored at |delta|^2+1)."""
        if self.c is not None:
            return self.c
        base = spec.delta_sq + 1.0
        grid = [base + 0.5 * k for k in range(40)]
        found = symbol_positivity_threshold(spec, t, max(n, 1), grid)
        return found if found is not None else grid[-1]


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fp:
            data = json.load(fp)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        allowed = {f.name for f in fields(RunConfig)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("t", "n", "levels", "radii", "tau"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        cfg = replace(cfg, **data)
    overrides = {}
    for name in ("group", "c", "cutoff", "tolerance", "seed", "out", "fmt"):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            overrides[name] = value
    for name, cast in (("t", float), ("n", int), ("levels", int), ("radii", float), ("tau", float)):
        raw = getattr(args, name, None)
        if raw is not None:
            try:
                overrides[name] = tuple(cast(part) for part in str(raw).split(","))
            except ValueError:
                raise ConfigError(f"--{name} expects a comma list of {_TYPE_NAMES[cast][1]}, got {raw!r}") from None
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


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
    """Matrix-entry basis (case id, CoefVec) up to the label cutoff."""
    out = []
    for label in enumerate_irreps(spec, cutoff):
        d = irrep_dim(spec, label)
        for i in range(d):
            for j in range(d):
                out.append((f"{label}[{i},{j}]", basis_entry(spec, label, i, j)))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def _rel_err(lhs, rhs) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0:
        return 0.0
    return abs(lhs - rhs) / scale


def _gap(res, q: QuadSpec, floor: float) -> float:
    """Gap of a QuadResult on q's levels, relative to the larger of its two
    finest values or to floor, the natural size of a form that may vanish."""
    return integrate_levels(q, dict(zip(q.levels, res.by_level)).__getitem__, floor).gap


def _mass_level(spec: GroupSpec, t: float, radius: float, level: int) -> complex:
    """int exp(log nu_t - 2 log Phi) dY over |Y| <= R by the radial Gauss-Legendre
    rule on [0, R] with weight |S^{dim-1}| r^{dim-1}: the integrand is radial on
    every group, so it is evaluated along one unit direction with every
    coordinate nonzero (a density that ignored a coordinate would fail)."""
    r, weights = _ball_radii(radius, level, spec.dim)
    nodes = r[:, None] * np.full(spec.dim, 1.0 / math.sqrt(spec.dim))
    return np.dot(weights, np.exp(log_nu_t(spec, t, nodes) - 2.0 * log_phi(spec, nodes)))


def _default_tol(suite: str) -> float:
    if suite in ("unitarity", "reproducing", "sobolev-isometry", "mass", "kernel-tworoute"):
        return 1e-6
    if suite == "toeplitz":
        return 1e-3
    if suite == "weighted-norm":
        return 50.0
    raise ConfigError(f"unknown suite {suite!r}")


def _suite_rows(suite: str, cfg: RunConfig, t: float):
    spec = cfg.spec
    tol = cfg.tolerance if cfg.tolerance is not None else _default_tol(suite)
    q = cfg.quad(None if cfg.tolerance is None else cfg.tolerance)
    rows = []

    if suite == "mass":
        # nu_t against the polar Haar density 1/Phi^2 has total mass 1; the
        # Gaussian factor e^{-(r - t/2)^2/t} on SU(2) is below e^-64 past R
        radius = 8.0 * math.sqrt(t) + (t / 2.0 if spec.kind == "su2" else 0.0)
        res = integrate_levels(q, lambda level: _mass_level(spec, t, radius, level))
        lhs = spec.volume * res.value.real
        rhs = spec.volume
        err = _rel_err(lhs, rhs)
        rows.append(("mass", lhs, rhs, err, tol, err <= tol and res.gap <= tol, res.gap))
        return rows

    if suite == "unitarity":
        for cid, f in _basis(spec, cfg.cutoff):
            res = holo_inner(ct_forward(f, t), ct_forward(f, t), q)
            lhs = math.sqrt(max(res.value.real, 0.0))
            rhs = f.plancherel_norm()
            err = _rel_err(lhs, rhs)
            rows.append((cid, lhs, rhs, err, tol, err <= tol and res.gap <= tol, res.gap))
        return rows

    if suite == "reproducing":
        basis = _basis(spec, cfg.cutoff, limit=5)
        rng = np.random.default_rng(cfg.seed)
        points = []
        for _ in range(20):
            y = random_algebra(spec, rng)
            y *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(y), 1e-12)
            points.append(PointKC(spec, random_k(spec, rng), y))
        for cid, f in basis:
            F = ct_forward(f, t)
            for k, p in enumerate(points):
                residual, gap = reproduce_check(F, p, q)
                ok = residual <= tol and gap <= tol
                rows.append((f"{cid}@p{k}", residual, 0.0, residual, tol, ok, gap))
        return rows

    if suite == "sobolev-isometry":
        basis = _basis(spec, cfg.cutoff)
        for n in cfg.n:
            if n < 1:
                continue
            c = cfg.c_value(spec, t, n)
            for cid, f in basis:
                G = sobolev_shift(ct_forward(f, t), n, c)
                res = holo_inner(G, G, q)
                lhs = math.sqrt(max(res.value.real, 0.0))
                rhs = sobolev_norm(f, n, c)
                err = _rel_err(lhs, rhs)
                rows.append((f"n={n}:{cid}", lhs, rhs, err, tol, err <= tol and res.gap <= tol, res.gap))
            # commutation of the Laplacian power with the transform, bit-exact
            f = basis[-1][1]
            a = ct_forward(laplacian_apply(f, n), t).coefs
            b = laplacian_apply(ct_forward(f, t), n).coefs
            same = a.support == b.support and all(
                np.array_equal(a.entries[lb], b.entries[lb]) for lb in a.support
            )
            rows.append((f"n={n}:commutation", 1.0 if same else 0.0, 1.0, 0.0 if same else 1.0, 0.0, same, 0.0))
        return rows

    if suite == "kernel-tworoute":
        rng = np.random.default_rng(cfg.seed)
        for n in cfg.n:
            if n < 1:
                continue
            c = spec.delta_sq + 1.0 if cfg.c is None else cfg.c
            # 15 pairs (g, h), drawn g, h, g, h, ..., each as (x, Y): one batched query
            draws = [(random_k(spec, rng), random_algebra(spec, rng, 0.6)) for _ in range(30)]
            xs, ys = (np.stack(part) for part in zip(*draws))
            query = KernelQuery(PointKC(spec, xs[0::2], ys[0::2]), PointKC(spec, xs[1::2], ys[1::2]), t, n, c)
            lhs = k_sobolev_spectral(query)
            rhs, res = k_sobolev_integral(query)
            for k, (left, right, gap) in enumerate(zip(lhs.tolist(), rhs.tolist(), res.gap.tolist())):
                err = _rel_err(left, right)
                rows.append((f"n={n}:q{k}", left, right, err, tol, err <= tol and gap <= tol, gap))
        return rows

    if suite == "toeplitz":
        cutoff = min(cfg.cutoff, 3)
        basis = _basis(spec, cutoff)
        pairs = [(cid, f, cid, f) for cid, f in basis]
        for (cid1, f1), (cid2, f2) in zip(basis[:-1], basis[1:]):
            pairs.append((cid1, f1, cid2, f2))
        for n in cfg.n:
            if n < 1:
                continue
            c = cfg.c_value(spec, t, n)
            sym = toeplitz_symbol(spec, t, c, n)
            for cid1, f1, cid2, f2 in pairs:
                F1, F2 = ct_forward(f1, t), ct_forward(f2, t)
                res = toeplitz_quadratic_form(F1, F2, sym, q)
                spec_res = holo_inner(F1, sobolev_shift(F2, n, c), q)
                spectral = spec_res.value
                # forms that vanish identically leave only rounding noise, so
                # the zero floor is scaled to the natural size of the form
                floor = 1e-6 * f1.plancherel_norm() * f2.plancherel_norm()
                err = abs(res.value - spectral) / max(abs(spectral), abs(res.value), floor)
                gap = max(_gap(res, q, floor), _gap(spec_res, q, floor))
                ok = err <= tol and gap <= tol
                rows.append((f"n={n}:<{cid1},{cid2}>", abs(res.value), abs(spectral), err, tol, ok, gap))
        for k in range(spec.dim):
            for cid1, f1, cid2, f2 in pairs[: len(basis)]:
                F1, F2 = ct_forward(f1, t), ct_forward(f2, t)
                lhs_res, rhs_res = first_order_forms(F1, F2, k, q)
                lhs, rhs = lhs_res.value, rhs_res.value
                floor = 1e-6 * f1.plancherel_norm() * f2.plancherel_norm()
                err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)
                gap = max(_gap(lhs_res, q, floor), _gap(rhs_res, q, floor))
                ok = err <= tol and gap <= tol
                rows.append((f"X{k}:<{cid1},{cid2}>", abs(lhs), abs(rhs), err, tol, ok, gap))
        return rows

    if suite == "weighted-norm":
        n = min((m for m in cfg.n if m >= 1), default=1)
        c = cfg.c_value(spec, t, n)
        ratios = []
        for cid, f in _basis(spec, cfg.cutoff):
            F = ct_forward(f, t)
            G = sobolev_shift(F, 2 * n, c)
            lhs_res, rhs_res = weighted_form(F, n, q), holo_inner(G, G, q)
            lhs = math.sqrt(max(lhs_res.value.real, 0.0))
            rhs = math.sqrt(max(rhs_res.value.real, 0.0))
            ratio = lhs / rhs if rhs > 0 else math.inf
            ratios.append(ratio)
            # the row's tol bounds the ratio spread; the quadrature tolerance bounds the gap
            gap = max(lhs_res.gap, rhs_res.gap)
            ok = math.isfinite(ratio) and gap <= q.tolerance
            rows.append((f"n={n}:{cid}", lhs, rhs, ratio, tol, ok, gap))
        spread = max(ratios) / min(ratios)
        rows.append((f"n={n}:ratio-spread", spread, tol, spread, tol, spread <= tol, 0.0))
        return rows

    raise ConfigError(f"unknown suite {suite!r}")


def _group_tag(cfg: RunConfig) -> str:
    return cfg.group.replace(":", "-")


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    all_pass = True
    reports = []
    for t in cfg.t:
        rows = _suite_rows(suite, cfg, t)
        all_pass = all_pass and all(row[5] for row in rows)
        path = os.path.join(cfg.out, f"verify_{suite}_{_group_tag(cfg)}_t{_name_num(t)}.{cfg.fmt}")
        reports.append((path, rows))
    for path, rows in reports:
        write_report(path, VERIFY_COLUMNS, rows, cfg.fmt)
        print(f"wrote {path}")
    print(f"{suite}: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def cmd_report(kind: str, cfg: RunConfig) -> int:
    spec = cfg.spec
    t = cfg.t[0]
    ok = True  # only the bounds report carries a verdict
    if kind == "symbol":
        columns = ["n", "degree", "power-of-u", "coefficient"]
        rows = []
        for n in cfg.n:
            c = cfg.c_value(spec, t, n)
            sym = toeplitz_symbol(spec, t, c, n)
            for k, coef in enumerate(sym.coefficients):
                rows.append((n, sym.degree, k, coef))
    elif kind == "lattice":
        columns = ["tau", "scaled-sum", "target", "rel-gap"]
        rows = lattice_limit_check(spec, LatticePoly(), cfg.tau)
    elif kind == "smoothness":
        columns = ["n", "radius", "G_n", "stable"]
        f = CoefVec(
            spec,
            {label: np.eye(irrep_dim(spec, label)) for label in enumerate_irreps(spec, cfg.cutoff)},
        )
        report = smoothness_report(ct_forward(f, t), t, n_max=max(cfg.n))
        rows = [(n, r, v, report.stable[n]) for n, r, v in report.sorted_rows()]
    elif kind == "bounds":
        columns = ["tau", "max-ratio", "alpha_t", "chamber"]
        alpha = alpha_t_estimate(spec, t)
        checked, ok = kernel_bound_check(spec, t)
        chamber = "full-lattice" if spec.kind == "torus" else "halfline"
        rows = [(tau, ratio, alpha, chamber) for tau, ratio in checked]
    else:
        raise ConfigError(f"unknown report kind {kind!r}")
    path = os.path.join(cfg.out, f"report_{kind}_{_group_tag(cfg)}.{cfg.fmt}")
    write_report(path, columns, rows, cfg.fmt)
    print(f"wrote {path}")
    if not ok:
        print(f"{kind}: FAIL")
        return 1
    return 0


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
        blocks[label] = mat
    return CoefVec(spec, blocks)


def _parse_points(spec: GroupSpec, path: str):
    with open(path) as fp:
        data = json.load(fp)
    # torus: one angle per axis; su2: Euler triples [phi, theta, psi]
    points = np.asarray(data, dtype=float).reshape(len(data), spec.dim)
    return list(points if spec.kind == "torus" else su2_euler(*points.T))


def cmd_invert(cfg: RunConfig, coeff_path: str, points_path: str) -> int:
    try:
        f = load_coefficients(coeff_path)
        if f.spec != cfg.spec:
            raise ConfigError("coefficient file group does not match --group")
        points = _parse_points(f.spec, points_path)
    except (ConfigError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t = cfg.t[0]
    F = ct_forward(f, t)
    columns = ["point", "value-re", "value-im", "exact-re", "exact-im", "abs-err", "stabilized"]
    rows = []
    for k, x in enumerate(points):
        values, stabilized = inverse_integral_trace(F, x, cfg.radii, cfg.quad(1e-6))
        rec = values[-1]
        exact = f.eval_k(x)
        rows.append((f"p{k}", rec.real, rec.imag, exact.real, exact.imag, abs(rec - exact), stabilized))
    path = os.path.join(cfg.out, f"invert_{_group_tag(cfg)}.{cfg.fmt}")
    write_report(path, columns, rows, cfg.fmt)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gsb", description="heat-kernel transform verification tool")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", help="torus:r or su2")
        p.add_argument("--t", help="comma list of times")
        p.add_argument("--n", help="comma list of Sobolev orders")
        p.add_argument("--c", type=float, help="spectral shift (default: positivity threshold)")
        p.add_argument("--cutoff", type=int, help="irrep label cutoff (max 64)")
        p.add_argument("--levels", help="comma list of quadrature levels")
        p.add_argument("--radii", help="comma list of inversion/grid radii")
        p.add_argument("--tau", help="comma list of lattice scales")
        p.add_argument("--tolerance", type=float, help="override the per-suite tolerance")
        p.add_argument("--seed", type=int, help="RNG seed for sampled cases")
        p.add_argument("--out", help="output directory (default: reports)")
        p.add_argument("--fmt", choices=("csv", "json"), help="report format")
        p.add_argument("--config", help="JSON config file; flags override it")

    p_verify = sub.add_parser("verify", help="run a pass/fail verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    add_common(p_verify)

    p_report = sub.add_parser("report", help="emit a diagnostic table")
    p_report.add_argument("kind", choices=REPORT_KINDS)
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
    except (TailBoundError, QuadratureError, OverflowError, FloatingPointError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: runs the verify suites of gsb.suites on a RunConfig
of gsb.config, the diagnostic reports and the inversion, and writes their
reports.

Exit codes: 0 all checks passed, 1 numeric failure, 2 usage/config error.
Reports are CSV or JSON with locale-independent 17-significant-digit
numbers, so repeated runs are byte-identical.  Each is written a block of
rows at a time, as its command yields them.

The numerical modules are reached by attribute when a command runs, and
numpy is imported only where invert reads its files, so `import gsb.cli`,
--help and a usage error run none of them (gsb/__init__.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields
from itertools import repeat
from operator import itemgetter

from . import bounds, coeffs, groups, heat, quadrature, sobolev, suites, transform
from .config import VERIFY_SUITES, ConfigError, RunConfig, _config_from_args

REPORT_COLUMNS = {
    "bounds": ["tau", "max-ratio", "alpha_t", "chamber", "pass"],
    "smoothness": ["n", "radius", "G_n", "stable"],
    "lattice": ["tau", "scaled-sum", "target", "rel-gap"],
    "symbol": ["n", "degree", "power-of-u", "coefficient"],
}

VERIFY_COLUMNS = ["case-id", "lhs", "rhs", "rel-err", "tol", "pass", "gap"]


def _name_num(x) -> str:
    """Shortest round-trip form of x for file names: 0.05, not 0.050000000000000003; 1, not 1.0."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _complex_string(z) -> str:
    return format(z.real, ".17g") + ("+" if z.imag >= 0 else "") + format(z.imag, ".17g") + "j"


def _number_strings(cells):
    # an int formats as float(n) does: str(n) for every |n| below 2^53
    return map(format, cells, repeat(".17g"))


# cell type -> the strings of a column of cells of that type; int and float
# share one rule, so a column mixing them (integers from a config file) has one
_COLUMN_STRINGS = {
    bool: lambda cells: map(("0", "1").__getitem__, cells),
    complex: lambda cells: map(_complex_string, cells),
    int: _number_strings,
    float: _number_strings,
    str: lambda cells: cells,
}


def _row_strings(columns, rows):
    """Each row's cell strings: each column by the one rule of _COLUMN_STRINGS
    that its cells' types share, found once."""
    strings = []
    for k in range(len(columns)):
        kinds = set(map(type, map(itemgetter(k), rows))) or {str}
        (column,) = {_COLUMN_STRINGS[kind] for kind in kinds}
        strings.append(column(map(itemgetter(k), rows)))
    return zip(*strings)


def write_report(path: str, columns, blocks, fmt: str):
    """Write the rows of an iterable of blocks (lists of rows) to path as they
    come: the bytes that csv.writer, or json.dump(indent=2, sort_keys=True)
    of a list of {column: cell string}, writes for all the rows at once."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="" if fmt == "csv" else None) as fp:
        if fmt == "csv":
            writer = csv.writer(fp)
            writer.writerow(columns)
            for rows in blocks:
                writer.writerows(_row_strings(columns, rows))
            return
        # a block's list less its brackets, "\n  {...},\n  {...}", joined by commas
        encode, opening = json.JSONEncoder(indent=2, sort_keys=True).encode, "["
        for rows in blocks:
            if rows:
                fp.write(opening + encode([dict(zip(columns, strings)) for strings in _row_strings(columns, rows)])[1:-2])
                opening = ","
        fp.write("[]\n" if opening == "[" else "\n]\n")


def _write_reports(cfg: RunConfig, stem: str, columns, blocks_at, passed) -> int:
    """One report per configured t, <stem>_<group>_t<t>.<fmt>, of the rows of
    blocks_at(t): each block is written to <report>.part as it comes, and the
    parts are renamed into place, each path printed, once every t ran; on any
    exception the parts (and an --out this run made) are removed, so nothing
    is written unless every t ran.  Prints the verdict line `<name>:
    PASS|FAIL`, name the stem less its `verify_` or `report_` prefix (suite
    and kind names hold no underscore), and returns the exit code: 0 when
    passed(row) holds for every row, else 1."""
    ok, paths, made = True, [], not os.path.isdir(cfg.out)

    def judged(blocks):
        nonlocal ok
        for rows in blocks:
            ok = all(map(passed, rows)) and ok
            yield rows

    try:
        for t in cfg.t:
            paths.append(os.path.join(cfg.out, f"{stem}_{cfg.group.replace(':', '-')}_t{_name_num(t)}.{cfg.fmt}"))
            write_report(paths[-1] + ".part", columns, judged(blocks_at(t)), cfg.fmt)
        for path in dict.fromkeys(paths):  # a t given twice writes its report once
            os.replace(path + ".part", path)
    except BaseException:
        for part in [path + ".part" for path in paths]:
            if os.path.exists(part):
                os.remove(part)
        if made and os.path.isdir(cfg.out) and not os.listdir(cfg.out):
            os.rmdir(cfg.out)
        raise
    for path in paths:
        print(f"wrote {path}")
    print(f"{stem.split('_', 1)[-1]}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    rows_fn, default_tol = suites.SUITES[suite]
    blocks_at = lambda t: rows_fn(cfg, t, cfg.tol(default_tol), cfg.quad())
    return _write_reports(cfg, f"verify_{suite}", VERIFY_COLUMNS, blocks_at, itemgetter(5))


def _report_rows(kind: str, cfg: RunConfig, t: float):
    """The rows of one report kind at time t."""
    spec = cfg.spec
    if kind == "symbol":
        rows = []
        for n in cfg.n:
            sym = sobolev.toeplitz_symbol(spec, t, cfg.c_value(spec, t, n), n)
            rows += [(n, sym.degree, k, coef) for k, coef in enumerate(sym.coefficients)]
        return rows
    if kind == "lattice":
        return bounds.lattice_limit_check(spec, cfg.tau)
    if kind == "smoothness":
        return bounds.smoothness_report(spec, t, cfg.cutoff, n_max=max(cfg.n))
    # bounds
    chamber = "full-lattice" if spec.kind == "torus" else "halfline"
    return [(tau, ratio, alpha, chamber, ok) for tau, ratio, alpha, ok in bounds.kernel_bound_check(spec, t)]


def cmd_report(kind: str, cfg: RunConfig) -> int:
    # a row fails on bounds when its pass does, on smoothness when G_n is not
    # finite and on symbol when its coefficient is <= 0; a lattice row, a
    # nonempty tuple, passes as bool(row)
    passed = {"bounds": itemgetter(-1), "smoothness": lambda row: math.isfinite(row[2]), "symbol": lambda row: row[3] > 0}
    return _write_reports(cfg, f"report_{kind}", REPORT_COLUMNS[kind], lambda t: [_report_rows(kind, cfg, t)], passed.get(kind, bool))


def load_coefficients(path: str) -> coeffs.CoefVec:
    """Read {group, entries: [{label, matrix: rows of [re, im] pairs}]}."""
    import numpy as np

    with open(path) as fp:
        data = json.load(fp)
    if not isinstance(data, dict) or "group" not in data or "entries" not in data:
        raise ConfigError("coefficient file needs 'group' and 'entries'")
    spec = groups.parse_group(data["group"])
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
    return coeffs.CoefVec(spec, blocks)


def _parse_points(spec: groups.GroupSpec, path: str):
    import numpy as np

    with open(path) as fp:
        data = json.load(fp)
    # torus: one angle per axis; su2: Euler triples [phi, theta, psi]
    points = np.asarray(data, dtype=float).reshape(len(data), spec.dim)
    if not len(points) or not np.all(np.isfinite(points)):
        raise ConfigError("point file must hold a nonempty list of finite points")
    return points if spec.kind == "torus" else groups.su2_euler(*points.T)


def cmd_invert(cfg: RunConfig, coeff_path: str, points_path: str) -> int:
    try:
        f = load_coefficients(coeff_path)
        if f.spec != cfg.spec:
            raise ConfigError("coefficient file group does not match --group")
        points = _parse_points(f.spec, points_path)
        # refuse a radius past |Y| = MAX_ABS_Y
        transform.inversion_radii(f.spec, max(cfg.t), f.support)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        # a data file that is unreadable or malformed, or whose radius is refused
        raise ConfigError(str(exc)) from None
    columns = ["point", "value-re", "value-im", "exact-re", "exact-im", "abs-err", "stabilized", "tol", "pass", "gap"]
    tol = cfg.tol(1e-6)
    exact = f.eval_k_batch(points).tolist()

    def blocks_at(t):
        radii = transform.inversion_radii(f.spec, t, f.support)
        q = quadrature.QuadSpec(levels=transform.inversion_levels(t, max(radii), cfg.levels))
        (inner, outer), gap = transform.ct_inverse_integral(transform.ct_forward(f, t), points, radii, q)
        rows = []
        for k, (a, rec, ex, g) in enumerate(zip(inner.tolist(), outer.tolist(), exact, gap.tolist())):
            stable, err = abs(rec - a) <= tol * max(1.0, abs(rec)), abs(rec - ex)
            passed = stable and g <= tol and err <= tol * max(1.0, abs(ex))
            rows.append((f"p{k}", rec.real, rec.imag, ex.real, ex.imag, err, stable, tol, passed, g))
        return [rows]

    return _write_reports(cfg, "invert", columns, blocks_at, itemgetter(8))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gsb", description="heat-kernel transform verification tool")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name}", help=f.metadata["help"])
        p.add_argument("--config", help="JSON config file; flags override it")

    p_verify = sub.add_parser("verify", help="run a pass/fail verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
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
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
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

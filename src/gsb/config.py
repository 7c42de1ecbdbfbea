"""Run configuration: the RunConfig fields and their flags, validation, and
the memory bound that validate holds the basis suites to.

Exit code 2 of the command line is a ConfigError: raised here, by invert on
a data file it cannot read or use, or by a suite that finds no case to check.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

from . import sobolev
from .groups import GroupSpec, parse_group
from .quadrature import MAX_ORDER, QuadSpec

MEMORY_BUDGET = 1 << 30  # bytes: the largest peak RSS estimate (basis_cost) that validate accepts
IMPORT_FLOOR = 31 << 20  # bytes: the peak RSS of `import gsb.cli`
# basis suite -> bytes per matrix entry while it runs, and bytes per finished
# row until its report is written: fitted to peak RSS on su2 and torus:3-4
# at one to four t or orders
BASIS_COST = {"unitarity": 580, "weighted-norm": 680, "sobolev-isometry": 710}
ROW_COST = 320


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
        """Check every field; command (a suite or report kind) adds a basis
        suite's memory bound, and on kernel-tworoute the Sobolev kernel's c >
        |delta|^2.  report smoothness needs no bound: the tau range refuses
        every torus rank above 1,117, and --group torus:1117 --tau 3.545
        --cutoff 64 peaks at 301 MB (torus:386, the largest rank whose vol K
        is finite, at 155 MB)."""
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
        out = ancestor = os.path.abspath(self.out)
        while not os.path.exists(ancestor):  # the root exists
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            where = "exists and" if ancestor == out else f"lies under {ancestor!r}, which"
            raise ConfigError(f"out {self.out!r} {where} is not a directory")
        if command == "kernel-tworoute" and self.orders() and self.c is not None and self.c <= spec.delta_sq:
            raise ConfigError("need c > |delta|^2 for the Sobolev kernel")
        need = basis_cost(self, command, self.cutoff)[1] if command in BASIS_COST else 0
        if need > MEMORY_BUDGET:
            fits = [k for k in range(1, self.cutoff) if basis_cost(self, command, k)[1] <= MEMORY_BUDGET]
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

    def orders(self) -> list:
        """The configured Sobolev orders n >= 1 (n = 0 has no Sobolev identity to check)."""
        return [n for n in self.n if n >= 1]

    def c_value(self, spec: GroupSpec, t: float, n: int) -> float:
        """Configured c, or the positivity threshold of phi_max(n, 1)."""
        return self.c if self.c is not None else sobolev.symbol_positivity_threshold(spec, t, max(n, 1))


def basis_cost(cfg: RunConfig, suite: str, cutoff: int) -> tuple:
    """(rows, bytes) of a basis suite at a cutoff: sum d^2 matrix entries, and
    a peak RSS of the import floor, the suite's cost per entry, and ROW_COST
    for each row held until the reports are written: an entry's row at every
    t, on sobolev-isometry at every order n >= 1 of each t."""
    spec = cfg.spec
    rows = (2 * cutoff + 1) ** spec.rank if spec.kind == "torus" else sum(m**2 for m in range(1, cutoff + 1))
    held = len(cfg.t) * (len(cfg.orders()) if suite == "sobolev-isometry" else 1)
    return rows, IMPORT_FLOOR + (BASIS_COST[suite] + ROW_COST * held) * rows


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
        try:
            with open(args.config) as fp:
                data = json.load(fp)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(str(exc)) from None
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

"""Run configuration: the RunConfig fields and their flags, validation, the
verify suites' names, and the size bound that validate holds the basis
suites to.

Exit code 2 of the command line is a ConfigError: raised here, or by invert
on a data file it cannot read or use.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace

from . import groups, quadrature, sobolev

# the verify suites, in the order gsb.suites.SUITES and the parser list them
VERIFY_SUITES = ("unitarity", "mass", "reproducing", "sobolev-isometry", "kernel-tworoute", "toeplitz", "weighted-norm")
BASIS_SUITES = ("unitarity", "sobolev-isometry", "weighted-norm")
MAX_ENTRIES = 1 << 20  # the most matrix entries a basis suite checks at one t


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
    tau: tuple = _flag((1.0, 4.0, 16.0, 64.0, 256.0), float, "comma list of lattice scales (report lattice only)")
    tolerance: float | None = _flag(None, float, "override the suite or invert tolerance")
    seed: int = _flag(0, int, "RNG seed for sampled cases")
    out: str = _flag("reports", str, "output directory (default: reports)")
    fmt: str = _flag("csv", str, "report format: csv or json")

    def validate(self, command: str | None = None) -> "RunConfig":
        """Check every field; command (a suite or report kind) adds a command's
        own refusals: a Sobolev suite with no order n >= 1 to check, a basis
        suite with more than MAX_ENTRIES matrix entries (sum d^2) at one t,
        on kernel-tworoute the Sobolev kernel's c > |delta|^2, and on report
        lattice, tau's one reader, a tau outside _tau_range.

        The basis suites write their rows a block at a time, so no row
        outlives its block: MAX_ENTRIES bounds the work and the report of
        one t, not a memory estimate.  Unitarity on torus:4 at cutoff 15
        (923,521 entries) takes 11-14 s, peaks near 36 MB and writes
        123 MB of CSV; su2 takes every cutoff, and at 64 (89,440 entries)
        unitarity peaks near 39 MB (one fresh process, one BLAS thread)."""
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
        if command == "lattice" and not all(lo <= tau <= hi for tau in self.tau):
            raise ConfigError(
                f"tau values must lie in [{lo:.6g}, {hi:.6g}] on {self.group}, "
                "where tau^(r/2) and the scaled lattice sum are finite doubles"
            )
        max_order = quadrature.MAX_ORDER
        if len(self.levels) < 2 or not all(2 <= lv <= max_order for lv in self.levels):
            raise ConfigError(f"need at least two quadrature levels, each in 2..{max_order}")
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
        if command in ("sobolev-isometry", "kernel-tworoute") and not self.orders():
            raise ConfigError(f"{command} has no case to check at n = {','.join(map(str, self.n))}")
        if command == "kernel-tworoute" and self.c is not None and self.c <= spec.delta_sq:
            raise ConfigError("need c > |delta|^2 for the Sobolev kernel")
        # the matrix entries sum d^2 of the irreps up to a cutoff k
        count = lambda k: (2 * k + 1) ** spec.rank if spec.kind == "torus" else sum(m**2 for m in range(1, k + 1))
        entries = count(self.cutoff) if command in BASIS_SUITES else 0
        if entries > MAX_ENTRIES:
            fits = [k for k in range(1, self.cutoff) if count(k) <= MAX_ENTRIES]
            largest = f"the largest allowed cutoff is {fits[-1]}" if fits else f"no cutoff fits on {self.group}"
            raise ConfigError(f"{command} at cutoff {self.cutoff} checks {entries:,} matrix entries at each t, over {MAX_ENTRIES:,}; {largest}")
        return self

    @property
    def spec(self) -> groups.GroupSpec:
        return groups.parse_group(self.group)

    def quad(self) -> quadrature.QuadSpec:
        return quadrature.QuadSpec(levels=tuple(self.levels))

    def tol(self, default: float) -> float:
        """The configured tolerance, else the command's default."""
        return default if self.tolerance is None else self.tolerance

    def orders(self) -> list:
        """The configured Sobolev orders n >= 1 (n = 0 has no Sobolev identity to check)."""
        return [n for n in self.n if n >= 1]

    def c_value(self, spec: groups.GroupSpec, t: float, n: int) -> float:
        """Configured c, or the positivity threshold of phi_max(n, 1)."""
        return self.c if self.c is not None else sobolev.symbol_positivity_threshold(spec, t, max(n, 1))


def _tau_range(spec: groups.GroupSpec) -> tuple:
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

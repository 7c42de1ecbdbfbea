"""Heat kernel on K, its analytic continuation, and the K_C density nu_t.

The probabilists' normalization is used throughout: rho_t is the kernel of
exp(t*Delta/2), so the Peter-Weyl block of rho_t carries the damping factor
exp(-lambda_pi * t / 2) and integrates to one over K.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, character_from_trace
from .polar import PointKC, log_phi, norm_y, polar_compose

__all__ = ["TruncationReport", "TailBoundError", "rho_eval", "nu_t", "log_nu_t"]

MAX_CUTOFF = 4000


class TailBoundError(RuntimeError):
    """The rigorous series tail could not be brought under the tolerance."""


@dataclass(frozen=True)
class TruncationReport:
    cutoff: int
    tail_bound: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.tail_bound <= self.tolerance


def _tail_bound(spec: GroupSpec, t: float, cutoff: int, s: float) -> float:
    """Upper bound for the dropped terms of rho_t at a point with |Y| = s."""
    if spec.kind == "su2":

        def term_at(m):
            # |chi_m(x e^{iY})| <= m exp((m-1)|Y|/2); dim factor m
            return m * m * math.exp(-(m * m - 1) * t / 8.0 + (m - 1) * s / 2.0) / spec.volume

        def ratio_at(m):
            return ((m + 1) / m) ** 2 * math.exp(-(2 * m + 1) * t / 8.0 + s / 2.0)

        first = cutoff + 1
    else:
        # torus: ell-infinity shells, |n.y| <= ||n||_2 |y| <= sqrt(r) k |y|
        r = spec.rank

        def term_at(k):
            count = (2 * k + 1) ** r - (2 * k - 1) ** r
            return count * math.exp(-k * k * t / 2.0 + math.sqrt(r) * k * s) / spec.volume

        def ratio_at(k):
            return term_at(k + 1) / max(term_at(k), 1e-300)

        first = cutoff + 1

    total = 0.0
    idx = first
    while True:
        term = term_at(idx)
        ratio = ratio_at(idx)
        if ratio < 0.5:
            # geometric majorant for everything past idx
            total += term / (1.0 - ratio)
            return total
        total += term
        idx += 1
        if idx > first + MAX_CUTOFF:
            return math.inf


def _choose_cutoff(spec: GroupSpec, t: float, s: float, tol: float) -> int:
    cutoff = 1
    while cutoff <= MAX_CUTOFF:
        if _tail_bound(spec, t, cutoff, s) <= tol:
            return cutoff
        cutoff = cutoff * 2 if cutoff < 32 else cutoff + 32
    raise TailBoundError(f"no cutoff up to {MAX_CUTOFF} meets tolerance {tol:.3e} at |Y|={s:.3f}")


def rho_eval(spec: GroupSpec, t: float, p: PointKC, tol: float = 1e-10):
    """Analytically continued heat kernel rho_t(x e^{iY}), with tail report."""
    if t <= 0:
        raise ValueError("t must be positive")
    s = norm_y(p.y)
    cutoff = _choose_cutoff(spec, t, s, tol)
    tail = _tail_bound(spec, t, cutoff, s)

    if spec.kind == "torus":
        z = np.asarray(p.x, dtype=float) + 1j * p.y
        total = 1.0 + 0.0j
        for zj in z:
            fac = 1.0 + 0.0j
            for n in range(1, cutoff + 1):
                fac += math.exp(-n * n * t / 2.0) * (cmath.exp(1j * n * zj) + cmath.exp(-1j * n * zj))
            total *= fac
        value = total / spec.volume
    else:
        g = polar_compose(spec, p)
        half_trace = 0.5 * (g[0, 0] + g[1, 1])
        value = 0.0 + 0.0j
        for m in range(1, cutoff + 1):
            value += m * math.exp(-(m * m - 1) * t / 8.0) * character_from_trace(m, half_trace)
        value /= spec.volume
    return value, TruncationReport(cutoff, tail, tol)


def nu_t(spec: GroupSpec, t: float, y):
    """Gangolli density: c_t Phi(Y) exp(-|Y|^2/t), c_t = (pi t)^{-d/2} e^{-|delta|^2 t},
    as exp(log_nu_t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return np.exp(log_nu_t(spec, t, y))


def log_nu_t(spec: GroupSpec, t: float, y):
    """log nu_t(Y) at one point (a float) or on an (N, dim) batch (an (N,) array)."""
    y = np.asarray(y, dtype=float)
    s2 = np.sum(y * y, axis=-1)
    ct = -0.5 * spec.dim * math.log(math.pi * t) - spec.delta_sq * t
    return ct + log_phi(spec, y) - s2 / t

"""Heat kernel on K, its analytic continuation, and the K_C density nu_t.

The probabilists' normalization is used throughout: rho_t is the kernel of
exp(t*Delta/2), so the Peter-Weyl block of rho_t carries the damping factor
exp(-lambda_pi * t / 2) and integrates to one over K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec
from .polar import abs_y, log_phi

__all__ = ["TruncationReport", "TailBoundError", "rho_eval", "log_nu_t"]

MAX_CUTOFF = 4000


class TailBoundError(RuntimeError):
    """The rigorous series tail could not be brought under the tolerance."""


@dataclass(frozen=True)
class TruncationReport:
    cutoff: int
    tail_bound: float
    tolerance: float


def _tail_bound(spec: GroupSpec, t: float, cutoff: int, s: float) -> float:
    """Upper bound for the dropped terms of rho_t at a point with |Y| = s."""
    if spec.kind == "su2":

        def term_at(m):
            # |chi_m(x e^{iY})| <= m exp((m-1)|Y|/2); dim factor m
            return m * m * math.exp(-(m * m - 1) * t / 8.0 + (m - 1) * s / 2.0) / spec.volume

        def ratio_at(m):
            return ((m + 1) / m) ** 2 * math.exp(-(2 * m + 1) * t / 8.0 + s / 2.0)

    else:
        # torus: ell-infinity shells, |n.y| <= ||n||_2 |y| <= sqrt(r) k |y|
        r = spec.rank

        def term_at(k):
            count = (2 * k + 1) ** r - (2 * k - 1) ** r
            return count * math.exp(-k * k * t / 2.0 + math.sqrt(r) * k * s) / spec.volume

        def ratio_at(k):
            return term_at(k + 1) / max(term_at(k), 1e-300)

    total = 0.0
    for idx in range(cutoff + 1, cutoff + 2 + MAX_CUTOFF):
        try:
            term, ratio = term_at(idx), ratio_at(idx)
        except OverflowError:  # a term past the double range: no finite bound
            return math.inf
        if ratio < 0.5:
            # geometric majorant for everything past idx
            return total + term / (1.0 - ratio)
        total += term
    return math.inf


def _choose_cutoff(spec: GroupSpec, t: float, s: float, tol: float):
    """(cutoff, tail bound): the first cutoff of the ladder whose tail bound meets tol."""
    cutoff = 1
    while cutoff <= MAX_CUTOFF:
        bound = _tail_bound(spec, t, cutoff, s)
        if bound <= tol:
            return cutoff, bound
        cutoff = cutoff * 2 if cutoff < 32 else cutoff + 32
    raise TailBoundError(f"no cutoff up to {MAX_CUTOFF} meets tolerance {tol:.3e} at |Y|={s:.3f}")


def _recurrence(h, prev, cur, count: int):
    """c_1, ..., c_count of c_{m+1} = 2h c_m - c_{m-1} from the seeds c_0 =
    prev and c_1 = cur, one at a time: each term is yielded before the next
    is formed, so none past c_count is.

    At h = cos w (an array) the seeds (0, 1) give c_m = U_{m-1}(h) = sin(m
    w)/sin w, the SU(2) character chi_m at the half-trace h; nothing is
    divided, so h = +-1 is no special case.  The seeds (2, 2h) give c_m =
    2 T_m(h) = 2 cos(m w), the character sum e^{imw} + e^{-imw} of a torus
    axis.
    """
    yield cur
    for _ in range(count - 1):
        prev, cur = cur, 2.0 * h * cur - prev
        yield cur


def _theta_product(tau, g, cutoff: int):
    """prod over the axes of 1 + sum_{m=1..cutoff} e^{-m^2 tau/2} 2 cos(m g_k),
    over the broadcast batch of tau and the (..., r) batch g, one axis at a
    time with 2 cos(m g_k) from _recurrence."""
    damp = [np.exp(-m * m * tau / 2.0) for m in range(1, cutoff + 1)]
    total = 1.0
    for k in range(g.shape[-1]):
        h = np.cos(g[..., k])
        axis = 1.0
        for d, c in zip(damp, _recurrence(h, 2.0, 2.0 * h, cutoff)):
            axis = axis + d * c
        total = total * axis
    return total


def _shell_sums(g, cutoff: int):
    """T[..., lam] = sum of e^{i n.g} over the labels n of the box [-cutoff,
    cutoff]^r with |n|^2 = lam, lam = 0..r cutoff^2, built one axis at a
    time: from T = delta_0, axis k adds 2 cos(m g_k) T[lam - m^2] for m =
    1..cutoff to each T[lam] (the shells of the axes done so far reach k
    cutoff^2), with 2 cos(m g_k) from _recurrence."""
    rank = g.shape[-1]
    shells = np.zeros(g.shape[:-1] + (rank * cutoff * cutoff + 1,), dtype=complex)
    shells[..., 0] = 1.0
    for k in range(rank):
        reach = k * cutoff * cutoff + 1
        prev = shells[..., :reach].copy()
        h = np.cos(g[..., k, None])
        for m, c in enumerate(_recurrence(h, 2.0, 2.0 * h, cutoff), start=1):
            shells[..., m * m : m * m + reach] += c * prev
    return shells


def _series(spec: GroupSpec, tau, g, cutoff: int, weight=None):
    """sum over labels up to the cutoff of dim e^{-lam tau/2} weight(lam) chi(g) / vol K.

    g is a batch of K_C elements ((..., 2, 2) on SU(2), (..., r) complex on
    a torus) and tau an array that broadcasts against the batch; weight
    maps eigenvalues to factors (None means 1).  Every character comes from
    the one recurrence _recurrence: chi_m at the half-trace on SU(2), and
    2 cos(m g_k) per torus axis.  An unweighted torus sum is the product of
    its 1-D theta sums over the axes (_theta_product); a weighted one sees
    a label n only through lam = |n|^2, so it sums the shell sums of the
    label box (_shell_sums).  Each batch element has the bits of its batch
    of one.  A sum that overflows raises FloatingPointError instead of
    returning inf or nan.
    """
    tau = np.asarray(tau, dtype=float)
    with np.errstate(over="raise", invalid="raise"):
        if spec.kind == "su2":
            h = 0.5 * (g[..., 0, 0] + g[..., 1, 1])
            total = 0.0
            for m, chi in enumerate(_recurrence(h, np.zeros_like(h), np.ones_like(h), cutoff), start=1):
                lam = (m * m - 1) / 4.0
                total = total + m * np.exp(-lam * tau / 2.0) * (1.0 if weight is None else weight(lam)) * chi
        elif weight is None:
            total = _theta_product(tau, g, cutoff)
        else:
            shells = _shell_sums(g, cutoff)
            lam = np.arange(shells.shape[-1])
            total = np.sum(np.exp(-lam * tau[..., None] / 2.0) * weight(lam) * shells, axis=-1)
    return total / spec.volume


def _sum_series(spec: GroupSpec, tau, g, tol: float, weight=None):
    """_series at the cutoff whose tail bound, at the smallest tau and the
    largest |Y| of the batch, meets tol.  Returns (value, TruncationReport);
    an overflow is re-raised with the cutoff, the smallest tau and the
    largest |Y|."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau > 0):
        raise ValueError("t must be positive")
    t_min = float(np.min(tau))
    s = float(np.max(abs_y(spec, g)))
    cutoff, bound = _choose_cutoff(spec, t_min, s, tol)
    try:
        value = _series(spec, tau, g, cutoff, weight)
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"heat series overflowed at cutoff {cutoff}, smallest t {t_min:.6g}, largest |Y| {s:.6g} ({exc})"
        ) from exc
    return value, TruncationReport(cutoff, bound, tol)


def rho_eval(spec: GroupSpec, t, g, tol: float = 1e-10):
    """Analytically continued heat kernel rho_t(g) at K_C elements, with tail report.

    g is a batch ((..., 2, 2) on SU(2), (..., r) complex on a torus) and t
    an array of times that broadcasts against it; the value is an array of
    the broadcast shape.  One cutoff, taken at the largest |Y| and the
    smallest t, serves the whole batch, so the report bounds the tail at
    every point.
    """
    return _sum_series(spec, t, g, tol)


def log_nu_t(spec: GroupSpec, t: float, y):
    """log nu_t(Y) on an (N, dim) batch of points, an (N,) array.

    nu_t is the Gangolli density c_t Phi(Y) exp(-|Y|^2/t) on the Lie
    algebra, c_t = (pi t)^{-d/2} e^{-|delta|^2 t}.
    """
    y = np.asarray(y, dtype=float)
    s2 = np.sum(y * y, axis=-1)
    ct = -0.5 * spec.dim * math.log(math.pi * t) - spec.delta_sq * t
    return ct + log_phi(spec, y) - s2 / t

"""Coherent states and reproducing kernels.

k_t(g,h) = rho_{2t}(g h^*) reproduces point evaluation on the holomorphic
L^2 space; the Sobolev kernel k_t^{2n} = (cI - Delta)^{-2n} rho_{2t} is
computed by two independent routes (blockwise spectral factors, and the
Gamma-integral over shifted heat kernels) whose agreement is itself one of
the verification targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, rep_matrix_batch
from .heat import _sum_series, rho_eval
from .polar import PointKC, polar_compose
from .quadrature import QuadSpec, integrate_laguerre
from .transform import HoloFunc, _integrate_profiles

__all__ = [
    "KernelQuery",
    "pair_point",
    "k_sobolev_spectral",
    "k_sobolev_integral",
    "reproduce_check",
]


@dataclass(frozen=True)
class KernelQuery:
    """Kernel at (g, h), or at each pair of a batch: g and h then carry one
    leading axis of the same length."""

    g: PointKC
    h: PointKC
    t: float
    n: int = 0
    c: float = 1.0

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.n >= 1 and self.c <= self.g.spec.delta_sq:
            raise ValueError("need c > |delta|^2 for the Sobolev kernel")

    @property
    def spec(self) -> GroupSpec:
        return self.g.spec


def pair_point(spec: GroupSpec, g: PointKC, h: PointKC):
    """The element g h^* of K_C: G H^* on SU(2), z_g - conj(z_h) on a torus,
    where (x + iy)^* = -x + iy.  For batches of points, one element per pair."""
    gm, hm = polar_compose(spec, g), polar_compose(spec, h)
    if spec.kind == "torus":
        return gm - np.conj(hm)
    return gm @ np.swapaxes(hm.conj(), -1, -2)


def k_sobolev_spectral(query: KernelQuery):
    """Blockwise route: sum_pi (dim/vol) e^{-lambda t} (c+lambda)^{-2n} chi_pi(gh^*),
    cut where the series' tail bound meets 1e-10.

    A complex for one pair, an array for a batch (one cutoff for the batch).
    """
    spec = query.spec
    gh = pair_point(spec, query.g, query.h)
    value = _sum_series(spec, 2.0 * query.t, gh, 1e-10, lambda lam: (query.c + lam) ** (-2 * query.n))[0]
    return complex(value) if np.ndim(value) == 0 else value


def k_sobolev_integral(query: KernelQuery, q: QuadSpec | None = None):
    """Gamma-integral route:

    k_t^{2n}(g,h) = 1/(2n-1)! * int_0^inf s^{2n-1} e^{-cs} rho_{2(t+s)}(gh^*) ds,

    on integrate_laguerre's rule for a singularity at s = -t, with one
    rho_eval call (at its tail tolerance 1e-10) per level, on all of its
    nodes (and on every pair of a batch: value and gap are then arrays).
    """
    if query.n < 1:
        raise ValueError("the integral route needs n >= 1")
    spec = query.spec
    gh = pair_point(spec, query.g, query.h)
    batched = query.g.y.ndim > 1

    def f(s):
        # on a batch the nodes run down the rows and the pairs along the columns
        return rho_eval(spec, 2.0 * (query.t + (s[:, None] if batched else s)), gh)[0]

    res = integrate_laguerre(query.c, query.n, f, query.t, q)
    return res.value / math.factorial(2 * query.n - 1), res


def reproduce_check(F, g: PointKC, q: QuadSpec):
    """Relative residual of the reproducing identity at g, and its level gap:

    |F(g) - int k_t(g,h) F(h) nu_t(h) dh| / (1 + |F(g)|).

    The K-part of the h-integral is exact (Schur), leaving one k-space
    quadrature of sum_pi e^{-lambda t} trace(pi(g e^{2iY}) B_pi).  The mean
    of e^{-lambda t} pi(e^{2iY}) is the identity (the sphere mean
    chi_m(|Y|)/m on SU(2), the shifted Gaussian on a torus), so label pi
    contributes trace(pi(g) B_pi) times the sum of its profile a (which
    should be exactly 1).  Returns (residual, gap), the gap between the two
    finest levels relative to the larger of them and the residual's scale
    1 + |F(g)|; arrays with each pair's one-call bits when g is a batch of
    points (one leading axis) and F one function or one per point.
    """
    spec, size = g.spec, (len(g.y) if g.y.ndim > 1 else None)
    g_mats = polar_compose(spec, g if size is not None else PointKC(spec, g.x[None], g.y[None]))
    Fs = [F] * len(g_mats) if isinstance(F, HoloFunc) else list(F)
    if len(Fs) != len(g_mats):
        raise ValueError("need one function per point")
    fg, terms = np.empty(len(Fs), dtype=complex), []
    for G in {id(G): G for G in Fs}.values():  # each function on all of its points at once
        idx = [i for i, H in enumerate(Fs) if H is G]
        fg[idx] = G.coefs.eval_k_batch(g_mats[idx])
        for label, block in sorted(G.coefs.entries.items()):
            traces = np.trace(rep_matrix_batch(spec, label, g_mats[idx]) @ block, axis1=1, axis2=2)
            terms += [(i, label, tr, 1.0) for i, tr in zip(idx, traces)]
    fg = fg.tolist()
    scale = [1.0 + abs(v) for v in fg]
    res = _integrate_profiles(spec, Fs[0].t, q, terms, size, floor=scale[0] if size is None else scale)
    residual = [abs(v - w) / s for v, w, s in zip(fg, np.atleast_1d(res.value).tolist(), scale)]
    return (residual[0], res.gap) if size is None else (np.array(residual), res.gap)

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

from . import heat
from .groups import GroupSpec
from .quadrature import QuadSpec, integrate_laguerre
from .transform import _integrate_profiles

__all__ = [
    "KernelQuery",
    "pair_point",
    "k_sobolev_spectral",
    "k_sobolev_integral",
    "reproduce_check",
]


@dataclass(frozen=True)
class KernelQuery:
    """Kernel k_t^{2n}(g, h) at each pair element gh = g h^* of a batch
    (pair_point of two element batches; one pair is a batch of one)."""

    spec: GroupSpec
    gh: np.ndarray
    t: float
    n: int = 0
    c: float = 1.0

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.n >= 1 and self.c <= self.spec.delta_sq:
            raise ValueError("need c > |delta|^2 for the Sobolev kernel")


def pair_point(spec: GroupSpec, g, h):
    """The element g h^* of K_C: G H^* on SU(2), z_g - conj(z_h) on a torus,
    where (x + iy)^* = -x + iy.  One element per pair of the two element
    batches."""
    if spec.kind == "torus":
        return g - np.conj(h)
    return g @ np.swapaxes(h.conj(), -1, -2)


def k_sobolev_spectral(query: KernelQuery):
    """Blockwise route: sum_pi (dim/vol) e^{-lambda t} (c+lambda)^{-2n} chi_pi(gh^*),
    cut where the series' tail bound meets 1e-10: one value per pair, at
    one cutoff for the batch.
    """
    return heat._sum_series(query.spec, 2.0 * query.t, query.gh, 1e-10, lambda lam: (query.c + lam) ** (-2 * query.n))[0]


def k_sobolev_integral(query: KernelQuery, q: QuadSpec | None = None):
    """Gamma-integral route:

    k_t^{2n}(g,h) = 1/(2n-1)! * int_0^inf s^{2n-1} e^{-cs} rho_{2(t+s)}(gh^*) ds,

    on integrate_laguerre's rule for a singularity at s = -t, with one
    rho_eval call (at its tail tolerance 1e-10) per level, on all of its
    nodes and every pair: value and gap hold one entry per pair.
    """
    if query.n < 1:
        raise ValueError("the integral route needs n >= 1")

    def f(s):
        # the nodes run down the rows and the pairs along the columns
        return heat.rho_eval(query.spec, 2.0 * (query.t + s[:, None]), query.gh)[0]

    res = integrate_laguerre(query.c, query.n, f, query.t, q)
    return res.value / math.factorial(2 * query.n - 1), res


def reproduce_check(Fs, g, q: QuadSpec):
    """Relative residual of the reproducing identity for each function F of
    the sequence Fs at each element g of a batch of K_C (one leading axis),
    and its level gap:

    |F(g) - int k_t(g,h) F(h) nu_t(h) dh| / (1 + |F(g)|).

    The K-part of the h-integral is exact (Schur), leaving one k-space
    quadrature of sum_pi e^{-lambda t} F_pi(g e^{2iY}), F_pi the label traces
    of F.  The mean of e^{-lambda t} pi(e^{2iY}) is the identity (the sphere
    mean chi_m(|Y|)/m on SU(2), the shifted Gaussian on a torus), so label
    pi contributes F_pi(g) times the sum of its profile a (which should be
    exactly 1, the rule's scale and lambda met in one exponent).  Returns (residual, gap), each of shape (len(Fs),
    len(g)), the gap between the two finest levels relative to the larger
    of them and the residual's scale 1 + |F(g)|; each entry has the bits of
    its batch of one.
    """
    Fs = list(Fs)
    shape = (len(Fs), len(g))
    fg, terms = np.zeros(shape, dtype=complex), []
    for i, F in enumerate(Fs):
        for label, traces in sorted(F.label_traces(g).items()):
            fg[i] += traces
            terms += [(i * len(g) + k, label, tr) for k, tr in enumerate(traces)]
    fg = fg.ravel().tolist()
    scale = [1.0 + abs(v) for v in fg]
    res = _integrate_profiles(Fs[0].spec, Fs[0].t, q, terms, len(fg), floor=scale)
    residual = [abs(v - w) / s for v, w, s in zip(fg, res.value.tolist(), scale)]
    return np.reshape(residual, shape), res.gap.reshape(shape)

"""Lattice-sum machinery and the growth-functional smoothness diagnostic.

The lattice sums a_tau over the kernel lattice (intersected with the closed
Weyl chamber) scale like tau^{r/2}; their sup quotient alpha_t feeds a
pointwise envelope for the analytically continued heat kernel.  The growth
functional G_n measures sup |F|^2 (1+|Y|^2)^{2n} / (Phi e^{|Y|^2/t}) on a
polar grid and classifies smoothness by stability under radius doubling.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .groups import GroupSpec
from .heat import rho_eval
from .polar import exp_iy_batch, log_phi
from .transform import HoloFunc

__all__ = [
    "lattice_points",
    "lattice_sum",
    "lattice_limit_check",
    "alpha_t_estimate",
    "polar_grid",
    "growth_functional",
    "smoothness_report",
    "kernel_bound_check",
]

GRID_BLOCK = 1024  # growth-functional grid points whose group elements are formed at once
GRID_RADIUS = 6.0  # smoothness_report's radius; it also evaluates twice that


def lattice_points(spec: GroupSpec, radius: float) -> np.ndarray:
    """Kernel-lattice points in the closed chamber with |gamma| <= radius.

    Torus: the full lattice (2 pi Z)^r (no roots, so no chamber cut).
    SU(2): the nonnegative half of 4 pi Z in the rank-1 torus direction.
    """
    step = spec.lattice_step
    if spec.kind == "torus":
        kmax = int(math.floor(radius / step))
        axes = [step * np.arange(-kmax, kmax + 1)] * spec.rank
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return pts[np.linalg.norm(pts, axis=1) <= radius]
    kmax = int(math.floor(radius / step))
    return (step * np.arange(0, kmax + 1)).reshape(-1, 1)


def lattice_sum(spec: GroupSpec, tau: float) -> float:
    """sum over chamber lattice points of e^{-|gamma|^2/tau}.

    The radius doubles until the sum is stable to 1e-12 relative (Gaussian
    tails decay fast enough that two levels suffice).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")

    def partial(radius: float) -> float:
        pts = lattice_points(spec, radius)
        norms = np.linalg.norm(pts, axis=1)
        terms = np.exp(-(norms**2) / tau)
        if spec.kind == "su2":
            # chamber-wall points are shared between Weyl reflections and
            # count half, which is what makes the tau->inf limit match the
            # chamber integral
            terms = np.where(norms == 0.0, 0.5 * terms, terms)
        return float(np.sum(terms))

    radius = 8.0 * math.sqrt(tau) + spec.lattice_step
    value = partial(radius)
    for _ in range(40):
        radius *= 2.0
        refined = partial(radius)
        if abs(refined - value) <= 1e-12 * max(abs(refined), 1.0):
            return refined
        value = refined
    raise RuntimeError("lattice sum failed to stabilize")


def _chamber_gaussian_integral(spec: GroupSpec) -> float:
    """(1/A) int over the closed chamber of e^{-|x|^2} dx,

    A = covolume of the lattice.  In polar form the radial factor is
    int_0^inf rho^{r-1} e^{-rho^2} d rho = Gamma(r/2) / 2.
    """
    r = spec.rank
    radial = 0.5 * math.gamma(r / 2.0)
    step = spec.lattice_step
    if spec.kind == "torus":
        surface = 2.0 * math.pi ** (r / 2.0) / math.gamma(r / 2.0)
        return surface * radial / step**r
    # rank-1 half-line chamber
    return radial / step


def lattice_limit_check(spec: GroupSpec, tau_list):
    """Rows (tau, tau^{-r/2} * lattice_sum, target, relative gap)."""
    target = _chamber_gaussian_integral(spec)
    rows = []
    for tau in tau_list:
        scaled = lattice_sum(spec, tau) / tau ** (spec.rank / 2.0)
        rows.append((tau, scaled, target, abs(scaled - target) / abs(target)))
    return rows


def alpha_t_estimate(spec: GroupSpec, t: float) -> float:
    """Empirical sup of lattice_sum(tau) / tau^{r/2} over tau = t 2^k, k = 0..8."""
    if t <= 0:
        raise ValueError("t must be positive")
    return max(lattice_sum(spec, tau) / tau ** (spec.rank / 2.0) for tau in (t * 2.0**k for k in range(9)))


def _unit_directions(dim: int, n_angular: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(n_angular) / n_angular
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if dim == 3:
        ct = np.linspace(-1.0, 1.0, n_angular)
        ph = 2.0 * math.pi * np.arange(n_angular) / n_angular
        st = np.sqrt(np.clip(1.0 - ct**2, 0.0, None))
        return np.stack(
            [
                np.outer(st, np.cos(ph)).ravel(),
                np.outer(st, np.sin(ph)).ravel(),
                np.outer(ct, np.ones(n_angular)).ravel(),
            ],
            axis=-1,
        )
    rng = random.Random(0)
    dirs = np.array([[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(n_angular * n_angular)])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def polar_grid(spec: GroupSpec, radius: float, n_radial: int = 40, n_angular: int = 16) -> np.ndarray:
    """Radial x angular evaluation grid over the Lie algebra, origin included."""
    radii = radius * (np.arange(1, n_radial + 1) / n_radial)
    dirs = _unit_directions(spec.dim, n_angular)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, spec.dim)
    return np.vstack([np.zeros((1, spec.dim)), pts])


def growth_functional(F: HoloFunc, t: float, orders, grid: np.ndarray):
    """sup over the grid of |F(e^{iY})|^2 (1+|Y|^2)^{2n} / (Phi(Y) e^{|Y|^2/t})
    for each order n of a sequence.

    Worked in log space.  F (in blocks of GRID_BLOCK points), |Y|^2 and
    log Phi are evaluated once; returns a list with one (value, argmax Y)
    per order.
    """
    spec = F.spec
    blocks = [grid[i : i + GRID_BLOCK] for i in range(0, len(grid), GRID_BLOCK)]
    vals = np.concatenate([F.coefs.eval_k_batch(exp_iy_batch(spec, block)) for block in blocks])
    u = np.sum(grid**2, axis=1)
    log_env = log_phi(spec, grid) + u / t
    with np.errstate(divide="ignore"):
        log_f2 = 2.0 * np.log(np.abs(vals))
    log_w = np.log1p(u)
    sups = []
    for order in orders:
        logs = log_f2 + 2.0 * order * log_w - log_env
        i = int(np.argmax(logs))
        sups.append((float(np.exp(logs[i])), grid[i]))
    return sups


def smoothness_report(F: HoloFunc, t: float, n_max: int = 4) -> list:
    """Rows (n, radius, G_n, stable) for n = 0..n_max, sorted, on the polar
    grids of radius GRID_RADIUS and its double; order n is stable when its
    two growth functionals agree to 10% of the value at GRID_RADIUS."""
    radii = (GRID_RADIUS, 2.0 * GRID_RADIUS)
    orders = range(n_max + 1)
    base, double = ([value for value, _ in growth_functional(F, t, orders, polar_grid(F.spec, r))] for r in radii)
    rows = []
    for n in orders:
        stable = abs(double[n] - base[n]) <= 0.10 * max(base[n], 1e-300)
        rows += [(n, radii[0], base[n], stable), (n, radii[1], double[n], stable)]
    return rows


def kernel_bound_check(spec: GroupSpec, t: float):
    """Envelope consistency of the analytically continued heat kernel:

    rho_{2 tau}(g g^*) <= alpha_t tau^{(r-d)/2} e^{|delta|^2 tau}
                          e^{|Y|^2/tau} Phi(Y) (1 + slack)

    for tau = t, 2t, 4t and slack 0.05, on the radius-4 polar grid of 16
    radii by 8 angles, with g = e^{iY} (so g g^* = e^{2iY}).  Returns one
    row (tau, max ratio of left side to the slack-free bound, ratio <= 1 +
    slack) per tau.
    """
    alpha = alpha_t_estimate(spec, t)
    ys = polar_grid(spec, 4.0, n_radial=16, n_angular=8)
    g2 = exp_iy_batch(spec, 2.0 * ys)
    u, log_phis = np.sum(ys**2, axis=1), log_phi(spec, ys)
    rows = []
    for tau in (t, 2.0 * t, 4.0 * t):
        value, _ = rho_eval(spec, 2.0 * tau, g2)
        log_bound = (
            math.log(alpha) + (spec.rank - spec.dim) / 2.0 * math.log(tau) + spec.delta_sq * tau + u / tau + log_phis
        )
        rows.append((tau, float(np.max(np.abs(value) / np.exp(log_bound)))))
    return [(tau, worst, worst <= 1.05) for tau, worst in rows]

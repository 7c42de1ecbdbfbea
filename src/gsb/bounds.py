"""Chamber lattice sums and the growth-functional smoothness diagnostic.

The lattice sum a_tau of e^{-|gamma|^2/tau} over the kernel lattice in the
closed Weyl chamber is h theta(tau)^r, theta a 1-D Jacobi theta series; a_tau
/ tau^{r/2} falls to the chamber Gaussian integral as tau grows, so its sup
alpha_t over tau >= t is its value at tau = t, which feeds a pointwise
envelope for the analytically continued heat kernel.  The growth functional
G_n measures sup |F|^2 (1+|Y|^2)^{2n} / (Phi e^{|Y|^2/t}) on a polar grid and
classifies smoothness by stability under radius doubling; for F = C_t of a
sum of characters, a class function, F's values are a finite heat series.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import heat
from .groups import GroupSpec
from .polar import exp_iy_batch, log_phi

__all__ = [
    "lattice_sum",
    "lattice_limit_check",
    "alpha_t_estimate",
    "polar_grid",
    "growth_functional",
    "smoothness_report",
    "kernel_bound_check",
]

GRID_RADIUS = 6.0  # smoothness_report's radius; it also evaluates twice that


def _chamber_share(spec: GroupSpec) -> float:
    """h: 1 on a torus (no roots: the whole lattice (2 pi Z)^r); 1/2 on SU(2),
    whose half line of 4 pi Z counts its wall point gamma = 0 half."""
    return 1.0 if spec.kind == "torus" else 0.5


def lattice_sum(spec: GroupSpec, tau: float) -> float:
    """sum over chamber lattice points of e^{-|gamma|^2/tau} = h theta^r with
    theta = sum_{k in Z} e^{-b k^2}, b = step^2/tau, to 2^-60 per factor.

    Jacobi's theta = sqrt(pi/b) sum_j e^{-pi^2 j^2/b} trades b < pi for pi^2/b
    > pi, so the series summed has b >= pi and keeps K = ceil(sqrt(ln 2^60 /
    b)) <= 4 terms a side.  As e^{-b x^2} falls, each side's terms past K sum
    to at most int_K^inf e^{-b x^2} dx <= sqrt(pi/b) e^{-b K^2}/2 (by (u + d)^2
    >= u^2 + d^2), and e^{-b K^2} <= 2^-60; by Jacobi again theta >=
    sqrt(pi/b), so the two sides drop at most 2^-60 theta.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    b, scale = spec.lattice_step**2 / tau, 1.0
    if b < math.pi:
        b, scale = math.pi**2 / b, math.sqrt(math.pi / b)
    K = math.ceil(math.sqrt(60.0 * math.log(2.0) / b))
    theta = scale * (1.0 + 2.0 * math.fsum(math.exp(-b * k * k) for k in range(1, K + 1)))
    return _chamber_share(spec) * theta**spec.rank


def lattice_limit_check(spec: GroupSpec, tau_list):
    """Rows (tau, tau^{-r/2} * lattice_sum, target, relative gap); the target
    (1/A) int over the closed chamber of e^{-|x|^2} dx is h pi^{r/2} / step^r,
    A = step^r the covolume of the lattice."""
    target = _chamber_share(spec) * math.pi ** (spec.rank / 2.0) / spec.lattice_step**spec.rank
    scaled = [(tau, lattice_sum(spec, tau) / tau ** (spec.rank / 2.0)) for tau in tau_list]
    return [(tau, value, target, abs(value - target) / abs(target)) for tau, value in scaled]


def alpha_t_estimate(spec: GroupSpec, t: float) -> float:
    """alpha_t = sup over tau >= t of lattice_sum(tau) / tau^{r/2} = h (theta(tau)
    / sqrt(tau))^r, its value at tau = t: by Jacobi, theta(tau) / sqrt(tau) =
    (sqrt(pi)/step) (1 + 2 sum_{j >= 1} e^{-pi^2 tau j^2/step^2}) falls as tau grows.
    A FloatingPointError names t when t^{r/2} underflows to 0 or alpha_t is
    not a finite double."""
    scale = t ** (spec.rank / 2.0)
    alpha = lattice_sum(spec, t) / scale if scale > 0 else math.inf
    if not math.isfinite(alpha):
        raise FloatingPointError(f"alpha_t is not a finite double at t = {t:g} on rank {spec.rank}")
    return alpha


def _unit_directions(dim: int, n_angular: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(n_angular) / n_angular
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if dim == 3:
        # n_angular azimuths on each circle of latitude between the poles;
        # each pole is one direction
        ct = np.linspace(-1.0, 1.0, n_angular)[1:-1]
        ph = 2.0 * math.pi * np.arange(n_angular) / n_angular
        st = np.sqrt(1.0 - ct**2)
        circles = np.stack([np.outer(st, np.cos(ph)).ravel(), np.outer(st, np.sin(ph)).ravel(), np.repeat(ct, n_angular)], axis=-1)
        return np.vstack([[0.0, 0.0, -1.0], circles, [0.0, 0.0, 1.0]])
    rng = random.Random(0)
    dirs = np.array([[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(n_angular * n_angular)])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def polar_grid(spec: GroupSpec, radius: float, n_radial: int = 40, n_angular: int = 16) -> np.ndarray:
    """Radial x angular evaluation grid over the Lie algebra, origin included."""
    radii = radius * (np.arange(1, n_radial + 1) / n_radial)
    dirs = _unit_directions(spec.dim, n_angular)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, spec.dim)
    return np.vstack([np.zeros((1, spec.dim)), pts])


def growth_functional(spec: GroupSpec, t: float, values: np.ndarray, orders, grid: np.ndarray):
    """sup over the grid of |F(e^{iY})|^2 (1+|Y|^2)^{2n} / (Phi(Y) e^{|Y|^2/t})
    for each order n of a sequence, given F's values on the grid.

    Worked in log space.  |Y|^2 and log Phi are evaluated once; returns a
    list with one (value, argmax Y) per order.
    """
    u = np.sum(grid**2, axis=1)
    log_env = log_phi(spec, grid) + u / t
    log_w = np.log1p(u)
    sups = []
    with np.errstate(divide="ignore", over="ignore"):  # F = 0 has log -inf; a sup past the doubles is inf
        log_f2 = 2.0 * np.log(np.abs(values))
        for order in orders:
            logs = log_f2 + 2.0 * order * log_w - log_env
            i = int(np.argmax(logs))
            sups.append((float(np.exp(logs[i])), grid[i]))
    return sups


def _character_series(spec: GroupSpec, t: float, cutoff: int, grid: np.ndarray) -> np.ndarray:
    """F = sum over labels up to the cutoff of e^{-lambda t/2} chi at e^{iY}, Y
    on the grid: vol times heat._series at tau = t, weighted 1/dim (dim =
    sqrt(4 lambda + 1)) on SU(2); nan where either overflows.  F is a class
    function, so on SU(2) it takes e^{iY} as its conjugate diag(e^{|Y|/2},
    e^{-|Y|/2}), a real array without exp_iy_batch's complex temporaries."""
    if spec.kind == "su2":
        g = np.exp(np.multiply.outer(np.linalg.norm(grid, axis=1), [0.5, -0.5]))[..., None] * np.eye(2)
        weight = lambda lam: 1.0 / math.sqrt(4.0 * lam + 1.0)
    else:
        g, weight = exp_iy_batch(spec, grid), None
    try:
        return spec.volume * heat._series(spec, t, g, cutoff, weight)
    except FloatingPointError:  # the series overflows, as on torus:1 at cutoff 64 and radius 12
        return np.full(len(grid), math.nan)


def smoothness_report(spec: GroupSpec, t: float, cutoff: int, n_max: int = 4) -> list:
    """Rows (n, radius, G_n, stable) for n = 0..n_max, sorted, of C_t of the
    sum of the characters up to the cutoff, one _character_series per polar
    grid, of radius GRID_RADIUS and its double; order n is stable when its
    two growth functionals agree to 10% of the value at GRID_RADIUS."""
    radii = (GRID_RADIUS, 2.0 * GRID_RADIUS)
    orders = range(n_max + 1)
    grids = (polar_grid(spec, r) for r in radii)  # one at a time
    base, double = ([v for v, _ in growth_functional(spec, t, _character_series(spec, t, cutoff, g), orders, g)] for g in grids)
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
    row (tau, max ratio of left side to the slack-free bound, alpha_t,
    ratio <= 1 + slack) per tau.
    """
    alpha = alpha_t_estimate(spec, t)
    ys = polar_grid(spec, 4.0, n_radial=16, n_angular=8)
    g2 = exp_iy_batch(spec, 2.0 * ys)
    u, log_phis = np.sum(ys**2, axis=1), log_phi(spec, ys)
    rows = []
    for tau in (t, 2.0 * t, 4.0 * t):
        value, _ = heat.rho_eval(spec, 2.0 * tau, g2)
        log_scale = math.log(alpha) + (spec.rank - spec.dim) / 2.0 * math.log(tau) + spec.delta_sq * tau
        worst = float(np.max(np.abs(value) / np.exp(log_scale + u / tau + log_phis)))
        rows.append((tau, worst, alpha, worst <= 1.05))
    return rows

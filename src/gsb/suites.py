"""The verify suites: each checks one identity of the paper at one time t
and yields its rows (case-id, lhs, rhs, rel-err, tol, pass, gap) in blocks,
lists of rows that the report takes as they come.  The basis suites
(unitarity, sobolev-isometry and weighted-norm) yield one block per
BLOCK-entry block of the matrix-entry basis, so they hold one block's rows,
not the whole basis's; the others yield all their rows as one block.

SUITES maps each suite's name to its rows function and default tolerance.
"""

from __future__ import annotations

import math
import random
from itertools import chain, islice

import numpy as np

from . import heat, kernels, sobolev
from .coeffs import basis_entry
from .config import RunConfig
from .groups import GroupSpec, enumerate_irreps, irrep_dim, random_algebra, random_k
from .polar import log_phi, polar_compose
from .quadrature import QuadSpec, integrate_levels, rel_gap, roots_legendre
from .transform import ct_forward, holo_inner

BLOCK = 4096  # matrix entries of a basis block: one holo_inner call per form, and the rows a basis suite holds


def _basis(spec: GroupSpec, cutoff: int):
    """Matrix-entry basis up to the label cutoff, in label order: (case id,
    entry (label, i, j)), the entry pi_ij of the label, as holo_inner takes
    it, in blocks of whole labels, each of at least BLOCK entries but the last."""
    block = []
    for label in enumerate_irreps(spec, cutoff):
        d = irrep_dim(spec, label)
        block += [(f"{label}[{i},{j}]", (label, i, j)) for i in range(d) for j in range(d)]
        if len(block) >= BLOCK:
            yield block
            block = []
    if block:
        yield block


def _entry_norm(spec: GroupSpec, label, scale: float = 1.0) -> float:
    """The Plancherel norm sqrt((vol/d) |s|^2) of s times a matrix entry of the label."""
    return math.sqrt(spec.volume / irrep_dim(spec, label) * (abs(scale) * abs(scale)))


def _shifts(spec: GroupSpec, basis, n: int, c: float) -> dict:
    """The Sobolev shift's scale (c + lambda)^n on each label of the basis."""
    return {label: sobolev.shift_scale(spec, label, n, c) for label in {e[0] for _, e in basis}}


def _row(cid, lhs, rhs, err, tol, gap):
    """A verify row: it passes when both its error and its level gap are within tol."""
    return (cid, lhs, rhs, err, tol, err <= tol and gap <= tol, gap)


def _mass_level(spec: GroupSpec, t: float, radius: float, level: int) -> complex:
    """int exp(log nu_t - 2 log Phi) dY over |Y| <= R by the radial Gauss-Legendre
    rule on [0, R] with weight |S^{dim-1}| r^{dim-1}: the integrand is radial on
    every group, so it is evaluated along one unit direction with every
    coordinate nonzero (a density that ignored a coordinate would fail).  The
    weight's logarithm joins the integrand's in one exponent: on a wide torus
    r^{dim-1} and Gamma(dim/2) overflow alone, and their product with nu_t
    does not."""
    d = spec.dim
    x, w = roots_legendre(level)
    r = radius * (x + 1.0) / 2.0
    nodes = r[:, None] * np.full(d, 1.0 / math.sqrt(d))
    log_sphere = math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0)
    log_f = log_sphere + (d - 1) * np.log(r) + heat.log_nu_t(spec, t, nodes) - 2.0 * log_phi(spec, nodes)
    return np.dot(radius / 2.0 * w, np.exp(log_f))


# Each suite maps (cfg, t, tol, q) to its rows for one time t, in blocks.


def _mass_radius(spec: GroupSpec, t: float) -> float:
    """The radius R that _mass_rows integrates to: max(8 sqrt(t), sqrt((t/2)
    (d + 2 sqrt(d x) + 2x))) with x = 52 ln 2 and d = dim, plus t/2 on SU(2).

    On torus:d, nu_t is N(0, t/2) on each axis, so |Y|^2 ~ (t/2) chi^2_d,
    and |Y| >= R means chi^2_d - d >= 2 sqrt(d x) + 2x, of probability at
    most e^{-x} = 2^-52 by the chi^2 tail bound of Laurent and Massart (Ann.
    Statist. 28, 2000, Lemma 1).  8 sqrt(t) alone leaves P(chi^2_d >= 128),
    3.1e-2 of the mass on torus:100.  On SU(2) the Gaussian factor
    e^{-(r - t/2)^2/t} is below e^-64 past 8 sqrt(t) + t/2.  8 sqrt(t) is the
    larger term up to d = 12, so on torus:1-12 and SU(2) (d = 3) R is
    8 sqrt(t) (+ t/2).
    """
    x = 52.0 * math.log(2.0)
    tail = math.sqrt(t / 2.0 * (spec.dim + 2.0 * math.sqrt(spec.dim * x) + 2.0 * x))
    return max(8.0 * math.sqrt(t), tail) + (t / 2.0 if spec.kind == "su2" else 0.0)


def _mass_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    # nu_t against the polar Haar density 1/Phi^2 has total mass 1
    spec = cfg.spec
    radius = _mass_radius(spec, t)
    res = integrate_levels(q, lambda level: _mass_level(spec, t, radius, level))
    lhs = spec.volume * res.value.item().real
    yield [_row("mass", lhs, spec.volume, rel_gap(lhs, spec.volume), tol, res.gap.item())]


def _norms(res):
    """sqrt of the real part of each value of a batch of K_C forms."""
    return [math.sqrt(max(value.real, 0.0)) for value in res.value.tolist()]


def _norm_rows(prefix, basis, res, rhs, tol):
    """One row per basis function: its K_C norm from the batch res against rhs."""
    return [
        _row(prefix + cid, lhs, r, rel_gap(lhs, r), tol, gap)
        for (cid, _), lhs, r, gap in zip(basis, _norms(res), rhs, res.gap.tolist())
    ]


def _unitarity_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    for basis in _basis(spec, cfg.cutoff):
        res = holo_inner(spec, t, [(e, e, 1.0) for _, e in basis], q)
        yield _norm_rows("", basis, res, [_entry_norm(spec, e[0]) for _, e in basis], tol)


def _reproducing_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    rng = random.Random(cfg.seed)
    points = []
    for _ in range(20):
        y = random_algebra(spec, rng)
        y *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(y), 1e-12)
        points.append((random_k(spec, rng), y))
    basis = list(islice(chain.from_iterable(_basis(spec, cfg.cutoff)), 5))
    xs, ys = (np.stack(part) for part in zip(*points))
    Fs = [ct_forward(basis_entry(spec, *e), t) for _, e in basis]
    # every function at every point, function by function
    residual, gap = kernels.reproduce_check(Fs, polar_compose(spec, xs, ys), q)
    cids = [f"{cid}@p{k}" for cid, _ in basis for k in range(len(points))]
    yield [_row(cid, r, 0.0, r, tol, g) for cid, r, g in zip(cids, residual.ravel().tolist(), gap.ravel().tolist())]


def _sobolev_isometry_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    for n in cfg.orders():
        for basis in _basis(spec, cfg.cutoff):
            shift = _shifts(spec, basis, n, cfg.c_value(spec, t, n))
            res = holo_inner(spec, t, [(e, e, shift[e[0]] * shift[e[0]]) for _, e in basis], q)
            yield _norm_rows(f"n={n}:", basis, res, [_entry_norm(spec, e[0], shift[e[0]]) for _, e in basis], tol)


def _kernel_tworoute_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    rng = random.Random(cfg.seed)
    rows = []
    for n in cfg.orders():
        c = spec.delta_sq + 1.0 if cfg.c is None else cfg.c
        # 15 pairs (g, h), drawn g, h, g, h, ..., each as (x, Y): one batched query
        draws = [(random_k(spec, rng), random_algebra(spec, rng, 0.6)) for _ in range(30)]
        xs, ys = (np.stack(part) for part in zip(*draws))
        g, h = polar_compose(spec, xs[0::2], ys[0::2]), polar_compose(spec, xs[1::2], ys[1::2])
        gh = kernels.pair_point(spec, g, h)
        query = kernels.KernelQuery(spec, gh, t, n, c)
        lhs = kernels.k_sobolev_spectral(query)
        rhs, res = kernels.k_sobolev_integral(query)
        for k, (left, right, gap) in enumerate(zip(lhs.tolist(), rhs.tolist(), res.gap.tolist())):
            rows.append(_row(f"n={n}:q{k}", left, right, rel_gap(left, right), tol, gap))
    yield rows


def _toeplitz_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    basis = list(chain.from_iterable(_basis(spec, min(cfg.cutoff, 3))))
    norms = [_entry_norm(spec, e[0]) for _, e in basis]
    same = list(range(len(basis)))
    # (tag, lhs, rhs): the quadratic forms on the pairs (f_i, f_i), then
    # (f_i, f_{i+1}); the first-order forms on the first of them, (f_i, f_i)
    forms, first, second = [], same + same[:-1], same + same[1:]
    # forms that vanish identically leave only rounding noise, so each
    # pair's zero floor is scaled to the natural size of the form
    floor = [1e-6 * norms[i] * norms[j] for i, j in zip(first, second)]
    pairs = [(basis[i][1], basis[j][1], 1.0) for i, j in zip(first, second)]
    for n in cfg.orders():
        c = cfg.c_value(spec, t, n)
        shift = _shifts(spec, basis, n, c)
        quad = holo_inner(spec, t, pairs, q, sobolev.toeplitz_symbol(spec, t, c, n), floor)
        shifted = [(e1, e2, shift[e2[0]]) for e1, e2, _ in pairs]
        forms.append((f"n={n}", quad, holo_inner(spec, t, shifted, q, None, floor)))
    diagonal, diagonal_floor = pairs[: len(same)], floor[: len(same)]
    for k in range(spec.dim):
        # <F, X_k F> by the gather of dpi(E_k), against the quadratic form of the symbol of X_k
        lhs = holo_inner(spec, t, diagonal, q, None, diagonal_floor, axis=k)
        forms.append((f"X{k}", lhs, holo_inner(spec, t, diagonal, q, sobolev.phi_x_weight(spec, t, k), diagonal_floor)))
    rows = []
    for tag, lhs_res, rhs_res in forms:
        sides = (lhs_res.value.tolist(), rhs_res.value.tolist(), lhs_res.gap.tolist(), rhs_res.gap.tolist())
        for i, j, f, lhs, rhs, lhs_gap, rhs_gap in zip(first, second, floor, *sides):
            cid, gap = f"{tag}:<{basis[i][0]},{basis[j][0]}>", max(lhs_gap, rhs_gap)
            rows.append(_row(cid, abs(lhs), abs(rhs), rel_gap(lhs, rhs, f), tol, gap))
    yield rows


def _weighted_norm_rows(cfg: RunConfig, t: float, tol: float, q: QuadSpec):
    spec = cfg.spec
    n = min(cfg.orders(), default=1)
    weight = lambda u: (1.0 + u) ** (2 * n)  # one object for every block, so they share its profile sums
    # the row's tol bounds the ratio spread; the gap tolerance bounds each form's level gap
    gap_tol, extremes = cfg.tol(1e-8), []
    for basis in _basis(spec, cfg.cutoff):
        shift = _shifts(spec, basis, 2 * n, cfg.c_value(spec, t, n))
        lhs_res = holo_inner(spec, t, [(e, e, 1.0) for _, e in basis], q, weight=weight)
        rhs_res = holo_inner(spec, t, [(e, e, shift[e[0]] * shift[e[0]]) for _, e in basis], q)
        rows = []
        forms = zip(basis, _norms(lhs_res), _norms(rhs_res), lhs_res.gap.tolist(), rhs_res.gap.tolist())
        for (cid, _), lhs, rhs, lhs_gap, rhs_gap in forms:
            ratio = lhs / rhs if rhs > 0 else math.inf
            gap = max(lhs_gap, rhs_gap)
            rows.append((f"n={n}:{cid}", lhs, rhs, ratio, tol, math.isfinite(ratio) and gap <= gap_tol, gap))
        # the largest and smallest ratio so far, each scanned in row order as max and min scan one list
        ratios = [row[3] for row in rows]
        extremes = [max(extremes[:1] + ratios), min(extremes[1:] + ratios)]
        yield rows
    spread = extremes[0] / extremes[1]
    yield [_row(f"n={n}:ratio-spread", spread, tol, spread, tol, 0.0)]


# suite name -> (rows function, default tolerance), in the order of
# config.VERIFY_SUITES, which the parser lists without running this module
SUITES = {
    "unitarity": (_unitarity_rows, 1e-6),
    "mass": (_mass_rows, 1e-6),
    "reproducing": (_reproducing_rows, 1e-6),
    "sobolev-isometry": (_sobolev_isometry_rows, 1e-6),
    "kernel-tworoute": (_kernel_tworoute_rows, 1e-6),
    "toeplitz": (_toeplitz_rows, 1e-3),
    "weighted-norm": (_weighted_norm_rows, 50.0),
}

"""The heat-kernel transform C_t, its norms, and its inversion integral.

C_t f is the analytic continuation of exp(t*Delta/2) f, the factor
e^{-lambda t/2} on each block of f, which a HoloFunc keeps undamped.  Norms
over the complexified group split into an exact K-integral (Schur
orthogonality applied to the blocks pi(e^{iY}) B_pi) times a single numeric
integral over the Lie algebra; only the latter carries quadrature error.

On SU(2) the density nu_t is Ad-invariant, so Schur applies a second time,
on each sphere |Y| = r.  With chi_m(r) = sinh(m r)/sinh(r):

    mean pi_m(e^{2iY})       = chi_m(r)/m * I,
    mean yhat_k pi_m(e^{2iY}) = g_m(r) * dpi_m(E_k),
                                g_m = 2i chi_m'(r) / (m (m^2 - 1)),
    mean pi_m(e^{iY})        = sinh(m r/2) / (m sinh(r/2)) * I,

so every K_C integral of the package is one radial sum per irrep.  Each
exponential e^{k r} of chi_m = sum_k e^{k r} is integrated on the radial
Gauss-Hermite rule centred at its own peak (quadrature.su2_radial_rule),
the leading one at m t/2, with the factor that completing the square leaves
met by the damping in one exponent; the inversion integral uses a radial
Gauss-Legendre rule on [0, R].

On a torus nu_t is the isotropic Gaussian e^{-|Y|^2/t} / (pi t)^{r/2}, and
label n meets it through e^{-2 n.Y}.  Completing the square turns
e^{-2 n.Y} dmu_t into e^{t |n|^2} N(-t n, t/2), met by the damping of both
blocks as e^{(|n|^2 - lambda) t}.  With zeta = Y.nhat and s = |Y_perp|^2, a
weight rho(|Y|^2) sees only u = zeta^2 + s, and y_k rho only its mean nhat_k
zeta rho along the shift, so every torus K_C integral is one sum per |n|^2
over a product rule: Gauss-Hermite in zeta times one Gauss rule in s, whose
law (t/2) chi^2_{r-1} is a Gamma law on every rank.  The inversion integral
factors over the axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import CoefVec
from .groups import (
    GroupSpec,
    algebra_basis,
    irrep_dim,
    laplacian_eigenvalue,
    rep_generator,
)
from .polar import MAX_ABS_Y
from .polar import exp_iy_batch  # bound here because bench/trace_layers.LAYERS resolves it here
from .quadrature import (
    MAX_ORDER,
    QuadResult,
    QuadSpec,
    integrate_levels,
    roots_genlaguerre,
    roots_hermite,
    roots_legendre,
    su2_radial_rule,
)

__all__ = [
    "AxisWeight",
    "HoloFunc",
    "ct_forward",
    "holo_inner",
    "ct_inverse_integral",
    "inversion_radii",
    "inversion_levels",
    "exp_iy_batch",
]

INVERSION_WIDTHS = 12.0  # Gaussian widths R/sqrt(t) of the inversion rule that the configured levels resolve


@dataclass(frozen=True)
class HoloFunc:
    """C_t f: the blocks of f, kept undamped, and the transform time t."""

    coefs: CoefVec
    t: float

    @property
    def spec(self) -> GroupSpec:
        return self.coefs.spec

    def label_traces(self, zs: np.ndarray) -> dict:
        """F = C_t f at a batch of K_C: f's label traces times e^{-lambda t/2}, one (N,) array per label."""
        traces = self.coefs.label_traces(zs).items()
        return {lb: math.exp(-laplacian_eigenvalue(self.spec, lb) * self.t / 2.0) * tr for lb, tr in traces}


def ct_forward(f: CoefVec, t: float) -> HoloFunc:
    """C_t f, to be evaluated on K_C."""
    if t <= 0:
        raise ValueError("t must be positive")
    return HoloFunc(f, t)


@dataclass(frozen=True)
class AxisWeight:
    """The direction-dependent weight y_k * radial(|Y|^2) on the Lie algebra.

    holo_inner integrates it through its structure (its mean on each sphere
    on SU(2), along the shift on a torus), so the package never evaluates
    it node by node.
    """

    axis: int
    radial: object  # vectorized u = |Y|^2 -> factor


def _schur_profiles(t: float, level: int, m: int, lam: float):
    """Radial rule for irrep m of SU(2), blocks damped by e^{-lam t/2}, with the
    sphere means folded in: (r, a, b) such that, for a radial factor rho(u), u = |Y|^2,

        e^{-lam t} int rho pi_m(e^{2iY}) dmu_t     ~ sum_i a_i rho(r_i^2) * I,
        e^{-lam t} int y_k rho pi_m(e^{2iY}) dmu_t ~ sum_i b_i rho(r_i^2) * dpi_m(E_k).

    chi_m(r) = sum_k e^{k r} over k = m-1, m-3, ..., 1-m, and each term gets
    the radial rule tilted by k, i.e. centred at its own peak (k+1) t/2 (the
    leading one at m t/2).  Completing the square leaves e^{s t}, s = ((k+1)^2
    - 1)/4, met by the damping as one exponent (s - lam) t <= 0 at lam_m, so
    the profile stays O(1) where e^{lam t} would overflow; polynomial weights
    rho are integrated exactly.
    """
    ks = np.arange(m - 1, -m, -2)
    r = np.concatenate([su2_radial_rule(t, level, int(k))[0] for k in ks])
    w = np.concatenate(
        [math.exp((((k + 1) ** 2 - 1) / 4.0 - lam) * t) * su2_radial_rule(t, level, int(k))[1] for k in ks]
    )
    a = w / m
    # r g_m(r) with g_m = 2i chi_m'/(m (m^2 - 1)) and chi_m' = sum_k k e^{k r}
    b = np.zeros(r.shape, dtype=complex)
    if m > 1:
        b = (2j / (m * (m * m - 1))) * np.repeat(ks, level) * w * r
    return r, a, b


# a base rule holds L^2 weights on every rank >= 2 (74 KB at L = 96)
@lru_cache(maxsize=16)
def _torus_base_rule(t: float, level: int, rank: int):
    """The torus label rule, less its shift: read-only (hx, s, a) such that a
    label n gives zeta = -t |n| + hx and u = zeta^2 + s (raveled, zeta along
    the rows) with, for a radial factor rho(u), u = |Y|^2,

        e^{-t |n|^2} int rho e^{-2 n.Y} dmu_t     ~ sum_i a_i rho(u_i),
        e^{-t |n|^2} int y_k rho e^{-2 n.Y} dmu_t ~ nhat_k sum_i a_i zeta_i rho(u_i).

    zeta = Y.nhat ~ N(-t |n|, t/2) takes the level-point Gauss-Hermite rule
    (hx = sqrt(t) x on its nodes x), and s = |Y_perp|^2 ~ (t/2) chi^2_{r-1},
    a Gamma law of shape (r - 1)/2 and scale t, one level-point rule of its
    own: none on torus:1 (s = 0), t x^2 on the Gauss-Hermite nodes x on
    torus:2 (for even L, the L/2-point alpha = -1/2 Laguerre rule with each
    node taken twice, read off the zeta rule), and t v on the generalized
    Gauss-Laguerre nodes v (alpha = (r - 3)/2, mass Gamma(alpha + 1)) from
    rank 3 on.  So every rank holds at most L^2 nodes, and polynomial
    weights rho are integrated exactly.
    """
    x, h = roots_hermite(level)
    gauss = h / math.sqrt(math.pi)
    hx = math.sqrt(t) * x
    s, v = np.zeros(1), np.ones(1)
    if rank == 2:
        s, v = t * x**2, gauss
    elif rank >= 3:
        alpha = (rank - 3) / 2
        xl, wl = roots_genlaguerre(level, alpha)
        s, v = t * xl, wl / math.gamma(alpha + 1)
    a = (gauss[:, None] * v[None, :]).ravel()
    for arr in (hx, s, a):
        arr.setflags(write=False)
    return hx, s, a


# the blocks of a basis suite at one t share each key's sum (about 270 B an
# entry): su2 at cutoff 64 has 64 keys a level, torus:4 at cutoff 7 has 149,
# and torus:3 at cutoff 50, the largest, 4,805, for each of up to two weights
@lru_cache(maxsize=1 << 15)
def _profile_sum(spec: GroupSpec, t: float, level: int, key, lam: float, weight):
    """The profile sum S of _integrate_profiles at one level, of a label's key
    (m or |n|^2) and lambda."""
    first_order = isinstance(weight, AxisWeight)
    radial = weight.radial if first_order else weight
    scale = 1.0
    if spec.kind == "su2":
        r, a, b = _schur_profiles(t, level, key, lam)
        u, prof = r * r, (b if first_order else a)
    else:
        hx, s, prof = _torus_base_rule(t, level, spec.rank)
        zeta = -t * math.sqrt(key) + hx
        if first_order:
            prof = (-1j / math.sqrt(key)) * np.repeat(zeta, s.size) * prof if key else np.zeros(prof.shape)
        u = None if radial is None else (zeta[:, None] ** 2 + s[None, :]).ravel()
        scale = math.exp((key - lam) * t)  # the completed square's e^{t |n|^2} meets the damping
    return scale * np.sum(prof if radial is None else prof * radial(u))


def _integrate_profiles(spec: GroupSpec, t: float, q: QuadSpec, terms, size: int, weight=None, floor=0.0):
    """integrate_levels of the values p = 0, ..., size - 1, each the sum of
    coef * S over its terms (p, label, coef).  S, the label's profile sum
    against the weight with both blocks damped, is that of a (b for an
    AxisWeight) of _schur_profiles on SU(2), and on a torus e^{(|n|^2 -
    lambda) t} times that of a (b = (-i/|n|) zeta a, 0 at n = 0) of
    _torus_base_rule at the label's shift.  It sees the label only through
    its key (m or |n|^2, and lambda), summed once a level (_profile_sum);
    the terms run in order on numbers, so a value has the bits of its batch
    of one.
    """
    keys = {lb: (lb if spec.kind == "su2" else sum(k * k for k in lb), laplacian_eigenvalue(spec, lb)) for _, lb, _ in terms}

    def value_at(level):
        sums = {key: _profile_sum(spec, t, level, *key, weight) for key in set(keys.values())}
        total = [0j] * size
        for p, label, coef in terms:
            total[p] += coef * sums[keys[label]]
        return np.array(total, dtype=complex)

    return integrate_levels(q, value_at, floor)


def holo_inner(spec: GroupSpec, t: float, pairs, q: QuadSpec, weight=None, floor=0.0, axis=None) -> QuadResult:
    """<C_t f1, C_t f2> against a weight times nu_t(g) dg, K-part exact, for
    each pair (e1, e2, scale) of a sequence: two matrix entries e = (label, i,
    j), pi_ij of the label (the block E_ji, as in basis_entry), and a
    scale, conj(s1) s2 for the functions s1 e1 and s2 e2.

    weight is None (the weight 1), a vectorized map of u = |Y|^2 to a
    factor, or an AxisWeight: y_k * radial(|Y|^2), which depends on the
    direction of Y, not just its length.  Value, gap and levels are arrays
    with one entry per pair, each with the bits of its batch of one; floor
    (a number, or one per pair) is the gap's zero floor, as in
    integrate_levels.  A pair on one label contributes its trace, the gather
    (vol/d) scale A[j1, j2] delta(i1, i2), times the label's profile sum,
    which carries the damping of both; A = dpi(E_k) for an axis k (an
    AxisWeight's own, or the axis argument for <F1, X_k F2>), else I.  A
    pair on two labels contributes nothing, so the form of two dense
    functions is the sum of the values on their pairs of nonzero entries
    that share a label.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    axis = weight.axis if isinstance(weight, AxisWeight) else axis
    generators, terms = {}, []
    for p, ((label, i1, j1), (other, i2, j2), scale) in enumerate(pairs):
        if label != other:
            continue
        if axis is None:
            a = float(j1 == j2)
        else:
            if label not in generators:
                generators[label] = rep_generator(spec, label, algebra_basis(spec, axis))
            a = generators[label][j1, j2]
        trace = scale * a if i1 == i2 else 0.0
        terms.append((p, label, (spec.volume / irrep_dim(spec, label)) * trace))
    return _integrate_profiles(spec, t, q, terms, len(pairs), weight, floor)


def inversion_radii(spec: GroupSpec, t: float, labels):
    """The truncation radii R = t reach + sqrt(2t ln 2^52) and R' = R +
    sqrt(2t) of the inversion integral of a function with these labels,
    reach = max |n_k| on a torus and m/2 on SU(2); a ValueError names the
    largest t the labels allow when R' passes MAX_ABS_Y.

    Past R a label keeps at most 2^-52 of its integral per torus axis, and
    2^-52 (1/2 + 1/(m sqrt(pi t/2))) on SU(2).  Its share inside R
    (_inverse_profiles) is int_{-R}^{R} p(y) e^{-(y - c)^2/2t} dy over the
    whole line's: p = 1, c = -t n_k per torus axis; p = y, c = mt/2 on SU(2)
    (r -> -r in the term at -c).  Each end lies d >= sqrt(2t ln 2^52) from
    c, as |c| <= t reach, and (u + d)^2 >= u^2 + d^2 gives int_d^inf
    e^{-u^2/2t} du <= e^{-d^2/2t} sqrt(pi t/2), while int_d^inf u e^{-u^2/2t}
    du = t e^{-d^2/2t}: against the whole integrals sqrt(2 pi t) and
    c sqrt(2 pi t), with e^{-d^2/2t} = 2^-52, that is the bound.
    """
    reach = max((m / 2.0 if spec.kind == "su2" else max(map(abs, m)) for m in labels), default=0.0)
    tail = math.sqrt(2.0 * 52.0 * math.log(2.0))
    radius = t * reach + tail * math.sqrt(t)
    if radius + math.sqrt(2.0 * t) > MAX_ABS_Y:
        b = tail + math.sqrt(2.0)  # R' = reach t + b sqrt(t), so sqrt(t_max) solves reach s^2 + b s = MAX_ABS_Y
        t_max = (2.0 * MAX_ABS_Y / (b + math.sqrt(b * b + 4.0 * reach * MAX_ABS_Y))) ** 2
        raise ValueError(f"the inversion radius passes |Y| = {MAX_ABS_Y:g}; the largest t these labels allow is {t_max:.6g}")
    return radius, radius + math.sqrt(2.0 * t)


def inversion_levels(t: float, radius: float, levels) -> tuple:
    """The Gauss-Legendre levels of the inversion rule on |Y| <= radius: the
    configured levels times the Gaussian widths radius/sqrt(t) that the rule
    spans over INVERSION_WIDTHS, never below the configured levels, and
    scaled by at most MAX_ORDER / max(levels), so the finest stays a Gauss
    rule and the levels stay apart.

    A label's integrand is a Gaussian of width sqrt(t) on an interval of
    length R (SU(2)) or 2R (a torus), so the nodes a rule needs grow with
    R/sqrt(t): on torus:1 the rule of e_1 at t = 1 (11 widths) meets 1e-13
    at 45 nodes, that of e_40 at t = 1 (50 widths) at 121."""
    scale = min(max(1.0, radius / math.sqrt(t) / INVERSION_WIDTHS), MAX_ORDER / max(levels))
    return tuple(min(MAX_ORDER, math.ceil(level * scale)) for level in levels)


def _inverse_profiles(spec: GroupSpec, t: float, radius: float, level: int, labels):
    """The share of each label's inversion integral that lies in |Y| <= R,
    on Gauss-Legendre rules.  On a torus (Phi = 1) label n gives prod_k
    e^{-(y_k + t n_k)^2/2t}: one sum per axis of the cube.  On SU(2) the
    sphere mean sinh(mr/2)/(m sinh(r/2)) of pi_m(e^{iY}) times 4 pi r^2 /
    Phi(Y/2) = 8 pi r sinh(r/2) is (8 pi/m) r sinh(mr/2), and with
    e^{-r^2/2t} a multiple of r (e^{-(r - c)^2/2t} - e^{-(r + c)^2/2t}),
    c = mt/2: one radial sum on [0, R], of integral c sqrt(2 pi t) on r >= 0.
    """
    y, w = roots_legendre(level)
    if spec.kind == "torus":
        y, w = radius * y, radius * w / math.sqrt(2.0 * math.pi * t)
        return [math.prod(np.dot(w, np.exp(-((y + t * k) ** 2) / (2.0 * t))) for k in n) for n in labels]
    r, w = radius * (y + 1.0) / 2.0, radius * w / 2.0 / math.sqrt(2.0 * math.pi * t)
    c = np.array(list(labels), dtype=float)[:, None] * (t / 2.0)  # one row per label
    return ((np.exp(-((r - c) ** 2) / (2.0 * t)) - np.exp(-((r + c) ** 2) / (2.0 * t))) @ (w * r) / c[:, 0]).tolist()


def ct_inverse_integral(F: HoloFunc, xs, radii, q: QuadSpec):
    """Truncated inversion integral at each point x of a batch xs of K
    ((N, r) angles on a torus, (N, 2, 2) matrices on SU(2)) and each radius
    R of radii, over the ball |Y| <= R on SU(2), the cube |y_k| <= R on a torus:

    (2 pi t)^{-d/2} e^{-|delta|^2 t/2} int F(x e^{iY}) e^{-|Y|^2/2t} / Phi(Y/2) dY,

    the sum over labels of tr(pi(x) B) e^{(s - lambda) t/2}, traces of f
    formed once for the batch, times the label's share inside R; completing
    the square leaves s = |n|^2 on a torus, m^2/4 - |delta|^2 on SU(2) (centre
    mt/2, and the prefactor).  Returns (values of shape (len(radii), N), each
    point's largest level gap over the radii relative to max(1, |value|);
    a gap is reported, never raised).
    """
    if max(radii) > MAX_ABS_Y:
        raise ValueError("radius exceeds the |Y| overflow guard")
    spec, t = F.spec, F.t
    traces = F.coefs.label_traces(xs)
    for label, trace in traces.items():
        s = label * label / 4.0 - spec.delta_sq if spec.kind == "su2" else float(sum(k * k for k in label))
        traces[label] = math.exp((s - laplacian_eigenvalue(spec, label)) * t / 2.0) * trace

    def value_at(level):
        total = np.zeros((len(radii), len(xs)), dtype=complex)
        for radius, row in zip(radii, total):
            for trace, share in zip(traces.values(), _inverse_profiles(spec, t, radius, level, traces)):
                row += share * trace
        return total

    res = integrate_levels(q, value_at, floor=1.0)
    return res.value, res.gap.max(axis=0)

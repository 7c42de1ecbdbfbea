"""The heat-kernel transform C_t, its norms, and its two inverses.

C_t f is the analytic continuation of exp(t*Delta/2) f, realized here as
blockwise damping of a coefficient vector.  Norms over the complexified
group split into an exact K-integral (Schur orthogonality applied to the
blocks pi(e^{iY}) B_pi) times a single numeric integral over the Lie
algebra; only the latter carries quadrature error.

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
formed from its exponent; the inversion integral uses a radial
Gauss-Legendre rule on [0, R].  Tori keep the tensor rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import CoefVec
from .groups import (
    SU2_BASIS,
    GroupSpec,
    irrep_dim,
    laplacian_eigenvalue,
    rep_generator,
    rep_matrix,
)
from .polar import MAX_ABS_Y, PointKC, log_phi
from .quadrature import (
    QuadResult,
    QuadSpec,
    _tensor_rule,
    integrate_levels,
    kspace_rule,
    roots_legendre,
    su2_radial_rule,
)

__all__ = [
    "AxisWeight",
    "HoloFunc",
    "QuadratureError",
    "ct_forward",
    "eval_holo",
    "holo_inner",
    "holo_l2_norm",
    "ct_inverse_spectral",
    "ct_inverse_integral",
    "inverse_integral_trace",
    "exp_iy_batch",
]


class QuadratureError(RuntimeError):
    """Inter-level quadrature agreement failed; carries the level trace."""

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class HoloFunc:
    """Holomorphic function with finite Peter-Weyl support (damped coefs)."""

    coefs: CoefVec
    t: float
    provenance: str = "user"

    @property
    def spec(self) -> GroupSpec:
        return self.coefs.spec


def ct_forward(f: CoefVec, t: float) -> HoloFunc:
    """Damp block pi by exp(-lambda_pi t/2) and package for K_C evaluation."""
    if t <= 0:
        raise ValueError("t must be positive")
    return HoloFunc(f.spectral(lambda lam: math.exp(-lam * t / 2.0)), t, "forward")


def eval_holo(F: HoloFunc, p: PointKC) -> complex:
    """Evaluate F at a polar point; exact (finite support, no tail)."""
    return F.coefs.eval_kc(p)


def exp_iy_batch(spec: GroupSpec, ys: np.ndarray) -> np.ndarray:
    """exp(iY) for a batch of algebra coordinates; (N, 2, 2) for SU(2).

    For tori the group element batch is x + iY restricted to x = 0, i.e.
    the complex vector iY, shape (N, r).
    """
    ys = np.asarray(ys, dtype=float)
    if spec.kind == "torus":
        return 1j * ys
    r = np.linalg.norm(ys, axis=1)
    safe = np.where(r < 1e-12, 1.0, r)
    # iY = -(1/2)(y.sigma): exp(iY) = cosh(r/2) I - sinh(r/2)(yhat.sigma)
    from .groups import PAULI

    ysig = np.tensordot(ys / safe[:, None], PAULI, axes=(1, 0))
    ch = np.cosh(r / 2.0)[:, None, None]
    sh = np.sinh(r / 2.0)[:, None, None]
    out = ch * np.eye(2)[None] - sh * ysig
    out[r < 1e-12] = np.eye(2)
    return out


@dataclass(frozen=True)
class AxisWeight:
    """The direction-dependent weight y_k * radial(|Y|^2) on the Lie algebra.

    Calling it on an (N, dim) node batch gives the per-node factors; on SU(2)
    holo_inner uses the structure instead (Schur on the sphere).
    """

    axis: int
    radial: object  # vectorized u = |Y|^2 -> factor

    def __call__(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        return ys[:, self.axis] * self.radial(np.sum(ys**2, axis=1))


def _pair_k_integrals(F1: HoloFunc, F2: HoloFunc, ys: np.ndarray) -> np.ndarray:
    """Exact int_K conj(F1) F2 dx at each Y of a torus batch, by Schur orthogonality."""
    spec = F1.spec
    exp_iy = exp_iy_batch(spec, ys)
    out = np.zeros(ys.shape[0], dtype=complex)
    for label in sorted(set(F1.coefs.entries) & set(F2.coefs.entries)):
        b1 = F1.coefs.entries[label]
        b2 = F2.coefs.entries[label]
        scal = np.exp(1j * exp_iy @ np.asarray(label))  # e^{-n.Y}
        out += (spec.volume / irrep_dim(spec, label)) * np.conj(scal * b1[0, 0]) * (scal * b2[0, 0])
    return out


@lru_cache(maxsize=1024)
def _schur_profiles(t: float, level: int, m: int):
    """Radial rule for irrep m of SU(2) with the sphere means folded in.

    Returns (r, a, b) such that, for a radial factor rho(u), u = |Y|^2,

        e^{-lam_m t} int rho pi_m(e^{2iY}) dmu_t     ~ sum_i a_i rho(r_i^2) * I,
        e^{-lam_m t} int y_k rho pi_m(e^{2iY}) dmu_t ~ sum_i b_i rho(r_i^2) * dpi_m(E_k).

    chi_m(r) = sum_k e^{k r} over k = m-1, m-3, ..., 1-m, and each term gets
    the radial rule tilted by k, i.e. centred at its own peak (k+1) t/2 (the
    leading one at m t/2).  Completing the square leaves the factor
    e^{(lam_k - lam_m) t} = e^{((k+1)^2 - m^2) t/4} <= 1, formed from its
    exponent, so the profile stays O(1) where e^{lam_m t} would overflow;
    polynomial weights rho are integrated exactly.
    """
    ks = np.arange(m - 1, -m, -2)
    r = np.concatenate([su2_radial_rule(t, level, int(k))[0] for k in ks])
    w = np.concatenate(
        [math.exp(((k + 1) ** 2 - m * m) * t / 4.0) * su2_radial_rule(t, level, int(k))[1] for k in ks]
    )
    a = w / m
    # r g_m(r) with g_m = 2i chi_m'/(m (m^2 - 1)) and chi_m' = sum_k k e^{k r}
    b = np.zeros(r.shape, dtype=complex)
    if m > 1:
        b = (2j / (m * (m * m - 1))) * np.repeat(ks, level) * w * r
    for arr in (r, a, b):
        arr.setflags(write=False)
    return r, a, b


def _su2_inner_level(F1: HoloFunc, F2: HoloFunc, level: int, weight, axis_weight) -> complex:
    """One level of holo_inner on SU(2): one radial sum per common irrep."""
    spec, t = F1.spec, F1.t
    total = 0.0 + 0.0j
    for m in sorted(set(F1.coefs.entries) & set(F2.coefs.entries)):
        # undo the damping of both blocks (up to e^700, past which the rest
        # goes on the sum) so the product and the profile stay O(1)
        half_lam = laplacian_eigenvalue(spec, m) * t / 2.0
        undo = min(half_lam, 700.0)
        b1 = math.exp(undo) * F1.coefs.entries[m]
        b2 = math.exp(undo) * F2.coefs.entries[m]
        r, a, b = _schur_profiles(t, level, m)
        u = r * r
        if axis_weight is None:
            trace = np.sum(b1.conj() * b2)
            prof = a
        else:
            gen = rep_generator(spec, m, SU2_BASIS[axis_weight.axis])
            trace = np.sum(b1.conj() * (gen @ b2))
            prof = b * axis_weight.radial(u)
        if weight is not None:
            prof = prof * weight(u)
        total += (spec.volume / m) * trace * np.sum(prof) * math.exp(2.0 * (half_lam - undo))
    return complex(total)


def holo_inner(F1: HoloFunc, F2: HoloFunc, q: QuadSpec, weight=None, weight_nodes=None) -> QuadResult:
    """<F1, F2> against weight(|Y|^2) * nu_t(g) dg, K-part exact.

    weight maps u = |Y|^2 (vectorized) to a factor; None means 1.
    weight_nodes, if given, maps the (N, r) node batch to per-node factors
    (for weights that depend on the direction of Y, not just its length);
    on SU(2) it must be an AxisWeight, whose sphere means Schur gives.
    """
    if F1.spec != F2.spec:
        raise ValueError("mismatched group specs")
    if abs(F1.t - F2.t) > 0:
        raise ValueError("mismatched transform times")
    spec, t = F1.spec, F1.t
    if spec.kind == "su2" and weight_nodes is not None and not isinstance(weight_nodes, AxisWeight):
        raise TypeError("on su2 a direction-dependent weight must be an AxisWeight")
    if spec.kind == "su2":
        return integrate_levels(q, lambda level: _su2_inner_level(F1, F2, level, weight, weight_nodes))

    def torus_level(level):
        rule = kspace_rule(spec, t, level)
        vals = _pair_k_integrals(F1, F2, rule.nodes)
        if weight is not None:
            vals = vals * weight(np.sum(rule.nodes**2, axis=1))
        if weight_nodes is not None:
            vals = vals * weight_nodes(rule.nodes)
        return np.dot(rule.weights, vals)

    return integrate_levels(q, torus_level)


def holo_l2_norm(F: HoloFunc, q: QuadSpec | None = None) -> float:
    """Norm in the weighted holomorphic L^2 space over K_C."""
    q = q or QuadSpec()
    res = holo_inner(F, F, q)
    if not res.ok:
        raise QuadratureError(
            f"k-space quadrature gap {res.gap:.3e} exceeds {res.tolerance:.3e}; trace {res.by_level}",
            res,
        )
    return math.sqrt(max(res.value.real, 0.0))


def ct_inverse_spectral(F: HoloFunc) -> CoefVec:
    """Exact left inverse of ct_forward on finite supports (undoes the damping)."""
    return F.coefs.spectral(lambda lam: math.exp(lam * F.t / 2.0))


def _cube_nodes(spec: GroupSpec, radius: float, level: int):
    """Nodes/weights of the tensor Gauss-Legendre rule on [-radius, radius]^r (tori)."""
    x, w = roots_legendre(level)
    return _tensor_rule(radius * x, radius * w, spec.rank)


def _ball_radii(radius: float, level: int):
    """Radii r_i and weights (R/2) w_i 4 pi r_i^2 of the Gauss-Legendre rule on
    [0, R]: sum_i W_i f(r_i) ~ int_{|Y|<=R} f(|Y|) dY on su(2)."""
    x, w = roots_legendre(level)
    r = radius * (x + 1.0) / 2.0
    return r, 2.0 * math.pi * radius * w * r**2


def _torus_inverse_level(F: HoloFunc, x, radius: float, level: int) -> complex:
    """int over the cube |y_i| <= R of F(x e^{iY}) e^{-|Y|^2/2t} dY on a torus (Phi = 1)."""
    nodes, weights = _cube_nodes(F.spec, radius, level)
    damp = np.exp(-np.sum(nodes**2, axis=1) / (2.0 * F.t))
    return complex(np.dot(weights, _eval_holo_batch(F, x, nodes) * damp))


def _su2_inverse_level(F: HoloFunc, x, radius: float, level: int) -> complex:
    """int_{|Y|<=R} F(x e^{iY}) e^{-|Y|^2/2t} / Phi(Y/2) dY on SU(2).

    The sphere mean of F(x e^{iY}) is sum_m tr(pi_m(x) B_m) sinh(m r/2) /
    (m sinh(r/2)), so one radial Gauss-Legendre sum per irrep remains; the
    profile is summed term by term in log space with the damping of B_m
    undone, which keeps every term O(1).
    """
    spec, t = F.spec, F.t
    r, w = _ball_radii(radius, level)
    log_w = np.log(w)
    log_w -= r**2 / (2.0 * t) + np.array([log_phi(spec, np.array([0.0, 0.0, ri / 2.0])) for ri in r])
    total = 0.0 + 0.0j
    for m, block in F.coefs.entries.items():
        undo = min(laplacian_eigenvalue(spec, m) * t / 2.0, 700.0)
        trace = np.trace(rep_matrix(spec, m, x) @ (math.exp(undo) * block))
        k = m - 1 - 2.0 * np.arange(m)
        prof = np.exp(log_w[:, None] + 0.5 * r[:, None] * k[None, :] - undo).sum()
        total += trace * prof / m
    return complex(total)


def ct_inverse_integral(F: HoloFunc, x, radius: float, q: QuadSpec | None = None) -> complex:
    """Ball-truncated inversion integral at a point x of K:

    (2 pi t)^{-d/2} e^{-|delta|^2 t/2} int_{|Y|<=R} F(x e^{iY})
        e^{-|Y|^2/2t} / Phi(Y/2) dY.

    Tori integrate over the cube |y_i| <= R with a tensor Gauss-Legendre
    rule; SU(2) integrates over the ball by the radial reduction of
    _su2_inverse_level.
    """
    if radius > MAX_ABS_Y:
        raise ValueError("radius exceeds the |Y| overflow guard")
    q = q or QuadSpec(levels=(32, 48))
    spec, t = F.spec, F.t
    level_value = _su2_inverse_level if spec.kind == "su2" else _torus_inverse_level
    res = integrate_levels(q, lambda level: level_value(F, x, radius, level))
    if res.gap > max(q.tolerance, 1e-9):
        raise QuadratureError(f"inversion quadrature gap {res.gap:.3e} exceeds {q.tolerance:.3e}", res)
    pref = (2.0 * math.pi * t) ** (-spec.dim / 2.0) * math.exp(-spec.delta_sq * t / 2.0)
    return pref * res.value


def _eval_holo_batch(F: HoloFunc, x, ys: np.ndarray) -> np.ndarray:
    """F(x e^{iY}) for fixed x in K over a batch of Y."""
    spec = F.spec
    if spec.kind == "torus":
        zs = np.asarray(x, dtype=float)[None, :] + 1j * ys
        return F.coefs.eval_k_batch(zs)
    gx = np.asarray(x, dtype=complex)
    gs = gx[None] @ exp_iy_batch(spec, ys)
    return F.coefs.eval_k_batch(gs)


def inverse_integral_trace(F: HoloFunc, x, radii, q: QuadSpec | None = None):
    """Inversion values over an increasing radius list, with a stability flag.

    Returns (values, stabilized): stabilized means the last two radii agree
    to the quadrature tolerance relative to the final value.
    """
    radii = sorted(radii)
    values = [ct_inverse_integral(F, x, r, q) for r in radii]
    tol = (q or QuadSpec()).tolerance
    if len(values) >= 2:
        stabilized = abs(values[-1] - values[-2]) <= max(tol, tol * abs(values[-1]))
    else:
        stabilized = False
    return values, stabilized

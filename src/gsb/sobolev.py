"""Sobolev shifts and norms, Toeplitz symbol polynomials, and the symbol of a vector field.

The K-side Sobolev norm is the Plancherel norm after the blockwise factor
(c + lambda_pi)^n; its holomorphic image uses the same factor before the
K_C norm.  The Toeplitz symbol phi_n of (cI - Delta)^n is a degree-n
polynomial in u = |Y|^2, a sum of generalized Laguerre polynomials in u/t
evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import CoefVec
from .groups import GroupSpec, laplacian_eigenvalue
from .transform import AxisWeight

__all__ = [
    "PolyU",
    "laplacian_apply",
    "shift_scale",
    "sobolev_shift",
    "sobolev_norm",
    "toeplitz_symbol",
    "symbol_positivity_threshold",
    "phi_x_weight",
]


@dataclass(frozen=True)
class PolyU:
    """Polynomial in u = |Y|^2, coefficients ascending in u."""

    coefficients: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, u):
        coeffs = list(reversed(self.coefficients))
        return np.polyval(coeffs, u)


def laplacian_apply(f: CoefVec, n: int = 1) -> CoefVec:
    """Apply the group Laplacian n times: block pi scales by (-lambda_pi)^n."""
    return f.spectral(lambda lam: (-lam) ** n)


def shift_scale(spec: GroupSpec, label, n: int, c: float) -> float:
    """(c + lambda_pi)^n: the factor of (cI - Delta)^n on the block of label pi."""
    return (c + laplacian_eigenvalue(spec, label)) ** n


def sobolev_shift(f: CoefVec, n: int, c: float) -> CoefVec:
    """(cI - Delta)^n on coefficients: block pi times shift_scale."""
    return CoefVec(f.spec, {label: shift_scale(f.spec, label, n, c) * block for label, block in f.entries.items()})


def sobolev_norm(f: CoefVec, n: int, c: float) -> float:
    if c <= 0:
        raise ValueError("c must be positive")
    return sobolev_shift(f, n, c).plancherel_norm()


def toeplitz_symbol(spec: GroupSpec, t: float, c: float, n: int) -> PolyU:
    """phi_n at (t, c), phi_n nu_t = (c + d/dt)^n nu_t: each coefficient
    evaluated exactly, then rounded once.

    nu_t is e^{-a t} G times a factor free of t, a = |delta|^2 and G =
    t^{-d/2} e^{-u/t}, so phi_n = sum_k C(n,k) (c - a)^{n-k} (d/dt)^k G / G.
    P_k(x) = t^k (d/dt)^k G / G at x = u/t has P_0 = 1 and P_{k+1} = (x - k
    - d/2) P_k - x P_k'; the three-term and derivative relations of the
    Laguerre polynomials L_k = L_k^{(alpha)}, alpha = d/2 - 1, show that
    (-1)^k k! L_k obeys the same, so

    phi_n(u) = sum_k C(n,k) (c - a)^{n-k} (-1)^k k! t^{-k} L_k(u/t),

    whose u^j coefficient is sum_{k >= j} C(n,k) (c - a)^{n-k} p_kj t^{-k-j},
    with p_kj = (-1)^{k+j} (k!/j!) C(k + alpha, k - j) the x^j coefficient
    of (-1)^k k! L_k(x): p_kk = 1 and p_k(j-1) = -p_kj j (j + alpha) / (k -
    j + 1).
    """
    if t <= 0 or c <= 0:
        raise ValueError("t and c must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    tf, shift, alpha = Fraction(t), Fraction(c) - Fraction(spec.delta_sq), Fraction(spec.dim, 2) - 1
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        term = math.comb(n, k) * shift ** (n - k) / tf ** (2 * k)
        for j in range(k, -1, -1):
            coeffs[j] += term
            term *= -j * (j + alpha) * tf / (k - j + 1)
    return PolyU(tuple(float(x) for x in coeffs))


def symbol_positivity_threshold(spec: GroupSpec, t: float, n: int) -> float:
    """The first |delta|^2 + 1 + k/2 (k >= 0) above c* = |delta|^2 + (n - 1 +
    d/2)/t, compared in Fraction: every phi_n coefficient is > 0 iff c > c*.

    In toeplitz_symbol's Laguerre form, with a = c - |delta|^2, z = 1/t, N =
    n - j and beta = j + alpha, the u^j coefficient is (n!/j!) t^{-2j} [w^N]
    e^{aw} (1 + zw)^{-beta-1}.  The coefficients e_m of e^{Av} (1 +
    v)^{-beta-1} obey e_0 = 1, (m + 1) e_{m+1} = (A - m - beta - 1) e_m + A
    e_{m-1}, so all e_m, m <= N, are >= 0 at A = N + beta = n + alpha > 0.
    At a = a* + b, a* = (n + alpha) z, [w^N] is then sum_m b^{N-m}/(N-m)! z^m
    e_m(n + alpha), every term >= 0 and the m = 0 one b^N/N! > 0 for b > 0;
    the u^{n-1} coefficient is n t^{2-2n} (a - a*), so no c <= c* will do.
    """
    k = max(0, math.floor(2 * ((n - 1 + Fraction(spec.dim, 2)) / Fraction(t) - 1)) + 1)
    return spec.delta_sq + 1.0 + 0.5 * k


def _grad_log_radial(t: float, r: np.ndarray) -> np.ndarray:
    """h(r) with grad_Y log nu_t = Y * h(|Y|) on su(2): 1/r^2 - coth(r)/r - 2/t."""
    small = np.abs(r) < 1e-3
    rs = np.where(small, 1.0, r)
    main = 1.0 / rs**2 - 1.0 / (np.tanh(rs) * rs)
    series = -1.0 / 3.0 + r**2 / 45.0
    return np.where(small, series, main) - 2.0 / t


def phi_x_weight(spec: GroupSpec, t: float, k: int):
    """Toeplitz symbol of the vector field X_k, as a function of the Y batch:

    phi_X(x e^{iY}) = (i/2) sum_l d_{kl}(Y) d(log nu_t)/dy_l,

    with d(Y) the d/dy block of JX_k in the polar fields (JX_k = sum_l
    c_{kl} Xtilde_l + d_{kl} d/dy_l, d(Y) the transpose of S^{-1} cos(ad Y),
    S = sin(ad Y)/ad Y), returned as an AxisWeight, y_k times a radial
    factor.
    """
    if spec.kind == "torus":
        return AxisWeight(k, lambda u: -1j / t)
    # grad log nu_t is parallel to Y, which spans the kernel of ad(Y), so the
    # frame block d(Y) = S^{-1} cos(ad Y) acts on it as the identity and the
    # contraction collapses to y_k times a radial profile
    return AxisWeight(k, lambda u: 0.5j * _grad_log_radial(t, np.sqrt(u)))

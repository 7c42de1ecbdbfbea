"""Sobolev norms, Toeplitz symbol polynomials, and weighted norms.

The K-side Sobolev norm is the Plancherel norm after the blockwise factor
(c + lambda_pi)^n; its holomorphic image uses the same factor before the
K_C norm.  The Toeplitz symbol phi_n of (cI - Delta)^n is a degree-n
polynomial in u = |Y|^2 obtained from an exact differential recursion on
the density nu_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import CoefVec
from .groups import SU2_BASIS, GroupSpec, laplacian_eigenvalue, rep_generator
from .quadrature import QuadResult, QuadSpec
from .transform import AxisWeight, HoloFunc, holo_inner, holo_l2_norm

__all__ = [
    "PolyU",
    "laplacian_apply",
    "sobolev_shift",
    "sobolev_norm",
    "holo_sobolev_norm",
    "toeplitz_symbol",
    "symbol_coefficient_exprs",
    "symbol_positivity_threshold",
    "apply_vector_field",
    "phi_x_weight",
    "toeplitz_quadratic_form",
    "first_order_forms",
    "weighted_form",
    "weighted_norm",
]


@dataclass(frozen=True)
class PolyU:
    """Polynomial in u = |Y|^2, coefficients ascending in u."""

    coefficients: tuple
    n: int
    c: float
    t: float
    spec: GroupSpec

    def __post_init__(self):
        if len(self.coefficients) != self.n + 1:
            raise ValueError("degree must equal n")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, u):
        coeffs = list(reversed(self.coefficients))
        return np.polyval(coeffs, u)


def _as_coefs(f) -> CoefVec:
    return f.coefs if isinstance(f, HoloFunc) else f


def _rewrap(f, coefs: CoefVec):
    if isinstance(f, HoloFunc):
        return HoloFunc(coefs, f.t, f.provenance)
    return coefs


def laplacian_apply(f, n: int = 1):
    """Apply the group Laplacian n times: block pi scales by (-lambda_pi)^n."""
    coefs = _as_coefs(f)
    spec = coefs.spec
    out = coefs.map_blocks(lambda label: (-laplacian_eigenvalue(spec, label)) ** n)
    return _rewrap(f, out)


def sobolev_shift(f, n: int, c: float):
    """Blockwise (c + lambda_pi)^n, i.e. (cI - Delta)^n on coefficients."""
    coefs = _as_coefs(f)
    spec = coefs.spec
    out = coefs.map_blocks(lambda label: (c + laplacian_eigenvalue(spec, label)) ** n)
    return _rewrap(f, out)


def sobolev_norm(f: CoefVec, n: int, c: float) -> float:
    if c <= 0:
        raise ValueError("c must be positive")
    return sobolev_shift(f, n, c).plancherel_norm()


def holo_sobolev_norm(F: HoloFunc, n: int, c: float, q: QuadSpec | None = None) -> float:
    if c <= 0:
        raise ValueError("c must be positive")
    return holo_l2_norm(sobolev_shift(F, n, c), q)


@lru_cache(maxsize=None)
def _symbol_exprs(dim: int, delta_sq_num: int, delta_sq_den: int, n: int):
    """Coefficients of phi_n in u, as sympy expressions in (t, c).

    Recursion: q_{k+1} = c q_k + dq_k/dt + q_k (-d/(2t) - |delta|^2 + u/t^2).
    sympy is imported here, not at module load: it is the slowest import of
    the package and only the symbol recursion needs it.
    """
    import sympy as sp

    t, c, u = sp.symbols("t c u", positive=True)
    dsq = sp.Rational(delta_sq_num, delta_sq_den)
    q = sp.Integer(1)
    for _ in range(n):
        q = sp.expand(c * q + sp.diff(q, t) + q * (-sp.Rational(dim, 2) / t - dsq + u / t**2))
    poly = sp.Poly(q, u)
    coeffs = [sp.simplify(poly.coeff_monomial(u**k)) for k in range(n + 1)]
    return (t, c), coeffs


def symbol_coefficient_exprs(spec: GroupSpec, n: int):
    """Symbolic (in t, c) coefficients of phi_n, ascending in u."""
    import sympy as sp

    dsq = sp.nsimplify(spec.delta_sq, rational=True)
    frac = sp.Rational(dsq)
    return _symbol_exprs(spec.dim, frac.p, frac.q, n)


def toeplitz_symbol(spec: GroupSpec, t: float, c: float, n: int) -> PolyU:
    if t <= 0 or c <= 0:
        raise ValueError("t and c must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    (ts, cs), exprs = symbol_coefficient_exprs(spec, n)
    coeffs = tuple(float(e.subs({ts: t, cs: c})) for e in exprs)
    return PolyU(coeffs, n, c, t, spec)


def symbol_positivity_threshold(spec: GroupSpec, t: float, n: int, c_grid):
    """Smallest c in the ascending grid with all phi_n coefficients > 0.

    All-positive coefficients force phi_n(u) > 0 for u >= 0.  Returns None
    if no grid point qualifies.
    """
    for c in c_grid:
        sym = toeplitz_symbol(spec, t, float(c), n)
        if all(coef > 0 for coef in sym.coefficients):
            return float(c)
    return None


def apply_vector_field(f, k: int):
    """Left-invariant derivative along the k-th algebra basis direction."""
    coefs = _as_coefs(f)
    spec = coefs.spec
    if spec.kind == "torus":
        direction = np.zeros(spec.rank)
        direction[k] = 1.0
    else:
        direction = SU2_BASIS[k]
    out = CoefVec(
        spec,
        {
            label: rep_generator(spec, label, direction) @ block
            for label, block in coefs.entries.items()
        },
    )
    return _rewrap(f, out)


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

    with d the normal-derivative block of the frame coefficients.  On SU(2)
    it is returned as an AxisWeight, y_k times a radial factor.
    """
    if spec.kind == "torus":
        return lambda ys: -1j * np.asarray(ys, dtype=float)[:, k] / t
    # grad log nu_t is parallel to Y, which spans the kernel of ad(Y), so the
    # frame block d(Y) = S^{-1} cos(ad Y) acts on it as the identity and the
    # contraction collapses to y_k times a radial profile
    return AxisWeight(k, lambda u: 0.5j * _grad_log_radial(t, np.sqrt(u)))


def toeplitz_quadratic_form(F1: HoloFunc, F2: HoloFunc, sym: PolyU, q: QuadSpec | None = None) -> QuadResult:
    """int conj(F1) sym(|Y|^2) F2 nu_t dg, K-part exact."""
    return holo_inner(F1, F2, q or QuadSpec(), weight=sym)


def first_order_forms(F1: HoloFunc, F2: HoloFunc, k: int, q: QuadSpec | None = None):
    """Both sides of the first-order Toeplitz identity for X_k.

    Returns (lhs, rhs) as QuadResults: lhs = <F1, X_k F2> in L^2(nu_t), rhs
    the quadratic form against phi_X.  Equality is the operator identity
    under test.
    """
    q = q or QuadSpec()
    lhs = holo_inner(F1, apply_vector_field(F2, k), q)
    rhs = holo_inner(F1, F2, q, weight_nodes=phi_x_weight(F1.spec, F1.t, k))
    return lhs, rhs


def weighted_form(F: HoloFunc, n: int, q: QuadSpec | None = None) -> QuadResult:
    """int |F|^2 (1 + |Y|^2)^{2n} nu_t dg, K-part exact."""
    return holo_inner(F, F, q or QuadSpec(), weight=lambda u: (1.0 + u) ** (2 * n))


def weighted_norm(F: HoloFunc, n: int, q: QuadSpec | None = None) -> float:
    """sqrt of int |F|^2 (1 + |Y|^2)^{2n} nu_t dg."""
    return math.sqrt(max(weighted_form(F, n, q).value.real, 0.0))

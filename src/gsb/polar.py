"""Polar coordinates g = x * exp(iY) on the complexified group.

Includes the density function Phi, the star anti-involution, and the
left-invariant frame coefficient matrices expressing the complexified
vector fields X_k, JX_k through the polar-coordinate fields (X-tilde, d/dy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec

__all__ = [
    "PointKC",
    "identity_point",
    "polar_decompose",
    "polar_compose",
    "star",
    "phi",
    "frame_coefficients",
    "norm_y",
]

MAX_ABS_Y = 50.0  # overflow guard for the principal log / sinh factors


@dataclass(frozen=True)
class PointKC:
    """Polar pair (x, Y): x in K, Y coordinates in the orthonormal basis."""

    spec: GroupSpec
    x: np.ndarray  # torus: angles in [0, 2pi)^r; su2: 2x2 unitary, det 1
    y: np.ndarray  # real coordinates, length dim K

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))


def identity_point(spec: GroupSpec) -> PointKC:
    if spec.kind == "torus":
        return PointKC(spec, np.zeros(spec.rank), np.zeros(spec.rank))
    return PointKC(spec, np.eye(2, dtype=complex), np.zeros(3))


def norm_y(y) -> float:
    """|Y| in the group metric (coordinates are orthonormal by construction)."""
    return float(np.linalg.norm(y))


def polar_decompose(spec: GroupSpec, g) -> PointKC:
    """Unique factorization g = x * exp(iY) with x in K, Y in the algebra.

    For SU(2) this is the matrix polar decomposition: exp(iY) is the
    positive square root of g^* g and Y its principal logarithm over -i.
    """
    if spec.kind == "torus":
        z = np.atleast_1d(np.asarray(g, dtype=complex))
        x = np.mod(z.real, 2.0 * math.pi)
        return PointKC(spec, x, z.imag.copy())

    g = np.asarray(g, dtype=complex)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det - 1.0) > 1e-8:
        raise ValueError("group element must lie in SL(2,C)")
    h = g.conj().T @ g  # positive hermitian, det 1
    evals, vecs = np.linalg.eigh(h)
    evals = np.clip(evals.real, 1e-300, None)
    # iY = log sqrt(h); hermitian traceless
    iy = (vecs * (0.5 * np.log(evals))) @ vecs.conj().T
    p = (vecs * np.sqrt(evals)) @ vecs.conj().T
    x = g @ np.linalg.inv(p)
    # coordinates: iY = -(1/2) sum y_k sigma_k  =>  y_k = -trace(iY sigma_k)
    from .groups import PAULI

    y = np.array([-np.trace(iy @ sigma).real for sigma in PAULI])
    if norm_y(y) > MAX_ABS_Y:
        raise ValueError("polar factor exceeds the |Y| overflow guard")
    return PointKC(spec, x, y)


def polar_compose(spec: GroupSpec, p: PointKC):
    """Inverse of polar_decompose: the group element x * exp(iY)."""
    if spec.kind == "torus":
        return np.asarray(p.x, dtype=float) + 1j * p.y
    # iY = -(1/2) y.sigma, whose square is |y|^2/4 I:
    # exp(iY) = cosh(|y|/2) I - (sinh(|y|/2)/|y|) y.sigma
    y1, y2, y3 = (float(v) for v in p.y)
    s = math.sqrt(y1 * y1 + y2 * y2 + y3 * y3)
    c = math.cosh(s / 2.0)
    k = math.sinh(s / 2.0) / s if s > 0.0 else 0.5
    e = np.array([[c - k * y3, -k * complex(y1, -y2)], [-k * complex(y1, y2), c + k * y3]])
    return np.asarray(p.x, dtype=complex) @ e


def star(spec: GroupSpec, p: PointKC) -> PointKC:
    """The anti-involution (x e^{iY})^* = e^{iY} x^{-1}, returned in polar form."""
    if spec.kind == "torus":
        x = np.mod(-np.asarray(p.x, dtype=float), 2.0 * math.pi)
        return PointKC(spec, x, p.y.copy())
    g = polar_compose(spec, p)
    return polar_decompose(spec, np.asarray(g).conj().T)


def _sinch(s: float) -> float:
    """sinh(s)/s with the removable singularity filled in."""
    if abs(s) < 1e-4:
        s2 = s * s
        return 1.0 + s2 / 6.0 * (1.0 + s2 / 20.0)
    return math.sinh(s) / s


def phi(spec: GroupSpec, y) -> float:
    """Product of alpha(Y)/sinh(alpha(Y)) over positive roots; 1 on tori."""
    if spec.kind == "torus":
        return 1.0
    s = norm_y(y)
    if s > MAX_ABS_Y:
        raise ValueError("|Y| exceeds the overflow guard")
    return 1.0 / _sinch(s)


def log_phi(spec: GroupSpec, y):
    """log Phi(Y), safe for large |Y| (used by envelope code in log space).

    y is one point (returns a float) or an (N, dim) batch (returns (N,)).
    """
    if np.ndim(y) == 2:
        return _log_phi_batch(spec, np.asarray(y, dtype=float))
    if spec.kind == "torus":
        return 0.0
    s = norm_y(y)
    if s < 1e-4:
        return -math.log(_sinch(s))
    # log(s/sinh s) = log(2s) - s - log1p(-exp(-2s))
    return math.log(2.0 * s) - s - math.log1p(-math.exp(-2.0 * s))


def _log_phi_batch(spec: GroupSpec, ys: np.ndarray) -> np.ndarray:
    if spec.kind == "torus":
        return np.zeros(ys.shape[0])
    s = np.linalg.norm(ys, axis=1)
    s2 = s * s
    series = -np.log1p(s2 / 6.0 * (1.0 + s2 / 20.0))
    big = np.maximum(s, 1e-4)
    return np.where(s < 1e-4, series, np.log(2.0 * big) - big - np.log1p(-np.exp(-2.0 * big)))


def _ad_matrix(y: np.ndarray) -> np.ndarray:
    """ad(Y) on su(2) coordinates: [E_i, E_j] = -eps_{ijk} E_k."""
    y1, y2, y3 = y
    return np.array(
        [
            [0.0, y3, -y2],
            [-y3, 0.0, y1],
            [y2, -y1, 0.0],
        ]
    )


def _ad_functions(y: np.ndarray):
    """Evaluate the four entire functions of ad(Y) used by the frame formula.

    Returns (sin(adY)/adY, (cos(adY)-1)/adY, sin(adY), cos(adY)).  ad(Y) is
    real skew with eigenvalues 0, +-i|Y|, so we diagonalize i*ad(Y)
    (hermitian); a power series fallback covers |Y| < 1e-4.
    """
    s = float(np.linalg.norm(y))
    ad = _ad_matrix(y)
    if s < 1e-4:
        eye = np.eye(3)
        ad2 = ad @ ad
        ad3 = ad @ ad2
        sinc = eye - ad2 / 6.0
        cosm1 = -ad / 2.0 + ad3 / 24.0
        sin = ad - ad3 / 6.0
        cos = eye - ad2 / 2.0
        return sinc, cosm1, sin, cos
    h = 1j * ad  # hermitian
    evals, vecs = np.linalg.eigh(h)
    lam = -1j * evals  # eigenvalues of ad(Y): 0, +-i s

    def f_of(fun):
        vals = np.array([fun(l) for l in lam])
        return ((vecs * vals) @ vecs.conj().T).real

    return f_of(_csinc), f_of(_ccosm1), f_of(np.sin), f_of(np.cos)


def _csinc(z: complex) -> complex:
    if abs(z) < 1e-8:
        return 1.0 - z * z / 6.0
    return np.sin(z) / z


def _ccosm1(z: complex) -> complex:
    if abs(z) < 1e-8:
        return -z / 2.0 + z**3 / 24.0
    return (np.cos(z) - 1.0) / z


def frame_coefficients(spec: GroupSpec, y):
    """Coefficient matrices (a, b, c, d) of the left-invariant frame.

    X_k  = sum_l a[k,l] Xtilde_l + b[k,l] d/dy_l
    JX_k = sum_l c[k,l] Xtilde_l + d[k,l] d/dy_l

    computed from the block formula with S = sin(adY)/adY:
    [[a, c], [b, d]] = transpose of S^{-1} [[S, (cos adY - 1)/adY],
    [sin adY, cos adY]] (the matrix functions produce coefficients indexed
    by column, so the row contract above needs the transpose).  S is always
    invertible (eigenvalues sinh(s)/s > 0).
    """
    d = spec.dim
    if spec.kind == "torus":
        eye = np.eye(d)
        zero = np.zeros((d, d))
        return eye, zero, zero.copy(), eye.copy()
    y = np.asarray(y, dtype=float)
    sinc, cosm1, sin, cos = _ad_functions(y)
    sinc_inv = np.linalg.inv(sinc)
    a = np.eye(3)
    c = (sinc_inv @ cosm1).T
    b = (sinc_inv @ sin).T
    d_ = (sinc_inv @ cos).T
    return a, b, c, d_

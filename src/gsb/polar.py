"""Polar coordinates g = x * exp(iY) on the complexified group.

Includes the density function Phi (through its logarithm, on batches of
points) and the star anti-involution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import PAULI, GroupSpec

__all__ = [
    "PointKC",
    "identity_point",
    "polar_decompose",
    "polar_compose",
    "exp_iy_batch",
    "star",
    "phi",
    "norm_y",
]

MAX_ABS_Y = 50.0  # overflow guard for the principal log / sinh factors


@dataclass(frozen=True)
class PointKC:
    """Polar pair (x, Y): x in K, Y coordinates in the orthonormal basis."""

    spec: GroupSpec
    x: np.ndarray  # torus: angles in [0, 2pi)^r; su2: 2x2 unitary, det 1
    y: np.ndarray  # real coordinates, length dim K
    # a batch of points carries leading axes on x and y that broadcast

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
    y = np.array([-np.trace(iy @ sigma).real for sigma in PAULI])
    if norm_y(y) > MAX_ABS_Y:
        raise ValueError("polar factor exceeds the |Y| overflow guard")
    return PointKC(spec, x, y)


def exp_iy_batch(spec: GroupSpec, ys: np.ndarray) -> np.ndarray:
    """exp(iY) for an (N, 3) batch of su(2) coordinates, shape (N, 2, 2).

    On a torus the point e^{iY} is just the complex vector iY.
    """
    ys = np.asarray(ys, dtype=float)
    if spec.kind == "torus":
        return 1j * ys
    r = np.linalg.norm(ys, axis=1)
    safe = np.where(r < 1e-12, 1.0, r)
    # iY = -(1/2)(y.sigma) squares to r^2/4 I: exp(iY) = cosh(r/2) I - sinh(r/2)(yhat.sigma)
    ysig = np.tensordot(ys / safe[:, None], PAULI, axes=(1, 0))
    ch = np.cosh(r / 2.0)[:, None, None]
    sh = np.sinh(r / 2.0)[:, None, None]
    out = ch * np.eye(2)[None] - sh * ysig
    out[r < 1e-12] = np.eye(2)
    return out


def polar_compose(spec: GroupSpec, p: PointKC):
    """Inverse of polar_decompose: the group element x * exp(iY), for one point or a batch."""
    if spec.kind == "torus":
        return np.asarray(p.x, dtype=float) + 1j * p.y
    e = exp_iy_batch(spec, p.y.reshape(-1, 3)).reshape(p.y.shape[:-1] + (2, 2))
    return np.asarray(p.x, dtype=complex) @ e


def star(spec: GroupSpec, p: PointKC) -> PointKC:
    """The anti-involution (x e^{iY})^* = e^{iY} x^{-1}, returned in polar form."""
    if spec.kind == "torus":
        x = np.mod(-np.asarray(p.x, dtype=float), 2.0 * math.pi)
        return PointKC(spec, x, p.y.copy())
    g = polar_compose(spec, p)
    return polar_decompose(spec, np.asarray(g).conj().T)


def phi(spec: GroupSpec, y):
    """Product of alpha(Y)/sinh(alpha(Y)) over positive roots (1 on tori), as exp(log_phi)."""
    return np.exp(log_phi(spec, y))


def log_phi(spec: GroupSpec, y):
    """log Phi(Y), safe for large |Y| (used by envelope code in log space).

    y is an (N, dim) batch (returns (N,)) or one point, a batch of one
    (returns a float).
    """
    ys = np.asarray(y, dtype=float)
    if spec.kind == "torus":
        out = np.zeros(ys.shape[:-1])
    else:
        s = np.linalg.norm(ys, axis=-1)
        s2 = s * s
        series = -np.log1p(s2 / 6.0 * (1.0 + s2 / 20.0))
        big = np.maximum(s, 1e-4)
        # log(s/sinh s) = log(2s) - s - log1p(-exp(-2s))
        out = np.where(s < 1e-4, series, np.log(2.0 * big) - big - np.log1p(-np.exp(-2.0 * big)))
    return out if ys.ndim > 1 else float(out)

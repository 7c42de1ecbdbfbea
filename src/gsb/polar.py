"""Polar coordinates g = x * exp(iY) on the complexified group.

A point is sampled as a polar pair (x, Y) and composed once, by
polar_compose, into its element of K_C: a complex (..., r) vector on a
torus or an (..., 2, 2) SL(2,C) matrix on SU(2).  The numerical layer works
on elements only and reads |Y| back with abs_y.  Includes the density
function Phi (through its logarithm, on batches of points).
"""

from __future__ import annotations

import numpy as np

from .groups import PAULI, GroupSpec

__all__ = [
    "polar_compose",
    "exp_iy_batch",
    "abs_y",
]

MAX_ABS_Y = 50.0  # overflow guard on |Y| for the sinh factors and inversion radii


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


def polar_compose(spec: GroupSpec, x, y):
    """The element x * exp(iY) of K_C, for one point or a batch: x in K
    (angles on a torus, a 2x2 unitary on SU(2)) and Y's coordinates in the
    orthonormal basis, with leading axes that broadcast."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "torus":
        return np.asarray(x, dtype=float) + 1j * y
    e = exp_iy_batch(spec, y.reshape(-1, 3)).reshape(y.shape[:-1] + (2, 2))
    return np.asarray(x, dtype=complex) @ e


def abs_y(spec: GroupSpec, g):
    """|Y| of the elements g = x exp(iY): ||Im z|| on a torus; on SU(2)
    2 log of the largest singular value, since exp(iY) is positive with
    eigenvalues e^{+-|Y|/2}.  One value per element of the batch."""
    if spec.kind == "torus":
        return np.linalg.norm(np.imag(g), axis=-1)
    return 2.0 * np.log(np.linalg.svd(g, compute_uv=False)[..., 0])


def log_phi(spec: GroupSpec, y):
    """log Phi(Y), safe for large |Y| (used by envelope code in log space).

    Phi is the product of alpha(Y)/sinh(alpha(Y)) over the positive roots
    alpha: 1 on a torus, |Y|/sinh|Y| on SU(2).  y is an (N, dim) batch;
    returns (N,).
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
    return out

"""Group data for the flat torus T^r and SU(2).

Everything downstream (Laplacian eigenvalues, root data, representation
matrices and their holomorphic continuations) comes from this module, so
the metric conventions are fixed here once:

* torus: K = R^r / 2*pi*Z^r with the flat metric, vol(K) = (2*pi)^r;
* SU(2): the bi-invariant metric with |Y|^2 = 2 trace(Y^* Y) on su(2),
  which makes E_k = i*sigma_k/2 an orthonormal basis, gives the single
  positive root alpha(Y) = |Y| on the closed chamber, |delta|^2 = 1/4,
  Laplacian eigenvalue (m^2-1)/4 on the m-dimensional irrep, and
  vol(SU(2)) = 16*pi^2 (the round 3-sphere of radius 2).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupSpec",
    "torus",
    "su2",
    "enumerate_irreps",
    "laplacian_eigenvalue",
    "irrep_dim",
    "rep_matrix_batch",
    "rep_generator",
    "su2_euler",
    "random_k",
    "random_algebra",
]

# Pauli matrices; E_k = 1j * PAULI[k] / 2 is the orthonormal su(2) basis.
PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

SU2_BASIS = 0.5j * PAULI
SU2_BASIS.setflags(write=False)


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "torus" or "su2"
    rank: int

    def __post_init__(self):
        if self.kind not in ("torus", "su2"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "torus" and not 1 <= self.rank <= 386:
            raise ValueError("torus rank must be in 1..386, where vol K = (2 pi)^r is a finite double")
        if self.kind == "su2" and self.rank != 1:
            raise ValueError("su2 has rank 1")

    @property
    def dim(self) -> int:
        return self.rank if self.kind == "torus" else 3

    @property
    def volume(self) -> float:
        if self.kind == "torus":
            return (2.0 * math.pi) ** self.rank
        return 16.0 * math.pi**2

    @property
    def delta_sq(self) -> float:
        return 0.0 if self.kind == "torus" else 0.25

    @property
    def lattice_step(self) -> float:
        """Generator spacing of the kernel lattice of exp along each axis:
        2 pi on a torus; exp(s E_3) = diag(e^{is/2}, e^{-is/2}) has period
        4 pi on SU(2)."""
        return 2.0 * math.pi if self.kind == "torus" else 4.0 * math.pi

    def __str__(self):
        return f"torus:{self.rank}" if self.kind == "torus" else "su2"


def torus(rank: int) -> GroupSpec:
    return GroupSpec("torus", rank)


def su2() -> GroupSpec:
    return GroupSpec("su2", 1)


def parse_group(text: str) -> GroupSpec:
    """Parse 'torus:r' or 'su2'."""
    text = text.strip().lower()
    if text == "su2":
        return su2()
    if text.startswith("torus:"):
        return torus(int(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse group {text!r}")


def enumerate_irreps(spec: GroupSpec, cutoff: int):
    """All irrep labels up to the cutoff, lazily, in deterministic sorted order.

    Torus: integer vectors n with max|n_i| <= cutoff, as an iterator (the
    (2 cutoff + 1)^r labels are never held at once).  SU(2): the range of
    dimensions 1..cutoff.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if spec.kind == "su2":
        return range(1, cutoff + 1)
    return itertools.product(range(-cutoff, cutoff + 1), repeat=spec.rank)


def irrep_dim(spec: GroupSpec, label) -> int:
    return 1 if spec.kind == "torus" else int(label)


def laplacian_eigenvalue(spec: GroupSpec, label) -> float:
    """Eigenvalue lambda >= 0 with Delta f = -lambda f on matrix entries."""
    if spec.kind == "torus":
        return float(sum(n * n for n in label))
    m = int(label)
    return (m * m - 1) / 4.0


def algebra_basis(spec: GroupSpec, k: int) -> np.ndarray:
    """The k-th orthonormal basis vector of the Lie algebra: E_k on SU(2), e_k on a torus."""
    return SU2_BASIS[k] if spec.kind == "su2" else np.eye(spec.rank)[k]


def _check_torus_label(spec, label):
    label = tuple(int(n) for n in np.atleast_1d(label))
    if len(label) != spec.rank:
        raise ValueError(f"label {label} has wrong rank for {spec}")
    return label


def rep_matrix_batch(spec: GroupSpec, label, gs: np.ndarray) -> np.ndarray:
    """Representation matrices pi(g) of a batch of elements g, holomorphic
    in g over the complexified group.

    Torus: gs is (N, r) complex vectors z (mod 2*pi*Z^r), returns the
    (N, 1, 1) values exp(i n.z).  SU(2): gs is (N, 2, 2) complex matrices
    with det 1, returns (N, m, m); the m-dimensional irrep is realized on
    degree-(m-1) polynomials with an orthonormal monomial basis, so pi(g) is
    unitary for unitary g and pi = id on the defining rep.  Non-finite
    elements are refused: the determinant guard would pass a nan.
    """
    gs = np.asarray(gs, dtype=complex)
    if not np.all(np.isfinite(gs)):
        raise ValueError("group elements must be finite")
    if spec.kind == "torus":
        label = _check_torus_label(spec, label)
        if gs.ndim != 2 or gs.shape[1] != spec.rank:
            raise ValueError("torus batch must have shape (N, r)")
        # n.z summed axis by axis, not by a BLAS product, whose rounding
        # depends on the batch size: each element keeps its batch-of-one bits
        vals = np.exp(1j * sum(n * gs[:, k] for k, n in enumerate(label)))
        return vals.reshape(-1, 1, 1)

    m = int(label)
    if m < 1:
        raise ValueError("su2 label must be a positive integer")
    if gs.ndim != 3 or gs.shape[1:] != (2, 2):
        raise ValueError("su2 batch must have shape (N, 2, 2)")
    det = gs[:, 0, 0] * gs[:, 1, 1] - gs[:, 0, 1] * gs[:, 1, 0]
    # cancellation in the determinant grows with the entry size, so the
    # guard is relative to the squared magnitude of the largest entry
    scale = 1.0 + np.max(np.abs(gs), axis=(1, 2)) ** 2
    if np.any(np.abs(det - 1.0) > 1e-8 * scale):
        raise ValueError("su2 group elements must have determinant 1")
    # Basis e_l = z1^{n-l} z2^l / sqrt((n-l)! l!), n = m-1: column k of pi(g)
    # holds the coefficients of (a z1 + c z2)^{n-k} (b z1 + d z2)^k, built by
    # n multiply-and-shift steps, the first n-k of them by (a, c)
    n = m - 1
    out = np.zeros((gs.shape[0], m, m), dtype=complex)
    out[:, 0] = 1.0
    for step in range(n):
        x = gs[:, :, (np.arange(m) >= n - step).astype(int)]
        col, out = out[:, :-1], np.zeros_like(out)
        out[:, :-1] += col * x[:, :1]
        out[:, 1:] += col * x[:, 1:]
    norms = np.array([math.sqrt(math.factorial(n - k) * math.factorial(k)) for k in range(m)])
    return out * (norms[:, None] / norms)


def rep_generator(spec: GroupSpec, label, X) -> np.ndarray:
    """d/ds pi(exp(sX))|_0 for X in the (complexified) Lie algebra.

    Torus: X is a complex r-vector tangent direction, returns [[i n.X]].
    SU(2): X is a 2x2 traceless matrix.
    """
    if spec.kind == "torus":
        label = _check_torus_label(spec, label)
        X = np.atleast_1d(np.asarray(X, dtype=complex))
        return np.array([[1j * np.dot(label, X)]])
    m = int(label)
    n = m - 1
    X = np.asarray(X, dtype=complex)
    out = np.zeros((m, m), dtype=complex)
    x11, x12 = X[0, 0], X[0, 1]
    x21, x22 = X[1, 0], X[1, 1]
    for k in range(m):
        out[k, k] = (n - k) * x11 + k * x22
        if k + 1 <= n:
            out[k + 1, k] = math.sqrt((n - k) * (k + 1)) * x21
        if k - 1 >= 0:
            out[k - 1, k] = math.sqrt(k * (n - k + 1)) * x12
    return out


def su2_euler(phi, theta, psi) -> np.ndarray:
    """The SU(2) elements e^{phi E3} e^{theta E2} e^{psi E3}, shape (..., 2, 2).

    The angle arrays broadcast against each other; with z = e^{i phi/2},
    w = e^{i psi/2} the product is [[z c w, z s w*], [-z* s w, z* c w*]],
    c = cos(theta/2), s = sin(theta/2).
    """
    z = np.exp(0.5j * np.asarray(phi, dtype=float))
    w = np.exp(0.5j * np.asarray(psi, dtype=float))
    half = 0.5 * np.asarray(theta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    entries = [z * c * w, z * s * w.conj(), -z.conj() * s * w, z.conj() * c * w.conj()]
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def random_k(spec: GroupSpec, rng: random.Random):
    """A Haar-random element of K (for tests and sample grids)."""
    if spec.kind == "torus":
        return np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(spec.rank)])
    q = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2) + 1j * (q[1] * PAULI[0] + q[2] * PAULI[1] + q[3] * PAULI[2])


def random_algebra(spec: GroupSpec, rng: random.Random, scale: float = 1.0) -> np.ndarray:
    """Random Y coordinates in the fixed orthonormal basis of the Lie algebra."""
    return np.array([rng.gauss(0.0, scale) for _ in range(spec.dim)])

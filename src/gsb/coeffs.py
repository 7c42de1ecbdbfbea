"""Finitely supported Peter-Weyl coefficient vectors.

A CoefVec holds one complex dim x dim block B_pi per irrep label and
represents f(x) = sum_pi trace(pi(x) B_pi).  The Plancherel convention is
fixed so that the squared norm equals the Riemannian-volume L^2 integral:

    ||f||^2 = sum_pi (vol K / dim pi) ||B_pi||_HS^2.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import (
    GroupSpec,
    irrep_dim,
    laplacian_eigenvalue,
    rep_matrix_batch,
)

__all__ = ["CoefVec", "basis_entry"]


class CoefVec:
    """Immutable finitely supported map: irrep label -> coefficient block."""

    def __init__(self, spec: GroupSpec, entries: dict):
        self.spec = spec
        cleaned = {}
        for label, block in entries.items():
            block = np.asarray(block, dtype=complex)
            d = irrep_dim(spec, label)
            if block.shape != (d, d):
                raise ValueError(f"block for {label} must be {d}x{d}")
            if np.any(block != 0):
                b = block.copy()
                b.setflags(write=False)
                cleaned[label] = b
        self.entries = cleaned

    @property
    def support(self):
        return sorted(self.entries.keys())

    def spectral(self, fn) -> "CoefVec":
        """New CoefVec with block pi scaled by fn(lambda_pi), lambda_pi the
        Laplacian eigenvalue of pi."""
        return CoefVec(
            self.spec,
            {label: fn(laplacian_eigenvalue(self.spec, label)) * block for label, block in self.entries.items()},
        )

    def plancherel_norm(self) -> float:
        vol = self.spec.volume
        total = 0.0
        for label, block in self.entries.items():
            total += vol / irrep_dim(self.spec, label) * float(np.sum(np.abs(block) ** 2))
        return math.sqrt(total)

    def label_traces(self, xs: np.ndarray) -> dict:
        """tr(pi(x) B_pi) at each element x of a batch ((N, r) torus angles or
        (N, 2, 2) matrices, in K or K_C): one (N,) array per label."""
        return {
            label: np.einsum("nij,ji->n", rep_matrix_batch(self.spec, label, xs), block)
            for label, block in self.entries.items()
        }

    def eval_k_batch(self, xs: np.ndarray) -> np.ndarray:
        """f at each element of a batch: the sum of its label traces."""
        traces = list(self.label_traces(xs).values())
        return sum(traces[1:], traces[0]) if traces else np.zeros(len(xs), dtype=complex)


def basis_entry(spec: GroupSpec, label, i: int = 0, j: int = 0) -> CoefVec:
    """The matrix entry pi_{ij}: coefficient block E_{ji} on one label."""
    d = irrep_dim(spec, label)
    block = np.zeros((d, d), dtype=complex)
    block[j, i] = 1.0
    return CoefVec(spec, {label: block})

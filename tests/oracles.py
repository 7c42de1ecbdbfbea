"""Independent routes that the tests check the package against.

No command reaches any of these, so they live with the tests:

* Plancherel norms of coefficient vectors, and (cI - Delta)^n on their
  blocks through sobolev.shift_scale, the package's one block multiplier;
* the entry pairs of two functions, whose holo_inner values sum to the form
  of their transforms;
* an AxisWeight y_k * radial(|Y|^2) at each node of a rule on the whole
  algebra;
* sample nodes and Haar (Riemannian-volume) weights on K, and the integral
  of a batch integrand on them;
* bench/reference.py, the benchmark's exact reference values (the Toeplitz
  symbol phi_n by its product-rule recursion among them).  It imports no
  gsb; it is read and compiled here, not imported, so no bytecode is
  written next to it.
"""

import math
import types
from functools import lru_cache
from pathlib import Path

import numpy as np

from gsb.coeffs import CoefVec
from gsb.groups import GroupSpec, irrep_dim, su2_euler
from gsb.quadrature import _tensor_rule, roots_legendre
from gsb.sobolev import shift_scale

REFERENCE_PATH = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
reference = types.ModuleType("reference")
exec(compile(REFERENCE_PATH.read_text(), str(REFERENCE_PATH), "exec"), vars(reference))


def plancherel_norm(f: CoefVec) -> float:
    """||f|| = sqrt(sum_pi (vol K / dim pi) ||B_pi||_HS^2)."""
    vol = f.spec.volume
    total = 0.0
    for label, block in f.entries.items():
        total += vol / irrep_dim(f.spec, label) * float(np.sum(np.abs(block) ** 2))
    return math.sqrt(total)


def sobolev_shift(f: CoefVec, n: int, c: float) -> CoefVec:
    """(cI - Delta)^n on coefficients: block pi times shift_scale."""
    return CoefVec(f.spec, {label: shift_scale(f.spec, label, n, c) * block for label, block in f.entries.items()})


def entry_pairs(f1: CoefVec, f2: CoefVec) -> list:
    """holo_inner's pairs of two functions: each nonzero entry of f1 with
    each of f2 on its label, scaled by the product conj(b1) b2 of their
    coefficients, so the form of C_t f1 and C_t f2 is the sum of their values."""
    pairs = []
    for label in sorted(f1.entries.keys() & f2.entries.keys()):
        b1, b2 = f1.entries[label], f2.entries[label]
        for j1, i1 in zip(*np.nonzero(b1)):
            for j2, i2 in zip(*np.nonzero(b2)):
                pairs.append(((label, i1, j1), (label, i2, j2), b1[j1, i1].conjugate() * b2[j2, i2]))
    return pairs


def axis_weight_at(weight, ys: np.ndarray) -> np.ndarray:
    """An AxisWeight's factor y_k * radial(|Y|^2) at each node of an (N, dim) batch."""
    ys = np.asarray(ys, dtype=float)
    return ys[:, weight.axis] * weight.radial(np.sum(ys**2, axis=1))


@lru_cache(maxsize=32)
def _k_haar_nodes_cached(kind: str, rank: int, level: int):
    if kind == "torus":
        pts = 2.0 * math.pi * np.arange(level) / level
        return _tensor_rule(pts, np.full(level, 2.0 * math.pi / level), rank)

    # Euler angles g = e^{phi E3} e^{theta E2} e^{psi E3}; Haar = sin(theta)
    # d(phi) d(theta) d(psi), total mass 16 pi^2.
    x, v = roots_legendre(level)  # cos(theta)
    phis = 2.0 * math.pi * np.arange(level) / level
    psis = 4.0 * math.pi * np.arange(2 * level) / (2 * level)
    mats = su2_euler(phis[:, None, None], np.arccos(x)[None, :, None], psis[None, None, :])
    w = (2.0 * math.pi / level) * v * (4.0 * math.pi / (2 * level))
    return mats.reshape(-1, 2, 2), np.broadcast_to(w[None, :, None], mats.shape[:3]).ravel()


def k_haar_nodes(spec: GroupSpec, level: int):
    """Sample nodes and Haar (Riemannian-volume) weights on K."""
    return _k_haar_nodes_cached(spec.kind, spec.rank, int(level))


def integrate_K(spec: GroupSpec, f, level: int) -> complex:
    """Integral over K with Riemannian-volume Haar.

    f maps an (N, ...) batch of group elements (torus angles (N, r), SU(2)
    matrices (N, 2, 2)) to (N,) values.
    """
    nodes, weights = k_haar_nodes(spec, level)
    return complex(np.dot(weights, np.asarray(f(nodes))))

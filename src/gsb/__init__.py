"""Numerics for the heat-kernel (Segal-Bargmann) transform on compact groups.

Covers tori and SU(2): Peter-Weyl coefficient vectors, polar coordinates on
the complexification, heat kernels and the Gangolli density, the transform
and its inversion integral, reproducing and Sobolev kernels, Toeplitz
symbols, and lattice-sum/growth-functional bound diagnostics.
"""

from .coeffs import CoefVec, basis_entry
from .groups import GroupSpec, parse_group, su2, torus
from .heat import log_nu_t, rho_eval
from .kernels import KernelQuery, k_sobolev_integral, k_sobolev_spectral, reproduce_check
from .polar import PointKC, abs_y, polar_compose
from .quadrature import QuadResult, QuadSpec, integrate_laguerre
from .sobolev import PolyU, laplacian_apply, sobolev_norm, toeplitz_symbol
from .transform import HoloFunc, ct_forward, ct_inverse_integral, holo_inner

__all__ = [
    "CoefVec",
    "GroupSpec",
    "HoloFunc",
    "KernelQuery",
    "PointKC",
    "PolyU",
    "QuadResult",
    "QuadSpec",
    "abs_y",
    "basis_entry",
    "ct_forward",
    "ct_inverse_integral",
    "holo_inner",
    "integrate_laguerre",
    "k_sobolev_integral",
    "k_sobolev_spectral",
    "laplacian_apply",
    "log_nu_t",
    "parse_group",
    "polar_compose",
    "reproduce_check",
    "rho_eval",
    "sobolev_norm",
    "su2",
    "toeplitz_symbol",
    "torus",
]

__version__ = "0.1.0"

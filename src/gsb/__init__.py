"""Numerics for the heat-kernel (Segal-Bargmann) transform on compact groups.

Covers tori and SU(2): Peter-Weyl coefficient vectors, polar coordinates on
the complexification, heat kernels and the Gangolli density, the transform
and its inverses, reproducing and Sobolev kernels, Toeplitz symbols, and
lattice-sum/growth-functional bound diagnostics.
"""

from .coeffs import CoefVec, basis_entry
from .groups import GroupSpec, parse_group, su2, torus
from .heat import log_nu_t, nu_t, rho_eval
from .kernels import KernelQuery, k_sobolev_integral, k_sobolev_spectral, reproduce_check
from .polar import PointKC, abs_y, identity_point, phi, polar_compose
from .quadrature import QuadResult, QuadSpec, integrate_K, integrate_kspace, integrate_laguerre
from .sobolev import (
    PolyU,
    holo_sobolev_norm,
    laplacian_apply,
    sobolev_norm,
    toeplitz_quadratic_form,
    toeplitz_symbol,
    weighted_norm,
)
from .transform import (
    HoloFunc,
    ct_forward,
    ct_inverse_integral,
    ct_inverse_spectral,
    holo_inner,
    holo_l2_norm,
)

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
    "ct_inverse_spectral",
    "holo_inner",
    "holo_l2_norm",
    "holo_sobolev_norm",
    "identity_point",
    "integrate_K",
    "integrate_kspace",
    "integrate_laguerre",
    "k_sobolev_integral",
    "k_sobolev_spectral",
    "laplacian_apply",
    "log_nu_t",
    "nu_t",
    "parse_group",
    "phi",
    "polar_compose",
    "reproduce_check",
    "rho_eval",
    "sobolev_norm",
    "su2",
    "toeplitz_quadratic_form",
    "toeplitz_symbol",
    "torus",
    "weighted_norm",
]

__version__ = "0.1.0"

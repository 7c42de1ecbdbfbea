"""Numerics for the heat-kernel (Segal-Bargmann) transform on compact groups.

Covers tori and SU(2): Peter-Weyl coefficient vectors, polar coordinates on
the complexification, heat kernels and the Gangolli density, the transform
and its inversion integral, reproducing and Sobolev kernels, Toeplitz
symbols, and lattice-sum/growth-functional bound diagnostics.

The core modules (groups, coeffs, polar, quadrature, transform) load with
the package.  heat, kernels, sobolev and bounds are registered lazily, as
Scientific Python SPEC 1 describes: each is in sys.modules at once, and its
code runs on the first attribute access, so a command that never uses one
never compiles or runs it.  Their exported names resolve through the
module __getattr__ below.  Before Python 3.12 LazyLoader takes no lock, so
a threaded caller should touch each of them once before it starts threads.
"""

import importlib.util
import sys

from .coeffs import CoefVec, basis_entry
from .groups import GroupSpec, parse_group, su2, torus
from .polar import abs_y, polar_compose
from .quadrature import QuadResult, QuadSpec, integrate_laguerre
from .transform import HoloFunc, ct_forward, ct_inverse_integral, holo_inner


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


heat, kernels, sobolev, bounds = (_lazy(name) for name in ("heat", "kernels", "sobolev", "bounds"))

_EXPORTED_FROM = {
    "log_nu_t": heat,
    "rho_eval": heat,
    "KernelQuery": kernels,
    "k_sobolev_integral": kernels,
    "k_sobolev_spectral": kernels,
    "reproduce_check": kernels,
    "PolyU": sobolev,
    "laplacian_apply": sobolev,
    "sobolev_norm": sobolev,
    "toeplitz_symbol": sobolev,
}


def __getattr__(name: str):
    if name not in _EXPORTED_FROM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EXPORTED_FROM[name], name)


__all__ = [
    "CoefVec",
    "GroupSpec",
    "HoloFunc",
    "KernelQuery",
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

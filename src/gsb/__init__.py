"""Numerics for the heat-kernel (Segal-Bargmann) transform on compact groups.

Covers tori and SU(2): Peter-Weyl coefficient vectors, polar coordinates on
the complexification, heat kernels and the Gangolli density, the transform
and its inversion integral, reproducing and Sobolev kernels, Toeplitz
symbols, and lattice-sum/growth-functional bound diagnostics.

Every numerical module (groups, coeffs, polar, quadrature, transform, heat,
kernels, sobolev, bounds and suites) is registered lazily, as Scientific
Python SPEC 1 describes: each is in sys.modules at once, and its code runs
on the first attribute access, so importing the package runs none of them
(nor numpy), and a command that never uses one never compiles or runs it.
The exported names resolve through the module __getattr__ below.  Before
Python 3.12 LazyLoader takes no lock, so a threaded caller should touch
each module it uses once before it starts threads.
"""

import importlib.util
import sys


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# module -> the names the package exports from it
_EXPORTS = {
    "groups": ("GroupSpec", "parse_group", "su2", "torus"),
    "coeffs": ("CoefVec", "basis_entry"),
    "polar": ("abs_y", "polar_compose"),
    "quadrature": ("QuadResult", "QuadSpec", "integrate_laguerre"),
    "transform": ("HoloFunc", "ct_forward", "ct_inverse_integral", "holo_inner"),
    "heat": ("log_nu_t", "rho_eval"),
    "kernels": ("KernelQuery", "k_sobolev_integral", "k_sobolev_spectral", "reproduce_check"),
    "sobolev": ("PolyU", "laplacian_apply", "sobolev_norm", "toeplitz_symbol"),
    "bounds": (),
    "suites": (),
}
# the command line, gsb.cli, is not registered: `python -m gsb.cli` warns
# when its module is in sys.modules before it runs
globals().update({module: _lazy(module) for module in _EXPORTS})
_EXPORTED_FROM = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _EXPORTED_FROM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTED_FROM[name]], name)


__all__ = sorted(_EXPORTED_FROM)

__version__ = "0.1.0"

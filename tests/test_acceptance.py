"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite output doubles as a
certification report.  Norms, reproduction and Sobolev isometry hold to the
same tolerance on SU(2) as on tori: the SU(2) k-space integrals reduce to
radial sums that are exact for polynomial weights.
"""

import math
import random

import numpy as np
import pytest

from gsb.bounds import (
    kernel_bound_check,
    lattice_limit_check,
    polar_grid,
    smoothness_report,
)
from gsb.coeffs import CoefVec, basis_entry
from gsb.groups import enumerate_irreps, irrep_dim, random_algebra, random_k, su2, torus
from gsb.kernels import KernelQuery, k_sobolev_integral, k_sobolev_spectral, pair_point, reproduce_check
from gsb.polar import log_phi, polar_compose
from gsb.quadrature import QuadSpec

# the level gap every quadrature here must meet
GAP_TOL = 1e-6
from gsb.sobolev import (
    phi_x_weight,
    sobolev_norm,
    sobolev_shift,
    symbol_positivity_threshold,
    toeplitz_symbol,
)
from gsb.transform import ct_forward, ct_inverse_integral, entry_pairs, holo_inner

TORUS = torus(1)
SU2 = su2()


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _basis(spec, cutoff):
    out = []
    for label in enumerate_irreps(spec, cutoff):
        d = irrep_dim(spec, label)
        for i in range(d):
            for j in range(d):
                out.append(basis_entry(spec, label, i, j))
    return out


def _sum(*fs):
    """The sum of functions supported on distinct labels."""
    return CoefVec(fs[0].spec, {label: block for f in fs for label, block in f.entries.items()})


def _forms(pairs, t, q, **kwargs):
    """<C_t f1, C_t f2> for each pair (f1, f2) of functions, each the sum of
    holo_inner's values on their entry pairs, and whether every quadrature
    gap meets GAP_TOL."""
    entries, spans = [], []
    for f1, f2 in pairs:
        span = entry_pairs(f1, f2)
        spans.append(slice(len(entries), len(entries) + len(span)))
        entries += span
    res = holo_inner(pairs[0][0].spec, t, entries, q, **kwargs)
    return [complex(np.sum(res.value[span])) for span in spans], bool(np.all(res.gap <= GAP_TOL))


def _norms(fs, t, q, **kwargs):
    """K_C L^2 norms of C_t f for a batch of functions, and whether every quadrature gap meets GAP_TOL."""
    values, gaps_ok = _forms([(f, f) for f in fs], t, q, **kwargs)
    return [math.sqrt(max(v.real, 0.0)) for v in values], gaps_ok


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _random_points(spec, rng, count, max_norm=3.0):
    """The elements of a batch of count points with |Y| uniform in [0, max_norm]."""
    xs, ys = [], []
    for _ in range(count):
        y = random_algebra(spec, rng)
        y *= rng.uniform(0.0, max_norm) / max(np.linalg.norm(y), 1e-12)
        xs.append(random_k(spec, rng))
        ys.append(y)
    return polar_compose(spec, np.stack(xs), np.stack(ys))


def test_criterion_01_transform_is_unitary():
    worst = 0.0
    ok = True
    for spec, cutoff, tol in ((TORUS, 5, 1e-6), (SU2, 4, 1e-6)):
        basis = _basis(spec, cutoff)
        for t in (0.5, 1.0, 2.0):
            norms, gaps_ok = _norms(basis, t, QuadSpec())
            ok = ok and gaps_ok
            for f, norm in zip(basis, norms):
                err = _rel(norm, f.plancherel_norm())
                worst = max(worst, err / tol)
                ok = ok and err <= tol
    _report("transform norms match source norms across the entry basis", ok, f"worst err/tol {worst:.2e}")


def test_criterion_02_density_mass():
    worst = 0.0
    for spec in (TORUS, torus(2), SU2):
        one = CoefVec(spec, {((0,) * spec.rank if spec.kind == "torus" else 1): np.ones((1, 1))})
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            mass = holo_inner(spec, t, entry_pairs(one, one), QuadSpec()).value[0].real
            worst = max(worst, _rel(mass, spec.volume))
    _report("density integrates to the group volume", worst <= 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_03_reproducing_property():
    rng = random.Random(11)
    ok = True
    worst = 0.0
    for spec, tol in ((TORUS, 1e-6), (SU2, 1e-6)):
        basis = _basis(spec, 5 if spec.kind == "torus" else 3)[:5]
        points = _random_points(spec, rng, 20)
        residual, _ = reproduce_check([ct_forward(f, 1.0) for f in basis], points, QuadSpec())
        worst = max(worst, float(np.max(residual)) / tol)
        ok = ok and bool(np.all(residual <= tol))
    _report("point evaluations reproduce through the kernel integral", ok, f"worst residual/tol {worst:.2e}")


def test_criterion_04_sobolev_isometry_and_commutation():
    ok = True
    worst = 0.0
    for spec, tol in ((TORUS, 1e-6), (SU2, 1e-6)):
        t = 1.0
        for n in (1, 2):
            c = spec.delta_sq + 1.0
            basis = _basis(spec, 3)
            norms, gaps_ok = _norms([sobolev_shift(f, n, c) for f in basis], t, QuadSpec())
            ok = ok and gaps_ok
            for f, norm in zip(basis, norms):
                err = _rel(norm, sobolev_norm(f, n, c))
                worst = max(worst, err / tol)
                ok = ok and err <= tol
    _report("Sobolev norms carry over isometrically", ok, f"worst err/tol {worst:.2e}")


def test_criterion_05_kernel_two_routes_agree():
    rng = random.Random(5)
    worst = 0.0
    q = QuadSpec(levels=(48, 64, 96))
    for spec in (TORUS, SU2):
        c = spec.delta_sq + 1.0
        for n in (1, 2):
            # 15 pairs (g, h), drawn g, h, g, h, ...: one batched query
            draws = [(random_k(spec, rng), random_algebra(spec, rng, 0.6)) for _ in range(30)]
            xs, ys = (np.stack(part) for part in zip(*draws))
            gh = pair_point(spec, polar_compose(spec, xs[0::2], ys[0::2]), polar_compose(spec, xs[1::2], ys[1::2]))
            query = KernelQuery(spec, gh, 1.0, n, c)
            lhs = k_sobolev_spectral(query)
            rhs, _ = k_sobolev_integral(query, q)
            worst = max([worst] + [_rel(a, b) for a, b in zip(lhs.tolist(), rhs.tolist())])
    _report("spectral and gamma-integral kernel routes agree", worst <= 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_06_pointwise_bound_and_envelope():
    rng = random.Random(6)
    ok = True
    t, n = 1.0, 1
    for spec in (TORUS, SU2):
        c = spec.delta_sq + 1.0
        label = (3,) if spec.kind == "torus" else 3
        f = _sum(basis_entry(spec, label, 0, 0), basis_entry(spec, (1,) if spec.kind == "torus" else 2, 0, 0))
        F = ct_forward(f, t)
        (norm,), gaps_ok = _norms([sobolev_shift(f, n, c)], t, QuadSpec())
        ok = ok and gaps_ok
        p = _random_points(spec, rng, 20)
        lhs = np.abs(sum(F.label_traces(p).values())) ** 2
        rhs = norm**2 * k_sobolev_spectral(KernelQuery(spec, pair_point(spec, p, p), t, n, c)).real
        ok = ok and bool(np.all(lhs <= rhs * (1.0 + 1e-6)))
        # diagonal envelope ratio, stable under radial grid refinement
        sups = []
        for n_radial in (20, 40):
            grid = polar_grid(spec, 3.0, n_radial=n_radial, n_angular=8)
            e = np.zeros(spec.rank) if spec.kind == "torus" else np.eye(2, dtype=complex)
            g = polar_compose(spec, np.broadcast_to(e, (len(grid),) + e.shape), grid)
            u = np.sum(grid * grid, axis=1)
            k = k_sobolev_spectral(KernelQuery(spec, pair_point(spec, g, g), t, n, c)).real
            vals = np.log(k) + 2 * n * np.log1p(u) - log_phi(spec, grid) - u / t
            sups.append(math.exp(np.max(vals)))
        ok = ok and math.isfinite(sups[1]) and abs(sups[1] - sups[0]) <= 0.05 * sups[0]
    _report("pointwise values stay inside the kernel bound; envelope ratio grid-stable", ok)


def test_criterion_07_toeplitz_forms():
    ok = True
    worst = 0.0
    t = 1.0
    for spec, tol in ((TORUS, 1e-6), (SU2, 1e-3)):
        basis = _basis(spec, 3)
        pairs = [(f, f) for f in basis] + list(zip(basis[:-1], basis[1:]))
        for n in (1, 2):
            c = spec.delta_sq + 1.0
            quads, _ = _forms(pairs, t, QuadSpec(), weight=toeplitz_symbol(spec, t, c, n))
            spectrals, _ = _forms([(f1, sobolev_shift(f2, n, c)) for f1, f2 in pairs], t, QuadSpec())
            for (f1, f2), quad, spectral in zip(pairs, quads, spectrals):
                floor = 1e-6 * f1.plancherel_norm() * f2.plancherel_norm()
                err = abs(quad - spectral) / max(abs(quad), abs(spectral), floor)
                worst = max(worst, err / tol)
                ok = ok and err <= tol
        for k in range(spec.dim):
            # <F, X_k F> by the axis gather, and the quadratic form of the symbol of X_k
            lhs_values, _ = _forms(pairs[: len(basis)], t, QuadSpec(), axis=k)
            rhs_values, _ = _forms(pairs[: len(basis)], t, QuadSpec(), weight=phi_x_weight(spec, t, k))
            for (f1, f2), lhs, rhs in zip(pairs[: len(basis)], lhs_values, rhs_values):
                floor = 1e-6 * f1.plancherel_norm() * f2.plancherel_norm()
                err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)
                worst = max(worst, err / tol)
                ok = ok and err <= tol
    _report("shift and derivative operators act as multiplication by their symbols", ok, f"worst err/tol {worst:.2e}")


def test_criterion_08_symbol_structure():
    ok = True
    for spec in (TORUS, torus(2), SU2):
        for n in (1, 2, 3, 4):
            # degree n, top coefficient t^{-2n} exactly at dyadic t, all positive well above the threshold
            for t, c in ((2.0, 1.25), (0.5, 20.0), (0.25, 40.0)):
                sym = toeplitz_symbol(spec, t, c, n)
                ok = ok and sym.degree == n and sym.coefficients[n] == t ** (-2 * n)
                ok = ok and (t > 1 or all(coef > 0 for coef in sym.coefficients))
            c = symbol_positivity_threshold(spec, 1.0, n)
            ok = ok and all(coef > 0 for coef in toeplitz_symbol(spec, 1.0, c, n).coefficients)
    _report("symbol is a degree-n polynomial with exact top coefficient and a positivity threshold", ok)


def test_criterion_09_weighted_norm_equivalence():
    t, n = 1.0, 1
    c = symbol_positivity_threshold(SU2, t, 2 * n)
    basis = _basis(SU2, 4)
    weighted, _ = _norms(basis, t, QuadSpec(), weight=lambda u: (1.0 + u) ** (2 * n))
    sobolev, gaps_ok = _norms([sobolev_shift(f, 2 * n, c) for f in basis], t, QuadSpec())
    ratios = [a / b for a, b in zip(weighted, sobolev)]
    spread = max(ratios) / min(ratios)
    ok = gaps_ok and all(math.isfinite(r) and r > 0 for r in ratios) and spread <= 50.0
    _report("weighted norms are two-sided equivalent to Sobolev norms", ok, f"ratio spread {spread:.2f}")


def test_criterion_10_inversion():
    ok = True
    worst = {"torus": 0.0, "su2": 0.0}
    for spec, tol in ((TORUS, 1e-8), (SU2, 1e-2)):
        label = (2,) if spec.kind == "torus" else 2
        f = _sum(basis_entry(spec, label, 0, 0), CoefVec(spec, {(0,) if spec.kind == "torus" else 1: [[0.5]]}))
        F = ct_forward(f, 1.0)
        x = np.zeros((1, 1)) if spec.kind == "torus" else np.eye(2, dtype=complex)[None]
        values, _ = ct_inverse_integral(F, x, (4.0, 7.0, 10.0), QuadSpec(levels=(32, 48)))
        exact = f.eval_k_batch(x)[0]
        errs = [abs(v[0] - exact) / max(abs(exact), 1e-300) for v in values]
        worst[spec.kind] = errs[-1]
        stabilized = abs(values[-1][0] - values[-2][0]) <= 1e-6 * max(1.0, abs(values[-1][0]))
        ok = ok and stabilized and errs[0] >= errs[1] >= errs[2] and errs[-1] <= tol
    _report(
        "truncated inversion (ball on SU(2), cube on tori) recovers point values and stabilizes in the radius",
        ok,
        f"final rel err torus {worst['torus']:.2e}, su2 {worst['su2']:.2e}",
    )


def test_criterion_11_lattice_limit():
    ok = True
    worst = 0.0
    for spec in (TORUS, torus(2), SU2):
        rows = lattice_limit_check(spec, tau_list=(16.0, 64.0, 256.0))
        gaps = [row[3] for row in rows]
        ok = ok and gaps[-1] < 0.01 and gaps[0] >= gaps[1] >= gaps[2]
        worst = max(worst, gaps[-1])
    _report("scaled lattice sums converge to the chamber Gaussian integral", ok, f"worst gap at 256: {worst:.2e}")


def test_criterion_12_smoothness_diagnostic():
    ok = True
    for spec in (TORUS, SU2):
        rows = smoothness_report(spec, 1.0, cutoff=3, n_max=4)
        ok = ok and len(rows) == 2 * 5 and all(stable for _, _, _, stable in rows)
    _report("growth functionals G_n are radius-stable for band-limited inputs, n <= 4", ok)


def test_consistency_kernel_envelope():
    # companion invariant: the diagonal heat kernel sits under the alpha_t
    # Gaussian envelope with 5% slack
    ok = True
    for spec in (TORUS, SU2):
        ok = ok and all(passed for *_, passed in kernel_bound_check(spec, 1.0))
    _report("diagonal kernel obeys the Gaussian-envelope estimate", ok)

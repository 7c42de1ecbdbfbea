import math

import numpy as np
import pytest

from gsb.bounds import (
    alpha_t_estimate,
    growth_functional,
    kernel_bound_check,
    lattice_limit_check,
    lattice_sum,
    polar_grid,
    smoothness_report,
)
from gsb.coeffs import CoefVec, basis_entry
from gsb.groups import enumerate_irreps, irrep_dim, su2, torus
from gsb.polar import exp_iy_batch
from gsb.transform import ct_forward


@pytest.mark.parametrize("spec", [torus(1), torus(2), torus(3), torus(4), su2()], ids=str)
def test_lattice_sum_is_the_theta_product(spec):
    # h theta_3(0, q)^r with q = e^{-step^2/tau}, h = 1/2 on SU(2), summed
    # with 40 digits; mpmath's jtheta refuses q this close to 1 past tau ~ 1e5
    import mpmath

    share = 0.5 if spec.kind == "su2" else 1.0
    with mpmath.workdps(40):
        for tau in (1e-4, 0.5, 1.0, 4.0 * math.pi, 16.0, 256.0, 4096.0):
            q = mpmath.exp(-mpmath.mpf(spec.lattice_step) ** 2 / mpmath.mpf(tau))
            exact = share * mpmath.jtheta(3, 0, q) ** spec.rank
            assert abs(lattice_sum(spec, tau) - exact) <= 2e-15 * exact, tau


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()], ids=str)
def test_alpha_estimate_is_the_nine_point_scan_maximum(spec):
    # the sup over tau >= t sits at tau = t, so the scan over tau = t 2^k,
    # k = 0..8, that alpha_t once was finds nothing larger
    for t in np.logspace(-3.0, math.log10(300.0), 41).tolist():
        alpha = alpha_t_estimate(spec, t)
        scan = max(lattice_sum(spec, tau) / tau ** (spec.rank / 2.0) for tau in (t * 2.0**k for k in range(9)))
        assert abs(scan - alpha) <= 2e-16 * alpha, t


def test_lattice_sum_small_tau():
    # only gamma = 0 survives; on the chamber half line it counts 1/2
    assert lattice_sum(torus(1), 1e-4) == pytest.approx(1.0, rel=1e-12)
    assert lattice_sum(su2(), 1e-4) == pytest.approx(0.5, rel=1e-12)


def test_lattice_sum_torus_theta_value():
    # sum over 2 pi Z of e^{-gamma^2} = theta_3(0, e^{-4 pi^2})
    got = lattice_sum(torus(1), 1.0)
    expect = 1.0 + 2.0 * sum(math.exp(-((2 * math.pi * k) ** 2)) for k in range(1, 5))
    assert got == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_lattice_limit(spec):
    rows = lattice_limit_check(spec, tau_list=(16.0, 64.0, 256.0))
    gaps = [row[3] for row in rows]
    assert gaps[-1] < 0.01
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_alpha_estimate_dominates_large_tau():
    spec = su2()
    alpha = alpha_t_estimate(spec, 1.0)
    for tau in (1.0, 8.0, 512.0):
        assert lattice_sum(spec, tau) / math.sqrt(tau) <= alpha * (1 + 1e-12)


def test_growth_functional_constant():
    spec = torus(1)
    # F is the constant 1; at Y = 0 the functional equals 1 and the
    # Gaussian envelope beats polynomial growth elsewhere
    grid = polar_grid(spec, 6.0)
    ((value, arg),) = growth_functional(spec, 1.0, np.ones(len(grid)), [0], grid)
    assert value == pytest.approx(1.0, rel=1e-10)
    assert np.allclose(arg, 0.0)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_smoothness_report_stable(spec):
    rows = smoothness_report(spec, 1.0, cutoff=3, n_max=3)
    assert len(rows) == 4 * 2
    assert rows == sorted(rows, key=lambda row: (row[0], row[1]))
    assert all(stable for _, _, _, stable in rows)
    by_n = {}
    for n, r, v, _ in rows:
        by_n.setdefault(n, {})[r] = v
    for n in range(3):
        assert by_n[n][6.0] <= by_n[n + 1][6.0] * (1 + 1e-9)


def _two_label_values(spec, grid):
    # C_1 f at e^{iY} on the grid, f one matrix entry of a nontrivial label plus the constant
    label = (2, -1) if spec.kind == "torus" else 3
    other = (0,) * spec.rank if spec.kind == "torus" else 1
    F = ct_forward(CoefVec(spec, {**basis_entry(spec, label).entries, **basis_entry(spec, other).entries}), 1.0)
    return sum(F.label_traces(exp_iy_batch(spec, grid)).values())


@pytest.mark.parametrize("spec", [torus(2), su2()], ids=str)
def test_growth_functional_orders_match_one_order_calls(spec):
    grid = polar_grid(spec, 4.0, n_radial=12, n_angular=8)
    values = _two_label_values(spec, grid)
    sups = growth_functional(spec, 1.0, values, range(5), grid)
    assert len(sups) == 5
    for n, (value, arg) in enumerate(sups):
        ((one_value, one_arg),) = growth_functional(spec, 1.0, values, [n], grid)
        assert value == one_value
        assert np.array_equal(arg, one_arg)


@pytest.mark.parametrize("n_max", [0, 4])
def test_smoothness_report_evaluates_F_once_per_grid(monkeypatch, n_max):
    # F is one character series per radius, whatever the number of orders,
    # and no representation batch is formed
    from gsb import bounds, coeffs, groups, heat

    calls = []
    series = heat._series

    def counted(spec, tau, g, cutoff, weight=None):
        calls.append((len(g), cutoff))
        return series(spec, tau, g, cutoff, weight)

    def refuse(*args):
        raise AssertionError("rep_matrix_batch called")

    monkeypatch.setattr(heat, "_series", counted)
    monkeypatch.setattr(groups, "rep_matrix_batch", refuse)
    monkeypatch.setattr(coeffs, "rep_matrix_batch", refuse)
    rows = smoothness_report(su2(), 1.0, cutoff=5, n_max=n_max)
    assert len(rows) == 2 * (n_max + 1)
    points = len(polar_grid(su2(), bounds.GRID_RADIUS))  # the doubled grid has as many
    assert calls == [(points, 5)] * 2


@pytest.mark.parametrize(
    "spec, cutoff",
    [(spec, cutoff) for spec in (torus(1), torus(2), su2()) for cutoff in (1, 4, 16)] + [(torus(3), 6)],
    ids=str,
)
def test_character_series_matches_the_label_route(spec, cutoff):
    # F = C_t f, f the sum of the characters up to the cutoff (identity
    # blocks), as the sum of its label traces; every term is positive at
    # e^{iY}, so the two routes agree to rounding at each point.  The grids
    # keep the report's 40 radii on a coarser sphere (8 angles a polar
    # coordinate, not 16), where the label route costs a quarter as much
    from gsb.bounds import GRID_RADIUS, _character_series

    t = 1.0
    f = CoefVec(spec, {label: np.eye(irrep_dim(spec, label)) for label in enumerate_irreps(spec, cutoff)})
    for radius in (GRID_RADIUS, 2.0 * GRID_RADIUS):
        grid = polar_grid(spec, radius, n_angular=8)
        exact = sum(ct_forward(f, t).label_traces(exp_iy_batch(spec, grid)).values())
        series = _character_series(spec, t, cutoff, grid)
        assert np.all(np.isfinite(exact))
        assert np.max(np.abs(series - exact) / np.abs(exact)) <= 5e-14, radius


def test_smoothness_rows_are_nan_at_the_radius_where_the_series_overflows():
    # on torus:1 at cutoff 64, e^{64 |Y|} passes the double range at |Y| = 12
    rows = smoothness_report(torus(1), 1.0, cutoff=64, n_max=2)
    assert all(math.isfinite(g) for _, r, g, _ in rows if r == 6.0)
    assert all(math.isnan(g) and not stable for _, r, g, stable in rows if r == 12.0)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_kernel_bound(spec):
    rows = kernel_bound_check(spec, 1.0)
    assert [passed for *_, passed in rows] == [True] * 3
    assert all(ratio <= 1.05 and alpha == alpha_t_estimate(spec, 1.0) for _, ratio, alpha, _ in rows)


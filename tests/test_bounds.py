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
from gsb.groups import su2, torus
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
    F = ct_forward(basis_entry(spec, (0,), 0, 0), 1.0)
    # F is the constant 1; at Y = 0 the functional equals 1 and the
    # Gaussian envelope beats polynomial growth elsewhere
    grid = polar_grid(spec, 6.0)
    ((value, arg),) = growth_functional(F, [0], grid)
    assert value == pytest.approx(1.0, rel=1e-10)
    assert np.allclose(arg, 0.0)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_smoothness_report_stable(spec):
    label = (2,) if spec.kind == "torus" else 3
    f = CoefVec(spec, {**basis_entry(spec, label).entries, **basis_entry(spec, (0,) if spec.kind == "torus" else 1).entries})
    rows = smoothness_report(ct_forward(f, 1.0), n_max=3)
    assert len(rows) == 4 * 2
    assert rows == sorted(rows, key=lambda row: (row[0], row[1]))
    assert all(stable for _, _, _, stable in rows)
    by_n = {}
    for n, r, v, _ in rows:
        by_n.setdefault(n, {})[r] = v
    for n in range(3):
        assert by_n[n][6.0] <= by_n[n + 1][6.0] * (1 + 1e-9)


def _two_label_function(spec):
    label = (2, -1) if spec.kind == "torus" else 3
    other = (0,) * spec.rank if spec.kind == "torus" else 1
    return ct_forward(CoefVec(spec, {**basis_entry(spec, label).entries, **basis_entry(spec, other).entries}), 1.0)


@pytest.mark.parametrize("spec", [torus(2), su2()], ids=str)
def test_growth_functional_orders_match_one_order_calls(spec):
    F = _two_label_function(spec)
    grid = polar_grid(spec, 4.0, n_radial=12, n_angular=8)
    sups = growth_functional(F, range(5), grid)
    assert len(sups) == 5
    for n, (value, arg) in enumerate(sups):
        ((one_value, one_arg),) = growth_functional(F, [n], grid)
        assert value == one_value
        assert np.array_equal(arg, one_arg)


@pytest.mark.parametrize("n_max", [0, 4])
def test_smoothness_report_evaluates_F_once_per_grid(monkeypatch, n_max):
    # every point of the two grids is evaluated once, in blocks of
    # GRID_BLOCK, whatever the number of orders
    from gsb import bounds
    from gsb.transform import HoloFunc

    calls = []
    label_traces = HoloFunc.label_traces

    def counted(self, g):
        calls.append(len(g))
        return label_traces(self, g)

    monkeypatch.setattr(HoloFunc, "label_traces", counted)
    rows = smoothness_report(_two_label_function(su2()), n_max=n_max)
    assert len(rows) == 2 * (n_max + 1)
    points = len(polar_grid(su2(), bounds.GRID_RADIUS))  # the doubled grid has as many
    assert sum(calls) == 2 * points
    assert len(calls) == 2 * -(-points // bounds.GRID_BLOCK)


@pytest.mark.parametrize("spec, n_radial", [(torus(2), 100), (su2(), 40)], ids=str)
def test_blocked_growth_functional_equals_one_evaluation(monkeypatch, spec, n_radial):
    # 1,601 and 10,241 grid points, neither a multiple of the block: F is
    # evaluated on ceil(N / GRID_BLOCK) blocks, whose values are those of one
    # evaluation on the whole grid, bit for bit
    from gsb import bounds
    from gsb.polar import exp_iy_batch
    from gsb.transform import HoloFunc

    F = _two_label_function(spec)
    grid = polar_grid(spec, 6.0, n_radial=n_radial, n_angular=16)
    assert len(grid) % bounds.GRID_BLOCK != 0
    whole = sum(F.label_traces(exp_iy_batch(spec, grid)).values())
    blocks = []
    label_traces = HoloFunc.label_traces

    def recorded(self, g):
        traces = label_traces(self, g)
        blocks.append(sum(traces.values()))
        return traces

    monkeypatch.setattr(HoloFunc, "label_traces", recorded)
    blocked = growth_functional(F, range(5), grid)
    assert len(blocks) == -(-len(grid) // bounds.GRID_BLOCK) > 1
    assert np.array_equal(np.concatenate(blocks), whole)
    monkeypatch.setattr(bounds, "GRID_BLOCK", len(grid))
    unblocked = growth_functional(F, range(5), grid)
    assert len(blocks) == -(-len(grid) // 1024) + 1
    for (value, arg), (one_value, one_arg) in zip(blocked, unblocked):
        assert value == one_value
        assert np.array_equal(arg, one_arg)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_kernel_bound(spec):
    rows = kernel_bound_check(spec, 1.0)
    assert [passed for *_, passed in rows] == [True] * 3
    assert all(ratio <= 1.05 and alpha == alpha_t_estimate(spec, 1.0) for _, ratio, alpha, _ in rows)


import math

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from gsb.groups import rep_matrix_batch, su2, torus
from gsb.quadrature import (
    MAX_ORDER,
    QuadSpec,
    integrate_K,
    integrate_kspace,
    integrate_laguerre,
    integrate_levels,
    kspace_rule,
    roots_genlaguerre,
    roots_hermite,
    roots_legendre,
    su2_radial_rule,
)

# the level gap every quadrature here must meet
GAP_TOL = 1e-6


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(levels=(8,))


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_kspace_mass_one(spec):
    q = QuadSpec()
    res = integrate_kspace(spec, 0.7, lambda ys: np.ones(ys.shape[0]), q)
    assert res.value.real == pytest.approx(1.0, abs=1e-12)
    assert res.gap <= GAP_TOL


@pytest.mark.parametrize("spec", [torus(2), su2()])
def test_kspace_odd_integrand_vanishes(spec):
    res = integrate_kspace(spec, 1.3, lambda ys: ys[:, 0], QuadSpec())
    assert abs(res.value) < 1e-12


def test_torus_gaussian_polynomial_exact():
    # Gauss-Hermite exactness: E[Y^4] under the weight e^{-y^2/t}/sqrt(pi t)
    t = 0.6
    res = integrate_kspace(torus(1), t, lambda ys: ys[:, 0] ** 4, QuadSpec(levels=(8, 12)))
    assert res.value.real == pytest.approx(0.75 * t * t, rel=1e-13)


def test_su2_radial_moment():
    # E[|Y|^2] under c_t e^{-|Y|^2/t}/Phi dY, against adaptive reference
    t = 1.1
    ct = (math.pi * t) ** -1.5 * math.exp(-0.25 * t)
    ref = quad(
        lambda r: 4 * math.pi * ct * r**3 * math.sinh(r) * math.exp(-r * r / t),
        0,
        40,
        epsabs=1e-13,
    )[0]
    res = integrate_kspace(su2(), t, lambda ys: np.sum(ys**2, axis=1), QuadSpec())
    assert res.value.real == pytest.approx(ref, rel=1e-10)


def test_laguerre_gamma():
    res = integrate_laguerre(1.7, 2, np.ones_like)
    assert res.value == pytest.approx(math.factorial(3) / 1.7**4, rel=1e-12)


def test_laguerre_shifted_exponential():
    c, a, n = 2.0, 0.9, 1
    res = integrate_laguerre(c, n, lambda s: np.exp(-a * s))
    assert res.value == pytest.approx(math.factorial(2 * n - 1) / (c + a) ** (2 * n), rel=1e-10)


def test_laguerre_rational_against_adaptive():
    c, n, t = 1.5, 2, 0.8
    ref = quad(lambda s: s**3 * math.exp(-c * s) / (s + t), 0, 200, epsabs=1e-13)[0]
    res = integrate_laguerre(c, n, lambda s: 1.0 / (s + t))
    assert res.gap <= 1e-8  # integrate_laguerre's default tolerance
    assert res.value == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("floor", [0.0, 1e-3])
def test_integrate_levels_array_values_match_scalar_calls(floor):
    # one call on a length-5 array gives, element by element, the bits of
    # its batch of one; element 1 vanishes on every level (gap 0), element 2
    # is below the floor of 1e-3, element 3 is real
    q = QuadSpec(levels=(8, 12, 16))
    base = np.array([1.0 + 2.0j, 0.0, 3e-7 - 1e-7j, -2.5, 4e5j])

    def value_at(level):
        return base * (1.0 + np.array([1e-9, 0.0, 0.3, 1e-13, -2e-8]) / level)

    res = integrate_levels(q, value_at, floor)
    assert res.value.shape == res.gap.shape == (5,)
    assert res.gap[1] == 0.0
    for k in range(5):
        one = integrate_levels(q, lambda level: value_at(level)[k : k + 1], floor)
        assert one.value.shape == one.gap.shape == (1,)
        assert res.value[k] == one.value[0]
        assert res.gap[k] == one.gap[0]
        assert all(v[k] == w[0] for v, w in zip(res.by_level, one.by_level))


def test_integrate_K_volume():
    for spec in (torus(2), su2()):
        total = integrate_K(spec, lambda xs: np.ones(len(xs)), 12)
        assert total.real == pytest.approx(spec.volume, rel=1e-12)


def test_integrate_K_trig_exact():
    spec = torus(1)
    total = integrate_K(spec, lambda xs: np.exp(1j * 3 * xs[:, 0]), 8)
    assert abs(total) < 1e-12


def test_integrate_K_schur_characters():
    spec = su2()
    total = integrate_K(spec, lambda gs: np.abs(np.trace(rep_matrix_batch(spec, 2, gs), axis1=1, axis2=2)) ** 2, 24)
    assert total.real == pytest.approx(spec.volume, rel=1e-8)


@pytest.mark.parametrize("rank, level, allowed", [(4, 38, 37), (3, 126, 125), (8, 64, 6)])
def test_tensor_rule_refuses_oversize_before_building(monkeypatch, rank, level, allowed):
    # level^rank above 2,000,000 nodes raises before any node array exists;
    # the largest allowed level passes the guard
    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(np, "meshgrid", refuse)
    with pytest.raises(ValueError, match=f"the largest allowed level is {allowed}$"):
        kspace_rule(torus(rank), 0.123, level)
    with pytest.raises(Built):
        kspace_rule(torus(rank), 0.123, allowed)


def test_rules_deterministic():
    a = kspace_rule(su2(), 1.0, 32)
    b = kspace_rule(su2(), 1.0, 32)
    assert a.nodes is b.nodes  # cached
    c = kspace_rule(su2(), 2.0, 32)
    assert c.nodes.shape == a.nodes.shape
    assert not np.allclose(a.nodes, c.nodes)


def test_su2_rule_is_radial_times_sphere():
    # the radial weights carry the whole mass; a radial integrand needs only them
    t = 0.8
    radii, weights = su2_radial_rule(t, 24)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    res = integrate_kspace(su2(), t, lambda ys: np.exp(-np.sum(ys**2, axis=1)), QuadSpec(levels=(16, 24)))
    assert res.value.real == pytest.approx(np.dot(weights, np.exp(-(radii**2))), rel=1e-14)


def _same_bits(rule, reference):
    return all(np.array_equal(a, b) for a, b in zip(rule, reference))


def test_rules_match_scipy_bit_for_bit():
    # scipy is the oracle here only; the package builds the rules in numpy
    for n in range(2, MAX_ORDER + 1):
        assert _same_bits(roots_hermite(n), sps.roots_hermite(n)), n
        if n % 2 == 0:
            assert _same_bits(roots_legendre(n), sps.roots_legendre(n)), n
    for alpha in (1, 3, 5):
        for n in range(2, 129):
            assert _same_bits(roots_genlaguerre(n, alpha), sps.roots_genlaguerre(n, alpha)), (n, alpha)


def test_odd_legendre_rules_close_to_scipy():
    # cephes evaluates P_n near 0 by a power series, the recurrence here does
    # not: the middle weight moves by a few ulp, and through the weights'
    # normalisation some others by the last bit or two
    for n in range(3, MAX_ORDER + 1, 2):
        x, w = roots_legendre(n)
        ref_x, ref_w = sps.roots_legendre(n)
        assert np.array_equal(x, ref_x), n
        ulp = np.abs(w - ref_w) / np.spacing(ref_w)
        assert ulp[n // 2] <= 32, n
        assert np.delete(ulp, n // 2).max() <= 4, n


def test_rules_are_cached_and_read_only():
    x, w = roots_hermite(24)
    assert roots_hermite(24)[0] is x
    with pytest.raises(ValueError):
        w[0] = 1.0


@pytest.mark.parametrize("rule", [roots_hermite, roots_legendre, lambda n: roots_genlaguerre(n, 1)])
def test_rules_refuse_orders_above_max(rule):
    rule(MAX_ORDER)
    with pytest.raises(ValueError):
        rule(MAX_ORDER + 1)


import math
import random

import numpy as np
import pytest

from gsb.groups import enumerate_irreps, irrep_dim, random_algebra, random_k, rep_matrix_batch, su2, torus
from gsb.heat import THETA_BLOCK, TailBoundError, _series, _su2_characters, _theta_product, log_nu_t, rho_eval
from gsb.polar import exp_iy_batch, polar_compose
from oracles import integrate_K


def test_rho_eval_tail_error(monkeypatch):
    # at t = 0.01 the tail bound on torus:1 needs more than 32 terms, so with
    # at most 32 allowed no cutoff meets the tolerance
    import gsb.heat

    p = np.zeros(1, dtype=complex)
    _, report = rho_eval(torus(1), 0.01, p, tol=1e-12)
    assert report.tail_bound <= report.tolerance and report.cutoff > 32
    monkeypatch.setattr(gsb.heat, "MAX_CUTOFF", 32)
    with pytest.raises(TailBoundError):
        rho_eval(torus(1), 0.01, p, tol=1e-12)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_tail_bound_past_double_range_raises_tail_error(spec):
    # at t = 0.01 and |Y| = 50 the dropped terms pass e^709 before they decay,
    # so no cutoff has a finite tail bound
    y = np.zeros(spec.dim)
    y[-1] = 50.0
    with pytest.raises(TailBoundError):
        rho_eval(spec, 0.01, _exp_iy(spec, y))


def test_su2_series_overflow_raises():
    # at t = 1 and |Y| = 50 a cutoff exists, but the characters chi_m ~ e^{25 m}
    # overflow on the way to it: the sum raises instead of returning inf or nan
    with pytest.raises(FloatingPointError, match=r"heat series overflowed at cutoff \d+, smallest t 1, largest \|Y\| 50"):
        rho_eval(su2(), 1.0, _exp_iy(su2(), [0.0, 50.0, 0.0]))


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_rho_mass_on_K(spec):
    # the heat kernel integrates to 1 against normalized Haar, i.e. to
    # vol(K)*[coefficient of the trivial irrep] in our volume convention
    total = integrate_K(spec, lambda xs: rho_eval(spec, 1.0, xs)[0], 24)
    assert total.real == pytest.approx(1.0, abs=1e-8)
    assert abs(total.imag) < 1e-10


def _exp_iy(spec, y):
    """The element e^{iY} of K_C."""
    return exp_iy_batch(spec, np.asarray(y, dtype=float)[None])[0]


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_rho_matches_series(spec):
    # independent direct summation of dim * exp(-lambda t/2) * trace(pi(x))
    from gsb.groups import laplacian_eigenvalue

    rng = random.Random(4)
    x = random_k(spec, rng)[None]
    t = 0.8
    direct = 0.0 + 0.0j
    for label in enumerate_irreps(spec, 25):
        lam = laplacian_eigenvalue(spec, label)
        direct += (
            irrep_dim(spec, label) * math.exp(-lam * t / 2.0) * np.trace(rep_matrix_batch(spec, label, x)[0])
        )
    direct /= spec.volume
    value, report = rho_eval(spec, t, x)
    assert report.tail_bound <= report.tolerance
    assert value[0] == pytest.approx(direct, rel=1e-10)


def test_rho_semigroup_at_identity():
    # rho_t * rho_t = rho_2t; at the identity the convolution is the
    # L2 pairing, sum dim^2 e^{-lambda t} / vol = rho_2t(e)
    spec = su2()
    t = 1.2
    lhs = sum(
        m * m * math.exp(-(m * m - 1) / 4.0 * t) for m in range(1, 40)
    ) / spec.volume
    value, _ = rho_eval(spec, 2 * t, np.eye(2, dtype=complex), tol=1e-14)
    assert value.real == pytest.approx(lhs, rel=1e-10)


def test_nu_t_closed_form():
    spec = su2()
    t = 0.9
    y = np.array([0.3, -0.7, 0.2])
    r = np.linalg.norm(y)
    expected = (
        (math.pi * t) ** -1.5
        * math.exp(-0.25 * t)
        * (r / math.sinh(r))
        * math.exp(-r * r / t)
    )
    value = log_nu_t(spec, t, y[None])
    assert value.shape == (1,)
    assert np.exp(value[0]) == pytest.approx(expected, rel=1e-12)
    assert value[0] == pytest.approx(math.log(expected), rel=1e-12)


def test_nu_t_mass():
    # int nu_t dg = 1 over G/K, dg = J(Y) dY in polar coordinates, with the
    # Jacobian J = (sinh|Y|/|Y|)^2 on SU(2) and 1 on a torus. nu_t is radial
    # here, so on the sphere of radius r it is nu_t(r e_1) times the sphere's
    # area: an adaptive route that shares nothing with the k-space rule
    from scipy.integrate import quad

    for spec in (torus(1), torus(2), su2()):
        d = spec.dim
        area = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        for t in (0.25, 1.0, 4.0):

            def shell(r):
                y = np.zeros((1, d))
                y[0, 0] = r
                jac = (math.sinh(r) / r) ** 2 if spec.kind == "su2" and r > 0 else 1.0
                return area * r ** (d - 1) * jac * math.exp(log_nu_t(spec, t, y)[0])

            mass = quad(shell, 0, 30 * math.sqrt(t), epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert mass == pytest.approx(1.0, abs=1e-12), (spec, t)


def test_su2_characters_at_degenerate_half_traces():
    # chi_m = sin(m w)/sin(w) is removable at w = 0 (h = 1) and w = pi (h = -1),
    # where it equals m and (-1)^(m-1) m; the recurrence divides by nothing
    ms = np.arange(1, 41)
    for h, sign in ((1.0, 1), (1.0 - 1e-14, 1), (-1.0, -1), (-1.0 + 1e-14, -1)):
        chi = np.array([c for c in _su2_characters(np.array(h), 40)])
        exact = sign ** (ms - 1) * ms
        if abs(h) == 1.0:
            assert np.array_equal(chi, exact)
        else:
            assert np.allclose(chi, exact, rtol=1e-9, atol=0)


def test_su2_characters_match_rep_trace():
    # against the symmetric-power matrices at random SL(2,C) points
    rng = np.random.default_rng(5)
    a = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    gs = a / np.sqrt(np.linalg.det(a))[:, None, None]
    chis = list(_su2_characters(0.5 * (gs[:, 0, 0] + gs[:, 1, 1]), 7))
    for m, chi in enumerate(chis, start=1):
        trace = np.trace(rep_matrix_batch(su2(), m, gs), axis1=1, axis2=2)
        assert np.allclose(chi, trace, rtol=1e-12, atol=1e-12)


def _term_scale(spec, t, y):
    """sum of |terms| of the series at any x e^{iY}: its value at x = e, where
    every character is positive (sinh(m r/2)/sinh(r/2), or e^{n.y})."""
    return rho_eval(spec, t, _exp_iy(spec, y))[0].real


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_rho_eval_batch_matches_points(spec):
    # one batch call over points, and one over times, agree with one-point
    # calls to within the two calls' tail bounds and the rounding of the terms
    rng = random.Random(6)
    xs = np.stack([random_k(spec, rng) for _ in range(6)])
    ys = np.stack([random_algebra(spec, rng, 0.8) for _ in range(6)])
    gs = polar_compose(spec, xs, ys)
    values, report = rho_eval(spec, 0.7, gs)
    assert values.shape == (6,)
    for g, y, value in zip(gs, ys, values):
        single, single_report = rho_eval(spec, 0.7, g)
        bound = report.tail_bound + single_report.tail_bound + 1e-14 * _term_scale(spec, 0.7, y)
        assert abs(value - single) <= bound
    times = np.array([0.3, 0.7, 2.0, 9.0])
    values, report = rho_eval(spec, times, gs[0])
    assert values.shape == times.shape and report.tail_bound <= report.tolerance
    for t, value in zip(times, values):
        single, single_report = rho_eval(spec, t, gs[0])
        bound = report.tail_bound + single_report.tail_bound + 1e-14 * _term_scale(spec, t, ys[0])
        assert abs(value - single) <= bound


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_su2_series_matches_mpmath(t):
    # the same truncated series, sum_m m e^{-(m^2-1)t/8} sin(m w)/sin(w) / vol
    # with cos w the half-trace, summed with 50 digits
    import mpmath

    mpmath.mp.dps = 50
    spec = su2()
    rng = random.Random(7)
    for _ in range(4):
        g = polar_compose(spec, random_k(spec, rng), random_algebra(spec, rng, 1.0))
        value, report = rho_eval(spec, t, g)
        w = mpmath.acos(mpmath.mpc(complex(0.5 * (g[0, 0] + g[1, 1]))))
        terms = [
            m * mpmath.exp(-(m * m - 1) * mpmath.mpf(t) / 8) * mpmath.sin(m * w) / mpmath.sin(w)
            for m in range(1, report.cutoff + 1)
        ]
        exact = complex(mpmath.fsum(terms) / spec.volume)
        scale = float(sum(abs(term) for term in terms)) / spec.volume
        assert abs(value - exact) <= 1e-14 * scale


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_weighted_torus_series_matches_the_label_box_sum(rank):
    # the shell sums see a label only through |n|^2; the oracle sums the
    # whole label box [-cutoff, cutoff]^r, as the weighted branch once did
    spec = torus(rank)
    rng = np.random.default_rng(rank)
    g = rng.uniform(0.0, 2 * math.pi, (5, rank)) + 1j * rng.uniform(-1.0, 1.0, (5, rank))
    for cutoff in (1, 2, 3, 5, 8):
        labels = np.array(list(enumerate_irreps(spec, cutoff)))
        for tau in (np.asarray(0.2), np.asarray(2.0)):
            for n in (1, 2):
                weight = lambda lam: (1.25 + lam) ** (-2 * n)
                lam = np.sum(labels * labels, axis=1)
                total = np.sum(np.exp(-lam * tau[..., None] / 2.0) * weight(lam) * np.exp(1j * g @ labels.T), axis=-1)
                value = _series(spec, tau, g, cutoff, weight)
                assert np.all(np.abs(value - total / spec.volume) <= 1e-13 * np.abs(total / spec.volume))
                for k in range(len(g)):
                    single = _series(spec, tau, g[k : k + 1], cutoff, weight)
                    assert single.tobytes() == value[k : k + 1].tobytes()


def test_blocked_theta_product_matches_the_unblocked_oracle():
    # 64 times by 15 points on torus:3 at cutoff 6 is 17,280 entries a
    # temporary, several blocks; each element has the bits of one product
    # over the whole broadcast batch
    rng = np.random.default_rng(8)
    g = rng.uniform(0.0, 2 * math.pi, (15, 3)) + 1j * rng.uniform(-1.0, 1.0, (15, 3))
    tau = rng.uniform(0.1, 3.0, (64, 1))
    cutoff = 6
    assert tau.size * len(g) * 3 * cutoff > 4 * THETA_BLOCK
    n = np.arange(1, cutoff + 1)
    damp = np.exp(-n * n * tau[..., None] / 2.0)[..., None, :]
    nz = 1j * n * g[..., None]
    oracle = np.prod(1.0 + np.sum(damp * (np.exp(nz) + np.exp(-nz)), axis=-1), axis=-1)
    value = _theta_product(tau, g, cutoff)
    assert value.shape == oracle.shape == (64, 15)
    assert value.tobytes() == oracle.tobytes()

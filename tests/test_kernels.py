import math
import random

import numpy as np
import pytest

from gsb.bounds import growth_functional
from gsb.coeffs import CoefVec, basis_entry
from gsb.groups import enumerate_irreps, irrep_dim, random_algebra, random_k, su2, torus
from gsb.heat import rho_eval
from gsb.kernels import (
    KernelQuery,
    k_sobolev_integral,
    k_sobolev_spectral,
    pair_point,
    reproduce_check,
)
from gsb.polar import abs_y, exp_iy_batch, log_phi, polar_compose
from gsb.quadrature import QuadSpec
from gsb.transform import ct_forward


def _random_point(spec, rng, scale=0.6):
    """A polar pair (x, Y)."""
    return random_k(spec, rng), random_algebra(spec, rng, scale)


def _one(spec, p):
    """The element of the polar pair p as a batch of one."""
    x, y = p
    return polar_compose(spec, x[None], y[None])


def _query(spec, g, h, t, n=0, c=1.0):
    """The kernel query at the pairs of the element batches g and h."""
    return KernelQuery(spec, pair_point(spec, g, h), t, n, c)


def test_query_validation():
    spec = su2()
    e = np.eye(2, dtype=complex)[None]
    with pytest.raises(ValueError):
        _query(spec, e, e, -1.0)
    with pytest.raises(ValueError):
        _query(spec, e, e, 1.0, n=1, c=0.1)  # needs c > |delta|^2


def test_pair_point_diagonal():
    # g g^* for g = x e^{iY} is the element x e^{2iY} x^* (2iY on a torus), whose |Y| is 2|Y|
    rng = random.Random(4)
    for spec in (torus(2), su2()):
        y = np.array([0.3, -0.4, 0.5])[: spec.dim]
        x = random_k(spec, rng)
        g = polar_compose(spec, x, y)
        gg = pair_point(spec, g, g)
        e2 = exp_iy_batch(spec, 2 * y[None])[0]
        assert np.allclose(gg, e2 if spec.kind == "torus" else x @ e2 @ x.conj().T, rtol=0, atol=1e-14)
        assert abs_y(spec, gg) == pytest.approx(2 * np.linalg.norm(y), rel=1e-14)


def test_k_t_is_heat_kernel_at_double_time():
    # k_t(g, h) = rho_{2t}(g h^*) = sum_pi dim(pi) e^{-lambda_pi t} chi_pi(g h^*) / vol,
    # with g h^* composed here from scipy's expm
    from scipy.linalg import expm

    from gsb.groups import SU2_BASIS, enumerate_irreps, irrep_dim, laplacian_eigenvalue, rep_matrix_batch

    def compose(p):
        x, y = p
        return x @ expm(1j * np.tensordot(y, SU2_BASIS, axes=(0, 0)))

    rng = random.Random(0)
    for spec in (torus(1), su2()):
        g = _random_point(spec, rng)
        h = _random_point(spec, rng)
        gh = (g[0] + 1j * g[1]) - (h[0] - 1j * h[1]) if spec.kind == "torus" else compose(g) @ compose(h).conj().T
        expected = sum(
            irrep_dim(spec, pi)
            * math.exp(-laplacian_eigenvalue(spec, pi) * 0.7)
            * np.trace(rep_matrix_batch(spec, pi, gh[None])[0])
            for pi in enumerate_irreps(spec, 40)
        )
        value, _ = rho_eval(spec, 1.4, pair_point(spec, _one(spec, g), _one(spec, h)))
        assert value[0] == pytest.approx(expected / spec.volume, rel=1e-10)


def test_sobolev_kernel_n0_reduces_to_k_t():
    # at n = 0 the spectral Sobolev kernel is k_t(g, h) = rho_{2t}(g h^*)
    spec = su2()
    rng = random.Random(1)
    g, h = _one(spec, _random_point(spec, rng)), _one(spec, _random_point(spec, rng))
    q = _query(spec, g, h, 1.0, n=0, c=1.0)
    expected, _ = rho_eval(spec, 2.0, pair_point(spec, g, h))
    assert k_sobolev_spectral(q)[0] == pytest.approx(expected[0], rel=1e-9)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
@pytest.mark.parametrize("n", [1, 2])
def test_two_route_agreement(spec, n):
    rng = random.Random(10 * n)
    c = spec.delta_sq + 1.0
    for _ in range(5):
        q = _query(spec, _one(spec, _random_point(spec, rng)), _one(spec, _random_point(spec, rng)), 1.0, n, c)
        (lhs,) = k_sobolev_spectral(q)
        (rhs,), res = k_sobolev_integral(q, QuadSpec(levels=(48, 64, 96)))
        assert res.gap[0] < 1e-7
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("spec", [su2(), torus(1), torus(2)], ids=str)
@pytest.mark.parametrize("t", [1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2])
def test_batched_routes_match_single_queries(spec, t, n):
    # one query on 15 pairs against its 15 batches of one; the batch takes one
    # series cutoff (largest |Y|, smallest time), which only adds terms whose
    # tail bound was already under tol.  The gap is itself relative, so it is
    # compared in absolute terms.
    rng = random.Random(7)
    draws = [(random_k(spec, rng), random_algebra(spec, rng, 0.6)) for _ in range(30)]
    xs, ys = (np.stack(part) for part in zip(*draws))
    c = spec.delta_sq + 1.0
    batch = _query(spec, polar_compose(spec, xs[0::2], ys[0::2]), polar_compose(spec, xs[1::2], ys[1::2]), t, n, c)
    lhs = k_sobolev_spectral(batch)
    rhs, res = k_sobolev_integral(batch)
    assert lhs.shape == rhs.shape == res.gap.shape == (15,)
    for k in range(15):
        g, h = slice(2 * k, 2 * k + 1), slice(2 * k + 1, 2 * k + 2)
        one = _query(spec, polar_compose(spec, xs[g], ys[g]), polar_compose(spec, xs[h], ys[h]), t, n, c)
        one_lhs = k_sobolev_spectral(one)
        one_rhs, one_res = k_sobolev_integral(one)
        assert one_lhs.shape == one_rhs.shape == one_res.gap.shape == (1,)
        assert abs(lhs[k] - one_lhs[0]) <= 1e-11 * abs(one_lhs[0])
        assert abs(rhs[k] - one_rhs[0]) <= 1e-11 * abs(one_rhs[0])
        assert abs(res.gap[k] - one_res.gap[0]) <= 1e-11


@pytest.mark.parametrize("spec", [su2(), torus(2)], ids=str)
@pytest.mark.parametrize("t", [0.25, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_route_matches_spectral_at_small_t(spec, t, n):
    # the singularity of rho_{2(t+s)} at s = -t sits close to the origin at
    # small t; the log-spaced head of integrate_laguerre resolves it, so the
    # Gamma route agrees with the spectral series to 1e-10 at default levels
    rng = random.Random(int(100 * t) + n)
    draws = [(random_k(spec, rng), random_algebra(spec, rng, 0.6)) for _ in range(30)]
    xs, ys = (np.stack(part) for part in zip(*draws))
    g, h = polar_compose(spec, xs[0::2], ys[0::2]), polar_compose(spec, xs[1::2], ys[1::2])
    query = _query(spec, g, h, t, n, spec.delta_sq + 1.0)
    lhs = k_sobolev_spectral(query)
    rhs, res = k_sobolev_integral(query)
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.maximum(np.abs(lhs), np.abs(rhs)))
    assert np.all(res.gap <= 1e-10)


def test_integral_route_rejects_n0():
    spec = torus(1)
    e = polar_compose(spec, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        k_sobolev_integral(_query(spec, e, e, 1.0, n=0))


def test_diagonal_kernel_positive():
    spec = su2()
    rng = random.Random(2)
    g = _one(spec, _random_point(spec, rng, scale=1.0))
    q = _query(spec, g, g, 1.0, n=1, c=1.25)
    (val,) = k_sobolev_spectral(q)
    assert val.real > 0
    assert abs(val.imag) < 1e-10 * val.real


def test_envelopes():
    # on a one-point grid the growth functional is |F|^2 over the envelope
    # Phi(Y) e^{|Y|^2/t}, times (1+|Y|^2)^{2n} for order n
    spec = su2()
    y = np.array([0.0, 0.0, 1.5])
    t = 1.0
    F = ct_forward(basis_entry(spec, 2, 0, 0), t)
    g = polar_compose(spec, np.eye(2, dtype=complex)[None], y[None])
    values = sum(F.label_traces(g).values())
    value = abs(values[0]) ** 2
    (g0, _), (g2, _) = growth_functional(spec, t, values, [0, 2], y[None, :])
    assert g0 == pytest.approx(value / (np.exp(log_phi(spec, y[None])[0]) * math.exp(2.25 / t)), rel=1e-12)
    assert g2 == pytest.approx(g0 * (1 + 2.25) ** 4, rel=1e-12)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_reproducing_identity(spec):
    rng = random.Random(3)
    label = (2,) if spec.kind == "torus" else 3
    F = ct_forward(basis_entry(spec, label, 0, 0), 1.0)
    for _ in range(5):
        y = random_algebra(spec, rng)
        y *= rng.uniform(0.0, 3.0) / np.linalg.norm(y)
        p = polar_compose(spec, random_k(spec, rng)[None], y[None])
        ((residual,),), ((gap,),) = reproduce_check([F], p, QuadSpec())
        assert residual < 1e-9
        assert gap < 1e-9


@pytest.mark.parametrize("spec", [torus(1), torus(2), torus(3), su2()], ids=str)
def test_reproduce_check_batch_equals_one_point_calls(spec):
    # every function at every point of one batch is each pair's batch of
    # one, bit for bit
    rng = np.random.default_rng(11)
    draw = random.Random(11)
    labels = list(enumerate_irreps(spec, 2))
    Fs = []
    for _ in range(3):
        blocks = {}
        for k in rng.choice(len(labels), size=2, replace=False):
            d = irrep_dim(spec, labels[k])
            blocks[labels[k]] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        Fs.append(ct_forward(CoefVec(spec, blocks), 0.8))
    draws = [(random_k(spec, draw), random_algebra(spec, draw)) for _ in range(6)]
    xs, ys = (np.stack(part) for part in zip(*draws))
    q = QuadSpec(levels=(12, 16, 24))
    residual, gap = reproduce_check(Fs, polar_compose(spec, xs, ys), q)
    assert residual.shape == gap.shape == (3, 6)
    for i, F in enumerate(Fs):
        for k in range(6):
            one_residual, one_gap = reproduce_check([F], polar_compose(spec, xs[k : k + 1], ys[k : k + 1]), q)
            assert (residual[i, k], gap[i, k]) == (one_residual[0, 0], one_gap[0, 0])

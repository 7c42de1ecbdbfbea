"""The SU(2) radial reduction against a tensor-rule oracle.

On SU(2) the package evaluates every K_C integral as one radial sum per
irrep (Schur orthogonality on the spheres |Y| = r).  The oracle here does
the direct evaluation instead: Schur on K only, with the integrand built at
every node of a radial x sphere tensor rule, as pi_m(e^{iY}) matrices.
"""

import math
import random

import numpy as np
import pytest
from scipy.special import roots_legendre

from gsb.coeffs import CoefVec
from gsb.groups import algebra_basis, laplacian_eigenvalue, random_algebra, random_k, rep_generator, rep_matrix_batch, su2
from gsb.kernels import reproduce_check
from gsb.polar import log_phi, polar_compose
from gsb.quadrature import QuadSpec, kspace_rule
from gsb.sobolev import _grad_log_radial, phi_x_weight
from gsb.transform import _schur_profiles, ct_forward, ct_inverse_integral, entry_pairs, exp_iy_batch, holo_inner

SPEC = su2()
LEVELS = (16, 24)
Q = QuadSpec(levels=LEVELS)
GAP_TOL = 1e-8  # the level gap a reduced integral must meet


def _random_holo(rng, t, cutoff=3):
    blocks = {m: rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for m in range(1, cutoff + 1)}
    return ct_forward(CoefVec(SPEC, blocks), t)


def _damped_blocks(F):
    """The blocks of C_t f from its definition: block m times e^{-lambda_m t/2}."""
    return {m: math.exp(-laplacian_eigenvalue(SPEC, m) * F.t / 2.0) * b for m, b in F.coefs.entries.items()}


def _oracle_inner(F1, F2, level, weight_nodes=None):
    rule = kspace_rule(SPEC, F1.t, level)
    exp_iy = exp_iy_batch(SPEC, rule.nodes)
    vals = np.zeros(rule.nodes.shape[0], dtype=complex)
    B1, B2 = _damped_blocks(F1), _damped_blocks(F2)
    for m in set(B1) & set(B2):
        mats = rep_matrix_batch(SPEC, m, exp_iy)
        p1, p2 = mats @ B1[m], mats @ B2[m]
        vals += (SPEC.volume / m) * np.einsum("nij,nij->n", p1.conj(), p2)
    if weight_nodes is not None:
        vals = vals * weight_nodes(rule.nodes)
    return complex(np.dot(rule.weights, vals))


def _levels(F1, F2, **kwargs):
    """holo_inner's form of F1 and F2 at each level: the sum over their entry pairs."""
    res = holo_inner(SPEC, F1.t, entry_pairs(F1.coefs, F2.coefs), Q, **kwargs)
    return [np.sum(level) for level in res.by_level]


def _vector_field(F, k):
    """X_k F from its definition: block m times dpi_m(E_k), the oracle of holo_inner's axis gather."""
    direction = algebra_basis(SPEC, k)
    return ct_forward(CoefVec(SPEC, {m: rep_generator(SPEC, m, direction) @ b for m, b in F.coefs.entries.items()}), F.t)


def _close(reduced, oracle, scale):
    assert abs(reduced - oracle) <= 1e-12 * max(abs(oracle), scale)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_holo_inner_matches_tensor_oracle(t):
    rng = np.random.default_rng(17)
    F1, F2 = _random_holo(rng, t), _random_holo(rng, t)
    scale = math.sqrt(abs(_oracle_inner(F1, F1, LEVELS[-1]) * _oracle_inner(F2, F2, LEVELS[-1])))
    cases = [
        (_levels(F1, F2), F2, None),
        (_levels(F1, F2, weight=lambda u: u), F2, lambda ys: np.sum(ys**2, axis=1)),
    ]
    for k in range(3):
        weight = phi_x_weight(SPEC, t, k)
        cases.append((_levels(F1, F2, weight=weight), F2, weight))
        cases.append((_levels(F1, F2, axis=k), _vector_field(F2, k), None))
    for values, second, weight in cases:
        for level, value in zip(LEVELS, values):
            _close(value, _oracle_inner(F1, second, level, weight), scale)


def test_grad_log_radial_is_even():
    # the folded radial rule has negative radii, so the small-r series
    # branch of grad log nu_t must test |r|
    r = np.array([1e-5, 5e-4, 0.3, 2.0])
    assert np.allclose(_grad_log_radial(1.0, -r), _grad_log_radial(1.0, r), rtol=1e-15, atol=0)


def test_schur_profile_matches_tensor_sphere_means():
    # e^{-lam t} int pi_m(e^{2iY}) dmu_t is (sum_i a_i) times the identity
    t = 1.0
    for m in (1, 2, 3):
        rule = kspace_rule(SPEC, t, LEVELS[-1])
        mats = rep_matrix_batch(SPEC, m, exp_iy_batch(SPEC, 2.0 * rule.nodes))
        direct = math.exp(-laplacian_eigenvalue(SPEC, m) * t) * np.einsum("n,nij->ij", rule.weights, mats)
        reduced = np.sum(_schur_profiles(t, LEVELS[-1], m, laplacian_eigenvalue(SPEC, m))[1])
        assert np.allclose(direct, reduced * np.eye(m), rtol=0, atol=1e-12)
        assert reduced == pytest.approx(1.0, abs=1e-12)


def test_reproduce_check_matches_tensor_oracle():
    rng = np.random.default_rng(5)
    draw = random.Random(5)
    t = 1.0
    F = _random_holo(rng, t)
    rule = kspace_rule(SPEC, t, LEVELS[-1])
    for _ in range(3):
        y = random_algebra(SPEC, draw)
        g_mat = polar_compose(SPEC, random_k(SPEC, draw)[None], (y * (1.5 / np.linalg.norm(y)))[None])
        gs = g_mat @ exp_iy_batch(SPEC, 2.0 * rule.nodes)
        # the kernel rho_2t(g e^{2iY} ...) weights label m of F by e^{-lambda_m t}
        traces = F.label_traces(gs)
        oracle = sum(
            math.exp(-laplacian_eigenvalue(SPEC, m) * t) * complex(np.dot(rule.weights, traces[m])) for m in traces
        )
        fg = sum(F.label_traces(g_mat).values())[0]
        oracle_residual = abs(fg - oracle) / (1.0 + abs(fg))
        ((residual,),), ((gap,),) = reproduce_check([F], g_mat, Q)
        assert oracle_residual <= 1e-12
        assert abs(residual - oracle_residual) <= 1e-12
        assert gap <= GAP_TOL


def _oracle_inverse(F, x, radius, level):
    """The ball rule: radial Gauss-Legendre on [0, R] times a 20 x 40 sphere rule."""
    xr, wr = roots_legendre(level)
    r = radius * (xr + 1.0) / 2.0
    wr = radius / 2.0 * wr * r**2
    xc, v = roots_legendre(20)
    phis = 2.0 * math.pi * np.arange(40) / 40
    st = np.sqrt(1.0 - xc**2)
    dirs = np.stack(
        [np.outer(st, np.cos(phis)).ravel(), np.outer(st, np.sin(phis)).ravel(), np.repeat(xc, 40)], axis=-1
    )
    ang_w = np.repeat(v, 40) * (2.0 * math.pi / 40)
    nodes = (r[:, None, None] * dirs[None]).reshape(-1, 3)
    weights = (wr[:, None] * ang_w[None]).ravel()
    vals = sum(F.label_traces(np.asarray(x)[None] @ exp_iy_batch(SPEC, nodes)).values())
    log_phi_half = np.repeat(log_phi(SPEC, np.outer(r / 2.0, [0.0, 0.0, 1.0])), dirs.shape[0])
    log_damp = -np.sum(nodes**2, axis=1) / (2.0 * F.t) - log_phi_half
    pref = (2.0 * math.pi * F.t) ** -1.5 * math.exp(-SPEC.delta_sq * F.t / 2.0)
    return pref * complex(np.dot(weights, vals * np.exp(log_damp)))


@pytest.mark.parametrize("radius", [4.0, 7.0])
def test_ct_inverse_integral_matches_tensor_oracle(radius):
    rng = np.random.default_rng(9)
    draw = random.Random(9)
    F = _random_holo(rng, 1.0)
    x = random_k(SPEC, draw)
    ((reduced,),), _ = ct_inverse_integral(F, x[None], (radius,), QuadSpec(levels=(32, 48)))
    _close(reduced, _oracle_inverse(F, x, radius, 48), 1.0)

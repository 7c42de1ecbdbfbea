"""The torus reduction against a tensor-rule oracle.

On a torus the package evaluates every K_C integral label by label on a rule
in (zeta, s): zeta = Y.nhat along the shift -t n of the Gaussian and s the
squared length of the rest.  The oracle here does the direct evaluation
instead: Schur on K only, with e^{-2 n.Y} and the weight built at every node
of the L^r tensor Gauss-Hermite rule, or with the rule moved to each label's
shift (and, for the inversion, of the L^r tensor Gauss-Legendre rule on the
cube).
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from scipy.special import roots_legendre

from gsb.coeffs import CoefVec
from gsb.groups import laplacian_eigenvalue, random_algebra, random_k, torus
from gsb.kernels import reproduce_check
from gsb.polar import polar_compose
from gsb.quadrature import QuadSpec, kspace_rule
from gsb.sobolev import phi_x_weight
from gsb.transform import AxisWeight, _torus_base_rule, ct_forward, ct_inverse_integral, holo_inner
from oracles import axis_weight_at, entry_pairs

LEVELS = (16, 24)
Q = QuadSpec(levels=LEVELS)
RANKS = (1, 2, 3, 4)
TIMES = (0.5, 1.0)
# The unshifted tensor rule meets e^{-2 n_k y} (1 + |Y|^2)^4 on each axis and
# needs about 40 nodes per axis for 1e-14 at n_k = 3, t = 1 (26 at n_k = 2);
# on torus:4 the labels keep |n_k| <= 2 so that the oracle fits in memory.
ORACLE_LEVEL = {1: 64, 2: 64, 3: 48, 4: 26}


def _labels(rank, rng, count=6):
    """The zero label, one with |n| = 3, and random others with |n| <= 3."""
    top = 3 if rank < 4 else 2
    pool = [n for n in itertools.product(range(-top, top + 1), repeat=rank) if 0 < sum(k * k for k in n) <= 9]
    far = [n for n in pool if sum(k * k for k in n) == 9]
    picks = [pool[i] for i in rng.choice(len(pool), size=min(count, len(pool)), replace=False)]
    return [(0,) * rank, far[rng.integers(len(far))]] + picks


def _random_holo(rank, t, labels, rng):
    blocks = {n: rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1)) for n in labels}
    return ct_forward(CoefVec(torus(rank), blocks), t)


def _k_part(F1, F2):
    """The tensor rule and int_K conj(F1) F2 dx at each of its nodes, by Schur."""
    spec = F1.spec
    rule = kspace_rule(spec, F1.t, ORACLE_LEVEL[spec.rank])
    vals = np.zeros(rule.nodes.shape[0], dtype=complex)
    for n in set(F1.coefs.entries) & set(F2.coefs.entries):
        # the blocks of C_t f from its definition: block n times e^{-|n|^2 t/2}, on both sides
        damping = math.exp(-laplacian_eigenvalue(spec, n) * F1.t)
        pair = damping * np.conj(F1.coefs.entries[n][0, 0]) * F2.coefs.entries[n][0, 0]
        vals += spec.volume * pair * np.exp(-2.0 * rule.nodes @ np.asarray(n, dtype=float))
    return rule, vals


def _oracle(k_part, weight=None):
    """int conj(F1) F2 weight dnu_t on the tensor rule, the weight given at its nodes."""
    rule, vals = k_part
    return complex(np.dot(rule.weights, vals if weight is None else vals * weight))


def _close(reduced, oracle, scale):
    assert abs(reduced - oracle) <= 1e-12 * max(abs(oracle), scale)


def _u(ys):
    return np.sum(ys**2, axis=1)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("rank", RANKS)
def test_holo_inner_matches_tensor_oracle(rank, t):
    rng = np.random.default_rng(100 * rank + int(10 * t))
    labels = _labels(rank, rng)
    F1, F2 = _random_holo(rank, t, labels, rng), _random_holo(rank, t, labels, rng)
    # (weight of holo_inner, the same weight on a node batch)
    cases = [
        (None, None),
        (lambda u: u, _u),
        (lambda u: (1.0 + u) ** 4, lambda ys: (1.0 + _u(ys)) ** 4),
    ]
    for k in range(rank):
        for weight in (phi_x_weight(F1.spec, t, k), AxisWeight(k, lambda u: 1.0 + u)):
            cases.append((weight, functools.partial(axis_weight_at, weight)))
    k11, k22, k12 = _k_part(F1, F1), _k_part(F2, F2), _k_part(F1, F2)
    nodes = k12[0].nodes  # the three share one rule
    for weight, node_weight in cases:
        res = holo_inner(F1.spec, t, entry_pairs(F1.coefs, F2.coefs), Q, weight=weight)
        at_nodes = None if node_weight is None else node_weight(nodes)
        size = None if at_nodes is None else np.abs(at_nodes)
        # the Cauchy-Schwarz bound of the form, the size its rounding is judged by
        scale = math.sqrt(abs(_oracle(k11, size) * _oracle(k22, size)))
        oracle = _oracle(k12, at_nodes)
        for level in res.by_level:
            _close(np.sum(level), oracle, scale)


def _shifted_oracle(F1, F2, node_weight, level):
    """The form of F1 and F2 against a weight given at nodes, and its size
    (the same sum over |terms|): Schur on K, and each shared label n's
    e^{-2 n.Y} dmu_t taken as e^{t |n|^2} N(-t n, t/2) on the L^r tensor rule
    moved to -t n, so a weight polynomial in Y is integrated exactly."""
    spec, t = F1.spec, F1.t
    rule = kspace_rule(spec, t, level)
    value = size = 0j
    for n in set(F1.coefs.entries) & set(F2.coefs.entries):
        damping = math.exp((sum(k * k for k in n) - laplacian_eigenvalue(spec, n)) * t)
        pair = spec.volume * damping * np.conj(F1.coefs.entries[n][0, 0]) * F2.coefs.entries[n][0, 0]
        at_nodes = node_weight(rule.nodes - t * np.asarray(n, dtype=float))
        value += pair * np.dot(rule.weights, at_nodes)
        size += abs(pair) * np.dot(rule.weights, np.abs(at_nodes))
    return complex(value), abs(size)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("rank", [4, 6])
def test_holo_inner_matches_shifted_tensor_oracle_on_even_ranks(rank, t):
    # weights of degree 0-3 in u = |Y|^2, so 6 in each coordinate: the level-6
    # tensor rule is exact, and so is each level of the reduced rule
    rng = np.random.default_rng(300 + rank + int(10 * t))
    labels = _labels(rank, rng)
    F1, F2 = _random_holo(rank, t, labels, rng), _random_holo(rank, t, labels, rng)
    cases = [
        (None, lambda ys: np.ones(ys.shape[0])),
        (lambda u: 2.0 - u, lambda ys: 2.0 - _u(ys)),
        (lambda u: (1.0 + u) ** 2, lambda ys: (1.0 + _u(ys)) ** 2),
        (lambda u: u**3 - u, lambda ys: _u(ys) ** 3 - _u(ys)),
    ]
    for weight, node_weight in cases:
        res = holo_inner(F1.spec, t, entry_pairs(F1.coefs, F2.coefs), Q, weight=weight)
        oracle, size = _shifted_oracle(F1, F2, node_weight, 6)
        for level in res.by_level:
            _close(np.sum(level), oracle, size)


@pytest.mark.parametrize("rank", range(2, 9))
def test_torus_base_rule_holds_level_squared_weights(rank):
    # zeta's Gauss-Hermite rule times one rule in s = |Y_perp|^2 on every rank
    level = 24
    hx, s, a = _torus_base_rule(0.75, level, rank)
    assert (hx.size, s.size, a.size) == (level, level, level * level)


@pytest.mark.parametrize("rank", range(1, 9))
def test_shifted_rule_moments_every_rank(rank):
    # under e^{-2 n.Y} dmu_t / e^{t |n|^2} = N(-t n, t/2): mass 1, E|Y|^2 = t^2 |n|^2 + r t/2
    t = 0.75
    n = (2,) + (-1,) * (rank - 1)
    nsq = sum(k * k for k in n)
    e = (n, 0, 0)
    vol = torus(rank).volume
    mass = holo_inner(torus(rank), t, [(e, e, 1.0)], Q)
    second = holo_inner(torus(rank), t, [(e, e, 1.0)], Q, weight=lambda u: u)
    for (value,) in mass.by_level:
        assert value == pytest.approx(vol, rel=1e-13)
    for (value,) in second.by_level:
        assert value == pytest.approx(vol * (t * t * nsq + rank * t / 2.0), rel=1e-13)


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("rank", RANKS)
def test_reproduce_check_matches_tensor_oracle(rank, t):
    rng = np.random.default_rng(7 * rank + int(10 * t))
    draw = random.Random(7 * rank + int(10 * t))
    spec = torus(rank)
    F = _random_holo(rank, t, _labels(rank, rng), rng)
    for _ in range(3):
        y = random_algebra(spec, draw)
        g = polar_compose(spec, random_k(spec, draw)[None], (y * (1.5 / np.linalg.norm(y)))[None])
        fg = sum(F.label_traces(g).values())[0]
        ((residual,),), ((gap,),) = reproduce_check([F], g, Q)
        rule = kspace_rule(spec, t, ORACLE_LEVEL[rank])
        # the kernel rho_2t(g e^{2iY} ...) weights label n of F by e^{-|n|^2 t}
        traces = F.label_traces(g + 2j * rule.nodes)
        oracle = sum(
            math.exp(-laplacian_eigenvalue(spec, n) * t) * complex(np.dot(rule.weights, traces[n])) for n in traces
        )
        oracle_residual = abs(fg - oracle) / (1.0 + abs(fg))
        assert oracle_residual <= 1e-12
        assert abs(residual - oracle_residual) <= 1e-12
        assert gap <= 1e-14


def _oracle_inverse(F, x, radius, level):
    """The L^r Gauss-Legendre tensor rule on the cube |y_i| <= R."""
    spec = F.spec
    xr, wr = roots_legendre(level)
    grids = np.meshgrid(*([radius * xr] * spec.rank), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.prod(np.meshgrid(*([radius * wr] * spec.rank), indexing="ij"), axis=0).ravel()
    vals = sum(F.label_traces(np.asarray(x)[None, :] + 1j * nodes).values())
    damp = np.exp(-np.sum(nodes**2, axis=1) / (2.0 * F.t))
    return (2.0 * math.pi * F.t) ** (-spec.rank / 2.0) * complex(np.dot(weights, vals * damp))


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("rank", RANKS)
def test_ct_inverse_integral_matches_tensor_oracle(rank, t):
    rng = np.random.default_rng(31 * rank + int(10 * t))
    draw = random.Random(31 * rank + int(10 * t))
    spec = torus(rank)
    F = _random_holo(rank, t, _labels(rank, rng), rng)
    x = random_k(spec, draw)
    levels = (20, 24)
    ((reduced,),), _ = ct_inverse_integral(F, x[None], (4.0,), QuadSpec(levels=levels))
    scale = sum(abs(b[0, 0]) for b in F.coefs.entries.values())
    _close(reduced, _oracle_inverse(F, x, 4.0, levels[-1]), scale)

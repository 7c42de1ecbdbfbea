import math
import random

import numpy as np
import pytest

from gsb.coeffs import CoefVec, basis_entry
from gsb.groups import enumerate_irreps, irrep_dim, random_algebra, random_k, su2, torus
from gsb.polar import polar_compose
from gsb.quadrature import QuadSpec
from gsb.sobolev import phi_x_weight, toeplitz_symbol
from gsb.transform import ct_forward, ct_inverse_integral, holo_inner
from oracles import entry_pairs, plancherel_norm

# the level gap every quadrature here must meet
GAP_TOL = 1e-6

# the inversion integral's quadrature levels
INVERSE_Q = QuadSpec(levels=(32, 48))


def test_forward_damps_blocks():
    # C_t keeps f's blocks and damps block pi by e^{-lambda t/2} where F
    # meets a point: label 3 of SU(2) has lambda = 2, so e^{-2} at t = 2
    spec = su2()
    f = basis_entry(spec, 3, 0, 0)
    F = ct_forward(f, 2.0)
    assert F.coefs is f
    (trace,) = F.label_traces(np.eye(2, dtype=complex)[None])[3]
    assert trace == pytest.approx(math.exp(-2.0), rel=1e-15)
    with pytest.raises(ValueError):
        ct_forward(f, 0.0)


@pytest.mark.parametrize("spec, label, t", [(torus(1), (40,), 1.0), (su2(), 24, 10.0)], ids=str)
def test_unitarity_where_the_damping_underflows(spec, label, t):
    # e^{-lambda t/2} is e^-800 for e_40 on torus:1 at t = 1 and e^-718.75
    # for label 24 of SU(2) at t = 10, below the normal doubles, yet the
    # damping meets the rule's scale as one exponent and the norm is f's
    f = basis_entry(spec, label, 0, 0)
    e = (label, 0, 0)
    res = holo_inner(spec, t, [(e, e, 1.0)], QuadSpec())
    assert res.gap[0] <= 1e-14
    assert math.sqrt(res.value[0].real) == pytest.approx(plancherel_norm(f), rel=1e-13)


def test_eval_holo_restricts_to_K():
    spec = su2()
    rng = random.Random(1)
    f = basis_entry(spec, 2, 1, 0)
    F = ct_forward(f, 1.0)
    x = random_k(spec, rng)[None]
    g = polar_compose(spec, x, np.zeros((1, 3)))
    assert sum(F.label_traces(g).values())[0] == pytest.approx(sum(F.label_traces(x).values())[0], abs=1e-12)


@pytest.mark.parametrize(
    "spec,label", [(torus(1), (3,)), (torus(2), (2, -1)), (su2(), 3)]
)
def test_unitarity_single_entries(spec, label):
    f = basis_entry(spec, label, 0, 0)
    e, q = (label, 0, 0), QuadSpec()
    for t in (0.5, 2.0):
        res = holo_inner(spec, t, [(e, e, 1.0)], q)
        assert res.gap[0] <= GAP_TOL
        assert math.sqrt(res.value[0].real) == pytest.approx(plancherel_norm(f), rel=1e-9)


def test_holo_inner_orthogonality():
    # distinct entries of one label, and entries of two labels, are orthogonal
    spec = su2()
    q = QuadSpec()
    res = holo_inner(spec, 1.0, [((2, 0, 0), (2, 0, 1), 1.0), ((2, 0, 0), (3, 0, 0), 1.0)], q)
    assert np.all(np.abs(res.value) < 1e-10)
    with pytest.raises(ValueError):
        holo_inner(spec, 0.0, [((2, 0, 0), (2, 0, 0), 1.0)], q)


def test_holo_inner_weight_is_expectation():
    # <F,F> with weight u equals E[|Y|^2] times the norm for a constant F
    spec = torus(1)
    t, e = 0.9, ((0,), 0, 0)
    res = holo_inner(spec, t, [(e, e, 1.0)], QuadSpec(), weight=lambda u: u)
    assert res.value[0].real == pytest.approx(2 * math.pi * t / 2.0, rel=1e-12)


def _random_functions(spec, rng, count=4):
    # functions on overlapping random label sets, so pairs share one or more
    # labels, and one on a label of its own, which shares none
    labels = list(enumerate_irreps(spec, 3))
    label_sets = [[labels[k] for k in rng.choice(len(labels), size=2, replace=False)] for _ in range(count)]
    label_sets.append([list(enumerate_irreps(spec, 4))[-1]])
    out = []
    for chosen in label_sets:
        blocks = {}
        for label in chosen:
            d = irrep_dim(spec, label)
            blocks[label] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out.append(CoefVec(spec, blocks))
    return out


@pytest.mark.parametrize("spec", [torus(1), torus(2), torus(3), su2()], ids=str)
@pytest.mark.parametrize("weight", ["none", "symbol", "power", "axis"])
def test_holo_inner_batch_equals_one_pair_calls(spec, weight):
    # a batch of pairs is its batches of one pair, bit for bit: value, gap
    # and every level; the pairs are every entry pair of random functions
    t, n = 0.7, 2
    weight = {
        "none": None,
        "symbol": toeplitz_symbol(spec, t, 3.0, n),
        "power": lambda u: (1.0 + u) ** (2 * n),
        "axis": phi_x_weight(spec, t, spec.dim - 1),
    }[weight]
    fs = _random_functions(spec, np.random.default_rng(5))
    pairs = [pair for f1 in fs for f2 in fs for pair in entry_pairs(f1, f2)]
    # and a pair on two labels, which contributes nothing
    pairs.append((pairs[0][0], next(p[1] for p in pairs if p[1][0] != pairs[0][0][0]), 1.0))
    q = QuadSpec(levels=(12, 16, 24))
    batch = holo_inner(spec, t, pairs, q, weight)
    assert batch.value.shape == batch.gap.shape == (len(pairs),)
    for i, pair in enumerate(pairs):
        one = holo_inner(spec, t, [pair], q, weight)
        assert batch.value[i] == one.value[0]
        assert batch.gap[i] == one.gap[0]
        assert [level[i] for level in batch.by_level] == [level[0] for level in one.by_level]
    assert 0 < np.count_nonzero(batch.value) < len(pairs)


def test_inverse_integral_reports_its_level_gap():
    spec = torus(1)
    F = ct_forward(basis_entry(spec, (5,)), 2.0)
    # the shifted rule is exact here, so the two levels differ only by rounding
    e = ((5,), 0, 0)
    (gap,) = holo_inner(spec, 2.0, [(e, e, 1.0)], QuadSpec(levels=(8, 12))).gap
    assert 0.0 < gap <= 1e-14
    # the inversion integral returns each point's level gap, above its
    # tolerance at levels 4, 6 and within it at 32, 48, and raises nothing
    xs = np.array([[0.0], [1.3]])
    _, coarse = ct_inverse_integral(F, xs, (10.0,), QuadSpec(levels=(4, 6)))
    assert coarse.shape == (2,) and np.all(coarse > 1e-6)
    _, fine = ct_inverse_integral(F, xs, (10.0,), INVERSE_Q)
    assert np.all(fine <= 1e-12)


def test_inverse_integral_torus():
    spec = torus(1)
    f = CoefVec(spec, {(1,): [[1.0]], (-2,): [[0.5 + 0.5j]]})
    F = ct_forward(f, 1.0)
    rng = random.Random(3)
    xs = np.stack([random_k(spec, rng) for _ in range(3)])
    (rec,), gap = ct_inverse_integral(F, xs, (10.0,), INVERSE_Q)
    assert rec.shape == gap.shape == (3,)
    assert np.all(np.abs(rec - f.eval_k_batch(xs)) < 1e-10)


def test_inverse_integral_su2_character():
    spec = su2()
    f = CoefVec(spec, {2: np.eye(2)})
    F = ct_forward(f, 1.0)
    rng = random.Random(4)
    x = random_k(spec, rng)[None]
    ((inner,), (outer,)), _ = ct_inverse_integral(F, x, (7.0, 10.0), INVERSE_Q)
    assert abs(outer - inner) <= 1e-6 * max(1.0, abs(outer))  # stabilized
    assert abs(outer - f.eval_k_batch(x)[0]) < 1e-6


def test_inverse_radius_guard():
    spec = torus(1)
    F = ct_forward(basis_entry(spec, (1,)), 1.0)
    with pytest.raises(ValueError):
        ct_inverse_integral(F, np.zeros((1, 1)), (10.0, 60.0), INVERSE_Q)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()], ids=str)
def test_ct_inverse_integral_batch_equals_one_point_calls(spec):
    # a point batch is its batches of one, bit for bit, at each radius, and
    # so is the level gap of each point
    F = ct_forward(_random_functions(spec, np.random.default_rng(9), count=1)[0], 0.8)
    rng = random.Random(9)
    xs = np.stack([random_k(spec, rng) for _ in range(5)])
    values, gap = ct_inverse_integral(F, xs, (4.0, 7.0), INVERSE_Q)
    assert values.shape == (2, 5) and gap.shape == (5,)
    for k in range(5):
        one, one_gap = ct_inverse_integral(F, xs[k : k + 1], (4.0, 7.0), INVERSE_Q)
        assert one.shape == (2, 1) and np.array_equal(one[:, 0], values[:, k])
        assert one_gap[0] == gap[k]

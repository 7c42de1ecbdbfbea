import random

import numpy as np
import pytest

from gsb.coeffs import CoefVec, basis_entry
from gsb.groups import irrep_dim, random_k, rep_matrix_batch, su2, torus
from oracles import integrate_K, plancherel_norm


def test_block_shape_validation():
    with pytest.raises(ValueError):
        CoefVec(su2(), {3: np.eye(2)})
    with pytest.raises(ValueError):
        basis_entry(torus(1), (1,)).eval_k_batch(np.array([[0.1, 0.2]]))  # a point of the wrong rank


def test_zero_blocks_dropped():
    f = CoefVec(torus(1), {(1,): np.zeros((1, 1)), (2,): np.ones((1, 1))})
    assert f.support == [(2,)]


def test_plancherel_matches_haar_integral():
    rng = np.random.default_rng(0)
    spec = su2()
    f = CoefVec(spec, {2: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 1: [[0.7]]})
    direct = integrate_K(spec, lambda gs: np.abs(f.eval_k_batch(gs)) ** 2, 24)
    assert plancherel_norm(f) ** 2 == pytest.approx(direct.real, rel=1e-8)


def test_basis_entry_evaluates_to_matrix_entry():
    rng = random.Random(1)
    spec = su2()
    g = random_k(spec, rng)[None]
    for (i, j) in ((0, 0), (0, 2), (2, 1)):
        f = basis_entry(spec, 3, i, j)
        assert f.eval_k_batch(g)[0] == pytest.approx(rep_matrix_batch(spec, 3, g)[0, i, j], abs=1e-12)


def test_eval_k_batch_matches_scalar():
    rng = np.random.default_rng(2)
    draw = random.Random(2)
    spec = su2()
    f = CoefVec(spec, {2: rng.normal(size=(2, 2)), 4: rng.normal(size=(4, 4))})
    gs = np.stack([random_k(spec, draw) for _ in range(6)])
    batch = f.eval_k_batch(gs)
    for k in range(6):
        one = gs[k : k + 1]
        direct = sum(np.trace(rep_matrix_batch(spec, m, one)[0] @ block) for m, block in f.entries.items())
        assert batch[k] == pytest.approx(direct, abs=1e-12)
        assert f.eval_k_batch(one)[0] == batch[k]  # a batch of one has the batch's bits



@pytest.mark.parametrize("spec, labels", [(su2(), (1, 2, 4)), (torus(2), ((0, 0), (1, -1), (-2, 3)))], ids=str)
def test_eval_k_batch_is_the_sum_of_label_traces(spec, labels):
    # f is its label traces summed in label order, bit for bit; one trace per label
    rng = np.random.default_rng(5)
    draw = random.Random(5)
    shapes = {label: (irrep_dim(spec, label),) * 2 for label in labels}
    f = CoefVec(spec, {label: rng.normal(size=shape) + 1j * rng.normal(size=shape) for label, shape in shapes.items()})
    gs = np.stack([random_k(spec, draw) for _ in range(7)])
    traces = f.label_traces(gs)
    assert list(traces) == list(labels) and all(trace.shape == (7,) for trace in traces.values())
    total = traces[labels[0]]
    for label in labels[1:]:
        total = total + traces[label]
    assert np.array_equal(f.eval_k_batch(gs), total)

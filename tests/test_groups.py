import math
import random
import tracemalloc

import numpy as np
import pytest

from gsb.groups import (
    GroupSpec,
    enumerate_irreps,
    irrep_dim,
    laplacian_eigenvalue,
    parse_group,
    random_k,
    rep_generator,
    rep_matrix_batch,
    su2,
    su2_euler,
    torus,
)


def test_parse_group():
    assert parse_group("torus:2") == torus(2)
    assert parse_group("su2") == su2()
    with pytest.raises(ValueError):
        parse_group("so3")
    # vol K = (2 pi)^r is a finite double at rank 386 and overflows at 387
    assert math.isfinite(parse_group("torus:386").volume) and parse_group("torus:386").volume * 2 * math.pi == math.inf
    with pytest.raises(ValueError, match=r"in 1\.\.386"):
        parse_group("torus:387")


def test_spec_constants():
    assert torus(3).dim == 3
    assert torus(2).volume == pytest.approx((2 * math.pi) ** 2)
    assert torus(1).delta_sq == 0.0
    assert su2().dim == 3
    assert su2().volume == pytest.approx(16 * math.pi**2)
    assert su2().delta_sq == pytest.approx(0.25)
    assert su2().lattice_step == pytest.approx(4 * math.pi)
    assert torus(2).lattice_step == pytest.approx(2 * math.pi)


def test_enumerate_irreps_sorted():
    labels = list(enumerate_irreps(torus(2), 1))
    assert len(labels) == 9
    assert labels == sorted(labels)
    assert list(enumerate_irreps(su2(), 4)) == [1, 2, 3, 4]


def test_the_first_basis_block_holds_no_label_list():
    # the labels come one at a time, so the first block of the 21^4 labels
    # of torus:4 at cutoff 10 costs its own 4,096 entries, not a sorted
    # list of every label (18 MB)
    from gsb.suites import BLOCK, _basis

    tracemalloc.start()
    try:
        block = next(_basis(torus(4), 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(block) == BLOCK
    assert block[0][1] == ((-10, -10, -10, -10), 0, 0)
    assert peak < 2 * 2**20, f"{peak / 2**20:.1f} MB"


def test_eigenvalues():
    assert laplacian_eigenvalue(torus(2), (3, -4)) == pytest.approx(25.0)
    assert laplacian_eigenvalue(su2(), 1) == 0.0
    assert laplacian_eigenvalue(su2(), 2) == pytest.approx(0.75)
    assert laplacian_eigenvalue(su2(), 3) == pytest.approx(2.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_rep_matrix_unitary_homomorphism(m):
    rng = random.Random(m)
    g = random_k(su2(), rng)
    h = random_k(su2(), rng)
    pg, ph, pgh = rep_matrix_batch(su2(), m, np.stack([g, h, g @ h]))
    assert np.allclose(pg.conj().T @ pg, np.eye(m), atol=1e-12)
    assert np.allclose(pgh, pg @ ph, atol=1e-12)


def test_rep_matrix_batch_matches_single():
    # a batch equals its batches of one, bit for bit: on a torus too, where
    # n.z as a BLAS matrix-vector product rounds differently by batch size
    rng = random.Random(0)
    for spec, labels in ((su2(), (1, 2, 3, 4)), (torus(2), ((2, -3), (1, 1), (-5, 7)))):
        gs = np.stack([random_k(spec, rng) for _ in range(7)])
        for label in labels:
            batch = rep_matrix_batch(spec, label, gs)
            for k in range(7):
                assert np.array_equal(batch[k], rep_matrix_batch(spec, label, gs[k : k + 1])[0])


def test_torus_rep_is_exponential():
    spec = torus(2)
    x = np.array([[0.3, -1.2]])
    val = rep_matrix_batch(spec, (2, -1), x)[0, 0, 0]
    assert val == pytest.approx(np.exp(1j * (2 * 0.3 + 1.2)))


def test_su2_euler_matches_expm():
    # e^{phi E3} e^{theta E2} e^{psi E3}, broadcast over the angle arrays
    from scipy.linalg import expm

    from gsb.groups import SU2_BASIS

    phis, thetas, psis = np.array([0.0, 1.3, 5.9]), np.array([0.2, 2.8]), np.array([0.7, 4.0, 11.5, 12.1])
    mats = su2_euler(phis[:, None, None], thetas[None, :, None], psis[None, None, :])
    assert mats.shape == (3, 2, 4, 2, 2)
    for i, phi in enumerate(phis):
        for j, theta in enumerate(thetas):
            for k, psi in enumerate(psis):
                exact = expm(phi * SU2_BASIS[2]) @ expm(theta * SU2_BASIS[1]) @ expm(psi * SU2_BASIS[2])
                assert np.allclose(mats[i, j, k], exact, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rep_generator_is_derivative(m):
    from scipy.linalg import expm

    from gsb.groups import SU2_BASIS

    for k in range(3):
        X = SU2_BASIS[k]
        h = 1e-6
        plus, minus = rep_matrix_batch(su2(), m, np.stack([expm(h * X), expm(-h * X)]))
        num = (plus - minus) / (2 * h)
        assert np.allclose(rep_generator(su2(), m, X), num, atol=1e-8)


def test_generator_gives_casimir():
    # sum_k dpi(E_k)^2 = -lambda_m * I in the chosen normalization
    from gsb.groups import SU2_BASIS

    for m in (1, 2, 3, 4):
        total = sum(
            rep_generator(su2(), m, SU2_BASIS[k]) @ rep_generator(su2(), m, SU2_BASIS[k])
            for k in range(3)
        )
        lam = laplacian_eigenvalue(su2(), m)
        assert np.allclose(total, -lam * np.eye(m), atol=1e-12)


def test_invalid_spec():
    with pytest.raises(ValueError):
        GroupSpec("torus", 0)
    with pytest.raises(ValueError):
        GroupSpec("spin7", 1)

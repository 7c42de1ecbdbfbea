import math

import numpy as np
import pytest

from gsb.groups import enumerate_irreps, irrep_dim, random_k, su2, torus
from gsb.heat import TailBoundError, log_nu_t, nu_t, rho_eval
from gsb.polar import PointKC
from gsb.quadrature import integrate_K


def test_rho_eval_tail_error(monkeypatch):
    # at t = 0.01 the tail bound on torus:1 needs more than 32 terms, so with
    # at most 32 allowed no cutoff meets the tolerance
    import gsb.heat

    p = PointKC(torus(1), np.zeros(1), np.zeros(1))
    _, report = rho_eval(torus(1), 0.01, p, tol=1e-12)
    assert report.ok and report.cutoff > 32
    monkeypatch.setattr(gsb.heat, "MAX_CUTOFF", 32)
    with pytest.raises(TailBoundError):
        rho_eval(torus(1), 0.01, p, tol=1e-12)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_rho_mass_on_K(spec):
    # the heat kernel integrates to 1 against normalized Haar, i.e. to
    # vol(K)*[coefficient of the trivial irrep] in our volume convention
    total = integrate_K(
        spec,
        lambda xs: [rho_eval(spec, 1.0, _as_point(spec, x))[0] for x in xs],
        24,
    )
    assert total.real == pytest.approx(1.0, abs=1e-8)
    assert abs(total.imag) < 1e-10


def _as_point(spec, x):
    if spec.kind == "torus":
        return PointKC(spec, np.asarray(x, dtype=float), np.zeros(spec.rank))
    return PointKC(spec, x, np.zeros(3))


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_rho_matches_series(spec):
    # independent direct summation of dim * exp(-lambda t/2) * chi
    from gsb.groups import character, laplacian_eigenvalue

    rng = np.random.default_rng(4)
    x = random_k(spec, rng)
    t = 0.8
    direct = 0.0 + 0.0j
    for label in enumerate_irreps(spec, 25):
        lam = laplacian_eigenvalue(spec, label)
        direct += (
            irrep_dim(spec, label) * math.exp(-lam * t / 2.0) * character(spec, label, x)
        )
    direct /= spec.volume
    value, report = rho_eval(spec, t, _as_point(spec, x))
    assert report.ok
    assert value == pytest.approx(direct, rel=1e-10)


def test_rho_semigroup_at_identity():
    # rho_t * rho_t = rho_2t; at the identity the convolution is the
    # L2 pairing, sum dim^2 e^{-lambda t} / vol = rho_2t(e)
    spec = su2()
    t = 1.2
    lhs = sum(
        m * m * math.exp(-(m * m - 1) / 4.0 * t) for m in range(1, 40)
    ) / spec.volume
    value, _ = rho_eval(spec, 2 * t, _as_point(spec, np.eye(2, dtype=complex)), tol=1e-14)
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
    assert nu_t(spec, t, y) == pytest.approx(expected, rel=1e-12)
    assert log_nu_t(spec, t, y) == pytest.approx(math.log(expected), rel=1e-12)


def test_nu_t_mass():
    # int nu_t dg = vol(K): the k-space rule absorbs nu_t, so integrating 1
    # against it must give exactly the normalized mass
    from gsb.quadrature import QuadSpec, integrate_kspace

    for spec in (torus(2), su2()):
        for t in (0.25, 1.0, 4.0):
            res = integrate_kspace(spec, t, lambda ys: np.ones(ys.shape[0]), QuadSpec())
            assert res.value.real == pytest.approx(1.0, abs=1e-12)

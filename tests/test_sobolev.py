import math
from fractions import Fraction

import numpy as np
import pytest

from gsb.coeffs import CoefVec, basis_entry
from gsb.groups import laplacian_eigenvalue, su2, torus
from gsb.quadrature import QuadSpec
from gsb.sobolev import phi_x_weight, symbol_positivity_threshold, toeplitz_symbol
from gsb.transform import holo_inner
from oracles import entry_pairs, plancherel_norm, reference, sobolev_shift

# the level gap every quadrature here must meet
GAP_TOL = 1e-6


def test_symbol_phi1_torus_closed_form():
    spec = torus(1)
    sym = toeplitz_symbol(spec, 2.0, 3.0, 1)
    # phi_1 = c - d/(2t) + u/t^2 with d = 1, |delta|^2 = 0
    assert sym.coefficients == pytest.approx((3.0 - 0.25, 0.25))


def test_symbol_phi1_su2_closed_form():
    spec = su2()
    sym = toeplitz_symbol(spec, 2.0, 3.0, 1)
    # phi_1 = c - 3/(2t) - 1/4 + u/t^2
    assert sym.coefficients == pytest.approx((3.0 - 0.75 - 0.25, 0.25))


# alpha = d/2 - 1 is -1/2, 0, 1/2 and 3/2 on torus:1, torus:2, torus:3 (and su2), torus:5
@pytest.mark.parametrize("spec", [torus(1), torus(2), torus(3), torus(5), su2()], ids=str)
def test_symbol_closed_form_matches_the_recursion_bit_for_bit(spec):
    # the product rule phi_n nu_t = (c + d/dt)^n nu_t run exactly by the
    # reference, each coefficient evaluated at (t, c) and rounded once; c on
    # the CLI's positivity grid |delta|^2 + 1 + k/2, and off it
    group = reference.Group(str(spec))
    cs = [spec.delta_sq + 1.0 + 0.5 * k for k in (0, 1, 5, 39)] + [0.3, 1.1, 2.7182818, 7.1]
    for n in range(11):
        for t in (0.05, 0.3, 0.7, 1.0, 3.7):
            for c in cs:
                exact = reference.symbol_coefficients(group, n, Fraction(t), Fraction(c))
                assert toeplitz_symbol(spec, t, c, n).coefficients == tuple(map(float, exact)), (n, t, c)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbol_degree_and_top_coefficient(spec, n):
    # at dyadic t the top coefficient t^{-2n} is a double, exactly; at c well
    # above the positivity threshold every coefficient is positive
    for t, c in ((2.0, 1.25), (0.5, 20.0), (0.25, 40.0)):
        sym = toeplitz_symbol(spec, t, c, n)
        assert sym.degree == n
        assert sym.coefficients[n] == t ** (-2 * n)
        assert t > 1 or all(coef > 0 for coef in sym.coefficients)


@pytest.mark.parametrize("spec", [torus(1), torus(2), torus(3), su2()])
def test_symbol_is_exact_value_rounded_once(spec):
    # phi_1 = c - d/(2t) - |delta|^2 + u/t^2 and phi_2 = phi_1^2 + d/(2t^2) - 2u/t^3,
    # evaluated exactly at the doubles t = 0.7 and c; each coefficient is the
    # exact value rounded once (t = 0.7 is not dyadic, so float arithmetic
    # would differ in the last bits on many of them)
    t, s = 0.7, 1 / Fraction(0.7)
    half_d, dsq = Fraction(spec.dim, 2), Fraction(spec.delta_sq)
    for k in range(40):
        c = spec.delta_sq + 1.0 + 0.5 * k
        a0 = Fraction(c) - half_d * s - dsq
        phi1 = (a0, s * s)
        phi2 = (a0 * a0 + half_d * s * s, 2 * a0 * s * s - 2 * s**3, s**4)
        assert toeplitz_symbol(spec, t, c, 1).coefficients == tuple(float(x) for x in phi1)
        assert toeplitz_symbol(spec, t, c, 2).coefficients == tuple(float(x) for x in phi2)


def test_positivity_threshold_torus_n1():
    # phi_1 = (c - 1/(2t), 1/t^2) on torus:1: positive iff c > c* = 1/(2t),
    # and the default is the first |delta|^2 + 1 + k/2 strictly above c*
    spec = torus(1)
    assert symbol_positivity_threshold(spec, 1.0, 1) == 1.0  # c* = 1/2 lies below the floor
    assert symbol_positivity_threshold(spec, 0.25, 1) == 2.5  # c* = 2 is a grid point, and phi_1 vanishes there
    assert toeplitz_symbol(spec, 0.25, 2.0, 1).coefficients[0] == 0.0
    assert symbol_positivity_threshold(spec, 0.3, 1) == 2.0  # c* = 5/3


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_thresholds_nondecreasing_in_n(spec):
    # each default makes every coefficient positive, the grid point below
    # it (when above the floor) leaves one <= 0, and c* grows with n
    for t in (0.3, 1.0, 4.0):
        thrs = [symbol_positivity_threshold(spec, t, n) for n in range(1, 9)]
        assert all(a <= b for a, b in zip(thrs, thrs[1:]))
        for n, c in enumerate(thrs, start=1):
            assert all(coef > 0 for coef in toeplitz_symbol(spec, t, c, n).coefficients)
            if c > spec.delta_sq + 1.0:
                assert min(toeplitz_symbol(spec, t, c - 0.5, n).coefficients) <= 0


def _shifted_coefficient(alpha: Fraction, t: Fraction, n: int, j: int) -> list:
    """The u^j coefficient of phi_n as a polynomial in b, a = c - |delta|^2 =
    a* + b with a* = (n + alpha)/t, ascending in b: from the Laguerre form
    sum_{k >= j} C(n,k) a^{n-k} p_kj t^{-k-j}, p_kj = (-1)^{k+j} (k!/j!)
    C(k + alpha, k - j), Taylor-shifted exactly."""
    in_a = [Fraction(0)] * (n + 1)  # ascending in a
    for k in range(j, n + 1):
        binom = math.prod((j + alpha + i) / i for i in range(1, k - j + 1))
        p = (-1) ** (k + j) * Fraction(math.factorial(k), math.factorial(j)) * binom
        in_a[n - k] += math.comb(n, k) * p / t ** (k + j)
    star = (n + alpha) / t
    return [sum(math.comb(m, l) * in_a[m] * star ** (m - l) for m in range(l, n + 1)) for l in range(n + 1)]


def test_symbol_coefficients_are_positive_above_the_threshold():
    # the certificate of symbol_positivity_threshold's proof: every u^j
    # coefficient, shifted to a*, is a polynomial in b with no negative
    # coefficient and a positive b^{n-j} term; the u^{n-1} one vanishes at a*
    for d in (1, 2, 3, 4, 5):
        alpha = Fraction(d, 2) - 1
        for t in (Fraction(0.05), Fraction(0.3), Fraction(1), Fraction(3.7), Fraction(16)):
            for n in range(1, 11):
                for j in range(n + 1):
                    shifted = _shifted_coefficient(alpha, t, n, j)
                    assert min(shifted) >= 0 and shifted[n - j] > 0, (d, t, n, j)
                assert _shifted_coefficient(alpha, t, n, n - 1)[0] == 0


def test_shift_on_basis():
    spec = su2()
    f = basis_entry(spec, 3, 0, 1)
    lam = laplacian_eigenvalue(spec, 3)
    h = sobolev_shift(f, 1, 2.0)
    assert np.allclose(h.entries[3], (2.0 + lam) * f.entries[3])


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_sobolev_isometry(spec):
    label = (2,) if spec.kind == "torus" else 3
    f = basis_entry(spec, label, 0, 0)
    t, n, c = 1.0, 1, spec.delta_sq + 1.0
    g, q = sobolev_shift(f, n, c), QuadSpec()
    res = holo_inner(spec, t, entry_pairs(g, g), q)
    assert res.gap[0] <= GAP_TOL
    exact = reference.sobolev_entry_norm(reference.Group(str(spec)), label, n, Fraction(c))
    assert math.sqrt(res.value[0].real) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("spec", [torus(1), su2()])
def test_toeplitz_identity(spec):
    label = (1,) if spec.kind == "torus" else 2
    f = basis_entry(spec, label, 0, 0)
    t, n, c = 1.0, 1, spec.delta_sq + 1.0
    lhs = plancherel_norm(sobolev_shift(f, n, c)) ** 2
    pairs = entry_pairs(sobolev_shift(f, n, c), f)
    (rhs,) = holo_inner(spec, t, pairs, QuadSpec(), weight=toeplitz_symbol(spec, t, c, n)).value
    assert rhs.real == pytest.approx(lhs, rel=1e-8)
    assert abs(rhs.imag) < 1e-8 * lhs


@pytest.mark.parametrize("spec", [torus(1), su2()])
@pytest.mark.parametrize("k", [0])
def test_first_order_identity(spec, k):
    labels = [(1,), (2,)] if spec.kind == "torus" else [2, 3]
    f1 = basis_entry(spec, labels[0], 0, 0)
    f2 = CoefVec(spec, {**basis_entry(spec, labels[1], 0, 0).entries, labels[0]: 0.3 * f1.entries[labels[0]]})
    # <F1, X_k F2> by the axis gather, and the quadratic form of the symbol of X_k
    pairs, t = entry_pairs(f1, f2), 1.0
    lhs = np.sum(holo_inner(spec, t, pairs, QuadSpec(), axis=k).value)
    rhs = np.sum(holo_inner(spec, t, pairs, QuadSpec(), weight=phi_x_weight(spec, t, k)).value)
    scale = plancherel_norm(f1) * plancherel_norm(f2)
    assert abs(lhs - rhs) <= 1e-8 * scale


def test_vector_field_torus_eigen():
    # X_1 e_n = i n_1 e_n: the axis gather scales the form of e_(2,-1) by -i
    spec = torus(2)
    e = ((2, -1), 0, 0)
    plain, along = (holo_inner(spec, 1.0, [(e, e, 1.0)], QuadSpec(), axis=axis).value[0] for axis in (None, 1))
    assert along == pytest.approx(-1j * plain, rel=1e-15)


def test_weighted_norm_n0_is_l2():
    spec = su2()
    e, q = (3, 1, 0), QuadSpec()
    res = holo_inner(spec, 1.0, [(e, e, 1.0)], q)
    assert res.gap[0] <= GAP_TOL

    def weighted(n):
        return math.sqrt(holo_inner(spec, 1.0, [(e, e, 1.0)], q, weight=lambda u: (1.0 + u) ** (2 * n)).value[0].real)

    base = math.sqrt(res.value[0].real)
    assert weighted(0) == pytest.approx(base, rel=1e-10)
    assert weighted(1) > base

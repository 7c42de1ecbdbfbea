"""Fast self-check of bench/reference.py (a few seconds, no gsb import).

    python3 bench/selfcheck.py

Each line checks a fact the references must satisfy by themselves; the
script exits 1 on the first one that fails.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    Group,
    alpha_t,
    chamber_gaussian_limit,
    chamber_lattice_sum,
    character_sum_growth,
    euler_su2,
    evaluate_coefficients,
    positivity_threshold,
    su2_irrep,
    su2_radial_mean,
    su2_weighted_norm,
    symbol_coefficients,
    torus_weighted_norm,
)


def expect(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def main():
    su2, t1, t2 = Group("su2"), Group("torus:1"), Group("torus:2")
    one = Fraction(1)

    c = positivity_threshold(su2, one, 1)
    expect(c == Fraction(9, 4), "su2, n=1, t=1: threshold c = 9/4")
    expect(symbol_coefficients(su2, 1, one, c) == [Fraction(1, 2), 1], "su2, n=1, t=1: phi_1 = 1/2 + u")
    expect(positivity_threshold(t1, one, 1) == 1, "torus:1, n=1, t=1: threshold c = 1")
    phi2 = symbol_coefficients(t1, 2, one, Fraction(2))
    # q_2 = (c - 1/(2t) + u/t^2)^2 + d/dt(...) = u^2 + (2c - 1 - 2)u + (c - 1/2)^2 + 1/2 at t = 1
    expect(phi2 == [Fraction(11, 4), 1, 1], "torus:1, n=2, t=1, c=2: phi_2 = 11/4 + u + u^2")
    expect(symbol_coefficients(su2, 3, Fraction(1, 2), Fraction(3))[-1] == 64, "su2: top coefficient of phi_3 is t^-6")

    for t in (0.5, 1.0, 2.0):
        for m in (1, 2, 4):
            mean = math.exp(-(m * m - 1) * t / 4.0) * su2_radial_mean(t, m, 0)
            expect(abs(mean - 1.0) < 1e-14, f"su2 Plancherel from the radial mean, m={m}, t={t}")
    expect(abs(su2_weighted_norm(1.0, 1, 0) - 4 * math.pi) < 1e-13, "su2 weighted norm at n=0 is the L2 norm")
    expect(abs(torus_weighted_norm(t2, one, (1, -1), 0) - 2 * math.pi) < 1e-14, "torus weighted norm at n=0 is sqrt(vol)")
    # E[(1 + Z^2)^2] for Z ~ N(-1, 1/2): 1 + 2 E[Z^2] + E[Z^4] = 1 + 3 + 4.75
    expect(abs(torus_weighted_norm(t1, one, (1,), 1) ** 2 / (2 * math.pi) - 8.75) < 1e-13, "torus:1 weighted moment")

    for tau in (1.0, 64.0):
        direct = sum(math.exp(-((2 * math.pi * k) ** 2) / tau) for k in range(-50, 51))
        expect(abs(chamber_lattice_sum(t1, tau) - direct) < 1e-14 * direct, f"theta sum, torus:1, tau={tau}")
    limit = chamber_lattice_sum(t2, 4096.0) / 4096.0
    expect(abs(limit - chamber_gaussian_limit(t2)) < 1e-12, "torus:2 lattice sum tends to the Gaussian limit")
    expect(alpha_t(su2, 1.0) == 0.5, "su2: alpha_1 = 1/2 (only the wall point at small tau)")

    g0 = character_sum_growth(su2, 1.0, 1, 0, 6.0)
    expect(g0 == 1.0, "su2 growth functional of the constant function is 1")

    rng = random.Random(0)
    for m in (2, 3, 4):
        a = euler_su2(rng.uniform(0, 6), rng.uniform(0, 3), rng.uniform(0, 12))
        b = euler_su2(rng.uniform(0, 6), rng.uniform(0, 3), rng.uniform(0, 12))
        ab = matmul([list(r) for r in a], [list(r) for r in b])
        lhs, rhs = su2_irrep(m, ab), matmul(su2_irrep(m, a), su2_irrep(m, b))
        err = max(abs(lhs[i][j] - rhs[i][j]) for i in range(m) for j in range(m))
        expect(err < 1e-13, f"su2 irrep m={m} is a homomorphism")
        pa = su2_irrep(m, a)
        gram = [[sum(pa[k][i].conjugate() * pa[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
        err = max(abs(gram[i][j] - (i == j)) for i in range(m) for j in range(m))
        expect(err < 1e-13, f"su2 irrep m={m} is unitary")
    x = euler_su2(0.3, 1.1, 2.0)
    expect(su2_irrep(2, x) == [list(r) for r in x], "su2 irrep m=2 is the defining representation")

    entries = [{"label": [2], "matrix": [[[0.5, -1.0]]]}]
    value = evaluate_coefficients(t1, entries, [0.7])
    expect(abs(value - complex(0.5, -1.0) * cmath.exp(1.4j)) < 1e-15, "torus coefficient evaluation")
    print("reference self-check passed")


if __name__ == "__main__":
    main()

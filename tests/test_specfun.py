"""Special-function primitives against independent oracles: adaptive
quadrature, exact rational recursions, and classical identities."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from nigdiff.errors import DomainError, UnsupportedParameterError
from nigdiff.gibbs import GGParams
from nigdiff.specfun import (alpha_diversity_density, exp_integral_ei,
                             gen_factorial_coeff,
                             gen_factorial_coeff_log_table,
                             log_upper_incomplete_gamma, pochhammer,
                             stable_half_density, upper_incomplete_gamma)

from conftest import exact_gen_factorial, set_partitions


# ---------------------------------------------------------------------------
# Pochhammer symbols

def test_pochhammer_gamma_ratio():
    for a in (0.3, 1.0, 2.5, 7.0):
        for m in (0, 1, 3, 8):
            assert pochhammer(a, m) == pytest.approx(
                math.gamma(a + m) / math.gamma(a), rel=1e-12)


# ---------------------------------------------------------------------------
# Upper incomplete gamma

@pytest.mark.parametrize("c", [-7.5, -3.2, -2.0, -0.5, 0.0, 0.7, 1.0,
                               2.5, 6.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 5.0, 10.0])
def test_incomplete_gamma_vs_quadrature(c, x):
    oracle, err = integrate.quad(
        lambda t: t ** (c - 1.0) * math.exp(-t), x, np.inf,
        epsabs=1e-300, epsrel=1e-12, limit=300)
    assert upper_incomplete_gamma(c, x) == pytest.approx(oracle, rel=5e-8)


def test_incomplete_gamma_recurrence():
    # Gamma(c+1; x) = c Gamma(c; x) + x^c e^{-x}, checked in linear space
    # after removing the common magnitude
    for x in (0.5, 2.0, 10.0):
        for c in np.arange(-40.0, 40.0, 1.7):
            lhs = log_upper_incomplete_gamma(c + 1.0, x)
            g = log_upper_incomplete_gamma(c, x)
            rhs_terms = np.array([g + math.log(abs(c)) if c != 0 else -np.inf,
                                  c * math.log(x) - x])
            peak = max(lhs, rhs_terms.max())
            lin_lhs = math.exp(lhs - peak)
            lin_rhs = (math.copysign(math.exp(rhs_terms[0] - peak), c)
                       + math.exp(rhs_terms[1] - peak))
            assert lin_lhs == pytest.approx(lin_rhs, rel=1e-9, abs=1e-12)


def test_incomplete_gamma_full_envelope():
    # wide grid of (c, x) against a 40-digit oracle, including the
    # routing boundaries (x = 0.3, |c| = 0.5, c = -4) and near-zero c
    # where the 1/c amplification of naive routes is worst
    mpmath.mp.dps = 40
    cs = [-60.0, -33.7, -12.5, -4.0, -3.9, -0.51, -0.49, -1e-3, -1e-8,
          -1e-12, 1e-12, 1e-8, 1e-3, 0.49, 0.51, 7.3, 60.0]
    xs = [1e-3, 0.05, 0.29, 0.31, 1.0, 8.0, 50.0]
    for c in cs:
        for x in xs:
            got = log_upper_incomplete_gamma(c, x)
            ref = float(mpmath.log(mpmath.gammainc(
                mpmath.mpf(c), mpmath.mpf(x), mpmath.inf)))
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), (c, x)


def test_incomplete_gamma_domain():
    with pytest.raises(DomainError):
        upper_incomplete_gamma(1.0, 0.0)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(1.0, -2.0)


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=100)
def test_incomplete_gamma_monotone_in_x(c, x, dx):
    # the integrand is positive, so Gamma(c; x) decreases in x (the
    # decrease can fall below double resolution deep in a flat region)
    assert (log_upper_incomplete_gamma(c, x)
            >= log_upper_incomplete_gamma(c, x + dx))


def test_ei_e1_relation():
    # Ei(-x) = -E1(x)
    for x in (0.2, 1.0, 4.0, 15.0):
        assert exp_integral_ei(-x) == pytest.approx(
            -special.exp1(x), rel=1e-12)
    with pytest.raises(DomainError):
        exp_integral_ei(0.0)


def test_ei_positive_vs_quadrature():
    # Ei(z) = PV int_{-inf}^z e^t / t dt; for z > 0 use the symmetric form
    # Ei(z) = gamma + ln z + sum z^k/(k k!)
    for z in (0.5, 2.0, 8.0):
        series = np.euler_gamma + math.log(z)
        term = 1.0
        for k in range(1, 200):
            term *= z / k
            series += term / k
        assert exp_integral_ei(z) == pytest.approx(series, rel=1e-12)


# ---------------------------------------------------------------------------
# Generalized factorial coefficients

@pytest.mark.parametrize("alpha_frac,tol", [(Fraction(1, 4), 1e-12),
                                            (Fraction(1, 2), 1e-10),
                                            (Fraction(3, 4), 1e-12)])
def test_gen_factorial_exact_rational(alpha_frac, tol):
    alpha = float(alpha_frac)
    for n in range(0, 13):
        for k in range(0, n + 1):
            exact = exact_gen_factorial(n, k, alpha_frac)
            got = gen_factorial_coeff(n, k, alpha)
            assert got == pytest.approx(float(exact), rel=tol, abs=1e-300)


def test_gen_factorial_partition_sum():
    # sum over set partitions of [n] with k blocks of
    # prod_j (1 - alpha)_(n_j - 1) equals C(n, k, alpha) / alpha^k
    alpha = 0.5
    n = 7
    sums = {}
    for p in set_partitions(list(range(n))):
        w = 1.0
        for b in p:
            w *= pochhammer(1.0 - alpha, len(b) - 1)
        sums[len(p)] = sums.get(len(p), 0.0) + w
    for k, total in sums.items():
        assert total == pytest.approx(
            gen_factorial_coeff(n, k, alpha) / alpha ** k, rel=1e-10)


def test_gen_factorial_table_matches_series():
    # C(n, k, alpha) = (1/k!) sum_j (-1)^j binom(k, j) (-j alpha)_n, summed
    # in exact rational arithmetic, where its cancellation costs nothing
    def series(n, k, alpha):
        total = Fraction(0)
        for j in range(k + 1):
            poch = Fraction(1)
            for i in range(n):
                poch *= -j * alpha + i
            total += (-1) ** j * math.comb(k, j) * poch
        return total / math.factorial(k)

    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        table = gen_factorial_coeff_log_table(20, 12, float(alpha))
        for n in range(21):
            for k in range(13):
                exact = series(n, k, alpha)
                assert exact == exact_gen_factorial(n, k, alpha)
                if exact == 0:
                    assert table[n, k] == -np.inf
                else:
                    assert table[n, k] == pytest.approx(
                        math.log(exact.numerator)
                        - math.log(exact.denominator), abs=1e-12)


def test_gen_factorial_domain():
    with pytest.raises(DomainError):
        gen_factorial_coeff(3, 1, 1.5)
    with pytest.raises(DomainError):
        gen_factorial_coeff(-1, 0, 0.5)
    assert gen_factorial_coeff(4, 0, 0.5) == 0.0
    assert gen_factorial_coeff(3, 5, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Densities

def test_stable_half_density_normalizes():
    total, err = integrate.quad(stable_half_density, 0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        stable_half_density(0.0)


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 10.0])
def test_alpha_diversity_density_normalizes(beta):
    params = GGParams.from_beta(beta)
    total, err = integrate.quad(
        lambda s: alpha_diversity_density(s, params), 0, 60.0, limit=300)
    assert total == pytest.approx(1.0, abs=1e-7)


def test_alpha_diversity_density_beta0_is_transformed_stable():
    # at beta = 0 the density is the push-forward of the positive
    # 1/2-stable law under t -> t^(-1/2)
    params = GGParams(a=0.0)
    for s in (0.3, 1.0, 2.5):
        expected = stable_half_density(s ** -2.0) * 2.0 * s ** -3.0
        assert alpha_diversity_density(s, params) == pytest.approx(
            expected, rel=1e-12)


def test_alpha_diversity_density_domain():
    with pytest.raises(DomainError):
        alpha_diversity_density(0.0, GGParams(a=1.0))
    with pytest.raises(UnsupportedParameterError):
        alpha_diversity_density(1.0, GGParams(a=1.0, alpha=0.3))
    # deep left tail underflows to an exact zero instead of raising
    assert alpha_diversity_density(1e-4, GGParams.from_beta(10.0)) == 0.0

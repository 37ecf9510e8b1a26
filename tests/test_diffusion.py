"""Cluster-count chain, square-root diffusion, boundary analytics and
the generator action on power sums, against quadrature and
finite-difference oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from nigdiff.diffusion import (ChainState, DiversityPath, SimplexPoint,
                               _transition_tables, chain_increment_moments,
                               chain_transition_probs,
                               generator_action_power_sum, scale_function,
                               sde_step, simulate_chain,
                               simulate_chain_ensemble, simulate_sde,
                               speed_measure, stationary_density_candidate,
                               stationary_tail_partial_integral)
from nigdiff.errors import DomainError, NumericalError
from nigdiff.gibbs import GGParams, PDParams

from conftest import stepwise_transition_tables


# ---------------------------------------------------------------------------
# Types

def test_chain_state_validation():
    with pytest.raises(DomainError):
        ChainState(k=1, n=1)
    with pytest.raises(DomainError):
        ChainState(k=0, n=5)
    with pytest.raises(DomainError):
        ChainState(k=6, n=5)


def test_simplex_point_validation_and_power_sum():
    p = SimplexPoint(coords=(0.5, 0.3, 0.2))
    assert p.power_sum(1) == pytest.approx(1.0)
    assert p.power_sum(2) == pytest.approx(0.38)
    with pytest.raises(DomainError):
        p.power_sum(0)
    with pytest.raises(DomainError):
        SimplexPoint(coords=(0.2, 0.5))
    with pytest.raises(DomainError):
        SimplexPoint(coords=(0.9, 0.3))


def test_diversity_path_validation():
    with pytest.raises(DomainError):
        DiversityPath(times=(0.0, 1.0), values=(1.0,), rescaling={})


# ---------------------------------------------------------------------------
# Cluster-count chain

def test_chain_barriers():
    params = GGParams.from_beta(2.0)
    up, down, stay = chain_transition_probs(ChainState(k=1, n=30), params)
    assert down == 0.0 and up > 0.0
    up, down, stay = chain_transition_probs(ChainState(k=30, n=30), params)
    assert up == 0.0 and down > 0.0
    up, down, stay = chain_transition_probs(ChainState(k=7, n=30), params)
    assert up + down + stay == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        chain_transition_probs(ChainState(k=7, n=30), params, mode="bogus")


EXACT_NS = (2, 3, 64, 65, 200, 1000)


@pytest.mark.parametrize("params, mode, ns", [
    (GGParams.from_beta(0.0), "exact", EXACT_NS),
    (GGParams.from_beta(2.0), "exact", EXACT_NS),
    (GGParams.from_beta(1000.0), "exact", EXACT_NS),
    (GGParams.from_beta(2.0, alpha=0.3), "exact", EXACT_NS),
    (PDParams(theta=1.5, alpha=0.3), "exact", EXACT_NS),
    # the expansion leaves [0, 1] at small n
    (GGParams.from_beta(2.0), "asymptotic", (64, 65, 200, 1000)),
], ids=["beta0", "beta2", "beta1000", "alpha0.3", "pd", "asymptotic"])
def test_transition_tables_equal_per_state_reference(params, mode, ns):
    for n in ns:
        got = _transition_tables(n, params, mode)
        want = stepwise_transition_tables(n, params, mode)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), n
    # the scalar reader takes the same evaluator on its two states
    assert chain_transition_probs(ChainState(k=7, n=1000), params,
                                  mode)[:2] == (want[0][7], want[1][7])


def test_chain_modes_agree_at_large_n():
    params = GGParams.from_beta(2.0)
    state = ChainState(k=200, n=10_000)
    exact = chain_transition_probs(state, params, mode="exact")
    approx = chain_transition_probs(state, params, mode="asymptotic")
    for pe, pa in zip(exact, approx):
        assert pa == pytest.approx(pe, rel=2e-3)


def test_chain_increment_moments_asymptotics():
    # at n = 10^4, k = 200, beta = 2: n^{3/2} E[dk/sqrt(n)] -> beta/s and
    # n^{3/2} E[(dk/sqrt(n))^2] -> s, both within ~1%
    params = GGParams.from_beta(2.0)
    m = chain_increment_moments(ChainState(k=200, n=10_000), params)
    assert m.mean == pytest.approx(m.mean_asymptotic, rel=0.02)
    assert m.second_moment == pytest.approx(m.second_moment_asymptotic,
                                            rel=0.02)


def test_chain_ensemble_shape_and_determinism():
    params = GGParams.from_beta(1.0)
    out1 = simulate_chain_ensemble(40, 100, 5, params, 7,
                                   np.random.default_rng(3), record_every=10)
    out2 = simulate_chain_ensemble(40, 100, 5, params, 7,
                                   np.random.default_rng(3), record_every=10)
    assert out1.shape == (11, 7)
    assert np.array_equal(out1, out2)
    assert np.all((1 <= out1) & (out1 <= 40))
    assert np.all(np.abs(np.diff(out1[:, 0])) <= 10)
    with pytest.raises(DomainError):
        simulate_chain_ensemble(40, 10, 0, params, 1,
                                np.random.default_rng(0))


def test_simulate_chain_rescaling(rng):
    params = GGParams.from_beta(1.0)
    path = simulate_chain(25, 50, 5, params, rng)
    assert len(path.times) == 51
    assert path.times[1] == pytest.approx(25.0 ** -1.5)
    assert path.values[0] == pytest.approx(5.0 / 5.0)  # k0 / sqrt(n)
    assert path.rescaling == {"space_exponent": 0.5, "time_exponent": 1.5}


def test_chain_drifts_toward_balance(rng):
    # starting far below the diversity scale, k/sqrt(n) increases in mean
    params = GGParams.from_beta(10.0)
    out = simulate_chain_ensemble(400, 4_000, 2, params, 50, rng,
                                  record_every=4_000)
    assert out[-1].mean() > out[0].mean()


# ---------------------------------------------------------------------------
# Square-root diffusion

def test_sde_step_moments(rng):
    s0, beta, dt, reps = 1.5, 2.0, 1e-3, 40_000
    vals = np.array([sde_step(s0, dt, beta, rng) for _ in range(reps)])
    incr = vals - s0
    mean_se = incr.std() / math.sqrt(reps)
    assert abs(incr.mean() - (beta / s0) * dt) < 4.0 * mean_se
    assert incr.var() == pytest.approx(s0 * dt, rel=0.05)


def test_sde_step_absorption_and_domain(rng):
    assert sde_step(0.0, 0.1, 0.0, rng) == 0.0
    with pytest.raises(DomainError):
        sde_step(1.0, 0.0, 1.0, rng)
    with pytest.raises(DomainError):
        sde_step(1.0, 0.1, -1.0, rng)
    # nonnegativity under full truncation
    assert all(sde_step(1e-4, 0.5, 0.0, rng) >= 0.0 for _ in range(200))


def test_simulate_sde_path(rng):
    path = simulate_sde(1.0, 2.0, 1e-3, 100, rng)
    assert len(path.values) == 101
    assert path.times[-1] == pytest.approx(0.1)
    assert all(v >= 0.0 for v in path.values)
    with pytest.raises(DomainError):
        simulate_sde(-1.0, 2.0, 1e-3, 10, rng)


# ---------------------------------------------------------------------------
# Boundary analytics

@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_scale_function_vs_quadrature(beta):
    # s(y) = exp(-2 beta / y0) exp(2 beta / y); S(x) = int_x0^x s(y) dy
    for x in (0.2, 0.7, 1.0, 3.0, 12.0):
        oracle, err = integrate.quad(
            lambda y: math.exp(-2 * beta + 2 * beta / y), 1.0, x,
            epsabs=1e-14, epsrel=1e-12, limit=200)
        assert scale_function(x, beta) == pytest.approx(oracle,
                                                        rel=1e-9, abs=1e-12)
    assert scale_function(1.0, beta) == 0.0


def test_scale_function_increasing_and_domain():
    xs = np.linspace(0.05, 10.0, 40)
    vals = [scale_function(x, 2.0) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        scale_function(0.0, 1.0)
    with pytest.raises(DomainError):
        scale_function(1.0, 0.0)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_speed_measure_vs_quadrature(beta):
    for c, d in ((0.1, 0.5), (0.5, 2.0), (1.0, 40.0)):
        oracle, err = integrate.quad(
            lambda t: math.exp(2 * beta) * math.exp(-2 * beta / t) / t,
            c, d, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert speed_measure(c, d, beta) == pytest.approx(oracle, rel=1e-9)
    with pytest.raises(DomainError):
        speed_measure(2.0, 1.0, beta)
    with pytest.raises(DomainError):
        speed_measure(1.0, 2.0, 0.0)


def test_speed_measure_boundary_classification():
    beta = 2.0
    # total mass near 0 is finite: M(c, 1] is Cauchy as c -> 0 (below
    # c ~ 1e-3 the remaining mass is under double resolution entirely)
    tails = [speed_measure(c, 1.0, beta)
             for c in (0.6, 0.4, 0.25, 0.15, 1e-2, 1e-6)]
    gaps = np.abs(np.diff(tails))
    assert np.all(gaps[1:] <= gaps[:-1])
    assert gaps[0] > gaps[2]
    assert gaps[-1] < 1e-12
    # but M[1, d) diverges as d grows (like log d)
    heads = [speed_measure(1.0, d, beta) for d in (1e2, 1e4, 1e6)]
    assert heads[2] - heads[1] == pytest.approx(heads[1] - heads[0], rel=0.1)
    assert heads[-1] > 10.0


def test_boundary_analytics_overflow_raises_numerical_error():
    # e^(2 beta / x) = e^1000 and e^(2 beta) = e^1000 exceed double range
    with pytest.raises(NumericalError):
        scale_function(0.1, 50.0)
    with pytest.raises(NumericalError):
        speed_measure(0.5, 1.0, 500.0)


def test_scale_function_diverges_at_zero():
    # S(0, b] = -lim_{x->0} S(x) is infinite: entrance-without-exit at 0
    vals = [-scale_function(x, 2.0) for x in (0.2, 0.1, 0.05, 0.02)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e80


def test_stationary_candidate_has_constant_flux():
    # psi solves the stationarity equation iff the probability flux
    # J(x) = 0.5 d/dx [x psi(x)] - (beta/x) psi(x) is constant in x
    beta = 1.5
    h = 1e-6
    for c1, c2 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4)):
        flux = []
        for x in (0.5, 1.0, 2.0, 5.0):
            up = (x + h) * stationary_density_candidate(x + h, beta, c1, c2)
            dn = (x - h) * stationary_density_candidate(x - h, beta, c1, c2)
            flux.append(0.5 * (up - dn) / (2 * h)
                        - (beta / x) * stationary_density_candidate(
                            x, beta, c1, c2))
        assert np.ptp(flux) < 1e-6 * (1.0 + np.max(np.abs(flux)))


def test_stationary_tail_partial_integral_log_growth():
    beta = 2.0
    vals = [stationary_tail_partial_integral(t, beta)
            for t in (1e2, 1e4, 1e6)]
    assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=0.05)
    assert vals[2] - vals[1] == pytest.approx(math.log(1e2), rel=0.05)
    with pytest.raises(DomainError):
        stationary_tail_partial_integral(0.5, beta)


# ---------------------------------------------------------------------------
# Generator action on power sums

def _fd_generator_action(m, s, z, params, h=1e-5):
    """Assemble A1 phi_m from numerically differentiated phi_m with
    a_ij = z_i (delta_ij - z_j) and b_i = -(theta z_i + alpha)/2."""
    theta = params.beta / s
    alpha = params.alpha

    def phi(v):
        return float(np.sum(v ** m))

    n = z.shape[0]
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        grad[i] = (phi(z + ei) - phi(z - ei)) / (2 * h)
        hess[i, i] = (phi(z + ei) - 2 * phi(z) + phi(z - ei)) / h ** 2
        for j in range(i):
            ej = np.zeros(n)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                phi(z + ei + ej) - phi(z + ei - ej)
                - phi(z - ei + ej) + phi(z - ei - ej)) / (4 * h ** 2)
    a = z[:, None] * (np.eye(n) - z[None, :])
    b = -0.5 * (theta * z + alpha)
    return 0.5 * float(np.sum(a * hess)) + float(b @ grad)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_generator_action_matches_fd_assembly(m):
    params = GGParams.from_beta(2.0)
    z = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
    point = SimplexPoint(coords=tuple(z))
    s = 1.7
    closed = generator_action_power_sum(m, s, point, params)
    fd = _fd_generator_action(m, s, z, params)
    assert closed == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_generator_action_validation():
    params = GGParams.from_beta(1.0)
    point = SimplexPoint(coords=(0.6, 0.4))
    with pytest.raises(DomainError):
        generator_action_power_sum(1, 1.0, point, params)
    with pytest.raises(DomainError):
        generator_action_power_sum(2, 0.0, point, params)
    with pytest.raises(DomainError):
        generator_action_power_sum(
            2, 1.0, SimplexPoint(coords=(0.5, 0.3)),
            params)


def test_generator_action_triangular_fixed_point():
    # phi_2 at the stationary mean of the two-parameter family:
    # A1 phi_2 = 0 iff phi_2 = (1 - alpha) / (1 + theta)
    params = GGParams.from_beta(3.0)
    s = 3.0  # theta = beta/s = 1, so the target is 0.5/(1+1) = 1/4
    point = SimplexPoint(coords=(0.25,) * 4)
    assert generator_action_power_sum(2, s, point, params) == pytest.approx(
        0.0, abs=1e-12)

"""Predictive weights, partition probabilities and singleton-count law,
cross-checked between independent routes (the multiprecision exact route and
its direct alternating-sum reference, the Gauss-Legendre weight kernel,
the adaptive-quadrature oracle, enumeration, urn draws)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nigdiff import gibbs
from nigdiff.errors import DomainError, UnsupportedParameterError
from nigdiff.gibbs import (GGParams, PDParams, conditional_pair_probability,
                           conditional_phi2_mean, eppf, eppf_log,
                           integer_partitions, log_v, m1_factorial_moment,
                           m1_pmf, shape_count, weights_batch,
                           weights_gg_asymptotic, weights_gg_exact,
                           weights_gg_quadrature, weights_pd)
from nigdiff.specfun import pochhammer
from nigdiff.urn import sample_partition

from conftest import (adaptive_log_v, direct_exact_weights, numpy_g0_rows,
                      set_partitions)

BETAS = (0.5, 2.0, 10.0)


def gg(beta):
    return GGParams.from_beta(beta)


# ---------------------------------------------------------------------------
# Parameter types

def test_params_validation():
    with pytest.raises(DomainError):
        GGParams(a=-1.0)
    with pytest.raises(DomainError):
        GGParams(a=1.0, tau=0.0)
    with pytest.raises(DomainError):
        GGParams(a=1.0, alpha=1.0)
    with pytest.raises(DomainError):
        PDParams(theta=-0.5, alpha=0.25)
    p = GGParams.from_beta(3.0, tau=2.0)
    assert p.beta == pytest.approx(3.0, rel=1e-14)
    assert GGParams(a=1.0).is_nig


def test_weights_pd_constraint():
    p = PDParams(theta=1.7, alpha=0.3)
    for n in (1, 5, 40):
        for k in (1, max(1, n // 2), n):
            w = weights_pd(n, k, p)
            assert w.g0 + (n - p.alpha * k) * w.g1 == pytest.approx(
                1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Exact route vs quadrature route

@pytest.mark.parametrize("beta", BETAS)
def test_exact_vs_quadrature(beta):
    params = gg(beta)
    for n in range(1, 51):
        for k in range(1, n + 1):
            we = weights_gg_exact(n, k, params)
            wq = weights_gg_quadrature(n, k, params)
            assert we.g0 == pytest.approx(wq.g0, rel=1e-12)
            assert we.g1 == pytest.approx(wq.g1, rel=1e-12)


@pytest.mark.parametrize("beta", BETAS)
def test_exact_constraint_identity(beta):
    params = gg(beta)
    for n in range(1, 51):
        for k in range(1, n + 1):
            w = weights_gg_exact(n, k, params)
            assert abs(w.g0 + (n - 0.5 * k) * w.g1 - 1.0) < 1e-12


def test_exact_default_threshold_answers_ill_conditioned_pairs():
    # these pairs cancel 17 and 13 digits of the 50 carried, which
    # still keep 16 significant digits
    for n, k, beta in ((50, 1, 10.0), (50, 7, 2.0)):
        we = weights_gg_exact(n, k, gg(beta))
        wq = weights_gg_quadrature(n, k, gg(beta))
        assert we.condition_estimate > 12.0
        assert we.g0 == pytest.approx(wq.g0, rel=1e-10)
        assert we.g1 == pytest.approx(wq.g1, rel=1e-10)


def test_exact_route_contracts():
    with pytest.raises(UnsupportedParameterError):
        weights_gg_exact(5, 2, GGParams(a=1.0, alpha=0.3))
    with pytest.raises(DomainError):
        weights_gg_exact(5, 6, gg(1.0))


# states of criterion-01's exact grid: both parities of n and of k, k = n
EXACT_SAMPLE = [(n, k) for n in (1, 2, 3, 4, 9, 16, 25, 36, 49, 50)
                for k in sorted({1, 2, 3, n // 2, n - 1, n})
                if 1 <= k <= n]


def _exact_triple(n, k, params):
    w = weights_gg_exact(n, k, params)
    return w.g0, w.g1, w.condition_estimate


@pytest.mark.parametrize("beta", BETAS)
def test_exact_matches_direct_alternating_sum(beta, monkeypatch):
    # the positive recursion reproduces the direct sums bit for bit
    monkeypatch.setattr(gibbs, "_exact_tables", {})
    for n, k in EXACT_SAMPLE:
        want = direct_exact_weights(n, k, beta)
        assert _exact_triple(n, k, gg(beta)) == want


def test_exact_table_does_not_depend_on_its_growth(monkeypatch):
    # cold n = 3 first (a 64 table, then regrown to 128 by n = 100, which
    # 50 digits do not resolve), and cold n = 100 first (a 100 table, all
    # at 50 digits): the same bits either way
    params, runs = gg(2.0), []
    for order in ((3, 50, 100), (100, 50, 3)):
        monkeypatch.setattr(gibbs, "_exact_tables", {})
        runs.append({(n, k): _exact_triple(n, k, params) for n in order
                     for k in sorted({1, 2, n // 2 + 1, n})})
        assert len(gibbs._exact_tables[2.0]) == (128 if order[0] == 3
                                                  else 100)
    assert runs[0] == runs[1]
    for (n, k), got in runs[0].items():
        assert got == direct_exact_weights(n, k, 2.0)


@pytest.mark.parametrize("beta", (2.0, 10.0))
def test_exact_answers_where_fifty_digits_cancel(beta, monkeypatch):
    # every state with n <= 128, those from n = 105 on at beta = 2 and
    # from n = 79 on at beta = 10 included: there 50 digits keep fewer
    # than 16 significant digits, so the table is rebuilt at 100
    monkeypatch.setattr(gibbs, "_exact_tables", {})
    params, lost = gg(beta), 0.0
    for n in range(1, 129):
        for k in range(1, n + 1):
            we = weights_gg_exact(n, k, params)
            wq = weights_gg_quadrature(n, k, params)
            assert we.g0 == pytest.approx(wq.g0, rel=1e-12), (n, k)
            assert we.g1 == pytest.approx(wq.g1, rel=1e-12), (n, k)
            lost = max(lost, we.condition_estimate)
    assert 50.0 - 16.0 < lost < math.inf


@pytest.mark.parametrize("beta", (100.0, 300.0))
def test_exact_counts_the_error_growth_of_its_gamma_recursion(beta):
    # the downward recursion for Gamma(-m; beta) multiplies errors by
    # about beta^m / m!, 42 digits at beta = 100 and 129 at 300: 50
    # digits left g0(20, 3) at beta = 100 3e-6 off although its sums
    # cancel only 23, and turned some of beta = 300's sums negative
    params = gg(beta)
    for n, k in ((1, 1), (20, 3), (30, 30)):
        we = weights_gg_exact(n, k, params)
        wq = weights_gg_quadrature(n, k, params)
        assert we.g0 == pytest.approx(wq.g0, rel=1e-12), (n, k)
        assert we.g1 == pytest.approx(wq.g1, rel=1e-12), (n, k)


def test_stable_closed_form():
    params = GGParams(a=0.0)
    for n, k in ((1, 1), (7, 3), (40, 11)):
        for w in (weights_gg_exact(n, k, params),
                  weights_gg_quadrature(n, k, params)):
            assert w.g0 == pytest.approx(0.5 * k / n, rel=1e-14)
            assert w.g1 == pytest.approx(1.0 / n, rel=1e-14)
        assert log_v(n, k, params) == pytest.approx(
            (k - 1) * math.log(0.5) + math.lgamma(k) - math.lgamma(n),
            rel=1e-12)


# ---------------------------------------------------------------------------
# V: recursion and w-decomposition

@pytest.mark.parametrize("beta", BETAS)
def test_v_recursion(beta):
    # V(n, k) = (n - alpha k) V(n+1, k) + V(n+1, k+1)
    params = gg(beta)
    for n in range(1, 21):
        for k in range(1, n + 1):
            lv = log_v(n, k, params)
            rhs = ((n - 0.5 * k) * math.exp(log_v(n + 1, k, params) - lv)
                   + math.exp(log_v(n + 1, k + 1, params) - lv))
            assert rhs == pytest.approx(1.0, rel=1e-8)


def test_w_decomposition_consistency():
    # w(n, k) = n V(n+1, k) / V(n, k), the mean of x/(tau+x) under the
    # V(n, k) integrand
    params = gg(2.0)
    for n, k in ((2, 1), (10, 4), (60, 15), (200, 28)):
        w = n * math.exp(log_v(n + 1, k, params) - log_v(n, k, params))
        pair = weights_gg_quadrature(n, k, params)
        assert pair.g1 == pytest.approx(w / n, rel=1e-9)
        assert pair.g0 == pytest.approx(1.0 - (1.0 - 0.5 * k / n) * w,
                                        rel=1e-8)


@pytest.mark.parametrize("beta", BETAS)
def test_log_v_matches_adaptive_oracle(beta):
    params = gg(beta)
    states = [(n, k) for n in range(1, 61) for k in range(1, n + 1)]
    states += [(n, k) for n in (200, 1000, 10_000)
               for k in sorted({1, 2, 7, math.isqrt(n), 3 * math.isqrt(n),
                                n // 2, n - 1, n})]
    for n, k in states:
        assert math.exp(log_v(n, k, params) - adaptive_log_v(n, k, params)) \
            == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("beta", BETAS)
def test_log_v_lgamma_matches_scipy_gammaln(beta):
    # the kernel takes log Gamma(n) from math.lgamma, per element; with
    # scipy's gammaln in its place log V moves by an ulp or two at most
    from scipy.special import gammaln
    params = gg(beta)
    for n in (1, 2, 50, 200, 5000):
        for k in range(1, n + 1):
            lv = log_v(n, k, params)
            ref = lv + math.lgamma(n) - float(gammaln(n))
            assert abs(lv - ref) <= 4e-15 * abs(ref), (n, k)


@pytest.mark.parametrize("beta", BETAS)
def test_batch_weights_read_only_w(beta):
    # g0 and g1 come from w alone, so the log Gamma(n) term of log V
    # cannot move them
    params = gg(beta)
    n = np.array([1.0, 2.0, 50.0, 50.0, 200.0, 5000.0])
    k = np.array([1.0, 1.0, 7.0, 50.0, 14.0, 141.0])
    w = gibbs._log_v_w(n, k, params)[1]
    g0, g1 = weights_batch(n, k, params)
    assert np.array_equal(g0, 1.0 - (1.0 - params.alpha * k / n) * w)
    assert np.array_equal(g1, w / n)


def test_weights_batch_dispatch():
    # the Poisson-Dirichlet closed form to the bit, the kernel against
    # the exact route, and a refusal of anything else
    pd = PDParams(theta=1.0, alpha=0.5)
    n = np.array([1.0, 8.0, 8.0, 300.0])
    k = np.array([1.0, 3.0, 8.0, 17.0])
    g0, g1 = weights_batch(n, k, pd)
    for i in range(n.size):
        scalar = weights_pd(int(n[i]), int(k[i]), pd)
        assert (g0[i], g1[i]) == (scalar.g0, scalar.g1)
    params = gg(2.0)
    g0, g1 = weights_batch(np.array([20.0]), np.array([7.0]), params)
    exact = weights_gg_exact(20, 7, params)
    assert g0[0] == pytest.approx(exact.g0, rel=1e-12)
    assert g1[0] == pytest.approx(exact.g1, rel=1e-12)
    with pytest.raises(DomainError):
        weights_batch(np.array([5.0]), np.array([2.0]), "not params")


@pytest.mark.parametrize("params, route", [
    (PDParams(theta=-0.2, alpha=0.5), weights_pd),
    (PDParams(theta=1.5, alpha=0.3), weights_pd),
    (GGParams(a=0.0), weights_gg_exact),
    (GGParams(a=0.0), weights_gg_quadrature),
], ids=["pd-0.2", "pd1.5", "a0-exact", "a0-quadrature"])
def test_scalar_closed_forms_equal_weights_batch(params, route):
    # the scalar routes read their closed forms from weights_batch, so
    # they agree to the bit over 1 <= k <= n <= 50
    n, k = np.tril_indices(50)
    n, k = n + 1.0, k + 1.0
    g0, g1 = weights_batch(n, k, params)
    for i in range(n.size):
        scalar = route(int(n[i]), int(k[i]), params)
        assert (scalar.g0, scalar.g1) == (g0[i], g1[i]), (n[i], k[i])


def test_batch_matches_scalar_rows():
    # one batch call over mixed n gives what the scalar readers take from
    # their per-n rows
    params = gg(2.0)
    states = [(1, 1), (2, 1), (5, 5), (17, 3), (120, 60), (1000, 64),
              (5000, 141)]
    n = np.array([s[0] for s in states], dtype=float)
    k = np.array([s[1] for s in states], dtype=float)
    g0, g1 = weights_batch(n, k, params)
    for i, (nn, kk) in enumerate(states):
        scalar = weights_gg_quadrature(nn, kk, params)
        assert g0[i] == pytest.approx(scalar.g0, rel=1e-12)
        assert g1[i] == pytest.approx(scalar.g1, rel=1e-12)
    with pytest.raises(DomainError):
        weights_batch(np.array([3.0]), np.array([4.0]), params)


@pytest.mark.parametrize("params", [PDParams(theta=1.0, alpha=0.5),
                                    GGParams(a=0.0), gg(2.0),
                                    GGParams.from_beta(2.0, alpha=0.3)])
def test_weights_batch_broadcasts_scalar_and_2d_states(params):
    # scalar, 1-d and (2, 2) states come back in the broadcast shape,
    # each equal to its state evaluated alone
    cases = [(10, 3), (np.array([10, 40, 40]), np.array([3, 1, 40])),
             (np.array([[10, 10], [40, 40]]), np.array([[3, 7], [1, 40]])),
             (40, np.array([[1, 5], [20, 40]]))]
    for n, k in cases:
        g0, g1 = weights_batch(n, k, params)
        shape = np.broadcast_shapes(np.shape(n), np.shape(k))
        assert g0.shape == g1.shape == shape
        nb, kb = np.broadcast_arrays(n, k)
        for idx in np.ndindex(shape):
            alone = weights_batch([nb[idx]], [kb[idx]], params)
            assert (g0[idx], g1[idx]) == (alone[0][0], alone[1][0]), idx


def test_g0_batch_matches_quadrature():
    # g0(n, k) = V(n+1, k+1) / V(n, k) from the adaptive-quadrature oracle
    states = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1),
              (4, 2), (50, 14), (400, 40), (5000, 1), (5000, 141),
              (5000, 2500)]
    n = np.array([s[0] for s in states], dtype=float)
    k = np.array([s[1] for s in states], dtype=float)
    for beta in BETAS:
        params = gg(beta)
        batch = weights_batch(n, k, params)[0]
        for i, (nn, kk) in enumerate(states):
            oracle = math.exp(adaptive_log_v(nn + 1, kk + 1, params)
                              - adaptive_log_v(nn, kk, params))
            assert batch[i] == pytest.approx(oracle, rel=1e-10)


def _assert_rows_match_kernel(m0, m1, lo, hi, params):
    rows = gibbs._g0_rows(m0, m1, lo, hi, params)
    m = np.arange(m0, m1 + 1)[:, None]
    k = np.arange(lo, min(m1, hi + m1 - m0) + 1)[None, :]
    assert rows.shape == (m.size, k.size)
    # the states an urn with counts in [lo, hi] at m0 can reach
    reach = k <= np.minimum(m, hi + m - m0)
    assert np.array_equal(~np.isnan(rows), reach)
    m, k = np.broadcast_arrays(m, k)
    g0 = weights_batch(m[reach].astype(float), k[reach].astype(float),
                       params)[0]
    assert np.max(np.abs(rows[reach] / g0 - 1.0)) <= 1e-12


@pytest.mark.parametrize("params", [gg(0.5), gg(2.0), gg(10.0),
                                    GGParams(a=0.0),
                                    GGParams.from_beta(2.0, alpha=0.3),
                                    PDParams(theta=1.5, alpha=0.3)],
                         ids=["beta0.5", "beta2", "beta10", "a0", "alpha0.3",
                              "pd"])
def test_g0_rows_recursion_matches_kernel_triangle(params):
    # 399 rows down from one kernel row at m = 400 cover the whole
    # triangle 1 <= k <= m <= 400
    _assert_rows_match_kernel(1, 400, 1, 1, params)


def test_g0_rows_recursion_matches_kernel_far_out():
    _assert_rows_match_kernel(4993, 5056, 120, 190, gg(2.0))


@pytest.mark.parametrize("params", [gg(0.5), gg(2.0), gg(10.0),
                                    GGParams(a=0.0),
                                    GGParams.from_beta(2.0, alpha=0.3),
                                    GGParams.from_beta(2.0, alpha=0.8),
                                    PDParams(theta=1.5, alpha=0.3)],
                         ids=["beta0.5", "beta2", "beta10", "a0", "alpha0.3",
                              "alpha0.8", "pd"])
def test_g0_rows_descent_equals_numpy_loop(params):
    # the compiled descent takes the numpy loop's operations in its order,
    # so the rows agree bit for bit, nan where no urn can reach; bands
    # with no descent (m0 = m1), one entry wide (rows below it empty), the
    # whole triangle to m = 400, and far out
    for band in ((50, 50, 3, 20), (20, 20, 7, 7), (6, 9, 9, 9),
                 (1, 400, 1, 1), (4993, 5056, 120, 190)):
        got = gibbs._g0_rows(*band, params)
        want = numpy_g0_rows(*band, params)
        assert got.shape == want.shape, band
        assert np.array_equal(got, want, equal_nan=True), band


@pytest.mark.parametrize("params", [gg(2.0), gg(10.0),
                                    GGParams.from_beta(2.0, alpha=0.3),
                                    PDParams(theta=1.5, alpha=0.3)],
                         ids=["beta2", "beta10", "alpha0.3", "pd"])
def test_g0_rows_do_not_depend_on_the_band(params):
    # g0(m, k) depends on (m, k, params) alone, so the scalar urn's
    # aligned bands and the batch urn's run-sized bands, anchored on the
    # same evaluator row, agree bit for bit wherever both reach
    for m0, m1, bands in ((257, 512, ((1, 256), (3, 40), (17, 17))),
                          (769, 999, ((1, 256), (100, 400), (257, 512)))):
        rows = [gibbs._g0_rows(m0, m1, lo, hi, params) for lo, hi in bands]
        for (lo, hi), got in zip(bands[1:], rows[1:]):
            for i, m in enumerate(range(m0, m1 + 1)):
                top = min(m, hi + m - m0, bands[0][1] + m - m0)
                want = rows[0][i, lo - bands[0][0]:top - bands[0][0] + 1]
                assert np.array_equal(got[i, :top - lo + 1], want), (m, lo)


# ---------------------------------------------------------------------------
# Asymptotic weights

def test_asymptotic_weights_converge():
    params = gg(2.0)
    rel_errors = []
    for n in (100, 1000, 10000):
        k = math.ceil(2.0 * math.sqrt(n))
        exact = weights_gg_quadrature(n, k, params)
        approx = weights_gg_asymptotic(n, k, params)
        rel_errors.append(abs(approx.g0 / exact.g0 - 1.0))
    assert rel_errors[0] > rel_errors[1] > rel_errors[2]
    assert rel_errors[-1] < 1e-3
    with pytest.raises(UnsupportedParameterError):
        weights_gg_asymptotic(10, 3, GGParams(a=1.0, alpha=0.3))


# ---------------------------------------------------------------------------
# EPPF

def test_eppf_exchangeable():
    params = gg(2.0)
    assert eppf([3, 1, 2], params) == pytest.approx(
        eppf([1, 2, 3], params), rel=1e-14)


def test_shapes_and_counts_match_set_partitions():
    for n in range(1, 8):
        counted = {}
        for p in set_partitions(list(range(n))):
            shape = tuple(sorted((len(b) for b in p), reverse=True))
            counted[shape] = counted.get(shape, 0) + 1
        shapes = [tuple(s) for s in integer_partitions(n)]
        assert shapes == sorted(counted, reverse=True)
        assert all(shape_count(s) == counted[s] for s in shapes)


@pytest.mark.parametrize("beta", BETAS)
def test_eppf_normalizes_by_enumeration(beta):
    params = gg(beta)
    for n in (3, 5, 7):
        total = sum(shape_count(shape) * eppf(list(shape), params)
                    for shape in integer_partitions(n))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_eppf_addition_rule():
    # p(n_1..n_k) = sum_j p(.., n_j + 1, ..) + p(n_1..n_k, 1)
    params = gg(2.0)
    for n in (2, 4, 6):
        for shape in integer_partitions(n):
            sizes = list(shape)
            rhs = eppf(sizes + [1], params)
            for j in range(len(sizes)):
                grown = list(sizes)
                grown[j] += 1
                rhs += eppf(grown, params)
            assert rhs == pytest.approx(eppf(sizes, params), rel=1e-10)


def test_eppf_matches_v_and_pochhammer():
    params = gg(0.5)
    sizes = [4, 2, 2, 1]
    n, k = sum(sizes), len(sizes)
    expected = log_v(n, k, params) + sum(
        math.log(pochhammer(0.5, s - 1)) for s in sizes)
    assert eppf_log(sizes, params) == pytest.approx(expected, rel=1e-8)


def test_eppf_validation():
    with pytest.raises(DomainError):
        eppf([], gg(1.0))
    with pytest.raises(DomainError):
        eppf([2, 0], gg(1.0))


# ---------------------------------------------------------------------------
# Singleton-count law

@pytest.mark.parametrize("beta", BETAS)
def test_m1_pmf_normalizes(beta):
    params = gg(beta)
    for n in (2, 5, 9, 12, 40, 100):
        law = [m1_pmf(n, m, params) for m in range(0, n + 1)]
        assert all(0.0 <= p <= 1.0 for p in law)
        assert sum(law) == pytest.approx(1.0, abs=1e-10)


def test_m1_pmf_matches_enumeration():
    params = gg(2.0)
    for n in (4, 6, 8):
        law = {}
        for shape in integer_partitions(n):
            m1 = sum(1 for s in shape if s == 1)
            law[m1] = law.get(m1, 0.0) + shape_count(shape) * eppf(
                list(shape), params)
        for m, prob in law.items():
            assert m1_pmf(n, m, params) == pytest.approx(prob, rel=1e-7)
        # structurally impossible count: exactly n - 1 singletons
        assert m1_pmf(n, n - 1, params) == 0.0


def test_m1_factorial_moment_matches_pmf():
    params = gg(0.5)
    n = 9
    pmf = [m1_pmf(n, m, params) for m in range(n + 1)]
    mean = sum(m * p for m, p in enumerate(pmf))
    second = sum(m * (m - 1) * p for m, p in enumerate(pmf))
    assert m1_factorial_moment(n, 1, params) == pytest.approx(mean, rel=1e-7)
    assert m1_factorial_moment(n, 2, params) == pytest.approx(second,
                                                              rel=1e-6)


def test_m1_pmf_matches_urn_at_large_n(rng):
    # n = 60 is far beyond what the enumeration test can reach
    params = gg(2.0)
    n, reps = 60, 6_000
    counts = np.zeros(n + 1)
    for _ in range(reps):
        state = sample_partition(n, params, rng)
        counts[sum(1 for s in state.block_sizes if s == 1)] += 1
    pmf = np.array([m1_pmf(n, m, params) for m in range(n + 1)])
    m = np.arange(n + 1)
    mean = float(m @ pmf)
    se = math.sqrt(float((m - mean) ** 2 @ pmf) / reps)
    # the sampling TV at this size is about 0.02
    assert 0.5 * np.abs(pmf - counts / reps).sum() < 0.05
    assert abs(m @ counts / reps - mean) < 5.0 * se


# ---------------------------------------------------------------------------
# Conditional (fixed-K) moments

def test_conditional_pair_probability_enumeration():
    for alpha in (0.3, 0.5, 0.7):
        for n in (4, 6, 8):
            for k in range(1, n + 1):
                num = 0.0
                den = 0.0
                for p in set_partitions(list(range(n))):
                    if len(p) != k:
                        continue
                    w = 1.0
                    for b in p:
                        w *= pochhammer(1.0 - alpha, len(b) - 1)
                    den += w
                    if any(0 in b and 1 in b for b in p):
                        num += w
                assert conditional_pair_probability(
                    n, k, alpha) == pytest.approx(num / den, abs=1e-12)


def test_conditional_phi2_mean_edges():
    assert conditional_phi2_mean(2, 1) == pytest.approx(1.0)
    assert conditional_phi2_mean(5, 5) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        conditional_pair_probability(1, 1)
    with pytest.raises(DomainError):
        conditional_pair_probability(5, 6)


def test_conditional_moments_of_a_sequence_of_k_equal_the_scalar_calls():
    # one table of the largest k < n serves every k, to the bit
    for n, alpha in ((2, 0.5), (9, 0.3), (60, 0.5), (500, 0.77)):
        ks = [n, 1, n // 2, n - 1, max(1, n // 7), 1]
        pairs = conditional_pair_probability(n, ks, alpha)
        means = conditional_phi2_mean(n, tuple(ks), alpha)
        assert pairs == [conditional_pair_probability(n, k, alpha)
                         for k in ks]
        assert means == [conditional_phi2_mean(n, k, alpha) for k in ks]
    assert conditional_phi2_mean(10, []) == []
    assert conditional_pair_probability(10, [10, 10]) == [0.0, 0.0]
    for ks in ([3, 0], [11, 3]):
        with pytest.raises(DomainError):
            conditional_phi2_mean(10, ks)


# ---------------------------------------------------------------------------
# Property tests

@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60),
       st.sampled_from(BETAS))
@settings(max_examples=60, deadline=None)
def test_quadrature_weights_are_probabilities(n, k, beta):
    if k > n:
        k = n
    w = weights_gg_quadrature(n, k, gg(beta))
    assert 0.0 < w.g0 < 1.0 or (n == k and w.g0 <= 1.0)
    assert 0.0 < w.g1 < 1.0
    assert w.g0 + (n - 0.5 * k) * w.g1 == pytest.approx(1.0, abs=1e-7)

"""End-to-end acceptance gate.

Each test checks one headline numerical claim at its stated tolerance
and prints a single PASS/FAIL line (past pytest's capture, so the
summary is visible under any capture mode).
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy import integrate, stats

from nigdiff.diffusion import (ChainState, SimplexPoint,
                               chain_increment_moments,
                               generator_action_power_sum, scale_function,
                               simulate_chain_ensemble, speed_measure,
                               stationary_tail_partial_integral)
from nigdiff.gibbs import (GGParams, conditional_phi2_mean, eppf,
                           integer_partitions, log_v, m1_pmf, shape_count,
                           weights_gg_exact, weights_gg_quadrature)
from nigdiff.particle import (ParticleSystem, balanced_sizes,
                              conditioned_phi2_average, moran_ensemble)
from nigdiff.specfun import alpha_diversity_density
from nigdiff.urn import sample_k_batch, sample_partition

BETAS = (0.5, 2.0, 10.0)
NIG = GGParams(a=1.0, tau=1.0)  # beta = 2


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    def _line(num, name, ok, detail, started):
        elapsed = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"criterion-{num:02d} {name}: {status} "
                  f"({detail}; {elapsed:.1f}s)", file=sys.stderr, flush=True)
    return _line


def test_criterion_01_predictive_constraint(report):
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_quad = 0.0
    for beta in BETAS:
        params = GGParams.from_beta(beta)
        for n in range(1, 51):
            for k in range(1, n + 1):
                w = weights_gg_exact(n, k, params)
                worst_exact = max(worst_exact, abs(
                    w.g0 + (n - 0.5 * k) * w.g1 - 1.0))
        for n in range(2, 201):
            ks = sorted({1, math.isqrt(n), 2 * math.isqrt(n),
                         n // 2, n - 1, n} & set(range(1, n + 1)))
            for k in ks:
                w = weights_gg_quadrature(n, k, params)
                worst_quad = max(worst_quad, abs(
                    w.g0 + (n - 0.5 * k) * w.g1 - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_exact < 1e-9 and worst_quad < 1e-7 and elapsed < 10.0
    report(1, "predictive-weight constraint", ok,
            f"exact residual {worst_exact:.2e}, "
            f"quadrature residual {worst_quad:.2e}", t0)
    assert worst_exact < 1e-9
    assert worst_quad < 1e-7
    assert elapsed < 10.0


def test_criterion_02_eppf_normalization_and_addition(report):
    t0 = time.perf_counter()
    worst_norm = 0.0
    for beta in BETAS:
        params = GGParams.from_beta(beta)
        for n in range(1, 9):
            total = sum(shape_count(shape) * eppf(list(shape), params)
                        for shape in integer_partitions(n))
            worst_norm = max(worst_norm, abs(total - 1.0))
    params = GGParams.from_beta(2.0)
    worst_add = 0.0
    for n in range(1, 7):
        for shape in integer_partitions(n):
            sizes = list(shape)
            rhs = eppf(sizes + [1], params)
            for j in range(len(sizes)):
                grown = list(sizes)
                grown[j] += 1
                rhs += eppf(grown, params)
            worst_add = max(worst_add,
                            abs(rhs / eppf(sizes, params) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_norm < 1e-7 and worst_add < 1e-8 and elapsed < 30.0
    report(2, "partition-probability normalization", ok,
            f"normalization {worst_norm:.2e}, addition rule {worst_add:.2e}",
            t0)
    assert worst_norm < 1e-7
    assert worst_add < 1e-8
    assert elapsed < 30.0


def test_criterion_03_normalizer_recursion(report):
    t0 = time.perf_counter()
    worst = 0.0
    for beta in BETAS:
        params = GGParams.from_beta(beta)
        for n in range(1, 31):
            for k in range(1, n + 1):
                lv = log_v(n, k, params)
                rhs = ((n - 0.5 * k)
                       * math.exp(log_v(n + 1, k, params) - lv)
                       + math.exp(log_v(n + 1, k + 1, params) - lv))
                worst = max(worst, abs(rhs - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report(3, "normalizer backward recursion", ok,
            f"max relative residual {worst:.2e}", t0)
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_04_second_order_weight_expansion(report):
    t0 = time.perf_counter()
    beta = 2.0
    params = GGParams.from_beta(beta)
    devs = []
    final_scale = None
    for n in (100, 1_000, 10_000):
        k = math.ceil(2.0 * math.sqrt(n))
        s = k / math.sqrt(n)
        g0 = weights_gg_quadrature(n, k, params).g0
        devs.append(abs(n * (g0 - 0.5 * k / n) - beta / s))
        final_scale = 0.1 * beta / s
    elapsed = time.perf_counter() - t0
    ok = (devs[0] > devs[1] > devs[2] and devs[2] <= final_scale
          and elapsed < 60.0)
    report(4, "second-order weight expansion", ok,
            "deviations " + ", ".join(f"{d:.4f}" for d in devs), t0)
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= final_scale
    assert elapsed < 60.0


def test_criterion_05_singleton_count_law(report):
    t0 = time.perf_counter()
    params = NIG
    worst_norm = 0.0
    for n in range(1, 13):
        total = sum(m1_pmf(n, m, params) for m in range(n + 1))
        worst_norm = max(worst_norm, abs(total - 1.0))
    n, reps = 10, 100_000
    rng = np.random.default_rng(20240824)
    counts = np.zeros(n + 1)
    for _ in range(reps):
        state = sample_partition(n, params, rng)
        counts[sum(1 for s in state.block_sizes if s == 1)] += 1
    pmf = np.array([m1_pmf(n, m, params) for m in range(n + 1)])
    tv = 0.5 * float(np.abs(pmf - counts / reps).sum())
    elapsed = time.perf_counter() - t0
    ok = worst_norm < 1e-6 and tv <= 0.01 and elapsed < 120.0
    report(5, "singleton-count law", ok,
            f"normalization {worst_norm:.2e}, TV vs urn {tv:.4f}", t0)
    assert worst_norm < 1e-6
    assert tv <= 0.01
    assert elapsed < 120.0


def test_criterion_06_diversity_limit_moments(report):
    t0 = time.perf_counter()
    params = NIG
    mean_q, _ = integrate.quad(
        lambda s: s * alpha_diversity_density(s, params), 0.0, 60.0,
        limit=300)
    second_q, _ = integrate.quad(
        lambda s: s * s * alpha_diversity_density(s, params), 0.0, 60.0,
        limit=300)
    var_q = second_q - mean_q ** 2
    n, reps = 10_000, 2_000
    rng = np.random.default_rng(42)
    ks = sample_k_batch(n, params, reps, rng) / math.sqrt(n)
    mean_mc = float(ks.mean())
    var_mc = float(ks.var(ddof=1))
    rel_mean = abs(mean_mc / mean_q - 1.0)
    rel_var = abs(var_mc / var_q - 1.0)
    elapsed = time.perf_counter() - t0
    ok = rel_mean < 0.05 and rel_var < 0.05 and elapsed < 300.0
    report(6, "rescaled block-count moments", ok,
            f"mean {mean_mc:.4f} vs {mean_q:.4f}, "
            f"var {var_mc:.4f} vs {var_q:.4f}", t0)
    assert rel_mean < 0.05
    assert rel_var < 0.05
    assert elapsed < 300.0


def test_criterion_07_chain_increment_scaling(report):
    t0 = time.perf_counter()
    params = GGParams.from_beta(2.0)
    n, k = 10_000, 200
    s = k / math.sqrt(n)
    m = chain_increment_moments(ChainState(k=k, n=n), params)
    scaled_mean = n ** 1.5 * m.mean
    scaled_second = n ** 1.5 * m.second_moment
    rel_mean = abs(scaled_mean / (params.beta / s) - 1.0)
    rel_second = abs(scaled_second / s - 1.0)
    elapsed = time.perf_counter() - t0
    ok = rel_mean < 0.05 and rel_second < 0.05 and elapsed < 10.0
    report(7, "chain increment scaling", ok,
            f"scaled mean {scaled_mean:.4f} vs {params.beta / s:.1f}, "
            f"scaled second moment {scaled_second:.4f} vs {s:.1f}", t0)
    assert rel_mean < 0.05
    assert rel_second < 0.05
    assert elapsed < 10.0


def test_criterion_08_long_run_level_ordering(report):
    t0 = time.perf_counter()
    n, steps, reps = 200, 300_000, 20
    tail = 100_000
    averages = []
    for idx, beta in enumerate((0.0, 100.0, 1000.0)):
        params = GGParams.from_beta(beta)
        rng = np.random.default_rng(np.random.SeedSequence([77, idx]))
        out = simulate_chain_ensemble(n, steps, 1, params, reps, rng)
        averages.append(out[-tail:].mean(axis=0) / math.sqrt(n))
    a0, a1, a2 = averages
    ordered = int(np.sum((a0 < a1) & (a1 < a2)))
    elapsed = time.perf_counter() - t0
    ok = ordered >= 18 and elapsed < 120.0
    report(8, "long-run level ordering in the driving intensity", ok,
            f"{ordered}/20 replicates ordered; "
            f"means {a0.mean():.3f} < {a1.mean():.3f} < {a2.mean():.3f}", t0)
    assert ordered >= 18
    assert elapsed < 120.0


def test_criterion_09_scale_and_speed_analytics(report):
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 2.0):
        for x in (0.3, 0.8, 2.0, 10.0):
            oracle, _ = integrate.quad(
                lambda y: math.exp(-2 * beta + 2 * beta / y), 1.0, x,
                epsabs=1e-14, epsrel=1e-12, limit=200)
            got = scale_function(x, beta)
            worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-300))
        for c, d in ((0.2, 1.0), (1.0, 5.0), (2.0, 50.0)):
            oracle, _ = integrate.quad(
                lambda t: math.exp(2 * beta - 2 * beta / t) / t, c, d,
                epsabs=1e-14, epsrel=1e-12, limit=200)
            got = speed_measure(c, d, beta)
            worst = max(worst, abs(got / oracle - 1.0))
    beta = 2.0
    # speed measure near 0 is Cauchy in c
    tails = [speed_measure(c, 1.0, beta)
             for c in (0.6, 0.4, 0.25, 0.15, 1e-2)]
    gaps = np.abs(np.diff(tails))
    cauchy = bool(np.all(gaps[1:] <= gaps[:-1]) and gaps[-1] < 1e-10)
    # the scale diverges at 0; the speed measure diverges at infinity
    s_vals = [-scale_function(x, beta) for x in (0.2, 0.1, 0.05, 0.02)]
    s_diverges = all(a < b for a, b in zip(s_vals, s_vals[1:])) \
        and s_vals[-1] > 1e80
    m_vals = [speed_measure(1.0, d, beta) for d in (1e2, 1e4, 1e6)]
    m_diverges = m_vals[0] < m_vals[1] < m_vals[2] and m_vals[2] > 10.0
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and cauchy and s_diverges and m_diverges \
        and elapsed < 30.0
    report(9, "scale and speed analytics", ok,
            f"quadrature mismatch {worst:.2e}, boundary classification "
            f"{'confirmed' if cauchy and s_diverges and m_diverges else 'broken'}",
            t0)
    assert worst < 1e-7
    assert cauchy and s_diverges and m_diverges
    assert elapsed < 30.0


def test_criterion_10_no_stationary_density(report):
    t0 = time.perf_counter()
    beta = 2.0
    vals = [stationary_tail_partial_integral(t, beta)
            for t in (1e2, 1e4, 1e6)]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    rel = max(abs(d1 / math.log(100.0) - 1.0),
              abs(d2 / math.log(100.0) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = rel < 0.10 and elapsed < 10.0
    report(10, "non-integrable stationary candidate", ok,
            f"decade increments {d1:.3f}, {d2:.3f} vs ln(100) = "
            f"{math.log(100.0):.3f}", t0)
    assert rel < 0.10
    assert elapsed < 10.0


def test_criterion_11_moran_preserves_partition_law(report):
    t0 = time.perf_counter()
    params = NIG
    n, steps, reps = 50, 10_000, 1_000
    rng = np.random.default_rng(np.random.SeedSequence([2024, 11]))
    starts = [sample_partition(n, params, rng) for _ in range(reps)]
    before = np.array([state.K for state in starts])
    slots = np.array([np.repeat(np.arange(state.K), state.block_sizes)
                      for state in starts])
    _, counts = moran_ensemble(slots, steps, params, rng)
    after = np.count_nonzero(counts, axis=1)
    cb = np.bincount(before, minlength=n + 1).astype(float)
    ca = np.bincount(after, minlength=n + 1).astype(float)
    # merge sparse bins so every cell of the contingency table is >= 5
    keep = (cb + ca) / 2.0 >= 10.0
    table = np.array([np.append(cb[keep], cb[~keep].sum()),
                      np.append(ca[keep], ca[~keep].sum())])
    table = table[:, table.sum(axis=0) > 0]
    _, p_value, _, _ = stats.chi2_contingency(table)
    elapsed = time.perf_counter() - t0
    ok = p_value > 0.01 and elapsed < 300.0
    report(11, "event dynamics preserve the partition law", ok,
            f"chi-square p = {p_value:.3f} over {table.shape[1]} bins", t0)
    assert p_value > 0.01
    assert elapsed < 300.0


def test_criterion_12_generator_matches_semigroup_derivative(report):
    t0 = time.perf_counter()
    params = NIG
    n = 300
    k = math.ceil(2.0 * math.sqrt(n))
    sizes = balanced_sizes(n, k)
    base = []
    for b, size in enumerate(sizes):
        base.extend([b] * size)
    start = ParticleSystem(base)
    phi0 = start.phi(2)
    s = k / math.sqrt(n)
    point = SimplexPoint(coords=start.ordered_frequencies())
    predicted = generator_action_power_sum(2, s, point, params)

    paths = 10_000
    h = 0.004

    def fd_estimate(step_h, seed_base):
        events = int(round(n * n * step_h / 2.0))
        rng = np.random.default_rng(np.random.SeedSequence([seed_base]))
        _, counts = moran_ensemble(np.broadcast_to(base, (paths, n)),
                                   events, params, rng)
        samples = np.einsum("ij,ij->i", counts, counts) / (n * n)
        fd = (samples.mean() - phi0) / step_h
        se = samples.std(ddof=1) / math.sqrt(paths) / step_h
        return fd, se

    fd1, se1 = fd_estimate(h, 121)
    fd2, se2 = fd_estimate(2.0 * h, 122)
    # Richardson extrapolation in h removes the leading finite-step bias
    fd_r = 2.0 * fd1 - fd2
    se_r = math.sqrt(4.0 * se1 ** 2 + se2 ** 2)
    z = (fd_r - predicted) / se_r
    elapsed = time.perf_counter() - t0
    ok = abs(z) < 3.0 and elapsed < 600.0
    report(12, "generator matches semigroup derivative", ok,
            f"extrapolated derivative {fd_r:.4f} +- {se_r:.4f}, "
            f"prediction {predicted:.4f}, z = {z:.2f}", t0)
    assert abs(z) < 3.0
    assert elapsed < 600.0


def test_criterion_13_conditioned_moment_vs_two_parameter_oracle(report):
    t0 = time.perf_counter()
    alpha = 0.5
    n = 500
    rows = []
    worst = 0.0
    for idx, s in enumerate((1.0, 2.0, 3.0)):
        k = int(round(s * math.sqrt(n)))
        rng = np.random.default_rng(np.random.SeedSequence([13, idx]))
        avg = conditioned_phi2_average(balanced_sizes(n, k), 30_000_000, alpha,
                                       rng, burn_in=2_000_000)
        theta = s * s / 4.0
        # stick-breaking oracle for the two-parameter family (theta, 1/2)
        reps, cols = 200_000, 400
        orng = np.random.default_rng(np.random.SeedSequence([913, idx]))
        w = orng.beta(1.0 - alpha,
                      theta + alpha * np.arange(1, cols + 1)[None, :],
                      size=(reps, cols))
        sticks = np.cumprod(1.0 - w, axis=1)
        v = w.copy()
        v[:, 1:] *= sticks[:, :-1]
        oracle = float((v ** 2).sum(axis=1).mean())
        exact = conditional_phi2_mean(n, k, alpha)
        rel = abs(avg / oracle - 1.0)
        worst = max(worst, rel)
        rows.append(f"s={s:g}: avg {avg:.4f}, oracle {oracle:.4f}, "
                    f"fixed-count stationary mean {exact:.4f}, "
                    f"rel {rel:.3f}")
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 600.0
    report(13, "conditioned pair probability vs two-parameter oracle", ok,
            "; ".join(rows), t0)
    # The time average reproduces the exact stationary mean of the
    # fixed-count chain (third number in each row) to MC accuracy, but
    # that stationary law is not the two-parameter stick-breaking law at
    # any finite n, nor in the n -> infinity limit along k = s sqrt(n);
    # the ~8-16% gaps below are structural, not statistical.
    assert worst < 0.05, (
        "conditioned time averages deviate from the two-parameter "
        "stick-breaking oracle by up to "
        f"{worst:.1%}: " + "; ".join(rows))
    assert elapsed < 600.0

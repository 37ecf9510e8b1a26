"""Sequential urn sampling against the exact partition law, the exact
block-count law, and stick-breaking moment identities."""

import math

import numpy as np
import pytest
from scipy import stats

from nigdiff import gibbs, particle
from nigdiff.errors import (DomainError, InternalConsistencyError)
from nigdiff.gibbs import (GGParams, PDParams, eppf, integer_partitions,
                           log_v, shape_count, weights_batch)
from nigdiff.particle import ParticleSystem, moran_ensemble, simulate_rescaled
from nigdiff.specfun import gen_factorial_coeff, gen_factorial_coeff_log_table
from nigdiff.urn import (GemWeights, PartitionState, ordered_frequencies,
                         sample_gem, sample_k_batch, sample_partition)

from conftest import g0_above_one, stepwise_k_batch


# ---------------------------------------------------------------------------
# Partition state

def test_partition_state_defaults_and_ids():
    s = PartitionState(block_sizes=[3, 1, 2])
    assert s.n == 6
    assert s.K == 3
    assert s.shape() == (3, 2, 1)
    assert s.multiplicity_profile == {3: 1, 1: 1, 2: 1}
    s.validate()


def test_partition_state_rejects_bad_sizes():
    with pytest.raises(DomainError):
        PartitionState(block_sizes=[])
    with pytest.raises(DomainError):
        PartitionState(block_sizes=[2, 0])


def test_partition_state_validate_catches_corruption():
    s = PartitionState(block_sizes=[2, 2])
    s.block_sizes[0] = -1
    with pytest.raises(InternalConsistencyError):
        s.validate()


# ---------------------------------------------------------------------------
# Urn runs reproduce the partition law

def test_urn_shape_distribution_matches_eppf(rng):
    params = GGParams.from_beta(2.0)
    n, reps = 6, 30_000
    counts = {}
    for _ in range(reps):
        shape = sample_partition(n, params, rng).shape()
        counts[shape] = counts.get(shape, 0) + 1
    exact = {tuple(shape): shape_count(shape) * eppf(shape, params)
             for shape in integer_partitions(n)}
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
    tv = 0.5 * sum(abs(counts.get(shape, 0) / reps - p)
                   for shape, p in exact.items())
    # expected TV for 11 shapes at 30k samples is ~0.005
    assert tv < 0.02


def _chi2_p(ks, pmf):
    """Chi-square p-value of block counts against P(K_n = k), k = 1..n,
    with the bins of expectation below 5 merged into one."""
    observed = np.bincount(ks, minlength=pmf.size + 1)[1:].astype(float)
    expected = pmf * ks.size
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    chi2 = ((obs - exp) ** 2 / exp).sum()
    return stats.chi2.sf(chi2, df=len(obs) - 1)


def test_sample_k_batch_matches_exact_block_count_law(rng):
    params = GGParams.from_beta(0.5)
    n, reps = 15, 20_000
    ks = sample_k_batch(n, params, reps, rng)
    assert ks.shape == (reps,)
    assert np.all((1 <= ks) & (ks <= n))
    # exact law: P(K_n = k) = V(n, k) * C(n, k, alpha) / alpha^k
    alpha = params.alpha
    pmf = np.array([math.exp(log_v(n, k, params))
                    * gen_factorial_coeff(n, k, alpha) / alpha ** k
                    for k in range(1, n + 1)])
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert _chi2_p(ks, pmf) > 1e-3


def test_sample_k_batch_matches_exact_law_across_blocks(rng):
    # n = 1000 runs its 999 steps in 4 blocks, anchored down from
    # m = 999: a short first block of 231 steps, then three of 256
    params = GGParams.from_beta(2.0)
    n, reps = 1000, 20_000
    ks = sample_k_batch(n, params, reps, rng)
    assert np.all((1 <= ks) & (ks <= n))
    alpha = params.alpha
    log_c = gen_factorial_coeff_log_table(n, n, alpha)[n, 1:]
    log_pmf = np.array([log_v(n, k, params) for k in range(1, n + 1)])
    pmf = np.exp(log_pmf + log_c - np.arange(1, n + 1) * math.log(alpha))
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert _chi2_p(ks, pmf) > 1e-3


@pytest.mark.parametrize("params", [GGParams.from_beta(2.0), GGParams(a=0.0),
                                    GGParams.from_beta(2.0, alpha=0.3),
                                    GGParams.from_beta(2.0, alpha=0.8)],
                         ids=["nig", "a0", "alpha0.3", "alpha0.8"])
def test_sample_k_batch_equals_stepwise_reference(params):
    # 0, 1 and 2 steps, one block of up to 256 steps (n <= 257), and two
    # blocks ending at m = n - 257 and n - 1 whose short first block has
    # 1, 143 or 254..256 steps (n = 258, 400, 511..513); the recursion's
    # g0 differs from the kernel's in the last digits only, so the draws
    # agree unless a uniform falls within ~1e-13 of g0.  Each call reads
    # exactly (n - 1) * reps uniforms.
    ns = (1, 2, 3, 63, 64, 65, 66, 129, 255, 256, 257, 258, 400, 511, 512,
          513)
    for i, (n, reps) in enumerate((n, reps) for n in ns
                                  for reps in (1, 7, 300)):
        rng = np.random.default_rng(i)
        got = sample_k_batch(n, params, reps, rng)
        want = stepwise_k_batch(n, params, reps, np.random.default_rng(i))
        assert np.array_equal(got, want), (n, reps)
        after = np.random.default_rng(i).random((n - 1) * reps + 1)[-1]
        assert rng.random() == after, (n, reps)


@pytest.mark.parametrize("params", [GGParams.from_beta(2.0),
                                    GGParams.from_beta(0.5, alpha=0.3),
                                    GGParams(a=0.0)],
                         ids=["nig", "alpha0.3", "a0"])
def test_sample_partition_block_count_equals_sample_k_batch(params):
    # both urns draw one uniform per step against the same g0, bit for
    # bit, so one replicate of the batch urn is the scalar urn's block
    # count, also across block edges
    for n in (1, 2, 64, 65, 200, 257, 513, 700, 1000):
        for seed in range(4):
            state = sample_partition(n, params, np.random.default_rng(seed))
            assert state.n == n
            assert state.K == sample_k_batch(
                n, params, 1, np.random.default_rng(seed))[0], (n, seed)


def _evaluator_calls(monkeypatch):
    """The list that records (row n, number of states) of each
    ``gibbs.weights_batch`` call from now on."""
    calls = []

    def recording(n, k, params):
        calls.append((int(n), np.size(k)))
        return evaluate(n, k, params)

    evaluate = gibbs.weights_batch
    monkeypatch.setattr(gibbs, "weights_batch", recording)
    return calls


def test_cold_sample_partition_reads_one_row_per_block(monkeypatch):
    # 299 steps are 2 blocks of at most 256, one evaluator row each, over
    # a band of 256 block counts and the 255 above it
    calls = _evaluator_calls(monkeypatch)
    params = GGParams.from_beta(2.718281828)  # no other test reads it
    sample_partition(300, params, np.random.default_rng(0))
    assert 1 <= len(calls) <= 2
    assert max(size for _, size in calls) < 2 * 256


def test_sample_k_batch_reads_one_row_per_block(monkeypatch,
                                                fresh_row_cache):
    # 999 steps are 4 blocks of at most 256, one evaluator row each over
    # the block counts the runs can reach; the rows are cached, so the
    # cache starts empty
    calls = _evaluator_calls(monkeypatch)
    sample_k_batch(1000, GGParams.from_beta(2.0), 1000,
                   np.random.default_rng(0))
    assert len(calls) == math.ceil(999 / 256) == 4
    assert max(size for _, size in calls) < 2 * 256


def test_urns_anchor_g0_on_the_same_rows(monkeypatch, fresh_row_cache):
    # one grid of 256 steps for both urns, anchored down from the last
    # step: the evaluator rows at the end of each block, m = n - 1 - 256 j
    # (both read row 231 over k = 1..231, so the cache is cleared between)
    params, calls = GGParams.from_beta(2.0), _evaluator_calls(monkeypatch)
    sample_partition(1000, params, np.random.default_rng(0))
    assert sorted({n for n, _ in calls}) == [231, 487, 743, 999]
    calls.clear()
    gibbs._row_cache.clear()
    sample_k_batch(1000, params, 100, np.random.default_rng(0))
    assert [n for n, _ in calls] == [231, 487, 743, 999]


def test_cold_generator_check_evaluates_row_n_minus_1_once(
        monkeypatch, fresh_row_cache):
    # generator-check's path at n = 300: the urn's start reads a block
    # ending at m = 43 and one ending at m = 299 over k = 1..299, whose
    # evaluator row is the particle table's, so the ensemble evaluates
    # nothing more
    params, calls = GGParams.from_beta(math.e), _evaluator_calls(monkeypatch)
    sys0 = ParticleSystem.initialize(300, params, np.random.default_rng(0))
    moran_ensemble(np.broadcast_to(sys0.slots, (20, 300)), 180, params,
                   np.random.default_rng(1))
    assert calls == [(43, 43), (299, 299)]
    row = particle._g0_table(300, params)
    want = weights_batch(299, np.arange(1, 300), params)[0]
    assert row.dtype == want.dtype and row.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        row[0] = 0.5


def test_row_cache_is_bounded_in_bytes(fresh_row_cache):
    # an urn at n = 16,385 reads 64 blocks of up to 256 x 511 doubles,
    # about 65 MB, more than the cache keeps; it drops the oldest rows
    sample_partition(16_385, GGParams.from_beta(2.0),
                     np.random.default_rng(0))
    held = sum(rows.nbytes for rows in gibbs._row_cache.values())
    assert held == gibbs._row_cache.nbytes <= gibbs._ROW_CACHE_BYTES


def test_sample_partition_reuses_cached_rows(monkeypatch, fresh_row_cache):
    # the 20 blocks of an urn at n = 5000 fit the row cache, so a second
    # urn at the same params reads every block from it
    params = GGParams.from_beta(2.0)
    sample_partition(5000, params, np.random.default_rng(0))
    calls = _evaluator_calls(monkeypatch)
    sample_partition(5000, params, np.random.default_rng(1))
    assert calls == []


@pytest.mark.parametrize("rng", [np.random.RandomState(0),
                                 np.random.PCG64(0), None],
                         ids=["RandomState", "PCG64", "None"])
def test_samplers_refuse_an_rng_that_is_not_a_generator(rng):
    # also where no uniform would be drawn: one item, no replicates
    params = GGParams.from_beta(2.0)
    for n, reps in ((10, 3), (1, 3), (10, 0)):
        with pytest.raises(DomainError, match="Generator"):
            sample_k_batch(n, params, reps, rng)
    for n in (10, 1):
        with pytest.raises(DomainError, match="Generator"):
            sample_partition(n, params, rng)
    with pytest.raises(DomainError, match="Generator"):
        sample_gem(PDParams(theta=1.0, alpha=0.5), rng=rng)


@pytest.mark.parametrize("params", [GGParams.from_beta(1.414213562),
                                    GGParams(a=0.0),
                                    PDParams(theta=1.5, alpha=0.3)],
                         ids=["gg", "a0", "pd"])
def test_particle_engines_share_one_cached_row(monkeypatch, fresh_row_cache,
                                               params):
    # two ensembles and one rescaled run at one (n, params) read g0 from
    # one evaluator row, the kernel's under GG params and a closed form
    # otherwise; the row is the evaluator's bit for bit and read-only
    calls = {"weights_batch": 0, "_log_v_w": 0}

    def counting(name):
        fn = getattr(gibbs, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gibbs, name, counting(name))
    n = 40
    start = np.broadcast_to(np.arange(n) % 7, (5, n))
    for seed in (0, 1):
        moran_ensemble(start, 200, params, np.random.default_rng(seed))
    simulate_rescaled(ParticleSystem(range(n)), [0.0, 0.05], params,
                      np.random.default_rng(2))
    kernel_rows = 1 if isinstance(params, GGParams) and params.a else 0
    assert calls == {"weights_batch": 1, "_log_v_w": kernel_rows}
    row = particle._g0_table(n, params)
    want = weights_batch(n - 1, np.arange(1, n), params)[0]
    assert row.dtype == want.dtype and row.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        row[0] = 0.5


@pytest.mark.parametrize("draw", [
    lambda params, rng: sample_k_batch(100, params, 10, rng),
    lambda params, rng: sample_partition(100, params, rng),
], ids=["sample_k_batch", "sample_partition"])
def test_urns_refuse_a_row_with_g0_outside_unit_interval(
        monkeypatch, fresh_row_cache, draw):
    # the evaluator row is checked, not clipped into [0, 1]
    monkeypatch.setattr(gibbs, "weights_batch", g0_above_one)
    with pytest.raises(InternalConsistencyError):
        draw(GGParams.from_beta(3.25), np.random.default_rng(0))


def test_sample_k_batch_agrees_with_scalar_urn(rng):
    params = GGParams.from_beta(2.0)
    n, reps = 10, 8_000
    batch_mean = sample_k_batch(n, params, reps, rng).mean()
    scalar = [sample_partition(n, params, rng).K for _ in range(reps)]
    scalar_mean = float(np.mean(scalar))
    se = float(np.std(scalar)) / math.sqrt(reps)
    assert abs(batch_mean - scalar_mean) < 5.0 * se


def test_sample_k_batch_validation(rng):
    params = GGParams.from_beta(1.0)
    for n in (0, -3, 10.0, 2.5, "10"):
        with pytest.raises(DomainError):
            sample_k_batch(n, params, 10, rng)
    for reps in (-1, 2.0, 2.5, None):
        with pytest.raises(DomainError):
            sample_k_batch(10, params, reps, rng)
    with pytest.raises(DomainError):
        sample_k_batch(10, PDParams(theta=1.0, alpha=0.5), 10, rng)
    empty = sample_k_batch(10, params, 0, rng)
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert np.array_equal(sample_k_batch(np.int64(5), params, np.int32(3),
                                         np.random.default_rng(1)),
                          sample_k_batch(5, params, 3,
                                         np.random.default_rng(1)))
    for n in (0, -3, 10.0, 2.5, "10"):
        with pytest.raises(DomainError):
            sample_partition(n, params, rng)
    for bad in ("beta=1", None, object(), {"beta": 1.0}):
        with pytest.raises(DomainError):
            sample_partition(10, bad, rng)
    assert (sample_partition(np.int64(12), params,
                             np.random.default_rng(2)).block_sizes
            == sample_partition(12, params,
                                np.random.default_rng(2)).block_sizes)


# ---------------------------------------------------------------------------
# Stick breaking

def test_sample_gem_mass_accounting(rng):
    # the residual stick decays like i^(-(1-alpha)/alpha), so small alpha
    # keeps the stopped length manageable
    params = PDParams(theta=2.0, alpha=0.3)
    gem = sample_gem(params, epsilon=1e-6, rng=rng)
    assert gem.residual < 1e-6
    assert sum(gem.weights) + gem.residual == pytest.approx(1.0, abs=1e-12)
    assert all(w > 0 for w in gem.weights)


def test_sample_gem_second_moment(rng):
    # E[sum V_i^2] = (1 - alpha) / (1 + theta); truncating at residual
    # 1e-4 biases the sum by at most 1e-8
    params = PDParams(theta=1.5, alpha=0.3)
    reps = 4_000
    vals = np.array([sum(w * w for w in
                         sample_gem(params, epsilon=1e-4, rng=rng).weights)
                     for _ in range(reps)])
    target = (1.0 - params.alpha) / (1.0 + params.theta)
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) < 5.0 * se


def test_sample_gem_validation(rng):
    params = PDParams(theta=1.0, alpha=0.5)
    with pytest.raises(DomainError):
        sample_gem(params, epsilon=0.0, rng=rng)
    with pytest.raises(DomainError):
        sample_gem(params)


def test_ordered_frequencies():
    state = PartitionState(block_sizes=[1, 5, 2])
    pt = ordered_frequencies(state)
    assert pt.coords == (5 / 8, 2 / 8, 1 / 8)
    assert sum(pt.coords) == pytest.approx(1.0)

"""Moran-type particle dynamics against exact stationary moments, the
conditioned (fixed cluster count) law, and the closed-form generator."""

import math

import numpy as np
import pytest

from nigdiff import gibbs, particle
from nigdiff.diffusion import SimplexPoint, generator_action_power_sum
from nigdiff.errors import DomainError, InternalConsistencyError
from nigdiff.gibbs import (GGParams, PDParams, conditional_phi2_mean,
                           weights_batch)
from nigdiff.particle import (ParticleSystem, balanced_sizes,
                              conditioned_phi2_average, moran_ensemble,
                              moran_phi2_drift, particle_run,
                              simulate_rescaled)
from nigdiff.urn import PartitionState, sample_partition

from conftest import g0_above_one, python_particle_run


# ---------------------------------------------------------------------------
# Particle bookkeeping

def test_round_trip_partition_particles():
    state = PartitionState(block_sizes=[3, 1, 2])
    sys_ = ParticleSystem.from_partition(state)
    assert sys_.n == 6
    assert sys_.K == 3
    assert sys_.phi(1) == pytest.approx(1.0)
    assert sys_.phi(2) == pytest.approx((9 + 1 + 4) / 36)
    sys_.validate()
    with pytest.raises(DomainError):
        ParticleSystem([])
    with pytest.raises(DomainError):
        sys_.phi(0)


def test_validate_catches_desync():
    sys_ = ParticleSystem([0, 0, 1])
    sys_.counts[0] = 1
    with pytest.raises(InternalConsistencyError):
        sys_.validate()
    sys_ = ParticleSystem([0, 0, 1])
    sys_.slots[2] = -1
    with pytest.raises(InternalConsistencyError):
        sys_.validate()


def test_constructor_gives_slots_in_order_of_first_appearance():
    sys_ = ParticleSystem([7, 7, "x", 3])
    assert sys_.slots.tolist() == [0, 0, 1, 2]
    assert sys_.counts.tolist() == [2, 1, 1, 0]
    assert sys_.slots.dtype == sys_.counts.dtype == np.int32
    assert sys_.K == 3
    sys_.validate()


def test_ordered_frequencies_truncation():
    sys_ = ParticleSystem([0, 0, 0, 1, 2, 2])
    assert sys_.ordered_frequencies() == (0.5, 2 / 6, 1 / 6)
    assert sys_.ordered_frequencies(top=2) == (0.5, 2 / 6)


def _urn_slots(n, reps, params, rng):
    """reps urn-drawn starts as an (reps, n) array of type slots."""
    return np.array([np.repeat(np.arange(state.K), state.block_sizes)
                     for state in (sample_partition(n, params, rng)
                                   for _ in range(reps))])


def _slot_arrays(sizes, n=None):
    """Flat int32 (slots, counts) of blocks of the given sizes, block b in
    slot b, padded to n slots."""
    slots = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    return slots, np.bincount(slots, minlength=n or slots.size).astype(
        np.int32)


def _assert_ensemble_invariants(slots, counts, n):
    assert slots.shape == counts.shape
    assert slots.dtype == counts.dtype == np.int32
    for row_slots, row_counts in zip(slots, counts):
        assert (np.bincount(row_slots, minlength=n) == row_counts).all()
    assert (counts.sum(axis=1) == n).all()
    assert (np.count_nonzero(counts, axis=1)
            == [np.unique(row).size for row in slots]).all()


def test_invariants_hold_along_moran_run(rng):
    params = GGParams.from_beta(2.0)
    n = 30
    singletons = np.broadcast_to(np.arange(n), (50, n))
    for start in (_urn_slots(n, 50, params, rng), singletons):
        slots = start
        for _ in range(10):
            slots, counts = moran_ensemble(slots, 100, params, rng)
            _assert_ensemble_invariants(slots, counts, n)
    with pytest.raises(DomainError):
        particle_run(np.zeros(1, np.int32), np.ones(1, np.int32), 1,
                     params.alpha, rng, g0=np.empty(0))


def test_moran_ensemble_validation(rng, monkeypatch, fresh_row_cache):
    params = GGParams.from_beta(2.0)
    with pytest.raises(DomainError):
        moran_ensemble(np.zeros((3, 1), dtype=int), 5, params, rng)
    with pytest.raises(DomainError):
        moran_ensemble(np.zeros(4, dtype=int), 5, params, rng)
    with pytest.raises(DomainError):
        moran_ensemble(np.array([[0, 1, 4]]), 5, params, rng)
    with pytest.raises(DomainError):
        moran_ensemble(np.zeros((2, 3), dtype=int), 5, object(), rng)
    with pytest.raises(DomainError):  # refused before the cache hashes it
        moran_ensemble(np.zeros((2, 3), dtype=int), 5, {"beta": 2.0}, rng)
    # refused in the caller's dtype, before an int32 cast could wrap
    # 2**32 + 2 to 2 or truncate 1.7 to 1
    with pytest.raises(DomainError):
        moran_ensemble(np.array([[0, 1, 2 ** 32 + 2]]), 5, params, rng)
    with pytest.raises(DomainError):
        moran_ensemble(np.array([[0, 1.7, 2]]), 5, params, rng)
    # a weight table whose entries do not sum to one is refused up front
    monkeypatch.setattr(gibbs, "weights_batch",
                        lambda n, k, p: (np.full(k.shape, 0.5),
                                         np.full(k.shape, 1.0 / n)))
    with pytest.raises(InternalConsistencyError):
        moran_ensemble(np.zeros((2, 3), dtype=int), 0, params, rng)


def test_g0_table_and_drift_refuse_g0_outside_unit_interval(
        monkeypatch, fresh_row_cache):
    # the replacement probabilities sum to one: only the range check
    # refuses the row, which the table reads through gibbs._g0_rows and
    # the drift from its own evaluator call
    monkeypatch.setattr(gibbs, "weights_batch", g0_above_one)
    monkeypatch.setattr(particle, "weights_batch", g0_above_one)
    params = GGParams.from_beta(2.0)
    with pytest.raises(InternalConsistencyError):
        particle._g0_table(10, params)
    with pytest.raises(InternalConsistencyError):
        moran_phi2_drift([3, 2, 1], params)


@pytest.mark.parametrize("beta, sizes", [
    (0.5, [7, 5, 3, 3, 1, 1]),
    (2.0, [6, 2, 2, 1, 1, 1, 1, 1, 1]),
    (10.0, [4, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
])
def test_moran_ensemble_one_event_drift(beta, sizes):
    # 10^6 single events from one state against the exact expectation
    params = GGParams.from_beta(beta)
    n = sum(sizes)
    start = np.repeat(np.arange(len(sizes)), sizes)
    sum_sq = sum(c * c for c in sizes)
    rng = np.random.default_rng(np.random.SeedSequence([77, int(beta)]))
    deltas = []
    for _ in range(4):
        _, counts = moran_ensemble(np.broadcast_to(start, (250_000, n)), 1,
                                   params, rng)
        deltas.append(np.einsum("ij,ij->i", counts, counts) - sum_sq)
    deltas = np.concatenate(deltas)
    mc = deltas.mean() / 2.0
    se = deltas.std() / (2.0 * math.sqrt(deltas.size))
    assert abs(mc - moran_phi2_drift(sizes, params)) <= 5.0 * se


# ---------------------------------------------------------------------------
# Stationarity of the unconditioned dynamics

def _exchangeable_phi2(n, params):
    # the n-sample urn law is stationary for the Moran dynamics; its
    # exact pair probability is P(two same) = (1 - alpha) g1(1, 1)
    # (two draws: the second joins the first with that probability),
    # hence E[phi_2] = ((n - 1) P + 1) / n
    p_same = (1.0 - params.alpha) * weights_batch([1], [1], params)[1][0]
    return ((n - 1) * p_same + 1.0) / n


def test_moran_preserves_exchangeable_phi2(rng):
    params = GGParams.from_beta(2.0)
    n = 25
    reps, steps = 600, 120
    _, counts = moran_ensemble(_urn_slots(n, reps, params, rng), steps,
                               params, rng)
    vals = np.einsum("ij,ij->i", counts, counts) / (n * n)
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - _exchangeable_phi2(n, params)) < 4.0 * se


@pytest.mark.parametrize("params", [GGParams.from_beta(2.0),
                                    PDParams(theta=1.5, alpha=0.3)])
def test_free_kernel_keeps_exchangeable_phi2_over_seeds(params):
    # one long free particle_run per seed from an urn start: its time
    # average of phi_2 is the exchangeable mean
    n, events = 25, 2_000_000
    g0 = particle._g0_table(n, params)
    rel = []
    for seed in range(6):
        rng = np.random.default_rng([31, seed])
        slots, counts = _slot_arrays(sample_partition(n, params,
                                                      rng).block_sizes, n)
        total = particle_run(slots, counts, events, params.alpha, rng,
                             g0=g0)
        rel.append(total / (events * n * n) / _exchangeable_phi2(n, params)
                   - 1.0)
    rel = np.array(rel)
    assert np.abs(rel).max() < 0.03
    t = rel.mean() / (rel.std(ddof=1) / math.sqrt(rel.size))
    assert abs(t) < 4.03  # two-sided 1% point of t with 5 df


def test_moran_ensemble_pd_params(rng):
    params = PDParams(theta=1.5, alpha=0.3)
    n = 25
    reps, steps = 2_000, 200
    slots, counts = moran_ensemble(_urn_slots(n, reps, params, rng), steps,
                                   params, rng)
    _assert_ensemble_invariants(slots, counts, n)
    vals = np.einsum("ij,ij->i", counts, counts) / (n * n)
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - _exchangeable_phi2(n, params)) < 4.0 * se


# ---------------------------------------------------------------------------
# Conditioned dynamics

def test_conditioned_step_preserves_k(rng):
    params = GGParams.from_beta(1.0)
    state = sample_partition(40, params, rng)
    slots, counts = _slot_arrays(state.block_sizes)
    for _ in range(300):
        particle_run(slots, counts, 1, params.alpha, rng)
        assert np.count_nonzero(counts) == state.K
    assert (np.bincount(slots, minlength=40) == counts).all()


def test_conditioned_long_run_matches_exact_conditional_mean(rng):
    # time average of phi_2 under the fixed-K chain equals the exact
    # mean of phi_2 under the partition law conditioned on K_n = k
    n, k = 60, 8
    alpha = 0.5
    sizes = [n - k + 1] + [1] * (k - 1)
    avg = conditioned_phi2_average(sizes, 2_000_000, alpha, rng,
                                   burn_in=100_000)
    exact = conditional_phi2_mean(n, k, alpha)
    assert avg == pytest.approx(exact, rel=0.02)


def test_fast_and_slow_conditioned_routes_agree():
    # the compiled conditioned loop against its pure-Python mirror, both
    # reading the same uniforms
    params = GGParams.from_beta(2.0)
    n, k = 30, 5
    sizes = [n - k + 1] + [1] * (k - 1)
    steps, burn = 400_000, 40_000
    fast = conditioned_phi2_average(sizes, steps, params.alpha,
                                    np.random.default_rng(5), burn_in=burn)
    uniforms = np.random.default_rng(5).random(4 * steps).tolist()
    _, counts, total, _ = python_particle_run(
        *_slot_arrays(sizes), steps, params.alpha, uniforms, burn_in=burn)
    slow = total / ((steps - burn) * n * n)
    assert fast == slow
    exact = conditional_phi2_mean(n, k, params.alpha)
    assert slow == pytest.approx(exact, rel=0.05)
    assert fast == pytest.approx(exact, rel=0.05)


@pytest.mark.parametrize("n, k", [(60, 8), (30, 5)])
def test_conditioned_kernel_law_over_seeds(n, k):
    # the time average over six seeds against the exact mean of phi_2
    # under the partition law conditioned on K_n = k
    alpha = 0.5
    exact = conditional_phi2_mean(n, k, alpha)
    rel = np.array([
        conditioned_phi2_average([n - k + 1] + [1] * (k - 1), 2_000_000,
                                 alpha, np.random.default_rng(seed),
                                 burn_in=100_000) / exact - 1.0
        for seed in range(6)])
    assert np.abs(rel).max() < 0.02
    t = rel.mean() / (rel.std(ddof=1) / math.sqrt(rel.size))
    assert abs(t) < 4.03  # two-sided 1% point of t with 5 df


def test_conditioned_phi2_average_validation(rng):
    with pytest.raises(DomainError):
        conditioned_phi2_average([2, 1], 100, 1.5, rng)
    with pytest.raises(DomainError):
        conditioned_phi2_average([2, 1], 100, 0.5, rng, burn_in=100)
    with pytest.raises(DomainError):
        conditioned_phi2_average([0, 2], 100, 0.5, rng)
    with pytest.raises(DomainError):
        conditioned_phi2_average([1], 100, 0.5, rng)
    slots, counts = _slot_arrays([2])
    with pytest.raises(DomainError):
        particle_run(slots, counts, 10, 0.5, rng, burn_in=10)


# ---------------------------------------------------------------------------
# Exact event drift of phi_2

def test_moran_phi2_drift_matches_single_event_mc(rng):
    params = GGParams.from_beta(2.0)
    sizes = [7, 5, 3, 3, 1, 1]
    n = sum(sizes)
    exact = moran_phi2_drift(sizes, params)
    reps = 60_000
    start_slots, start_counts = _slot_arrays(sizes)
    sum_sq = sum(c * c for c in sizes)
    g0 = particle._g0_table(n, params)
    deltas = np.empty(reps)
    for r in range(reps):
        deltas[r] = particle_run(start_slots.copy(), start_counts.copy(), 1,
                                 params.alpha, rng, g0=g0) - sum_sq
    mc = deltas.mean() / 2.0
    se = deltas.std() / (2.0 * math.sqrt(reps))
    assert abs(exact - mc) < 4.0 * se


def test_moran_phi2_drift_approaches_generator_action():
    # (n^2/2) E[Delta phi_2] converges to the closed-form action of the
    # limiting generator as n grows with k/sqrt(n) and frequencies fixed
    params = GGParams.from_beta(2.0)
    gaps = []
    for scale in (4, 16, 64):
        base = [8 * scale, 4 * scale, 2 * scale, 2 * scale]
        k_extra = int(round(2.0 * math.sqrt(16 * scale))) + 4
        sizes = base + [1] * k_extra
        n = sum(sizes)
        s = len(sizes) / math.sqrt(n)
        point = SimplexPoint(
            coords=tuple(sorted((c / n for c in sizes), reverse=True)))
        drift = moran_phi2_drift(sizes, params)
        limit = generator_action_power_sum(2, s, point, params)
        gaps.append(abs(drift - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def test_ensemble_derivative_matches_exact_finite_n_drift():
    # criterion-12's state and sizes: the Richardson-extrapolated
    # derivative of E[phi_2] against the exact one-event drift at n = 300,
    # which carries none of the n -> infinity generator's finite-n bias
    params = GGParams.from_beta(2.0)
    n, paths, h = 300, 10_000, 0.004
    sizes = balanced_sizes(n, math.ceil(2.0 * math.sqrt(n)))
    start = np.repeat(np.arange(len(sizes)), sizes)
    phi0 = sum(c * c for c in sizes) / (n * n)
    fd, var = [], []
    for step_h, stream in ((h, 1), (2.0 * h, 2)):
        rng = np.random.default_rng([12, 0, stream])
        _, counts = moran_ensemble(np.broadcast_to(start, (paths, n)),
                                   int(round(n * n * step_h / 2.0)), params,
                                   rng)
        samples = np.einsum("ij,ij->i", counts, counts) / (n * n)
        fd.append((samples.mean() - phi0) / step_h)
        var.append(samples.var(ddof=1) / paths / step_h ** 2)
    z = ((2.0 * fd[0] - fd[1] - moran_phi2_drift(sizes, params))
         / math.sqrt(4.0 * var[0] + var[1]))
    assert abs(z) < 3.0


def test_moran_phi2_drift_validation():
    params = GGParams.from_beta(1.0)
    with pytest.raises(DomainError):
        moran_phi2_drift([0, 3], params)
    with pytest.raises(DomainError):
        moran_phi2_drift([1], params)


# ---------------------------------------------------------------------------
# Rescaled observables

def test_simulate_rescaled_grids_and_shapes(rng):
    params = GGParams.from_beta(2.0)
    sys_ = ParticleSystem.initialize(30, params, rng)
    k0 = sys_.K
    grid = (0.0, 0.05, 0.1)
    path = simulate_rescaled(sys_, grid, params, rng, top=5)
    assert path.grid == grid
    assert len(path.k_rescaled) == 3
    assert len(path.frequencies) == 3
    assert len(path.phi2) == 3
    assert all(len(f) <= 5 for f in path.frequencies)
    assert path.k_rescaled[0] == k0 / math.sqrt(30)
    assert all(0.0 < p <= 1.0 for p in path.phi2)
    # sys_ is left in the state of the last (slow-clock) snapshot
    sys_.validate()
    assert path.frequencies[-1] == sys_.ordered_frequencies(5)
    assert path.phi2[-1] == sys_.phi(2)


def test_simulate_rescaled_is_one_unbroken_run():
    # the snapshots split the event stream without discarding a uniform:
    # the final state is that of one particle_run over all the events
    params = GGParams.from_beta(2.0)
    n, sizes = 40, [12, 9, 5, 5, 3, 2, 1, 1, 1, 1]
    sys_ = ParticleSystem.from_partition(PartitionState(block_sizes=sizes))
    grid = [0.0, 0.01, 0.02, 0.05, 0.3]
    simulate_rescaled(sys_, grid, params, np.random.default_rng(3))
    slots, counts = _slot_arrays(sizes)
    particle_run(slots, counts, int(0.3 * n * n / 2.0), params.alpha,
                 np.random.default_rng(3), g0=particle._g0_table(n, params))
    assert np.array_equal(sys_.slots, slots)
    assert np.array_equal(sys_.counts, counts)
    sys_.validate()


def test_simulate_rescaled_embeddings_and_errors(rng):
    params = GGParams.from_beta(1.0)
    sys_ = ParticleSystem.initialize(20, params, rng)
    path = simulate_rescaled(sys_, (0.01, 0.02), params, rng,
                             embedding="exponential")
    assert len(path.phi2) == 2
    with pytest.raises(DomainError):
        simulate_rescaled(sys_, (), params, rng)
    with pytest.raises(DomainError):
        simulate_rescaled(sys_, (-1.0, 0.0), params, rng)
    with pytest.raises(DomainError):
        simulate_rescaled(sys_, (0.0,), params, rng, embedding="bogus")


@pytest.mark.parametrize("embedding", ["discrete", "exponential"])
def test_both_clocks_read_one_event_stream(embedding):
    # at n = 4 the clocks coincide, n^(3/2) = n^2 / 2 = 8, so the K
    # snapshot and the frequency snapshot at each time see one state
    params = GGParams.from_beta(2.0)
    grid = [0.5 * i for i in range(1, 21)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sys_ = ParticleSystem.initialize(4, params, rng)
        path = simulate_rescaled(sys_, grid, params, rng, top=4,
                                 embedding=embedding)
        assert ([round(k * 2) for k in path.k_rescaled]
                == [len(f) for f in path.frequencies]), seed


def test_block_sizes_must_be_positive_integers(rng):
    # the rule eppf_log applies, for the partition state and both
    # particle routines that take block sizes
    for sizes in ([2.5, 1], [3, 1.5], [2, math.inf], [math.nan, 1]):
        with pytest.raises(DomainError):
            PartitionState(block_sizes=sizes)
        with pytest.raises(DomainError):
            conditioned_phi2_average(sizes, 100, 0.5, rng)
        with pytest.raises(DomainError):
            moran_phi2_drift(sizes, GGParams.from_beta(2.0))

"""Moran-type particle system driven by the generalized Polya-urn
predictive rule, its rescaled observables, and the conditioned
(fixed cluster count) variant.

One event replaces a uniformly chosen particle: the incoming particle
is a fresh type with probability g0(n-1, k_r) (k_r = distinct types
after removal) and a copy of an existing type of size n_j with
probability g1(n-1, k_r) * (n_j - alpha).  Copy moves are realized by
rejection: pick a uniform surviving particle of type t, accept with
probability (n_t - alpha)/n_t, which makes every event O(1) regardless
of the number of types.  The conditioned variant takes g0 := [the
removed particle was a singleton], so K never changes.  The free
variant reads g0(n-1, k_r), k_r = 1..n-1, from one checked evaluator
row, cached read-only with the urn's rows (``gibbs._row_cache``).  At
n <= 512 it is the row that the urn's last block descends from, so a
start drawn from ``sample_partition(n)`` and the dynamics evaluate row
n - 1 once; above, the urn's band is narrower and each evaluates it.

The dynamics run on one engine, compiled C (``_kernels.c``, built by
gcc once per source and loaded on the first call in a process) on flat
int32 arrays of type slots and block counts.  ``particle_run`` runs one
system, free or conditioned, for the long trajectories
(``simulate_rescaled``, ``conditioned_phi2_average``);
``moran_ensemble`` runs R free replicas as the rows of (R, n) arrays,
one after another, for the many short runs of the generator and
stationarity checks.  Both take a numpy ``Generator``, and the loop
draws each uniform from its bit generator when it reads it, in the order
of successive ``rng.random()`` calls, so the generator is left just past
the last uniform used.  ``ParticleSystem`` holds one system's slot and
count arrays, which the rescaled observables are read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, InternalConsistencyError
from .gibbs import (GGParams, PDParams, _check_block_sizes,
                    _check_weight_row, _top_row, weights_batch)
from .urn import PartitionState, sample_partition


class ParticleSystem:
    """n particles in the compiled loop's format: ``slots[i]`` is the
    slot of particle i's type and ``counts[t]`` the number of particles
    in slot t, two int32 arrays of length n that ``particle_run`` and
    ``simulate_rescaled`` advance in place.  The constructor gives type
    ids slots in order of first appearance.
    """

    __slots__ = ("slots", "counts")

    def __init__(self, assignments):
        ids = {}
        self.slots = np.array([ids.setdefault(t, len(ids))
                               for t in assignments], dtype=np.int32)
        if not self.slots.size:
            raise DomainError("a particle system needs at least one particle")
        self.counts = np.bincount(self.slots, minlength=self.n).astype(
            np.int32)

    @property
    def n(self) -> int:
        return self.slots.size

    @property
    def K(self) -> int:
        return int(np.count_nonzero(self.counts))

    @staticmethod
    def from_partition(state: PartitionState) -> "ParticleSystem":
        return ParticleSystem(
            np.repeat(np.arange(state.K), state.block_sizes).tolist())

    @staticmethod
    def initialize(n: int, params, rng: np.random.Generator
                   ) -> "ParticleSystem":
        """Start from the n-sample exchangeable law of the urn."""
        return ParticleSystem.from_partition(sample_partition(n, params, rng))

    def phi(self, m: int) -> float:
        """Power sum of relative frequencies, sum (n_j/n)^m, in slot
        order; phi(2) is the exact integer sum of squares over n^2."""
        if m < 1:
            raise DomainError("phi requires m >= 1")
        n = self.n
        counts = [c for c in self.counts.tolist() if c]
        if m == 2:
            return sum(c * c for c in counts) / (n * n)
        return sum((c / n) ** m for c in counts)

    def ordered_frequencies(self, top: int = None) -> tuple:
        freqs = sorted((c / self.n for c in self.counts.tolist() if c),
                       reverse=True)
        if top is not None:
            freqs = freqs[:top]
        return tuple(freqs)

    def validate(self) -> None:
        if self.slots.min() < 0 or not np.array_equal(
                np.bincount(self.slots, minlength=self.n), self.counts):
            raise InternalConsistencyError("counts out of sync with slots")


def _g0_table(n: int, params) -> np.ndarray:
    """g0(n-1, k) for k = 1..n-1, the cached, checked, read-only
    evaluator row (``gibbs._top_row``)."""
    if not isinstance(params, (GGParams, PDParams)):
        raise DomainError(f"unsupported parameter type {type(params)!r}")
    return _top_row(n - 1, 1, n - 1, params)[0]


def moran_ensemble(slots, events: int, params, rng: np.random.Generator):
    """Run ``events`` free Moran events on each of R independent replicas,
    one after another: row r is the free ``particle_run`` that follows
    row r - 1's on the same ``rng``.

    ``slots`` is an (R, n) integer array: particle j of replica r has
    the type held in slot ``slots[r, j]``, 0 <= slot < n (a broadcast
    view such as ``np.broadcast_to(start, (R, n))`` is copied).  Returns
    the final ``(slots, counts)``, two int32 (R, n) arrays with
    ``counts[r, t]`` the number of particles of replica r in slot t,
    counted in the loop.  g0 is read from the cached ``_g0_table``.
    """
    slots = np.asarray(slots)
    if slots.ndim != 2:
        raise DomainError("slots must be an (R, n) array")
    if not np.issubdtype(slots.dtype, np.integer):
        raise DomainError(f"slots must be integers, not {slots.dtype}")
    reps, n = slots.shape
    if n < 2:
        raise DomainError("moran_ensemble requires n >= 2")
    if events < 0:
        raise DomainError("events must be >= 0")
    if slots.size and (slots.min() < 0 or slots.max() >= n):
        raise DomainError("slots must lie in 0..n-1")
    g0 = _g0_table(n, params)
    slots = np.array(slots, dtype=np.int32, order="C")
    counts = np.empty((reps, n), np.int32)
    # burn_in = events: no sum_sq is summed, so R rows cannot overflow it
    _kernels.run("particle_run", rng, reps, n, params.alpha, g0.ctypes.data,
                 events, events, slots.ctypes.data, counts.ctypes.data)
    return slots, counts


def _power_sums(counts, m: int) -> np.ndarray:
    """sum_t (counts[r, t] / n)^m for each row r of an (R, n) array of
    counts in 0..n, C-contiguous int32 as ``moran_ensemble`` returns
    them, summed from 0.0 in slot order (``_kernels.c`` ``power_sums``)
    over the table (arange(n + 1) / n) ** m: bit for bit the sums of a
    loop that adds (counts[:, t] / n) ** m for t = 0..n-1."""
    if (counts.ndim != 2 or counts.dtype != np.int32
            or not counts.flags.c_contiguous or not counts.shape[1]):
        raise DomainError("counts must be a C-contiguous (R, n) int32 array "
                          "with n >= 1")
    reps, n = counts.shape
    if reps and (counts.min() < 0 or counts.max() > n):
        raise DomainError("counts must lie in 0..n")
    table = (np.arange(n + 1) / n) ** m
    out = np.empty(reps)
    _kernels.lib().power_sums(reps, n, table.ctypes.data, counts.ctypes.data,
                              out.ctypes.data)
    return out


def particle_run(slots, counts, events: int, alpha: float,
                 rng: np.random.Generator, g0=None, burn_in: int = 0) -> int:
    """Run ``events`` Moran events on one system, in place, with the
    compiled event loop; return the sum of sum_sq = sum_t counts[t]^2
    after each event numbered above ``burn_in``.

    ``slots`` and ``counts`` are int32 arrays of length n: particle i has
    the type in slot ``slots[i]`` and ``counts[t]`` particles have type t.
    With a ``g0`` table over k_r = 1..n-1 (``_g0_table``) the dynamics are
    free: the incoming particle is fresh with probability g0(n-1, k_r).
    Without one they are conditioned: it is fresh exactly when the
    removed particle was a singleton, so K never changes.  Otherwise it
    copies a surviving type: a uniform particle j != i is drawn and its
    type t taken with probability (c_t - alpha)/c_t on the post-removal
    counts.  A fresh type takes the freed slot, or the first empty one;
    a slot is reused once it has emptied, which is harmless because only
    counts are observed.  Per event the uniforms are read from ``rng``, a
    numpy ``Generator`` (anything else raises ``DomainError``), in the
    order i, the fresh draw (free mode only), then (j, accept) pairs.
    """
    n = slots.size
    if n < 2:
        raise DomainError("particle_run requires n >= 2")
    if not 0 <= burn_in < events:
        raise DomainError("need 0 <= burn_in < events")
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    if (events - burn_in) * n * n >= 2 ** 63:
        raise DomainError("the sum of sum_sq would overflow 64 bits")
    for a in (slots, counts):
        if (a.dtype != np.int32 or a.shape != (n,)
                or not a.flags.c_contiguous or not a.flags.writeable):
            raise DomainError("slots and counts must be writeable, "
                              "contiguous int32 arrays of one length")
    if (slots.min() < 0 or slots.max() >= n
            or not np.array_equal(np.bincount(slots, minlength=n), counts)):
        raise DomainError("counts must count the slots, which lie in 0..n-1")
    table = None
    if g0 is not None:
        g0 = np.ascontiguousarray(g0, dtype=np.float64)
        if g0.shape != (n - 1,):
            raise DomainError("g0 must hold one entry per k = 1..n-1")
        table = g0.ctypes.data
    return _kernels.run("particle_run", rng, 1, n, alpha, table, events,
                        burn_in, slots.ctypes.data, counts.ctypes.data)


def moran_phi2_drift(block_sizes, params) -> float:
    """Exact instantaneous drift of phi_2 at the given configuration
    under the event clock n^2/2, i.e. (n^2/2) E[Delta phi_2 | state] for
    one replacement event, by direct expectation over the kernel.

    This is the finite-n quantity whose n -> infinity limit is the
    closed-form generator action on phi_2; it serves as an independent
    oracle for both the simulator and the generator formula.
    """
    from collections import Counter
    sizes = list(block_sizes)
    _check_block_sizes(sizes)
    n = sum(sizes)
    if n < 2:
        raise DomainError("need at least two particles")
    k = len(sizes)
    alpha = params.alpha
    counts = Counter(sizes)
    # the types left after a removal: k, or k - 1 when a singleton went
    k_left = sorted({k - 1 if c_j == 1 else k for c_j in counts})
    g0s, g1s = weights_batch(n - 1, k_left, params)
    _check_weight_row(n - 1, k_left, g0s, g1s, alpha)
    weights = dict(zip(k_left, zip(g0s.tolist(), g1s.tolist())))
    total = 0.0
    for c_j, mult in counts.items():
        g0, g1 = weights[k - 1 if c_j == 1 else k]
        # removal takes sum_sq down by 2*c_j - 1; a fresh type adds 1
        delta = -(2 * c_j - 1) + g0
        # a copy of a surviving block of size c adds 2*c + 1
        copy = 0.0
        for c_t, m_t in counts.items():
            m_surviving = m_t - (1 if c_t == c_j else 0)
            copy += m_surviving * (c_t - alpha) * (2 * c_t + 1)
        if c_j >= 2:
            copy += (c_j - 1 - alpha) * (2 * (c_j - 1) + 1)
        delta += g1 * copy
        total += mult * (c_j / n) * delta
    # Delta phi_2 = Delta sum_sq / n^2, times the n^2/2 event rate
    return total / 2.0


def balanced_sizes(n: int, k: int) -> list:
    """k block sizes summing to n that differ by at most one, largest
    first."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    base, extra = divmod(n, k)
    return [base + 1] * extra + [base] * (k - extra)


def conditioned_phi2_average(block_sizes, steps: int, alpha: float,
                             rng: np.random.Generator, burn_in: int = 0
                             ) -> float:
    """Time average of phi_2 = sum (n_j/n)^2 along the conditioned
    (fixed-K) dynamics from the given block sizes, over the events
    numbered above ``burn_in``: one conditioned ``particle_run``."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    sys0 = ParticleSystem.from_partition(
        PartitionState(block_sizes=list(block_sizes)))
    total = particle_run(sys0.slots, sys0.counts, steps, alpha, rng,
                         burn_in=burn_in)
    return total / ((steps - burn_in) * sys0.n * sys0.n)


@dataclass(frozen=True)
class RescaledPath:
    """Joint observables of one event stream under the two clocks of the
    scaling limit: the cluster count read after ~n^(3/2) t events and
    the ordered frequencies read after ~n^2 t / 2 events."""

    grid: tuple
    k_rescaled: tuple        # K / sqrt(n) at the fast clock
    frequencies: tuple       # top frequencies at the slow clock
    phi2: tuple              # pair probability at the slow clock


def simulate_rescaled(sys0: ParticleSystem, t_grid, params: GGParams,
                      rng: np.random.Generator, top: int = 50,
                      embedding: str = "discrete") -> RescaledPath:
    """Run one event stream from ``sys0``, advancing it in place, and
    record both rescaled observables on the requested time grid.

    ``embedding`` selects how the event index is attached to continuous
    time: "discrete" reads the floor of the rescaled time (one event per
    unit), "exponential" uses unit-rate exponential holding times, i.e.
    a Poisson number of events per unit of rescaled time, from one
    Poisson process read at the targets of both clocks.
    """
    grid = tuple(sorted(float(t) for t in t_grid))
    if not grid or grid[0] < 0:
        raise DomainError("t_grid must be nonempty and nonnegative")
    n = sys0.n
    # fast clock: floor(n^(3/2) t); slow clock: floor(n^2 t / 2)
    targets = [t * n ** 1.5 for t in grid] + [t * n * n / 2.0 for t in grid]
    if embedding == "discrete":
        idx = [int(math.floor(u)) for u in targets]
    elif embedding == "exponential":  # N(u) of one unit-rate process
        points = sorted(set(targets))
        steps = rng.poisson(np.diff(points, prepend=0.0))
        count = dict(zip(points, np.cumsum(steps).tolist()))
        idx = [count[u] for u in targets]
    else:
        raise DomainError(f"unknown embedding {embedding!r}")

    snaps, current = {}, 0  # index -> (K/sqrt(n), frequencies, phi(2))
    g0 = _g0_table(n, params)
    for i in sorted(set(idx)):
        if i > current:
            particle_run(sys0.slots, sys0.counts, i - current,
                         params.alpha, rng, g0=g0)
            current = i
        snaps[i] = (sys0.K / math.sqrt(n), sys0.ordered_frequencies(top),
                    sys0.phi(2))
    k_idx, f_idx = idx[:len(grid)], idx[len(grid):]
    return RescaledPath(
        grid=grid,
        k_rescaled=tuple(snaps[i][0] for i in k_idx),
        frequencies=tuple(snaps[i][1] for i in f_idx),
        phi2=tuple(snaps[i][2] for i in f_idx))

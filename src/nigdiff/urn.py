"""Sequential sampling from generalized Polya-urn schemes and
stick-breaking, plus partition statistics.

The urn grows one observation at a time: a new type appears with
probability g0(n, k), and an existing type of current size n_j is
reinforced with probability g1(n, k) * (n_j - alpha).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# Every sampler takes an np.random.Generator and cli._rng builds one, so
# load numpy.random with the package rather than inside the first call.
import numpy.random  # noqa: F401

from .errors import DomainError, InternalConsistencyError
from .gibbs import (GGParams, PDParams, WeightPair, _g0_rows,
                    weights_gg_quadrature, weights_pd)

_STEP_BLOCK = 64  # urn steps per kernel row in sample_k_batch


@dataclass
class PartitionState:
    """An exchangeable partition of n items into K blocks.

    Blocks carry stable integer ids so particle-level views can refer to
    them across steps; ids of new blocks strictly increase.
    """

    block_sizes: list = field(default_factory=lambda: [1])
    block_ids: list = None
    next_block_id: int = None

    def __post_init__(self):
        if not self.block_sizes or any(s < 1 for s in self.block_sizes):
            raise DomainError("block sizes must be positive")
        if self.block_ids is None:
            self.block_ids = list(range(len(self.block_sizes)))
        if self.next_block_id is None:
            self.next_block_id = (max(self.block_ids) + 1
                                  if self.block_ids else 0)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def K(self) -> int:
        return len(self.block_sizes)

    @property
    def multiplicity_profile(self) -> dict:
        """Map j -> number of blocks of size j."""
        profile = {}
        for s in self.block_sizes:
            profile[s] = profile.get(s, 0) + 1
        return profile

    def validate(self) -> None:
        if len(self.block_ids) != len(self.block_sizes):
            raise InternalConsistencyError("block id/size length mismatch")
        if any(s < 1 for s in self.block_sizes):
            raise InternalConsistencyError("nonpositive block size")
        profile = self.multiplicity_profile
        if sum(profile.values()) != self.K:
            raise InternalConsistencyError("multiplicity profile broken")
        if sum(j * m for j, m in profile.items()) != self.n:
            raise InternalConsistencyError("multiplicity profile broken")

    def shape(self) -> tuple:
        """Canonical (sorted descending) block-size tuple."""
        return tuple(sorted(self.block_sizes, reverse=True))


@dataclass(frozen=True)
class GemWeights:
    """Stick-breaking weights with the undistributed residual mass."""

    weights: tuple
    residual: float


@lru_cache(maxsize=500_000)
def predictive_weights(n: int, k: int, params) -> WeightPair:
    """Predictive weights for the parameter type, memoized per state so
    that event loops get the stored pair back: the closed form for
    Poisson-Dirichlet, the quadrature kernel for generalized gamma."""
    if isinstance(params, PDParams):
        return weights_pd(n, k, params)
    if isinstance(params, GGParams):
        return weights_gg_quadrature(n, k, params)
    raise DomainError(f"unsupported parameter type {type(params)!r}")


def urn_step(state: PartitionState, weights: WeightPair, alpha: float,
             rng: np.random.Generator) -> PartitionState:
    """One predictive draw: append a new block with probability g0,
    otherwise increment block j with probability g1 * (n_j - alpha).
    Mutates and returns ``state``."""
    n, k = state.n, state.K
    total = weights.g0 + weights.g1 * (n - alpha * k)
    if abs(total - 1.0) > 1e-9:
        raise InternalConsistencyError(
            f"urn probabilities sum to {total!r} at n={n}, k={k}")
    u = rng.random() * total
    if u < weights.g0:
        state.block_sizes.append(1)
        state.block_ids.append(state.next_block_id)
        state.next_block_id += 1
        return state
    acc = weights.g0
    for j, size in enumerate(state.block_sizes):
        acc += weights.g1 * (size - alpha)
        if u < acc:
            state.block_sizes[j] = size + 1
            return state
    # only reachable through roundoff at the very top of the scale
    state.block_sizes[-1] += 1
    return state


def sample_partition(n: int, params, rng: np.random.Generator
                     ) -> PartitionState:
    """Draw an n-item partition by iterating the urn from one item."""
    if not isinstance(params, (GGParams, PDParams)):
        raise DomainError(f"sample_partition needs GGParams or PDParams, "
                          f"not {type(params).__name__}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    alpha = params.alpha
    state = PartitionState(block_sizes=[1])
    for m in range(1, n):
        urn_step(state, predictive_weights(m, state.K, params), alpha, rng)
    return state


def sample_k_batch(n: int, params: GGParams, replicates: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Number of blocks K_n in ``replicates`` independent urn runs,
    grown jointly, one uniform per replicate and step.  The steps run in
    blocks of _STEP_BLOCK: each block reads g0 for every state its runs
    can reach from one kernel row at its last step and the positive
    Gibbs-triangle recursion below it (``gibbs._g0_rows``)."""
    if not isinstance(params, GGParams):
        raise DomainError(f"sample_k_batch needs GGParams, not "
                          f"{type(params).__name__}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(replicates, numbers.Integral) or replicates < 0:
        raise DomainError(f"replicates must be an integer >= 0, "
                          f"got {replicates!r}")
    k = np.ones(replicates, dtype=np.int64)
    if replicates == 0:
        return k
    for m0 in range(1, n, _STEP_BLOCK):
        m1 = min(n - 1, m0 + _STEP_BLOCK - 1)
        lo = int(k.min())
        rows = _g0_rows(m0, m1, lo, int(k.max()), params)
        for row in rows:
            k += rng.random(replicates) < row[k - lo]
    return k


def sample_gem(params: PDParams, epsilon: float = 1e-10,
               rng: np.random.Generator = None) -> GemWeights:
    """Stick-breaking weights V_i = W_i * prod_{l<i} (1 - W_l) with
    W_i ~ Beta(1 - alpha, theta + i*alpha), stopped once the residual
    stick is below ``epsilon``."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must be in (0, 1)")
    if rng is None:
        raise DomainError("an explicit rng is required")
    theta, alpha = params.theta, params.alpha
    weights = []
    residual = 1.0
    i = 1
    while residual >= epsilon:
        w = rng.beta(1.0 - alpha, theta + i * alpha)
        weights.append(residual * w)
        residual *= 1.0 - w
        i += 1
    return GemWeights(weights=tuple(weights), residual=residual)


def ordered_frequencies(state: PartitionState):
    """Decreasingly sorted relative block frequencies."""
    from .diffusion import SimplexPoint
    n = state.n
    coords = tuple(sorted((s / n for s in state.block_sizes), reverse=True))
    return SimplexPoint(coords=coords, truncation_len=len(coords))

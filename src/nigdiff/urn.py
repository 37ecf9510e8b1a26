"""Sequential sampling from generalized Polya-urn schemes and
stick-breaking, plus partition statistics.

The urn grows one observation at a time: a new type appears with
probability g0(n, k), and an existing type of current size n_j is
reinforced with probability g1(n, k) * (n_j - alpha).  Both urn
samplers read g0 from ``gibbs._g0_rows`` on one grid of _BLOCK steps,
so they read the same g0 bit for bit: one evaluator row per block and
the compiled Gibbs-triangle descent below it.  The batch urn's steps
run compiled too (``_kernels.c`` ``urn_run``).  Every sampler takes a
numpy ``Generator`` and refuses anything else with ``DomainError``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
# Every sampler takes an np.random.Generator and cli._rng builds one, so
# load numpy.random with the package rather than inside the first call.
import numpy.random  # noqa: F401

from . import _kernels
from .errors import DomainError, InternalConsistencyError
from .gibbs import GGParams, PDParams, _check_block_sizes, _g0_rows, _row_cache

_BLOCK = 256  # urn steps per evaluator row, in both samplers


@dataclass
class PartitionState:
    """An exchangeable partition of n items into K blocks."""

    block_sizes: list = field(default_factory=lambda: [1])

    def __post_init__(self):
        _check_block_sizes(self.block_sizes)

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
        _check_block_sizes(self.block_sizes, InternalConsistencyError)

    def shape(self) -> tuple:
        """Canonical (sorted descending) block-size tuple."""
        return tuple(sorted(self.block_sizes, reverse=True))


@dataclass(frozen=True)
class GemWeights:
    """Stick-breaking weights with the undistributed residual mass."""

    weights: tuple
    residual: float


def sample_partition(n: int, params, rng: np.random.Generator
                     ) -> PartitionState:
    """Draw an n-item partition by iterating the urn from one item, one
    uniform u per step as in ``sample_k_batch``: a step at (m, K) opens
    a new block when u < g0(m, K), and otherwise joins block j with
    probability (n_j - alpha)/(m - alpha K), which is
    g1 (n_j - alpha)/(1 - g0) by the Gibbs constraint.  A block's rows
    over an aligned band of K are cached (``gibbs._row_cache``)."""
    if not isinstance(params, (GGParams, PDParams)):
        raise DomainError(f"unsupported parameter type {type(params)!r}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    _kernels.require_generator(rng)
    alpha = params.alpha
    sizes = [1]
    for m0 in range(1, n, _BLOCK):
        m1 = min(n - 1, m0 + _BLOCK - 1)
        lo = len(sizes) - (len(sizes) - 1) % _BLOCK
        rows = _row_cache(m0, m1, lo, lo + _BLOCK - 1, params)
        for i, u in enumerate(rng.random(m1 - m0 + 1).tolist()):
            k = len(sizes)
            g0 = rows.item(i, k - lo)
            if u < g0:
                sizes.append(1)
                continue
            x = (u - g0) / (1.0 - g0) * (m0 + i - alpha * k)
            for j, size in enumerate(sizes):
                x -= size - alpha
                if x < 0.0:
                    sizes[j] = size + 1
                    break
            else:  # only reachable through roundoff at the top of the scale
                sizes[-1] += 1
    return PartitionState(block_sizes=sizes)


def sample_k_batch(n: int, params: GGParams, replicates: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Number of blocks K_n in ``replicates`` independent urn runs,
    grown jointly, one uniform per replicate and step, step-major, as
    one ``rng.random(replicates)`` per step would draw them: a run at
    (m, k) opens a new block when its uniform is below g0(m, k).  The
    steps run in blocks of _BLOCK: each block reads g0, uncached, for
    every state its runs can reach from one evaluator row at its last
    step and the Gibbs-triangle recursion below it (``gibbs._g0_rows``),
    and its steps run in ``_kernels.c`` ``urn_run``, which leaves the
    generator (n - 1) * replicates uniforms on."""
    if not isinstance(params, GGParams):
        raise DomainError(f"sample_k_batch needs GGParams, not "
                          f"{type(params).__name__}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(replicates, numbers.Integral) or replicates < 0:
        raise DomainError(f"replicates must be an integer >= 0, "
                          f"got {replicates!r}")
    _kernels.require_generator(rng)
    k = np.ones(replicates, dtype=np.int64)
    if replicates == 0:
        return k
    for m0 in range(1, n, _BLOCK):
        m1 = min(n - 1, m0 + _BLOCK - 1)
        lo = int(k.min())
        rows = _g0_rows(m0, m1, lo, int(k.max()), params)
        _kernels.run("urn_run", rng, replicates, m1 - m0 + 1, rows.shape[1],
                     lo, rows.ctypes.data, k.ctypes.data)
    return k


def sample_gem(params: PDParams, epsilon: float = 1e-10,
               rng: np.random.Generator = None) -> GemWeights:
    """Stick-breaking weights V_i = W_i * prod_{l<i} (1 - W_l) with
    W_i ~ Beta(1 - alpha, theta + i*alpha), stopped once the residual
    stick is below ``epsilon``."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must be in (0, 1)")
    _kernels.require_generator(rng)
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
    return SimplexPoint(coords=coords)

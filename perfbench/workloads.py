"""The four workloads: the inputs of one round, the public nigdiff call
each item makes, and the compact output each item hands back for the
checks in ``checks.py``.

A round is a fixed list of items, built from (workload, seed, round)
alone. An item is one public call, or one ``nigdiff.cli.run`` of one
experiment with one seed. Every round of a workload does the same
operations, so the share of failed operations is the same in every run.

Functions are looked up on the ``nigdiff`` package at call time, so that
the tracer in ``tracer.py`` sees every call once it has rebound them.
"""

from __future__ import annotations

import math
import os
import random
import shutil

import nigdiff
import nigdiff.cli

import checks

WORKLOADS = ("weights-laws", "kblock-batch", "moran-ensemble", "long-chains")

# weights-laws: criterion-01's grid, the EPPF over every shape with
# n <= 8, a few singleton-count laws and the conditional pair moment.
BETAS = (0.5, 2.0, 10.0)
EXACT_N_MAX = 50
QUAD_N_MAX = 200
EPPF_N_MAX = 8
# (beta, n) laws; (10, 40) is the law whose m = 3 value is 407639.18
M1_LAWS = ((0.5, 12), (0.5, 24), (2.0, 12), (2.0, 24),
           (10.0, 12), (10.0, 24), (10.0, 40))
PHI2_N = 500
PHI2_KS = tuple(range(10, 500, 20))

# kblock-batch: one sample_k_batch call per round, at the NIG case.
KBLOCK = {"beta": 2.0, "n": 1000, "replicates": 1000}

# moran-ensemble: generator-check items; events per path = int(n^2 h / 2)
MORAN_CFG = {"n": 300, "paths": 500, "h": 0.004, "m": 2}
MORAN_ITEMS_PER_ROUND = 4

# long-chains: one particles, one figure1 and one conditioned run per round.
# Their times stand about 1 : 2.5 : 5, so that the median item is a figure1
# run however the host's speed moves. Five s values give the pooled t of
# the conditioned check at least 9 degrees of freedom over two rounds.
CONDITIONED_CFG = {"n": 500, "s_values": [1.0, 1.5, 2.0, 2.5, 3.0],
                   "steps": 800_000, "burn_in": 500_000}
FIGURE1_CFG = {"n": 200, "steps": 60_000, "record_every": 100,
               "betas": [0.0, 100.0, 1000.0]}
PARTICLES_CFG = {"n": 200, "t_max": 3.0, "grid_points": 11, "top": 50}


def quadrature_ks(n: int) -> list:
    """The k values criterion-01 takes at each n for the quadrature route."""
    r = math.isqrt(n)
    return sorted({1, r, 2 * r, n // 2, n - 1, n} & set(range(1, n + 1)))


def integer_partitions(n: int, largest: int = None):
    """Every partition of the integer n, as a descending list."""
    if n == 0:
        yield []
        return
    largest = largest or n
    for first in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield [first] + rest


def _round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def make_items(workload: str, seed: int, rnd: int) -> list:
    """The items of one round, as JSON-able lists."""
    rng = _round_rng(workload, seed, rnd)
    if workload == "weights-laws":
        items = []
        for beta in BETAS:
            for n in range(1, EXACT_N_MAX + 1):
                items += [["exact", beta, n, k] for k in range(1, n + 1)]
            for n in range(2, QUAD_N_MAX + 1):
                items += [["quadrature", beta, n, k]
                          for k in quadrature_ks(n)]
            for n in range(1, EPPF_N_MAX + 1):
                items += [["eppf", beta, shape]
                          for shape in integer_partitions(n)]
        for beta, n in M1_LAWS:
            items += [["m1", beta, n, m] for m in range(n + 1)]
        items += [["phi2", PHI2_N, k] for k in PHI2_KS]
        rng.shuffle(items)
        return items
    if workload == "kblock-batch":
        return [["kblock", KBLOCK["beta"], KBLOCK["n"],
                 KBLOCK["replicates"], rng.randrange(2 ** 31)]]
    if workload == "moran-ensemble":
        return [["cli", "generator-check", MORAN_CFG, rng.randrange(2 ** 31)]
                for _ in range(MORAN_ITEMS_PER_ROUND)]
    if workload == "long-chains":
        s = rng.randrange(2 ** 31)
        return [["cli", "conditioned", CONDITIONED_CFG, s],
                ["cli", "figure1", FIGURE1_CFG, s],
                ["cli", "particles", PARTICLES_CFG, s]]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, items: list) -> int:
    """Operations one round attempts: one per item, except that one
    singleton-count law (all its m) is one operation."""
    if workload == "weights-laws":
        return sum(1 for it in items if it[0] != "m1") + len(M1_LAWS)
    return len(items)


def work_units(item: list) -> int:
    """The workload's unit of work done by one item: calls on
    weights-laws, replicate-steps on kblock-batch, particle events on
    moran-ensemble and chain events or steps on long-chains."""
    kind = item[0]
    if kind == "kblock":
        return item[3] * (item[2] - 1)
    if kind != "cli":
        return 1
    experiment, cfg = item[1], item[2]
    if experiment == "generator-check":
        return cfg["paths"] * int(cfg["n"] ** 2 * cfg["h"] / 2.0)
    if experiment == "conditioned":
        return len(cfg["s_values"]) * cfg["steps"]
    if experiment == "figure1":
        return len(cfg["betas"]) * cfg["steps"]
    if experiment == "particles":
        return int(cfg["t_max"] * cfg["n"] ** 2 / 2.0)
    raise ValueError(f"no work unit for {experiment!r}")


class Runner:
    """Calls nigdiff for the items of one round (``call``, timed) and
    turns the results into check inputs (``collect``, untimed)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._params = {}

    def params(self, beta: float):
        if beta not in self._params:
            self._params[beta] = nigdiff.GGParams.from_beta(beta)
        return self._params[beta]

    def call(self, index: int, item: list):
        kind = item[0]
        if kind == "exact":
            _, beta, n, k = item
            try:
                return nigdiff.weights_gg_exact(n, k, self.params(beta))
            except nigdiff.PrecisionLossError as exc:
                return exc
        if kind == "quadrature":
            _, beta, n, k = item
            return nigdiff.weights_gg_quadrature(n, k, self.params(beta))
        if kind == "eppf":
            return nigdiff.eppf(list(item[2]), self.params(item[1]))
        if kind == "m1":
            _, beta, n, m = item
            try:
                return nigdiff.m1_pmf(n, m, self.params(beta))
            except nigdiff.PrecisionLossError as exc:
                return exc
        if kind == "phi2":
            return nigdiff.conditional_phi2_mean(item[1], item[2], 0.5)
        if kind == "kblock":
            import numpy as np
            _, beta, n, reps, seed = item
            return nigdiff.sample_k_batch(n, self.params(beta), reps,
                                          np.random.default_rng(seed))
        if kind == "cli":
            _, experiment, cfg, seed = item
            out = os.path.join(self.out_dir, str(index))
            nigdiff.cli.run(experiment, dict(cfg), seed, out, "csv")
            return out
        raise ValueError(f"unknown item kind {kind!r}")

    def collect(self, item: list, result):
        kind = item[0]
        if kind in ("exact", "quadrature"):
            if isinstance(result, Exception):
                return item[1:] + [None, None, result.condition_estimate]
            return item[1:] + [result.g0, result.g1]
        if kind == "m1":
            if isinstance(result, Exception):
                return item[1:] + [None]
            return item[1:] + [result]
        if kind in ("eppf", "phi2"):
            return item[1:] + [result]
        if kind == "kblock":
            return {"n": item[2], "beta": item[1],
                    "k": [int(v) for v in result]}
        if kind == "cli":
            parsed = checks.read_cli_output(result, item[1])
            shutil.rmtree(result)
            return parsed
        raise ValueError(f"unknown item kind {kind!r}")

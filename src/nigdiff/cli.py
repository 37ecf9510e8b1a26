"""Reproducible experiment runner.

Usage: nigdiff <experiment> [--config file.json] [--seed N] [--out dir]
                            [--format csv|json]

Every run writes the requested data files plus ``manifest.json``
recording the schema version, the fully resolved configuration, the
package version, the seed, and a SHA-256 checksum of every emitted
file.  A given (config, seed) pair produces byte-identical outputs.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, diffusion, gibbs, particle, urn
from .errors import NigdiffError, PrecisionLossError
from .gibbs import (GGParams, PDParams, eppf, integer_partitions, m1_pmf,
                    shape_count, weights_gg_asymptotic, weights_gg_exact,
                    weights_gg_quadrature, weights_pd)

SCHEMA_VERSION = 1
EXPERIMENTS = ("weights", "eppf-check", "m1-check", "chain", "sde",
               "figure1", "particles", "conditioned", "boundary",
               "generator-check")


# experiments that read the generalized-gamma V or beta, as the chain's
# asymptotic mode does
_GG_ONLY = ("eppf-check", "m1-check", "sde", "boundary", "generator-check")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config handling

def _resolve_params(cfg: dict):
    raw = cfg.get("params", {"a": 1.0, "tau": 1.0, "alpha": 0.5})
    if "theta" in raw:
        return PDParams(theta=float(raw["theta"]),
                        alpha=float(raw.get("alpha", 0.0)))
    if "beta" in raw:
        return GGParams.from_beta(float(raw["beta"]),
                                  tau=float(raw.get("tau", 1.0)),
                                  alpha=float(raw.get("alpha", 0.5)))
    return GGParams(a=float(raw.get("a", 1.0)),
                    tau=float(raw.get("tau", 1.0)),
                    alpha=float(raw.get("alpha", 0.5)))


def _params_dict(params) -> dict:
    if isinstance(params, PDParams):
        return {"theta": params.theta, "alpha": params.alpha}
    return {"a": params.a, "tau": params.tau, "alpha": params.alpha,
            "beta": params.beta}


def _rng(seed: int, replicate: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, replicate]))


# ---------------------------------------------------------------------------
# Experiments: each returns {filename_stem: (header, rows)}

def _exp_weights(cfg, params, seed):
    if isinstance(params, PDParams):
        routes = {"pd": lambda n, k: weights_pd(n, k, params)}
    else:
        routes = {
            "exact": lambda n, k: weights_gg_exact(n, k, params),
            "quadrature": lambda n, k: weights_gg_quadrature(n, k, params),
            "asymptotic": lambda n, k: weights_gg_asymptotic(n, k, params),
        }
    ns = cfg.get("ns", [5, 10, 20, 50])
    rows = []
    for n in ns:
        ks = cfg.get("ks") or sorted({1, max(1, int(math.isqrt(n))), n})
        for k in ks:
            for route, fn in routes.items():
                try:
                    w = fn(int(n), int(k))
                except PrecisionLossError as exc:
                    rows.append([n, k, route, float("nan"), float("nan"),
                                 exc.condition_estimate or float("nan"),
                                 float("nan")])
                    continue
                rows.append([n, k, route, w.g0, w.g1, w.condition_estimate,
                             w.g0 + (n - params.alpha * k) * w.g1 - 1.0])
    return {"weights": (["n", "k", "route", "g0", "g1", "condition",
                         "constraint_residual"], rows)}


def _exp_eppf_check(cfg, params, seed):
    n = int(cfg.get("n", 6))
    replicates = int(cfg.get("replicates", 100_000))
    if n > 12:
        raise UsageError("eppf-check supports n <= 12")
    rng = _rng(seed)
    counts = {}
    for _ in range(replicates):
        shape = urn.sample_partition(n, params, rng).shape()
        counts[shape] = counts.get(shape, 0) + 1
    rows = []
    total = 0.0
    for shape in map(tuple, integer_partitions(n)):
        prob = eppf(shape, params) * shape_count(shape)
        total += prob
        freq = counts.get(shape, 0) / replicates
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / replicates)
        rows.append(["|".join(map(str, shape)), prob, freq,
                     (freq - prob) / se])
    rows.append(["TOTAL", total, 1.0, 0.0])
    return {"eppf": (["shape", "probability", "mc_frequency", "z_score"],
                     rows)}


def _exp_m1_check(cfg, params, seed):
    n = int(cfg.get("n", 10))
    replicates = int(cfg.get("replicates", 100_000))
    rng = _rng(seed)
    counts = np.zeros(n + 1)
    for _ in range(replicates):
        state = urn.sample_partition(n, params, rng)
        counts[sum(1 for s in state.block_sizes if s == 1)] += 1
    freqs = counts / replicates
    pmf = np.array([m1_pmf(n, m, params) for m in range(n + 1)])
    rows = [[m, pmf[m], freqs[m]] for m in range(n + 1)]
    rows.append(["TV", 0.5 * float(np.abs(pmf - freqs).sum()), 0.0])
    return {"m1": (["m", "pmf", "mc_frequency"], rows)}


def _exp_chain(cfg, params, seed):
    n = int(cfg.get("n", 200))
    steps = int(cfg.get("steps", 10_000))
    k0 = int(cfg.get("k0", max(1, round(math.sqrt(n)))))
    mode = cfg.get("mode", "exact")
    record_every = int(cfg.get("record_every", 1))
    path = diffusion.simulate_chain(n, steps, k0, params, _rng(seed),
                                    mode=mode, record_every=record_every)
    rows = [[i * record_every, t, v]
            for i, (t, v) in enumerate(zip(path.times, path.values))]
    return {"chain": (["step", "time_rescaled", "value"], rows)}


def _exp_sde(cfg, params, seed):
    s0 = float(cfg.get("s0", 1.0))
    dt = float(cfg.get("dt", 1e-3))
    steps = int(cfg.get("steps", 10_000))
    path = diffusion.simulate_sde(s0, params.beta, dt, steps, _rng(seed))
    rows = [[i, t, v] for i, (t, v)
            in enumerate(zip(path.times, path.values))]
    return {"sde": (["step", "time_rescaled", "value"], rows)}


def _exp_figure1(cfg, params, seed):
    n = int(cfg.get("n", 200))
    steps = int(cfg.get("steps", 300_000))
    k0 = int(cfg.get("k0", 1))  # start at 1/sqrt(n) in rescaled units
    betas = cfg.get("betas", [0.0, 100.0, 1000.0])
    record_every = int(cfg.get("record_every", 100))
    out = {}
    for beta in sorted(float(b) for b in betas):
        path = diffusion.simulate_chain(n, steps, k0, GGParams.from_beta(beta),
                                        _rng(seed, int(beta)), mode="exact",
                                        record_every=record_every)
        rows = [[i * record_every, t, v]
                for i, (t, v) in enumerate(zip(path.times, path.values))]
        out[f"figure1_beta{beta:g}"] = (["step", "time_rescaled", "value"],
                                        rows)
    return out


def _exp_particles(cfg, params, seed):
    n = int(cfg.get("n", 100))
    t_max = float(cfg.get("t_max", 0.05))
    grid_len = int(cfg.get("grid_points", 11))
    top = int(cfg.get("top", 50))
    embedding = cfg.get("embedding", "discrete")
    rng = _rng(seed)
    sys0 = particle.ParticleSystem.initialize(n, params, rng)
    grid = [i * t_max / (grid_len - 1) for i in range(grid_len)]
    path = particle.simulate_rescaled(sys0, grid, params, rng, top=top,
                                      embedding=embedding)
    rows = []
    for t, kv, freqs, phi2 in zip(path.grid, path.k_rescaled,
                                  path.frequencies, path.phi2):
        padded = list(freqs) + [0.0] * (top - len(freqs))
        rows.append([t, kv, phi2] + padded[:top])
    header = (["time_rescaled", "k_rescaled", "phi2"]
              + [f"z{i+1}" for i in range(top)])
    return {"particles": (header, rows)}


def _exp_conditioned(cfg, params, seed):
    n = int(cfg.get("n", 500))
    s_values = cfg.get("s_values", [1.0, 2.0, 3.0])
    steps = int(cfg.get("steps", 400_000))
    burn_in = int(cfg.get("burn_in", steps // 10))
    rows = []
    for rep, s in enumerate(s_values):
        rng = _rng(seed, rep)
        k = max(1, min(n, round(float(s) * math.sqrt(n))))
        sizes = particle.balanced_sizes(n, k)
        avg = particle.conditioned_phi2_average(sizes, steps, params.alpha,
                                                rng, burn_in=burn_in)
        theta = float(s) ** 2 / 4.0
        oracle = (1.0 - params.alpha) / (theta + 1.0)
        exact = gibbs.conditional_phi2_mean(n, k, params.alpha)
        rows.append([s, k, avg, exact, oracle, avg / oracle - 1.0])
    return {"conditioned": (["s", "k", "phi2_time_average",
                             "stationary_exact", "pd_oracle",
                             "relative_error_vs_pd"], rows)}


def _exp_boundary(cfg, params, seed):
    beta = params.beta
    if beta <= 0:
        raise UsageError("boundary experiment requires beta > 0")
    xs = cfg.get("x_grid") or list(np.geomspace(0.1, 50.0, 20))
    rows = [[float(x), diffusion.scale_function(float(x), beta)]
            for x in xs]
    speed_rows = []
    for c in (1e-2, 1e-4, 1e-6):
        speed_rows.append([c, 1.0, diffusion.speed_measure(c, 1.0, beta)])
    for d in (10.0, 100.0, 1000.0):
        speed_rows.append([1.0, d, diffusion.speed_measure(1.0, d, beta)])
    tail_rows = [[t, diffusion.stationary_tail_partial_integral(t, beta)]
                 for t in (1e2, 1e4, 1e6)]
    return {
        "scale": (["x", "scale"], rows),
        "speed": (["c", "d", "measure"], speed_rows),
        "stationary_tail": (["T", "partial_integral"], tail_rows),
    }


def _exp_generator_check(cfg, params, seed):
    n = int(cfg.get("n", 300))
    paths = int(cfg.get("paths", 10_000))
    h = float(cfg.get("h", 0.004))
    m = int(cfg.get("m", 2))
    events = int(n * n * h / 2.0)
    if n < 2:
        raise UsageError(f"generator-check needs n >= 2, got {n}")
    if paths < 2:
        raise UsageError("generator-check needs paths >= 2 for a standard "
                         f"error, got {paths}")
    if m < 2:
        raise UsageError(f"generator-check needs m >= 2, got {m}")
    if events < 1:
        raise UsageError("generator-check needs n^2 h / 2 >= 1 event, got "
                         f"{n * n * h / 2.0:g}")
    sys0 = particle.ParticleSystem.initialize(n, params, _rng(seed))
    s = sys0.K / math.sqrt(n)
    point = diffusion.SimplexPoint(coords=sys0.ordered_frequencies(),
                                   truncation_len=sys0.K)
    predicted = diffusion.generator_action_power_sum(m, s, point, params)
    phi0 = sys0.phi(m)
    start = np.broadcast_to(sys0.assignments, (paths, n))
    counts = particle.moran_ensemble(start, events, params, _rng(seed, 1))[1]
    samples = np.zeros(paths)
    for column in counts.T:  # by slot, to keep temporaries at O(paths)
        samples += (column / n) ** m
    fd = (samples.mean() - phi0) / h
    se = samples.std(ddof=1) / math.sqrt(paths) / h
    rows = [[m, h, fd, se, predicted, (fd - predicted) / se]]
    return {"generator": (["m", "h", "finite_difference", "mc_se",
                           "generator_prediction", "z_score"], rows)}


_RUNNERS = {
    "weights": _exp_weights,
    "eppf-check": _exp_eppf_check,
    "m1-check": _exp_m1_check,
    "chain": _exp_chain,
    "sde": _exp_sde,
    "figure1": _exp_figure1,
    "particles": _exp_particles,
    "conditioned": _exp_conditioned,
    "boundary": _exp_boundary,
    "generator-check": _exp_generator_check,
}


# ---------------------------------------------------------------------------
# Output

def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, header, rows):
    payload = {"columns": header,
               "rows": [[v if not isinstance(v, float) else float(_fmt(v))
                         for v in row] for row in rows]}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(experiment: str, cfg: dict, seed: int, out_dir: str,
        fmt: str) -> list:
    """Run one experiment and write its data files plus manifest.json.
    Returns the list of written file paths."""
    if experiment not in _RUNNERS:
        raise UsageError(f"unknown experiment {experiment!r}")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    params = _resolve_params(cfg)
    if not isinstance(params, GGParams) and (experiment in _GG_ONLY or (
            experiment, cfg.get("mode")) == ("chain", "asymptotic")):
        raise UsageError(f"{experiment} needs generalized-gamma params "
                         "(a, tau, alpha or beta)")
    os.makedirs(out_dir, exist_ok=True)
    tables = _RUNNERS[experiment](cfg, params, seed)
    writer = _write_csv if fmt == "csv" else _write_json
    files = {}
    for stem in sorted(tables):
        header, rows = tables[stem]
        path = os.path.join(out_dir, f"{stem}.{fmt}")
        writer(path, header, rows)
        files[os.path.basename(path)] = _sha256(path)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "package_version": __version__,
        "seed": seed,
        "format": fmt,
        "config": {**cfg, "params": _params_dict(params)},
        "files": files,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return [os.path.join(out_dir, name) for name in files] + [manifest_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nigdiff",
        description="Experiment runner for Gibbs-type predictive weights, "
                    "alpha-diversity diffusions and Moran-type particle "
                    "systems.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="RNG seed (required here "
                        "or in the config; no wall-clock seeding)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    try:
        cfg = {}
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise UsageError("config must be a JSON object")
            declared = cfg.get("schema_version", SCHEMA_VERSION)
            if declared != SCHEMA_VERSION:
                raise UsageError(
                    f"unsupported schema_version {declared!r}")
            if "experiment" in cfg and cfg["experiment"] != args.experiment:
                raise UsageError(
                    f"config is for experiment {cfg['experiment']!r}, "
                    f"not {args.experiment!r}")
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None:
            raise UsageError("a seed is required (--seed or config)")
        fmt = args.format or cfg.get("format", "csv")
        written = run(args.experiment, cfg, int(seed), args.out, fmt)
    except (UsageError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NigdiffError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

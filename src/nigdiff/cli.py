"""Reproducible experiment runner.

Usage: nigdiff <experiment> [--config file.json] [--seed N] [--out dir]
                            [--format csv|json]

``EXPERIMENT_TABLE`` declares each experiment's runner, the params it
reads and its config keys with their defaults.  Besides those keys a
config may carry ``schema_version``, ``experiment``, ``seed`` and
``format``; any other key, params keys outside (theta, alpha), (beta,
tau, alpha) and (a, tau, alpha), a non-integer for an integer key, a
boolean, a string or a non-finite number for a numeric one, and a list
key that is not a list of such numbers exit 2 before any file is written.
Every run writes its data files plus ``manifest.json``: schema and
package versions, seed, SHA-256 of every file and the resolved config,
every declared key at the value used and the params with their defaults
filled in.  That config, given back with the same seed, reproduces every
data file byte for byte.

Exit codes: 0 success, 1 the compiled event loops could not be built
(gcc is missing or failed), 2 usage/configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, _kernels, diffusion, gibbs, particle, urn
from .errors import KernelCompileError, NigdiffError
from .gibbs import (GGParams, PDParams, eppf, integer_partitions, m1_pmf,
                    shape_count, weights_gg_asymptotic, weights_gg_exact,
                    weights_gg_quadrature, weights_pd)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config handling

def _resolve_params(raw):
    """The params object and its manifest form: the given keys, as
    floats, over the defaults of the form that theta or beta picks."""
    if not isinstance(raw, dict):
        raise UsageError("params must be a JSON object")
    make, defaults = (
        (PDParams, {"alpha": 0.0}) if "theta" in raw else
        (GGParams.from_beta, {"tau": 1.0, "alpha": 0.5}) if "beta" in raw
        else (GGParams, {"a": 1.0, "tau": 1.0, "alpha": 0.5}))
    try:
        resolved = {**defaults,
                    **{k: _coerce(k, v, 0.0) for k, v in raw.items()}}
        return make(**resolved), resolved
    except TypeError:
        raise UsageError(f"params keys {sorted(raw)} are not one of (theta, "
                         "alpha), (beta, tau, alpha) or (a, tau, alpha)"
                         ) from None


# list keys and the kind of number each entry must be
_LIST_KEYS = {"ns": int, "ks": int, "betas": float, "s_values": float,
              "x_grid": float}


def _coerce(key, value, default):
    """A given numeric value, never a boolean or a string: a float for a
    float default, an integer (200.0 counts) for an int default, k0 and
    burn_in.  A list key takes a nonempty list of such numbers (ks and
    x_grid also null), kept as given."""
    if key in _LIST_KEYS:
        if value is None and default is None:
            return None
        if not isinstance(value, list) or not value:
            raise UsageError(f"{key} must be a nonempty list of numbers, "
                             f"not {value!r}")
        for entry in value:
            _number(key, entry, _LIST_KEYS[key] is int)
        return value
    integral = isinstance(default, int) or (
        key in ("k0", "burn_in") and value is not None)
    if not (integral or isinstance(default, float)):
        return value
    return _number(key, value, integral)


def _number(key, value, integral):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            integral and isinstance(value, float) and not value.is_integer()
            ) or not (integral or abs(value) <= sys.float_info.max):
        kind = "an integer" if integral else "a finite number"
        raise UsageError(f"{key} must be {kind}, not {value!r}")
    return int(value) if integral else float(value)


def _rng(seed: int, replicate: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, replicate]))


# ---------------------------------------------------------------------------
# Experiments: each takes the resolved config, returns
# {filename_stem: (header, rows)}

def _path_table(path, record_every=1):
    rows = [[i * record_every, t, v]
            for i, (t, v) in enumerate(zip(path.times, path.values))]
    return ["step", "time_rescaled", "value"], rows


def _exp_weights(cfg, params, seed):
    if isinstance(params, PDParams):
        routes = {"pd": weights_pd}
    elif params.alpha == 0.5:
        routes = {"exact": weights_gg_exact,
                  "quadrature": weights_gg_quadrature,
                  "asymptotic": weights_gg_asymptotic}
    else:  # the exact sums and the expansion are derived at alpha = 1/2
        routes = {"quadrature": weights_gg_quadrature}
    rows = []
    for n in cfg["ns"]:
        ks = cfg["ks"] or sorted({1, max(1, math.isqrt(int(n))), n})
        for k in ks:
            for route, fn in routes.items():
                w = fn(int(n), int(k), params)
                rows.append([n, k, route, w.g0, w.g1, w.condition_estimate,
                             w.g0 + (n - params.alpha * k) * w.g1 - 1.0])
    return {"weights": (["n", "k", "route", "g0", "g1", "condition",
                         "constraint_residual"], rows)}


def _exp_eppf_check(cfg, params, seed):
    n, replicates = cfg["n"], cfg["replicates"]
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
    n, replicates = cfg["n"], cfg["replicates"]
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
    if cfg["mode"] == "asymptotic" and not isinstance(params, GGParams):
        raise UsageError("chain in asymptotic mode needs generalized-gamma "
                         "params (a, tau, alpha or beta)")
    if cfg["k0"] is None:  # start at s = k/n^alpha = 1
        cfg["k0"] = max(1, round(cfg["n"] ** params.alpha))
    path = diffusion.simulate_chain(cfg["n"], cfg["steps"], cfg["k0"],
                                    params, _rng(seed), mode=cfg["mode"],
                                    record_every=cfg["record_every"])
    return {"chain": _path_table(path, cfg["record_every"])}


def _exp_sde(cfg, params, seed):
    path = diffusion.simulate_sde(cfg["s0"], params.beta, cfg["dt"],
                                  cfg["steps"], _rng(seed))
    return {"sde": _path_table(path)}


def _exp_figure1(cfg, params, seed):
    betas = sorted(float(b) for b in cfg["betas"])
    stems = [f"figure1_beta{beta:g}" for beta in betas]
    if len(set(stems)) < len(stems):
        raise UsageError(f"figure1 betas {betas} name one file twice")
    out = {}
    for i, (beta, stem) in enumerate(zip(betas, stems)):
        path = diffusion.simulate_chain(
            cfg["n"], cfg["steps"], cfg["k0"], GGParams.from_beta(beta),
            _rng(seed, i), mode="exact", record_every=cfg["record_every"])
        out[stem] = _path_table(path, cfg["record_every"])
    return out


def _exp_particles(cfg, params, seed):
    n, t_max, grid_len, top = (cfg[key] for key in
                               ("n", "t_max", "grid_points", "top"))
    rng = _rng(seed)
    sys0 = particle.ParticleSystem.initialize(n, params, rng)
    grid = [i * t_max / (grid_len - 1) for i in range(grid_len)]
    path = particle.simulate_rescaled(sys0, grid, params, rng, top=top,
                                      embedding=cfg["embedding"])
    rows = []
    for t, kv, freqs, phi2 in zip(path.grid, path.k_rescaled,
                                  path.frequencies, path.phi2):
        padded = list(freqs) + [0.0] * (top - len(freqs))
        rows.append([t, kv, phi2] + padded[:top])
    header = (["time_rescaled", "k_rescaled", "phi2"]
              + [f"z{i+1}" for i in range(top)])
    return {"particles": (header, rows)}


def _exp_conditioned(cfg, params, seed):
    n = cfg["n"]
    if cfg["burn_in"] is None:
        cfg["burn_in"] = cfg["steps"] // 10
    try:
        ks = [max(1, min(n, round(float(s) * math.sqrt(n))))
              for s in cfg["s_values"]]
        oracles = [(1.0 - params.alpha) / (float(s) ** 2 / 4.0 + 1.0)
                   for s in cfg["s_values"]]
    except OverflowError:
        raise UsageError(f"s^2 overflows at s in {cfg['s_values']}") from None

    def job(rep):  # None, the exact table, holds the GIL and runs last
        if rep is None:
            return gibbs.conditional_phi2_mean(n, ks, params.alpha)
        return particle.conditioned_phi2_average(
            particle.balanced_sizes(n, ks[rep]), cfg["steps"], params.alpha,
            _rng(seed, rep), burn_in=cfg["burn_in"])
    exacts, *avgs = _kernels.map_threads(job, [None, *range(len(ks))])
    rows = [[s, k, avg, exact, oracle, avg / oracle - 1.0]
            for s, k, avg, exact, oracle
            in zip(cfg["s_values"], ks, avgs, exacts, oracles)]
    return {"conditioned": (["s", "k", "phi2_time_average",
                             "stationary_exact", "pd_oracle",
                             "relative_error_vs_pd"], rows)}


def _exp_boundary(cfg, params, seed):
    beta = params.beta
    if beta <= 0:
        raise UsageError("boundary experiment requires beta > 0")
    if not cfg["x_grid"]:
        cfg["x_grid"] = np.geomspace(0.1, 50.0, 20).tolist()
    rows = [[float(x), diffusion.scale_function(float(x), beta)]
            for x in cfg["x_grid"]]
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
    n, paths, h, m = (cfg[key] for key in ("n", "paths", "h", "m"))
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
    point = diffusion.SimplexPoint(coords=sys0.ordered_frequencies())
    predicted = diffusion.generator_action_power_sum(m, s, point, params)
    phi0 = sys0.phi(m)
    start = np.broadcast_to(sys0.slots, (paths, n))
    counts = particle.moran_ensemble(start, events, params, _rng(seed, 1))[1]
    samples = particle._power_sums(counts, m)
    fd = (samples.mean() - phi0) / h
    se = samples.std(ddof=1) / math.sqrt(paths) / h
    rows = [[m, h, fd, se, predicted, (fd - predicted) / se]]
    return {"generator": (["m", "h", "finite_difference", "mc_se",
                           "generator_prediction", "z_score"], rows)}


# name: (runner, params read: "any", "gg" (generalized-gamma only, for
# formulas in V or beta), "half" (any at alpha = 1/2, for the alpha = 1/2
# scaling), "nig" (generalized gamma at alpha = 1/2) or "none",
# {config key: default}).  A given value for an int or float default is
# read by ``_coerce``.  The runner works out a None default from the
# other inputs and writes it back, but ks stays None: {1, isqrt(n), n}
# for each n.
EXPERIMENT_TABLE = {
    "weights": (_exp_weights, "any", {"ns": [5, 10, 20, 50], "ks": None}),
    "eppf-check": (_exp_eppf_check, "gg", {"n": 6, "replicates": 100_000}),
    "m1-check": (_exp_m1_check, "gg", {"n": 10, "replicates": 100_000}),
    "chain": (_exp_chain, "any", {"n": 200, "steps": 10_000, "k0": None,
                                  "mode": "exact", "record_every": 1}),
    "sde": (_exp_sde, "nig", {"s0": 1.0, "dt": 1e-3, "steps": 10_000}),
    "figure1": (_exp_figure1, "none", {"n": 200, "steps": 300_000, "k0": 1,
                "record_every": 100, "betas": [0.0, 100.0, 1000.0]}),
    "particles": (_exp_particles, "half", {"n": 100, "t_max": 0.05,
                  "grid_points": 11, "top": 50, "embedding": "discrete"}),
    "conditioned": (_exp_conditioned, "half", {"n": 500, "steps": 400_000,
                    "s_values": [1.0, 2.0, 3.0], "burn_in": None}),
    "boundary": (_exp_boundary, "nig", {"x_grid": None}),
    "generator-check": (_exp_generator_check, "nig", {"n": 300,
                        "paths": 10_000, "h": 0.004, "m": 2}),
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
    if experiment not in EXPERIMENT_TABLE:
        raise UsageError(f"unknown experiment {experiment!r}")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")
    runner, reads, defaults = EXPERIMENT_TABLE[experiment]
    keys = set(defaults) | ({"params"} if reads != "none" else set())
    if unknown := sorted(set(cfg) - keys):
        raise UsageError(f"{experiment} takes no key {', '.join(unknown)}; "
                         f"its keys are {', '.join(sorted(keys))}")
    resolved = {key: _coerce(key, cfg[key], default) if key in cfg
                else default for key, default in defaults.items()}
    params = None
    if reads != "none":
        params, resolved["params"] = _resolve_params(cfg.get("params", {}))
        if reads in ("gg", "nig") and not isinstance(params, GGParams):
            raise UsageError(f"{experiment} needs generalized-gamma params "
                             "(a, tau, alpha or beta)")
        if reads in ("half", "nig") and params.alpha != 0.5:
            raise UsageError(f"{experiment} runs the alpha = 1/2 scaling "
                             f"and needs alpha = 0.5, not {params.alpha:g}")
    tables = runner(resolved, params, seed)
    os.makedirs(out_dir, exist_ok=True)
    writer = _write_csv if fmt == "csv" else _write_json
    files = {}
    for stem in sorted(tables):
        header, rows = tables[stem]
        path = os.path.join(out_dir, f"{stem}.{fmt}")
        writer(path, header, rows)
        files[os.path.basename(path)] = _sha256(path)
    manifest = {"schema_version": SCHEMA_VERSION, "experiment": experiment,
                "package_version": __version__, "seed": seed, "format": fmt,
                "config": resolved, "files": files}
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
    parser.add_argument("experiment", choices=EXPERIMENT_TABLE)
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
        # the runner's own keys; what is left is the experiment's config
        version = cfg.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise UsageError(f"unsupported schema_version {version!r}")
        bound = cfg.pop("experiment", args.experiment)
        if bound != args.experiment:
            raise UsageError(f"config is for experiment {bound!r}, "
                             f"not {args.experiment!r}")
        seed, fmt = cfg.pop("seed", None), cfg.pop("format", "csv")
        seed = args.seed if args.seed is not None else seed
        if seed is None:
            raise UsageError("a seed is required (--seed or config)")
        written = run(args.experiment, cfg, int(seed), args.out,
                      args.format or fmt)
    except (UsageError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NigdiffError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except KernelCompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

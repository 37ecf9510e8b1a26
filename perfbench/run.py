"""Benchmark of nigdiff: one named workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round of the workload runs in a
fresh single-threaded process (``worker.py``) that imports nigdiff from
the checkout's ``src``; rounds repeat until the next one would end more
than half a round after ``--seconds``, with at least two. The outputs of
every round are checked (``checks.py``); a failed check ends the run
with exit code 1 and no result line.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` half the time goes to plain
rounds and half to traced rounds, and the metrics are the per-layer ones
from the traced rounds plus the ratio of traced to plain round time; the
spans go to ``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

# Pin every thread pool before anything imports numpy, here and in the
# workers; the figure1 experiment's process pool stays off.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NIGDIFF_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
# as in workloads.py, which imports nigdiff; the launcher does not
WORKLOADS = ("weights-laws", "kblock-batch", "moran-ensemble", "long-chains")

MIN_ROUNDS = 2          # the pooled statistical checks need two seeds
SETUP_SAMPLES = 3       # set-up is measured at least this often per run
ROUND_TIMEOUT_S = 170
PROBE_ITERATIONS = 1_000_000
MAX_THREADS = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "item_ms_p50": "ms", "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def host_probe_ms() -> float:
    """A fixed pure-Python loop; printed beside the metrics so that a
    slow host can be told apart from a slow commit."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i
    return (time.perf_counter() - t0) * 1e3


def spawn(workload: str, seed: int, rnd: int, trace: bool = False,
          setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--round", str(rnd)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"round {rnd} ran past {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RunError(f"round {rnd} exited with {proc.returncode}:\n"
                       + proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def run_rounds(workload: str, seed: int, budget: float, first: int,
               min_rounds: int, trace: bool = False) -> list:
    """Rounds first, first+1, ... until the next would end more than half
    a round after ``budget`` seconds (at least ``min_rounds``), so that a run
    takes ``budget`` seconds on average whatever the round length."""
    start = time.monotonic()
    rounds = []
    while True:
        result = spawn(workload, seed, first + len(rounds), trace)
        if result["threads"] > MAX_THREADS:
            raise RunError(f"a worker ran {result['threads']} threads")
        result["wall_s"] = sum(result["item_s"])
        rounds.append(result)
        elapsed = time.monotonic() - start
        if (len(rounds) >= min_rounds
                and elapsed * (1 + 0.5 / len(rounds)) > budget):
            return rounds


def check(workload: str, rounds: list) -> int:
    """Run the output checks; return the number of failed operations."""
    outputs = [out for r in rounds for out in r["outputs"]]
    if workload == "weights-laws":
        return sum(checks.check_weights_laws(r["items"], r["outputs"])
                   for r in rounds)
    if workload == "kblock-batch":
        checks.check_kblock(outputs)
    elif workload == "moran-ensemble":
        checks.check_moran(outputs)
    else:
        checks.check_long_chains(outputs)
    return 0


def end_to_end(workload: str, seed: int, rounds: list) -> dict:
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, 0, setup_only=True)["setup_s"])
    items = sorted(s for r in rounds for s in r["item_s"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "work_per_s": (sum(r["units"] for r in rounds)
                       / sum(r["wall_s"] for r in rounds)),
        "item_ms_p50": statistics.median(items) * 1e3,
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024.0,
    }
    print(f"rounds {len(rounds)}, items {len(items)}, set-up samples "
          f"{len(setups)}")
    if len(items) >= 40:
        # the highest percentile with at least ten items beyond it
        print(f"item_ms_tail {items[-11] * 1e3:.4f} ms "
              f"(p{100 * (len(items) - 10) / len(items):.1f} of "
              f"{len(items)} items; not a gated metric)")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


PER_LAYER = (
    # name, unit, function, quantity
    ("specfun.gen_factorial_coeff_log_table.ms_per_call", "ms",
     "specfun.gen_factorial_coeff_log_table", "ms_per_call"),
    ("gibbs.weights_gg_exact.calls", "count/round",
     "gibbs.weights_gg_exact", "calls"),
    ("gibbs.weights_gg_exact.us_per_call", "us",
     "gibbs.weights_gg_exact", "us_per_call"),
    ("gibbs.weights_gg_exact.refused", "count/round",
     "gibbs.weights_gg_exact", "refused"),
    ("gibbs.weights_gg_quadrature.us_per_call", "us",
     "gibbs.weights_gg_quadrature", "us_per_call"),
    ("gibbs.log_v.calls", "count/round", "gibbs.log_v", "calls"),
    ("gibbs.log_v.us_per_call", "us", "gibbs.log_v", "us_per_call"),
    ("gibbs.log_v.hit_ratio", "ratio", "gibbs.log_v", "hit_ratio"),
    ("gibbs.w_factor_batch.calls", "count/round",
     "gibbs.w_factor_batch", "calls"),
    ("gibbs.w_factor_batch.us_per_element", "us",
     "gibbs.w_factor_batch", "us_per_size"),
    ("gibbs.eppf.us_per_call", "us", "gibbs.eppf", "us_per_call"),
    ("gibbs.m1_pmf.us_per_call", "us", "gibbs.m1_pmf", "us_per_call"),
    ("gibbs.conditional_phi2_mean.ms_per_call", "ms",
     "gibbs.conditional_phi2_mean", "ms_per_call"),
    ("urn.predictive_weights.calls", "count/round",
     "urn.predictive_weights", "calls"),
    ("urn.predictive_weights.hit_ratio", "ratio",
     "urn.predictive_weights", "hit_ratio"),
    ("urn.predictive_weights.exact_fallbacks", "count/round",
     "gibbs.weights_gg_exact", "fallbacks"),
    ("urn.sample_partition.ms_per_call", "ms",
     "urn.sample_partition", "ms_per_call"),
    ("urn.sample_k_batch.self_ms_per_step", "ms",
     "urn.sample_k_batch", "self_ms_per_size"),
    ("diffusion.chain_transition_probs.calls", "count/round",
     "diffusion.chain_transition_probs", "calls"),
    ("diffusion.simulate_chain_ensemble.ns_per_replica_step", "ns",
     "diffusion.simulate_chain_ensemble", "ns_per_size"),
    ("particle.moran_step.calls", "count/round",
     "particle.moran_step", "calls"),
    ("particle.moran_step.ns_per_event", "ns",
     "particle.moran_step", "ns_per_call"),
    ("particle.ParticleSystem.us_per_build", "us",
     "particle.ParticleSystem", "us_per_call"),
    ("particle.conditioned_phi2_average.ns_per_event", "ns",
     "particle.conditioned_phi2_average", "ns_per_size"),
    ("particle.simulate_rescaled.self_ms", "ms",
     "particle.simulate_rescaled", "self_ms_per_call"),
    ("cli.run.self_ms", "ms", "cli.run", "self_ms_per_call"),
)


def _quantity(row: list, cache: list, quantity: str, rounds: int) -> float:
    """A per-layer number from the summed [calls, total_s, self_s, size,
    refused, fallbacks] of a function; 0 where it was never called."""
    calls, total, self_time, size, refused, fallbacks = row
    if quantity == "calls":
        return calls / rounds
    if quantity == "refused":
        return refused / rounds
    if quantity == "fallbacks":
        return fallbacks / rounds
    if quantity == "hit_ratio":
        return cache[0] / (cache[0] + cache[1]) if sum(cache) else 0.0
    unit, _, per = quantity.rpartition("_per_")
    scale = {"ms": 1e3, "us": 1e6, "ns": 1e9, "self_ms": 1e3}[unit]
    numerator = self_time if unit.startswith("self") else total
    denominator = size if per == "size" else calls
    return numerator * scale / denominator if denominator else 0.0


def per_layer(plain: list, traced: list) -> dict:
    functions, caches = {}, {}
    for r in traced:
        for name, row in r["trace"]["functions"].items():
            acc = functions.setdefault(name, [0] * len(row))
            functions[name] = [a + b for a, b in zip(acc, row)]
        for name, pair in r["trace"]["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            caches[name] = [acc[0] + pair[0], acc[1] + pair[1]]
    metrics = {}
    for name, unit, function, quantity in PER_LAYER:
        value = _quantity(functions.get(function, [0] * 6),
                          caches.get(function, [0, 0]), quantity,
                          len(traced))
        metrics[name] = {"value": value, "unit": unit}
    ratio = (statistics.median(r["wall_s"] for r in traced)
             / statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def write_trace(workload: str, seed: int, traced: list) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "rounds": [{"round": i, "wall_s": r["wall_s"],
                               "functions": r["trace"]["functions"],
                               "caches": r["trace"]["caches"],
                               "spans": r["trace"]["spans"]}
                              for i, r in enumerate(traced)]}, fh)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    probe_before = host_probe_ms()
    try:
        if args.trace:
            plain = run_rounds(args.workload, args.seed, args.seconds / 2,
                               0, 1)
            traced = run_rounds(args.workload, args.seed, args.seconds / 2,
                                len(plain), 1, trace=True)
            rounds = plain + traced
        else:
            rounds = run_rounds(args.workload, args.seed, args.seconds, 0,
                                MIN_ROUNDS)
        probe_after = host_probe_ms()
        failed = check(args.workload, rounds)
        if args.trace:
            metrics = per_layer(plain, traced)
            path = write_trace(args.workload, args.seed, traced)
            print(f"trace spans: {path}")
        else:
            metrics = end_to_end(args.workload, args.seed, rounds)
    except (RunError, checks.CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"host_probe_ms before {probe_before:.2f} after {probe_after:.2f} "
          f"({PROBE_ITERATIONS} additions; not folded into the metrics)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    attempted = sum(r["ops"] for r in rounds)
    print(f"operations attempted {attempted} failed {failed}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line runner: determinism, manifests, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import nigdiff
from nigdiff.cli import SCHEMA_VERSION, _rng, main
from nigdiff.diffusion import simulate_chain
from nigdiff.gibbs import GGParams


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def test_same_seed_is_byte_identical(tmp_path):
    a, b, c = (tmp_path / s for s in "abc")
    for out in (a, b):
        assert main(["sde", "--seed", "7", "--out", str(out)]) == 0
    assert main(["sde", "--seed", "8", "--out", str(c)]) == 0
    assert _sha(a / "sde.csv") == _sha(b / "sde.csv")
    assert _sha(a / "sde.csv") != _sha(c / "sde.csv")


def test_manifest_is_complete_and_checksummed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ns": [4, 9], "params": {"beta": 2.0}}))
    assert main(["weights", "--seed", "1", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--format", "json"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["experiment"] == "weights"
    assert manifest["package_version"] == nigdiff.__version__
    assert manifest["seed"] == 1
    assert manifest["format"] == "json"
    assert manifest["config"]["ns"] == [4, 9]
    assert manifest["config"]["params"]["beta"] == pytest.approx(2.0)
    for name, digest in manifest["files"].items():
        assert _sha(tmp_path / "o" / name) == digest
    assert "weights.json" in manifest["files"]


def test_seed_can_come_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "steps": 10}))
    assert main(["chain", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "chain.csv").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    # missing seed
    assert main(["sde", "--out", str(tmp_path / "a")]) == 2
    # malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sde", "--seed", "1", "--config", str(bad),
                 "--out", str(tmp_path / "b")]) == 2
    # config bound to a different experiment
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"experiment": "chain"}))
    assert main(["sde", "--seed", "1", "--config", str(other),
                 "--out", str(tmp_path / "c")]) == 2
    # unsupported schema version
    vers = tmp_path / "vers.json"
    vers.write_text(json.dumps({"schema_version": 99}))
    assert main(["sde", "--seed", "1", "--config", str(vers),
                 "--out", str(tmp_path / "d")]) == 2
    # unknown experiment is rejected by argparse itself
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment", "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_numerical_failures_exit_3(tmp_path, capsys):
    # the closed-form scale function overflows double precision at x = 0.1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta": 50}}))
    assert main(["boundary", "--seed", "1", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_boundary_experiment_outputs(tmp_path):
    assert main(["boundary", "--seed", "3",
                 "--out", str(tmp_path / "o")]) == 0
    names = sorted(os.listdir(tmp_path / "o"))
    assert names == ["manifest.json", "scale.csv", "speed.csv",
                     "stationary_tail.csv"]
    header = (tmp_path / "o" / "scale.csv").read_text().splitlines()[0]
    assert header == "x,scale"


def test_m1_check_small_n_reports_small_tv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "replicates": 20000}))
    assert main(["m1-check", "--seed", "11", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "m1.csv").read_text().splitlines()
    tv = float(lines[-1].split(",")[1])
    assert tv < 0.02


def test_eppf_check_covers_every_shape(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "replicates": 20000}))
    assert main(["eppf-check", "--seed", "4", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "o" / "eppf.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["5", "4|1", "3|2", "3|1|1", "2|2|1",
                                    "2|1|1|1", "1|1|1|1|1", "TOTAL"]
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-9)
    assert sum(float(r[2]) for r in rows[:-1]) == pytest.approx(1.0)
    assert all(abs(float(r[3])) < 4.5 for r in rows[:-1])


@pytest.mark.parametrize("cfg", [
    {"params": {"theta": 1.0}, "n": 20, "paths": 20},   # no beta to use
    {"n": 1, "paths": 20},                              # no particle pair
    {"n": 20, "paths": 1},                              # no standard error
    {"n": 10, "paths": 20, "h": 0.001},                 # n^2 h / 2 < 1
])
def test_generator_check_bad_config_exits_2(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["generator-check", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "generator-check" in capsys.readouterr().err
    assert not (tmp_path / "o" / "generator.csv").exists()


@pytest.mark.parametrize("experiment, cfg", [
    ("eppf-check", {}), ("m1-check", {}), ("sde", {}), ("boundary", {}),
    ("chain", {"mode": "asymptotic"}),
])
def test_gg_only_experiments_refuse_pd_params(tmp_path, capsys, experiment,
                                              cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg,
                                "params": {"theta": 1.5, "alpha": 0.3}}))
    assert main([experiment, "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert experiment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["sde", "boundary", "particles",
                                        "conditioned", "generator-check"])
def test_alpha_half_diffusion_experiments_refuse_other_alpha(
        tmp_path, capsys, experiment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"a": 1, "alpha": 0.3}}))
    assert main([experiment, "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert experiment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["particles", "conditioned"])
def test_alpha_half_experiments_take_poisson_dirichlet_at_alpha_half(
        tmp_path, experiment):
    path = tmp_path / "cfg.json"
    for params, code in (({"theta": 1.0, "alpha": 0.5}, 0),
                         ({"theta": 1.0}, 2)):  # alpha = 0 by default
        path.write_text(json.dumps({**SMALL[experiment][0],
                                    "params": params}))
        assert main([experiment, "--seed", "1", "--config", str(path),
                     "--out", str(tmp_path / str(code))]) == code


def test_chain_off_alpha_half_uses_the_alpha_clock_and_starts_at_s_1(
        tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 100, "steps": 10,
                                "params": {"a": 1, "alpha": 0.3}}))
    assert main(["chain", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "o" / "chain.csv").read_text().splitlines()[1:]]
    # one step is one tick n^-(1 + alpha) of chain_increment_moments
    assert float(rows[1][1]) == 1 / 100 ** 1.3
    k0 = round(100 ** 0.3)
    assert float(rows[0][2]) == k0 / 100 ** 0.3
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["k0"] == k0


def test_generator_check_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40, "paths": 200, "h": 0.01}))
    for out in ("a", "b"):
        assert main(["generator-check", "--seed", "3", "--config", str(cfg),
                     "--out", str(tmp_path / out)]) == 0
    first = tmp_path / "a" / "generator.csv"
    assert _sha(first) == _sha(tmp_path / "b" / "generator.csv")
    z = float(first.read_text().splitlines()[1].split(",")[-1])
    assert abs(z) < 5.0


def test_unknown_config_key_exits_2_before_any_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"step": 10}))  # chain's key is "steps"
    assert main(["chain", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "step" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, params", [
    ("chain", {"Beta": 5}),                 # unknown key
    ("chain", {"theta": 1, "beta": 5}),     # Poisson-Dirichlet and beta
    ("chain", {"a": 1, "beta": 2}),         # a and beta
    ("figure1", {"beta": 2}),               # figure1 reads no params
])
def test_bad_params_exit_2_before_any_file(tmp_path, capsys, experiment,
                                           params):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": params}))
    assert main([experiment, "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "params" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# a small config for every experiment, with every key its manifest records
SMALL = {
    "weights": ({"ns": [4, 9]}, {"ns", "ks", "params"}),
    "eppf-check": ({"n": 4, "replicates": 200}, {"n", "replicates", "params"}),
    "m1-check": ({"n": 5, "replicates": 200}, {"n", "replicates", "params"}),
    "chain": ({"n": 50, "steps": 200},
              {"n", "steps", "k0", "mode", "record_every", "params"}),
    "sde": ({"steps": 200}, {"s0", "dt", "steps", "params"}),
    "figure1": ({"n": 50, "steps": 500, "record_every": 10,
                 "betas": [0.0, 100.0]},
                {"n", "steps", "k0", "record_every", "betas"}),
    "particles": ({"n": 30, "t_max": 0.02, "grid_points": 3, "top": 5},
                  {"n", "t_max", "grid_points", "top", "embedding",
                   "params"}),
    "conditioned": ({"n": 50, "s_values": [1.0], "steps": 2000},
                    {"n", "s_values", "steps", "burn_in", "params"}),
    "boundary": ({}, {"x_grid", "params"}),
    "generator-check": ({"n": 40, "paths": 50, "h": 0.01},
                        {"n", "paths", "h", "m", "params"}),
}


def _run_small(tmp_path, experiment, cfg, out):
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(cfg))
    assert main([experiment, "--seed", "3", "--config", str(path),
                 "--out", str(tmp_path / out)]) == 0
    return json.loads((tmp_path / out / "manifest.json").read_text())


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_manifest_records_every_declared_key(tmp_path, experiment):
    cfg, keys = SMALL[experiment]
    config = _run_small(tmp_path, experiment, cfg, "o")["config"]
    assert set(config) == keys
    assert {k: config[k] for k in cfg} == cfg
    derived = {"weights": ("ks", None), "chain": ("k0", 7),
               "conditioned": ("burn_in", 200)}
    if experiment in derived:
        key, value = derived[experiment]
        assert config[key] == value
    if experiment == "boundary":
        assert len(config["x_grid"]) == 20


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_manifest_config_reproduces_every_data_file(tmp_path, experiment):
    first = _run_small(tmp_path, experiment, SMALL[experiment][0], "a")
    again = _run_small(tmp_path, experiment, first["config"], "b")
    assert again["config"] == first["config"]
    assert again["files"] == first["files"]
    for name, digest in again["files"].items():
        assert _sha(tmp_path / "b" / name) == digest


@pytest.mark.parametrize("experiment, cfg", [
    ("chain", {"n": 20.7, "steps": 5}),      # int key, non-integral float
    ("chain", {"steps": True}),              # int key, boolean
    ("chain", {"steps": 5, "k0": 3.5}),      # derived int key
    ("conditioned", {"n": 50, "s_values": [1.0], "steps": 100,
                     "burn_in": 10.5}),      # derived int key
    ("sde", {"steps": 5, "dt": True}),       # float key, boolean
    ("chain", {"steps": 5, "params": {"beta": True}}),  # params, boolean
], ids=["n-float", "steps-bool", "k0-float", "burn_in-float", "dt-bool",
        "params-bool"])
def test_numeric_keys_refuse_truncation_and_booleans(tmp_path, capsys,
                                                     experiment, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([experiment, "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_integral_floats_count_as_integers(tmp_path):
    # 20.0 runs as 20, and the manifest records the integers used
    given = _run_small(tmp_path, "chain", {"n": 20.0, "steps": 50.0,
                                           "k0": 3.0}, "a")
    plain = _run_small(tmp_path, "chain", {"n": 20, "steps": 50, "k0": 3},
                       "b")
    assert given == plain
    for key in ("n", "steps", "k0"):
        assert type(given["config"][key]) is int


@pytest.mark.parametrize("experiment, cfg", [
    ("weights", {"ns": [5.5, 10], "ks": [2]}),  # int list, non-integral
    ("weights", {"ns": [5], "ks": [2.7]}),
    ("weights", {"ns": [True, 10]}),            # int list, boolean
    ("weights", {"ns": 5}),                     # not a list
    ("conditioned", {"n": 50, "steps": 1000, "s_values": [True]}),
    ("conditioned", {"n": 50, "steps": 1000, "s_values": ["1"]}),
    ("figure1", {"n": 50, "steps": 500, "betas": [False, 2.0]}),
    ("boundary", {"x_grid": ["0.5", 1.0]}),
    ("sde", {"steps": 5, "dt": "0.01"}),        # numeric string
    ("chain", {"steps": 5, "params": {"beta": "2"}}),
    ("weights", {"ns": [5], "ks": []}),         # empty lists
    ("weights", {"ns": []}),
    ("boundary", {"x_grid": []}),
    ("conditioned", {"n": 50, "steps": 1000, "s_values": []}),
], ids=["ns-float", "ks-float", "ns-bool", "ns-scalar", "s_values-bool",
        "s_values-string", "betas-bool", "x_grid-string", "dt-string",
        "params-string", "ks-empty", "ns-empty", "x_grid-empty",
        "s_values-empty"])
def test_list_entries_and_numeric_strings_exit_2(tmp_path, capsys,
                                                 experiment, cfg):
    # each of these ran before, on a truncated or converted value, on the
    # defaults (an empty ks or x_grid) or on nothing at all
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([experiment, "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_list_entries_are_kept_as_given(tmp_path):
    # integral floats and integers still count, and the files and the
    # manifest hold them as given
    manifest = _run_small(tmp_path, "weights", {"ns": [5.0, 10], "ks": [2]},
                          "a")
    assert manifest["config"]["ns"] == [5.0, 10]
    assert manifest["files"] == _run_small(
        tmp_path, "weights", {"ns": [5, 10], "ks": [2.0]}, "b")["files"]
    manifest = _run_small(tmp_path, "conditioned", {
        "n": 50, "steps": 2000, "s_values": [1, 2.0]}, "c")
    assert manifest["config"]["s_values"] == [1, 2.0]
    rows = (tmp_path / "c" / "conditioned.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


def test_weights_default_ks_take_integral_floats(tmp_path):
    # ns = [5.0] with ks null gives k in {1, 2, 5} as for ns = [5]
    first = _run_small(tmp_path, "weights", {"ns": [5.0]}, "a")
    assert first["files"] == _run_small(tmp_path, "weights", {"ns": [5]},
                                        "b")["files"]


def test_missing_compiler_exits_1_with_one_error_line(tmp_path):
    # no gcc on PATH: one error line with the compiler's message, no
    # traceback and no file
    env = {**os.environ, "PATH": str(tmp_path / "nonexistent"),
           "PYTHONPATH": os.path.dirname(os.path.dirname(nigdiff.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "nigdiff.cli", "conditioned", "--seed", "1",
         "--out", str(tmp_path / "o")], env=env, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "'gcc'" in line
    assert not (tmp_path / "o").exists()


def test_weights_off_alpha_half_runs_only_the_quadrature_route(tmp_path):
    # the exact sums and the large-n expansion are derived at alpha = 1/2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ns": [5, 20],
                                "params": {"a": 1, "alpha": 0.3}}))
    assert main(["weights", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "o" / "weights.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("5", "1"), ("5", "2"), ("5", "5"), ("20", "1"), ("20", "4"),
        ("20", "20")]
    assert {r[2] for r in rows} == {"quadrature"}
    assert all(abs(float(r[6])) < 1e-12 for r in rows)


def test_weights_answers_every_exact_state(tmp_path):
    # at (120, 1) and beta = 10 the sums cancel 48.6 digits, more than
    # 50 digits can spare; the exact route answers at a higher precision
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ns": [120], "ks": [1],
                                "params": {"beta": 10}}))
    assert main(["weights", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    rows = {r[2]: r for r in (line.split(",") for line in (
        tmp_path / "o" / "weights.csv").read_text().splitlines()[1:])}
    exact, quadrature = rows["exact"], rows["quadrature"]
    assert math.isfinite(float(exact[3])) and math.isfinite(float(exact[4]))
    assert float(exact[3]) == pytest.approx(float(quadrature[3]), rel=1e-12)
    assert float(exact[5]) > 34.0
    assert abs(float(exact[6])) < 1e-12


def test_figure1_keys_each_stream_on_the_position_of_its_beta(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = {"n": 50, "steps": 500, "record_every": 10, "betas": [0.7, 0.3]}
    path.write_text(json.dumps(cfg))
    assert main(["figure1", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0
    for i, beta in enumerate((0.3, 0.7)):
        want = simulate_chain(50, 500, 1, GGParams.from_beta(beta),
                              _rng(1, i), record_every=10).values
        lines = (tmp_path / "o" / f"figure1_beta{beta:g}.csv").read_text()
        got = tuple(float(line.split(",")[2])
                    for line in lines.splitlines()[1:])
        assert got == want, beta


@pytest.mark.parametrize("betas", [[2, 2], [2.0, 2.0000001]])
def test_figure1_refuses_betas_that_name_one_file(tmp_path, capsys, betas):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 50, "steps": 100, "betas": betas}))
    assert main(["figure1", "--seed", "1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "betas" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

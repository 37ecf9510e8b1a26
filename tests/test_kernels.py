"""The compiled loops against their numpy and pure-Python references in
conftest.py: the block-count chain bit for bit against the per-step
numpy loop, the Moran loop bit for bit against its mirror in both modes,
the ensemble's rows as successive mirror runs with counts rebuilt from
their slots, the batch urn's steps against the per-step numpy loop, each
run leaving the generator just past the last uniform it read, under
numpy's default bit generator and three others, runs from two threads on
one generator, the chain's law where the numpy loop's is wrong, the
refusals, a warning-free compile of the source, ctypes signatures for
every function in it, and the lazy gcc build with its cache, counted by
a gcc wrapper in fresh processes."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import nigdiff
from nigdiff import _kernels, diffusion, gibbs, particle
from nigdiff.diffusion import _transition_tables, simulate_chain_ensemble
from nigdiff.errors import DomainError, KernelCompileError
from nigdiff.gibbs import GGParams, PDParams
from nigdiff.particle import particle_run

from conftest import (numpy_chain_ensemble, numpy_urn_run,
                      python_particle_run)

N_CHAIN = 40


@pytest.mark.parametrize("beta", [0.0, 2.0, 1000.0])
@pytest.mark.parametrize("replicates", [1, 7, 20])
@pytest.mark.parametrize("k0", [1, N_CHAIN])
def test_chain_matches_numpy_loop(beta, replicates, k0):
    params = GGParams.from_beta(beta)
    p_up, p_down = _transition_tables(N_CHAIN, params, "exact")
    assert (p_up[1:-1] + p_down[2:]).max() <= 1.0
    for record_every in (1, 3, 250):
        for seed in range(5):
            rng_a = np.random.default_rng([seed, record_every])
            rng_b = np.random.default_rng([seed, record_every])
            got = simulate_chain_ensemble(N_CHAIN, 3_000, k0, params,
                                          replicates, rng_a,
                                          record_every=record_every)
            want = numpy_chain_ensemble(p_up, p_down, 3_000, k0, replicates,
                                        rng_b, record_every)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert rng_a.random() == rng_b.random()


def test_chain_spans_several_chunks():
    # a long run of 7 replicas, recorded every 97 steps: the rows line up
    # with the numpy loop's, and the loop draws no uniform past its last
    # step
    params = GGParams.from_beta(100.0)
    p_up, p_down = _transition_tables(N_CHAIN, params, "exact")
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    got = simulate_chain_ensemble(N_CHAIN, 30_001, 1, params, 7, rng_a,
                                  record_every=97)
    want = numpy_chain_ensemble(p_up, p_down, 30_001, 1, 7, rng_b, 97)
    assert np.array_equal(got, want)
    assert rng_a.random() == rng_b.random()


def test_chain_law_where_moves_could_overlap(monkeypatch):
    # p_up[2] + p_down[3] > 1: the numpy loop's second test, taken at the
    # updated k, would undo some up-moves; the kernel decides both moves
    # from the pre-step k, so every k moves with its own probabilities
    p_up = np.array([0.0, 0.5, 0.7, 0.3, 0.0])
    p_down = np.array([0.0, 0.0, 0.2, 0.6, 0.5])
    monkeypatch.setattr(diffusion, "_transition_tables",
                        lambda n, params, mode: (p_up, p_down))
    out = simulate_chain_ensemble(4, 50_000, 2, GGParams.from_beta(2.0), 20,
                                  np.random.default_rng(8))
    before, step = out[:-1].ravel(), np.diff(out, axis=0).ravel()
    for k in range(1, 5):
        at = before == k
        visits = at.sum()
        for moved, p in ((1, p_up[k]), (-1, p_down[k])):
            freq = (step[at] == moved).mean()
            se = np.sqrt(max(p * (1 - p), 1e-12) / visits)
            assert abs(freq - p) < 5.0 * se


def _start(sizes, n):
    slots = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    return slots, np.bincount(slots, minlength=n).astype(np.int32)


def _urn_run(rows, lo, k, rng):
    _kernels.run("urn_run", rng, k.size, rows.shape[0], rows.shape[1], lo,
                 rows.ctypes.data, k.ctypes.data)


@pytest.mark.parametrize("params", [GGParams.from_beta(0.5),
                                    GGParams.from_beta(10.0),
                                    PDParams(theta=1.5, alpha=0.3)])
@pytest.mark.parametrize("free", [True, False])
def test_particle_run_matches_python_mirror(params, free):
    n = 30
    sizes = [9, 6, 4, 3, 2, 1, 1, 1, 1, 1, 1]
    g0 = particle._g0_table(n, params) if free else None
    for seed in range(3):
        uniforms = np.random.default_rng(seed).random(100_000).tolist()
        *want, used = python_particle_run(*_start(sizes, n), 6_000,
                                          params.alpha, uniforms, g0=g0,
                                          burn_in=500)
        slots, counts = _start(sizes, n)
        rng = np.random.default_rng(seed)
        total = particle_run(slots, counts, 6_000, params.alpha, rng, g0=g0,
                             burn_in=500)
        assert [slots.tolist(), counts.tolist(), total] == want
        assert rng.random() == uniforms[used]


def test_successive_runs_read_one_unbroken_stream():
    # two runs of 1,000 events on one generator read exactly the uniforms
    # of one run of 2,000, and leave it where that run leaves it
    params = GGParams.from_beta(2.0)
    n, sizes = 20, [8, 5, 3, 2, 1, 1]
    g0 = particle._g0_table(n, params)
    uniforms = np.random.default_rng(4).random(50_000).tolist()
    slots, counts, _, used = python_particle_run(
        *_start(sizes, n), 2_000, params.alpha, uniforms, g0=g0)
    rng = np.random.default_rng(4)
    got = _start(sizes, n)
    for _ in range(2):
        particle_run(*got, 1_000, params.alpha, rng, g0=g0)
    assert got[0].tolist() == slots and got[1].tolist() == counts
    assert rng.random() == uniforms[used]


def test_threads_sharing_a_generator_take_turns():
    # ctypes releases the GIL, so two threads could draw from one
    # generator at once; under its lock the runs take turns, whatever the
    # order: one reads the stream from the start, the other from where
    # the first stopped, and the generator ends past both
    params = GGParams.from_beta(2.0)
    n, sizes, events = 20, [8, 5, 3, 2, 1, 1], 50_000
    g0 = particle._g0_table(n, params)
    uniforms = np.random.default_rng(6).random(1_000_000).tolist()
    *first, used = python_particle_run(*_start(sizes, n), events,
                                       params.alpha, uniforms, g0=g0)
    *second, more = python_particle_run(*_start(sizes, n), events,
                                        params.alpha, uniforms[used:], g0=g0)
    want = sorted([first, second])

    def one_run(rng, barrier, got):
        slots, counts = _start(sizes, n)
        barrier.wait(timeout=60)
        total = particle_run(slots, counts, events, params.alpha, rng, g0=g0)
        got.append([slots.tolist(), counts.tolist(), total])

    for _ in range(5):
        rng, barrier, got = (np.random.default_rng(6), threading.Barrier(2),
                             [])
        threads = [threading.Thread(target=one_run, args=(rng, barrier, got))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert sorted(got) == want
        assert rng.random() == uniforms[used + more]


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox,
                                  np.random.SFC64])
def test_loops_read_any_bit_generator(bits):
    # the loops call the bit generator through numpy's bitgen_t, so its
    # layout is checked by a mirror run under each bit generator
    params = GGParams.from_beta(2.0)
    n, sizes = 20, [8, 5, 3, 2, 1, 1]
    g0 = particle._g0_table(n, params)
    for table in (g0, None):
        uniforms = np.random.Generator(bits(7)).random(50_000).tolist()
        *want, used = python_particle_run(*_start(sizes, n), 3_000,
                                          params.alpha, uniforms, g0=table,
                                          burn_in=100)
        rng = np.random.Generator(bits(7))
        got = _start(sizes, n)
        total = particle_run(*got, 3_000, params.alpha, rng, g0=table,
                             burn_in=100)
        assert [got[0].tolist(), got[1].tolist(), total] == want
        assert rng.random() == uniforms[used]
    p_up, p_down = _transition_tables(N_CHAIN, params, "exact")
    rng_a, rng_b = np.random.Generator(bits(8)), np.random.Generator(bits(8))
    got = simulate_chain_ensemble(N_CHAIN, 2_000, 1, params, 3, rng_a,
                                  record_every=7)
    want = numpy_chain_ensemble(p_up, p_down, 2_000, 1, 3, rng_b, 7)
    assert np.array_equal(got, want)
    assert rng_a.random() == rng_b.random()
    rows, k = gibbs._g0_rows(1, 299, 1, 1, params), np.ones(5, np.int64)
    rng_a, rng_b = np.random.Generator(bits(9)), np.random.Generator(bits(9))
    want = numpy_urn_run(rows, 1, k, rng_b)
    _urn_run(rows, 1, k, rng_a)
    assert np.array_equal(k, want)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("params", [GGParams.from_beta(0.5),
                                    GGParams.from_beta(10.0, alpha=0.3),
                                    PDParams(theta=1.5, alpha=0.3)],
                         ids=["beta0.5", "alpha0.3", "pd"])
def test_urn_run_matches_numpy_loop(params):
    # runs that start at several block counts above the band's lowest,
    # over a band of rows that starts far from k = 1
    m0, lo, hi = 400, 20, 31
    rows = gibbs._g0_rows(m0, m0 + 299, lo, hi, params)
    for seed in range(3):
        k0 = np.random.default_rng([seed, 1]).integers(lo, hi + 1, 50)
        for steps in (0, 1, 300):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            k = k0.copy()
            want = numpy_urn_run(rows[:steps], lo, k, rng_b)
            _urn_run(rows[:steps], lo, k, rng_a)
            assert np.array_equal(k, want)
            assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("params", [GGParams.from_beta(2.0),
                                    PDParams(theta=1.5, alpha=0.3)])
@pytest.mark.parametrize("reps", [1, 3, 17])
@pytest.mark.parametrize("events", [0, 1, 50])
@pytest.mark.parametrize("skip", [7, 1 << 16])
def test_ensemble_rows_are_successive_mirror_runs(params, reps, events, skip):
    # row r is the free mirror run that starts where row r - 1's stopped
    # on one unbroken uniform sequence, which starts where the generator
    # stood: after `skip` uniforms drawn before the call
    n = 12
    g0 = particle._g0_table(n, params)
    for seed in range(3):
        start = np.random.default_rng([seed, 1]).integers(0, n, (reps, n))
        uniforms = np.random.default_rng(seed).random(
            skip + 50_000)[skip:].tolist()
        rng = np.random.default_rng(seed)
        rng.random(skip)
        slots, counts = particle.moran_ensemble(start, events, params, rng)
        assert slots.dtype == counts.dtype == np.int32
        used = 0
        for r in range(reps):
            row_counts = np.bincount(start[r], minlength=n)
            want_slots, want_counts, _, read = python_particle_run(
                start[r], row_counts, events, params.alpha, uniforms[used:],
                g0=g0)
            assert slots[r].tolist() == want_slots
            assert counts[r].tolist() == want_counts
            used += read
        if events == 0:
            assert used == 0 and np.array_equal(slots, start)
        assert rng.random() == uniforms[used]


@pytest.mark.parametrize("events", [0, 30])
def test_ensemble_counts_each_row_from_its_slots(events):
    # the loop rebuilds a row's counts from its slots alone: labels with
    # gaps, out of first-appearance order and different in every row
    params, n = GGParams.from_beta(2.0), 10
    start = np.array([[9, 9, 2, 2, 2, 7, 0, 0, 5, 9],
                      [3, 8, 8, 1, 1, 1, 1, 6, 6, 3],
                      [4] * n,
                      list(range(n - 1, -1, -1)),
                      [5, 0, 5, 0, 5, 0, 5, 0, 5, 0]])
    g0 = particle._g0_table(n, params)
    for seed in range(3):
        uniforms = np.random.default_rng(seed).random(50_000).tolist()
        slots, counts = particle.moran_ensemble(start, events, params,
                                                np.random.default_rng(seed))
        used = 0
        for r, row in enumerate(start):
            want_slots, want_counts, _, read = python_particle_run(
                row, np.bincount(row, minlength=n), events, params.alpha,
                uniforms[used:], g0=g0)
            assert slots[r].tolist() == want_slots
            assert counts[r].tolist() == want_counts
            assert np.array_equal(counts[r],
                                  np.bincount(slots[r], minlength=n))
            used += read
        if events == 0:
            assert np.array_equal(slots, start) and used == 0


def test_kernel_source_compiles_without_warnings():
    # the source stays free of gcc's common and conversion warnings
    proc = subprocess.run(["gcc", "-Wall", "-Wextra", "-Wconversion",
                           "-Werror", "-fsyntax-only", _kernels._SOURCE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_CTYPES = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32,
           "double": ctypes.c_double, "void": None}


def test_every_kernel_has_its_ctypes_signature():
    # without argtypes ctypes would pass a Python int as a 32-bit C int
    # and silently corrupt an int64_t argument, so every function the
    # source defines has its return type and one ctypes type per
    # parameter: the C type, or c_void_p for a pointer
    with open(_kernels._SOURCE) as fh:
        source = fh.read()
    defined = re.findall(r"^(\w+) (\w+)\(([^)]*)\)\s*\{", source,
                         re.MULTILINE)
    assert {name for _, name, _ in defined} == {
        "chain_run", "particle_run", "g0_descend", "urn_run"}
    for result, name, params in defined:
        fn = getattr(_kernels.lib(), name)
        want = [ctypes.c_void_p if "*" in param
                else _CTYPES[param.split()[-2]]
                for param in params.split(",")]
        assert fn.restype is _CTYPES[result], name
        assert fn.argtypes == want, name


def test_particle_run_refusals():
    rng = np.random.default_rng(0)
    slots, counts = _start([3, 1], 4)
    with pytest.raises(DomainError):  # one particle
        particle_run(slots[:1], np.ones(1, np.int32), 5, 0.5, rng,
                     g0=np.empty(0))
    for burn_in in (-1, 5, 6):
        with pytest.raises(DomainError):
            particle_run(slots, counts, 5, 0.5, rng, burn_in=burn_in)
    with pytest.raises(DomainError):
        particle_run(slots, counts, 5, 1.0, rng)
    with pytest.raises(DomainError):
        particle_run(slots.astype(np.int64), counts, 5, 0.5, rng)
    with pytest.raises(DomainError):
        particle_run(slots, counts[::-1], 5, 0.5, rng)
    with pytest.raises(DomainError):
        particle_run(slots + 4, counts, 5, 0.5, rng)
    with pytest.raises(DomainError):
        particle_run(slots, counts, 5, 0.5, rng, g0=np.full(4, 0.1))
    assert (slots.tolist(), counts.tolist()) == ([0, 0, 0, 1], [3, 1, 0, 0])


@pytest.mark.parametrize("rng", [np.random.RandomState(0),
                                 np.random.PCG64(0), None],
                         ids=["RandomState", "PCG64", "None"])
def test_loops_refuse_an_rng_that_is_not_a_generator(rng):
    params = GGParams.from_beta(2.0)
    slots, counts = _start([3, 1], 4)
    with pytest.raises(DomainError, match="Generator"):
        particle_run(slots, counts, 5, 0.5, rng)
    with pytest.raises(DomainError, match="Generator"):
        particle_run(slots, counts, 5, 0.5, rng,
                     g0=particle._g0_table(4, params))
    with pytest.raises(DomainError, match="Generator"):
        particle.moran_ensemble(np.stack([slots, slots]), 5, params, rng)
    with pytest.raises(DomainError, match="Generator"):
        simulate_chain_ensemble(N_CHAIN, 10, 1, params, 2, rng)
    rows, k = gibbs._g0_rows(1, 9, 1, 1, params), np.ones(2, np.int64)
    with pytest.raises(DomainError, match="Generator"):
        _urn_run(rows, 1, k, rng)
    assert (slots.tolist(), counts.tolist()) == ([0, 0, 0, 1], [3, 1, 0, 0])
    assert k.tolist() == [1, 1]


def test_missing_compiler_is_a_clear_error(monkeypatch):
    monkeypatch.setattr(_kernels, "_COMMAND", ("no-such-compiler-nigdiff",))
    with pytest.raises(KernelCompileError, match="no-such-compiler-nigdiff"):
        _kernels.lib.__wrapped__()
    monkeypatch.setattr(_kernels, "_COMMAND", ("gcc", "-no-such-flag"))
    with pytest.raises(KernelCompileError, match="-no-such-flag"):
        _kernels.lib.__wrapped__()


_SCRIPT = ("import numpy as np, nigdiff\n"
           "from nigdiff import _kernels\n"
           "assert _kernels.lib.cache_info().currsize == 0\n"
           "print(repr(nigdiff.conditioned_phi2_average("
           "[5, 3, 1], 2_000, 0.5, np.random.default_rng(0), burn_in=100)))\n")


@pytest.fixture
def fresh(tmp_path):
    """Run ``_SCRIPT`` in a fresh process, with XDG_CACHE_HOME at a given
    path, behind a gcc wrapper that logs each call; returns the stdout
    and the number of compiles so far.  HOME and TMPDIR are directories
    of their own, which the caller can check stay empty."""
    package = os.path.dirname(nigdiff.__file__)
    wrappers, log = tmp_path / "bin", tmp_path / "gcc.log"
    wrappers.mkdir()
    for name in ("home", "tmp"):
        (tmp_path / name).mkdir()
    gcc = wrappers / "gcc"
    gcc.write_text(f'#!/bin/sh\necho "$*" >> {log}\n'
                   f'exec {shutil.which("gcc")} "$@"\n')
    gcc.chmod(0o755)

    def run(cache):
        env = {"PATH": f"{wrappers}{os.pathsep}"
                       f"{os.environ.get('PATH', '/usr/bin:/bin')}",
               "PYTHONPATH": os.path.dirname(package),
               "HOME": str(tmp_path / "home"), "TMPDIR": str(tmp_path / "tmp"),
               "XDG_CACHE_HOME": str(cache), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        calls = log.read_text().splitlines() if log.exists() else []
        return proc.stdout, sum(" -o " in call for call in calls)
    return run


def _entries(cache):
    return sorted((cache / "nigdiff").iterdir())


def _gcc_calls(tmp_path):
    """The calls that the ``fresh`` fixture's gcc wrapper has logged."""
    return (tmp_path / "gcc.log").read_text().splitlines()


def test_fresh_process_builds_without_leaving_files(tmp_path, fresh):
    # one compile; its one file is the cache entry
    package = os.path.dirname(nigdiff.__file__)
    before = sorted(os.listdir(package))
    out, compiles = fresh(tmp_path / "cache")
    assert 0.0 < float(out) < 1.0 and compiles == 1
    [entry] = _entries(tmp_path / "cache")
    assert entry.name.startswith("_kernels-") and entry.suffix == ".so"
    assert (tmp_path / "cache" / "nigdiff").stat().st_mode & 0o777 == 0o700
    assert sorted(os.listdir(package)) == before
    assert os.listdir(tmp_path / "tmp") == os.listdir(tmp_path / "home") == []


def test_second_fresh_process_loads_the_cached_build(tmp_path, fresh):
    # the key reads the compiler binary, not its output, so a warm load
    # calls gcc not at all
    first, _ = fresh(tmp_path / "cache")
    entries, calls = _entries(tmp_path / "cache"), _gcc_calls(tmp_path)
    second, compiles = fresh(tmp_path / "cache")
    assert compiles == 1 and second == first
    assert _entries(tmp_path / "cache") == entries
    assert _gcc_calls(tmp_path) == calls


def test_other_entries_are_kept(tmp_path, fresh):
    # a checkout of another source keeps its entry: nothing is pruned
    (tmp_path / "cache" / "nigdiff").mkdir(parents=True, mode=0o700)
    other = tmp_path / "cache" / "nigdiff" / f"_kernels-{'0' * 64}.so"
    other.write_bytes(b"another source")
    fresh(tmp_path / "cache")
    assert len(_entries(tmp_path / "cache")) == 2
    assert other.read_bytes() == b"another source"


@pytest.mark.parametrize("unusable", ["regular-file", "group-writable"])
def test_unusable_cache_falls_back_to_a_temporary_build(tmp_path, fresh,
                                                        unusable):
    cache = tmp_path / "cache"
    if unusable == "regular-file":
        cache.write_text("not a directory")
    else:
        (cache / "nigdiff").mkdir(parents=True)
        (cache / "nigdiff").chmod(0o770)
    for compiles in (1, 2):  # no entry, so every process builds
        out, count = fresh(cache)
        assert 0.0 < float(out) < 1.0 and count == compiles
    if unusable == "regular-file":
        assert cache.read_text() == "not a directory"
    else:
        assert _entries(cache) == []
    assert os.listdir(tmp_path / "tmp") == os.listdir(tmp_path / "home") == []


def test_truncated_cache_entry_is_rebuilt_and_replaced(tmp_path, fresh):
    # dlopen would map a truncated library and die of SIGBUS; its seal
    # fails instead, and the entry is rebuilt in place
    first, _ = fresh(tmp_path / "cache")
    [entry] = _entries(tmp_path / "cache")
    whole = entry.read_bytes()
    for size in (0, 100, len(whole) // 2, len(whole) - 1):
        entry.write_bytes(whole[:size])
        out, compiles = fresh(tmp_path / "cache")
        assert out == first and _entries(tmp_path / "cache") == [entry]
        assert entry.read_bytes() == whole
    assert compiles == 5

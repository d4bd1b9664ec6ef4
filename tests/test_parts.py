"""Blocked passes run in two contiguous halves: the same bits on one CPU or
two, one persistent worker thread, and every public call on the calling
thread."""

import functools
import hashlib
import inspect
import os
import re
import select
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from entchar import cli, criteria, families, linalg, measurement, posterior
from entchar.errors import ConfigError

B = families.BLOCK


@pytest.fixture
def set_cpus(monkeypatch):
    """Set how many CPUs ``in_parts`` sees: one runs a pass whole, two split it."""
    def set_(k):
        monkeypatch.setattr(families, "_usable_cpus", lambda: k)
    return set_


def two_param_set(n):
    """n two-parameter states on a (p, b) lattice: w_3 = w_4 in every state."""
    p = np.linspace(0.0, 1.0, n)
    return families.TestSet(families.two_param_bell_weights(p, p * (np.arange(n) % 101) / 100))


BUILDS = {"simplex": lambda n: families.simplex_prior_bell_diagonal(n, seed=4),
          "grid": two_param_set}


def pass_outputs(ts):
    """What each split pass writes: the Bell weights, the state scalars and
    mask, the kernel output, and posterior weights under a uniform and a
    given prior."""
    rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=2)
    prior = np.random.default_rng(5).dirichlet(np.ones(ts.n_states))
    return [ts.bell_weights, ts.negativities, ts.purities, ts.entangled,
            posterior.log_likelihood_vector(ts, rec), posterior.update_posterior(ts, rec).weights,
            posterior.update_posterior(families.TestSet(ts.bell_weights, prior), rec).weights]


def digest(a) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).digest()


@pytest.mark.parametrize("n", [2 * B + 3, 5 * B + 7])
@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_outputs_do_not_depend_on_the_split(set_cpus, build, n):
    results = []
    for k in (1, 2):
        set_cpus(k)
        results.append(pass_outputs(build(n)))
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def test_two_halves_draw_one_stream(set_cpus):
    # The second half jumps its own generator ahead, here past 30 of 61
    # blocks; block by block, the weights must equal the sorted spacings of
    # one generator's stream.
    n, seed = 60 * B + 123, 2026
    set_cpus(2)
    weights = families.simplex_prior_bell_diagonal(n, seed).bell_weights
    rng = np.random.default_rng(seed)
    for sl in families.blocks(n):
        u = np.sort(rng.random((sl.stop - sl.start, 3)), axis=1)
        assert np.array_equal(weights[sl], np.diff(u, axis=1, prepend=0.0, append=1.0))


def test_characterize_document_does_not_depend_on_the_split(set_cpus, tmp_path, capsys):
    rec = tmp_path / "rec.json"
    assert cli.main(["simulate", "--state", "rho1", "--shots", "400", "--seed", "3",
                     "--out", str(rec)]) == 0
    texts = []
    for k in (1, 2):
        set_cpus(k)
        out = tmp_path / f"bd-{k}.json"
        assert cli.main(["characterize", "--record", str(rec), "--prior", "bell-diag",
                         "--samples", str(5 * B + 7), "--seed", "1", "--out", str(out)]) == 0
        texts.append(re.sub(r'"duration_s": [0-9.e-]+', "", out.read_text()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("n", [2 * B, 5 * B + 7], ids=["even", "odd"])
def test_halves_are_contiguous_runs_of_blocks(set_cpus, n):
    set_cpus(2)
    calls = []
    families.in_parts(n, lambda slices: calls.append((threading.get_ident(), slices)))
    calls.sort(key=lambda call: call[1][0].start)
    slices = list(families.blocks(n))
    half = len(slices) // 2
    # The first half on the calling thread, the second on another thread.
    assert [run for _, run in calls] == [slices[:half], slices[half:]]
    assert calls[0][0] == threading.get_ident() != calls[1][0]


@pytest.mark.parametrize("cpus, n", [(1, 5 * B), (2, B)], ids=["one_cpu", "one_block"])
def test_a_whole_pass_starts_no_thread(monkeypatch, set_cpus, cpus, n):
    set_cpus(cpus)
    monkeypatch.setattr(families, "_pool", None)
    calls = []
    families.in_parts(n, lambda slices: calls.append((threading.get_ident(), slices)))
    assert calls == [(threading.get_ident(), list(families.blocks(n)))]
    assert families._pool is None


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert families._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert families._usable_cpus() == 1


def test_the_worker_persists(set_cpus):
    set_cpus(2)
    families.in_parts(2 * B, lambda slices: None)
    pool, threads = families._pool, threading.active_count()
    for _ in range(3):
        families.simplex_prior_bell_diagonal(2 * B, seed=0)
    assert families._pool is pool
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", [0, 1], ids=["calling_thread", "worker"])
def test_a_failing_half_waits_for_the_other(set_cpus, failing):
    set_cpus(2)
    ended = []

    def part(slices):
        if (slices[0].start > 0) == failing:
            raise ConfigError(f"part {failing}")
        time.sleep(0.05)
        ended.append(slices[-1].stop)

    with pytest.raises(ConfigError, match=f"part {failing}"):
        families.in_parts(2 * B, part)
    assert ended == [2 * B if failing == 0 else B]


@pytest.mark.parametrize("bad", [np.nan, -1e-3], ids=["nan", "negative"])
def test_bad_row_only_in_the_second_half_is_refused(set_cpus, monkeypatch, bad):
    set_cpus(2)
    ts = families.simplex_prior_bell_diagonal(4 * B, seed=1)
    weights = ts.bell_weights.copy()
    weights[3 * B + 5] = [0.5 - bad, 0.5, bad, 0.0]
    check, lock, running, threads = families._check_simplex, threading.Lock(), [0], set()

    def counted(*args):
        with lock:
            running[0] += 1
            threads.add(threading.get_ident())
        try:
            return check(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(families, "_check_simplex", counted)
    with pytest.raises(ConfigError, match="Bell weights"):
        families.TestSet(weights)
    # Both halves ran, none is still running, and the next pass gives the
    # same scalars.
    assert running[0] == 0 and len(threads) == 2
    assert np.array_equal(families.TestSet(ts.bell_weights).negativities, ts.negativities)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_forked_child_runs_a_split_pass(set_cpus):
    set_cpus(2)
    expected = digest(families.simplex_prior_bell_diagonal(5 * B + 7, seed=3).bell_weights)
    assert families._pool is not None and families._pool_pid == os.getpid()
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.write(write, digest(families.simplex_prior_bell_diagonal(5 * B + 7, seed=3)
                                   .bell_weights))
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready = select.select([read], [], [], 60)[0]
        got = os.read(read, 64) if ready else None
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert got is not None, "the forked child did not finish its pass"
    assert got == expected


def test_every_public_call_is_on_the_calling_thread(set_cpus, monkeypatch):
    # As a tracer does: wrap every public function of the modules, and see
    # that only the calling thread calls them during split passes.
    set_cpus(2)
    threads = []
    for mod in (families, posterior, criteria, linalg, measurement):
        for name, fn in list(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                def spy(*args, _fn=fn, **kwargs):
                    threads.append((_fn.__name__, threading.get_ident()))
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, functools.wraps(fn)(spy))
    ts = families.simplex_prior_bell_diagonal(5 * B + 7, seed=3)
    rec = measurement.simulate_record(families.reference_mixture("rho2"), 1000, seed=4)
    post = posterior.update_posterior(ts, rec)
    posterior.histogram_negativity(ts, post.weights, 20)
    assert {name for name, _ in threads} >= {"blocks", "in_parts", "log_likelihood_vector"}
    assert {ident for _, ident in threads} == {threading.get_ident()}


FALLBACK_COUNTS = [[500, 0, 0, 500], [250] * 4, [250] * 4, [0, 500, 500, 0], [250] * 4]


@pytest.mark.parametrize("closed", [True, False], ids=["closed_form", "fallback"])
def test_compare_starts_no_thread(set_cpus, monkeypatch, closed):
    # Its one- and four-state test sets are one block each, so no split.
    set_cpus(2)
    monkeypatch.setattr(families, "_pool", None)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    if closed:
        rec = measurement.simulate_record(families.two_param_state(0.4, 0.4), 1000, seed=1)
    else:
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS,
                                            counts=np.array(FALLBACK_COUNTS))
    report = criteria.compare(rec)
    assert report.closed_form["bell_diag"] is closed
    assert started == []
    assert families._pool is None

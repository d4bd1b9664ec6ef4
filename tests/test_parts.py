"""Blocked passes handed out block by block to the calling thread and one
persistent worker: each block once, the same bits on one CPU or two, the
lowest failing block's exception, scratch the calling thread owns, and
every public call on the calling thread."""

import functools
import hashlib
import inspect
import os
import re
import select
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from entchar import cli, criteria, families, linalg, measurement, posterior
from entchar.errors import ConfigError

B = families.BLOCK


@pytest.fixture
def set_cpus(monkeypatch):
    """Set how many CPUs the start rule sees: one runs a pass on the calling
    thread, two share its blocks with the worker."""
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
    given prior; and the histogram edges and labels, which the calling
    thread builds from the split passes' negativities."""
    rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=2)
    prior = np.random.default_rng(5).dirichlet(np.ones(ts.n_states))
    return [ts.bell_weights, ts.negativities, ts.purities, ts.entangled,
            *ts.negativity_bins(7), *ts.negativity_bins(300),
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
        results.append([digest(a) for a in pass_outputs(build(n))])
    assert results[0] == results[1]


def test_histogram_labels_are_built_on_the_calling_thread(set_cpus, monkeypatch):
    # The label build runs in whole blocks on the calling thread, with no
    # split pass, and gives the labels a one-CPU build gives.
    n = 5 * B + 7
    set_cpus(1)
    one_cpu = families.simplex_prior_bell_diagonal(n, seed=6)
    set_cpus(2)
    ts, calls = families.simplex_prior_bell_diagonal(n, seed=6), []
    monkeypatch.setattr(families, "in_parts", lambda *args: calls.append(args))
    for n_bins in (50, 300):
        got = ts.negativity_bins(n_bins)
        assert calls == []
        assert [digest(a) for a in got] == [digest(a) for a in one_cpu.negativity_bins(n_bins)]


def test_blocks_draw_one_stream(set_cpus):
    # Each thread jumps its own generator ahead to each block it takes, here
    # over 61 blocks; block by block, the weights must equal the sorted
    # spacings of one generator's stream.
    n, seed = 60 * B + 123, 2026
    set_cpus(2)
    weights = families.simplex_prior_bell_diagonal(n, seed).bell_weights
    rng = np.random.default_rng(seed)
    for sl in families.blocks(n):
        u = np.sort(rng.random((sl.stop - sl.start, 3)), axis=1)
        assert np.array_equal(weights[sl], np.diff(u, axis=1, prepend=0.0, append=1.0))


def readout_bytes(summary, hist, rho):
    return [np.float64(v).tobytes() for v in vars(summary).values()] + [
        hist.bin_edges.tobytes(), hist.bin_mass.tobytes(),
        np.float64(hist.separable_mass).tobytes(), rho.tobytes()]


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
    # The document's readouts equal the three sequential ones bit for bit.
    ts = families.simplex_prior_bell_diagonal(5 * B + 7, seed=1)
    post = posterior.update_posterior(ts, measurement.load_record(rec))
    sequential = readout_bytes(posterior.summarize(ts, post),
                               posterior.histogram_negativity(ts, post.weights, 50),
                               posterior.mean_state(ts, post))
    for k in (1, 2):
        set_cpus(k)
        assert readout_bytes(*posterior.readouts(ts, post, 50)) == sequential


def record_blocks(calls):
    """A part that records (thread, slice, scratch) for each block it runs."""
    lock = threading.Lock()

    def part(sl, own):
        with lock:
            calls.append((threading.get_ident(), sl, own))
    return part


@pytest.mark.parametrize("n", [2 * B, 5 * B + 7, 40 * B + 1], ids=["even", "odd", "many"])
def test_each_block_runs_once_on_its_threads_scratch(set_cpus, n):
    set_cpus(2)
    calls, made = [], []

    def scratch(m):
        made.append((threading.get_ident(), m))
        return object()

    families.in_parts(n, record_blocks(calls), scratch)
    # Every block exactly once, over both threads.
    assert sorted((sl for _, sl, _ in calls), key=lambda sl: sl.start) == list(families.blocks(n))
    # The calling thread made one set of scratch per thread, and each thread
    # used only its own.
    assert made == [(threading.get_ident(), B)] * 2
    owner = {}
    for ident, _, own in calls:
        assert owner.setdefault(id(own), ident) == ident


def test_each_block_runs_once_under_fast_thread_switches(set_cpus):
    # 3000 blocks whose part does nothing, and a thread switch every
    # microsecond: a block handed out twice, or skipped, would show in the
    # counts.  No array is made.
    set_cpus(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls = []
            families.in_parts(3000 * B, record_blocks(calls), lambda m: None)
            assert sorted(sl.start for _, sl, _ in calls) == list(range(0, 3000 * B, B))
    finally:
        sys.setswitchinterval(interval)


def test_a_delayed_worker_leaves_its_blocks_to_the_calling_thread(set_cpus):
    set_cpus(2)
    caller, calls = threading.get_ident(), []
    recording = record_blocks(calls)

    def part(sl, own):
        if threading.get_ident() != caller:
            time.sleep(0.3)
        recording(sl, own)

    families.in_parts(10 * B, part, lambda m: None)
    # The worker held at most one block while the calling thread ran the rest.
    assert sorted(sl.start // B for _, sl, _ in calls) == list(range(10))
    assert sum(ident != caller for ident, _, _ in calls) <= 1


def test_a_call_the_worker_never_started_holds_no_array(set_cpus):
    # The worker is busy, so the calling thread runs every block and cancels
    # the worker's call, which stays queued until the worker is free; it
    # must not keep the pass's scratch or outputs alive until then.
    set_cpus(2)
    families.in_parts(2 * B, lambda sl, own: None, lambda m: None)
    release = threading.Event()
    busy = families._pool.submit(release.wait, 60)
    try:
        out = np.zeros(4 * B)
        held = [weakref.ref(out)]

        def scratch(m):
            own = np.empty(m)
            held.append(weakref.ref(own))
            return own

        def part(sl, own):
            out[sl] = 1.0

        families.in_parts(4 * B, part, scratch)
        assert out.sum() == 4 * B
        del out, part, scratch
        assert len(held) == 3 and all(ref() is None for ref in held)
    finally:
        release.set()
        busy.result(timeout=60)


@pytest.mark.parametrize("cpus, n", [(1, 5 * B), (2, B)], ids=["one_cpu", "one_block"])
def test_a_whole_pass_starts_no_thread(monkeypatch, set_cpus, cpus, n):
    set_cpus(cpus)
    monkeypatch.setattr(families, "_pool", None)
    calls = []
    families.in_parts(n, record_blocks(calls), lambda m: m)
    assert calls == [(threading.get_ident(), sl, min(n, B)) for sl in families.blocks(n)]
    assert families._pool is None


def test_a_one_block_readout_starts_no_thread(monkeypatch, set_cpus, tmp_path):
    # The readouts' moments follow the split passes' start rule: no worker
    # for a set of one block, here a whole one and a small CLI prior.
    set_cpus(2)
    monkeypatch.setattr(families, "_pool", None)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    ts = families.simplex_prior_bell_diagonal(B, seed=1)
    rec = measurement.simulate_record(families.reference_mixture("rho1"), 400, seed=3)
    posterior.readouts(ts, posterior.update_posterior(ts, rec), 50)
    measurement.save_record(rec, tmp_path / "rec.json")
    assert cli.main(["characterize", "--record", str(tmp_path / "rec.json"), "--prior",
                     "bell-diag", "--samples", "100", "--out", str(tmp_path / "bd.json")]) == 0
    assert started == []
    assert families._pool is None


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert families._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert families._usable_cpus() == 1


def test_the_worker_persists(set_cpus):
    set_cpus(2)
    families.in_parts(2 * B, lambda sl, own: None, lambda m: None)
    pool, threads = families._pool, threading.active_count()
    for _ in range(3):
        families.simplex_prior_bell_diagonal(2 * B, seed=0)
    assert families._pool is pool
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", [{0}, {1}, {2, 5}, {6, 7}, {1, 2, 3, 4, 5, 6, 7}],
                         ids=["first", "second", "two", "last_two", "all_but_first"])
def test_the_lowest_failing_block_is_raised(set_cpus, failing):
    # Odd blocks sleep, so the two threads take blocks in a varying order.
    set_cpus(2)
    lock, running, ran = threading.Lock(), [0], []

    def part(sl, own):
        k = sl.start // B
        with lock:
            running[0] += 1
        try:
            time.sleep(0.02 * (k % 2))
            with lock:
                ran.append(k)
            if k in failing:
                raise ConfigError(f"block {k}")
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(ConfigError, match=f"^block {min(failing)}$"):
        families.in_parts(8 * B, part, lambda m: None)
    # Both threads had stopped, and every block below the lowest failing
    # one ran, each once.
    assert running[0] == 0
    assert len(ran) == len(set(ran)) and set(range(min(failing) + 1)) <= set(ran)


def test_no_block_is_handed_out_after_a_failure(set_cpus):
    set_cpus(1)
    ran = []

    def part(sl, own):
        ran.append(sl.start // B)
        if sl.start:
            raise ConfigError("block")

    with pytest.raises(ConfigError):
        families.in_parts(8 * B, part, lambda m: None)
    assert ran == [0, 1]


def test_an_interrupt_waits_for_the_workers_block_and_hands_out_no_other(set_cpus):
    # The calling thread's part waits until the worker has started a block,
    # which sleeps, then is interrupted.
    set_cpus(2)
    caller, started, ran, done = threading.get_ident(), threading.Event(), [], []

    def part(sl, own):
        ran.append(sl.start // B)
        if threading.get_ident() == caller:
            started.wait(60)
            raise KeyboardInterrupt
        started.set()
        time.sleep(0.3)
        done.append(sl.start // B)

    with pytest.raises(KeyboardInterrupt):
        families.in_parts(20 * B, part, lambda m: None)
    # The worker's block had finished when the call raised, and no block
    # after the two first ones started.
    assert len(done) == 1 and sorted(ran) == [0, 1]
    time.sleep(0.1)
    assert sorted(ran) == [0, 1]
    # The next split pass runs every block once.
    calls = []
    families.in_parts(20 * B, record_blocks(calls), lambda m: None)
    assert sorted(sl.start for _, sl, _ in calls) == list(range(0, 20 * B, B))


@pytest.mark.parametrize("bad", [np.nan, -1e-3], ids=["nan", "negative"])
def test_bad_row_only_in_a_late_block_is_refused(set_cpus, monkeypatch, bad):
    set_cpus(2)
    ts = families.simplex_prior_bell_diagonal(4 * B, seed=1)
    weights = ts.bell_weights.copy()
    weights[3 * B + 5] = [0.5 - bad, 0.5, bad, 0.0]
    check, lock, running = families._check_simplex, threading.Lock(), [0]

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
        try:
            return check(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(families, "_check_simplex", counted)
    with pytest.raises(ConfigError, match="Bell weights"):
        families.TestSet(weights)
    # No check is still running, and the next pass gives the same scalars.
    assert running[0] == 0
    assert np.array_equal(families.TestSet(ts.bell_weights).negativities, ts.negativities)


def test_parts_allocate_no_block_sized_array(set_cpus, monkeypatch):
    # Each block's temporaries go into its thread's scratch, so a part
    # allocates less than a bool vector of its shortest block: the last
    # block of every pass holds 4096 states, fewer than numpy's 8192-element
    # buffer, below which it copies a strided operand whole.  The passes
    # are the materialized path's four and the streamed characterize's
    # first, which fuses the four per block.
    # Run on one thread, so the traced peak of a part call is its own.
    set_cpus(1)
    in_parts, peaks = families.in_parts, {}

    def traced(n, part, scratch):
        def measured(sl, own):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            part(sl, own)
            name = part.__qualname__.split(".<locals>.")[-1]
            peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - before)
        in_parts(n, measured, scratch)

    monkeypatch.setattr(families, "in_parts", traced)
    tracemalloc.start()
    try:
        ts = families.simplex_prior_bell_diagonal(5 * B + 4096, seed=1)
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=0)
        post = posterior.update_posterior(ts, rec)
        posterior.histogram_negativity(ts, post.weights, 50)
        posterior.characterize_sampled(5 * B + 4096, 1, rec, 50)
    finally:
        tracemalloc.stop()
    assert set(peaks) == {"draw", "derive", "add_terms", "weigh", "score"}
    assert max(peaks.values()) < 4096, peaks


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_streamed_characterize_holds_16_bytes_a_state_and_its_scratch(set_cpus, cpus):
    # The bound, fixed in advance: 16 B per state for the kept negativities
    # and weights, plus 96 B per block state of scratch for each thread.
    # The materialized path's Bell weights alone hold 32 B per state.
    set_cpus(cpus)
    n = 40 * B
    bound = 16 * n + cpus * 96 * B
    rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=0)
    peaks = []
    tracemalloc.start()
    try:
        for characterize in (
                lambda: posterior.characterize_sampled(n, 1, rec, 50),
                lambda: posterior.readouts(ts := families.simplex_prior_bell_diagonal(n, 1),
                                           posterior.update_posterior(ts, rec), 50)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            characterize()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    streamed, materialized = peaks
    assert streamed < bound < materialized, (streamed, bound, materialized)


def test_the_readouts_job_allocates_no_block_sized_array(set_cpus, monkeypatch):
    # The moments job runs beside the histogram: its einsums allocate less
    # than one float64 block vector.  On one CPU the job runs inline, before
    # the histogram, so its traced peak is its own.
    set_cpus(1)
    beside, peaks = families.beside, []

    def traced(n, job):
        def measured():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            job()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return beside(n, measured)

    ts = families.simplex_prior_bell_diagonal(5 * B + 4096, seed=1)
    rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=0)
    post = posterior.update_posterior(ts, rec)
    # Patched after the split passes, which run their worker half through beside too.
    monkeypatch.setattr(families, "beside", traced)
    tracemalloc.start()
    try:
        posterior.readouts(ts, post, 50)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 8 * B, peaks


def test_a_job_beside_runs_on_the_worker_and_its_exception_reaches_the_caller(set_cpus):
    # Each body waits until the worker has taken the job; a job the worker
    # has not started when the body ends would run on the calling thread.
    set_cpus(2)
    caller, ran, started = threading.get_ident(), [], threading.Semaphore(0)

    def failing():
        ran.append(threading.get_ident())
        started.release()
        raise ConfigError("job")

    with pytest.raises(ConfigError, match="^job$"):
        with families.beside(2 * B, failing):
            assert started.acquire(timeout=60)
    # The job's exception is raised in place of the body's, as on one CPU,
    # where the job runs first.
    with pytest.raises(ConfigError, match="^job$") as info:
        with families.beside(2 * B, failing):
            assert started.acquire(timeout=60)
            raise ValueError("body")
    assert isinstance(info.value.__context__, ValueError)
    assert len(ran) == 2 and caller not in ran
    # The worker is free for the next split pass and the next job.
    expected = digest(families.simplex_prior_bell_diagonal(5 * B + 7, seed=3).bell_weights)
    set_cpus(1)
    assert digest(families.simplex_prior_bell_diagonal(5 * B + 7, seed=3).bell_weights) == expected
    set_cpus(2)
    with families.beside(2 * B, lambda: (ran.append(threading.get_ident()), started.release())):
        assert started.acquire(timeout=60)
    assert len(ran) == 3 and ran[2] != caller


def test_a_job_the_busy_worker_never_started_runs_on_the_calling_thread(set_cpus):
    set_cpus(2)
    families.in_parts(2 * B, lambda sl, own: None, lambda m: None)
    release, ran = threading.Event(), []
    busy = families._pool.submit(release.wait, 60)
    try:
        with families.beside(2 * B, lambda: ran.append(threading.get_ident())):
            pass
        assert ran == [threading.get_ident()]
    finally:
        release.set()
        busy.result(timeout=60)


def test_an_interrupt_waits_for_a_running_job_and_starts_none(set_cpus):
    set_cpus(2)
    started, done = threading.Event(), []

    def job():
        started.set()
        time.sleep(0.2)
        done.append(True)

    with pytest.raises(KeyboardInterrupt):
        with families.beside(2 * B, job):
            assert started.wait(60)
            raise KeyboardInterrupt
    assert done == [True]
    # A job still queued behind a busy worker is dropped, not run, and its
    # cancelled call, queued until the worker is free, holds nothing of it.
    release, ran = threading.Event(), []
    busy = families._pool.submit(release.wait, 60)
    try:
        out = np.zeros(B)
        held = weakref.ref(out)
        with pytest.raises(KeyboardInterrupt):
            with families.beside(2 * B, lambda a=out: ran.append(a.sum())):
                raise KeyboardInterrupt
        del out
        assert held() is None
    finally:
        release.set()
        busy.result(timeout=60)
    assert ran == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_readouts_with_a_bad_bin_count_raise_the_histograms_error(set_cpus, cpus):
    set_cpus(cpus)
    ts = families.simplex_prior_bell_diagonal(5 * B, seed=2)
    post = posterior.Posterior(weights=np.asarray(ts.prior_weights))
    with pytest.raises(ConfigError, match="bin count"):
        posterior.readouts(ts, post, 0)


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
    posterior.readouts(ts, post, 30)
    posterior.characterize_sampled(5 * B + 7, 3, rec, 30)
    assert {name for name, _ in threads} >= {"blocks", "in_parts", "log_likelihood_vector",
                                              "beside", "readouts", "bell_diagonal_state",
                                              "characterize_sampled", "simplex_spacings",
                                              "bell_scalars", "negativity_labels"}
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

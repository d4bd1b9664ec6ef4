"""State families and prior test sets.

Two families back the priors used for Bayesian updating:

* the two-parameter family rho_{p,sigma} = p * rho_sigma + (1-p) * I/4,
  where rho_sigma is the (|00>+|11>)/sqrt(2) projector averaged over a
  Gaussian phase distribution of width sigma truncated to [-pi, pi];
* Bell-diagonal states sum_i p_i |Phi_i><Phi_i|.

Both are Bell-diagonal, so every state is described by four Bell weights,
and a test set is those weights and a prior over them (``TestSet``).
Likelihoods and mean states are therefore computed from four numbers per
state, and ``TestSet`` holds what those weights alone determine:
negativity and purity from their closed forms, the entangled mask, and
the column merge of the posterior module's likelihood kernel.

The builders store the Bell weights column-contiguously: an (n, 4) array
that is the transpose view of a (4, n) buffer, so each weight
``w[:, k]`` is one contiguous vector.  The per-state arithmetic (spacings,
negativity, purity, and the posterior module's log-likelihood) is written
as elementwise operations on those columns, because numpy reduces along a
short row axis several times slower than it streams a contiguous vector.
Elementwise passes over strided columns are cheap enough that the simplex
builder reads a block's (m, 3) draws in place rather than copy them into
columns first.  Every function still accepts any (n, 4) layout.

Block rule: six per-state passes run in blocks of ``BLOCK`` states
(``blocks``).  Five do because their whole-array forms would hold
n-sized temporaries beside their results.  Measured alone at 10^6 states
on a 2-vCPU Xeon (peak traced memory, blocked against whole-array): the
simplex builder's draws and sort, 34 against 96 MB and about three times
faster; the Bell-weight check and scalars in ``TestSet`` (which also
write the entangled mask), 16 against 32 MB and about twice as fast; the
histogram labels of ``TestSet.negativity_bins`` over all states, 1.4
against 24 MB and 1.8 times faster; the posterior module's
log-likelihood kernel, whose scratch holds a row per distinct pair sum,
9.6 against 56 MB and about three times as fast; its
histogram's ``np.bincount``, which casts the 1-byte labels to intp, 0.1
against 8 MB at the same speed (its blocks grow to n_bins + 1 states
when there are more bins than ``BLOCK``).  The sixth, the posterior
update, works in place on the kernel's output and holds its keep mask,
9 B/state as bool and float, per block.  Each element goes through the
same operations in the same order, so the values equal the one-shot
formulas bit for bit.

Block steps: the sort network (``simplex_spacings``), the Bell check and
scalars (``bell_scalars``), the label arithmetic (``negativity_labels``)
and the posterior module's kernel are each written once, as a function
that the calling thread makes once per pass and the pass's parts call.
The materialized path (the builders, ``TestSet`` and the posterior
module's update and readouts) runs them in separate passes over n-sized
arrays; ``posterior.characterize_sampled`` runs them fused, block by
block in one thread's scratch, for the CLI's one-shot bell-diag
``characterize``, and keeps only each state's negativity and weight.

The elementwise passes among them (the simplex builder, the ``TestSet``
check and scalars, the kernel, the update and the first streamed pass)
run in ``in_parts``: the calling thread and one worker thread take the
blocks one at a time from a shared hand-out, while numpy's loops and the
generator let go of the GIL.  ``beside`` is the one way onto the worker,
under one start rule for every pass and readout.  Each block's
temporaries go into scratch that the calling thread made for the thread
that runs it, so the worker allocates no block-sized array, and the
malloc arena glibc gives it keeps nothing of that size.  Each block
writes its own slices, so the split moves no bit.  Each reduction is made
by one thread in one order, whole-array (the maximum, the entangled
probability, the posterior moments and mean Bell weights), per block
into the block's own row of sums, which the calling thread then adds in
block order (the streamed pass), or in block order (the histogram's
masses, which differ from a whole-array sum only in rounding), because
split sums would add in another order.  The maximum, the rows' combine
and the masses stay on the calling thread; ``posterior.readouts`` runs
the moments, a few long einsums, through ``beside`` while the calling
thread builds the histogram, as a pass of many short numpy calls gains
little from a second thread.  ``TestSet.equal_columns``, which stops at
the first mismatch, stays on the calling thread too, and so does the
label build of ``negativity_bins`` and of the second streamed pass, in
whole blocks: its numpy calls take
a few microseconds each.  The label step writes every flag into float
scratch, takes each edge as the bin index times the bin width, which is
how ``np.linspace`` makes the edges, instead of gathering it from them,
and runs numpy's one-bin corrections only in a block that has a state to
correct.  At 10^6 sampled states and 50 bins ``negativity_bins`` takes
6.0 ms, against 8.0 ms with a bool operand in every correction (medians
of 30 calls, 2-vCPU Xeon).
"""

import contextlib
import os
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._blas import one_blas_thread
from .errors import ConfigError, check_int, check_real, check_real_array
from .linalg import NEGATIVITY_FLOOR

_SQRT2 = np.sqrt(2.0)

#: States per block of the blocked passes; a block's float64 vector is
#: 128 KiB, so the few a pass touches stay in a 2 MiB L2 cache.
BLOCK = 16384

#: The largest state, sample or bin count a builder takes: n whose (4, n)
#: float64 buffer numpy can address.  A larger count is a ConfigError.
MAX_COUNT = np.iinfo(np.intp).max // 32


def blocks(n: int, size: int = BLOCK):
    """Slices covering range(n) in order, ``size`` states each; the last may be shorter."""
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(n: int) -> bool:
    """The start rule: work over n states uses the worker thread when it
    spans more than one block and the process may use two CPUs."""
    return n > BLOCK and _usable_cpus() > 1


_pool = _pool_pid = None


def _call_each(calls: list) -> None:
    for call in calls:
        call()


def in_parts(n: int, part, scratch) -> None:
    """Run a blocked pass over range(n): ``part(sl, own)`` for each slice
    ``sl`` of ``blocks(n)``, on the calling thread and, under ``beside``'s
    start rule, the worker thread.

    Hand-out rule: both threads take the blocks one at a time, in order,
    from a shared hand-out, so a delayed worker leaves the remaining blocks
    to the calling thread.  The worker's half is ``beside``'s job; once the
    calling thread's half ends, the hand-out is drained, so the worker
    stops after its current block, and a half the worker never started
    finds no block left when it runs on the calling thread.

    Scratch rule: before the pass the calling thread makes one set of
    scratch per thread, ``own = scratch(min(n, BLOCK))``, and ``part``
    writes every temporary of its block into its thread's ``own`` with
    ``out=``.  So the worker thread allocates no block-sized array, and the
    malloc arena glibc gives it keeps nothing of that size.

    Exception rule: once a block raises, no further block is handed out,
    and the call raises the exception of the lowest-numbered failing block
    once both threads have stopped.  Every block below that one was handed
    out before it and has run, so this is the exception a pass on one
    thread raises, however the blocks were scheduled.  ``part`` must write
    disjoint slices of its outputs, reduce nothing across blocks and call
    no public function of entchar: the calling thread builds the slices, so
    a tracer that wraps the public functions sees every call on one thread.

    Result-row rule: a part may reduce within its block into that block's
    own row of a (number of blocks, width) output, at ``sl.start //
    BLOCK``, as ``posterior.characterize_sampled``'s first pass writes its
    sums.  The calling thread combines the rows in block order after the
    pass, so each sum is made in one order, however the blocks were split.
    """
    owns = [scratch(min(n, BLOCK)) for _ in range(1 + _split(n))]
    hand_out, lock, failed = enumerate(blocks(n)), threading.Lock(), {}

    def run(own):
        while True:
            with lock:  # each block once, and none after a failure
                i, sl = next(hand_out, (0, None)) if not failed else (0, None)
            if sl is None:
                return
            try:
                part(sl, own)
            except Exception as exc:
                failed[i] = exc

    with beside(n, lambda: run(owns[-1])):
        try:
            run(owns[0])
        finally:
            with lock:  # after an interrupt of the calling thread, no further block
                for _ in hand_out:
                    pass
    if failed:
        raise failed[min(failed)]


@contextlib.contextmanager
def beside(n: int, job):
    """Run ``job()``, work over ``n`` states, on the worker thread while the
    body of the ``with`` block runs on the calling thread, and wait for it
    on exit.

    Start rule (``_split``): the worker runs the job only when ``n`` is
    more than ``BLOCK`` and the process may use two CPUs (its affinity
    mask; ``taskset -c 0`` gives one).  Otherwise the job runs on the
    calling thread, on entry, and no thread is started.  The one persistent
    worker is started on first use, and again in a forked child, whose copy
    of the pool has no running thread; it lives as long as the process, so
    on Python 3.12 and later each ``os.fork()`` after its start warns that
    the process has threads.

    ``job`` follows the rules of a part of ``in_parts``: it allocates no
    block-sized array, calls no public function of entchar and writes its
    results where the caller reads them after the block.

    Exception rule: an exception of the job is raised on exit, in place of
    any exception of the body, as where the job runs first on the calling
    thread.  A job the worker has not started when the body ends is
    cancelled and runs on the calling thread then, so the job runs once
    whichever thread is free; its queued call, which stays until the
    worker is free, holds no reference to it.  After an interrupt of the
    calling thread (an exception that is not an ``Exception``) the job is
    not started; a running job is waited for, and the interrupt is raised.
    """
    global _pool, _pool_pid
    if not _split(n):
        job()
        yield
        return
    if _pool is None or _pool_pid != os.getpid():
        _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="entchar-blocks")
        _pool_pid = os.getpid()
    call = [job]
    worker = _pool.submit(_call_each, call)
    interrupted = True
    try:
        yield
        interrupted = False
    except Exception:
        interrupted = False
        raise
    finally:
        if worker.cancel():  # the worker never started the job
            call.clear()
            if not interrupted:
                job()
        elif interrupted:
            futures.wait([worker])
        else:
            worker.result()


#: Bell basis vectors |Phi_1>..|Phi_4| in the |00>,|01>,|10>,|11> basis.
BELL_VECTORS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=complex,
) / _SQRT2


def bell_state(i: int) -> np.ndarray:
    """Projector onto |Phi_i>, i an integer in 1..4 (not a bool)."""
    v = BELL_VECTORS[check_int(i, "Bell state index", 1, 4) - 1]
    return np.outer(v, v.conj())


@cache
def _erf_wofz():
    """scipy.special's erf and wofz, imported on first use with one OpenBLAS thread.

    Imported here, not with the module, so only the two-parameter family
    pays scipy's load time; cached, so the environment is touched once,
    not on each of a grid's coherence factors.
    """
    with one_blas_thread():
        from scipy.special import erf, wofz
    return erf, wofz


def coherence_factor(sigma: float) -> float:
    """Off-diagonal damping factor c(sigma) of the phase-averaged Bell state.

    c(sigma) is the mean of cos(phi) under the normalized Gaussian phase
    distribution exp(-phi^2/sigma^2) truncated to [-pi, pi].  Completing
    the square gives the closed form

        c = exp(-sigma^2/4) * Re erf(pi/sigma + i*sigma/2) / erf(pi/sigma),

    evaluated through the Faddeeva function w, as
    Re[exp(-sigma^2/4) + exp(-pi^2/sigma^2) * w(-sigma/2 + i*pi/sigma)],
    so that no factor overflows at large sigma.  Where pi/sigma overflows
    (sigma = 0 and sigma below 1.75e-308) c takes its limit 1.
    """
    erf, wofz = _erf_wofz()

    sigma = check_real(sigma, "sigma")
    if not np.isfinite(sigma):
        raise ConfigError(f"sigma must be finite, got {sigma}")
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    x = np.pi / sigma if sigma > 0.0 else np.inf
    if x == np.inf:
        return 1.0
    num = np.exp(-sigma * sigma / 4.0) + np.exp(-x * x) * wofz(-sigma / 2.0 + 1j * x)
    return float(num.real / erf(x))


def two_param_state(p: float, sigma: float) -> np.ndarray:
    """rho_{p,sigma}: phase-noisy Bell state mixed with white noise."""
    if not 0.0 <= check_real(p, "p") <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p}")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = (1.0 + p) / 4.0
    rho[1, 1] = rho[2, 2] = (1.0 - p) / 4.0
    rho[0, 3] = rho[3, 0] = p * coherence_factor(sigma) / 2.0
    return rho


def two_param_bell_weights(p, b) -> np.ndarray:
    """Bell weights (n, 4) of rho_{p,sigma} from p and b = p * c(sigma).

    Written as the noise floor (1-p)/4 plus non-negative excess terms, so
    every weight is >= 0 in floating point whenever 0 <= b <= p <= 1.
    Returned column-contiguous, as the transpose of a (4, n) buffer.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    floor = (1.0 - p) / 4.0
    return np.array([floor + (p + b) / 2.0, floor + (p - b) / 2.0, floor, floor]).T


def _check_simplex(points: np.ndarray, shape: tuple, what: str, sums=None) -> None:
    """Raise ConfigError unless points has this shape and each point along its
    last axis is non-negative and sums to 1 within 1e-12 (NaN and inf fail).
    The sums go into ``sums`` when it is given."""
    if points.shape != shape:
        raise ConfigError(f"{what} must have shape {shape}, got {points.shape}")
    sums = points.T.sum(axis=0, out=sums)  # adds contiguous columns in the builders' layout
    # Column minima first: a whole-array min copies a short strided block.
    if not (points.min(axis=0).min() >= 0 and sums.min() >= 1.0 - 1e-12
            and sums.max() <= 1.0 + 1e-12):
        raise ConfigError(f"{what} must be non-negative and sum to 1")


def bell_diagonal_state(pvec) -> np.ndarray:
    """Mixture of the four Bell projectors with weights pvec."""
    pvec = check_real_array(pvec, "Bell weights")
    _check_simplex(pvec, (4,), "Bell weights")
    rho = np.zeros((4, 4), dtype=complex)
    for w, v in zip(pvec, BELL_VECTORS):
        rho += w * np.outer(v, v.conj())
    return rho


def rho_k_state(k: float) -> np.ndarray:
    """0.5 |psi_k><psi_k| + 0.5 I/4 with |psi_k> = (|00> + k|11>)/sqrt(1+k^2).

    Purity is 0.4375 for every k in (0, 1].
    """
    k = check_real(k, "k")
    if not 0.0 < k <= 1.0:
        raise ConfigError(f"k must be in (0, 1], got {k}")
    v = np.array([1.0, 0.0, 0.0, k], dtype=complex) / np.sqrt(1.0 + k * k)
    return 0.5 * np.outer(v, v.conj()) + 0.125 * np.eye(4, dtype=complex)


def reference_mixture(which: str) -> np.ndarray:
    """Benchmark source states: 0.53/0.47 mixtures of two partially entangled kets.

    "rho1" uses relative amplitude 0.9 and "rho2" uses 0.5; both mix a
    (|00> + a|11>)-type ket with a (|01> + a|10>)-type ket.
    """
    amps = {"rho1": 0.9, "rho2": 0.5}
    if which not in amps:
        raise ConfigError(f"unknown mixture {which!r}; expected 'rho1' or 'rho2'")
    a = amps[which]
    norm = np.sqrt(1.0 + a * a)
    psi = np.array([1.0, 0.0, 0.0, a], dtype=complex) / norm
    phi = np.array([0.0, 1.0, a, 0.0], dtype=complex) / norm
    return 0.53 * np.outer(psi, psi.conj()) + 0.47 * np.outer(phi, phi.conj())


# --- test sets ---------------------------------------------------------------

@dataclass
class TestSet:
    """Finite prior over candidate states, each given by its four Bell weights.

    ``bell_weights`` is an (n, 4) array of real numbers, one state per row,
    stored as float (``errors.check_real_array``); every row must be
    non-negative and sum to 1 within 1e-12, so NaN and inf fail.
    The builders make it column-contiguous (the transpose view of a (4, n)
    buffer), so the likelihood kernel streams each weight as one contiguous
    vector; a row-major array gives the same results, slower.  The pass
    that checks the rows also writes what they alone determine, read-only
    (writing raises ValueError): ``negativities``, ``purities`` and the
    ``entangled`` mask (negativity above ``linalg.NEGATIVITY_FLOOR``, 1 B
    per state).  Without ``prior_weights`` the prior is uniform: a
    read-only (n,) view of the single value 1/n (``np.broadcast_to``,
    stride 0) that holds no n-sized buffer; its sum is within 4.4e-16 of 1
    at every n up to 3e8, so it is not checked.  A given prior must have
    shape (n,), be non-negative and sum to 1 within 1e-12.  A sequential
    update starts from the last posterior: ``TestSet(ts.bell_weights,
    post.weights)``.

    Two caches are built on first use: ``equal_columns``, the likelihood
    kernel's column merge, and ``negativity_bins``, one histogram label per
    state for the last bin count (0 where the state is not entangled, else
    1 + its bin), in the smallest unsigned dtype that holds the bin count
    (1 B per state up to 255 bins).  ``bell_weights`` and ``negativities``
    must not be replaced once a cache is built.
    """

    bell_weights: np.ndarray
    prior_weights: np.ndarray | None = None
    negativities: np.ndarray = field(init=False, repr=False, compare=False)
    purities: np.ndarray = field(init=False, repr=False, compare=False)
    entangled: np.ndarray = field(init=False, repr=False, compare=False)
    _bins: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = self.bell_weights = check_real_array(self.bell_weights, "Bell weights")
        if weights.ndim != 2 or len(weights) < 1:
            raise ConfigError(f"Bell weights must be an (n >= 1, 4) array, got shape {weights.shape}")
        n = len(weights)
        negativities, purities, entangled = np.empty(n), np.empty(n), np.empty(n, bool)
        scalars = bell_scalars()

        def derive(sl, own):
            a, b = own[:, : sl.stop - sl.start]
            scalars(weights[sl], a, b, negativities[sl], purities[sl], entangled[sl])

        in_parts(n, derive, lambda m: np.empty((2, m)))
        for derived in (negativities, purities, entangled):
            derived.flags.writeable = False
        self.negativities, self.purities, self.entangled = negativities, purities, entangled
        if self.prior_weights is None:
            self.prior_weights = np.broadcast_to(1.0 / n, (n,))
        else:
            self.prior_weights = check_real_array(self.prior_weights, "prior weights")
            _check_simplex(self.prior_weights, (n,), "prior weights")

    @property
    def n_states(self) -> int:
        return len(self.bell_weights)

    @cached_property
    def equal_columns(self) -> tuple:
        """For each Bell-weight column, the first column equal to it in every
        state: (0, 1, 2, 2) on the two-parameter grid, where w_3 = w_4."""
        w = self.bell_weights

        def equal(j, k):  # row 0 first, then block by block up to the first mismatch
            return (w[:1, j] == w[:1, k]).all() and all(
                (w[sl, j] == w[sl, k]).all() for sl in blocks(len(w)))

        return tuple(next((j for j in range(k) if equal(j, k)), k) for k in range(4))

    def negativity_bins(self, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
        """Edges of ``n_bins`` equal bins over [0, top] and one label per state:
        0 where the state is not ``entangled``, else 1 + its bin as
        ``np.histogram`` assigns it; top is the largest negativity, or 1 if
        none is positive.  Cached for the last ``n_bins``."""
        n_bins, cache = check_int(n_bins, "bin count", 1, MAX_COUNT), self._bins
        if not cache or cache[0] != n_bins:
            edges, label = negativity_labels(self.negativities.max(), n_bins)
            labels = np.empty(self.n_states, np.min_scalar_type(n_bins))
            m = min(self.n_states, BLOCK)
            i_buf, e_buf, c_buf = np.empty(m), np.empty(m), np.empty(m, bool)
            for sl in blocks(self.n_states):  # on the calling thread (the module's block rule)
                k = sl.stop - sl.start
                label(self.negativities[sl], labels[sl], i_buf[:k], e_buf[:k], c_buf[:k])
            cache = self._bins = n_bins, edges, labels
        return cache[1:]


def grid_prior_two_param(n_p: int, n_sigma: int) -> TestSet:
    """Uniform (p, sigma) grid over [0,1] x [0,pi], both endpoints included.

    State i is rho_{p,sigma} at p = p_axis[i // n_sigma] and
    sigma = sigma_axis[i % n_sigma], where the axes are
    ``np.linspace(0, 1, n_p)`` and ``np.linspace(0, pi, n_sigma)``.
    """
    n_p, n_sigma = check_int(n_p, "grid size n_p", 2), check_int(n_sigma, "grid size n_sigma", 2)
    check_int(n_p * n_sigma, "grid state count n_p*n_sigma", 4, MAX_COUNT)
    p_axis = np.linspace(0.0, 1.0, n_p)
    c_axis = np.array([coherence_factor(s) for s in np.linspace(0.0, np.pi, n_sigma)])
    p = np.repeat(p_axis, n_sigma)
    return TestSet(two_param_bell_weights(p, p * np.tile(c_axis, n_p)))


def simplex_prior_bell_diagonal(n: int, seed: int) -> TestSet:
    """n Bell-diagonal weight vectors drawn uniformly on the 3-simplex.

    Uses sorted-uniform spacings, which are exactly uniform on the simplex;
    deterministic for a given seed.  The (n, 3) uniforms are drawn block by
    block, in ``in_parts``: each thread's generator starts from the seed and
    moves its PCG64 stream ahead, before each block it draws, past the three
    uniforms of every earlier state, so the draws equal one
    ``rng.random((n, 3))``.  Each row of three is sorted by a min/max
    compare-exchange network on the block's columns, written in place into
    a (4, n) buffer whose transpose is the Bell weights, and the four
    spacings replace them there; the values equal a row-wise ``np.sort``
    and ``np.diff``.
    """
    n = check_int(n, "sample count", 1, MAX_COUNT)
    w, (generator, spacings) = np.empty((4, n)), simplex_spacings(seed)

    def draw(sl, own):
        gen, u = own
        spacings(sl, gen, u[: sl.stop - sl.start], w[:, sl])

    in_parts(n, draw, lambda m: (generator(), np.empty((m, 3))))
    return TestSet(w.T)


# --- block steps ---------------------------------------------------------------
# Each returns the function that the parts of a blocked pass call: made once
# per pass on the calling thread, it calls no public function and writes
# every temporary into the scratch it is given.  The materialized path above
# and ``posterior.characterize_sampled`` share them, so each step has one
# definition.

def simplex_spacings(seed: int):
    """The simplex builder's block step for ``seed``: ``(generator,
    spacings)``.  ConfigError unless ``seed`` is an integer >= 0.

    ``generator()`` makes one thread's generator state: its PCG64
    generator and the state it draws next.  ``spacings(sl, gen, u, out)``
    moves ``gen``'s stream ahead past the three uniforms of every state
    before ``sl``, draws the block's (k, 3) uniforms into ``u``, sorts each
    row by a min/max compare-exchange network on its columns and writes the
    four spacings into the rows of ``out``, (4, k).  So block by block the
    rows equal a row-wise ``np.sort`` and ``np.diff`` of one
    ``rng.random((n, 3))``, whichever thread draws which block.
    """
    seed = check_int(seed, "seed", 0)

    def generator():
        return [np.random.default_rng(seed), 0]

    def spacings(sl, gen, u, out):
        rng, at = gen
        # PCG64 jumps ahead past the three uniforms of every state before the block.
        rng.bit_generator.advance(3 * (sl.start - at))
        gen[1] = sl.stop
        u0, u1, u2 = rng.random(out=u).T
        a, b, c, d = out
        # Compare-exchange (0, 1), (1, 2), (0, 1), in the rows of out: a <= c <= d.
        np.minimum(u0, u1, out=a)
        np.maximum(u0, u1, out=b)
        np.maximum(b, u2, out=d)
        np.minimum(b, u2, out=b)
        np.maximum(a, b, out=c)
        np.minimum(a, b, out=a)
        np.subtract(c, a, out=b)
        np.subtract(d, c, out=c)
        np.subtract(1.0, d, out=d)

    return generator, spacings


def bell_scalars():
    """The ``TestSet`` check and scalars as a block step: ``scalars(w, a, b,
    neg, pur, ent)``.

    ``w`` is a block's (k, 4) Bell weights; ``a`` and ``b`` are two float
    k-vectors of scratch.  Raises ConfigError unless every row is
    non-negative and sums to 1 within 1e-12, then writes each state's
    negativity 2 max(0, max_i w_i - 1/2), purity sum_i w_i^2 and entangled
    flag (negativity above ``linalg.NEGATIVITY_FLOOR``) into ``neg``,
    ``pur`` and the bool vector ``ent``.
    """
    def scalars(w, a, b, neg, pur, ent):
        _check_simplex(w, (len(w), 4), "Bell weights", sums=a)
        np.maximum(w[:, 0], w[:, 1], out=a)
        np.maximum(a, np.maximum(w[:, 2], w[:, 3], out=b), out=a)
        a -= 0.5
        np.maximum(0.0, a, out=a)
        np.multiply(2.0, a, out=neg)
        np.square(w[:, 0], out=a)
        a += np.square(w[:, 1], out=b)
        a += np.square(w[:, 2], out=b)
        np.add(a, np.square(w[:, 3], out=b), out=pur)
        np.greater(neg, NEGATIVITY_FLOOR, out=ent)

    return scalars


def negativity_labels(largest: float, n_bins: int):
    """Histogram edges and the label arithmetic as a block step: ``(edges,
    label)`` for ``n_bins`` equal bins over [0, top], top the largest
    negativity, or 1 if it is not positive.

    ``label(x, out, i, e, c)`` writes into ``out`` one label per negativity
    of ``x``: 0 where it is not above ``linalg.NEGATIVITY_FLOOR``, else 1 +
    its bin as ``np.histogram`` assigns it.  ``i`` and ``e`` are float and
    ``c`` bool scratch of ``x``'s length; ``out`` may share ``x``'s memory,
    which is read before ``out`` is written.  ``n_bins`` must be an integer
    in [1, ``MAX_COUNT``], else ConfigError.
    """
    n_bins = check_int(n_bins, "bin count", 1, MAX_COUNT)
    top, last = float(largest) or 1.0, n_bins - 1
    edges = np.histogram_bin_edges(np.empty(0), n_bins, range=(0.0, top))
    # Edge k below the last is float(k) * step, as np.linspace makes it, so
    # each block's edges are computed from its float bin indices, not
    # gathered; the bins are exact integers in float64.  Every flag goes
    # through float scratch (np.copyto), as a bool operand of a float ufunc
    # is cast through a 64 KiB buffer.
    step = top / n_bins

    def label(x, out, i, e, c):
        # numpy's uniform-bin path: scale, then correct by one bin where
        # rounding crossed an edge; the last bin is closed.  Few blocks
        # hold such a state, so the corrections run only where one does.
        np.divide(x, top, out=i)
        i *= n_bins
        np.minimum(i, last, out=i)
        np.trunc(i, out=i)
        np.less(x, np.multiply(i, step, out=e), out=c)
        if c.any():
            np.copyto(e, c)
            i -= e
        np.add(i, 1.0, out=e)
        e *= step
        np.greater_equal(x, e, out=c)
        if c.any():
            np.copyto(e, c)
            i += e
            np.minimum(i, last, out=i)  # no step up out of the last bin
        i += 1.0
        np.greater(x, NEGATIVITY_FLOOR, out=c)  # the entangled flag
        np.copyto(e, c)
        i *= e
        np.copyto(out, i, casting="unsafe")

    return edges, label

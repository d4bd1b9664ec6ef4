"""Bayesian updating over a test set and posterior summaries.

Every test state is Bell-diagonal.  This module alone states what four
Bell weights predict on the five default settings (``SAME_OUTCOME_MAP``),
which record counts those predictions read (``same_different_counts``),
and the likelihood kernel built on both (``log_likelihood_vector``), which
takes a test set and which the posterior and the fits in ``criteria``
share.  The kernel takes one log per distinct pair sum w_a + w_b: the
different-outcome pairs are the same-outcome pairs' complements, so
nothing is clipped, and Bell-weight columns equal in every state are
merged (``TestSet.equal_columns``, found once per test set).  Per block of
states it forms every pair sum in one BLAS product of a 0/1 pick matrix
with the block's (4, m) weights, exact in any BLAS because each entry adds
two picked weights, takes their logs in one call, and adds the rows times
their counts in pair order, so its values equal a pair-by-pair loop bit for
bit.  The posterior mean state is the Bell-diagonal state of the mean
weights.  ``readouts`` gives the summary, histogram and mean state at
once: the moments, a few whole-array einsums, run beside the histogram
through ``families.beside``, on the worker thread for a test set of more
than one block on two usable CPUs.  ``log_likelihood`` is the
generic per-state version for any density matrix.

``characterize_sampled`` gives the same three readouts for the sampled
Bell-diagonal prior without building a test set: two blocked passes keep
16 B per state, against the materialized path's 58, and agree with it
within rounding, not bit for bit.

Log-likelihoods drop the multinomial coefficient: it is constant across
states, cancels in the posterior normalization, and the model-comparison
module uses the same convention so score differences are unaffected.

Subnormal rule: a state whose max-shifted log-likelihood is below
log(tiny) = -708.40 gets an exponential of exactly 0 rather than a
subnormal number, so its posterior weight is 0 instead of less than
tiny = 2.2e-308 times its prior weight over the most likely state's.
Every other weight is exactly prior * exp(shifted log-likelihood) / sum.
``characterize_sampled`` applies the rule per block, relative to the
block's largest log-likelihood.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import families, linalg, measurement
from .errors import ConfigError, DataError, check_int, check_real_array
from .families import TestSet

_LOG_2 = np.log(2.0)
_LOG_QUARTER = np.log(0.25)
#: Below this argument np.exp returns a subnormal number (or 0).
_LOG_TINY = np.log(np.finfo(float).tiny)

#: Same-outcome probability of the XX, YY and ZZ settings (columns) under
#: each Bell projector |Phi_1>..|Phi_4| (rows); linear in the Bell weights.
SAME_OUTCOME_MAP = np.array([[1.0, 0.0, 1.0],
                             [0.0, 1.0, 1.0],
                             [1.0, 1.0, 0.0],
                             [0.0, 0.0, 0.0]])

#: Pairs (a, b) of outcome probability (w_a + w_b)/2: XX, YY, ZZ same, then different.
_OUTCOME_PAIRS = [tuple(np.flatnonzero(col == v)) for v in (1, 0) for col in SAME_OUTCOME_MAP.T]


@dataclass
class Posterior:
    """Normalized weights over a test set, index-aligned with it."""

    weights: np.ndarray


@dataclass
class EstimateSummary:
    prob_entangled: float
    neg_mean: float
    neg_std: float
    pur_mean: float
    pur_std: float


@dataclass
class Histogram:
    """Equal-width negativity bins over (0, max]; zero-negativity mass kept apart."""

    bin_edges: np.ndarray
    bin_mass: np.ndarray
    separable_mass: float


def log_likelihood(rec: measurement.MeasurementRecord, rho: np.ndarray) -> float:
    """Sum of count * log(outcome probability); -inf if a zero-probability
    outcome was observed.  ConfigError unless rho is a density matrix."""
    total = 0.0
    for setting, row in zip(rec.settings, rec.counts):
        probs = measurement.outcome_probabilities(rho, setting)
        for count, p in zip(row, probs):
            if count > 0:
                if p <= 0.0:
                    return -np.inf
                total += count * np.log(p)
    return total


def same_different_counts(rec_or_freq):
    """Same-outcome and different-outcome counts of XX, YY and ZZ, each (3,).

    These, with the XY + YX total, are all a Bell-diagonal state's
    likelihood reads of a default-settings record or frequency table.
    """
    measurement.require_default_settings(rec_or_freq)
    split = rec_or_freq.counts[[0, 3, 4]]
    return split[:, 0] + split[:, 3], split[:, 1] + split[:, 2]


def _kernel(rec, first):
    """The likelihood kernel for a record and a column merge ``first``
    (``TestSet.equal_columns``), as a block step: ``(k, log_l)``, k the
    number of distinct pair sums.  ``log_l(w, s, out)`` writes the
    log-likelihoods of a block's (4, m) Bell weights ``w`` into ``out``,
    with ``s`` (k, m) scratch for the pair sums."""
    same, diff = same_different_counts(rec)
    n_split = float(same.sum() + diff.sum())
    n_quarter = float(rec.counts.sum() - same.sum() - diff.sum())
    constant = n_quarter * _LOG_QUARTER - n_split * _LOG_2
    # Counts per distinct pair sum; unobserved outcomes are left out, so
    # that 0 * log(0) never arises.
    terms = {}
    for (i, k), n in zip(_OUTCOME_PAIRS, np.concatenate([same, diff])):
        if n > 0:
            pair = tuple(sorted((first[i], first[k])))
            terms[pair] = terms.get(pair, 0) + n
    # One row per pair sum, picking its two weights (a merged pair's one
    # weight twice): each product is exact and each sum one rounding of
    # w_a + w_b, so the BLAS's order, FMA use and thread count move no bit.
    pick = np.zeros((len(terms), 4))
    for r, (i, k) in enumerate(terms):
        pick[r, i] += 1.0
        pick[r, k] += 1.0
    counts = np.array(list(terms.values()), dtype=float)

    def log_l(w, s, out):
        # The pair sums in one BLAS product, their logs in one call, each
        # row times its count (one broadcast product would copy a short
        # last block's counts into a buffer), then the rows added in the
        # order of _OUTCOME_PAIRS.
        np.matmul(pick, w, out=s)
        with np.errstate(divide="ignore"):
            np.log(s, out=s)
        for row, n in zip(s, counts):
            row *= n
        np.add.reduce(s, axis=0, out=out)
        out += constant

    return len(terms), log_l


def log_likelihood_vector(ts: TestSet, rec) -> np.ndarray:
    """Log-likelihood of a default-settings record under every state of the test set.

    Sum of count * log(w_a + w_b) over the outcome pairs, plus the XY/YX
    outcomes' log(1/4) and -log 2 per XX, YY and ZZ count; columns equal in
    every state (``TestSet.equal_columns``: w_3 = w_4 on the two-parameter
    grid) are merged, so an equal pair sum takes one log for its added
    counts.  An observed zero-probability outcome gives -inf.  ``rec`` is a
    MeasurementRecord or a FrequencyTable.
    """
    n_rows, log_l = _kernel(rec, ts.equal_columns)
    w, ll = ts.bell_weights.T, np.empty(ts.n_states)

    def add_terms(sl, own):
        m = sl.stop - sl.start
        log_l(w[:, sl], own[: n_rows * m].reshape(n_rows, m), ll[sl])

    families.in_parts(ts.n_states, add_terms, lambda m: np.empty(n_rows * m))
    return ll


def _exp_shifted(v, shift, keep, factor) -> None:
    """v <- exp(v - shift) in place, under the module's subnormal rule,
    with a bool and a float vector of v's length as scratch."""
    v -= shift
    np.greater_equal(v, _LOG_TINY, out=keep)
    np.copyto(factor, keep)
    # The clamp comes first: it turns -inf into a finite value, so
    # that zeroing by ``factor`` never forms -inf * 0 = nan.
    np.maximum(v, _LOG_TINY, out=v)
    # Zeroed, not only clamped: np.exp at log(tiny) itself takes numpy's
    # slow path, 14 ms against 0.7 ms at 0 per 10^6 elements (2-vCPU
    # Xeon), and at high shot counts most states sit at the clamp.  The
    # second ``v *= factor`` alone would give the same bits, slower.
    v *= factor
    np.exp(v, out=v)
    v *= factor


def update_posterior(ts: TestSet, rec: measurement.MeasurementRecord) -> Posterior:
    """Bayes update: weights proportional to the test set's prior * exp(log-likelihood).

    Normalized with a max-shifted exponential sum; summation order is
    fixed, so results are deterministic across runs.  Shifted
    log-likelihoods below log(tiny) count as an exponential of exactly 0
    (the module's subnormal rule): they are clamped and zeroed before
    ``np.exp`` and their weights zeroed after, so numpy runs its unmasked
    loop and never its slow subnormal path.  A prior the caller gave was
    checked when the test set was built; to update sequentially, build the
    next test set as ``TestSet(ts.bell_weights, post.weights)``.
    """
    w = log_likelihood_vector(ts, rec)
    shift = w.max()
    if not np.isfinite(shift):
        raise DataError("every test state assigns zero probability to the record")
    prior = ts.prior_weights

    def weigh(sl, own):
        # Every step runs in place on the kernel's output; the block's keep
        # mask, as bool and as float, is its only scratch.
        m, v = sl.stop - sl.start, w[sl]
        _exp_shifted(v, shift, own[0][:m], own[1][:m])
        v *= prior[sl]

    families.in_parts(ts.n_states, weigh, lambda m: (np.empty(m, bool), np.empty(m)))
    total = w.sum()
    if total <= 0.0:
        raise DataError("posterior mass vanished after the update")
    w /= total
    return Posterior(weights=w)


def _readout_weights(ts: TestSet, weights) -> np.ndarray:
    """The weights a readout sums, as a float array of shape (n,) for the
    test set's n states; ConfigError for any other shape or for values that
    are not real numbers (``errors.check_real_array``)."""
    w = check_real_array(weights, "weights")
    if w.shape != (ts.n_states,):
        raise ConfigError(f"weights must have shape ({ts.n_states},), got {w.shape}")
    return w


def _sums(ts: TestSet, w: np.ndarray) -> list:
    """The summary's five weighted sums: of the entangled mask, of the
    negativities and their squares, and of the purities and their squares."""
    neg, pur = ts.negativities, ts.purities
    return [float(np.einsum("i,i->", w, ts.entangled)),
            float(np.einsum("i,i->", w, neg)), float(np.einsum("i,i,i->", w, neg, neg)),
            float(np.einsum("i,i->", w, pur)), float(np.einsum("i,i,i->", w, pur, pur))]


def _summary(sums: list) -> EstimateSummary:
    prob_entangled, neg_mean, neg_square, pur_mean, pur_square = sums
    return EstimateSummary(
        prob_entangled=prob_entangled,
        neg_mean=neg_mean,
        neg_std=math.sqrt(max(0.0, neg_square - neg_mean**2)),
        pur_mean=pur_mean,
        pur_std=math.sqrt(max(0.0, pur_square - pur_mean**2)),
    )


def _mean_rho(mean_weights: np.ndarray, neg_mean: float) -> np.ndarray:
    """The Bell-diagonal state of the mean weights, checked against the
    convexity bound: its negativity may not exceed the mean negativity."""
    rho = families.bell_diagonal_state(mean_weights)
    neg = linalg.negativity(rho)
    if neg > neg_mean + 1e-9:
        raise ConfigError(
            f"mean-state negativity {neg:.6g} exceeds the posterior mean negativity {neg_mean:.6g}"
        )
    return rho


def summarize(ts: TestSet, post: Posterior) -> EstimateSummary:
    """Posterior entanglement probability and negativity/purity moments.

    ``prob_entangled`` is the weight on the test set's ``entangled`` mask;
    every field is a Python float.  Each field is an einsum sum of
    products, which needs no n-sized temporary and, unlike a BLAS dot
    product, does not depend on the BLAS thread count.
    """
    return _summary(_sums(ts, _readout_weights(ts, post.weights)))


def histogram_negativity(ts: TestSet, weights: np.ndarray, n_bins: int) -> Histogram:
    """Histogram of negativity under the given weights (prior or posterior).

    Each state's label is cached on the test set (``TestSet.negativity_bins``:
    0 for a state that is not entangled, else 1 + its bin), so a call adds
    the weights per label with ``np.bincount``, block by block so that no
    n-sized intp copy of the labels is held; label 0's mass is
    ``separable_mass``.  A block holds at least as many states as there are
    labels, so the bincount slots of all blocks cost O(n + n_bins), not
    O(n_bins) per block.  ``weights`` must have shape (n,) and
    ``n_bins`` must be an integer in [1, ``families.MAX_COUNT``], else
    ConfigError.
    """
    weights = _readout_weights(ts, weights)
    edges, labels = ts.negativity_bins(n_bins)
    return _histogram(edges.copy(), labels, weights)


def _histogram(edges, labels, weights) -> Histogram:
    """The weights added per label with ``np.bincount``, in blocks of at
    least as many states as there are labels: label 0 is the separable
    mass, label j the mass of bin j."""
    mass = np.zeros(len(edges))  # n_bins + 1 slots: label 0, then each bin
    for sl in families.blocks(len(labels), max(families.BLOCK, len(edges))):
        mass += np.bincount(labels[sl], weights[sl], minlength=len(edges))
    return Histogram(bin_edges=edges, bin_mass=mass[1:], separable_mass=float(mass[0]))


def mean_state(ts: TestSet, post: Posterior) -> np.ndarray:
    """Posterior mean density matrix sum_i w_i rho_i.

    Every state is Bell-diagonal, so this is the Bell-diagonal state of the
    posterior mean Bell weights.  Its negativity never exceeds the posterior
    mean negativity (the trace norm is convex); a violation means the cached
    negativities do not describe the states, and raises ConfigError.
    """
    w = _readout_weights(ts, post.weights)
    return _mean_rho(np.einsum("i,ij->j", w, ts.bell_weights),
                     float(np.einsum("i,i->", w, ts.negativities)))


def readouts(ts: TestSet, post: Posterior, n_bins: int):
    """``(summarize(ts, post), histogram_negativity(ts, post.weights,
    n_bins), mean_state(ts, post))``, equal bit for bit, from one pass of
    the weights' moments.

    The moments (the summary's five sums and the mean Bell weights, a few
    long einsums that let go of the GIL) are ``families.beside``'s job over
    the test set's states, while the calling thread builds the histogram:
    on the worker thread for more than ``families.BLOCK`` states on two
    usable CPUs, else first, on the calling thread.  The mean state's
    convexity bound is the summary's ``neg_mean``, the same sum
    ``mean_state`` takes.  Errors are those of the three readouts.
    """
    w, moments = _readout_weights(ts, post.weights), []

    def job():
        moments.extend((_sums(ts, w), np.einsum("i,ij->j", w, ts.bell_weights)))

    with families.beside(ts.n_states, job):
        hist = histogram_negativity(ts, w, n_bins)
    sums, mean_weights = moments
    summary = _summary(sums)
    return summary, hist, _mean_rho(mean_weights, summary.neg_mean)


#: A pass-1 block's row of sums over its states, each term times e, the
#: exponential shifted by the block's largest log-likelihood M_b: of 1, the
#: entangled flag, N, N^2, P, P^2 and w_0..w_3; then M_b and the block's
#: largest negativity.
_ROW = 12


def characterize_sampled(n: int, seed: int, rec, n_bins: int):
    """``readouts`` of ``simplex_prior_bell_diagonal(n, seed)`` updated on
    ``rec``, with no test set built: ``(summary, histogram, mean state)``
    from two blocked passes that keep a (2, n) float64 buffer, 16 B per
    state, and about 90 B per block state of scratch for each thread.

    Pass 1, in ``families.in_parts``, draws each block, checks it, takes
    its scalars and runs the kernel, then the exponential shifted by the
    block's own largest log-likelihood M_b.  It keeps the negativities and
    these weights, and writes the block's row of sums (``_ROW``).  The calling thread adds the
    rows in block order, each times e^(M_b - M), M the largest
    log-likelihood.  Pass 2 runs on the calling thread, as the label build
    of ``TestSet.negativity_bins`` does, since its numpy calls are short
    (7.2 ms at 10^6 states, against 10.3 ms shared with the worker, on a
    2-vCPU Xeon).  It
    overwrites each negativity with its histogram label, as int64, which
    ``np.bincount`` reads uncast, and scales each weight by its block's
    factor, so it takes no exponential; then the weights are added per
    label in block order, as ``histogram_negativity`` does.

    Each step is the materialized path's block step, so the draws equal one
    ``rng.random((n, 3))`` and the bin edges are the same bytes.  The sums
    add in another order, so the results agree with ``readouts`` within
    rounding (about 1e-13), and a weight below tiny times the largest is
    zeroed only where it is below tiny times its block's largest.  Each sum
    is made by one thread in one order, so the split moves no bit.  No
    pair sums are merged: no column of sampled weights equals another in
    every state.  The errors are those of the prior, the update and the
    readouts, in that order.
    """
    n = check_int(n, "sample count", 1, families.MAX_COUNT)
    generator, spacings = families.simplex_spacings(seed)
    scalars = families.bell_scalars()
    n_rows, log_l = _kernel(rec, (0, 1, 2, 3))
    width = max(3, n_rows)  # one buffer for the uniforms, the check's sums and the pair sums
    # One 16 MB buffer at 10^6 states, not two of 8 MB: glibc keeps a
    # freed block in its heap while it is under twice the largest block it
    # has unmapped, so a repeated call reuses it.  Two 8 MB vectors were
    # unmapped and touched afresh on each call: 1500-2000 minor page faults
    # and about 4 ms per warm call (2-vCPU Xeon).
    neg, weights = np.empty((2, n))
    rows = np.empty((-(-n // families.BLOCK), _ROW))

    def scratch(m):  # generator, Bell weights, purities, flags, shared buffer
        return (generator(), np.empty((4, m)), np.empty(m), np.empty((2, m), bool),
                np.empty(width * m))

    def score(sl, own):
        gen, w, pur, flags, shared = own
        k, row, v, x = sl.stop - sl.start, rows[sl.start // families.BLOCK], weights[sl], neg[sl]
        w, pur, (ent, keep) = w[:, :k], pur[:k], flags[:, :k]
        spacings(sl, gen, shared[: 3 * k].reshape(k, 3), w)
        a, b = shared[: 2 * k].reshape(2, k)
        scalars(w.T, a, b, x, pur, ent)
        log_l(w, shared[: n_rows * k].reshape(n_rows, k), v)
        row[10], row[11] = v.max(), x.max()
        # A block whose states all give the record zero probability keeps
        # -inf, its weights 0 and its row's sums 0.
        _exp_shifted(v, row[10] if np.isfinite(row[10]) else 0.0, keep, a)
        np.copyto(a, ent)  # as float: einsum casts a bool operand through a 64 KiB buffer
        row[0], row[1] = np.einsum("i->", v), np.einsum("i,i->", v, a)
        row[2], row[3] = np.einsum("i,i->", v, x), np.einsum("i,i,i->", v, x, x)
        row[4], row[5] = np.einsum("i,i->", v, pur), np.einsum("i,i,i->", v, pur, pur)
        np.einsum("ji,i->j", w, v, out=row[6:10])

    families.in_parts(n, score, scratch)
    top = rows[:, 10].max()
    if not np.isfinite(top):
        raise DataError("every test state assigns zero probability to the record")
    scale = np.exp(rows[:, 10] - top)
    sums = np.einsum("b,bj->j", scale, rows[:, :10])
    scale /= sums[0]
    sums /= sums[0]
    edges, label = families.negativity_labels(rows[:, 11].max(), n_bins)
    labels, m = neg.view(np.int64), min(n, families.BLOCK)
    i_buf, e_buf, c_buf = np.empty(m), np.empty(m), np.empty(m, bool)
    for b, sl in enumerate(families.blocks(n)):  # on the calling thread, as negativity_bins
        k = sl.stop - sl.start
        label(neg[sl], labels[sl], i_buf[:k], e_buf[:k], c_buf[:k])
        weights[sl] *= scale[b]
    summary = _summary([float(a) for a in sums[1:6]])
    return summary, _histogram(edges, labels, weights), _mean_rho(sums[6:10], summary.neg_mean)

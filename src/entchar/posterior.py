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

Log-likelihoods drop the multinomial coefficient: it is constant across
states, cancels in the posterior normalization, and the model-comparison
module uses the same convention so score differences are unaffected.

Subnormal rule: a state whose max-shifted log-likelihood is below
log(tiny) = -708.40 gets an exponential of exactly 0 rather than a
subnormal number, so its posterior weight is 0 instead of less than
tiny = 2.2e-308 times its prior weight over the most likely state's.
Every other weight is exactly prior * exp(shifted log-likelihood) / sum.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import families, linalg, measurement
from .errors import ConfigError, DataError, check_real_array
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


def log_likelihood_vector(ts: TestSet, rec) -> np.ndarray:
    """Log-likelihood of a default-settings record under every state of the test set.

    Sum of count * log(w_a + w_b) over the outcome pairs, plus the XY/YX
    outcomes' log(1/4) and -log 2 per XX, YY and ZZ count; columns equal in
    every state (``TestSet.equal_columns``: w_3 = w_4 on the two-parameter
    grid) are merged, so an equal pair sum takes one log for its added
    counts.  An observed zero-probability outcome gives -inf.  ``rec`` is a
    MeasurementRecord or a FrequencyTable.
    """
    same, diff = same_different_counts(rec)
    n_split = float(same.sum() + diff.sum())
    n_quarter = float(rec.counts.sum() - same.sum() - diff.sum())
    constant = n_quarter * _LOG_QUARTER - n_split * _LOG_2
    # Counts per distinct pair sum; unobserved outcomes are left out, so
    # that 0 * log(0) never arises.
    first, terms = ts.equal_columns, {}
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
    w, ll = ts.bell_weights.T, np.empty(ts.n_states)

    def add_terms(sl, own):
        # Per block, in the block's scratch: the pair sums in one BLAS
        # product, their logs in one call, each row times its count (one
        # broadcast product would copy a short last block's counts into a
        # buffer), then the rows added in the order of _OUTCOME_PAIRS.
        m = sl.stop - sl.start
        s = own[: len(terms) * m].reshape(len(terms), m)
        np.matmul(pick, w[:, sl], out=s)
        with np.errstate(divide="ignore"):
            np.log(s, out=s)
        for row, n in zip(s, counts):
            row *= n
        acc = np.add.reduce(s, axis=0, out=ll[sl])
        acc += constant

    families.in_parts(ts.n_states, add_terms, lambda m: np.empty(len(terms) * m))
    return ll


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
        m = sl.stop - sl.start
        v, keep, factor = w[sl], own[0][:m], own[1][:m]
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
    mass = np.zeros(len(edges))  # n_bins + 1 slots: label 0, then each bin
    for sl in families.blocks(ts.n_states, max(families.BLOCK, len(edges))):
        mass += np.bincount(labels[sl], weights[sl], minlength=len(edges))
    return Histogram(bin_edges=edges.copy(), bin_mass=mass[1:], separable_mass=float(mass[0]))


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

"""Bayesian updating over a test set and posterior summaries.

Every test state is Bell-diagonal.  This module alone states what four
Bell weights predict on the five default settings (``SAME_OUTCOME_MAP``),
which record counts those predictions read (``same_different_counts``),
and the likelihood kernel built on both (``bell_log_likelihood``), which
the posterior and the fits in ``criteria`` share.  The posterior mean
state is the Bell-diagonal state of the mean weights.  ``log_likelihood``
is the generic per-state version for any density matrix.

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
from .errors import ConfigError, DataError
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

#: The two Bell weights that sum to each setting's same-outcome probability.
_SAME_OUTCOME_PAIRS = [tuple(np.flatnonzero(col)) for col in SAME_OUTCOME_MAP.T]


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
    outcome was observed."""
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


def bell_log_likelihood(weights, rec) -> np.ndarray:
    """Log-likelihood of a default-settings record under rows of Bell weights (n, 4).

    Each state predicts s/2 for the two same outcomes and (1-s)/2 for the
    two different outcomes of XX, YY and ZZ, with s = w @ SAME_OUTCOME_MAP
    clipped to [0, 1], and 1/4 for every XY and YX outcome, whose total is
    every count outside XX, YY and ZZ.  An observed zero-probability
    outcome gives -inf.  ``rec`` is a MeasurementRecord or a FrequencyTable.
    """
    same, diff = same_different_counts(rec)
    w = np.asarray(weights, dtype=float)
    # One (3, n) buffer: freeing it raises glibc's mmap threshold above n
    # floats, so later n-sized arrays reuse the heap; as three arrays each
    # is a fresh mmap per call, thousands of page faults per sweep-grid op.
    s = np.empty((3, len(w)))
    for row, (i, k) in zip(s, _SAME_OUTCOME_PAIRS):
        np.add(w[:, i], w[:, k], out=row)
    np.clip(s, 0.0, 1.0, out=s)
    ll, term = np.zeros(len(w)), np.empty(len(w))
    # Setting by setting; unobserved outcomes are left out, so that
    # 0 * log(0) never arises.
    with np.errstate(divide="ignore"):
        for row, n_same, n_diff in zip(s, same, diff):
            if n_same > 0:
                ll += np.multiply(np.log(row, out=term), n_same, out=term)
            if n_diff > 0:
                np.negative(row, out=term)
                ll += np.multiply(np.log1p(term, out=term), n_diff, out=term)
    n_split = float(same.sum() + diff.sum())
    n_quarter = float(rec.counts.sum() - same.sum() - diff.sum())
    ll += n_quarter * _LOG_QUARTER - n_split * _LOG_2
    return ll


def log_likelihood_vector(ts: TestSet, rec: measurement.MeasurementRecord) -> np.ndarray:
    """Log-likelihood of the record under every state in the test set."""
    return bell_log_likelihood(ts.bell_weights, rec)


def update_posterior(ts: TestSet, rec: measurement.MeasurementRecord) -> Posterior:
    """Bayes update: weights proportional to the test set's prior * exp(log-likelihood).

    Normalized with a max-shifted exponential sum; summation order is
    fixed, so results are deterministic across runs.  Shifted
    log-likelihoods below log(tiny) count as an exponential of exactly 0
    (the module's subnormal rule): they are clamped and zeroed before
    ``np.exp`` and their weights zeroed after, so numpy runs its unmasked
    loop and never its slow subnormal path.  The prior was checked when
    the test set was built; to update sequentially, build the next test set
    as ``TestSet(ts.bell_weights, post.weights)``.
    """
    ll = log_likelihood_vector(ts, rec)
    shift = ll.max()
    if not np.isfinite(shift):
        raise DataError("every test state assigns zero probability to the record")
    ll -= shift
    keep = ll >= _LOG_TINY
    # The clamp comes first: it turns -inf into a finite value, so that
    # zeroing by ``keep`` never forms -inf * 0 = nan.
    np.maximum(ll, _LOG_TINY, out=ll)
    ll *= keep
    w = np.exp(ll, out=ll)
    w *= keep
    w *= ts.prior_weights
    total = w.sum()
    if total <= 0.0:
        raise DataError("posterior mass vanished after the update")
    w /= total
    return Posterior(weights=w)


def summarize(ts: TestSet, post: Posterior) -> EstimateSummary:
    """Posterior entanglement probability and negativity/purity moments.

    ``prob_entangled`` sums the weights gathered through the test set's
    cached entangled index; every field is a Python float.  The moments
    are einsum sums of products, which need no squared temporaries and,
    unlike BLAS dot products, do not depend on the BLAS thread count.
    """
    w = post.weights
    if len(w) != ts.n_states:
        raise ConfigError("posterior does not match the test set")
    neg, pur = ts.negativities, ts.purities
    neg_mean = float(np.einsum("i,i->", w, neg))
    neg_var = max(0.0, float(np.einsum("i,i,i->", w, neg, neg)) - neg_mean**2)
    pur_mean = float(np.einsum("i,i->", w, pur))
    pur_var = max(0.0, float(np.einsum("i,i,i->", w, pur, pur)) - pur_mean**2)
    return EstimateSummary(
        prob_entangled=float(w.take(ts.entangled_index).sum()),
        neg_mean=neg_mean,
        neg_std=math.sqrt(neg_var),
        pur_mean=pur_mean,
        pur_std=math.sqrt(pur_var),
    )


def histogram_negativity(ts: TestSet, weights: np.ndarray, n_bins: int) -> Histogram:
    """Histogram of negativity under the given weights (prior or posterior).

    Entangled and separable states are gathered through the test set's
    cached indices; the masses equal those of boolean-mask selections.
    """
    if len(weights) != ts.n_states:
        raise ConfigError("weights do not match the test set")
    ent = ts.entangled_index
    separable_mass = float(weights.take(ts.separable_index).sum())
    top = float(ts.negativities.max())
    if top <= 0.0:
        top = 1.0
    # A bin count and range, rather than explicit edges, take numpy's
    # uniform-bin path; the edges and bin assignment are the same.
    mass, edges = np.histogram(ts.negativities.take(ent), bins=n_bins, range=(0.0, top),
                               weights=weights.take(ent))
    return Histogram(bin_edges=edges, bin_mass=mass, separable_mass=separable_mass)


def mean_state(ts: TestSet, post: Posterior) -> np.ndarray:
    """Posterior mean density matrix sum_i w_i rho_i.

    Every state is Bell-diagonal, so this is the Bell-diagonal state of the
    posterior mean Bell weights.  Its negativity never exceeds the posterior
    mean negativity (the trace norm is convex); a violation means the cached
    negativities do not describe the states, and raises ConfigError.
    """
    w = post.weights
    if len(w) != ts.n_states:
        raise ConfigError("posterior does not match the test set")
    rho = families.bell_diagonal_state(np.einsum("i,ij->j", w, ts.bell_weights))
    neg, bound = linalg.negativity(rho), float(np.einsum("i,i->", w, ts.negativities))
    if neg > bound + 1e-9:
        raise ConfigError(
            f"mean-state negativity {neg:.6g} exceeds the posterior mean negativity {bound:.6g}"
        )
    return rho

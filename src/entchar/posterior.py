"""Bayesian updating over a test set and posterior summaries.

Every test state is Bell-diagonal, so its likelihood on the five default
settings depends on the record only through the XX, YY and ZZ
same/different-outcome counts and the XY + YX total (``bell_log_likelihood``),
and the posterior mean state is the Bell-diagonal state of the mean weights.
``log_likelihood`` is the generic per-state version for any density matrix.

Log-likelihoods drop the multinomial coefficient: it is constant across
states, cancels in the posterior normalization, and the model-comparison
module uses the same convention so score differences are unaffected.
"""

from dataclasses import dataclass

import numpy as np

from . import families, linalg, measurement
from .errors import AllStatesExcludedError, LengthMismatchError, OutOfDomainError
from .families import TestSet

#: Rows of the default settings where every Bell-diagonal state predicts
#: 1/4 per outcome (XY, YX).
_QUARTER_ROWS = [1, 2]
_LOG_2 = np.log(2.0)
_LOG_QUARTER = np.log(0.25)
#: Below this argument np.exp rounds to exactly 0.
_EXP_UNDERFLOW = -746.0


@dataclass
class Posterior:
    """Normalized weights over a test set, index-aligned with it."""

    weights: np.ndarray
    record: measurement.MeasurementRecord


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


def bell_log_likelihood(weights, rec) -> np.ndarray:
    """Log-likelihood of a default-settings record under rows of Bell weights (n, 4).

    Each state predicts s/2 for the two same outcomes and (1-s)/2 for the
    two different outcomes of XX, YY and ZZ, and 1/4 for every XY and YX
    outcome.  An observed zero-probability outcome gives -inf.  ``rec`` is
    a MeasurementRecord or a FrequencyTable.
    """
    same, diff = measurement.same_different_counts(rec)
    s = families.same_outcome_probabilities(weights)
    ll, term = np.zeros(len(s)), np.empty(len(s))
    # Column by column; unobserved outcomes are left out, so that
    # 0 * log(0) never arises.
    with np.errstate(divide="ignore"):
        for j in range(s.shape[1]):
            if same[j] > 0:
                ll += np.multiply(np.log(s[:, j], out=term), same[j], out=term)
            if diff[j] > 0:
                np.negative(s[:, j], out=term)
                ll += np.multiply(np.log1p(term, out=term), diff[j], out=term)
    n_split, n_quarter = float(same.sum() + diff.sum()), float(rec.counts[_QUARTER_ROWS].sum())
    ll += n_quarter * _LOG_QUARTER - n_split * _LOG_2
    return ll


def log_likelihood_vector(ts: TestSet, rec: measurement.MeasurementRecord) -> np.ndarray:
    """Log-likelihood of the record under every state in the test set."""
    return bell_log_likelihood(ts.bell_weights, rec)


def update_posterior(
    ts: TestSet,
    rec: measurement.MeasurementRecord,
    prior_weights: np.ndarray | None = None,
) -> Posterior:
    """Bayes update: weights proportional to prior * exp(log-likelihood).

    Normalized with a max-shifted exponential sum; summation order is
    fixed, so results are deterministic across runs.  exp(x) is exactly 0
    for x < -745.14, so the exponential is only evaluated above -746:
    the weights are unchanged, and numpy's slow underflow path is skipped.
    """
    prior = ts.prior_weights if prior_weights is None else np.asarray(prior_weights)
    if len(prior) != ts.n_states:
        raise LengthMismatchError("prior weights do not match the test set")
    ll = log_likelihood_vector(ts, rec)
    shift = ll.max()
    if not np.isfinite(shift):
        raise AllStatesExcludedError("every test state assigns zero probability to the record")
    ll -= shift
    w = np.exp(ll, out=np.zeros_like(ll), where=ll > _EXP_UNDERFLOW)
    w *= prior
    total = w.sum()
    if total <= 0.0:
        raise AllStatesExcludedError("posterior mass vanished after the update")
    w /= total
    return Posterior(weights=w, record=rec)


def summarize(ts: TestSet, post: Posterior) -> EstimateSummary:
    """Posterior entanglement probability and negativity/purity moments."""
    w = post.weights
    if len(w) != ts.n_states:
        raise LengthMismatchError("posterior does not match the test set")
    neg_mean = float(w @ ts.negativities)
    neg_var = max(0.0, float(w @ ts.negativities**2) - neg_mean**2)
    pur_mean = float(w @ ts.purities)
    pur_var = max(0.0, float(w @ ts.purities**2) - pur_mean**2)
    return EstimateSummary(
        prob_entangled=float(w[ts.entangled].sum()),
        neg_mean=neg_mean,
        neg_std=np.sqrt(neg_var),
        pur_mean=pur_mean,
        pur_std=np.sqrt(pur_var),
    )


def histogram_negativity(ts: TestSet, weights: np.ndarray, n_bins: int) -> Histogram:
    """Histogram of negativity under the given weights (prior or posterior)."""
    if len(weights) != ts.n_states:
        raise LengthMismatchError("weights do not match the test set")
    ent = ts.entangled
    separable_mass = float(weights[~ent].sum())
    top = float(ts.negativities.max())
    if top <= 0.0:
        top = 1.0
    # A bin count and range, rather than explicit edges, take numpy's
    # uniform-bin path; the edges and bin assignment are the same.
    mass, edges = np.histogram(ts.negativities[ent], bins=n_bins, range=(0.0, top),
                               weights=weights[ent])
    return Histogram(bin_edges=edges, bin_mass=mass, separable_mass=separable_mass)


def mean_state(ts: TestSet, post: Posterior) -> np.ndarray:
    """Posterior mean density matrix sum_i w_i rho_i.

    Every state is Bell-diagonal, so this is the Bell-diagonal state of the
    posterior mean Bell weights.  Its negativity never exceeds the posterior
    mean negativity (the trace norm is convex); a violation means the cached
    negativities do not describe the states, and raises OutOfDomainError.
    """
    w = post.weights
    if len(w) != ts.n_states:
        raise LengthMismatchError("posterior does not match the test set")
    rho = families.bell_diagonal_state(w @ ts.bell_weights)
    neg, bound = linalg.negativity(rho), float(w @ ts.negativities)
    if neg > bound + 1e-9:
        raise OutOfDomainError(
            f"mean-state negativity {neg:.6g} exceeds the posterior mean negativity {bound:.6g}"
        )
    return rho

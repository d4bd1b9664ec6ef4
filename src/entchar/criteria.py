"""Maximum likelihoods of the candidate source models and AIC/BIC scoring.

Three models are compared on a five-setting correlation record:

* "full": all physical two-qubit states.  Its maximum log-likelihood is
  the entropy-form bound sum N_ij f_ijk log(f_ijk), the maximum over the
  5 x 3 = 15 free setting frequencies.  On expected counts from a physical
  state the bound is attained; on sampled records it overfits, exceeding
  the true state's log-likelihood by about chi2_15 / 2 (7.5 nats on average).
* "bell_diag": Bell-diagonal states (3 parameters).  These predict 1/4
  for every off-diagonal-setting outcome and symmetric splits within the
  XX, YY and ZZ settings, so the fit has a closed form whenever the
  implied simplex weights are non-negative.  Otherwise the maximum lies on
  a face of the simplex, where one bisection per face in Python floats
  finds it to the last bit (``_face_maxima``).
* "two_param": the white-noise + phase-noise family (2 parameters).  It
  is the Bell-diagonal family restricted to p3 = p4 with the additional
  constraint p1 - p2 <= p1 + p2 - 2*p3 (coherence cannot exceed the
  mixing weight).  The constrained maximizer is still closed-form.

Both fits read the XX, YY and ZZ same/different-outcome counts
(``posterior.same_different_counts``), so each setting weighs by its
shots.  Both restricted models are scored by the posterior module's
likelihood kernel on their fitted Bell weights as a one-state test set,
so the posterior and the model comparison share one likelihood and its
no-multinomial-coefficient convention; all score differences are
convention-free.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import families, measurement, posterior
from .errors import DataError, check_int
from .measurement import FrequencyTable, MeasurementRecord

K_FULL = 11  # 6 local marginals + 5 correlators, as fixed by the published table
K_BELL_DIAGONAL = 3
K_TWO_PARAM = 2

@dataclass
class ModelScore:
    log_l: float
    k: int
    omega_aic: float
    omega_bic: float
    n_m: int


@dataclass
class ComparisonReport:
    scores: dict                # model name -> ModelScore
    delta_omega: float          # Omega_{two_param} - Omega_{full}, AIC
    delta_omega_bd: float       # Omega_{bell_diag} - Omega_{full}, AIC
    delta_omega_primed: float   # BIC analogues
    delta_omega_bd_primed: float
    winner_aic: str
    winner_bic: str
    closed_form: dict


def _xlogy(x, y) -> float:
    """x * log(y) for y >= 0, and 0 where x == 0: the value of
    scipy.special.xlogy bit for bit, since ``math.log`` is the C library's
    log, which xlogy calls (numpy's own log may differ by an ulp)."""
    if x == 0:
        return 0.0
    return x * math.log(y) if y > 0 else -math.inf


#: Elementwise _xlogy, laid out and summed in xlogy's memory order.
_XLOGY = np.frompyfunc(_xlogy, 2, 1)


def log_l_full_bound(freq: FrequencyTable) -> float:
    """Entropy bound on the maximum log-likelihood over all states.

    The terms and their sum are float64 for every count dtype.
    """
    return float(_XLOGY(freq.counts, freq.freqs).astype(float).sum())


def fit_bell_diagonal(freq: FrequencyTable):
    """Maximum-likelihood Bell-diagonal weights.

    Returns (weights, closed_form).  The closed form inverts the observed
    same-outcome fractions of the XX, YY and ZZ settings; weights down to
    -1e-12 are clipped to 0.  When it leaves the simplex, or its weights
    give an observed outcome probability 0 (as when a fraction rounds to 0
    or 1 though both kinds of outcome were seen, or a weight was clipped),
    the maximum lies on a face p_m = 0: ``_face_maxima`` finds the maximum
    on each of the four faces, by one bisection in Python floats that
    raises no float error; the likelihood picks the best, and
    ``closed_form`` is False.  The likelihood is concave, so that face
    maximum is the global one.
    """
    same, diff = posterior.same_different_counts(freq)
    s_xx, s_yy, s_zz = same / (same + diff)
    p = np.array(
        [
            (s_xx - s_yy + s_zz) / 2.0,
            (-s_xx + s_yy + s_zz) / 2.0,
            (s_xx + s_yy - s_zz) / 2.0,
            1.0 - (s_xx + s_yy + s_zz) / 2.0,
        ]
    )
    if p.min() >= -1e-12:
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        same_p = p @ posterior.SAME_OUTCOME_MAP  # XX, YY and ZZ same-outcome probabilities
        diff_p = p @ (1.0 - posterior.SAME_OUTCOME_MAP)
        impossible = ((same > 0) & (same_p == 0.0)) | ((diff > 0) & (diff_p == 0.0))
        if not impossible.any():
            return p, True
    faces = _face_maxima(same, diff)
    return faces[np.argmax(posterior.log_likelihood_vector(families.TestSet(faces), freq))], False


_SAME = posterior.SAME_OUTCOME_MAP.astype(bool)
#: _PARTNER[m, j] is the other Bell weight whose entry in column j of
#: SAME_OUTCOME_MAP equals weight m's.  On the face p_m = 0, setting j's
#: same-outcome probability is that weight, if the entry is 1, or one minus
#: it, if the entry is 0; each remaining weight serves exactly one setting.
_PARTNER = np.array(
    [[next(i for i in range(4) if i != m and _SAME[i, j] == _SAME[m, j]) for j in range(3)]
     for m in range(4)]
)


def _face_maxima(same: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Maximum-likelihood Bell weights on each face p_m = 0, as rows (4, 4).

    On face m the likelihood is sum_j a_j log q_j + b_j log(1 - q_j) over
    the three remaining weights q_j = p[_PARTNER[m, j]], subject to
    sum_j q_j = 1.  Stationarity a/q - b/(1-q) = lam gives each q_j as a
    decreasing function of the multiplier lam, and each face bisects its
    own lam in Python floats until the midpoint equals an end of its
    bracket.  At lam = -n every q_j >= 1 + b_j/lam, so sum_j q_j >= 1, and
    at lam = n every q_j <= a_j/lam, so sum_j q_j <= 1.  Of the root's two
    forms, each free of cancellation on its side of t = lam + a + b = 0,
    only the one that applies is evaluated; every setting has shots, so
    lam < 0 on the second and no float error arises.
    """
    counts = [(float(s), float(d)) for s, d in zip(same, diff)]
    n = float(same.sum() + diff.sum())
    weights = np.zeros((4, 4))
    for m in range(4):
        pairs = [(s, d) if _SAME[m, j] else (d, s) for j, (s, d) in enumerate(counts)]
        lo, hi = -n, n
        while True:
            lam = (lo + hi) / 2.0
            q = []
            for a, b in pairs:
                # d * d, not d ** 2: ** calls the C library's pow, which may round apart.
                t, d = lam + a + b, lam + b - a
                root = math.sqrt(d * d + 4.0 * a * b)
                q.append(2.0 * a / (t + root) if t > 0.0 else (t - root) / (2.0 * lam))
            if not lo < lam < hi:
                break
            # Not sum(q): since Python 3.12 it compensates its rounding.
            lo, hi = (lam, hi) if q[0] + q[1] + q[2] > 1.0 else (lo, lam)
        weights[m, _PARTNER[m]] = q
    return weights / weights.sum(axis=1, keepdims=True)


def fit_two_param(freq: FrequencyTable):
    """Maximum-likelihood (p, p*c) of the two-parameter family.

    Returns (p, b, closed_form) with b = p * c(sigma).  The model predicts
    (1+p)/2 for the ZZ same outcomes, (1+b)/2 for the XX same and YY
    different outcomes, and (1-b)/2 for the rest of XX and YY, so the
    unconstrained fit sets p from the ZZ counts and b from the XX and YY
    counts pooled.  When that violates b <= p, the maximizer lies on the
    b = p face, which pools all three settings and is itself closed-form.
    ``closed_form`` is True for the unconstrained case only, where a b
    past p by rounding (1e-15) is taken as p, so no Bell weight is < 0.
    """
    (s_xx, s_yy, s_zz), (d_xx, d_yy, d_zz) = posterior.same_different_counts(freq)
    up, down = s_xx + d_yy, d_xx + s_yy
    p_un = float(np.clip((s_zz - d_zz) / (s_zz + d_zz), 0.0, 1.0))
    b_un = float(np.clip((up - down) / (up + down), 0.0, 1.0))
    if b_un <= p_un + 1e-15:
        return p_un, min(b_un, p_un), True
    up, down = up + s_zz, down + d_zz
    shared = float(np.clip((up - down) / (up + down), 0.0, 1.0))
    return shared, shared, False


def _log_l(weights, rec: MeasurementRecord) -> float:
    return float(posterior.log_likelihood_vector(families.TestSet(np.atleast_2d(weights)), rec)[0])


def score(log_l: float, k: int, n_m: int) -> ModelScore:
    """AIC and BIC scores: log L - k and log L - k*ln(N_m)/2."""
    n_m, k = check_int(n_m, "total shot count", 1), check_int(k, "parameter count", 0)
    log_l = float(log_l)
    return ModelScore(
        log_l=log_l,
        k=k,
        omega_aic=log_l - k,
        omega_bic=float(log_l - k * np.log(n_m) / 2.0),
        n_m=n_m,
    )


def _winner(scores, key) -> str:
    # Ties break toward fewer parameters.
    return max(scores, key=lambda name: (key(scores[name]), -scores[name].k))


def compare(rec: MeasurementRecord) -> ComparisonReport:
    """Score all three models on one record and report the deltas; DataError
    also if the record's counts round to fewer than one shot."""
    measurement.require_default_settings(rec)
    freq = measurement.frequencies(rec)
    n_m = rec.n_total
    if n_m < 1:
        raise DataError(f"record counts total {float(rec.counts.sum())!r}, under one shot")
    p_bd, bd_closed = fit_bell_diagonal(freq)
    p_tp, b_tp, tp_closed = fit_two_param(freq)
    l_tp = _log_l(families.two_param_bell_weights(p_tp, b_tp), rec)
    scores = {
        "full": score(log_l_full_bound(freq), K_FULL, n_m),
        "bell_diag": score(_log_l(p_bd, rec), K_BELL_DIAGONAL, n_m),
        "two_param": score(l_tp, K_TWO_PARAM, n_m),
    }
    return ComparisonReport(
        scores=scores,
        delta_omega=scores["two_param"].omega_aic - scores["full"].omega_aic,
        delta_omega_bd=scores["bell_diag"].omega_aic - scores["full"].omega_aic,
        delta_omega_primed=scores["two_param"].omega_bic - scores["full"].omega_bic,
        delta_omega_bd_primed=scores["bell_diag"].omega_bic - scores["full"].omega_bic,
        winner_aic=_winner(scores, lambda s: s.omega_aic),
        winner_bic=_winner(scores, lambda s: s.omega_bic),
        closed_form={"bell_diag": bd_closed, "two_param": tp_closed},
    )

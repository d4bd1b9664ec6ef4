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
  implied simplex weights are non-negative.
* "two_param": the white-noise + phase-noise family (2 parameters).  It
  is the Bell-diagonal family restricted to p3 = p4 with the additional
  constraint p1 - p2 <= p1 + p2 - 2*p3 (coherence cannot exceed the
  mixing weight).  The constrained maximizer is still closed-form.

Both restricted models are scored at their fitted Bell weights by the
posterior module's likelihood kernel, so the posterior and the model
comparison share one likelihood and its no-multinomial-coefficient
convention; all score differences are convention-free.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from . import families, measurement, posterior
from .errors import InvalidCountError
from .measurement import FrequencyTable, MeasurementRecord

K_FULL = 11  # 6 local marginals + 5 correlators, as fixed by the published table
K_BELL_DIAGONAL = 3
K_TWO_PARAM = 2

# Row indices of XX, YY and ZZ in the default settings (XX, XY, YX, YY, ZZ).
_XX, _YY, _ZZ = 0, 3, 4


@dataclass
class ModelScore:
    model_id: str
    log_l: float
    k: int
    omega_aic: float
    omega_bic: float
    n_m: int


@dataclass
class ComparisonReport:
    scores: dict
    delta_omega: float          # Omega_{two_param} - Omega_{full}, AIC
    delta_omega_bd: float       # Omega_{bell_diag} - Omega_{full}, AIC
    delta_omega_primed: float   # BIC analogues
    delta_omega_bd_primed: float
    winner_aic: str
    winner_bic: str
    closed_form: dict


def log_l_full_bound(freq: FrequencyTable, rec: MeasurementRecord) -> float:
    """Entropy bound on the maximum log-likelihood over all states."""
    return float(xlogy(rec.counts, freq.freqs).sum())


def fit_bell_diagonal(freq: FrequencyTable):
    """Best-fitting Bell-diagonal weights.

    Returns (weights, closed_form).  The closed form inverts the observed
    same-outcome sums of the XX, YY and ZZ settings; when it leaves the
    simplex, a dense grid with local refinement maximizes the exact
    per-setting likelihood instead and ``closed_form`` is False.
    """
    measurement.require_default_settings(freq)
    f = freq.freqs
    s_xx = f[_XX, 0] + f[_XX, 3]
    s_yy = f[_YY, 0] + f[_YY, 3]
    s_zz = f[_ZZ, 0] + f[_ZZ, 3]
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
        return p / p.sum(), True
    a, b, c = _constrained_sums(s_xx, s_yy, s_zz)
    p = np.array(
        [
            (a - b + c) / 2.0,
            (-a + b + c) / 2.0,
            (a + b - c) / 2.0,
            1.0 - (a + b + c) / 2.0,
        ]
    )
    p = np.clip(p, 0.0, None)
    return p / p.sum(), False


def _constrained_sums(s_xx: float, s_yy: float, s_zz: float):
    """Maximize the per-setting likelihood over feasible same-outcome sums.

    Objective: sum over the three diagonal settings of
    s*log(x/2) + (1-s)*log((1-x)/2), subject to the implied simplex
    weights being non-negative.  Dense grid plus local refinement.
    """

    def objective(a, b, c):
        val = (
            xlogy(s_xx, a) + xlogy(1.0 - s_xx, 1.0 - a)
            + xlogy(s_yy, b) + xlogy(1.0 - s_yy, 1.0 - b)
            + xlogy(s_zz, c) + xlogy(1.0 - s_zz, 1.0 - c)
        )
        feasible = (
            (a - b + c >= -1e-12)
            & (-a + b + c >= -1e-12)
            & (a + b - c >= -1e-12)
            & (a + b + c <= 2.0 + 1e-12)
        )
        return np.where(feasible, val, -np.inf)

    lo = np.zeros(3)
    hi = np.ones(3)
    best = np.full(3, 0.5)
    for _ in range(4):
        axes = [np.linspace(lo[i], hi[i], 41) for i in range(3)]
        ag, bg, cg = np.meshgrid(*axes, indexing="ij")
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = objective(ag, bg, cg)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        best = np.array([axes[0][idx[0]], axes[1][idx[1]], axes[2][idx[2]]])
        step = (hi - lo) / 40.0
        lo = np.maximum(0.0, best - step)
        hi = np.minimum(1.0, best + step)
    return tuple(best)


def log_l_bell_diagonal(freq: FrequencyTable, rec: MeasurementRecord) -> float:
    """Maximum log-likelihood over Bell-diagonal states."""
    p, _ = fit_bell_diagonal(freq)
    return float(posterior.bell_log_likelihood(p[None, :], rec)[0])


def fit_two_param(freq: FrequencyTable):
    """Best-fitting (p, p*c) of the two-parameter family.

    Returns (p, b, closed_form) with b = p * c(sigma).  The unconstrained
    solution fits the ZZ same-outcome sum and the XX/YY asymmetry
    independently; when it violates b <= p the maximizer lies on the
    b = p face, which is itself closed-form.  ``closed_form`` is True for
    the unconstrained case only.
    """
    measurement.require_default_settings(freq)
    f = freq.freqs
    s_zz = f[_ZZ, 0] + f[_ZZ, 3]
    # Outcomes predicted at (1+b)/4: XX same and YY different.
    s1 = f[_XX, 0] + f[_XX, 3] + f[_YY, 1] + f[_YY, 2]
    p_un = float(np.clip(2.0 * s_zz - 1.0, 0.0, 1.0))
    b_un = float(np.clip(s1 - 1.0, 0.0, 1.0))
    if b_un <= p_un + 1e-15:
        return p_un, b_un, True
    shared = float(np.clip((2.0 * (s_zz + s1) - 3.0) / 3.0, 0.0, 1.0))
    return shared, shared, False


def log_l_two_param(freq: FrequencyTable, rec: MeasurementRecord) -> float:
    """Maximum log-likelihood over the two-parameter family."""
    p, b, _ = fit_two_param(freq)
    return float(posterior.bell_log_likelihood(families.two_param_bell_weights(p, b), rec)[0])


def score(log_l: float, k: int, n_m: int, model_id: str = "") -> ModelScore:
    """AIC and BIC scores: log L - k and log L - k*ln(N_m)/2."""
    if n_m < 1:
        raise InvalidCountError(f"total shot count must be >= 1, got {n_m}")
    if k < 0:
        raise InvalidCountError(f"parameter count must be >= 0, got {k}")
    return ModelScore(
        model_id=model_id,
        log_l=float(log_l),
        k=k,
        omega_aic=float(log_l) - k,
        omega_bic=float(log_l) - k * np.log(n_m) / 2.0,
        n_m=n_m,
    )


def _winner(scores, key) -> str:
    # Ties break toward fewer parameters.
    return max(scores.values(), key=lambda s: (key(s), -s.k)).model_id


def compare(rec: MeasurementRecord) -> ComparisonReport:
    """Score all three models on one record and report the deltas."""
    measurement.require_default_settings(rec)
    freq = measurement.frequencies(rec)
    n_m = rec.n_total
    _, bd_closed = fit_bell_diagonal(freq)
    _, _, tp_closed = fit_two_param(freq)
    scores = {
        "full": score(log_l_full_bound(freq, rec), K_FULL, n_m, "full"),
        "bell_diag": score(log_l_bell_diagonal(freq, rec), K_BELL_DIAGONAL, n_m, "bell_diag"),
        "two_param": score(log_l_two_param(freq, rec), K_TWO_PARAM, n_m, "two_param"),
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

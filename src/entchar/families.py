"""State families and prior test sets.

Two families back the priors used for Bayesian updating:

* the two-parameter family rho_{p,sigma} = p * rho_sigma + (1-p) * I/4,
  where rho_sigma is the (|00>+|11>)/sqrt(2) projector averaged over a
  Gaussian phase distribution of width sigma truncated to [-pi, pi];
* Bell-diagonal states sum_i p_i |Phi_i><Phi_i|.

Both are Bell-diagonal, so every state is described by four Bell weights
(``TestSet.bell_weights``).  On the five default settings those weights
predict 1/4 for every XY and YX outcome, and split the XX, YY and ZZ
outcomes by three same-outcome probabilities that are linear in the
weights (``same_outcome_probabilities``).  Likelihoods and mean states
are therefore computed from four numbers per state, and negativity and
purity have closed forms that the test-set builders cache.

The builders store the Bell weights column-contiguously: an (n, 4) array
that is the transpose view of a (4, n) buffer, so each weight
``w[:, k]`` is one contiguous vector.  The per-state arithmetic (spacings,
negativity, purity, same-outcome probabilities, log-likelihood) is
written as elementwise operations on those columns, because numpy reduces
along a short row axis, or gathers strided columns, several times slower
than it streams a contiguous vector.  Every function still accepts any
(n, 4) layout.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, wofz

from .errors import (
    IndexOutOfRangeError,
    InvalidGridSizeError,
    InvalidSimplexPointError,
    OutOfDomainError,
    UnknownStateFamilyError,
)

MODEL_TWO_PARAM = "two_param"
MODEL_BELL_DIAGONAL = "bell_diag"

_SQRT2 = np.sqrt(2.0)

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
    """Projector onto |Phi_i>, i in 1..4."""
    if i not in (1, 2, 3, 4):
        raise IndexOutOfRangeError(f"Bell state index must be 1..4, got {i}")
    v = BELL_VECTORS[i - 1]
    return np.outer(v, v.conj())


def coherence_factor(sigma: float) -> float:
    """Off-diagonal damping factor c(sigma) of the phase-averaged Bell state.

    c(sigma) is the mean of cos(phi) under the normalized Gaussian phase
    distribution exp(-phi^2/sigma^2) truncated to [-pi, pi].  Completing
    the square gives the closed form

        c = exp(-sigma^2/4) * Re erf(pi/sigma + i*sigma/2) / erf(pi/sigma),

    evaluated through the Faddeeva function w, as
    Re[exp(-sigma^2/4) + exp(-pi^2/sigma^2) * w(-sigma/2 + i*pi/sigma)],
    so that no factor overflows at large sigma.  sigma = 0 maps to 1 by
    continuity.
    """
    if sigma < 0:
        raise OutOfDomainError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return 1.0
    x = np.pi / sigma
    num = np.exp(-sigma * sigma / 4.0) + np.exp(-x * x) * wofz(-sigma / 2.0 + 1j * x)
    return float(num.real / erf(x))


def _two_param_matrix(p: float, c: float) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = (1.0 + p) / 4.0
    rho[1, 1] = rho[2, 2] = (1.0 - p) / 4.0
    rho[0, 3] = rho[3, 0] = p * c / 2.0
    return rho


def two_param_state(p: float, sigma: float) -> np.ndarray:
    """rho_{p,sigma}: phase-noisy Bell state mixed with white noise."""
    if not 0.0 <= p <= 1.0:
        raise OutOfDomainError(f"p must be in [0, 1], got {p}")
    return _two_param_matrix(p, coherence_factor(sigma))


def two_param_state_from_coherence(p: float, c: float) -> np.ndarray:
    """rho_{p,sigma} parameterized directly by the coherence factor c."""
    if not 0.0 <= p <= 1.0:
        raise OutOfDomainError(f"p must be in [0, 1], got {p}")
    if not 0.0 <= c <= 1.0:
        raise OutOfDomainError(f"c must be in [0, 1], got {c}")
    return _two_param_matrix(p, c)


def two_param_negativity(p, c):
    """Analytic negativity of rho_{p,sigma}: 2 * max(0, p*c/2 - (1-p)/4)."""
    return 2.0 * np.maximum(0.0, np.asarray(p) * np.asarray(c) / 2.0 - (1.0 - np.asarray(p)) / 4.0)


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


def two_param_purity(p, c):
    """Analytic Tr(rho^2) for rho_{p,sigma}."""
    p = np.asarray(p)
    c = np.asarray(c)
    return 2.0 * (((1.0 + p) / 4.0) ** 2 + ((1.0 - p) / 4.0) ** 2) + 2.0 * (p * c / 2.0) ** 2


def bell_diagonal_state(pvec) -> np.ndarray:
    """Mixture of the four Bell projectors with weights pvec."""
    pvec = np.asarray(pvec, dtype=float)
    if pvec.shape != (4,) or pvec.min() < 0 or abs(pvec.sum() - 1.0) > 1e-12:
        raise InvalidSimplexPointError(f"weights must be a point on the 3-simplex, got {pvec}")
    rho = np.zeros((4, 4), dtype=complex)
    for w, v in zip(pvec, BELL_VECTORS):
        rho += w * np.outer(v, v.conj())
    return rho


def bell_diagonal_negativity(pvec):
    """2 * max(0, max_i p_i - 1/2) for each row of Bell-diagonal weights, as (n,)."""
    w = np.atleast_2d(pvec)
    top = np.maximum(np.maximum(w[:, 0], w[:, 1]), np.maximum(w[:, 2], w[:, 3]))
    return 2.0 * np.maximum(0.0, top - 0.5)


def rho_k_state(k: float) -> np.ndarray:
    """0.5 |psi_k><psi_k| + 0.5 I/4 with |psi_k> = (|00> + k|11>)/sqrt(1+k^2).

    Purity is 0.4375 for every k in (0, 1].
    """
    if not 0.0 < k <= 1.0:
        raise OutOfDomainError(f"k must be in (0, 1], got {k}")
    v = np.array([1.0, 0.0, 0.0, k], dtype=complex) / np.sqrt(1.0 + k * k)
    return 0.5 * np.outer(v, v.conj()) + 0.125 * np.eye(4, dtype=complex)


def reference_mixture(which: str) -> np.ndarray:
    """Benchmark source states: 0.53/0.47 mixtures of two partially entangled kets.

    "rho1" uses relative amplitude 0.9 and "rho2" uses 0.5; both mix a
    (|00> + a|11>)-type ket with a (|01> + a|10>)-type ket.
    """
    amps = {"rho1": 0.9, "rho2": 0.5}
    if which not in amps:
        raise UnknownStateFamilyError(f"unknown mixture {which!r}; expected 'rho1' or 'rho2'")
    a = amps[which]
    norm = np.sqrt(1.0 + a * a)
    psi = np.array([1.0, 0.0, 0.0, a], dtype=complex) / norm
    phi = np.array([0.0, 1.0, a, 0.0], dtype=complex) / norm
    return 0.53 * np.outer(psi, psi.conj()) + 0.47 * np.outer(phi, phi.conj())


#: Same-outcome probability of the XX, YY and ZZ settings (columns) under
#: each Bell projector |Phi_1>..|Phi_4| (rows); linear in the Bell weights.
SAME_OUTCOME_MAP = np.array(
    [
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
)


#: The two Bell weights that sum to each setting's same-outcome probability.
_SAME_OUTCOME_PAIRS = [tuple(np.flatnonzero(col)) for col in SAME_OUTCOME_MAP.T]


def same_outcome_probabilities(weights) -> np.ndarray:
    """XX, YY and ZZ same-outcome probabilities (n, 3) for rows of Bell weights.

    Each is the sum of two weight columns, ``weights @ SAME_OUTCOME_MAP``
    without its exact zero terms; returned column-contiguous.
    """
    w = np.asarray(weights, dtype=float)
    s = np.empty((3, len(w)))
    for row, (i, k) in zip(s, _SAME_OUTCOME_PAIRS):
        np.add(w[:, i], w[:, k], out=row)
    return np.clip(s, 0.0, 1.0, out=s).T


# --- test sets ---------------------------------------------------------------

ENTANGLED_THRESHOLD = 1e-12


@dataclass
class TestSet:
    """Finite prior over candidate states with cached per-state scalars.

    ``params`` rows are (p, sigma, c) for the two-parameter family and
    (p1, p2, p3, p4) for the Bell-diagonal family.  ``bell_weights`` holds
    every state's four Bell weights, (n, 4): ``params`` itself for the
    Bell-diagonal family, computed once from (p, p*c) otherwise.  Both
    builders make it column-contiguous (the transpose view of a (4, n)
    buffer), so the likelihood kernel streams each weight as one
    contiguous vector; a row-major array gives the same results, slower.
    """

    model_id: str
    params: np.ndarray
    negativities: np.ndarray
    purities: np.ndarray
    prior_weights: np.ndarray
    bell_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.params)
        if n < 1:
            raise InvalidGridSizeError("test set must contain at least one state")
        if self.prior_weights.min() < 0 or abs(self.prior_weights.sum() - 1.0) > 1e-12:
            raise InvalidSimplexPointError("prior weights must be non-negative and sum to 1")
        if self.model_id == MODEL_TWO_PARAM:
            p, c = self.params[:, 0], self.params[:, 2]
            self.bell_weights = two_param_bell_weights(p, p * c)
        else:
            self.bell_weights = self.params

    @property
    def n_states(self) -> int:
        return len(self.params)

    @property
    def entangled(self) -> np.ndarray:
        return self.negativities > ENTANGLED_THRESHOLD

    def state(self, i: int) -> np.ndarray:
        if self.model_id == MODEL_TWO_PARAM:
            p, _, c = self.params[i]
            return _two_param_matrix(p, c)
        return bell_diagonal_state(self.params[i])


def grid_prior_two_param(n_p: int, n_sigma: int) -> TestSet:
    """Uniform (p, sigma) grid over [0,1] x [0,pi], both endpoints included."""
    if n_p < 2 or n_sigma < 2:
        raise InvalidGridSizeError(f"grid must be at least 2x2, got {n_p}x{n_sigma}")
    p_axis = np.linspace(0.0, 1.0, n_p)
    s_axis = np.linspace(0.0, np.pi, n_sigma)
    c_axis = np.array([coherence_factor(s) for s in s_axis])
    pg, sg = np.meshgrid(p_axis, s_axis, indexing="ij")
    cg = np.broadcast_to(c_axis, pg.shape)
    params = np.column_stack([pg.ravel(), sg.ravel(), cg.ravel()])
    n = len(params)
    return TestSet(
        model_id=MODEL_TWO_PARAM,
        params=params,
        negativities=two_param_negativity(params[:, 0], params[:, 2]),
        purities=two_param_purity(params[:, 0], params[:, 2]),
        prior_weights=np.full(n, 1.0 / n),
    )


def simplex_prior_bell_diagonal(n: int, seed: int) -> TestSet:
    """n Bell-diagonal weight vectors drawn uniformly on the 3-simplex.

    Uses sorted-uniform spacings, which are exactly uniform on the simplex;
    deterministic for a given seed.  Each row of three uniforms is sorted
    by a min/max compare-exchange network on whole columns, and the four
    spacings are written into a (4, n) buffer whose transpose is
    ``params``; the values equal a row-wise ``np.sort`` and ``np.diff``.
    """
    if n < 1:
        raise InvalidGridSizeError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u0, u1, u2 = np.ascontiguousarray(rng.random((n, 3)).T)
    # Compare-exchange (0, 1), (1, 2), (0, 1) leaves a <= b <= c.
    a, b = np.minimum(u0, u1), np.maximum(u0, u1)
    b, c = np.minimum(b, u2), np.maximum(b, u2)
    a, b = np.minimum(a, b), np.maximum(a, b)
    w = np.empty((4, n))
    w[0] = a
    np.subtract(b, a, out=w[1])
    np.subtract(c, b, out=w[2])
    np.subtract(1.0, c, out=w[3])
    params = w.T
    return TestSet(
        model_id=MODEL_BELL_DIAGONAL,
        params=params,
        negativities=bell_diagonal_negativity(params),
        purities=((w[0] ** 2 + w[1] ** 2) + w[2] ** 2) + w[3] ** 2,
        prior_weights=np.full(n, 1.0 / n),
    )


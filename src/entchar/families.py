"""State families and prior test sets.

Two families back the priors used for Bayesian updating:

* the two-parameter family rho_{p,sigma} = p * rho_sigma + (1-p) * I/4,
  where rho_sigma is the (|00>+|11>)/sqrt(2) projector averaged over a
  Gaussian phase distribution of width sigma truncated to [-pi, pi];
* Bell-diagonal states sum_i p_i |Phi_i><Phi_i|.

Both are Bell-diagonal, so every state is described by four Bell weights,
and a test set is those weights and a prior over them (``TestSet``).
Likelihoods and mean states are therefore computed from four numbers per
state, and ``TestSet`` caches negativity and purity from their closed
forms in those weights.

The builders store the Bell weights column-contiguously: an (n, 4) array
that is the transpose view of a (4, n) buffer, so each weight
``w[:, k]`` is one contiguous vector.  The per-state arithmetic (spacings,
negativity, purity, and the posterior module's log-likelihood) is written
as elementwise operations on those columns, because numpy reduces along a
short row axis, or gathers strided columns, several times slower than it
streams a contiguous vector.  Every function still accepts any (n, 4)
layout.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import erf, wofz

from .errors import ConfigError
from .linalg import NEGATIVITY_FLOOR

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
        raise ConfigError(f"Bell state index must be 1..4, got {i}")
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
    so that no factor overflows at large sigma.  Where pi/sigma overflows
    (sigma = 0 and sigma below 1.75e-308) c takes its limit 1.
    """
    sigma = float(sigma)
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
    if not 0.0 <= p <= 1.0:
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


def bell_diagonal_state(pvec) -> np.ndarray:
    """Mixture of the four Bell projectors with weights pvec."""
    pvec = np.asarray(pvec, dtype=float)
    if pvec.shape != (4,) or pvec.min() < 0 or abs(pvec.sum() - 1.0) > 1e-12:
        raise ConfigError(f"weights must be a point on the 3-simplex, got {pvec}")
    rho = np.zeros((4, 4), dtype=complex)
    for w, v in zip(pvec, BELL_VECTORS):
        rho += w * np.outer(v, v.conj())
    return rho


def bell_diagonal_negativity(pvec):
    """2 * max(0, max_i p_i - 1/2) for each row of Bell-diagonal weights, as (n,)."""
    w = np.atleast_2d(pvec)
    top = np.maximum(np.maximum(w[:, 0], w[:, 1]), np.maximum(w[:, 2], w[:, 3]))
    return 2.0 * np.maximum(0.0, top - 0.5)


def bell_diagonal_purity(pvec):
    """Tr(rho^2) = sum_i p_i^2 for each row of Bell-diagonal weights, as (n,)."""
    w = np.atleast_2d(pvec)
    return ((w[:, 0] ** 2 + w[:, 1] ** 2) + w[:, 2] ** 2) + w[:, 3] ** 2


def rho_k_state(k: float) -> np.ndarray:
    """0.5 |psi_k><psi_k| + 0.5 I/4 with |psi_k> = (|00> + k|11>)/sqrt(1+k^2).

    Purity is 0.4375 for every k in (0, 1].
    """
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

def _state_index(mask: np.ndarray) -> np.ndarray:
    """Positions of the True entries: int32 when every position fits, half
    the memory of intp; ``take`` accepts either and gathers the same values."""
    index = np.flatnonzero(mask)
    return index.astype(np.int32) if len(mask) <= np.iinfo(np.int32).max else index


@dataclass
class TestSet:
    """Finite prior over candidate states, each given by its four Bell weights.

    ``bell_weights`` is a float (n, 4) array, one state per row; every row
    must be non-negative and sum to 1 within 1e-12, so NaN and inf fail.
    The builders make it column-contiguous (the transpose view of a (4, n)
    buffer), so the likelihood kernel streams each weight as one contiguous
    vector; a row-major array gives the same results, slower.
    ``negativities`` and ``purities`` are computed from the Bell weights
    (``bell_diagonal_negativity``, ``bell_diagonal_purity``).  Without
    ``prior_weights`` the prior is uniform; given ones must have one
    non-negative entry per state and sum to 1 within 1e-12, so a NaN or
    infinite entry is refused.  A sequential update starts from the last
    posterior: ``TestSet(ts.bell_weights, post.weights)``.

    ``entangled_index`` lists the states with negativity above
    ``linalg.NEGATIVITY_FLOOR``; ``separable_index`` lists the rest.  The
    posterior sums gather through them with ``take``, which is several
    times faster than a boolean mask on an irregular pattern and yields
    the same array.  Both are computed on first use and cached, so
    ``negativities`` must not be modified after that.
    """

    bell_weights: np.ndarray
    prior_weights: np.ndarray | None = None
    negativities: np.ndarray = field(init=False, repr=False, compare=False)
    purities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = self.bell_weights = np.asarray(self.bell_weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != 4 or len(weights) < 1:
            raise ConfigError(f"Bell weights must be an (n >= 1, 4) array, got shape {weights.shape}")
        n = len(weights)
        # Positive form, so that NaN and inf fail.  The row sums add the rows
        # of the (4, n) transpose and are freed before the scalars are made.
        row_sums = weights.T.sum(axis=0)
        if not (weights.min() >= 0 and row_sums.min() >= 1.0 - 1e-12
                and row_sums.max() <= 1.0 + 1e-12):
            raise ConfigError("every row of Bell weights must be non-negative and sum to 1")
        del row_sums
        self.negativities = bell_diagonal_negativity(weights)
        self.purities = bell_diagonal_purity(weights)
        # Allocated after the scalars, so that their temporaries do not
        # stack on top of it.
        if self.prior_weights is None:
            self.prior_weights = np.full(n, 1.0 / n)
        prior = self.prior_weights = np.asarray(self.prior_weights, dtype=float)
        if len(prior) != n:
            raise ConfigError(f"prior weights have {len(prior)} entries for {n} states")
        # Written so that a NaN entry fails the test.
        if not (prior.min() >= 0 and abs(prior.sum() - 1.0) <= 1e-12):
            raise ConfigError("prior weights must be non-negative and sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.bell_weights)

    @property
    def entangled(self) -> np.ndarray:
        return self.negativities > NEGATIVITY_FLOOR

    @cached_property
    def entangled_index(self) -> np.ndarray:
        return _state_index(self.entangled)

    @cached_property
    def separable_index(self) -> np.ndarray:
        return _state_index(~self.entangled)


def grid_prior_two_param(n_p: int, n_sigma: int) -> TestSet:
    """Uniform (p, sigma) grid over [0,1] x [0,pi], both endpoints included.

    State i is rho_{p,sigma} at p = p_axis[i // n_sigma] and
    sigma = sigma_axis[i % n_sigma], where the axes are
    ``np.linspace(0, 1, n_p)`` and ``np.linspace(0, pi, n_sigma)``.
    """
    if n_p < 2 or n_sigma < 2:
        raise ConfigError(f"grid must be at least 2x2, got {n_p}x{n_sigma}")
    p_axis = np.linspace(0.0, 1.0, n_p)
    c_axis = np.array([coherence_factor(s) for s in np.linspace(0.0, np.pi, n_sigma)])
    p = np.repeat(p_axis, n_sigma)
    return TestSet(two_param_bell_weights(p, p * np.tile(c_axis, n_p)))


def simplex_prior_bell_diagonal(n: int, seed: int) -> TestSet:
    """n Bell-diagonal weight vectors drawn uniformly on the 3-simplex.

    Uses sorted-uniform spacings, which are exactly uniform on the simplex;
    deterministic for a given seed.  Each row of three uniforms is sorted
    by a min/max compare-exchange network on whole columns, and the four
    spacings are written into a (4, n) buffer whose transpose is the
    Bell weights; the values equal a row-wise ``np.sort`` and ``np.diff``.
    """
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
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
    return TestSet(w.T)


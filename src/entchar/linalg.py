"""Dense 4x4 Hermitian linear algebra for two-qubit states.

The computational basis order is fixed globally as |00>, |01>, |10>, |11>.

Negativity convention
---------------------
``negativity`` returns N(rho) = ||rho^{T_B}||_1 - 1, i.e. twice the sum of
the absolute values of the negative eigenvalues of the partial transpose.
This is double the (||.||_1 - 1)/2 normalization that also appears in the
literature.  With this choice a maximally entangled pure two-qubit state
has N = 1 and the family rho_{p,sigma} used elsewhere in this package has
N(rho_{0.4,0.4}) = 0.0843.

``validate_state`` is the one density-matrix rule (ConfigError).  Every
function given a state applies it first: ``negativity``, ``purity`` and the
measurement module's ``outcome_probabilities`` and ``chsh_values``.
"""

import numpy as np

from .errors import ConfigError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NEGATIVITY_FLOOR = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Spin axis index (1=X, 2=Y, 3=Z) to Pauli operator.
PAULIS = {1: PAULI_X, 2: PAULI_Y, 3: PAULI_Z}


def validate_state(m: np.ndarray) -> np.ndarray:
    """Check that ``m`` is a physical two-qubit density matrix.

    Returns the matrix (as a complex ndarray) when it is Hermitian, has
    unit trace and is positive semidefinite; raises ConfigError otherwise.
    A NaN or infinite entry makes the hermiticity defect NaN, which fails,
    and so does anything numpy cannot read as a complex array.
    """
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"a density matrix must be a numeric 4x4 array: {exc}") from None
    if m.shape != (4, 4):
        raise ConfigError(f"expected a 4x4 matrix, got shape {m.shape}")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if not defect <= HERMITIAN_TOL:
        raise ConfigError(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.0e}")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ConfigError(f"|trace - 1| = {abs(tr - 1.0):.3e} exceeds {TRACE_TOL:.0e}")
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -PSD_TOL:
        raise ConfigError(f"minimum eigenvalue {evals[0]:.3e} below -{PSD_TOL:.0e}")
    return m


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose on the second qubit: (ia,jb) -> (ib,ja).

    Applying the operation twice returns the input exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho: np.ndarray) -> float:
    """N(rho) = ||rho^{T_B}||_1 - 1 (see module docstring for convention)."""
    evals = np.linalg.eigvalsh(partial_transpose(validate_state(rho)))
    n = -2.0 * float(evals[evals < 0].sum())
    return n if n > NEGATIVITY_FLOOR else 0.0


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); 0.25 for the maximally mixed state, 1 for pure states."""
    rho = validate_state(rho)
    return float(np.real(np.trace(rho @ rho)))


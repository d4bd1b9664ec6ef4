import numpy as np
import pytest

from entchar import families, linalg
from entchar.errors import ConfigError

IDENTITY4 = np.eye(4) / 4.0


def charpoly_eigenvalues(a, imag_tol=1e-8):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients, roots via the companion matrix.

    Repeated roots are only recovered to roughly eps**(1/multiplicity), so
    callers with degenerate spectra must pass a looser ``imag_tol`` and
    compare with a matching tolerance.
    """
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    roots = np.roots(np.array(coeffs))
    assert np.max(np.abs(roots.imag)) < imag_tol
    return np.sort(roots.real)[::-1]


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestValidateState:
    def test_maximally_mixed(self):
        assert linalg.validate_state(IDENTITY4) is not None

    def test_pure_product(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        linalg.validate_state(rho)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ConfigError, match="minimum eigenvalue"):
            linalg.validate_state(np.diag([0.5, 0.6, 0.0, -0.1]))

    def test_non_hermitian_rejected(self):
        m = np.eye(4) / 4.0 + 0j
        m[0, 1] = 0.1
        with pytest.raises(ConfigError, match="hermiticity defect"):
            linalg.validate_state(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ConfigError, match="trace"):
            linalg.validate_state(np.eye(4) / 2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, value):
        m = np.eye(4) / 4.0 + 0j
        m[1, 2] = value
        with pytest.raises(ConfigError, match="hermiticity defect"):
            linalg.validate_state(m)


def one_triangle_matrix():
    """I/4 with rho[0, 3] = 0.4 and rho[3, 0] = 0: not Hermitian, though
    the lower triangle that eigvalsh reads is that of I/4."""
    m = np.eye(4) / 4.0 + 0j
    m[0, 3] = 0.4
    return m


@pytest.mark.parametrize("func", [linalg.negativity, linalg.purity, linalg.validate_state])
@pytest.mark.parametrize("m", [one_triangle_matrix(), np.diag([0.75, 0.75, -0.25, -0.25]),
                               "abc", [[1, 0], [0]]],
                         ids=["non_hermitian", "not_psd", "text", "ragged"])
def test_state_functionals_apply_the_state_rule(func, m):
    with pytest.raises(ConfigError):
        func(m)


class TestPartialTranspose:
    def test_diagonal_state_invariant(self):
        assert np.array_equal(linalg.partial_transpose(IDENTITY4), IDENTITY4)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = random_state(rng)
            assert np.array_equal(linalg.partial_transpose(linalg.partial_transpose(rho)), rho)

    def test_bell_state_spectrum(self):
        pt = linalg.partial_transpose(families.bell_state(1))
        # The 0.5 eigenvalue is triply degenerate; the polynomial oracle only
        # resolves it to ~1e-5.
        oracle = charpoly_eigenvalues(pt, imag_tol=1e-4)
        np.testing.assert_allclose(oracle, [0.5, 0.5, 0.5, -0.5], atol=1e-4)
        np.testing.assert_allclose(np.linalg.eigvalsh(pt)[::-1], [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_two_param_min_eigenvalue(self):
        pt = linalg.partial_transpose(families.two_param_state(0.4, 0.4))
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.0421, abs=1e-3)

    def test_preserves_trace_and_hermiticity(self):
        rho = families.two_param_state(0.7, 0.2)
        pt = linalg.partial_transpose(rho)
        assert np.trace(pt).real == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


class TestNegativity:
    def test_separable(self):
        assert linalg.negativity(IDENTITY4) == 0.0

    def test_two_param_reference_value(self):
        assert linalg.negativity(families.two_param_state(0.4, 0.4)) == pytest.approx(
            0.0843, abs=1e-3
        )

    def test_rho_k_reference_value(self):
        assert linalg.negativity(families.rho_k_state(0.9)) == pytest.approx(0.247, abs=1e-3)

    def test_maximally_entangled(self):
        assert linalg.negativity(families.bell_state(1)) == pytest.approx(1.0, abs=1e-12)

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        entangled = 0
        for _ in range(30):
            rho = random_state(rng)
            evals = charpoly_eigenvalues(linalg.partial_transpose(rho))
            expected = -2.0 * evals[evals < 0].sum()
            entangled += expected > 0
            assert linalg.negativity(rho) == pytest.approx(expected, abs=1e-8)
        assert entangled > 0

    def test_bell_diagonal_closed_form_matches_eigensolver(self):
        # N = 2*max(0, max_i p_i - 1/2) for Bell-diagonal states.
        rng = np.random.default_rng(5)
        u = np.sort(rng.random((1000, 3)), axis=1)
        weights = np.diff(u, axis=1, prepend=0.0, append=1.0)
        for p in weights:
            rho = families.bell_diagonal_state(p)
            assert linalg.negativity(rho) == pytest.approx(
                2.0 * max(0.0, p.max() - 0.5), abs=1e-9
            )


class TestPurity:
    def test_maximally_mixed(self):
        assert linalg.purity(IDENTITY4) == pytest.approx(0.25, abs=1e-12)

    def test_two_param_reference_value(self):
        assert linalg.purity(families.two_param_state(0.4, 0.4)) == pytest.approx(0.3638, abs=5e-4)

    def test_rho_k_family(self):
        for k in (0.1, 0.5, 0.9, 1.0):
            assert linalg.purity(families.rho_k_state(k)) == pytest.approx(0.4375, abs=1e-12)

    def test_range_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert 0.25 - 1e-12 <= linalg.purity(random_state(rng)) <= 1.0 + 1e-12

    def test_pure_state(self):
        assert linalg.purity(families.bell_state(2)) == pytest.approx(1.0, abs=1e-12)


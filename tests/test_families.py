import numpy as np
import pytest

from entchar import families, linalg, measurement, posterior
from entchar.errors import (
    IndexOutOfRangeError,
    InvalidGridSizeError,
    InvalidSimplexPointError,
    OutOfDomainError,
    UnknownStateFamilyError,
)


def simpson_coherence(sigma, n=200_001):
    """Independent quadrature oracle: composite Simpson for c(sigma)."""
    half = min(np.pi, 12.0 * sigma)
    x = np.linspace(-half, half, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    g = np.exp(-((x / sigma) ** 2))
    num = np.sum(w * np.cos(x) * g)
    den = np.sum(w * g)
    return num / den


class TestBellStates:
    def test_all_pure_and_maximally_entangled(self):
        for i in (1, 2, 3, 4):
            rho = families.bell_state(i)
            linalg.validate_state(rho)
            assert linalg.purity(rho) == pytest.approx(1.0, abs=1e-12)
            assert linalg.negativity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_completeness(self):
        mix = sum(families.bell_state(i) for i in (1, 2, 3, 4)) / 4.0
        np.testing.assert_allclose(mix, np.eye(4) / 4.0, atol=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            families.bell_state(5)


class TestCoherenceFactor:
    def test_zero_width_limit(self):
        assert families.coherence_factor(0.0) == 1.0

    def test_small_width_matches_gaussian_formula(self):
        # For sigma well inside [-pi, pi] truncation is negligible and
        # c(sigma) = exp(-sigma^2/4).
        assert families.coherence_factor(0.4) == pytest.approx(np.exp(-0.04), abs=1e-5)

    @pytest.mark.parametrize("sigma", [0.05, 0.4, 1.0, 2.0, np.pi])
    def test_against_simpson_oracle(self, sigma):
        assert families.coherence_factor(sigma) == pytest.approx(
            simpson_coherence(sigma), abs=1e-10
        )

    def test_monotone_decreasing(self):
        values = [families.coherence_factor(s) for s in np.linspace(0.01, np.pi, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0.0 < values[-1] < 1.0

    @pytest.mark.parametrize("sigma", [60.0, 1e3])
    def test_wide_distribution_limit(self, sigma):
        # Nearly uniform phases on [-pi, pi]: c -> 2 / sigma^2, with no overflow.
        assert families.coherence_factor(sigma) == pytest.approx(2.0 / sigma**2, rel=1e-3)

    def test_negative_width_rejected(self):
        with pytest.raises(OutOfDomainError):
            families.coherence_factor(-0.1)


class TestTwoParamFamily:
    def test_no_signal_is_maximally_mixed(self):
        np.testing.assert_allclose(families.two_param_state(0.0, 2.0), np.eye(4) / 4.0, atol=1e-14)

    def test_pure_limit_is_bell_state(self):
        np.testing.assert_allclose(
            families.two_param_state(1.0, 0.0), families.bell_state(1), atol=1e-14
        )

    def test_reference_point(self):
        rho = families.two_param_state(0.4, 0.4)
        assert linalg.negativity(rho) == pytest.approx(0.0843, abs=1e-3)
        assert linalg.purity(rho) == pytest.approx(0.3638, abs=5e-4)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            families.two_param_state(1.2, 0.4)

    def test_analytic_negativity_matches_eigensolver_on_grid(self):
        ts = families.grid_prior_two_param(50, 50)
        for i in range(ts.n_states):
            assert ts.negativities[i] == pytest.approx(
                linalg.negativity(ts.state(i)), abs=1e-9
            )

    def test_analytic_purity_matches_direct(self):
        ts = families.grid_prior_two_param(12, 12)
        for i in range(ts.n_states):
            assert ts.purities[i] == pytest.approx(linalg.purity(ts.state(i)), abs=1e-12)


class TestBellDiagonal:
    def test_uniform_weights(self):
        np.testing.assert_allclose(
            families.bell_diagonal_state([0.25] * 4), np.eye(4) / 4.0, atol=1e-14
        )

    def test_vertex(self):
        assert linalg.negativity(families.bell_diagonal_state([1, 0, 0, 0])) == pytest.approx(1.0)

    def test_interior_point(self):
        rho = families.bell_diagonal_state([0.6, 0.2, 0.1, 0.1])
        assert linalg.negativity(rho) == pytest.approx(0.2, abs=1e-12)

    def test_invalid_simplex_point(self):
        with pytest.raises(InvalidSimplexPointError):
            families.bell_diagonal_state([0.5, 0.5, 0.5, -0.5])


class TestRhoK:
    @pytest.mark.parametrize(
        "k,neg", [(0.9, 0.247), (0.8, 0.238), (0.7, 0.220), (0.6, 0.191), (0.5, 0.150)]
    )
    def test_negativity_table(self, k, neg):
        assert linalg.negativity(families.rho_k_state(k)) == pytest.approx(neg, abs=1e-3)

    def test_constant_purity(self):
        for k in (0.5, 0.7, 0.9):
            assert linalg.purity(families.rho_k_state(k)) == pytest.approx(0.4375, abs=1e-12)

    def test_k_one_is_in_two_param_family(self):
        np.testing.assert_allclose(
            families.rho_k_state(1.0), families.two_param_state(0.5, 0.0), atol=1e-14
        )

    def test_domain(self):
        for k in (0.0, -0.5, 1.5):
            with pytest.raises(OutOfDomainError):
                families.rho_k_state(k)


class TestReferenceMixtures:
    def test_rho1(self):
        rho = families.reference_mixture("rho1")
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert linalg.negativity(rho) == pytest.approx(0.059, abs=1e-3)
        assert linalg.purity(rho) == pytest.approx(0.502, abs=1e-3)

    def test_rho2(self):
        assert linalg.negativity(families.reference_mixture("rho2")) == pytest.approx(
            0.039, abs=1e-3
        )

    def test_unknown(self):
        with pytest.raises(UnknownStateFamilyError):
            families.reference_mixture("rho3")


class TestGridPrior:
    def test_minimal_grid(self):
        ts = families.grid_prior_two_param(2, 2)
        assert ts.n_states == 4
        np.testing.assert_allclose(ts.prior_weights, [0.25] * 4)
        np.testing.assert_allclose(ts.state(0), np.eye(4) / 4.0, atol=1e-14)

    def test_too_small(self):
        with pytest.raises(InvalidGridSizeError):
            families.grid_prior_two_param(1, 5)

    def test_all_states_valid(self):
        ts = families.grid_prior_two_param(7, 7)
        for i in range(ts.n_states):
            linalg.validate_state(ts.state(i))

    def test_cached_scalars_match_recomputation(self):
        ts = families.grid_prior_two_param(6, 6)
        for i in range(ts.n_states):
            rho = ts.state(i)
            assert ts.negativities[i] == pytest.approx(linalg.negativity(rho), abs=1e-10)
            assert ts.purities[i] == pytest.approx(linalg.purity(rho), abs=1e-10)


class TestSimplexPrior:
    def test_single_sample(self):
        ts = families.simplex_prior_bell_diagonal(1, seed=0)
        assert ts.params.sum() == pytest.approx(1.0, abs=1e-12)
        linalg.validate_state(ts.state(0))

    def test_deterministic(self):
        a = families.simplex_prior_bell_diagonal(10_000, seed=42)
        b = families.simplex_prior_bell_diagonal(10_000, seed=42)
        assert np.array_equal(a.params, b.params)

    def test_marginal_means(self):
        n = 100_000
        ts = families.simplex_prior_bell_diagonal(n, seed=9)
        # Dirichlet(1,1,1,1) marginal: mean 1/4, variance 3/80.
        tol = 3.0 * np.sqrt(3.0 / 80.0 / n)
        np.testing.assert_allclose(ts.params.mean(axis=0), 0.25, atol=tol)

    def test_all_rows_on_simplex(self):
        ts = families.simplex_prior_bell_diagonal(5000, seed=3)
        assert ts.params.min() >= 0.0
        np.testing.assert_allclose(ts.params.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 100_000])
    @pytest.mark.parametrize("seed", [0, 5, 2026])
    def test_bit_identical_to_row_sort(self, n, seed):
        # The row-wise formula: sort each row, take spacings, row max and
        # row sum of squares.
        u = np.sort(np.random.default_rng(seed).random((n, 3)), axis=1)
        params = np.diff(u, axis=1, prepend=0.0, append=1.0)
        negativities = 2.0 * np.maximum(0.0, params.max(axis=1) - 0.5)
        purities = (params**2).sum(axis=1)
        ts = families.simplex_prior_bell_diagonal(n, seed)
        assert np.array_equal(ts.params, params)
        assert np.array_equal(ts.negativities, negativities)
        assert np.array_equal(ts.purities, purities)


@pytest.mark.parametrize(
    "build",
    [lambda: families.grid_prior_two_param(7, 9),
     lambda: families.simplex_prior_bell_diagonal(50, seed=4)],
    ids=["two_param", "bell_diag"],
)
def test_bell_weights_are_column_contiguous(build):
    ts = build()
    assert ts.bell_weights.shape == (ts.n_states, 4)
    for k in range(4):
        assert ts.bell_weights[:, k].flags["C_CONTIGUOUS"]


class TestLikelihoodKernel:
    """The Bell-weight likelihood kernel and mean state against per-state oracles."""

    @pytest.fixture(
        params=[
            lambda: families.grid_prior_two_param(5, 5),
            lambda: families.simplex_prior_bell_diagonal(25, seed=1),
        ],
        ids=["two_param", "bell_diag"],
    )
    def test_set(self, request):
        ts = request.param()
        if ts.model_id == families.MODEL_TWO_PARAM:
            return ts
        # Append the four Bell vertices, which give probability 0 to some outcomes.
        params = np.vstack([ts.params, np.eye(4)])
        n = len(params)
        return families.TestSet(
            model_id=ts.model_id,
            params=params,
            negativities=families.bell_diagonal_negativity(params),
            purities=(params**2).sum(axis=1),
            prior_weights=np.full(n, 1.0 / n),
        )

    @staticmethod
    def impossible_record():
        """One anti-correlated and one correlated outcome in each of XX, YY and ZZ,
        which every Bell vertex (and every p = 1 grid state) gives probability 0."""
        counts = np.array([[3, 1, 0, 2], [1, 1, 1, 1], [2, 0, 1, 1], [1, 2, 0, 4], [5, 0, 1, 0]])
        return measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)

    @pytest.fixture(params=["sampled", "impossible"])
    def record(self, request):
        if request.param == "sampled":
            return measurement.simulate_record(families.reference_mixture("rho1"), 300, seed=2)
        return self.impossible_record()

    def test_log_likelihood_matches_per_state_oracle(self, test_set, record):
        ll = posterior.log_likelihood_vector(test_set, record)
        oracle = np.array([posterior.log_likelihood(record, test_set.state(i))
                           for i in range(test_set.n_states)])
        np.testing.assert_array_equal(np.isneginf(ll), np.isneginf(oracle))
        finite = np.isfinite(oracle)
        assert finite.any()
        np.testing.assert_allclose(ll[finite], oracle[finite], rtol=0, atol=1e-9)

    def test_bell_vertices_exclude_impossible_outcomes(self, test_set):
        ll = posterior.log_likelihood_vector(test_set, self.impossible_record())
        vertices = [i for i in range(test_set.n_states)
                    if np.isclose(test_set.bell_weights[i].max(), 1.0, rtol=0, atol=1e-15)]
        assert vertices
        assert np.isneginf(ll[vertices]).all()

    def test_same_outcome_probabilities_in_unit_interval(self, test_set):
        s = families.same_outcome_probabilities(test_set.bell_weights)
        assert s.shape == (test_set.n_states, 3)
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_mean_state_matches_explicit_sum(self, test_set):
        w = np.random.default_rng(4).dirichlet(np.ones(test_set.n_states))
        explicit = sum(wi * test_set.state(i) for i, wi in enumerate(w))
        rho = posterior.mean_state(test_set, posterior.Posterior(weights=w, record=None))
        np.testing.assert_allclose(rho, explicit, rtol=0, atol=1e-12)


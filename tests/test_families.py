import numpy as np
import pytest

from entchar import families, linalg, measurement, posterior
from entchar.errors import ConfigError


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


def grid_node_states(n_p, n_sigma):
    """two_param_state at each node of grid_prior_two_param(n_p, n_sigma), in its order."""
    return [families.two_param_state(p, s)
            for p in np.linspace(0.0, 1.0, n_p) for s in np.linspace(0.0, np.pi, n_sigma)]


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
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            families.coherence_factor(-0.1)

    @pytest.mark.parametrize("sigma", [1e-308, 1e-320, 5e-324])
    def test_narrowest_widths_give_the_limit(self, sigma):
        # pi / sigma overflows here; c takes its sigma -> 0 limit.
        assert families.coherence_factor(sigma) == 1.0
        assert families.coherence_factor(np.float64(sigma)) == 1.0

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_non_finite_width_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be"):
            families.coherence_factor(sigma)


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
        with pytest.raises(ConfigError):
            families.two_param_state(1.2, 0.4)

    def test_analytic_negativity_matches_eigensolver_on_grid(self):
        ts = families.grid_prior_two_param(50, 50)
        for i, rho in enumerate(grid_node_states(50, 50)):
            assert ts.negativities[i] == pytest.approx(linalg.negativity(rho), abs=1e-9)

    def test_analytic_purity_matches_direct(self):
        ts = families.grid_prior_two_param(12, 12)
        for i, rho in enumerate(grid_node_states(12, 12)):
            assert ts.purities[i] == pytest.approx(linalg.purity(rho), abs=1e-12)


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
        with pytest.raises(ConfigError):
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
            with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            families.reference_mixture("rho3")


class TestGridPrior:
    def test_minimal_grid(self):
        ts = families.grid_prior_two_param(2, 2)
        assert ts.n_states == 4
        np.testing.assert_allclose(ts.prior_weights, [0.25] * 4)
        np.testing.assert_allclose(
            families.bell_diagonal_state(ts.bell_weights[0]), np.eye(4) / 4.0, atol=1e-14
        )

    def test_too_small(self):
        with pytest.raises(ConfigError):
            families.grid_prior_two_param(1, 5)

    def test_all_states_valid(self):
        # Every node's Bell weights give two_param_state at that node.
        ts = families.grid_prior_two_param(7, 7)
        for w, rho in zip(ts.bell_weights, grid_node_states(7, 7), strict=True):
            state = families.bell_diagonal_state(w)
            linalg.validate_state(state)
            np.testing.assert_allclose(state, rho, rtol=0, atol=1e-12)

    def test_sampled_nodes_of_full_grid(self):
        n = 600
        ts = families.grid_prior_two_param(n, n)
        p_axis, s_axis = np.linspace(0.0, 1.0, n), np.linspace(0.0, np.pi, n)
        corners = [0, n - 1, n * (n - 1), n * n - 1]
        picks = np.random.default_rng(12).choice(n * n, size=200, replace=False)
        for i in np.concatenate([corners, picks]):
            rho = families.two_param_state(p_axis[i // n], s_axis[i % n])
            np.testing.assert_allclose(families.bell_diagonal_state(ts.bell_weights[i]), rho,
                                       rtol=0, atol=1e-12)

    def test_cached_scalars_match_recomputation(self):
        ts = families.grid_prior_two_param(6, 6)
        for i, rho in enumerate(grid_node_states(6, 6)):
            assert ts.negativities[i] == pytest.approx(linalg.negativity(rho), abs=1e-10)
            assert ts.purities[i] == pytest.approx(linalg.purity(rho), abs=1e-10)


class TestSimplexPrior:
    def test_single_sample(self):
        ts = families.simplex_prior_bell_diagonal(1, seed=0)
        assert ts.bell_weights.sum() == pytest.approx(1.0, abs=1e-12)
        linalg.validate_state(families.bell_diagonal_state(ts.bell_weights[0]))

    def test_deterministic(self):
        a = families.simplex_prior_bell_diagonal(10_000, seed=42)
        b = families.simplex_prior_bell_diagonal(10_000, seed=42)
        assert np.array_equal(a.bell_weights, b.bell_weights)

    def test_marginal_means(self):
        n = 100_000
        ts = families.simplex_prior_bell_diagonal(n, seed=9)
        # Dirichlet(1,1,1,1) marginal: mean 1/4, variance 3/80.
        tol = 3.0 * np.sqrt(3.0 / 80.0 / n)
        np.testing.assert_allclose(ts.bell_weights.mean(axis=0), 0.25, atol=tol)

    def test_all_rows_on_simplex(self):
        ts = families.simplex_prior_bell_diagonal(5000, seed=3)
        assert ts.bell_weights.min() >= 0.0
        np.testing.assert_allclose(ts.bell_weights.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 100_000])
    @pytest.mark.parametrize("seed", [0, 5, 2026])
    def test_bit_identical_to_row_sort(self, n, seed):
        # The row-wise formula: sort each row, take spacings, row max and
        # row sum of squares.
        u = np.sort(np.random.default_rng(seed).random((n, 3)), axis=1)
        weights = np.diff(u, axis=1, prepend=0.0, append=1.0)
        negativities = 2.0 * np.maximum(0.0, weights.max(axis=1) - 0.5)
        purities = (weights**2).sum(axis=1)
        ts = families.simplex_prior_bell_diagonal(n, seed)
        assert np.array_equal(ts.bell_weights, weights)
        assert np.array_equal(ts.negativities, negativities)
        assert np.array_equal(ts.purities, purities)


def test_test_set_from_bell_weights_alone():
    # Dirichlet rows plus the four vertices: the scalars come from the
    # Bell weights, and the prior is uniform when none is given.
    weights = np.vstack([np.random.default_rng(6).dirichlet(np.ones(4), size=40), np.eye(4)])
    ts = families.TestSet(weights)
    assert np.array_equal(ts.prior_weights, np.full(44, 1.0 / 44))
    for i in range(ts.n_states):
        rho = families.bell_diagonal_state(ts.bell_weights[i])
        assert abs(ts.negativities[i] - linalg.negativity(rho)) <= 1e-12
        assert abs(ts.purities[i] - linalg.purity(rho)) <= 1e-12


def test_nan_prior_weight_is_refused():
    # A NaN passes "min < 0 or |sum - 1| > tol" unnoticed, and an update on
    # this prior would return NaN weights.
    with pytest.raises(ConfigError, match="prior weights"):
        families.TestSet(np.full((3, 4), 0.25), prior_weights=np.array([np.nan, 0.5, 0.5]))


@pytest.mark.parametrize(
    "weights",
    [np.array([[0.9, 0.9, -0.5, 0.1], [0.25] * 4]),
     np.vstack([np.full((3, 4), 0.25), np.full((1, 4), np.nan)]),
     np.array([[0.25, 0.25, 0.25, np.inf]]),
     np.full((2, 4), 0.3),
     np.full(5, 0.2),
     np.full((2, 3), 1 / 3),
     np.empty((0, 4))],
    ids=["negative", "nan_row", "inf", "row_sum", "1d", "three_columns", "empty"],
)
def test_invalid_bell_weights_are_refused(weights):
    # The first would have negativity 0.8 and purity 1.88; a NaN row would
    # surface only as "every test state assigns zero probability".
    with pytest.raises(ConfigError, match="Bell weights"):
        families.TestSet(weights)


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

    @pytest.fixture(params=["two_param", "bell_diag"])
    def case(self, request):
        """A test set and its states' density matrices; the grid's come from
        two_param_state, not from its Bell weights."""
        if request.param == "two_param":
            return families.grid_prior_two_param(5, 5), grid_node_states(5, 5)
        # Append the four Bell vertices, which give probability 0 to some outcomes.
        ts = families.simplex_prior_bell_diagonal(25, seed=1)
        weights = np.vstack([ts.bell_weights, np.eye(4)])
        return families.TestSet(weights), [families.bell_diagonal_state(w) for w in weights]

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

    def test_log_likelihood_matches_per_state_oracle(self, case, record):
        test_set, states = case
        ll = posterior.log_likelihood_vector(test_set, record)
        oracle = np.array([posterior.log_likelihood(record, rho) for rho in states])
        np.testing.assert_array_equal(np.isneginf(ll), np.isneginf(oracle))
        finite = np.isfinite(oracle)
        assert finite.any()
        np.testing.assert_allclose(ll[finite], oracle[finite], rtol=0, atol=1e-9)

    def test_bell_vertices_exclude_impossible_outcomes(self, case):
        test_set, _ = case
        ll = posterior.log_likelihood_vector(test_set, self.impossible_record())
        vertices = [i for i in range(test_set.n_states)
                    if np.isclose(test_set.bell_weights[i].max(), 1.0, rtol=0, atol=1e-15)]
        assert vertices
        assert np.isneginf(ll[vertices]).all()

    def test_same_outcome_probabilities_in_unit_interval(self, case):
        # One same-outcome count of XX, YY or ZZ, and nothing else, has
        # log-likelihood log(s) - log(2); read s back out of the kernel.
        test_set, _ = case
        s = np.empty((test_set.n_states, 3))
        for j, row in enumerate([0, 3, 4]):
            counts = np.zeros((5, 4), dtype=int)
            counts[row, 0] = 1
            rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)
            s[:, j] = 2.0 * np.exp(posterior.log_likelihood_vector(test_set, rec))
        assert not np.isnan(s).any()
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_kernel_clips_same_outcome_probabilities(self):
        # The XX pair sum of this row is 1.0000000000001; unclipped, log1p
        # of its negation is NaN (a RuntimeWarning) instead of -inf.
        weights = np.array([[0.6, 0.0, 0.4 + 1e-13, 0.0]])
        assert weights[0, 0] + weights[0, 2] > 1.0
        counts = np.array([[3, 1, 2, 4], [1, 1, 1, 1], [1, 1, 1, 1], [2, 2, 2, 2], [5, 1, 1, 5]])
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)
        ll = posterior.log_likelihood_vector(families.TestSet(weights), rec)
        oracle = posterior.log_likelihood(rec, families.bell_diagonal_state(weights[0]))
        assert np.isneginf(oracle)
        np.testing.assert_array_equal(ll, [oracle])

    def test_mean_state_matches_explicit_sum(self, case):
        test_set, states = case
        w = np.random.default_rng(4).dirichlet(np.ones(test_set.n_states))
        explicit = sum(wi * rho for wi, rho in zip(w, states, strict=True))
        rho = posterior.mean_state(test_set, posterior.Posterior(weights=w))
        np.testing.assert_allclose(rho, explicit, rtol=0, atol=1e-12)


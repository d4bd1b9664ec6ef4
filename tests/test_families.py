import re
import warnings

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


#: Weight vectors that numpy reads, or fails to read, as something other than
#: real numbers.  Complex weights used to lose their imaginary part with only
#: a ComplexWarning, and text or ragged input raised numpy's ValueError.
NOT_REAL = {
    "complex": np.array([0.5 + 0.3j, 0.5, 0.0, 0.0]),
    "text": ["0.25", "0.25", "0.25", "0.25"],
    "ragged": [0.5, [0.25, 0.25], 0.0, 0.0],
    "bool": np.array([True, False, False, False]),
    "object": np.array([0.25] * 4, dtype=object),
}


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

    @pytest.mark.parametrize("index", [True, False, np.bool_(True), 2.0])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(ConfigError):
            families.bell_state(index)


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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, "x"])
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
        with pytest.raises(ConfigError, match="p must be a real number"):
            families.two_param_state("0.5", 0.1)

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
        with pytest.raises(ConfigError, match="weights"):
            families.bell_diagonal_state([0.5, 0.5, 0.5, -0.5])

    @pytest.mark.parametrize(
        "pvec",
        [[np.nan, 0.5, 0.5, 0.0], [np.inf, 0.0, 0.0, 0.0],
         [0.5, 0.25, 0.25], [[0.25] * 4] * 2, *NOT_REAL.values()],
        ids=["nan", "inf", "three", "two_rows", *NOT_REAL],
    )
    def test_malformed_simplex_point(self, pvec):
        with pytest.raises(ConfigError, match="weights"):
            families.bell_diagonal_state(pvec)


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
        for k in (0.0, -0.5, 1.5, "a"):
            with pytest.raises(ConfigError, match="^k must be"):
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

    @pytest.mark.parametrize("grid", [(5, 1), (2.5, 3), (3, 4.0), (True, 3)])
    def test_bad_size(self, grid):
        with pytest.raises(ConfigError, match="grid size n_(p|sigma) must be an integer >= 2"):
            families.grid_prior_two_param(*grid)

    def test_numpy_integer_sizes(self):
        ts = families.grid_prior_two_param(np.int64(3), np.uint16(4))
        assert np.array_equal(ts.bell_weights, families.grid_prior_two_param(3, 4).bell_weights)

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "fractional", "bool"])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            families.simplex_prior_bell_diagonal(10, seed)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, np.float64(10.0)])
    def test_bad_sample_count(self, n):
        with pytest.raises(ConfigError, match="sample count must be an integer >= 1"):
            families.simplex_prior_bell_diagonal(n, 0)

    @pytest.mark.parametrize("n", [1, 2, families.BLOCK - 1, families.BLOCK, families.BLOCK + 1,
                                   2 * families.BLOCK + 3, 100_000])
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


#: Each count a builder sizes an array by, as a call with that count.
_SIZED_BUILDS = {
    "sample count": lambda n: families.simplex_prior_bell_diagonal(n, 0),
    "grid state count n_p*n_sigma": lambda n: families.grid_prior_two_param(n // 2, 2),
    "bin count": lambda n: families.simplex_prior_bell_diagonal(10, 0).negativity_bins(n),
}


@pytest.mark.parametrize("n", [families.MAX_COUNT + 1, 10**20], ids=["max_plus_1", "1e20"])
@pytest.mark.parametrize("what", list(_SIZED_BUILDS))
def test_count_past_what_numpy_can_address_is_config_error(what, n):
    # MAX_COUNT + 1 = 2**58 is even, so the grid's state count is exactly n.
    with pytest.raises(ConfigError, match=rf"^{re.escape(what)} must be an integer "
                                          rf"<= {families.MAX_COUNT}, got {n}$"):
        _SIZED_BUILDS[what](n)


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


@pytest.mark.parametrize("name", ["negativities", "purities", "entangled"])
def test_state_scalars_are_read_only(name):
    ts = families.simplex_prior_bell_diagonal(10, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        getattr(ts, name)[0] = 0.5


def test_nan_prior_weight_is_refused():
    # A NaN passes "min < 0 or |sum - 1| > tol" unnoticed, and an update on
    # this prior would return NaN weights.
    with pytest.raises(ConfigError, match="prior weights"):
        families.TestSet(np.full((3, 4), 0.25), prior_weights=np.array([np.nan, 0.5, 0.5]))


@pytest.mark.parametrize("prior", [np.array([-0.1, 0.6, 0.5]), np.full(3, 0.3)],
                         ids=["negative", "sum_0.9"])
def test_caller_prior_off_the_simplex_is_refused(prior):
    with pytest.raises(ConfigError, match="prior weights must be non-negative and sum to 1"):
        families.TestSet(np.full((3, 4), 0.25), prior_weights=prior)


def test_only_a_given_prior_is_checked(monkeypatch):
    # The uniform prior the constructor builds is not caller input.
    checked, check = [], families._check_simplex

    def recording(points, shape, what, **scratch):
        checked.append(what)
        check(points, shape, what, **scratch)

    monkeypatch.setattr(families, "_check_simplex", recording)
    families.TestSet(np.full((3, 4), 0.25))
    assert checked == ["Bell weights"]
    families.TestSet(np.full((3, 4), 0.25), np.full(3, 1 / 3))
    assert checked == ["Bell weights", "Bell weights", "prior weights"]


def test_entangled_mask_at_the_floor_past_the_first_block():
    # Two states one ulp apart in p_1, whose negativities 2 * (p_1 - 1/2)
    # lie either side of NEGATIVITY_FLOOR, at the end of the second block.
    floor = linalg.NEGATIVITY_FLOOR
    hi = 0.5 + floor / 2.0
    while 2.0 * (hi - 0.5) <= floor:
        hi = np.nextafter(hi, 1.0)
    while 2.0 * (np.nextafter(hi, 0.0) - 0.5) > floor:
        hi = np.nextafter(hi, 0.0)
    lo = np.nextafter(hi, 0.0)
    draws = families.simplex_prior_bell_diagonal(families.BLOCK + 10, seed=3).bell_weights
    ts = families.TestSet(np.vstack([draws, [[lo, 1.0 - lo, 0.0, 0.0], [hi, 1.0 - hi, 0.0, 0.0]]]))
    assert ts.negativities[-2] <= floor < ts.negativities[-1]
    assert ts.entangled[-2:].tolist() == [False, True]
    assert np.array_equal(ts.entangled, ts.negativities > floor)
    assert not ts.entangled.flags.writeable


@pytest.mark.parametrize(
    "prior",
    [np.full((3, 1), 1 / 3), np.full((3, 2), 1 / 6), np.array(1.0)],
    ids=["n_by_1", "n_by_2", "0d"],
)
def test_prior_of_wrong_shape_is_refused(prior):
    # Each passes a check on its entries alone, but is not one weight per state.
    with pytest.raises(ConfigError, match="prior weights must have shape"):
        families.TestSet(np.full((3, 4), 0.25), prior_weights=prior)


@pytest.mark.parametrize(
    "weights",
    [np.array([[0.9, 0.9, -0.5, 0.1], [0.25] * 4]),
     np.vstack([np.full((3, 4), 0.25), np.full((1, 4), np.nan)]),
     np.array([[0.25, 0.25, 0.25, np.inf]]),
     np.full((2, 4), 0.3),
     np.full(5, 0.2),
     np.full((2, 3), 1 / 3),
     np.empty((0, 4)),
     *[[w, w] for w in NOT_REAL.values()]],
    ids=["negative", "nan_row", "inf", "row_sum", "1d", "three_columns", "empty", *NOT_REAL],
)
def test_invalid_bell_weights_are_refused(weights):
    # The first would have negativity 0.8 and purity 1.88; a NaN row would
    # surface only as "every test state assigns zero probability".
    with pytest.raises(ConfigError, match="Bell weights"):
        families.TestSet(weights)


@pytest.mark.parametrize("prior", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_prior_that_is_not_real_numbers_is_refused(prior):
    with pytest.raises(ConfigError, match="prior weights must be an array of real numbers"):
        families.TestSet(np.full((4, 4), 0.25), prior_weights=prior)


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

    def test_oracle_cases_take_both_column_paths(self, case, request):
        # The kernel merges Bell-weight columns equal in every state: the
        # grid's w_3 = w_4 is merged, the simplex draws and vertices have
        # no two columns equal.
        w = case[0].bell_weights
        equal = [(j, k) for j in range(4) for k in range(j + 1, 4)
                 if np.array_equal(w[:, j], w[:, k])]
        assert equal == ([(2, 3)] if request.node.callspec.params["case"] == "two_param" else [])

    def test_merged_and_unmerged_columns_agree(self, record):
        # One appended state with w_3 != w_4 turns the merge off for the
        # whole array; the grid's values move by at most 1e-12 relative.
        grid = families.grid_prior_two_param(40, 40).bell_weights
        merged = posterior.log_likelihood_vector(families.TestSet(grid), record)
        unmerged = posterior.log_likelihood_vector(
            families.TestSet(np.vstack([grid, [[0.1, 0.2, 0.3, 0.4]]])), record)[:-1]
        np.testing.assert_array_equal(np.isneginf(merged), np.isneginf(unmerged))
        finite = np.isfinite(merged)
        np.testing.assert_allclose(merged[finite], unmerged[finite], rtol=1e-12, atol=0)

    def test_zero_different_outcome_pair_gives_minus_inf(self):
        # The XX same-outcome pair sum of this row is 1.0000000000001 and
        # its different-outcome pair w_2 + w_4 is 0, so the observed XX
        # different outcomes give log(0) = -inf: no NaN and no warning.
        weights = np.array([[0.6, 0.0, 0.4 + 1e-13, 0.0]])
        assert weights[0, 0] + weights[0, 2] > 1.0
        counts = np.array([[3, 1, 2, 4], [1, 1, 1, 1], [1, 1, 1, 1], [2, 2, 2, 2], [5, 1, 1, 5]])
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


class TestEqualColumns:
    """The kernel's column merge, found once per test set."""

    @pytest.mark.parametrize(
        "build, merge",
        [(lambda: families.grid_prior_two_param(7, 9), (0, 1, 2, 2)),
         (lambda: families.simplex_prior_bell_diagonal(50, seed=4), (0, 1, 2, 3))],
        ids=["two_param", "bell_diag"],
    )
    def test_merge_is_cached(self, build, merge):
        ts = build()
        assert ts.equal_columns == merge
        assert ts.equal_columns is ts.equal_columns

    def test_mismatch_past_the_first_block_is_not_merged(self):
        # Columns 2 and 3 are equal in every state of the first block (the
        # grid family's w_3 = w_4) and differ in one state of the second.
        p = np.linspace(0.0, 1.0, families.BLOCK + 50)
        weights = families.two_param_bell_weights(p, p / 2.0)
        row = families.BLOCK + 17
        weights[row] = [0.4, 0.3, 0.2, 0.1]
        ts = families.TestSet(weights)
        assert ts.equal_columns == (0, 1, 2, 3)
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 300, seed=2)
        ll = posterior.log_likelihood_vector(ts, rec)
        oracle = posterior.log_likelihood(rec, families.bell_diagonal_state(weights[row]))
        assert abs(ll[row] - oracle) <= 1e-9


class TestBlockBoundaries:
    """Test sets spanning several blocks of the elementwise passes."""

    @pytest.fixture(scope="class")
    def test_set(self):
        """One full block, then a partial one ending in the four Bell vertices."""
        draws = families.simplex_prior_bell_diagonal(families.BLOCK + 100, seed=11)
        return families.TestSet(np.vstack([draws.bell_weights, np.eye(4)]))

    @pytest.fixture(params=["sampled", "impossible"])
    def record(self, request):
        if request.param == "sampled":
            return measurement.simulate_record(families.reference_mixture("rho1"), 10_000, seed=3)
        return TestLikelihoodKernel.impossible_record()

    def test_blocks_cover_the_states_in_order(self):
        for n in (1, families.BLOCK - 1, families.BLOCK, 2 * families.BLOCK + 3):
            slices = list(families.blocks(n))
            assert np.array_equal(np.concatenate([np.arange(n)[sl] for sl in slices]), np.arange(n))
            assert all(sl.stop - sl.start <= families.BLOCK for sl in slices)

    def test_kernel_matches_per_state_oracle(self, test_set, record):
        ll = posterior.log_likelihood_vector(test_set, record)
        n, b = test_set.n_states, families.BLOCK
        picks = np.unique(np.r_[0:n:173, b - 3:b + 3, n - 4:n])
        oracle = np.array([posterior.log_likelihood(record, families.bell_diagonal_state(w))
                           for w in test_set.bell_weights[picks]])
        np.testing.assert_array_equal(np.isneginf(ll[picks]), np.isneginf(oracle))
        finite = np.isfinite(oracle)
        np.testing.assert_allclose(ll[picks][finite], oracle[finite], rtol=0, atol=1e-9)

    def test_vertices_in_the_last_block_are_impossible(self, test_set):
        ll = posterior.log_likelihood_vector(test_set, TestLikelihoodKernel.impossible_record())
        assert np.isneginf(ll[-4:]).all()
        assert np.isfinite(ll[:-4]).all()

    def test_kernel_values_do_not_depend_on_the_blocking(self, test_set, record):
        # Chunks of 1000 states each fit in one block; their concatenation
        # must equal the kernel on the whole set bit for bit.
        ll = posterior.log_likelihood_vector(test_set, record)
        chunks = [posterior.log_likelihood_vector(
                      families.TestSet(test_set.bell_weights[i:i + 1000]), record)
                  for i in range(0, test_set.n_states, 1000)]
        assert np.array_equal(ll, np.concatenate(chunks))

    def test_update_equals_unblocked_formula(self, test_set):
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 10_000, seed=3)
        prior = np.random.default_rng(8).dirichlet(np.ones(test_set.n_states))
        ts = families.TestSet(test_set.bell_weights, prior)
        ll = posterior.log_likelihood_vector(ts, rec)
        ll -= ll.max()
        log_tiny = np.log(np.finfo(float).tiny)
        keep = ll >= log_tiny
        assert keep.any() and not keep.all()
        w = np.exp(np.maximum(ll, log_tiny) * keep) * keep * prior
        w /= w.sum()
        assert np.array_equal(posterior.update_posterior(ts, rec).weights, w)

    @pytest.mark.parametrize("bad", [np.nan, -1e-3], ids=["nan", "negative"])
    def test_bad_row_in_second_block_is_refused(self, test_set, bad):
        weights = test_set.bell_weights.copy()
        weights[families.BLOCK + 7] = [0.5 - bad, 0.5, bad, 0.0]
        with pytest.raises(ConfigError, match="Bell weights"):
            families.TestSet(weights)


def clip_log1p_kernel(weights, rec):
    """The kernel's former formula: s = clip(w @ SAME_OUTCOME_MAP, 0, 1) per
    XX, YY and ZZ, then log(s) per same and log1p(-s) per different count."""
    same, diff = posterior.same_different_counts(rec)
    n_quarter = rec.counts.sum() - same.sum() - diff.sum()
    ll = np.full(len(weights), n_quarter * np.log(0.25) - (same.sum() + diff.sum()) * np.log(2.0))
    with np.errstate(divide="ignore"):
        for j, (n_same, n_diff) in enumerate(zip(same, diff)):
            s = np.clip(weights @ posterior.SAME_OUTCOME_MAP[:, j], 0.0, 1.0)
            if n_same > 0:
                ll += n_same * np.log(s)
            if n_diff > 0:
                ll += n_diff * np.log1p(-s)
    return ll


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize(
    "build",
    [lambda: families.grid_prior_two_param(600, 600),
     lambda: families.simplex_prior_bell_diagonal(100_000, seed=1)],
    ids=["grid_600x600", "bell_diag_1e5"],
)
def test_kernel_matches_former_formula_on_readme_records(build, seed):
    # The README's records: two-param(0.4, 0.4), 400 shots per setting.
    # Pair sums w_a + w_b replace 1 - s for the different outcomes; the two
    # are equal on the simplex, so log L moves by rounding only.
    rec = measurement.simulate_record(families.two_param_state(0.4, 0.4), 400, seed=seed)
    weights = build().bell_weights
    ll = posterior.log_likelihood_vector(families.TestSet(weights), rec)
    former = clip_log1p_kernel(weights, rec)
    np.testing.assert_array_equal(np.isneginf(ll), np.isneginf(former))
    finite = np.isfinite(former)
    np.testing.assert_allclose(ll[finite], former[finite], rtol=1e-12, atol=0)


LABEL_BINS = [1, 7, 50, 255, 256, 300, 3 * families.BLOCK]


def numpy_label(x, top, n_bins):
    """0 at or below the entangled floor, else 1 + the bin np.histogram puts x in."""
    if x <= linalg.NEGATIVITY_FLOOR:
        return 0
    counts, _ = np.histogram([x], bins=n_bins, range=(0.0, top))
    return 1 + int(np.argmax(counts))


@pytest.mark.parametrize("n_bins", LABEL_BINS)
def test_labels_on_and_beside_each_edge_match_numpy_histogram(n_bins):
    # Negativities exactly on an edge, one ulp below and above it, and at
    # top, behind two blocks of random ones; every edge is tried up to 300
    # bins, and 200 of them, with the first and last, above.
    top = 0.8123456789
    edges = np.histogram_bin_edges([], n_bins, range=(0.0, top))
    rng = np.random.default_rng(n_bins)
    picks = np.arange(n_bins + 1)
    if n_bins > 300:
        picks = np.unique(np.r_[0, 1, n_bins - 1, n_bins, rng.choice(n_bins + 1, 200)])
    near = np.r_[[np.nextafter(edges[picks], -1.0), edges[picks],
                  np.nextafter(edges[picks], 2.0)]].T.ravel()
    near = np.r_[near[(near >= 0.0) & (near <= top)], top]
    x = np.r_[rng.random(2 * families.BLOCK) * top, near]
    ts = families.TestSet(np.full((len(x), 4), 0.25))
    ts.negativities, ts.entangled = x, x > linalg.NEGATIVITY_FLOOR
    got_edges, labels = ts.negativity_bins(n_bins)
    assert got_edges.tobytes() == edges.tobytes()
    at = 2 * families.BLOCK
    assert [int(v) for v in labels[at:]] == [numpy_label(v, top, n_bins) for v in near]
    counts, _ = np.histogram(x[ts.entangled], bins=n_bins, range=(0.0, top))
    assert np.array_equal(np.bincount(labels, minlength=n_bins + 1)[1:], counts)


@pytest.mark.parametrize("top", [1.0, 0.8123456789, 2.0 ** -40, 1.0 - 2.0 ** -52])
@pytest.mark.parametrize("n_bins", LABEL_BINS)
def test_edges_below_the_last_are_index_times_step(n_bins, top):
    # The label build computes edge k as float(k) * (top / n_bins) rather
    # than reading it from the edges, so the two must agree bit for bit.
    edges = np.histogram_bin_edges([], n_bins, range=(0.0, top))
    assert edges[:-1].tobytes() == (np.arange(n_bins) * (top / n_bins)).tobytes()
    assert edges[-1] == top

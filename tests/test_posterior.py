import numpy as np
import pytest

from entchar import families, linalg, measurement, posterior
from entchar.errors import ConfigError, DataError

IDENTITY4 = np.eye(4) / 4.0


def make_record(counts):
    return measurement.MeasurementRecord(
        settings=measurement.DEFAULT_SETTINGS, counts=np.asarray(counts, dtype=int)
    )


def bell_diag_set(bell_weights, prior=None):
    return families.TestSet(np.atleast_2d(np.asarray(bell_weights, dtype=float)), prior)


class TestLogLikelihood:
    def test_uniform_counts_on_maximally_mixed(self):
        rec = make_record([[1, 1, 1, 1]] + [[0, 0, 0, 0]] * 4)
        assert posterior.log_likelihood(rec, IDENTITY4) == pytest.approx(4.0 * np.log(0.25))

    def test_scales_with_counts(self):
        rec = make_record([[10, 10, 10, 10]] * 5)
        assert posterior.log_likelihood(rec, IDENTITY4) == pytest.approx(200.0 * np.log(0.25))

    def test_impossible_outcome(self):
        counts = np.zeros((5, 4), dtype=int)
        counts[0, 1] = 1  # XX anti-correlated outcome, impossible for |Phi_1>
        assert posterior.log_likelihood(make_record(counts), families.bell_state(1)) == -np.inf

    def test_vector_matches_scalar(self):
        ts = families.grid_prior_two_param(6, 6)
        rec = measurement.simulate_record(families.two_param_state(0.5, 0.3), 200, seed=0)
        ll = posterior.log_likelihood_vector(ts, rec)
        p_axis, s_axis = np.linspace(0.0, 1.0, 6), np.linspace(0.0, np.pi, 6)
        for i in range(ts.n_states):
            rho = families.two_param_state(p_axis[i // 6], s_axis[i % 6])
            assert ll[i] == pytest.approx(posterior.log_likelihood(rec, rho), abs=1e-9)


class TestUpdatePosterior:
    def test_singleton(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        post = posterior.update_posterior(ts, make_record([[5, 5, 5, 5]] * 5))
        np.testing.assert_allclose(post.weights, [1.0])

    def test_symmetric_states_share_mass(self):
        # Swapping the first two and last two Bell weights flips the
        # same/different split in XX and YY only; a record with uniform
        # counts is equally likely under both states.
        ts = bell_diag_set([[0.5, 0.2, 0.2, 0.1], [0.2, 0.5, 0.1, 0.2]])
        post = posterior.update_posterior(ts, make_record([[10, 10, 10, 10]] * 5))
        np.testing.assert_allclose(post.weights, [0.5, 0.5], atol=1e-12)

    def test_normalized(self):
        ts = families.grid_prior_two_param(21, 21)
        rec = measurement.simulate_record(families.two_param_state(0.4, 0.4), 1000, seed=3)
        post = posterior.update_posterior(ts, rec)
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert post.weights.min() >= 0.0

    def test_prior_weights_override(self):
        # A prior given to the test set replaces the uniform one.
        ts = bell_diag_set([[0.5, 0.2, 0.2, 0.1], [0.2, 0.5, 0.1, 0.2]], [0.9, 0.1])
        rec = make_record([[10, 10, 10, 10]] * 5)
        post = posterior.update_posterior(ts, rec)
        np.testing.assert_allclose(post.weights, [0.9, 0.1], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_prior_weights_override_must_be_finite_and_non_negative(self, bad):
        # The test set refuses the prior, so no update can run on it.
        ts = families.simplex_prior_bell_diagonal(1000, seed=2)
        prior = ts.prior_weights.copy()
        prior[17] = bad
        with pytest.raises(ConfigError):
            families.TestSet(ts.bell_weights, prior)

    def test_all_states_excluded(self):
        counts = np.zeros((5, 4), dtype=int)
        counts[0, 1] = 1
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(DataError):
            posterior.update_posterior(ts, make_record(counts))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            bell_diag_set([[0.25, 0.25, 0.25, 0.25]], [0.5, 0.5])

    def test_exponential_is_exact_below_underflow(self):
        # 1e5 shots per setting spread the shifted log-likelihoods far
        # below -746, where exp is exactly 0.  States between -745.14 and
        # log(tiny) would get a subnormal exponential; the update counts it
        # as 0, and every other weight is prior * exp / sum exactly.
        ts = families.simplex_prior_bell_diagonal(10_000, seed=8)
        rec = measurement.simulate_record(families.reference_mixture("rho2"), 100_000, seed=1)
        ll = posterior.log_likelihood_vector(ts, rec)
        shifted = ll - ll.max()
        log_tiny = np.log(np.finfo(float).tiny)
        assert (shifted < -746.0).mean() > 0.5
        assert ((shifted < log_tiny) & (np.exp(shifted) > 0.0)).sum() >= 2
        expected = ts.prior_weights * np.where(shifted >= log_tiny, np.exp(shifted), 0.0)
        expected = expected / expected.sum()
        assert np.array_equal(posterior.update_posterior(ts, rec).weights, expected)

    def test_sequential_updates_match_joint(self):
        ts = families.grid_prior_two_param(15, 15)
        rho = families.two_param_state(0.6, 0.5)
        rec_a = measurement.simulate_record(rho, 300, seed=11)
        rec_b = measurement.simulate_record(rho, 300, seed=12)
        joint = make_record(rec_a.counts + rec_b.counts)
        post_a = posterior.update_posterior(ts, rec_a)
        post_ab = posterior.update_posterior(families.TestSet(ts.bell_weights, post_a.weights),
                                             rec_b)
        post_joint = posterior.update_posterior(ts, joint)
        np.testing.assert_allclose(post_ab.weights, post_joint.weights, atol=1e-9)

    def test_concentrates_with_more_data(self):
        # Posterior negativity spread shrinks as the record grows, for at
        # least 16 of 20 seeds.
        ts = families.grid_prior_two_param(21, 21)
        rho = families.two_param_state(0.4, 0.4)
        wins = 0
        for seed in range(20):
            stds = []
            for shots in (50, 5000):
                rec = measurement.simulate_record(rho, shots, seed=seed)
                post = posterior.update_posterior(ts, rec)
                stds.append(posterior.summarize(ts, post).neg_std)
            wins += stds[1] < stds[0]
        assert wins >= 16


class TestSummarize:
    def test_two_state_moments(self):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        post = posterior.Posterior(weights=np.array([0.75, 0.25]))
        s = posterior.summarize(ts, post)
        assert s.prob_entangled == pytest.approx(0.75)
        assert s.neg_mean == pytest.approx(0.75)
        assert s.neg_std == pytest.approx(np.sqrt(0.75 * 1.0 - 0.75**2))
        assert s.pur_mean == pytest.approx(0.75 * 1.0 + 0.25 * 0.25)

    def test_separable_set(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25], [0.4, 0.2, 0.2, 0.2]])
        post = posterior.Posterior(weights=np.array([0.5, 0.5]))
        s = posterior.summarize(ts, post)
        assert s.prob_entangled == 0.0
        assert s.neg_mean == 0.0
        assert s.neg_std == 0.0

    def test_fields_are_plain_floats(self):
        ts = families.grid_prior_two_param(12, 12)
        rec = measurement.simulate_record(families.two_param_state(0.4, 0.4), 400, seed=2)
        s = posterior.summarize(ts, posterior.update_posterior(ts, rec))
        for name in ("prob_entangled", "neg_mean", "neg_std", "pur_mean", "pur_std"):
            assert type(getattr(s, name)) is float, name

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(ConfigError):
            posterior.summarize(ts, posterior.Posterior(weights=np.ones(3) / 3))


@pytest.fixture(scope="module", params=["bell_diag_1e5", "grid_60x60"])
def prior_set(request):
    if request.param == "bell_diag_1e5":
        return families.simplex_prior_bell_diagonal(100_000, seed=4)
    return families.grid_prior_two_param(60, 60)


class TestEntangledIndex:
    """The index-gathered sums equal the boolean-mask formulas exactly."""

    def test_indices_partition_the_states(self, prior_set):
        ent, sep = prior_set.entangled_index, prior_set.separable_index
        assert np.array_equal(ent, np.flatnonzero(prior_set.entangled))
        assert np.array_equal(np.sort(np.concatenate([ent, sep])),
                              np.arange(prior_set.n_states))
        assert prior_set.entangled_index is ent  # cached, not recomputed

    @pytest.mark.parametrize("shots", [400, 10_000])
    @pytest.mark.parametrize("source", ["two_param", "rho1"])
    def test_masses_equal_boolean_mask_sums(self, prior_set, shots, source):
        rho = (families.two_param_state(0.4, 0.4) if source == "two_param"
               else families.reference_mixture("rho1"))
        rec = measurement.simulate_record(rho, shots, seed=5)
        post = posterior.update_posterior(prior_set, rec)
        w, ent, neg = post.weights, prior_set.entangled, prior_set.negativities
        n_bins, top = 50, float(neg.max())
        summary = posterior.summarize(prior_set, post)
        hist = posterior.histogram_negativity(prior_set, w, n_bins)
        assert summary.prob_entangled == float(w[ent].sum())
        assert hist.separable_mass == float(w[~ent].sum())
        mass, edges = np.histogram(neg[ent], bins=n_bins, range=(0.0, top), weights=w[ent])
        assert np.array_equal(hist.bin_mass, mass)
        assert np.array_equal(hist.bin_edges, edges)


class TestHistogram:
    def test_mass_accounting(self):
        ts = families.grid_prior_two_param(30, 30)
        hist = posterior.histogram_negativity(ts, ts.prior_weights, 40)
        assert len(hist.bin_edges) == 41
        assert hist.bin_mass.sum() + hist.separable_mass == pytest.approx(1.0, abs=1e-10)
        assert hist.separable_mass == pytest.approx(
            ts.prior_weights[~ts.entangled].sum(), abs=1e-12
        )

    def test_all_separable(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25], [0.3, 0.3, 0.2, 0.2]])
        hist = posterior.histogram_negativity(ts, ts.prior_weights, 10)
        assert hist.separable_mass == pytest.approx(1.0)
        np.testing.assert_allclose(hist.bin_mass, 0.0)

    def test_mass_lands_in_correct_bin(self):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.75, 0.25, 0.0, 0.0]])
        hist = posterior.histogram_negativity(ts, np.array([0.6, 0.4]), 4)
        # Negativities 1.0 and 0.5 with edges at 0, .25, .5, .75, 1; interior
        # bins are half-open on the right, so 0.5 lands in the third bin.
        np.testing.assert_allclose(hist.bin_mass, [0.0, 0.0, 0.4, 0.6], atol=1e-12)

    def test_edge_ties_match_explicit_edges(self):
        # Negativities placed exactly on every edge of 10 bins over (0, top],
        # one ulp to either side of each inner edge, at top, and between edges.
        n_bins, top = 10, 0.9
        edges = np.linspace(0.0, top, n_bins + 1)
        inner = edges[1:-1]
        negs = np.concatenate([edges[1:], np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                               [top, 0.05, 0.33]])
        p1 = 0.5 + negs / 2.0
        params = np.column_stack([p1, 1.0 - p1, np.zeros_like(p1), np.zeros_like(p1)])
        params = np.vstack([params, [[0.25, 0.25, 0.25, 0.25]]])
        weights = np.random.default_rng(3).dirichlet(np.ones(len(params)))
        ts = bell_diag_set(params, weights)
        ts.negativities[:-1] = negs  # exactly on the edges, free of rounding in p1
        ent = ts.entangled
        hist = posterior.histogram_negativity(ts, weights, n_bins)
        assert np.array_equal(hist.bin_edges, edges)
        expected, _ = np.histogram(ts.negativities[ent], bins=edges, weights=weights[ent])
        np.testing.assert_allclose(hist.bin_mass, expected, rtol=0, atol=1e-15)
        # Same bin for every state: each state alone lands where np.histogram puts it.
        for i in np.flatnonzero(ent):
            one = np.zeros_like(weights)
            one[i] = 1.0
            got = posterior.histogram_negativity(ts, one, n_bins).bin_mass
            want, _ = np.histogram(ts.negativities[ent], bins=edges, weights=one[ent])
            assert np.array_equal(got, want)
        prob_entangled = posterior.summarize(ts, posterior.Posterior(weights)).prob_entangled
        assert hist.bin_mass.sum() == pytest.approx(prob_entangled, abs=1e-12)

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(ConfigError):
            posterior.histogram_negativity(ts, np.ones(2) / 2, 10)


class TestMeanState:
    def test_equal_mix_of_two_bell_states(self):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        post = posterior.Posterior(weights=np.array([0.5, 0.5]))
        np.testing.assert_allclose(
            posterior.mean_state(ts, post),
            families.bell_diagonal_state([0.5, 0.5, 0.0, 0.0]),
            atol=1e-14,
        )

    def test_negativity_bounded_by_mean_negativity(self):
        ts = families.grid_prior_two_param(25, 25)
        rec = measurement.simulate_record(families.two_param_state(0.4, 0.4), 2000, seed=6)
        post = posterior.update_posterior(ts, rec)
        rho_bar = posterior.mean_state(ts, post)
        assert linalg.negativity(rho_bar) <= float(post.weights @ ts.negativities) + 1e-9
        linalg.validate_state(rho_bar)

    def test_convexity_violation_raises(self):
        # Cached negativities that understate the states' own break the bound.
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        ts.negativities = np.zeros(2)
        post = posterior.Posterior(weights=np.array([0.5, 0.5]))
        with pytest.raises(ConfigError):
            posterior.mean_state(ts, post)

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(ConfigError):
            posterior.mean_state(ts, posterior.Posterior(weights=np.ones(2) / 2))

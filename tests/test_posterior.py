import numpy as np
import pytest

from entchar import families, linalg, measurement, posterior
from entchar.errors import AllStatesExcludedError, LengthMismatchError, OutOfDomainError

IDENTITY4 = np.eye(4) / 4.0


def make_record(counts):
    return measurement.MeasurementRecord(
        settings=measurement.DEFAULT_SETTINGS, counts=np.asarray(counts, dtype=int)
    )


def bell_diag_set(params, weights=None):
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n = len(params)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return families.TestSet(
        model_id="bell_diag",
        params=params,
        negativities=families.bell_diagonal_negativity(params),
        purities=(params**2).sum(axis=1),
        prior_weights=np.asarray(weights, dtype=float),
    )


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
        for i in range(ts.n_states):
            assert ll[i] == pytest.approx(posterior.log_likelihood(rec, ts.state(i)), abs=1e-9)


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
        ts = bell_diag_set([[0.5, 0.2, 0.2, 0.1], [0.2, 0.5, 0.1, 0.2]])
        rec = make_record([[10, 10, 10, 10]] * 5)
        post = posterior.update_posterior(ts, rec, prior_weights=np.array([0.9, 0.1]))
        np.testing.assert_allclose(post.weights, [0.9, 0.1], atol=1e-12)

    def test_all_states_excluded(self):
        counts = np.zeros((5, 4), dtype=int)
        counts[0, 1] = 1
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(AllStatesExcludedError):
            posterior.update_posterior(ts, make_record(counts))

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(LengthMismatchError):
            posterior.update_posterior(ts, make_record([[1, 1, 1, 1]] * 5),
                                       prior_weights=np.array([0.5, 0.5]))

    def test_exponential_is_exact_below_underflow(self):
        # 1e5 shots per setting spread the shifted log-likelihoods far
        # below -746, where exp is exactly 0 and is skipped.
        ts = families.simplex_prior_bell_diagonal(10_000, seed=8)
        rec = measurement.simulate_record(families.reference_mixture("rho2"), 100_000, seed=1)
        ll = posterior.log_likelihood_vector(ts, rec)
        shifted = ll - ll.max()
        assert (shifted < -746.0).mean() > 0.5
        expected = ts.prior_weights * np.exp(shifted)
        expected = expected / expected.sum()
        assert np.array_equal(posterior.update_posterior(ts, rec).weights, expected)

    def test_sequential_updates_match_joint(self):
        ts = families.grid_prior_two_param(15, 15)
        rho = families.two_param_state(0.6, 0.5)
        rec_a = measurement.simulate_record(rho, 300, seed=11)
        rec_b = measurement.simulate_record(rho, 300, seed=12)
        joint = make_record(rec_a.counts + rec_b.counts)
        post_a = posterior.update_posterior(ts, rec_a)
        post_ab = posterior.update_posterior(ts, rec_b, prior_weights=post_a.weights)
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
        post = posterior.Posterior(weights=np.array([0.75, 0.25]), record=None)
        s = posterior.summarize(ts, post)
        assert s.prob_entangled == pytest.approx(0.75)
        assert s.neg_mean == pytest.approx(0.75)
        assert s.neg_std == pytest.approx(np.sqrt(0.75 * 1.0 - 0.75**2))
        assert s.pur_mean == pytest.approx(0.75 * 1.0 + 0.25 * 0.25)

    def test_separable_set(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25], [0.4, 0.2, 0.2, 0.2]])
        post = posterior.Posterior(weights=np.array([0.5, 0.5]), record=None)
        s = posterior.summarize(ts, post)
        assert s.prob_entangled == 0.0
        assert s.neg_mean == 0.0
        assert s.neg_std == 0.0

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(LengthMismatchError):
            posterior.summarize(ts, posterior.Posterior(weights=np.ones(3) / 3, record=None))


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
        prob_entangled = posterior.summarize(ts, posterior.Posterior(weights, None)).prob_entangled
        assert hist.bin_mass.sum() == pytest.approx(prob_entangled, abs=1e-12)

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(LengthMismatchError):
            posterior.histogram_negativity(ts, np.ones(2) / 2, 10)


class TestMeanState:
    def test_equal_mix_of_two_bell_states(self):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        post = posterior.Posterior(weights=np.array([0.5, 0.5]), record=None)
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
        post = posterior.Posterior(weights=np.array([0.5, 0.5]), record=None)
        with pytest.raises(OutOfDomainError):
            posterior.mean_state(ts, post)

    def test_length_mismatch(self):
        ts = bell_diag_set([[0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(LengthMismatchError):
            posterior.mean_state(ts, posterior.Posterior(weights=np.ones(2) / 2, record=None))

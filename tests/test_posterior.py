import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_rejects_non_state(self):
        # Every outcome of the default settings has probability 1/4 under
        # this matrix, but it has eigenvalues -1/4.
        rec = make_record([[250, 250, 250, 250]] * 5)
        hidden_negative = IDENTITY4 + 0.5 * np.kron(linalg.PAULI_X, linalg.PAULI_Z)
        with pytest.raises(ConfigError, match="minimum eigenvalue"):
            posterior.log_likelihood(rec, hidden_negative)

    def test_vector_matches_scalar(self):
        ts = families.grid_prior_two_param(6, 6)
        rec = measurement.simulate_record(families.two_param_state(0.5, 0.3), 200, seed=0)
        ll = posterior.log_likelihood_vector(ts, rec)
        p_axis, s_axis = np.linspace(0.0, 1.0, 6), np.linspace(0.0, np.pi, 6)
        for i in range(ts.n_states):
            rho = families.two_param_state(p_axis[i // 6], s_axis[i % 6])
            assert ll[i] == pytest.approx(posterior.log_likelihood(rec, rho), abs=1e-9)


def per_pair_kernel(weights, rec):
    """The log-likelihood kernel written out pair by pair: for each pair sum,
    in the order of ``_OUTCOME_PAIRS`` and with the counts of equal columns'
    pairs added, w_a + w_b, its log, times the count, added to a running
    total from 0; then the constant."""
    same, diff = posterior.same_different_counts(rec)
    n_split = int(same.sum() + diff.sum())  # exact: counts past 2**53 do not round
    constant = float(int(rec.counts.sum()) - n_split) * np.log(0.25) - float(n_split) * np.log(2.0)
    first = [next(j for j in range(k + 1) if np.array_equal(weights[:, j], weights[:, k]))
             for k in range(4)]
    terms = {}
    for (a, b), n in zip(posterior._OUTCOME_PAIRS, np.concatenate([same, diff])):
        if n > 0:
            pair = tuple(sorted((first[a], first[b])))
            terms[pair] = terms.get(pair, 0) + n
    ll = np.zeros(len(weights))
    with np.errstate(divide="ignore"):
        for (a, b), n in terms.items():
            s = weights[:, a] + weights[:, b]
            s = np.log(s)
            s *= n
            ll += s
    ll += constant
    return ll


@st.composite
def kernel_cases(draw):
    """Simplex weights in either layout, with some columns equal in every
    state and some weights exactly 0, and a record of counts up to 2**53."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 5, families.BLOCK + 3, 2 * families.BLOCK + 4096]))
    w = rng.dirichlet(np.ones(4), n)
    equal = draw(st.sampled_from([(), (2, 3), (0, 1), (1, 2, 3), (0, 1, 2, 3)]))
    if equal:
        w[:, equal] = w[:, equal].mean(axis=1, keepdims=True)
    if len(equal) <= 2 and draw(st.booleans()):
        # Move one free column's mass to the other in about half the states.
        z, to = [j for j in range(4) if j not in equal][:2]
        rows = rng.random(n) < 0.5
        w[rows, to] += w[rows, z]
        w[rows, z] = 0.0
    if draw(st.booleans()):
        w = np.ascontiguousarray(w.T).T
    top = draw(st.sampled_from([3, 1000, 2**53]))
    counts = np.array(draw(st.lists(st.integers(0, top), min_size=20, max_size=20))).reshape(5, 4)
    return w, measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernel_equals_the_per_pair_sums_bit_for_bit(case):
    # The kernel's pick-matrix product forms each pair sum exactly as one
    # addition does, whatever the BLAS's order, FMA use or thread count.
    weights, rec = case
    got = posterior.log_likelihood_vector(families.TestSet(weights), rec)
    assert got.tobytes() == per_pair_kernel(weights, rec).tobytes()


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
    """The sums read through the entangled mask and the per-state labels equal
    the boolean-mask formulas, up to their order of addition."""

    def test_indices_partition_the_states(self, prior_set):
        # Label 0 marks exactly the states off the entangled mask, so the
        # mask and the labels split the states the same way.
        mask = prior_set.entangled
        assert np.array_equal(mask, prior_set.negativities > linalg.NEGATIVITY_FLOOR)
        _, labels = prior_set.negativity_bins(50)
        assert np.array_equal(labels == 0, ~mask)

    def test_indices_are_ascending_intp(self, prior_set):
        # An index of the entangled states, ascending intp as
        # ``np.flatnonzero`` lists it, is the same read from the labels or
        # from the mask; the mask is built once with the test set and is
        # read-only, so no caller can move it between readouts.
        mask = prior_set.entangled
        assert prior_set.entangled is mask  # built once, not recomputed
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
        _, labels = prior_set.negativity_bins(50)
        ent, sep = np.flatnonzero(labels), np.flatnonzero(labels == 0)
        assert ent.dtype == np.intp and sep.dtype == np.intp
        assert np.array_equal(ent, np.flatnonzero(mask))
        assert np.array_equal(sep, np.flatnonzero(~mask))

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
        assert summary.prob_entangled == pytest.approx(float(w[ent].sum()), rel=0, abs=1e-12)
        assert hist.separable_mass == pytest.approx(float(w[~ent].sum()), rel=0, abs=1e-12)
        mass, edges = np.histogram(neg[ent], bins=n_bins, range=(0.0, top), weights=w[ent])
        np.testing.assert_allclose(hist.bin_mass, mass, rtol=0, atol=1e-12)
        assert np.array_equal(hist.bin_edges, edges)


class TestDefaultPrior:
    """An omitted prior is a read-only stride-0 view of 1/n, and every output
    equals that of an explicit ``np.full(n, 1/n)`` prior bit for bit."""

    def test_holds_no_n_sized_buffer(self, prior_set):
        prior = prior_set.prior_weights
        assert prior.shape == (prior_set.n_states,)
        assert prior.strides == (0,)

    def test_is_read_only(self, prior_set):
        with pytest.raises(ValueError):
            prior_set.prior_weights[0] = 1.0

    def test_outputs_equal_an_explicit_uniform_prior(self, prior_set):
        n = prior_set.n_states
        explicit = families.TestSet(prior_set.bell_weights, np.full(n, 1.0 / n))
        assert explicit.prior_weights.strides == (8,)
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 400, seed=7)
        outputs = []
        for ts in (prior_set, explicit):
            prior_hist = posterior.histogram_negativity(ts, ts.prior_weights, 100)
            post = posterior.update_posterior(ts, rec)
            hist = posterior.histogram_negativity(ts, post.weights, 50)
            again = posterior.update_posterior(families.TestSet(ts.bell_weights, post.weights), rec)
            outputs.append([prior_hist.bin_mass, prior_hist.bin_edges,
                            np.array(prior_hist.separable_mass), post.weights,
                            hist.bin_mass, hist.bin_edges, np.array(hist.separable_mass),
                            posterior.mean_state(ts, post), again.weights,
                            np.array(list(vars(posterior.summarize(ts, post)).values()))])
        for default, full in zip(*outputs):
            assert np.array_equal(default, full)


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
        # No entangled state: exact zero masses over (0, 1].
        assert not ts.entangled.any()
        assert np.array_equal(hist.bin_mass, np.zeros(10))
        assert np.array_equal(hist.bin_edges, np.linspace(0.0, 1.0, 11))
        mass, edges = np.histogram(np.empty(0), bins=10, range=(0.0, 1.0), weights=np.empty(0))
        assert np.array_equal(hist.bin_mass, mass) and np.array_equal(hist.bin_edges, edges)

    # Labels run from 0 to n_bins: one byte holds them up to 255 bins, and
    # at 256 a wrapped top label would count as separable mass.
    @pytest.mark.parametrize("n_bins", [1, 50, 255, 256, 300])
    def test_prior_masses_equal_numpy_histogram(self, prior_set, n_bins):
        w, neg, ent = np.asarray(prior_set.prior_weights), prior_set.negativities, prior_set.entangled
        hist = posterior.histogram_negativity(prior_set, w, n_bins)
        top = float(neg.max())
        mass, edges = np.histogram(neg[ent], bins=n_bins, range=(0.0, top), weights=w[ent])
        np.testing.assert_allclose(hist.bin_mass, mass, rtol=0, atol=1e-12)
        assert np.array_equal(hist.bin_edges, edges)
        assert hist.bin_mass[-1] > 0  # the largest negativity is in the top bin
        _, labels = prior_set.negativity_bins(n_bins)
        assert labels.dtype == np.min_scalar_type(n_bins)
        counts, _ = np.histogram(neg[ent], bins=n_bins, range=(0.0, top))
        assert np.array_equal(np.bincount(labels, minlength=n_bins + 1)[1:], counts)

    def test_more_bins_than_a_block(self, monkeypatch):
        # A block grows to the label count, so a call's bincount slots stay
        # O(n + n_bins), not O(n_bins) per block of BLOCK states.
        ts = families.simplex_prior_bell_diagonal(200_000, seed=4)
        w, neg, ent = np.asarray(ts.prior_weights), ts.negativities, ts.entangled
        n_bins = 3 * families.BLOCK
        calls, bincount = [], np.bincount

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        hist = posterior.histogram_negativity(ts, w, n_bins)
        assert 0 < len(calls) <= -(-ts.n_states // max(families.BLOCK, n_bins + 1))
        mass, edges = np.histogram(neg[ent], bins=n_bins, range=(0.0, float(neg.max())),
                                   weights=w[ent])
        np.testing.assert_allclose(hist.bin_mass, mass, rtol=0, atol=1e-12)
        assert np.array_equal(hist.bin_edges, edges)

    def test_bin_cache_keeps_only_the_last_bin_count(self):
        ts = families.simplex_prior_bell_diagonal(20_000, seed=6)
        w = np.random.default_rng(6).dirichlet(np.ones(ts.n_states))
        ent, top = ts.entangled, float(ts.negativities.max())
        for n_bins in (10, 300, 10):
            hist = posterior.histogram_negativity(ts, w, n_bins)
            mass, edges = np.histogram(ts.negativities[ent], bins=n_bins, range=(0.0, top),
                                       weights=w[ent])
            np.testing.assert_allclose(hist.bin_mass, mass, rtol=0, atol=1e-12)
            assert np.array_equal(hist.bin_edges, edges)
        # The labels of 10 bins are cached, one byte per state; a call with
        # 300 bins replaces them rather than adding a second entry.
        _, labels = ts.negativity_bins(10)
        assert ts.negativity_bins(10)[1] is labels
        assert labels.dtype == np.uint8 and labels.shape == (ts.n_states,)
        assert ts.negativity_bins(300)[1].dtype == np.uint16
        assert ts.negativity_bins(10)[1] is not labels

    def test_mass_lands_in_correct_bin(self):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.75, 0.25, 0.0, 0.0]])
        hist = posterior.histogram_negativity(ts, np.array([0.6, 0.4]), 4)
        # Negativities 1.0 and 0.5 with edges at 0, .25, .5, .75, 1; interior
        # bins are half-open on the right, so 0.5 lands in the third bin.
        np.testing.assert_allclose(hist.bin_mass, [0.0, 0.0, 0.4, 0.6], atol=1e-12)

    def test_edge_ties_match_explicit_edges(self):
        # At top 0.9 the scaled index of some values on an inner edge rounds
        # down, and at 0.5 that of some values one ulp below one rounds up, so
        # numpy's increment and decrement corrections both take part.
        for top in (0.9, 0.5):
            self.check_edge_ties(top)

    @staticmethod
    def check_edge_ties(top):
        # Negativities placed exactly on every edge of 10 bins over (0, top],
        # one ulp to either side of each inner edge, at top, and between edges.
        n_bins = 10
        edges = np.linspace(0.0, top, n_bins + 1)
        inner = edges[1:-1]
        negs = np.concatenate([edges[1:], np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                               [top, 0.05, 0.33]])
        p1 = 0.5 + negs / 2.0
        params = np.column_stack([p1, 1.0 - p1, np.zeros_like(p1), np.zeros_like(p1)])
        params = np.vstack([params, [[0.25, 0.25, 0.25, 0.25]]])
        weights = np.random.default_rng(3).dirichlet(np.ones(len(params)))
        ts = bell_diag_set(params, weights)
        # Exactly on the edges, free of rounding in p1; the array is read-only,
        # so it is replaced before the labels are built.  The entangled mask,
        # built with the test set, holds for it: only the last state is below
        # the floor in both.
        ts.negativities = np.append(negs, ts.negativities[-1])
        ent = ts.entangled
        assert np.array_equal(ent, ts.negativities > linalg.NEGATIVITY_FLOOR)
        hist = posterior.histogram_negativity(ts, weights, n_bins)
        assert np.array_equal(hist.bin_edges, edges)
        expected, _ = np.histogram(ts.negativities[ent], bins=edges, weights=weights[ent])
        np.testing.assert_allclose(hist.bin_mass, expected, rtol=0, atol=1e-15)
        # Bit for bit against numpy's own equal-bin path over (0, top].
        mass, _ = np.histogram(ts.negativities[ent], bins=n_bins, range=(0.0, top),
                               weights=weights[ent])
        assert np.array_equal(hist.bin_mass, mass)
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

    @pytest.mark.parametrize("n_bins", [0, -3, 2.5, True, np.float64(4.0)])
    def test_bad_bin_count(self, n_bins):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        with pytest.raises(ConfigError, match="bin count must be an integer >= 1"):
            posterior.histogram_negativity(ts, np.array([0.5, 0.5]), n_bins)

    def test_numpy_integer_bin_count(self):
        ts = bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        hist = posterior.histogram_negativity(ts, np.array([0.5, 0.5]), np.int32(3))
        np.testing.assert_array_equal(hist.bin_mass, [0.0, 0.0, 0.5])


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


class TestReadoutWeights:
    """``summarize``, ``histogram_negativity`` and ``mean_state`` share one
    weight rule: weights are read as a float array of shape (n,), and any
    other shape, or values that are not real numbers, is a ConfigError."""

    READOUTS = ["summarize", "histogram_negativity", "mean_state"]

    @staticmethod
    def read(readout, ts, w):
        """The readout's values on weights w, as one array."""
        if readout == "summarize":
            return np.array(dataclasses.astuple(posterior.summarize(ts, posterior.Posterior(w))))
        if readout == "histogram_negativity":
            hist = posterior.histogram_negativity(ts, w, 5)
            return np.concatenate([hist.bin_edges, hist.bin_mass, [hist.separable_mass]])
        return posterior.mean_state(ts, posterior.Posterior(w))

    @pytest.fixture
    def ts(self):
        return bell_diag_set([[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])

    @pytest.mark.parametrize("readout", READOUTS)
    def test_list_reads_as_the_array(self, ts, readout):
        np.testing.assert_array_equal(self.read(readout, ts, [0.75, 0.25]),
                                      self.read(readout, ts, np.array([0.75, 0.25])))

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), ()], ids=["column", "row", "scalar"])
    @pytest.mark.parametrize("readout", READOUTS)
    def test_other_shapes_are_refused(self, ts, readout, shape):
        with pytest.raises(ConfigError, match=r"weights must have shape \(2,\)"):
            self.read(readout, ts, np.full(shape, 0.5))

    @pytest.mark.parametrize("weights", [np.array([0.75 + 0.5j, 0.25]), ["0.75", "0.25"],
                                         [0.75, [0.25]], np.array([True, False]),
                                         np.array([0.75, 0.25], dtype=object)],
                             ids=["complex", "text", "ragged", "bool", "object"])
    @pytest.mark.parametrize("readout", READOUTS)
    def test_values_that_are_not_real_numbers_are_refused(self, ts, readout, weights):
        # Complex weights used to lose their imaginary part with only a ComplexWarning.
        with pytest.raises(ConfigError, match="weights must be an array of real numbers"):
            self.read(readout, ts, weights)


class TestAllocationPeak:
    """Peak traced memory (numpy reports its buffers to tracemalloc) stays at
    what a pass keeps plus one block's scratch; a whole-array pass may also
    hold a boolean mask of 1 B per state, never an n-sized float temporary."""

    N = 200_000
    #: Sixteen float64 vectors of one block.
    SCRATCH = 16 * 8 * families.BLOCK
    #: Four float64 vectors of one block: a readout's blocked pass holds
    #: about three, so an n-sized cast or gather (8 B per state) fails.
    READOUT_SCRATCH = 4 * 8 * families.BLOCK

    @pytest.fixture
    def traced(self):
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_simplex_prior_build(self, traced):
        ts = families.simplex_prior_bell_diagonal(self.N, seed=0)
        held, peak = tracemalloc.get_traced_memory()
        # Bell weights 32 B, negativity and purity 8 B each and the entangled
        # mask 1 B per state; the uniform prior is a stride-0 view and holds
        # no buffer.
        assert held >= 49 * self.N
        assert peak <= 48 * self.N + self.SCRATCH
        assert ts.n_states == self.N

    def test_update_posterior(self, traced):
        ts = families.simplex_prior_bell_diagonal(self.N, seed=0)
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=0)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        post = posterior.update_posterior(ts, rec)
        peak = tracemalloc.get_traced_memory()[1]
        # The posterior weights, 8 B per state, are all it keeps.
        assert peak - before <= 8 * self.N + self.SCRATCH
        assert len(post.weights) == self.N

    @pytest.fixture(params=["simplex", "all_entangled"])
    def first_call(self, request, traced):
        """A new test set and a posterior on it, before its labels are built:
        the uniform simplex prior (about half its states entangled) or one
        whose every state is entangled."""
        if request.param == "simplex":
            ts = families.simplex_prior_bell_diagonal(self.N, seed=0)
        else:
            p = np.linspace(0.5, 1.0, self.N)
            ts = families.TestSet(families.two_param_bell_weights(p, p))
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=0)
        return ts, posterior.update_posterior(ts, rec)

    def test_summarize_first_call(self, first_call):
        ts, post = first_call
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        posterior.summarize(ts, post)
        held, peak = tracemalloc.get_traced_memory()
        # The entangled mask was built with the test set; summarize keeps
        # nothing and sums through the mask with no n-sized gather or cast.
        assert held - before <= 4096
        assert peak - before <= self.READOUT_SCRATCH

    def test_histogram_negativity_first_call(self, first_call):
        ts, post = first_call
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        posterior.histogram_negativity(ts, post.weights, 50)
        held, peak = tracemalloc.get_traced_memory()
        # It keeps the labels, 1 B per state.
        assert held - before <= self.N + 4096
        # Beyond them, one block of the label build or of the bincount.
        assert peak - before <= self.N + self.READOUT_SCRATCH


#: The agreement test's records: each source at each shot count, seed 7.
STREAMED_SOURCES = {"tp(0.4,0.4)": lambda: families.two_param_state(0.4, 0.4),
                    "rho1": lambda: families.reference_mixture("rho1"),
                    "rho2": lambda: families.reference_mixture("rho2"),
                    "rho_k(0.7)": lambda: families.rho_k_state(0.7)}


class TestCharacterizeSampled:
    """The streamed readouts of the sampled prior against ``update_posterior``
    and ``readouts`` on the same draws: their sums add in another order, so
    they agree within 1e-12 (2.6e-13 at most over these records at 10^6),
    with equal bin edges."""

    @staticmethod
    def assert_agree(got, expected):
        (s, hist, rho), (s_ref, hist_ref, rho_ref) = got, expected
        for field in dataclasses.fields(s):
            assert abs(getattr(s, field.name) - getattr(s_ref, field.name)) <= 1e-12, field.name
        assert hist.bin_edges.tobytes() == hist_ref.bin_edges.tobytes()
        np.testing.assert_allclose(hist.bin_mass, hist_ref.bin_mass, rtol=0, atol=1e-12)
        assert abs(hist.separable_mass - hist_ref.separable_mass) <= 1e-12
        np.testing.assert_allclose(rho, rho_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, n_bins", [(5 * families.BLOCK + 7, 50),
                                           (5 * families.BLOCK + 7, 300), (10**6, 50)])
    def test_agrees_with_the_materialized_path(self, n, n_bins):
        ts = families.simplex_prior_bell_diagonal(n, seed=1)
        for source in STREAMED_SOURCES.values():
            for shots in (400, 1000, 10_000):
                rec = measurement.simulate_record(source(), shots, seed=7)
                expected = posterior.readouts(ts, posterior.update_posterior(ts, rec), n_bins)
                self.assert_agree(posterior.characterize_sampled(n, 1, rec, n_bins), expected)

    @staticmethod
    def pure_first_block(monkeypatch):
        """Make the sampled states of the first block |Phi_1><Phi_1|."""
        make = families.simplex_spacings

        def patched(seed):
            generator, spacings = make(seed)

            def pure_first(sl, gen, u, out):
                spacings(sl, gen, u, out)
                if sl.start == 0:
                    out[0], out[1:] = 1.0, 0.0
            return generator, pure_first

        monkeypatch.setattr(families, "simplex_spacings", patched)

    def test_a_block_of_impossible_states_gets_no_weight(self, monkeypatch):
        # |Phi_1> never gives XX different outcomes, which rho1 does, so the
        # first block's log-likelihoods are all -inf.
        self.pure_first_block(monkeypatch)
        n = 3 * families.BLOCK
        ts = families.simplex_prior_bell_diagonal(n, seed=2)
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=7)
        post = posterior.update_posterior(ts, rec)
        assert not post.weights[: families.BLOCK].any()
        self.assert_agree(posterior.characterize_sampled(n, 2, rec, 50),
                          posterior.readouts(ts, post, 50))

    def test_no_possible_state_is_a_data_error(self, monkeypatch):
        self.pure_first_block(monkeypatch)
        rec = measurement.simulate_record(families.reference_mixture("rho1"), 1000, seed=7)
        with pytest.raises(DataError, match="zero probability"):
            posterior.characterize_sampled(100, 2, rec, 50)

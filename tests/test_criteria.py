import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

from entchar import criteria, families, measurement, posterior
from entchar.errors import ConfigError, DataError

LN = np.log


def exact_record(rho, shots_per_setting):
    """Record whose (fractional) counts equal the expected counts exactly."""
    counts = np.array(
        [
            shots_per_setting * measurement.outcome_probabilities(rho, s)
            for s in measurement.DEFAULT_SETTINGS
        ]
    )
    return measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)


def make_record(counts):
    return measurement.MeasurementRecord(
        settings=measurement.DEFAULT_SETTINGS, counts=np.asarray(counts, dtype=int)
    )


def max_log_l(rec, model):
    """A model's maximum log-likelihood, as ``criteria.compare`` scores it."""
    return criteria.compare(rec).scores[model].log_l


def two_param_log_l_oracle(rec, p, b):
    """Likelihood of the two-parameter family at explicit (p, b = p*c).

    p and b may be arrays; the result has their broadcast shape."""
    p, b = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(b, dtype=float))
    q = np.full_like(p, 0.25)
    probs = np.array(
        [
            [(1 + b) / 4, (1 - b) / 4, (1 - b) / 4, (1 + b) / 4],  # XX
            [q, q, q, q],                                          # XY
            [q, q, q, q],                                          # YX
            [(1 - b) / 4, (1 + b) / 4, (1 + b) / 4, (1 - b) / 4],  # YY
            [(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4],  # ZZ
        ]
    )
    probs = np.moveaxis(probs, (0, 1), (-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return xlogy(rec.counts, probs).sum(axis=(-2, -1))


def fine_grid_max(rec):
    """Largest oracle likelihood over a 401 x 401 grid of feasible (p, b)."""
    pg, bg = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(0.0, 1.0, 401))
    feasible = bg <= pg
    return two_param_log_l_oracle(rec, pg[feasible], bg[feasible]).max()


def bell_gradient(rec, p):
    """dL/dp_i = sum_j M_ij (S_j / s_j - D_j / (1 - s_j)) at Bell weights p,
    where M is SAME_OUTCOME_MAP and s = p @ M; a term with zero count is 0."""
    split = rec.counts[[0, 3, 4]]
    same, diff = split[:, 0] + split[:, 3], split[:, 1] + split[:, 2]
    s = p @ posterior.SAME_OUTCOME_MAP
    d_s = (np.divide(same, s, out=np.zeros(3), where=same > 0)
           - np.divide(diff, 1.0 - s, out=np.zeros(3), where=diff > 0))
    return posterior.SAME_OUTCOME_MAP @ d_s


def fallback_records():
    """Every record in this file whose Bell-diagonal fit leaves the closed form."""
    records = {
        "xx-same-yy-diff": make_record(
            [[500, 0, 0, 500], [250] * 4, [250] * 4, [0, 500, 500, 0], [250] * 4]),
        "unequal-totals": make_record(UNEQUAL_TOTALS_BD),
    }
    rho = families.bell_diagonal_state([0.9, 0.1, 0.0, 0.0])
    for seed in range(30):
        records[f"bd-60-shots-seed{seed}"] = measurement.simulate_record(rho, 60, seed=seed)
    for seed in range(20):
        records[f"rho1-seed{seed}"] = measurement.simulate_record(
            families.reference_mixture("rho1"), 1000, seed=seed)
    out = {}
    for name, rec in records.items():
        try:
            freq = measurement.frequencies(rec)
        except DataError:
            continue
        if not criteria.fit_bell_diagonal(freq)[1]:
            out[name] = rec
    return out


#: XX: 100 shots, all same-outcome; YY: 10 000 shots, all different-outcome.
UNEQUAL_TOTALS_BD = [[50, 0, 0, 50], [25] * 4, [25] * 4, [0, 5000, 5000, 0], [25] * 4]
#: XX: 100 shots at (1+b)/2 = 0.9; YY: 10 000 shots at (1-b)/2 = 0.45; ZZ: 100 shots.
UNEQUAL_TOTALS_TP = [[45, 5, 5, 45], [25] * 4, [25] * 4, [2250, 2750, 2750, 2250],
                     [40, 10, 10, 40]]


class TestFullBound:
    def test_uniform_record(self):
        rec = make_record([[25, 25, 25, 25]] * 5)
        freq = measurement.frequencies(rec)
        assert criteria.log_l_full_bound(freq) == pytest.approx(500.0 * LN(0.25))

    def test_hand_example(self):
        counts = [[30, 10, 10, 50]] + [[25, 25, 25, 25]] * 4
        rec = make_record(counts)
        freq = measurement.frequencies(rec)
        expected = (
            30 * LN(0.3) + 10 * LN(0.1) + 10 * LN(0.1) + 50 * LN(0.5) + 400 * LN(0.25)
        )
        assert criteria.log_l_full_bound(freq) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("kind", ["small_counts", "large_counts", "expected_counts",
                                      "column_major"])
    def test_equals_xlogy_bit_for_bit(self, kind):
        # The bound is computed without scipy; its terms and sum must be the
        # ones xlogy gives, zero outcomes and fractional counts included, and
        # summed in the same order for a column-major count array.
        rng = np.random.default_rng(11)
        for _ in range(300):
            if kind == "small_counts":
                counts = rng.integers(0, 60, (5, 4))
            elif kind == "large_counts":
                counts = rng.integers(0, 10**12, (5, 4))
            elif kind == "expected_counts":
                counts = rng.random((5, 4)) * 300.0
            else:
                counts = (rng.random((4, 5)) * 300.0).T
            counts[rng.random((5, 4)) < 0.3] = 0
            counts[:, 0] += 1
            freq = measurement.frequencies(measurement.MeasurementRecord(
                settings=measurement.DEFAULT_SETTINGS, counts=counts))
            assert criteria.log_l_full_bound(freq) == float(xlogy(freq.counts, freq.freqs).sum())

    def test_upper_bounds_every_state(self):
        rec = measurement.simulate_record(families.two_param_state(0.5, 0.6), 500, seed=1)
        freq = measurement.frequencies(rec)
        bound = criteria.log_l_full_bound(freq)
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert posterior.log_likelihood(rec, rho) <= bound + 1e-9


FALLBACK_RECORDS = fallback_records()


def vectorized_face_fit(freq):
    """Reference Bell-diagonal face fit: the four faces bisected as one
    array, both root forms evaluated everywhere, and the likelihood's
    argmax face chosen."""
    same, diff = posterior.same_different_counts(freq)
    is_same = posterior.SAME_OUTCOME_MAP.astype(bool)
    partner = np.array(
        [[next(i for i in range(4) if i != m and is_same[i, j] == is_same[m, j])
          for j in range(3)] for m in range(4)])
    a = np.where(is_same, same, diff).astype(float)
    b = np.where(is_same, diff, same).astype(float)
    n = float(same.sum() + diff.sum())
    lo, hi = np.full((4, 1), -n), np.full((4, 1), n)
    while True:
        lam = (lo + hi) / 2.0
        t = lam + a + b
        root = np.sqrt((lam + b - a) ** 2 + 4.0 * a * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(t > 0.0, 2.0 * a / (t + root), (t - root) / (2.0 * lam))
        if not ((lo < lam) & (lam < hi)).any():
            break
        above = q.sum(axis=1, keepdims=True) > 1.0
        lo, hi = np.where(above, lam, lo), np.where(above, hi, lam)
    faces = np.zeros((4, 4))
    faces[np.arange(4)[:, None], partner] = q
    faces /= faces.sum(axis=1, keepdims=True)
    return faces[np.argmax(posterior.log_likelihood_vector(families.TestSet(faces), freq))]


def seeded_records():
    """Records of the paper's mixtures and of the benchmark's sweep sources."""
    rho1, rho2 = families.reference_mixture("rho1"), families.reference_mixture("rho2")
    plan = [(rho1, 1000), (rho2, 100)]
    for rho in (families.two_param_state(0.4, 0.4), families.two_param_state(1 / 3, 1 / 3),
                rho1, rho2, families.rho_k_state(0.7)):
        plan += [(rho, shots) for shots in (60, 400, 1000, 10_000)]
    return [measurement.simulate_record(rho, shots, seed=seed)
            for rho, shots in plan for seed in range(20)]


class TestFitBellDiagonal:
    def test_recovers_exact_weights(self):
        truth = np.array([0.55, 0.2, 0.15, 0.1])
        rec = exact_record(families.bell_diagonal_state(truth), 1000)
        p, closed = criteria.fit_bell_diagonal(measurement.frequencies(rec))
        assert closed
        np.testing.assert_allclose(p, truth, atol=1e-12)

    def test_infeasible_falls_back(self):
        # s_xx = 1, s_yy = 0 forces p2 < 0 in the closed form.
        counts = [[500, 0, 0, 500], [250] * 4, [250] * 4, [0, 500, 500, 0], [250] * 4]
        rec = make_record(counts)
        p, closed = criteria.fit_bell_diagonal(measurement.frequencies(rec))
        assert not closed
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_fallback_beats_clipped_closed_form(self):
        rng = np.random.default_rng(8)
        seen_fallback = 0
        for seed in range(30):
            rho = families.bell_diagonal_state([0.9, 0.1, 0.0, 0.0])
            rec = measurement.simulate_record(rho, 60, seed=seed)
            try:
                freq = measurement.frequencies(rec)
            except DataError:
                continue
            p, closed = criteria.fit_bell_diagonal(freq)
            if closed:
                continue
            seen_fallback += 1
            ll = max_log_l(rec, "bell_diag")
            # The fallback must not be worse than any random feasible point.
            for _ in range(50):
                q = rng.dirichlet(np.ones(4))
                assert ll + 1e-6 >= posterior.log_likelihood(
                    rec, families.bell_diagonal_state(q)
                )
        assert seen_fallback > 0

    def test_unequal_setting_totals(self):
        # YY's 10 000 different outcomes force p2 = p3 = 0; XX (100 same)
        # and ZZ (50 same, 50 different) then share p1 = 150 / 200.
        rec = make_record(UNEQUAL_TOTALS_BD)
        freq = measurement.frequencies(rec)
        p, closed = criteria.fit_bell_diagonal(freq)
        assert not closed
        np.testing.assert_allclose(p, [0.75, 0.0, 0.0, 0.25], rtol=0, atol=1e-12)
        ll = max_log_l(rec, "bell_diag")
        random_points = np.random.default_rng(3).dirichlet(np.ones(4), 200_000)
        assert ll >= posterior.log_likelihood_vector(families.TestSet(random_points), rec).max()

    def test_closed_form_with_a_zero_weight_is_left_to_the_faces(self):
        # Same-outcome fractions 1/4, 3/4 and 1/2 invert to (0, 1/2, 1/4, 1/4)
        # exactly; only weights all > 0 are taken as the closed form, so the
        # face p_1 = 0 finds the same point.
        rec = make_record([[1, 3, 3, 1], [1] * 4, [1] * 4, [3, 1, 1, 3], [2] * 4])
        p, closed = criteria.fit_bell_diagonal(measurement.frequencies(rec))
        assert not closed
        np.testing.assert_allclose(p, [0.0, 0.5, 0.25, 0.25], rtol=0, atol=1e-15)
        report = criteria.compare(rec)
        assert report.closed_form["bell_diag"] is False
        assert report.scores["bell_diag"].log_l == -42.2684269807783

    @pytest.mark.parametrize("rec", FALLBACK_RECORDS.values(), ids=FALLBACK_RECORDS.keys())
    def test_fallback_satisfies_kkt(self, rec):
        # At a maximum over the simplex the gradient is equal on every
        # positive weight and no larger on a zero weight.
        p, _ = criteria.fit_bell_diagonal(measurement.frequencies(rec))
        grad = bell_gradient(rec, p)
        tol = 1e-12 * rec.counts.sum()
        positive = p > 0.0
        assert grad[positive].max() - grad[positive].min() <= tol
        if not positive.all():
            assert grad[~positive].max() <= grad[positive].min() + tol

    def test_face_fit_equals_vectorized_reference(self):
        # The last record's fit moves by an ulp if the root squares with pow.
        pow_sensitive = make_record([[770, 4230, 4252, 748], [2449, 2577, 2490, 2484],
                                     [2583, 2410, 2486, 2521], [44, 4932, 4980, 44],
                                     [672, 4333, 4328, 667]])
        fallbacks = 0
        for rec in [*FALLBACK_RECORDS.values(), *seeded_records(), pow_sensitive]:
            freq = measurement.frequencies(rec)
            p, closed = criteria.fit_bell_diagonal(freq)
            if not closed:
                fallbacks += 1
                assert np.array_equal(p, vectorized_face_fit(freq))
        assert fallbacks >= 100

    #: A fallback record: XX all same, YY all different, the rest even.
    HUGE_BASE = [[500, 0, 0, 500], [250] * 4, [250] * 4, [0, 500, 500, 0], [250] * 4]

    @pytest.mark.parametrize("scale", [1e152, 2.0**520, 1e300])
    def test_face_fit_past_1e154_counts(self, scale):
        # d * d and 4ab overflowed past about 1e154 shots, and the fit raised
        # ConfigError.  Scaled by a power of two the record fits to the same
        # bits; by 1e152 or 1e300, which round its counts, within an ulp.
        def fit(counts):
            rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS,
                                                counts=np.array(counts, float))
            return criteria.fit_bell_diagonal(measurement.frequencies(rec))

        expected, closed = fit(self.HUGE_BASE)
        assert not closed
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            p, closed = fit(np.multiply(self.HUGE_BASE, scale))
        assert seen == [] and not closed
        if scale == 2.0**520:
            assert np.array_equal(p, expected)
        np.testing.assert_allclose(p, expected, rtol=0, atol=2.3e-16)

    def test_compare_past_1e154_counts_under_warnings_as_errors(self):
        script = ("import numpy as np\n"
                  "from entchar import criteria, measurement\n"
                  f"counts = np.array({self.HUGE_BASE}, float) * 1e152\n"
                  "rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS,"
                  " counts=counts)\n"
                  "print(criteria.compare(rec).closed_form['bell_diag'])\n")
        src = str(Path(criteria.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONWARNINGS": "error",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_log_l_matches_state_likelihood(self):
        for seed in range(5):
            rec = measurement.simulate_record(
                families.bell_diagonal_state([0.4, 0.3, 0.2, 0.1]), 400, seed=seed
            )
            freq = measurement.frequencies(rec)
            p, _ = criteria.fit_bell_diagonal(freq)
            assert max_log_l(rec, "bell_diag") == pytest.approx(
                posterior.log_likelihood(rec, families.bell_diagonal_state(p)), abs=1e-9
            )


class TestFitTwoParam:
    def test_recovers_exact_parameters(self):
        p_true, sigma = 0.6, 0.5
        b_true = p_true * families.coherence_factor(sigma)
        rec = exact_record(families.two_param_state(p_true, sigma), 1000)
        p, b, closed = criteria.fit_two_param(measurement.frequencies(rec))
        assert closed
        assert p == pytest.approx(p_true, abs=1e-12)
        assert b == pytest.approx(b_true, abs=1e-12)

    def test_constraint_activates(self):
        # Perfect XX/YY correlations with a weak ZZ signal demand b > p,
        # which the family cannot express; the fit lands on b = p.
        counts = [[500, 0, 0, 500], [250] * 4, [250] * 4, [0, 500, 500, 0],
                  [300, 200, 200, 300]]
        rec = make_record(counts)
        p, b, closed = criteria.fit_two_param(measurement.frequencies(rec))
        assert not closed
        assert b == pytest.approx(p, abs=1e-12)
        assert 0.0 <= p <= 1.0

    def test_against_brute_force_grid(self):
        for seed in range(8):
            rho = families.reference_mixture("rho1") if seed % 2 else families.rho_k_state(0.7)
            rec = measurement.simulate_record(rho, 300, seed=seed)
            freq = measurement.frequencies(rec)
            p, b, _ = criteria.fit_two_param(freq)
            ll = max_log_l(rec, "two_param")
            assert ll >= fine_grid_max(rec) - 1e-9
            assert ll == pytest.approx(float(two_param_log_l_oracle(rec, p, b)), abs=1e-9)

    def test_unequal_setting_totals_against_fine_grid(self):
        # b pools XX and YY by shots: (90 + 5500 - 10 - 4500) / 10 100.
        rec = make_record(UNEQUAL_TOTALS_TP)
        freq = measurement.frequencies(rec)
        p, b, closed = criteria.fit_two_param(freq)
        assert closed
        assert p == pytest.approx(0.6, abs=1e-12)
        assert b == pytest.approx(1080 / 10100, abs=1e-12)
        ll = max_log_l(rec, "two_param")
        assert ll == pytest.approx(float(two_param_log_l_oracle(rec, p, b)), abs=1e-9)
        assert ll >= fine_grid_max(rec) - 1e-9
        assert criteria.compare(rec).winner_aic != "full"

    def test_constraint_face_pools_all_settings(self):
        # b > p unconstrained; on b = p the ZZ counts join the pooled XX/YY counts.
        rec = make_record(
            [[90, 10, 10, 90], [25] * 4, [25] * 4, [10, 90, 90, 10], [300, 200, 200, 300]])
        freq = measurement.frequencies(rec)
        p, b, closed = criteria.fit_two_param(freq)
        assert not closed and p == b
        assert p == pytest.approx((180 + 180 + 600 - 20 - 20 - 400) / 1400, abs=1e-12)
        assert max_log_l(rec, "two_param") >= fine_grid_max(rec) - 1e-9

    def test_rounding_level_b_past_p_is_returned_as_p(self):
        # 2**53 ZZ same outcomes and one different put p one ulp below 1,
        # XX and YY put b at 1: b > p by rounding, where the Bell weight
        # (1 - p)/4 + (p - b)/2 would be negative and fail the simplex rule.
        rec = make_record([[5, 0, 0, 5], [1] * 4, [1] * 4, [0, 5, 5, 0], [2**53, 1, 0, 0]])
        p, b, closed = criteria.fit_two_param(measurement.frequencies(rec))
        assert closed and p == b == np.nextafter(1.0, 0.0)
        assert families.two_param_bell_weights(p, b).min() >= 0.0
        assert criteria.compare(rec).closed_form["two_param"]

    @pytest.mark.parametrize("counts", [
        [[5, 0, 0, 5], [1] * 4, [1] * 4, [0, 5, 5, 0], [2**54, 1, 0, 0]],
        [[5, 0, 0, 5], [1] * 4, [1] * 4, [0, 5, 5, 0], [2**55, 1, 0, 0]],
        [[5, 0, 0, 5], [1] * 4, [1] * 4, [0, 5, 5, 0], [2**60, 0, 1, 2**60]],
        [[2**55, 1, 0, 0], [1] * 4, [1] * 4, [0, 5, 5, 0], [5, 0, 0, 5]],
    ], ids=["zz-2**54", "zz-2**55", "zz-2**60", "xx-2**55"])
    def test_estimate_rounding_to_one_keeps_the_observed_outcomes_possible(self, counts):
        # One ZZ (or XX) different outcome is too few for a float p (or b)
        # to resolve: (s - d)/(s + d) rounds to 1, where (1 - p)/2 = 0 (or
        # (1 - b)/2 = 0).  The fit takes the largest float below 1 instead,
        # so log L is finite and, to the rounding of sums near 1e16, no
        # higher than the Bell-diagonal fit's.
        rec = make_record(counts)
        p, b, closed = criteria.fit_two_param(measurement.frequencies(rec))
        assert closed and b == np.nextafter(1.0, 0.0) and p >= b
        report = criteria.compare(rec)
        l_full, l_bd, l_tp = (report.scores[m].log_l for m in ("full", "bell_diag", "two_param"))
        assert np.isfinite(l_tp)
        rounding = 1e-14 * abs(l_tp)  # as in tests/test_fit_properties.py
        assert l_full >= l_bd - rounding and l_bd >= l_tp - rounding

    def test_log_l_matches_state_likelihood(self):
        for seed in range(5):
            rec = measurement.simulate_record(families.two_param_state(0.5, 0.7), 400, seed=seed)
            freq = measurement.frequencies(rec)
            p, b, _ = criteria.fit_two_param(freq)
            assert max_log_l(rec, "two_param") == pytest.approx(
                posterior.log_likelihood(
                    rec, families.bell_diagonal_state(families.two_param_bell_weights(p, b)[0])),
                abs=1e-9,
            )


class TestScore:
    def test_simple_values(self):
        s = criteria.score(0.0, 2, int(round(np.e**2)))
        assert s.omega_aic == pytest.approx(-2.0)
        assert s.omega_bic == pytest.approx(-np.log(int(round(np.e**2))))

    def test_reference_values(self):
        s = criteria.score(-100.0, 11, 5000)
        assert type(s.omega_aic) is float and type(s.omega_bic) is float
        assert s.omega_aic == pytest.approx(-111.0)
        assert s.omega_bic == pytest.approx(-100.0 - 11 * LN(5000) / 2)
        s = criteria.score(-100.0, 3, 5000)
        assert s.omega_aic == pytest.approx(-103.0)
        assert s.omega_bic == pytest.approx(-100.0 - 3 * LN(5000) / 2)

    def test_shot_total_past_int64(self):
        # Expected counts of 1e19 shots per setting total 5e19 > int64 max;
        # the log of that Python int is taken as a float, as for smaller ones.
        rec = exact_record(families.two_param_state(0.4, 0.4), 1e19)
        report = criteria.compare(rec)
        assert {s.n_m for s in report.scores.values()} == {5 * 10**19}
        for s in report.scores.values():
            assert s.omega_bic == s.log_l - s.k * np.log(5e19) / 2.0
        top = np.iinfo(np.int64).max
        assert criteria.score(0.0, 2, top).omega_bic == -np.log(np.int64(top))

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            criteria.score(0.0, 2, 0)
        with pytest.raises(ConfigError):
            criteria.score(0.0, -1, 100)
        with pytest.raises(ConfigError):
            criteria.score(0.0, 1.5, 100)
        with pytest.raises(ConfigError):
            criteria.score(0.0, 2, 100.0)


class TestNesting:
    def test_likelihood_ordering(self):
        # two-param states are Bell-diagonal; Bell-diagonal states are
        # physical states: maximum likelihoods must be ordered accordingly.
        sources = [
            families.rho_k_state(0.6),
            families.reference_mixture("rho1"),
            families.two_param_state(0.4, 0.4),
            families.bell_diagonal_state([0.5, 0.3, 0.1, 0.1]),
        ]
        for seed, rho in enumerate(sources):
            rec = measurement.simulate_record(rho, 500, seed=seed)
            freq = measurement.frequencies(rec)
            l_full = criteria.log_l_full_bound(freq)
            l_bd = max_log_l(rec, "bell_diag")
            l_tp = max_log_l(rec, "two_param")
            assert l_full >= l_bd - 1e-9
            assert l_bd >= l_tp - 1e-9

    def test_clipped_closed_form_that_excludes_an_observed_outcome(self):
        # ZZ's 2**53 + 1 shots round to 2**53 as a float, so the closed form
        # reads ZZ's same fraction as 1 and gives p = (1, 0, 0, 0), under
        # which ZZ's one different outcome has probability 0; the faces hold
        # the maximum, which two_param must not beat.
        rec = make_record([[5, 0, 0, 5], [1, 1, 1, 1], [1, 1, 1, 1], [0, 5, 5, 0],
                           [2**53, 1, 0, 0]])
        report = criteria.compare(rec)
        l_full, l_bd, l_tp = (report.scores[m].log_l for m in ("full", "bell_diag", "two_param"))
        assert report.closed_form["bell_diag"] is False
        assert np.isfinite(l_bd)
        assert l_full >= l_bd >= l_tp


class TestCompare:
    def test_deltas_consistent_with_scores(self):
        rec = measurement.simulate_record(families.rho_k_state(0.8), 1000, seed=2)
        report = criteria.compare(rec)
        s = report.scores
        assert report.delta_omega == pytest.approx(
            s["two_param"].omega_aic - s["full"].omega_aic
        )
        assert report.delta_omega_bd == pytest.approx(
            s["bell_diag"].omega_aic - s["full"].omega_aic
        )
        assert report.delta_omega_primed == pytest.approx(
            s["two_param"].omega_bic - s["full"].omega_bic
        )
        assert s["full"].n_m == 5000

    def test_delta_invariant_to_shared_offset(self):
        # Dropping the multinomial coefficient shifts every log L by the
        # same constant, so score differences are unaffected.
        rec = measurement.simulate_record(families.rho_k_state(0.8), 1000, seed=2)
        report = criteria.compare(rec)
        off = 123.456
        shifted = criteria.score(report.scores["two_param"].log_l + off, 2, 5000)
        base = criteria.score(report.scores["full"].log_l + off, 11, 5000)
        assert shifted.omega_aic - base.omega_aic == pytest.approx(report.delta_omega, abs=1e-9)

    def test_two_param_wins_on_its_own_exact_data(self):
        rec = exact_record(families.two_param_state(0.4, 0.4), 1000)
        report = criteria.compare(rec)
        assert report.winner_aic == "two_param"
        assert report.winner_bic == "two_param"
        assert report.delta_omega == pytest.approx(9.0, abs=1e-9)

    def test_missing_setting(self):
        rec = measurement.MeasurementRecord(
            settings=((1, 1), (1, 2), (2, 1), (2, 2)), counts=np.full((4, 4), 5)
        )
        with pytest.raises(DataError):
            criteria.compare(rec)

    def test_record_below_one_shot_is_data_error(self):
        # Twenty expected counts of 0.02 total 0.4 shots, which round to no
        # shot for BIC: the record is at fault, not an argument.
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS,
                                            counts=np.full((5, 4), 0.02))
        with pytest.raises(DataError, match=r"^record counts total 0\.4"):
            criteria.compare(rec)


class TestExactFrequencyReference:
    """Model comparison on exact (expected) frequencies reproduces the
    published behavior of the rho_k family and the rho1/rho2 mixtures."""

    @pytest.mark.parametrize(
        "k,delta,delta_primed",
        [
            (0.9, 7.2, 36.0),
            (0.8, 0.9, 30.0),
            (0.7, -11.0, 18.0),
            (0.6, -29.0, 0.8),
            (0.5, -53.0, -24.0),
        ],
    )
    def test_rho_k_table(self, k, delta, delta_primed):
        report = criteria.compare(exact_record(families.rho_k_state(k), 1000))
        assert report.delta_omega == pytest.approx(delta, abs=1.0)
        assert report.delta_omega_primed == pytest.approx(delta_primed, abs=1.0)

    def test_rho_k_deltas_decrease_with_k(self):
        deltas = [
            criteria.compare(exact_record(families.rho_k_state(k), 1000)).delta_omega
            for k in (0.9, 0.8, 0.7, 0.6, 0.5)
        ]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_rho1(self):
        report = criteria.compare(exact_record(families.reference_mixture("rho1"), 1000))
        assert report.delta_omega == pytest.approx(-462.0, abs=1.0)
        assert report.delta_omega_primed == pytest.approx(-433.0, abs=1.0)
        assert report.delta_omega_bd == pytest.approx(2.4, abs=0.5)
        assert report.delta_omega_bd_primed == pytest.approx(27.0, abs=2.0)
        assert report.winner_aic == "bell_diag"
        assert report.winner_bic == "bell_diag"

    def test_rho1_reports_rounded_shot_total(self):
        # The expected counts sum to 4999.999999999999; BIC must use ln 5000.
        rec = exact_record(families.reference_mixture("rho1"), 1000)
        report = criteria.compare(rec)
        assert {s.n_m for s in report.scores.values()} == {5000}
        full = report.scores["full"]
        assert full.omega_bic == pytest.approx(full.log_l - 11 * np.log(5000) / 2, abs=1e-9)

    def test_rho2_strongly_disfavors_two_param(self):
        report = criteria.compare(exact_record(families.reference_mixture("rho2"), 1000))
        assert report.delta_omega < -100.0

import json

import numpy as np
import pytest

from entchar import families, linalg, measurement, posterior
from entchar.errors import ConfigError, DataError

IDENTITY4 = np.eye(4) / 4.0
#: I/4 + X (x) Z / 2: eigenvalues -1/4, -1/4, 3/4, 3/4, yet each of the 20
#: outcomes of the default settings has probability 1/4.
HIDDEN_NEGATIVE = IDENTITY4 + 0.5 * np.kron(linalg.PAULI_X, linalg.PAULI_Z)


class TestSpinProjector:
    def test_z_plus(self):
        np.testing.assert_allclose(measurement.spin_projector(3, 1), np.diag([1.0, 0.0]))

    def test_completeness(self):
        for axis in (1, 2, 3):
            np.testing.assert_allclose(
                measurement.spin_projector(axis, 1) + measurement.spin_projector(axis, -1),
                np.eye(2),
                atol=1e-15,
            )

    def test_y_plus(self):
        np.testing.assert_allclose(
            measurement.spin_projector(2, 1),
            np.array([[0.5, -0.5j], [0.5j, 0.5]]),
            atol=1e-15,
        )

    def test_idempotent(self):
        for axis in (1, 2, 3):
            for sign in (1, -1):
                p = measurement.spin_projector(axis, sign)
                assert np.max(np.abs(p @ p - p)) < 1e-14

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            measurement.spin_projector(4, 1)
        with pytest.raises(ConfigError):
            measurement.spin_projector(1, 0)

    @pytest.mark.parametrize("axis, sign", [
        (True, 1), (False, 1), (np.bool_(True), 1), (1, True), (1, np.bool_(True)), (2, False),
    ])
    def test_bool_is_neither_axis_nor_sign(self, axis, sign):
        with pytest.raises(ConfigError):
            measurement.spin_projector(axis, sign)


class TestOutcomeProbabilities:
    def test_maximally_mixed_is_uniform(self):
        for setting in measurement.DEFAULT_SETTINGS:
            np.testing.assert_allclose(
                measurement.outcome_probabilities(IDENTITY4, setting), [0.25] * 4, atol=1e-14
            )

    def test_bell_state_xx_perfectly_correlated(self):
        probs = measurement.outcome_probabilities(families.bell_state(1), (1, 1))
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-14)

    def test_two_param_xx_formula(self):
        pc = 0.4 * families.coherence_factor(0.4)
        probs = measurement.outcome_probabilities(families.two_param_state(0.4, 0.4), (1, 1))
        expected = [0.25 + pc / 4, 0.25 - pc / 4, 0.25 - pc / 4, 0.25 + pc / 4]
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_valid_distribution_for_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            for setting in measurement.DEFAULT_SETTINGS:
                probs = measurement.outcome_probabilities(rho, setting)
                assert probs.min() >= 0.0
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unphysical_matrices_raise_typed_errors(self):
        # Typed errors, not asserts, so the checks survive `python -O`.
        not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ConfigError, match="minimum eigenvalue"):
            measurement.outcome_probabilities(not_psd, (3, 3))
        with pytest.raises(ConfigError, match="trace"):
            measurement.outcome_probabilities(0.5 * IDENTITY4, (3, 3))


class TestSimulateRecord:
    def test_rejects_non_state_with_valid_outcome_probabilities(self):
        with pytest.raises(ConfigError, match="minimum eigenvalue"):
            measurement.simulate_record(HIDDEN_NEGATIVE, 1000, 0)

    @pytest.mark.parametrize("shots", [1.5, True, -1, 2**62, np.float64(3.0)])
    def test_bad_shots(self, shots):
        with pytest.raises(ConfigError, match="shots per setting must be an integer"):
            measurement.simulate_record(IDENTITY4, shots, 0)

    def test_shots_at_the_bound_save_and_load(self, tmp_path):
        shots = np.int64(np.iinfo(np.int64).max // len(measurement.DEFAULT_SETTINGS))
        rec = measurement.simulate_record(IDENTITY4, shots, np.uint8(3))
        assert rec.meta["shots_per_setting"] == int(shots) and type(rec.meta["seed"]) is int
        path = tmp_path / "rec.json"
        measurement.save_record(rec, path)
        loaded = measurement.load_record(path)
        assert np.array_equal(loaded.counts, rec.counts)
        assert loaded.meta == rec.meta

    def test_impossible_outcomes_never_drawn(self):
        rec = measurement.simulate_record(families.bell_state(1), 100, seed=17)
        xx = rec.counts[0]
        assert xx[1] == 0 and xx[2] == 0
        assert xx.sum() == 100

    def test_deterministic(self):
        rho = families.two_param_state(0.4, 0.4)
        a = measurement.simulate_record(rho, 500, seed=9)
        b = measurement.simulate_record(rho, 500, seed=9)
        assert np.array_equal(a.counts, b.counts)
        c = measurement.simulate_record(rho, 500, seed=10)
        assert not np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "fractional", "bool"])
    def test_bad_seed(self, seed):
        # The simplex prior's seed rule: a typed error, never numpy's own
        # ValueError/TypeError, and no bool written into the record's meta.
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            measurement.simulate_record(families.bell_state(1), 10, seed)

    def test_frequencies_converge(self):
        # 20 seeded trials at 1e5 shots: every frequency within 5 binomial
        # standard deviations of its probability.
        rho = families.two_param_state(0.4, 0.4)
        n = 100_000
        probs = np.array(
            [measurement.outcome_probabilities(rho, s) for s in measurement.DEFAULT_SETTINGS]
        )
        bound = 5.0 * np.sqrt(probs * (1.0 - probs) / n)
        for seed in range(20):
            rec = measurement.simulate_record(rho, n, seed=seed)
            assert np.all(np.abs(rec.counts / n - probs) <= bound)

    def test_total_count(self):
        rec = measurement.simulate_record(IDENTITY4, 400, seed=1)
        assert rec.n_total == 5 * 400
        assert rec.meta["shots_per_setting"] == 400


class TestFrequencies:
    def test_arithmetic(self):
        rec = measurement.MeasurementRecord(
            settings=measurement.DEFAULT_SETTINGS,
            counts=np.array([[25, 25, 25, 25], [50, 0, 0, 50], [30, 20, 10, 40],
                             [10, 10, 10, 10], [1, 1, 1, 1]]),
        )
        freq = measurement.frequencies(rec)
        np.testing.assert_allclose(freq.freqs[0], [0.25] * 4)
        np.testing.assert_allclose(freq.freqs[1], [0.5, 0.0, 0.0, 0.5])
        np.testing.assert_allclose(freq.freqs[2], [0.3, 0.2, 0.1, 0.4])
        np.testing.assert_array_equal(freq.counts.sum(axis=1), [100, 100, 100, 40, 4])
        np.testing.assert_allclose(freq.counts, rec.counts, rtol=1e-15)

    def test_counts_are_the_records_own(self):
        # (c / 400) * 400 != c for c = 7 and 29, so counts recomputed from
        # the frequencies would be off by an ulp.
        counts = np.array([[7, 193, 193, 7], [100] * 4, [100] * 4, [29, 171, 171, 29],
                           [200, 0, 0, 200]])
        assert not np.array_equal(counts / 400 * 400, counts)
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)
        freq = measurement.frequencies(rec)
        assert np.array_equal(freq.counts, rec.counts)

    def test_same_different_counts(self):
        rec = measurement.MeasurementRecord(
            settings=measurement.DEFAULT_SETTINGS,
            counts=np.array([[30, 20, 10, 40], [9, 9, 9, 9], [9, 9, 9, 9],
                             [1, 2, 3, 4], [5, 0, 7, 0]]),
        )
        same, diff = posterior.same_different_counts(rec)
        np.testing.assert_array_equal(same, [70, 5, 5])
        np.testing.assert_array_equal(diff, [30, 5, 7])
        f_same, f_diff = posterior.same_different_counts(measurement.frequencies(rec))
        np.testing.assert_allclose(f_same, same, rtol=1e-15)
        np.testing.assert_allclose(f_diff, diff, rtol=1e-15)

    def test_empty_setting(self):
        rec = measurement.MeasurementRecord(
            settings=((1, 1), (3, 3)), counts=np.array([[1, 0, 0, 0], [0, 0, 0, 0]])
        )
        with pytest.raises(DataError):
            measurement.frequencies(rec)


class TestRecordRule:
    """Every MeasurementRecord, however it is built, has one or more settings,
    each a pair of integer axes in 1..3, one row of 4 counts per setting and
    finite counts >= 0."""

    @pytest.mark.parametrize("settings, counts", [
        *[(measurement.DEFAULT_SETTINGS, counts) for counts in [
            [[1, 2, 3, -3]] * 5,
            np.ones((5, 3), dtype=int),
            np.ones((4, 4), dtype=int),
            [[1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4]],
            [[1.0, 2.0, np.nan, 4.0]] * 5,
            [[1.0, 2.0, np.inf, 4.0]] * 5,
            np.ones((5, 4), dtype=bool),
            [["1", "2", "3", "4"]] * 5,
            np.full((5, 4), 2**61),
            np.full((5, 4), 2**63, dtype=np.uint64),
            np.array([[np.iinfo(np.int64).max, 1, 0, 0]] + [[0, 0, 0, 0]] * 4),
            np.full((5, 4), 1e308),
        ]],
        (((7, 1),), [[1, 1, 1, 1]]),
        (((0, 1),), [[1, 1, 1, 1]]),
        (((True, 1),), [[1, 1, 1, 1]]),
        (((1.0, 1),), [[1, 1, 1, 1]]),
        (("ab",), [[1, 1, 1, 1]]),
        (((1, 2, 3),), [[1, 1, 1, 1]]),
        ((1, 2, 3, 4, 5), np.ones((5, 4), dtype=int)),
    ], ids=["negative", "rows_of_3", "too_few_rows", "ragged", "nan", "inf", "bool", "text",
            "int64_total_wraps", "uint64_total", "total_one_past_int64",
            "float_total_overflows", "axis_7", "axis_0",
            "bool_axis", "float_axis", "text_setting", "three_axes", "int_settings"])
    def test_rejects(self, settings, counts):
        with pytest.raises(DataError):
            measurement.MeasurementRecord(settings=settings, counts=counts)

    def test_rejects_no_settings(self):
        with pytest.raises(DataError):
            measurement.MeasurementRecord(settings=(), counts=np.empty((0, 4)))

    def test_accepts_integer_total_at_int64_max(self):
        counts = np.array([[np.iinfo(np.int64).max - 3, 1, 1, 1]] + [[0, 0, 0, 0]] * 4)
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)
        assert rec.n_total == np.iinfo(np.int64).max

    def test_settings_are_stored_as_int_pairs(self):
        rec = measurement.MeasurementRecord(settings=np.array(measurement.DEFAULT_SETTINGS),
                                            counts=np.ones((5, 4), dtype=int))
        assert rec.settings == measurement.DEFAULT_SETTINGS
        assert all(type(a) is int and type(b) is int for a, b in rec.settings)

    def test_accepts_expected_counts(self):
        counts = np.full((5, 4), 2.5)
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)
        assert rec.counts is counts


class TestChsh:
    def test_rejects_non_state(self):
        with pytest.raises(ConfigError, match="minimum eigenvalue"):
            measurement.chsh_values(HIDDEN_NEGATIVE)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(measurement.chsh_values(IDENTITY4), np.zeros(4), atol=1e-12)
        assert not measurement.chsh_violated(IDENTITY4)

    def test_bell_state_with_fixed_axes(self):
        # <XX> = 1, <YY> = -1, cross terms 0 for |Phi_1>.
        vals = measurement.chsh_values(families.bell_state(1))
        np.testing.assert_allclose(vals, [2.0, 0.0, 0.0, -2.0], atol=1e-12)
        assert not measurement.chsh_violated(families.bell_state(1))

    def test_entangled_but_no_violation(self):
        rho = families.two_param_state(0.4, 0.4)
        assert linalg.negativity(rho) > 0
        assert np.all(np.abs(measurement.chsh_values(rho)) < 2.0)
        assert not measurement.chsh_violated(rho)

    def test_linearity_in_state(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho_a = families.two_param_state(rng.random(), rng.random() * np.pi)
            rho_b = families.bell_diagonal_state(
                np.diff(np.sort(rng.random(3)), prepend=0.0, append=1.0)
            )
            lam = rng.random()
            mixed = lam * rho_a + (1.0 - lam) * rho_b
            np.testing.assert_allclose(
                measurement.chsh_values(mixed),
                lam * measurement.chsh_values(rho_a) + (1 - lam) * measurement.chsh_values(rho_b),
                atol=1e-10,
            )


class TestRecordSerialization:
    def test_roundtrip_and_schema(self, tmp_path):
        rec = measurement.simulate_record(families.two_param_state(0.3, 0.5), 200, seed=4,
                                          label="demo")
        path = tmp_path / "rec.json"
        measurement.save_record(rec, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"settings", "meta"}
        assert set(doc["settings"][0]) == {"a", "b", "counts"}
        assert doc["meta"] == {"seed": 4, "label": "demo", "shots_per_setting": 200}
        loaded = measurement.load_record(path)
        assert loaded.settings == rec.settings
        assert np.array_equal(loaded.counts, rec.counts)
        assert loaded.meta == rec.meta

    def test_non_integral_count_is_refused_and_writes_nothing(self, tmp_path):
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS,
                                            counts=np.full((5, 4), 12.5))
        path = tmp_path / "rec.json"
        with pytest.raises(DataError, match="outcome count 12.5 is not an integer"):
            measurement.save_record(rec, path)
        assert not path.exists()

    def test_non_json_meta_is_refused_and_writes_nothing(self, tmp_path):
        # The text is built before the file opens, so nothing partial is left.
        rec = measurement.simulate_record(families.bell_state(1), 10, 0, label=np.float32(1.5))
        path = tmp_path / "rec.json"
        with pytest.raises(DataError, match="meta"):
            measurement.save_record(rec, path)
        assert not path.exists()

    @pytest.mark.parametrize("counts", [
        np.arange(20, dtype=np.int64).reshape(5, 4),
        np.arange(20, dtype=float).reshape(5, 4),
    ], ids=["int64", "integral_floats"])
    def test_integer_counts_round_trip(self, tmp_path, counts):
        rec = measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS,
                                            counts=counts, meta={"label": "x"})
        path = tmp_path / "rec.json"
        measurement.save_record(rec, path)
        loaded = measurement.load_record(path)
        assert loaded.settings == rec.settings
        assert loaded.counts.dtype == np.int64
        assert np.array_equal(loaded.counts, counts)
        assert loaded.meta == rec.meta

    def test_parse_failures(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(DataError):
            measurement.load_record(bad)
        bad.write_text(json.dumps({"settings": [{"a": 1, "b": 1, "counts": [1, 2, 3]}]}))
        with pytest.raises(DataError):
            measurement.load_record(bad)
        bad.write_text(json.dumps({"settings": [{"a": 1, "b": 1, "counts": [1, 2, 3, -1]}]}))
        with pytest.raises(DataError):
            measurement.load_record(bad)

    @pytest.mark.parametrize("count", [3.7, 10**30, 2**63, True, "5"])
    def test_rejects_non_count_values(self, count):
        doc = {"settings": [{"a": 1, "b": 1, "counts": [1, 2, 3, count]}]}
        with pytest.raises(DataError):
            measurement.record_from_dict(doc)

    @pytest.mark.parametrize("axis", [2.5, float("inf"), True, "1", 7, 0])
    def test_rejects_non_integer_axes(self, axis):
        doc = {"settings": [{"a": axis, "b": 1, "counts": [1, 2, 3, 4]}]}
        with pytest.raises(DataError):
            measurement.record_from_dict(doc)

    @pytest.mark.parametrize("meta", [None, 5, "ab", [[1, 2]]])
    def test_rejects_meta_that_is_not_an_object(self, meta):
        doc = {"settings": [{"a": 1, "b": 1, "counts": [1, 2, 3, 4]}], "meta": meta}
        with pytest.raises(DataError):
            measurement.record_from_dict(doc)

    def test_rejects_total_past_int64(self):
        big = 2**62
        doc = {"settings": [{"a": 1, "b": 1, "counts": [big, big, 0, 0]}]}
        with pytest.raises(DataError):
            measurement.record_from_dict(doc)

    def test_accepts_integral_floats(self):
        doc = {"settings": [{"a": 1, "b": 1, "counts": [1.0, 2, 3, 4.0]}]}
        rec = measurement.record_from_dict(doc)
        assert rec.counts.dtype == np.int64
        assert rec.counts.tolist() == [[1, 2, 3, 4]]

"""Acceptance gate: six release criteria, one test each.

Every test prints one [PASS]/[FAIL] line per clause (bypassing capture) and
fails if any clause in its criterion fails.  Stochastic criteria use the
fixed seeds 0..19.

Criterion 5's AIC clause (Omega_Bd - Omega_a > 0 for rho1) is checked on the
expected-count record at 1000 shots per setting, where the paper states it.
The full model's log L is the entropy bound over 15 free setting frequencies,
scored with the paper's k = 11.  The bound is attained on expected counts from
a physical state but overfits sampled records by about chi2_15 / 2 = 7.5 nats,
against at most 1.5 for the Bell-diagonal fit; the net loss exceeds the 2.5-nat
exact margin, so the sampled median sits below zero by construction.  The
clause's detail line still reports that sampled median and the median bound
overfit.
"""

import numpy as np
import pytest

from entchar import criteria, families, linalg, measurement, posterior

SEEDS = range(20)


class Checker:
    def __init__(self, capsys, title):
        self.capsys = capsys
        self.title = title
        self.failures = []

    def check(self, label, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        with self.capsys.disabled():
            print(f"[{tag}] {self.title}: {label}{suffix}")
        if not ok:
            self.failures.append(f"{label}{suffix}")

    def finish(self):
        assert not self.failures, f"{self.title} failed clauses: {self.failures}"


@pytest.fixture(scope="module")
def grid600():
    return families.grid_prior_two_param(600, 600)


@pytest.fixture(scope="module")
def bell_diag_1m():
    return families.simplex_prior_bell_diagonal(1_000_000, seed=2026)


def expected_record(rho, shots_per_setting):
    """Record whose (fractional) counts equal the expected counts exactly."""
    counts = np.array([shots_per_setting * measurement.outcome_probabilities(rho, s)
                       for s in measurement.DEFAULT_SETTINGS])
    return measurement.MeasurementRecord(settings=measurement.DEFAULT_SETTINGS, counts=counts)


def characterize(ts, rho, shots, seed):
    rec = measurement.simulate_record(rho, shots, seed=seed)
    post = posterior.update_posterior(ts, rec)
    return posterior.summarize(ts, post)


def test_criterion_1_state_functionals(capsys):
    c = Checker(capsys, "criterion 1")
    rho = families.two_param_state(0.4, 0.4)
    c.check("negativity(rho_{0.4,0.4}) = 0.0843 +/- 1e-3",
            abs(linalg.negativity(rho) - 0.0843) <= 1e-3)
    c.check("purity(rho_{0.4,0.4}) = 0.3638 +/- 5e-4",
            abs(linalg.purity(rho) - 0.3638) <= 5e-4)
    c.check("purity(rho_{1/3,1/3}) = 0.3303 +/- 5e-4",
            abs(linalg.purity(families.two_param_state(1 / 3, 1 / 3)) - 0.3303) <= 5e-4)
    c.check("purity(rho_k) = 0.4375 for k in {0.5..0.9}",
            all(abs(linalg.purity(families.rho_k_state(k)) - 0.4375) < 1e-12
                for k in (0.5, 0.6, 0.7, 0.8, 0.9)))
    table = {0.9: 0.247, 0.8: 0.238, 0.7: 0.220, 0.6: 0.191, 0.5: 0.150}
    c.check("negativity(rho_k) matches reference column +/- 1e-3",
            all(abs(linalg.negativity(families.rho_k_state(k)) - n) <= 1e-3
                for k, n in table.items()))
    rho1 = families.reference_mixture("rho1")
    c.check("negativity(rho1) = 0.059 +/- 1e-3", abs(linalg.negativity(rho1) - 0.059) <= 1e-3)
    c.check("purity(rho1) = 0.502 +/- 1e-3", abs(linalg.purity(rho1) - 0.502) <= 1e-3)
    c.check("negativity(rho2) = 0.039 +/- 1e-3",
            abs(linalg.negativity(families.reference_mixture("rho2")) - 0.039) <= 1e-3)
    c.finish()


def test_criterion_2_prior_composition(capsys, grid600, bell_diag_1m):
    c = Checker(capsys, "criterion 2")
    frac_grid = float(grid600.prior_weights[~grid600.entangled].sum())
    c.check("two-param 600x600 separable fraction = 0.497 +/- 0.005",
            abs(frac_grid - 0.497) <= 0.005, f"got {frac_grid:.4f}")
    frac_bd = float(bell_diag_1m.prior_weights[~bell_diag_1m.entangled].sum())
    c.check("bell-diag 1e6 separable fraction = 0.500 +/- 0.005",
            abs(frac_bd - 0.500) <= 0.005, f"got {frac_bd:.4f}")
    c.finish()


def test_criterion_3_posterior_reproduction(capsys, grid600):
    c = Checker(capsys, "criterion 3")
    summaries = [characterize(grid600, families.two_param_state(0.4, 0.4), 400, s)
                 for s in SEEDS]
    pe = np.median([s.prob_entangled for s in summaries])
    neg = np.median([s.neg_mean for s in summaries])
    pur = np.median([s.pur_mean for s in summaries])
    c.check("median prob_entangled >= 0.95", pe >= 0.95, f"got {pe:.3f}")
    c.check("median neg_mean = 0.082 +/- 0.04", abs(neg - 0.082) <= 0.04, f"got {neg:.4f}")
    c.check("median pur_mean = 0.364 +/- 0.02", abs(pur - 0.364) <= 0.02, f"got {pur:.4f}")
    border = [characterize(grid600, families.two_param_state(1 / 3, 1 / 3), 400, s)
              for s in SEEDS]
    pe_b = np.median([s.prob_entangled for s in border])
    c.check("median prob_entangled(rho_{1/3,1/3}) in [0.25, 0.55]",
            0.25 <= pe_b <= 0.55, f"got {pe_b:.3f}")
    c.finish()


def test_criterion_4_table_trend(capsys):
    c = Checker(capsys, "criterion 4")
    ks = (0.9, 0.8, 0.7, 0.6, 0.5)
    med, med_primed = {}, {}
    for k in ks:
        reports = [criteria.compare(
            measurement.simulate_record(families.rho_k_state(k), 1000, seed=s))
            for s in SEEDS]
        med[k] = np.median([r.delta_omega for r in reports])
        med_primed[k] = np.median([r.delta_omega_primed for r in reports])
    vals = [med[k] for k in ks]
    c.check("median delta_omega strictly decreasing over k = 0.9 -> 0.5",
            all(a > b for a, b in zip(vals, vals[1:])),
            "got " + ", ".join(f"{v:.2f}" for v in vals))
    c.check("median delta_omega > 0 at k = 0.9", med[0.9] > 0, f"got {med[0.9]:.2f}")
    c.check("median delta_omega < 0 for k <= 0.7",
            all(med[k] < 0 for k in (0.7, 0.6, 0.5)))
    c.check("median delta_omega' > 0 at k = 0.9", med_primed[0.9] > 0,
            f"got {med_primed[0.9]:.2f}")
    c.check("median delta_omega' < 0 at k = 0.5", med_primed[0.5] < 0,
            f"got {med_primed[0.5]:.2f}")
    c.finish()


def test_criterion_5_mixture_model_selection(capsys, grid600, bell_diag_1m):
    c = Checker(capsys, "criterion 5")
    rho1 = families.reference_mixture("rho1")
    rho2 = families.reference_mixture("rho2")
    records = [measurement.simulate_record(rho1, 1000, seed=s) for s in SEEDS]
    reports = [criteria.compare(rec) for rec in records]
    bd_aic = np.median([r.delta_omega_bd for r in reports])
    bd_bic = np.median([r.delta_omega_bd_primed for r in reports])
    tp_aic = np.median([r.delta_omega for r in reports])
    overfit = np.median([
        criteria.log_l_full_bound(measurement.frequencies(rec))
        - posterior.log_likelihood(rec, rho1)
        for rec in records])
    bd_aic_exact = criteria.compare(expected_record(rho1, 1000)).delta_omega_bd
    c.check("rho1: (Omega_Bd - Omega_a) > 0 under AIC on the expected-count record",
            bd_aic_exact > 0,
            f"got {bd_aic_exact:.2f}; sampled median {bd_aic:.2f}, "
            f"median bound overfit log L_bound - log L(rho1) = {overfit:.2f}")
    c.check("rho1: median (Omega'_Bd - Omega'_a) > 0 under BIC", bd_bic > 0,
            f"got {bd_bic:.2f}")
    c.check("rho1: median delta_omega < -300", tp_aic < -300, f"got {tp_aic:.1f}")
    bd_sums = [characterize(bell_diag_1m, rho1, 1000, s) for s in SEEDS]
    neg = np.median([s.neg_mean for s in bd_sums])
    pur = np.median([s.pur_mean for s in bd_sums])
    c.check("rho1 bell-diag prior: median neg_mean = 0.059 +/- 0.025",
            abs(neg - 0.059) <= 0.025, f"got {neg:.4f}")
    c.check("rho1 bell-diag prior: median pur_mean = 0.498 +/- 0.01",
            abs(pur - 0.498) <= 0.01, f"got {pur:.4f}")
    tp_sums = [characterize(grid600, rho2, 1000, s) for s in SEEDS]
    pe2 = np.median([s.prob_entangled for s in tp_sums])
    pur2 = np.median([s.pur_mean for s in tp_sums])
    c.check("rho2 two-param prior: median prob_entangled < 0.15", pe2 < 0.15,
            f"got {pe2:.3f}")
    c.check("rho2 two-param prior: median pur_mean < 0.40", pur2 < 0.40,
            f"got {pur2:.3f}")
    c.finish()


def test_criterion_6_property_suite(capsys):
    c = Checker(capsys, "criterion 6")
    ts = families.grid_prior_two_param(40, 40)
    rho = families.rho_k_state(0.7)
    rec_a = measurement.simulate_record(rho, 300, seed=0)
    rec_b = measurement.simulate_record(rho, 300, seed=1)
    joint = measurement.MeasurementRecord(
        settings=measurement.DEFAULT_SETTINGS, counts=rec_a.counts + rec_b.counts
    )

    post_a = posterior.update_posterior(ts, rec_a)
    c.check("posterior normalization", abs(post_a.weights.sum() - 1.0) < 1e-10)

    seq = posterior.update_posterior(ts, rec_b, prior_weights=post_a.weights)
    batch = posterior.update_posterior(ts, joint)
    c.check("sequential-update consistency (1e-9)",
            np.max(np.abs(seq.weights - batch.weights)) < 1e-9)

    freq = measurement.frequencies(joint)
    scores = criteria.compare(joint).scores
    p_bd, _ = criteria.fit_bell_diagonal(freq)
    ok_bd = abs(
        scores["bell_diag"].log_l
        - posterior.log_likelihood(joint, families.bell_diagonal_state(p_bd))
    ) < 1e-9
    p_tp, b_tp, _ = criteria.fit_two_param(freq)
    w_tp = families.two_param_bell_weights(p_tp, b_tp)[0]
    ok_tp = abs(
        scores["two_param"].log_l
        - posterior.log_likelihood(joint, families.bell_diagonal_state(w_tp))
    ) < 1e-9
    c.check("closed-form vs direct likelihood equality (1e-9)", ok_bd and ok_tp)

    l_full = criteria.log_l_full_bound(freq)
    l_bd = scores["bell_diag"].log_l
    l_tp = scores["two_param"].log_l
    c.check("model-nesting inequality L_a >= L_Bd >= L_{p,sigma}",
            l_full >= l_bd - 1e-9 and l_bd >= l_tp - 1e-9)

    rho_bar = posterior.mean_state(ts, batch)
    c.check("N(mean_state) <= posterior mean negativity",
            linalg.negativity(rho_bar) <= float(batch.weights @ ts.negativities) + 1e-9)

    ts50 = families.grid_prior_two_param(50, 50)
    c.check("two-param analytic negativity vs eigensolver, 50x50 grid (1e-9)",
            all(abs(ts50.negativities[i] - linalg.negativity(ts50.state(i))) < 1e-9
                for i in range(ts50.n_states)))

    rng = np.random.default_rng(0)
    ok_pt = True
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        m /= np.trace(m).real
        ok_pt &= np.array_equal(linalg.partial_transpose(linalg.partial_transpose(m)), m)
    c.check("double partial transpose identity", bool(ok_pt))
    c.finish()

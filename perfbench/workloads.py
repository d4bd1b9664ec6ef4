"""The two workloads. Each one generates its inputs from a seed, runs one
op per call of `op(i)` and turns an op's output into the fields the
checks in `checks.py` compare.

Import this module only after `src/` of the checkout is on `sys.path`.
"""

import contextlib
import io
import itertools
import json

import numpy as np

from entchar import cli, criteria, families, measurement, posterior

from . import checks, inputs

#: Sources and shot counts of the records.
POSTERIOR_SOURCES = ("two-param(0.4,0.4)", "two-param(1/3,1/3)", "rho2", "rho_k(0.7)")
POSTERIOR_SHOTS = (400, 1000, 10_000)
#: rho1 is added so that model comparison also takes its fallback path.
SWEEP_SOURCES = POSTERIOR_SOURCES + ("rho1",)

BINS = 50


def _record(counts: np.ndarray) -> measurement.MeasurementRecord:
    return measurement.MeasurementRecord(settings=inputs.SETTINGS, counts=counts)


class CharacterizeBD:
    """`entchar characterize --prior bell-diag --samples 1000000`, in-process.

    One op is one whole command, so it pays for the prior and its outcome
    table every time, as every CLI call does.
    """

    name = "characterize-bd"
    stream = 1
    samples = 1_000_000

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        plan = [(src, shots, 1) for src in POSTERIOR_SOURCES for shots in POSTERIOR_SHOTS]
        records = inputs.make_records(seed, self.stream, plan)
        prior_seeds = np.random.default_rng([seed, self.stream, 1]).integers(2**31, size=len(records))
        self.inputs = []
        for j, ((src, shots, counts), prior_seed) in enumerate(zip(records, prior_seeds)):
            path = workdir / f"record-{j}.json"
            path.write_text(json.dumps(inputs.record_doc(counts, f"{src} x{shots}")))
            self.inputs.append((path, int(prior_seed)))
        self._results = itertools.count()  # one result file per call, read by the check

    def prepare(self):
        pass

    def op(self, i):
        path, prior_seed = self.inputs[i % len(self.inputs)]
        out = self.workdir / f"result-{next(self._results)}.json"
        argv = ["characterize", "--record", str(path), "--prior", "bell-diag",
                "--samples", str(self.samples), "--seed", str(prior_seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"entchar characterize exited with code {code}")
        return out

    def outcome(self, i, out):
        doc = json.loads(out.read_text())
        out.unlink()
        s = doc["summary"]
        return {
            **{f: s[f] for f in ("prob_entangled", "neg_mean", "neg_std", "pur_mean", "pur_std")},
            "separable_mass": doc["histogram"]["separable_mass"],
            "hist_mass": float(np.sum(doc["histogram"]["bin_mass"])),
            "mean_state_negativity": s["mean_state"]["negativity"],
            "mean_state_purity": s["mean_state"]["purity"],
        }

    def check(self, i, out, ref=None):
        return checks.check_posterior(self.outcome(i, out), ref)


class SweepGrid:
    """Many records against one 600x600 two-parameter grid prior.

    The prior is built, and its lazy caches filled, in set-up. One op is
    one record through the whole library analysis: update, summary,
    histogram, mean state and `criteria.compare`. rho1 records mostly take
    the Bell-diagonal fit's numerical fallback; the others the closed form.
    """

    name = "sweep-grid"
    stream = 2
    grid = (600, 600)

    def __init__(self, seed: int, workdir):
        plan = [(src, shots, 8) for src in SWEEP_SOURCES for shots in POSTERIOR_SHOTS]
        self.inputs = [_record(c) for _, _, c in inputs.make_records(seed, self.stream, plan)]
        self.prior = None
        self._oracle = {}

    def prepare(self):
        self.prior = families.grid_prior_two_param(*self.grid)
        self.op(0)  # the first update builds the prior's cached outcome table

    def op(self, i):
        ts = self.prior
        rec = self.inputs[i % len(self.inputs)]
        post = posterior.update_posterior(ts, rec)
        summary = posterior.summarize(ts, post)
        hist = posterior.histogram_negativity(ts, post.weights, BINS)
        return summary, hist, posterior.mean_state(ts, post), criteria.compare(rec)

    def outcome(self, i, out):
        s, hist, rho, report = out
        return {
            "prob_entangled": s.prob_entangled, "neg_mean": s.neg_mean, "neg_std": s.neg_std,
            "pur_mean": s.pur_mean, "pur_std": s.pur_std,
            "separable_mass": hist.separable_mass,
            "hist_mass": float(hist.bin_mass.sum()),
            "mean_state_negativity": checks.negativity(rho),
            "mean_state_purity": float(np.trace(rho @ rho).real),
            **{m: report.scores[m].log_l for m in ("full", "bell_diag", "two_param")},
            "bd_closed": bool(report.closed_form["bell_diag"]),
        }

    def oracle(self, i):
        """Per-state log-likelihood at the fitted Bell-diagonal weights, per input."""
        j = i % len(self.inputs)
        if j not in self._oracle:
            rec = self.inputs[j]
            weights, _ = criteria.fit_bell_diagonal(measurement.frequencies(rec))
            self._oracle[j] = posterior.log_likelihood(rec, families.bell_diagonal_state(weights))
        return self._oracle[j]

    def check(self, i, out, ref=None):
        res = self.outcome(i, out)
        oracle = self.oracle(i) if res["bd_closed"] else None
        return checks.check_posterior(res, ref) + checks.check_compare(res, oracle, ref)


WORKLOADS = {w.name: w for w in (CharacterizeBD, SweepGrid)}

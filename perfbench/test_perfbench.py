"""Tests of the benchmark's own code: spans, inputs and output checks."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, inputs, spans
from perfbench.spans import Span

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


# --- spans ------------------------------------------------------------------


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.covered([(5, 6), (0, 10)]) == 10.0


def test_self_time_nested_and_overlapping():
    s = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),   # child of a
        Span("c", 3.0, 6.0, 0, 0),   # child of a, overlaps b
        Span("d", 2.0, 3.0, 1, 0),   # child of b
        Span("e", 9.0, 12.0, 0, 0),  # child of a, runs past its end
    ]
    # a: 10 - |[1,6] u [9,10]| = 4; b: 3 - 1; c, d, e have no children.
    assert spans.self_times(s) == [4.0, 2.0, 3.0, 1.0, 3.0]
    totals = spans.layer_totals(s + [Span("d", 20.0, 21.5, None, 1)])
    assert totals["d"] == [2, 2.5, 2.5]


def _fake_module():
    mod = types.ModuleType("fakemod")
    exec(
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n"
        "def inner(x):\n"
        "    return [x]\n"
        "def _private(x):\n"
        "    return x\n"
        "class Thing:\n"
        "    def work(self):\n"
        "        return outer(1), False\n",
        mod.__dict__,
    )
    return mod


def test_tracer_records_nested_calls_and_restores():
    mod = _fake_module()
    originals = (mod.outer, mod.inner, mod._private, mod.Thing.work)
    tracer = spans.Tracer()
    tracer.install([mod], suffix={"fakemod.Thing.work": lambda r: ".no" if not r[1] else ".yes"},
                   sized={"fakemod.inner"})
    assert mod._private is originals[2]
    assert mod.outer([]) == [[], []]
    assert tracer.spans == []  # installed but not enabled
    tracer.enabled = True
    tracer.op = 7
    mod.Thing().work()
    names = [s.name for s in tracer.spans]
    assert names == ["fakemod.Thing.work.no", "fakemod.outer", "fakemod.inner", "fakemod.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert {s.op for s in tracer.spans} == {7}
    assert [s.size for s in tracer.spans] == [None, None, 1, 1]
    assert all(s.end >= s.start for s in tracer.spans)
    tracer.uninstall()
    assert (mod.outer, mod.inner, mod._private, mod.Thing.work) == originals


# --- inputs -------------------------------------------------------------------


PLAN = [("rho1", 1000, 3), ("two-param(0.4,0.4)", 400, 2)]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = inputs.make_records(5, 1, PLAN)
    b = inputs.make_records(5, 1, PLAN)
    c = inputs.make_records(6, 1, PLAN)
    assert [(s, n) for s, n, _ in a] == [("rho1", 1000), ("two-param(0.4,0.4)", 400)] * 2 + [("rho1", 1000)]
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(a, b))
    assert not all(np.array_equal(x[2], y[2]) for x, y in zip(a, c))
    assert all(x[2].shape == (5, 4) and (x[2].sum(axis=1) == x[1]).all() for x in a)


def test_input_states_match_the_program_families():
    from entchar import families, measurement

    assert inputs.coherence(0.4) == pytest.approx(families.coherence_factor(0.4), abs=1e-12)
    pairs = [
        (inputs.two_param(1 / 3, 1 / 3), families.two_param_state(1 / 3, 1 / 3)),
        (inputs.rho_k(0.7), families.rho_k_state(0.7)),
        (inputs.reference_mixture(0.9), families.reference_mixture("rho1")),
    ]
    for ours, theirs in pairs:
        np.testing.assert_allclose(ours, theirs, atol=1e-12)
        expected = [measurement.outcome_probabilities(theirs, s) for s in inputs.SETTINGS]
        np.testing.assert_allclose(inputs.outcome_probs(ours), expected, atol=1e-12)


# --- checks -------------------------------------------------------------------

POSTERIOR_REF = REFERENCE["sweep-grid"][0]
CLOSED_REF = next(r for r in REFERENCE["sweep-grid"] if r["bd_closed"])
FALLBACK_REF = next(r for r in REFERENCE["sweep-grid"] if not r["bd_closed"])


def test_checks_pass_reference_values():
    assert checks.check_posterior(dict(POSTERIOR_REF), POSTERIOR_REF) == []
    assert checks.check_compare(dict(CLOSED_REF), CLOSED_REF["bell_diag"], CLOSED_REF) == []
    assert checks.check_compare(dict(FALLBACK_REF), None, FALLBACK_REF) == []
    better = dict(FALLBACK_REF, bell_diag=FALLBACK_REF["bell_diag"] + 0.5)
    assert checks.check_compare(better, None, FALLBACK_REF) == []


@pytest.mark.parametrize("field", checks.POSTERIOR_FIELDS)
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_posterior_reference_rejects_perturbation(field, delta):
    out = dict(POSTERIOR_REF, **{field: POSTERIOR_REF[field] + delta})
    assert checks.check_posterior(out, POSTERIOR_REF)


@pytest.mark.parametrize("out", [
    dict(POSTERIOR_REF, prob_entangled=1 + 1e-6, separable_mass=-1e-6, hist_mass=1 + 1e-6),
    dict(POSTERIOR_REF, prob_entangled=-1e-6, separable_mass=1 + 1e-6, hist_mass=-1e-6),
    dict(POSTERIOR_REF, separable_mass=POSTERIOR_REF["separable_mass"] + 1e-6),
    dict(POSTERIOR_REF, hist_mass=POSTERIOR_REF["hist_mass"] + 1e-6),
    dict(POSTERIOR_REF, mean_state_negativity=POSTERIOR_REF["neg_mean"] + 1e-6),
])
def test_posterior_invariants_reject_perturbation(out):
    assert checks.check_posterior(out)


def test_compare_nesting_rejects_perturbation():
    full = CLOSED_REF["full"]
    assert checks.check_compare(dict(CLOSED_REF, bell_diag=full + 1e-6))
    bd = CLOSED_REF["bell_diag"]
    assert checks.check_compare(dict(CLOSED_REF, two_param=bd + 1e-6))


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_compare_oracle_rejects_perturbation(delta):
    assert checks.check_compare(dict(CLOSED_REF), CLOSED_REF["bell_diag"] + delta)
    # Only closed-form fits are compared with the oracle.
    assert checks.check_compare(dict(FALLBACK_REF), FALLBACK_REF["bell_diag"] + delta) == []


@pytest.mark.parametrize("field", ["full", "bell_diag", "two_param"])
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_compare_reference_rejects_perturbation(field, delta):
    assert checks.check_compare(dict(CLOSED_REF, **{field: CLOSED_REF[field] + delta}), None, CLOSED_REF)


def test_compare_reference_rejects_lower_fallback_optimum():
    worse = dict(FALLBACK_REF, bell_diag=FALLBACK_REF["bell_diag"] - 1e-6)
    assert checks.check_compare(worse, None, FALLBACK_REF)


def test_sweep_grid_ops_match_reference(tmp_path):
    from perfbench import workloads

    wl = workloads.SweepGrid(REFERENCE["seed"], tmp_path)
    wl.prepare()
    ref = REFERENCE["sweep-grid"]
    fallback = next(i for i, r in enumerate(ref) if not r["bd_closed"])
    for i in (1, fallback):
        assert wl.check(i, wl.op(i), ref[i]) == []

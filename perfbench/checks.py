"""Output checks. Each returns a list of failure messages; empty means passed.

Reference values were recorded from the program at the default seed and
must match to within `TOL`. The invariants hold at every seed.
"""

import numpy as np

TOL = 1e-9

#: Fields of a posterior result compared against the reference.
POSTERIOR_FIELDS = (
    "prob_entangled", "neg_mean", "neg_std", "pur_mean", "pur_std",
    "separable_mass", "mean_state_negativity", "mean_state_purity",
)


def negativity(rho: np.ndarray) -> float:
    """||rho^{T_B}||_1 - 1, computed here rather than by the program."""
    pt = np.asarray(rho).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    evals = np.linalg.eigvalsh(pt)
    return -2.0 * float(evals[evals < 0].sum())


def _against_reference(out: dict, ref: dict, fields) -> list:
    return [
        f"{f} = {out[f]!r}, reference {ref[f]!r}"
        for f in fields
        if not abs(out[f] - ref[f]) <= TOL
    ]


def check_posterior(out: dict, ref: dict | None = None) -> list:
    """Posterior summary: masses consistent, convexity bound, reference."""
    errors = []
    p = out["prob_entangled"]
    if not -TOL <= p <= 1.0 + TOL:
        errors.append(f"prob_entangled = {p!r} outside [0, 1]")
    if not abs(p + out["separable_mass"] - 1.0) <= TOL:
        errors.append(f"prob_entangled + separable_mass = {p + out['separable_mass']!r}, not 1")
    if not abs(out["hist_mass"] - p) <= TOL:
        errors.append(f"histogram mass {out['hist_mass']!r} differs from prob_entangled {p!r}")
    if not out["mean_state_negativity"] <= out["neg_mean"] + TOL:
        errors.append(
            f"mean-state negativity {out['mean_state_negativity']!r} exceeds "
            f"neg_mean {out['neg_mean']!r}"
        )
    if ref is not None:
        errors += _against_reference(out, ref, POSTERIOR_FIELDS)
    return errors


def check_compare(out: dict, oracle_bd: float | None = None, ref: dict | None = None) -> list:
    """Model comparison: nesting, the per-state oracle, reference.

    `out` holds the three maximum log-likelihoods (`full`, `bell_diag`,
    `two_param`) and `bd_closed`, the Bell-diagonal fit's closed-form flag.
    `oracle_bd` is the per-state log-likelihood at the fitted weights,
    compared only on closed-form records. On records whose reference fit
    fell back to a numerical search, a higher Bell-diagonal optimum than
    the reference passes.
    """
    errors = []
    full, bd, tp = out["full"], out["bell_diag"], out["two_param"]
    if not bd <= full + TOL:
        errors.append(f"L_bell_diag {bd!r} exceeds L_full {full!r}")
    if not tp <= bd + TOL:
        errors.append(f"L_two_param {tp!r} exceeds L_bell_diag {bd!r}")
    if out["bd_closed"] and oracle_bd is not None and not abs(bd - oracle_bd) <= TOL:
        errors.append(f"L_bell_diag {bd!r} differs from the per-state oracle {oracle_bd!r}")
    if ref is not None:
        errors += _against_reference(out, ref, ("full", "two_param"))
        if ref["bd_closed"]:
            errors += _against_reference(out, ref, ("bell_diag",))
        elif not bd >= ref["bell_diag"] - TOL:
            errors.append(f"L_bell_diag {bd!r} below the reference optimum {ref['bell_diag']!r}")
    return errors

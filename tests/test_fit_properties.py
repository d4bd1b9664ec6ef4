"""Property tests of the restricted model fits on arbitrary five-setting records.

``criteria.fit_bell_diagonal`` reports ``closed_form`` exactly when the
closed form's four inverted weights are all > 0, and the maximum
likelihoods ``criteria.compare`` scores are finite and nested,
L_full >= L_Bd >= L_{p,sigma} to the rounding of their sums, for any
counts, zeros and huge ones included.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from entchar import criteria, measurement, posterior  # noqa: E402

#: Counts that are often 0, so that the inverted weights often sit on a
#: face of the simplex or past it, and now and then too large for a float
#: fraction to resolve one shot.
counts = st.integers(0, 6) | st.integers(0, 1000) | st.integers(2**50, 2**58)
rows = st.lists(counts, min_size=4, max_size=4).filter(lambda row: sum(row) > 0)


def inverted_weights(rec):
    """The Bell weights that invert the XX, YY and ZZ same-outcome fractions."""
    same, diff = posterior.same_different_counts(rec)
    s_xx, s_yy, s_zz = same / (same + diff)
    return np.array([(s_xx - s_yy + s_zz) / 2.0, (-s_xx + s_yy + s_zz) / 2.0,
                     (s_xx + s_yy - s_zz) / 2.0, 1.0 - (s_xx + s_yy + s_zz) / 2.0])


@given(st.lists(rows, min_size=5, max_size=5))
@settings(max_examples=400, deadline=None)
def test_closed_form_iff_positive_weights_and_nesting(table):
    rec = measurement.MeasurementRecord(measurement.DEFAULT_SETTINGS, np.array(table))
    weights, closed = criteria.fit_bell_diagonal(measurement.frequencies(rec))
    assert closed == bool((inverted_weights(rec) > 0.0).all())
    assert weights.min() >= 0.0
    report = criteria.compare(rec)
    assert report.closed_form["bell_diag"] is closed
    l_full, l_bd, l_tp = (report.scores[m].log_l for m in ("full", "bell_diag", "two_param"))
    assert np.isfinite([l_full, l_bd, l_tp]).all()
    # Each log L is a float sum of at most 20 terms of one sign, so it is
    # exact to 20 eps |L| < 5e-15 |L|: at 2**50 shots and more two maxima
    # that agree to the last bit of their sums may round an ulp apart.
    rounding = 1e-14 * abs(l_tp)
    assert l_full >= l_bd - rounding and l_bd >= l_tp - rounding

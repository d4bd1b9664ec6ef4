"""Property tests: no record document, state parameter or integer argument,
however malformed, ends in a traceback.

``record_from_dict`` either returns a record or raises DataError,
and ``entchar compare`` and ``entchar characterize`` (on small priors) on
any record file exit with 0, 1 or 2.  A characterization that succeeds
has finite masses that sum to 1.  ``entchar simulate`` with any float
state parameters, nan, infinities and subnormals included, exits with 0
or 1.  The library functions that take a seed, a size or a count return a
result or raise ConfigError for any value.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from entchar import cli, families, measurement, posterior  # noqa: E402
from entchar.errors import ConfigError, DataError  # noqa: E402

scalars = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats() | st.text(max_size=4)
)
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
odd = st.sampled_from(
    [None, True, 2.5, 1.0, float("inf"), float("nan"), -1, 2**70, "1", "x", [], {}]
)
axes = st.integers(0, 4) | odd
counts = st.integers(0, 40) | st.integers(-3, -1) | st.integers(2**60, 2**64) | odd
setting_docs = st.fixed_dictionaries(
    {"a": axes, "b": axes, "counts": st.lists(counts, min_size=3, max_size=5) | odd}
)
#: Settings with valid axes and rows of 3 to 5 valid counts, so that a
#: record's rows can differ only in length.
ragged_setting_docs = st.fixed_dictionaries(
    {"a": st.integers(1, 3), "b": st.integers(1, 3),
     "counts": st.lists(st.integers(0, 40), min_size=3, max_size=5)}
)
loose_records = st.fixed_dictionaries(
    {"settings": st.lists(setting_docs | ragged_setting_docs, max_size=6) | odd},
    optional={"meta": values},
)
#: Five-setting records with small, often zero, or huge counts.
default_records = st.tuples(
    st.lists(st.lists(st.integers(0, 40) | st.just(0) | st.integers(2**40, 2**58),
                      min_size=4, max_size=4),
             min_size=5, max_size=5),
    st.dictionaries(st.text(max_size=4), values, max_size=3),
).map(lambda parts: {
    "settings": [{"a": a, "b": b, "counts": row}
                 for (a, b), row in zip(measurement.DEFAULT_SETTINGS, parts[0])],
    "meta": parts[1],
})


def _impossible_record(rows) -> dict:
    """A five-setting record whose XX, YY and ZZ rows put all counts on the
    two same or the two different outcomes (a zero row when k = 0).  The
    grid's p = 1, sigma = 0 Bell state cannot produce some of these, so its
    log-likelihood is -inf."""
    xx, yy, zz = ([k, 0, 0, k] if same else [0, k, k, 0] for same, k in rows)
    counts = [xx, [1, 1, 1, 1], [1, 1, 1, 1], yy, zz]
    return {"settings": [{"a": a, "b": b, "counts": row}
                         for (a, b), row in zip(measurement.DEFAULT_SETTINGS, counts)]}


impossible_records = st.lists(
    st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=3, max_size=3
).map(_impossible_record)
documents = values | loose_records | default_records


@given(documents)
@settings(max_examples=300, deadline=None)
def test_record_from_dict_returns_or_raises_parse_failure(doc):
    try:
        rec = measurement.record_from_dict(doc)
    except DataError:
        return
    assert isinstance(rec, measurement.MeasurementRecord)
    assert rec.counts.shape == (len(rec.settings), 4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(documents)
@settings(max_examples=300, deadline=None)
def test_compare_exits_cleanly(workdir, doc):
    record = workdir / "record.json"
    record.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["compare", "--record", str(record), "--out", str(workdir / "out.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


#: Small priors: at most 2000 Bell-diagonal samples or a 20x20 grid.
small_priors = (
    st.tuples(st.integers(1, 2000), st.integers(0, 3)).map(
        lambda a: ["--prior", "bell-diag", "--samples", str(a[0]), "--seed", str(a[1])])
    | st.tuples(st.integers(2, 20), st.integers(2, 20)).map(
        lambda a: ["--prior", "two-param", "--grid", f"{a[0]}x{a[1]}"])
)


@given(default_records | impossible_records | loose_records, small_priors)
@settings(max_examples=200, deadline=None)
def test_characterize_exits_cleanly(workdir, doc, prior_args):
    record, out = workdir / "record.json", workdir / "out.json"
    record.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["characterize", "--record", str(record), *prior_args,
                         "--bins", "7", "--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        result = json.loads(out.read_text())
        prob_entangled = result["summary"]["prob_entangled"]
        separable_mass = result["histogram"]["separable_mass"]
        masses = [prob_entangled, separable_mass, *result["histogram"]["bin_mass"]]
        assert all(math.isfinite(m) for m in masses)
        assert abs(prob_entangled + separable_mass - 1.0) <= 1e-9


#: State parameters: anywhere on the float line, in the families' domains,
#: or at the values where the closed forms overflow or are undefined.
parameters = st.none() | st.floats() | st.floats(0.0, 1.0) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 1e-320, 1e-308, 1.7e308]
)


@given(st.sampled_from(["two-param", "rho-k", "rho1"]), parameters, parameters, parameters,
       st.integers(0, 50))
@settings(max_examples=300, deadline=None)
def test_simulate_exits_cleanly(workdir, state, p, sigma, k, shots):
    argv = ["simulate", "--state", state, "--shots", str(shots), "--seed", "0",
            "--out", str(workdir / "sim.json")]
    for flag, value in (("--p", p), ("--sigma", sigma), ("--k", k)):
        if value is not None:
            argv.append(f"{flag}={value!r}")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1)
    assert "Traceback" not in stderr.getvalue()


def integer_like(top):
    """Integers in [-3, top], as Python and numpy ints, and values that are
    not integers: floats (integral ones too), bools, None and text."""
    ints = st.integers(-3, top)
    return (ints | ints.map(np.int64) | st.integers(0, 255).map(np.uint8) | ints.map(float)
            | st.floats() | st.booleans() | st.booleans().map(np.bool_)
            | st.sampled_from([None, "3"]))


SMALL_SET = families.simplex_prior_bell_diagonal(50, seed=0)
_SHOTS_BOUND = np.iinfo(np.int64).max // len(measurement.DEFAULT_SETTINGS)

#: Each library function with integer arguments, called with two of them;
#: sizes stay at or below 10^3 states, bins or shots, so that no call asks
#: for a large array.  Seeds and shots may also be huge.
INTEGER_CALLS = {
    "simulate_record": (
        lambda shots, seed: measurement.simulate_record(np.eye(4) / 4.0, shots, seed),
        integer_like(1000) | st.sampled_from([2**62, _SHOTS_BOUND, _SHOTS_BOUND + 1]),
        integer_like(2**62) | st.just(2**70)),
    "simplex_prior_bell_diagonal": (families.simplex_prior_bell_diagonal,
                                    integer_like(1000), integer_like(2**62)),
    "grid_prior_two_param": (families.grid_prior_two_param, integer_like(30), integer_like(30)),
    "histogram_negativity": (
        lambda n_bins, _: posterior.histogram_negativity(SMALL_SET, SMALL_SET.prior_weights,
                                                         n_bins),
        integer_like(1000), st.none()),
}


@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_integer_arguments_return_or_raise_config_error(name, data):
    call, first, second = INTEGER_CALLS[name]
    try:
        call(data.draw(first), data.draw(second))
    except ConfigError:
        pass

"""Correlation measurement settings, outcome statistics and CHSH combinations.

The default suite measures the five spin-spin correlations
(X,X), (X,Y), (Y,X), (Y,Y) and (Z,Z), with outcomes per setting ordered
(+,+), (+,-), (-,+), (-,-).  States are checked by ``linalg.validate_state``
(ConfigError), and records by ``MeasurementRecord`` when built (DataError).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError, DataError, check_int

#: (first-qubit axis, second-qubit axis) pairs of the default suite.
DEFAULT_SETTINGS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))

#: Outcome sign pairs, index k = 0..3.
OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_I2 = np.eye(2, dtype=complex)
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class MeasurementRecord:
    """Per-setting outcome counts for a set of correlation measurements.

    Every record, however it is built, holds one or more settings, each a
    pair of int spin axes in 1..3, and one row of 4 counts per setting
    (ordered per OUTCOME_SIGNS), each finite and >= 0, else DataError;
    expected counts may be fractional.  Integer counts must total at most
    int64 max, and float counts to a finite float, so that no sum over them
    wraps or overflows.
    """

    settings: tuple
    counts: np.ndarray  # shape (n_settings, 4)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            self.settings = tuple((check_int(a, "setting axis", 1, 3),
                                   check_int(b, "setting axis", 1, 3)) for a, b in self.settings)
        except (TypeError, ValueError, ConfigError) as exc:
            raise DataError(f"every setting must be a pair of axes in 1..3: {exc}") from None
        try:
            counts = self.counts = np.asarray(self.counts)
        except ValueError:  # rows of different lengths
            counts = np.empty((0, 0))
        if len(self.settings) == 0 or counts.shape != (len(self.settings), 4):
            raise DataError("record must hold one or more settings, each with a row of 4 counts")
        if counts.dtype.kind not in "iuf" or not (np.isfinite(counts).all() and counts.min() >= 0):
            raise DataError("outcome counts must be finite numbers >= 0")
        # Python ints: a numpy sum of int64 or uint64 counts would wrap.
        if counts.dtype.kind in "iu" and sum(counts.ravel().tolist()) > _INT64_MAX:
            raise DataError(f"outcome counts sum past the int64 limit {_INT64_MAX}")
        with np.errstate(over="ignore"):  # a float total past float64 max is inf
            if counts.dtype.kind == "f" and not np.isfinite(counts.sum()):
                raise DataError("outcome counts sum past the float64 limit")

    @property
    def n_total(self) -> int:
        """Total number of shots across all settings, rounded to the nearest
        integer so that expected-count records report their shot budget."""
        return int(round(self.counts.sum()))


@dataclass
class FrequencyTable:
    """Observed relative frequencies, aligned with a record's settings."""

    settings: tuple
    freqs: np.ndarray  # shape (n_settings, 4), rows sum to 1
    counts: np.ndarray  # shape (n_settings, 4), the record's own counts


def spin_projector(axis: int, sign: int) -> np.ndarray:
    """Rank-1 projector (I +/- A)/2 onto the +/-1 eigenspace of a spin axis:
    1 (X), 2 (Y) or 3 (Z).  A bool is neither an axis nor a sign."""
    axis = check_int(axis, "axis", 1, 3)
    if isinstance(sign, (bool, np.bool_)) or sign not in (1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign!r}")
    return (_I2 + sign * linalg.PAULIS[axis]) / 2.0


def outcome_probabilities(rho: np.ndarray, setting) -> np.ndarray:
    """Probabilities of the four (+/-,+/-) outcomes for one setting, clipped
    to [0, 1]; ConfigError unless rho is a density matrix."""
    rho = linalg.validate_state(rho)
    a, b = setting
    probs = np.empty(4)
    for k, (sa, sb) in enumerate(OUTCOME_SIGNS):
        op = np.kron(spin_projector(a, sa), spin_projector(b, sb))
        probs[k] = np.real(np.trace(rho @ op))
    return np.clip(probs, 0.0, 1.0)


def simulate_record(rho: np.ndarray, shots_per_setting: int, seed: int,
                    label: str = "") -> MeasurementRecord:
    """Draw a finite record on the default settings, equal shots per setting.

    Each setting uses its own RNG substream derived from (seed, setting
    index), so records are reproducible regardless of evaluation order.
    The seed must be an integer >= 0 and the shots one in [0, int64 max //
    5], so that the total fits in int64; else ConfigError.
    """
    seed = check_int(seed, "seed", 0)
    shots = check_int(shots_per_setting, "shots per setting", 0,
                      _INT64_MAX // len(DEFAULT_SETTINGS))
    counts = np.empty((len(DEFAULT_SETTINGS), 4), dtype=np.int64)
    for s, setting in enumerate(DEFAULT_SETTINGS):
        rng = np.random.default_rng([seed, s])
        counts[s] = rng.multinomial(shots, outcome_probabilities(rho, setting))
    meta = {"seed": seed, "label": label, "shots_per_setting": shots}
    return MeasurementRecord(settings=DEFAULT_SETTINGS, counts=counts, meta=meta)


def frequencies(rec: MeasurementRecord) -> FrequencyTable:
    """Relative frequencies f = count / N_setting for every setting."""
    totals = rec.counts.sum(axis=1)
    if np.any(totals == 0):
        empty = [rec.settings[i] for i in np.flatnonzero(totals == 0)]
        raise DataError(f"settings with zero counts: {empty}")
    return FrequencyTable(settings=rec.settings, freqs=rec.counts / totals[:, None],
                          counts=rec.counts)


def chsh_values(rho: np.ndarray) -> np.ndarray:
    """Expectations of the four CHSH combinations built from the X/Y correlations.

    With c_ij = <A_i B_j> for A_1=B_1=X, A_2=B_2=Y:
        B_1 = c11 + c12 + c21 - c22
        B_2 = c11 + c12 - c21 + c22
        B_3 = c11 - c12 + c21 + c22
        B_4 = -c11 + c12 + c21 + c22

    ConfigError unless rho is a density matrix.
    """
    rho = linalg.validate_state(rho)
    c11, c12, c21, c22 = (np.trace(rho @ np.kron(linalg.PAULIS[a], linalg.PAULIS[b])).real
                          for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)))
    return np.array(
        [
            c11 + c12 + c21 - c22,
            c11 + c12 - c21 + c22,
            c11 - c12 + c21 + c22,
            -c11 + c12 + c21 + c22,
        ]
    )


def chsh_violated(rho: np.ndarray) -> bool:
    """True iff any of the four fixed-axis CHSH expectations exceeds 2."""
    return bool(np.any(np.abs(chsh_values(rho)) > 2.0 + 1e-10))


# --- serialization -----------------------------------------------------------


def record_to_dict(rec: MeasurementRecord) -> dict:
    """The JSON document of a record, under the file's integer rule
    (``_integer``): DataError for a count that is not integral, such as an
    expected count of 12.5, instead of a silent truncation."""
    return {
        "settings": [
            {"a": a, "b": b, "counts": [_integer(c, "outcome count") for c in row.tolist()]}
            for (a, b), row in zip(rec.settings, rec.counts)
        ],
        "meta": dict(rec.meta),
    }


def _integer(value, what: str) -> int:
    """A JSON integer within int64 as an int; numpy integers and integral
    floats such as 5.0 are accepted."""
    if isinstance(value, np.integer) or (isinstance(value, float) and value.is_integer()):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{what} {value!r} is not an integer")
    if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise DataError(f"{what} {value} is past the int64 limit")
    return value


def record_from_dict(doc: dict) -> MeasurementRecord:
    """The record a JSON document describes.  Checked here is what only a file
    can get wrong: counts that are int64 integers, so that they load as an
    int64 array, and an object ``meta``; MeasurementRecord checks the rest,
    the axes too."""
    try:
        settings = tuple((s["a"], s["b"]) for s in doc["settings"])
        rows = [[_integer(c, "outcome count") for c in s["counts"]] for s in doc["settings"]]
        meta = doc.get("meta", {})
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed measurement record: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"record meta must be a JSON object, got {meta!r}")
    return MeasurementRecord(settings=settings, counts=rows, meta=dict(meta))


def save_record(rec: MeasurementRecord, path) -> None:
    """Write the record as JSON; DataError, and no file, if it breaks the
    file's integer rule or its ``meta`` holds a value JSON cannot write."""
    doc = record_to_dict(rec)
    try:
        text = json.dumps(doc, indent=2)
    except (TypeError, ValueError) as exc:
        raise DataError(f"record meta cannot be written as JSON: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_record(path) -> MeasurementRecord:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"cannot read record {path}: {exc}") from exc
    return record_from_dict(doc)


def require_default_settings(rec_or_freq) -> None:
    """Raise DataError unless the five default settings are present in order."""
    if tuple(rec_or_freq.settings) != DEFAULT_SETTINGS:
        raise DataError(
            f"expected settings {DEFAULT_SETTINGS}, got {tuple(rec_or_freq.settings)}"
        )

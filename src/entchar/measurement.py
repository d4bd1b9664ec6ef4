"""Correlation measurement settings, outcome statistics and CHSH combinations.

The default suite measures the five spin-spin correlations
(X,X), (X,Y), (Y,X), (Y,Y) and (Z,Z), with outcomes per setting ordered
(+,+), (+,-), (-,+), (-,-).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError, DataError

#: (first-qubit axis, second-qubit axis) pairs of the default suite.
DEFAULT_SETTINGS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))

#: Outcome sign pairs, index k = 0..3.
OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_I2 = np.eye(2, dtype=complex)


@dataclass
class MeasurementRecord:
    """Per-setting outcome counts for a set of correlation measurements."""

    settings: tuple
    counts: np.ndarray  # shape (n_settings, 4), counts ordered per OUTCOME_SIGNS
    meta: dict = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        """Total number of shots across all settings, rounded to the nearest
        integer so that expected-count records report their shot budget."""
        return int(round(self.counts.sum()))

    @property
    def setting_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass
class FrequencyTable:
    """Observed relative frequencies, aligned with a record's settings."""

    settings: tuple
    freqs: np.ndarray  # shape (n_settings, 4), rows sum to 1
    counts: np.ndarray  # shape (n_settings, 4), the record's own counts


def spin_projector(axis: int, sign: int) -> np.ndarray:
    """Rank-1 projector (I +/- A)/2 onto the +/-1 eigenspace of a spin axis."""
    if axis not in linalg.PAULIS:
        raise ConfigError(f"axis must be 1 (X), 2 (Y) or 3 (Z), got {axis}")
    if sign not in (1, -1):
        raise ConfigError(f"sign must be +1 or -1, got {sign}")
    return (_I2 + sign * linalg.PAULIS[axis]) / 2.0


def outcome_probabilities(rho: np.ndarray, setting) -> np.ndarray:
    """Probabilities of the four (+/-,+/-) outcomes for one setting."""
    a, b = setting
    probs = np.empty(4)
    for k, (sa, sb) in enumerate(OUTCOME_SIGNS):
        op = np.kron(spin_projector(a, sa), spin_projector(b, sb))
        probs[k] = np.real(np.trace(np.asarray(rho, dtype=complex) @ op))
    if probs.min() <= -1e-10:
        raise ConfigError(f"negative outcome probability {probs.min():.3e}")
    if abs(probs.sum() - 1.0) >= 1e-12:
        raise ConfigError(f"outcome probabilities sum to {probs.sum():.15g}, not 1")
    return np.clip(probs, 0.0, 1.0)


def simulate_record(
    rho: np.ndarray,
    shots_per_setting: int,
    seed: int,
    label: str = "",
    settings=DEFAULT_SETTINGS,
) -> MeasurementRecord:
    """Draw a finite measurement record with equal shots per setting.

    Each setting uses its own RNG substream derived from (seed, setting
    index), so records are reproducible regardless of evaluation order.
    """
    counts = np.empty((len(settings), 4), dtype=np.int64)
    for s, setting in enumerate(settings):
        rng = np.random.default_rng([seed, s])
        counts[s] = rng.multinomial(shots_per_setting, outcome_probabilities(rho, setting))
    meta = {"seed": seed, "label": label, "shots_per_setting": shots_per_setting}
    return MeasurementRecord(settings=tuple(settings), counts=counts, meta=meta)


def frequencies(rec: MeasurementRecord) -> FrequencyTable:
    """Relative frequencies f = count / N_setting for every setting."""
    totals = rec.setting_totals
    if np.any(totals == 0):
        empty = [rec.settings[i] for i in np.flatnonzero(totals == 0)]
        raise DataError(f"settings with zero counts: {empty}")
    return FrequencyTable(settings=rec.settings, freqs=rec.counts / totals[:, None],
                          counts=rec.counts)


def _correlation(rho: np.ndarray, a: int, b: int) -> float:
    return linalg.expectation(rho, np.kron(linalg.PAULIS[a], linalg.PAULIS[b]))


def chsh_values(rho: np.ndarray) -> np.ndarray:
    """Expectations of the four CHSH combinations built from the X/Y correlations.

    With c_ij = <A_i B_j> for A_1=B_1=X, A_2=B_2=Y:
        B_1 = c11 + c12 + c21 - c22
        B_2 = c11 + c12 - c21 + c22
        B_3 = c11 - c12 + c21 + c22
        B_4 = -c11 + c12 + c21 + c22
    """
    c11 = _correlation(rho, 1, 1)
    c12 = _correlation(rho, 1, 2)
    c21 = _correlation(rho, 2, 1)
    c22 = _correlation(rho, 2, 2)
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
    return {
        "settings": [
            {"a": int(a), "b": int(b), "counts": [int(c) for c in row]}
            for (a, b), row in zip(rec.settings, rec.counts)
        ],
        "meta": dict(rec.meta),
    }


_INT64_MAX = np.iinfo(np.int64).max


def _integer(value, what: str) -> int:
    """A JSON integer as an int; integral floats such as 5.0 are accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{what} {value!r} is not an integer")
    return value


def record_from_dict(doc: dict) -> MeasurementRecord:
    try:
        settings = tuple(
            (_integer(s["a"], "setting axis"), _integer(s["b"], "setting axis"))
            for s in doc["settings"]
        )
        rows = [[_integer(c, "outcome count") for c in s["counts"]] for s in doc["settings"]]
        meta = doc.get("meta", {})
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed measurement record: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"record meta must be a JSON object, got {meta!r}")
    if len(settings) == 0 or any(len(row) != 4 for row in rows):
        raise DataError("record must hold settings with 4 outcome counts each")
    if min(min(row) for row in rows) < 0:
        raise DataError("negative outcome count")
    if sum(map(sum, rows)) > _INT64_MAX:
        raise DataError(f"outcome counts sum past the int64 limit {_INT64_MAX}")
    counts = np.array(rows, dtype=np.int64)
    return MeasurementRecord(settings=settings, counts=counts, meta=dict(meta))


def save_record(rec: MeasurementRecord, path) -> None:
    with open(path, "w") as fh:
        json.dump(record_to_dict(rec), fh, indent=2)
        fh.write("\n")


def load_record(path) -> MeasurementRecord:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read record {path}: {exc}") from exc
    return record_from_dict(doc)


def require_default_settings(rec_or_freq) -> None:
    """Raise DataError unless the five default settings are present in order."""
    if tuple(rec_or_freq.settings) != DEFAULT_SETTINGS:
        raise DataError(
            f"expected settings {DEFAULT_SETTINGS}, got {tuple(rec_or_freq.settings)}"
        )

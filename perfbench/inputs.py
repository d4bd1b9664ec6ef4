"""Seeded benchmark inputs, computed without calling the program.

Source states, their outcome probabilities and the multinomial draws are
all computed here, so a change to the program's own simulation or family
code cannot change what the benchmark feeds it.
"""

import numpy as np
from scipy.special import erf

#: (first-qubit axis, second-qubit axis) of the five settings, in the order
#: the program expects: XX, XY, YX, YY, ZZ.
SETTINGS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))
#: Outcome signs (+,+), (+,-), (-,+), (-,-).
SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
_I2 = np.eye(2, dtype=complex)


def coherence(sigma: float) -> float:
    """Mean of cos(phi) under exp(-phi^2/sigma^2) truncated to [-pi, pi]."""
    if sigma == 0.0:
        return 1.0
    z = np.pi / sigma + 0.5j * sigma
    return float(np.exp(-sigma * sigma / 4.0) * erf(z).real / erf(np.pi / sigma))


def _ket_mixture(weights, kets) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    for w, ket in zip(weights, kets):
        v = np.asarray(ket, dtype=complex)
        v = v / np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def two_param(p: float, sigma: float) -> np.ndarray:
    """Phase-noisy Bell state mixed with white noise."""
    rho = np.diag([(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4]).astype(complex)
    rho[0, 3] = rho[3, 0] = p * coherence(sigma) / 2
    return rho


def rho_k(k: float) -> np.ndarray:
    """0.5 |00 + k 11><..| + 0.5 I/4."""
    return _ket_mixture([0.5], [[1, 0, 0, k]]) + np.eye(4) / 8


def reference_mixture(a: float) -> np.ndarray:
    """0.53 |00 + a 11><..| + 0.47 |01 + a 10><..| (rho1: a = 0.9, rho2: a = 0.5)."""
    return _ket_mixture([0.53, 0.47], [[1, 0, 0, a], [0, 1, a, 0]])


SOURCES = {
    "two-param(0.4,0.4)": lambda: two_param(0.4, 0.4),
    "two-param(1/3,1/3)": lambda: two_param(1 / 3, 1 / 3),
    "rho1": lambda: reference_mixture(0.9),
    "rho2": lambda: reference_mixture(0.5),
    "rho_k(0.7)": lambda: rho_k(0.7),
}


def outcome_probs(rho: np.ndarray) -> np.ndarray:
    """(5, 4) outcome probabilities of the five settings."""
    probs = np.empty((len(SETTINGS), 4))
    for s, (a, b) in enumerate(SETTINGS):
        for k, (sa, sb) in enumerate(SIGNS):
            op = np.kron((_I2 + sa * _PAULI[a]) / 2, (_I2 + sb * _PAULI[b]) / 2)
            probs[s, k] = np.trace(rho @ op).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def record_doc(counts: np.ndarray, label: str) -> dict:
    """The record's JSON document, as `entchar characterize --record` reads it."""
    return {
        "settings": [
            {"a": a, "b": b, "counts": [int(c) for c in row]}
            for (a, b), row in zip(SETTINGS, counts)
        ],
        "meta": {"label": label},
    }


def make_records(seed: int, stream: int, plan) -> list:
    """Draw records for `plan`, a list of (source, shots, copies).

    Returns (source, shots, counts) triples interleaved round-robin over
    the plan entries, so any prefix of the list mixes every entry.
    """
    rng = np.random.default_rng([seed, stream])
    probs = {src: outcome_probs(SOURCES[src]()) for src, _, _ in plan}
    per_entry = [
        [(src, shots, np.stack([rng.multinomial(shots, row) for row in probs[src]]))
         for _ in range(copies)]
        for src, shots, copies in plan
    ]
    out = []
    for j in range(max(copies for _, _, copies in plan)):
        out.extend(entry[j] for entry in per_entry if j < len(entry))
    return out

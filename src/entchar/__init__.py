"""Characterize a two-qubit entanglement source from finite measurement records.

Every name is reached through its module, as ``entchar.posterior.update_posterior``.
"""

from . import criteria, families, linalg, measurement, posterior

__version__ = "0.1.0"

"""Characterize a two-qubit entanglement source from finite measurement records.

Every name is reached through its module, as ``entchar.posterior.update_posterior``.

numpy, and scipy.special where the two-parameter family needs it, load
with one OpenBLAS thread unless the caller set ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``: entchar's readouts are
``np.einsum`` sums, and its one BLAS call, in the likelihood kernel,
takes one block of states, which entchar's own threads share; a pool's
start-up cost is measured, its gain for that call is not.  A library
imported before entchar keeps its own default, and ``os.environ`` is left
as the caller set it.
"""

from ._blas import one_blas_thread

with one_blas_thread():
    from . import criteria, families, linalg, measurement, posterior
del one_blas_thread

__version__ = "0.1.0"

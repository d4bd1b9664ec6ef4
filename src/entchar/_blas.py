"""Load BLAS-backed libraries with one OpenBLAS thread.

OpenBLAS sizes its thread pool once, when its shared library loads, from
the first of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` that is set, else from the CPU count.  numpy and
scipy.special each load their own OpenBLAS.  entchar's readouts are
``np.einsum`` sums, not BLAS calls.  Its one BLAS call, the likelihood
kernel's product of a small 0/1 pick matrix with one block of Bell
weights, is a few hundred thousand multiply-adds, which entchar's own two
threads already share block by block; what a pool would add to it is not
measured, while its start-up cost is.  entchar's own
worker thread, which shares the blocks of each blocked per-state pass
with the calling thread (``families.in_parts``) and runs the readouts'
moments beside the histogram (``families.beside``), is not OpenBLAS's: it
starts on first use, not at import, and no thread count changes a result.
This module imports nothing but ``os`` so that it can act before numpy
loads.
"""

import contextlib
import os

#: The variables OpenBLAS reads for its thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def one_blas_thread():
    """An OpenBLAS that loads inside this block starts one thread.

    Sets ``OPENBLAS_NUM_THREADS=1`` for the block unless the caller set any
    of ``THREAD_VARIABLES``, whose count then applies.  ``os.environ`` is
    restored on exit, also on an exception, so child processes see what
    the caller set.  A library loaded before the block keeps its pool.
    """
    if any(name in os.environ for name in THREAD_VARIABLES):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)

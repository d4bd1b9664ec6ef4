"""Start-up: numpy and scipy.special load with one OpenBLAS thread unless the caller chose a count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entchar
from entchar._blas import THREAD_VARIABLES, one_blas_thread

_PROBE = """\
import os
before = dict(os.environ)
import entchar
from entchar import families
after_import = len(os.listdir("/proc/self/task"))
families.coherence_factor(0.4)
print(after_import, len(os.listdir("/proc/self/task")), dict(os.environ) == before)
"""

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                     reason="no /proc/self/task to count threads in")


def _probe(**thread_env) -> list:
    """Threads after `import entchar`, after the scipy load, and whether os.environ was kept."""
    src = str(Path(entchar.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(thread_env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_scipy, kept = proc.stdout.split()
    return [int(after_import), int(after_scipy), kept == "True"]


@needs_task_list
def test_import_and_scipy_load_start_no_blas_thread():
    assert _probe() == [1, 1, True]


@needs_task_list
@pytest.mark.skipif(_CPUS < 2, reason="fewer than 2 CPUs, so OpenBLAS caps its pool at one thread")
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_callers_thread_count_is_kept(variable):
    after_import, after_scipy, kept = _probe(**{variable: "2"})
    assert after_import == 2
    assert after_scipy >= 2
    assert kept


@pytest.fixture
def no_thread_env(monkeypatch):
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)


def test_one_thread_inside_the_block_only(no_thread_env):
    before = dict(os.environ)
    with one_blas_thread():
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert dict(os.environ) == before


def test_environment_restored_on_an_exception(no_thread_env):
    before = dict(os.environ)
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            1 / 0
    assert dict(os.environ) == before


@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_a_callers_setting_is_left_alone(no_thread_env, monkeypatch, variable):
    monkeypatch.setenv(variable, "3")
    before = dict(os.environ)
    with one_blas_thread():
        assert dict(os.environ) == before
    assert dict(os.environ) == before

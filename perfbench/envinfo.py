"""Environment fingerprint and the machine-speed probe.

Import this module only after ``ldlnet``: the package caps the BLAS thread
pool through environment variables, which works only when it is imported
before numpy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
from time import perf_counter

import numpy as np

CALIB_REPS = 25
CALIB_SIDE = 512


def _openblas():
    """The OpenBLAS library numpy loaded, or None when it cannot be found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*")))
    if not paths:
        return None, None
    lib = ctypes.CDLL(paths[0])
    for suffix in ("64_", ""):
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            config.restype = ctypes.c_char_p
            config.argtypes = []
            return getter, config
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    """CPU, core count, Python/numpy/BLAS build and the effective BLAS threads."""
    getter, config = _openblas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": config().decode() if config else "unknown",
        "blas_threads": getter() if getter else None,
        "ldl_threads": int(os.environ["LDL_THREADS"]),
    }


def calib_ms():
    """Median time of one fixed single-threaded float32 matmul, in ms."""
    rng = np.random.default_rng(0)
    a = rng.random((CALIB_SIDE, CALIB_SIDE), dtype=np.float32)
    b = rng.random((CALIB_SIDE, CALIB_SIDE), dtype=np.float32)
    times = []
    for _ in range(CALIB_REPS):
        t0 = perf_counter()
        a @ b
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

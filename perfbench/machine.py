"""Fingerprint of the machine a run measures on.

Records what decides how fast the workloads can go: usable CPUs (the
process's affinity mask, not the host's core count), total memory, the
Python and NumPy versions, and the BLAS library NumPy loaded with the thread
count it will use.  The fingerprint is the caller's environment: it records
the thread variables the caller sets, and the BLAS thread count that
environment gives.  Measured batches pin one thread (``run.PINNED``); the
unpinned batches of a traced run keep the caller's threading.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _memory_total_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> tuple[str | None, int | None]:
    """File name and thread count of the OpenBLAS this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return os.path.basename(path), int(function())
    return None, None


def fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_file, blas_threads = _blas_threads()
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "memory_total_mb": _memory_total_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": blas_file,
        "blas_threads": blas_threads,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }

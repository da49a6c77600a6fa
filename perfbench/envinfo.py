"""Environment record written next to every benchmark result.

Reads only this process's own state, the checkout's git HEAD and CPU
information; it changes nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from importlib import metadata

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread for this process and, through its environment, its children."""
    for key in BLAS_ENV:
        os.environ[key] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if numpy is loaded."""
    if "numpy" not in sys.modules:
        return None
    site = os.path.dirname(os.path.dirname(sys.modules["numpy"].__file__))
    libs_dir = os.path.join(site, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record(root: str) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "openblas_threads": _openblas_threads(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }

"""Environment block written into every benchmark result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(str(index / "size"))
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version"),
                "configuration": deps.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env_threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ}
    # OpenBLAS starts one thread per available core unless told otherwise.
    blas["default_threads"] = nproc
    blas["threads"] = int(next(iter(env_threads.values()), nproc))
    blas["thread_env"] = env_threads
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "load_generator": "one process, one thread, closed loop",
        "program_threads": "OpenBLAS with blas.threads threads; solver-studies also "
                           "runs the CLI's --jobs 2 thread pool",
    }

"""Host metadata recorded with every result."""

from __future__ import annotations

import os
import platform

from perfbench import BLAS_THREAD_VARS, client


def _blas() -> dict:
    """BLAS vendor and build configuration from numpy's build record."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown"}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    from repro.compiler.pipeline import CompileOptions
    from repro.runtime.backends.toolchain import discover_toolchain

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_env": {
            name: os.environ.get(name) for name in BLAS_THREAD_VARS
        },
        "server_blas_threads_env": client.pin_blas_threads({}),
        "c_toolchain": discover_toolchain() is not None,
        "server_default_backend": CompileOptions().backend,
    }

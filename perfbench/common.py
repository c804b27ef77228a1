"""Paths, thread pinning and the guarded import of maassl from the checkout.

The benchmark always measures the sources under ``<checkout>/src``; an
installed copy of maassl elsewhere is never used.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The benchmark is single-threaded by definition: BLAS and OpenMP pools are
# pinned to one thread before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchSetupError(RuntimeError):
    """The checkout does not hold a maassl source tree that can be measured."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_maassl():
    """Import maassl from ``<checkout>/src``, refusing any other copy."""
    if not (SRC / "maassl" / "__init__.py").is_file():
        raise BenchSetupError(f"no maassl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import maassl

    if Path(maassl.__file__).resolve().parent != SRC / "maassl":
        raise BenchSetupError(f"maassl was imported from {maassl.__file__}, not {SRC}")
    return maassl


def environment() -> dict:
    """Interpreter, library versions, thread pinning and core count."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }

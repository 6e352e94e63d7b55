"""Environment facts recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: str) -> str:
    """Commit of a git checkout read from .git files, or "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(root: str, seed: int) -> dict:
    """Interpreter, numpy, CPU and BLAS settings; call after importing sqccqkd."""
    import numpy
    import sqccqkd

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "rng_algorithm": sqccqkd.RNG_ALGORITHM,
        "commit": git_commit(root),
        "seed": seed,
    }

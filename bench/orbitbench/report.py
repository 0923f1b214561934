"""Summary statistics, the run environment and memory."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    With n samples sorted ascending, the sample at 0-based rank n - 11
    has exactly ten samples above it; its percentile is the share of
    samples at or below it.  Returns (value, percentile, samples beyond).
    With ten or fewer samples there is no such percentile: the maximum
    is returned with the count of samples that lie beyond it (0).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return xs[-1], 100.0, 0
    rank = n - 11
    return xs[rank], 100.0 * (rank + 1) / n, 10


def latency_summary(seconds) -> dict:
    """Median and tail of a list of durations, in milliseconds."""
    value, pct, beyond = tail(seconds)
    return {
        "p50_ms": 1e3 * statistics.median(seconds),
        "tail_ms": 1e3 * value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(seconds),
    }


_REFERENCE_MATRIX = None


def reference_kernel() -> float:
    """Seconds for a fixed piece of work that no library code takes part
    in: a pure-Python integer loop and one 160 x 160 symmetric
    eigen-solve, the two kinds of work the workloads spend their time on.
    Its median over a run measures how fast the machine ran during it."""
    global _REFERENCE_MATRIX
    import numpy as np

    if _REFERENCE_MATRIX is None:
        a = np.random.default_rng(0).standard_normal((160, 160))
        _REFERENCE_MATRIX = a + a.T
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    np.linalg.eigvalsh(_REFERENCE_MATRIX)
    return time.perf_counter() - t0


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def src_lines(root: str) -> int:
    total = 0
    pkg = os.path.join(root, "src", "orbitpick")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(root: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_lines": src_lines(root),
        "executable": os.path.basename(sys.executable),
    }

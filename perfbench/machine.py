"""Host facts of a benchmark run: thread pinning, BLAS read-back, a fixed
host-speed probe and peak resident memory.

:func:`pin_threads` must run before numpy is first imported: OpenBLAS sizes
its thread pool when it loads.  Forked FSI pool workers inherit both the
environment and the already-sized pool.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Thread-count getters exported by the OpenBLAS builds numpy ships with.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_OPENBLAS_CONFIGS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


#: BLAS/OpenMP threads per process.  The benchmark process and each pool
#: worker run one, so no more threads are busy than the host has cores.
THREADS = 1


def pin_threads() -> int:
    """Set every BLAS/OpenMP thread variable to :data:`THREADS`; returns it."""
    for var in THREAD_ENV:
        os.environ[var] = str(THREADS)
    return THREADS


def _loaded_openblas() -> list[str]:
    """Paths of every OpenBLAS library mapped into this process (numpy and
    scipy each ship their own)."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "openblas" in name and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, []
            return fn()
    return None


def blas_info() -> list[dict]:
    """Vendor string and effective thread count of each loaded OpenBLAS."""
    import numpy as np  # noqa: F401  (loads the BLAS being asked about)

    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _call(lib, _OPENBLAS_CONFIGS, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "config": config.decode(errors="replace").strip() if config else None,
                "effective_threads": _call(lib, _OPENBLAS_GETTERS, ctypes.c_int),
            }
        )
    return out


def machine_block(requested_threads: int) -> dict:
    """The ``machine`` block of the run detail."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_requested": requested_threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


#: Probe time (ms) that defines the reference host speed timings are scaled
#: to: about what :func:`probe_ms` reads on the 2-vCPU Xeon in a fast phase.
REFERENCE_PROBE_MS = 5.0
#: Repeats of the probe kernel before and after a run, and between steps.
HOST_PROBE_REPEATS = 50
STEP_PROBE_REPEATS = 3

_probe_arrays = None


def probe_ms(repeats: int) -> float:
    """Median time in ms of a fixed 19 x 19 by 19 x 49^3 matmul.

    The same kernel shape as a D3Q19 moment projection on the tube window,
    and like the simulator's kernels it streams arrays far larger than the
    caches.  It uses no ``repro`` code, so a change to the program leaves
    it alone while a slow host slows it down.
    """
    global _probe_arrays
    import numpy as np

    if _probe_arrays is None:
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((19, 19))
        # Copied from a freed temporary: freeing a block that large raises
        # glibc's dynamic mmap threshold before the first set-up, as the
        # simulator's own first freed array would.  Without it the threshold
        # rises at a varying point and `tube` peaked at 422 or 437 MB from
        # run to run.
        f = rng.standard_normal((19, 49**3)).copy()
        _probe_arrays = m, f, np.empty_like(f)
        np.matmul(m, f, out=_probe_arrays[2])
    m, f, out = _probe_arrays
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(m, f, out=out)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def host_probe() -> dict:
    """The probe before or after a run, for the detail record."""
    return {
        "matmul_ms_p50": probe_ms(HOST_PROBE_REPEATS),
        "repeats": HOST_PROBE_REPEATS,
    }


def host_scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` of wall time scaled to the reference host speed, by the
    mean of the probes taken right before and right after the timed work."""
    return seconds * REFERENCE_PROBE_MS / (0.5 * (probe_before + probe_after))


def hwm_kb() -> int:
    """Peak resident set (VmHWM) of this process in KiB; 0 when unreadable."""
    return _proc_kb("self", "status", ("VmHWM:",))


def private_kb(pid: int) -> int:
    """Memory a process does not share with others (Private_Clean +
    Private_Dirty of ``smaps_rollup``) in KiB; 0 when unreadable."""
    return _proc_kb(pid, "smaps_rollup", ("Private_Clean:", "Private_Dirty:"))


def _proc_kb(pid, name: str, keys) -> int:
    total = 0
    try:
        with open(f"/proc/{pid}/{name}", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(keys):
                    total += int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return total


def peak_rss_mb(worker_pids=()) -> float:
    """Peak resident memory of this process plus the private memory of the
    given live workers.

    Forked workers share the parent's pages copy-on-write; their own RSS
    would count those pages once more per worker, so only what each worker
    holds privately is added.  The probe's arrays stay resident from the
    first probe on and are not the program's, so they are taken off.
    """
    probe_kb = sum(a.nbytes for a in _probe_arrays or ()) / 1024.0
    own_kb = hwm_kb() - probe_kb
    return (own_kb + sum(private_kb(p) for p in worker_pids)) / 1024.0

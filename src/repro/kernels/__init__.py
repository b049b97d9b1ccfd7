"""Kernel dispatch layer for the FSI hot paths.

The dominant per-step phases — BGK collide(+stream), Skalak and bending
membrane forces, and IBM spread/interp — are registered here as named
kernels.  The one shipped implementation is the ``numpy`` backend
(:mod:`repro.kernels.numpy_backend`): the allocation-free NumPy code,
bitwise identical to the pre-dispatch hot path.

Selection follows the established ``REPRO_PARALLEL_*`` pattern with one
deliberate inversion: the ``REPRO_KERNELS`` environment variable, when
set, **wins over** the constructor argument, so a CI leg or an operator
can force every solver in a process onto one backend without touching
call sites.  Requesting a backend that is not registered raises a
``ValueError`` naming the request's source.

The compute dtype follows the same precedence via ``REPRO_DTYPE``
(:func:`resolve_dtype`): ``float32`` halves the Eulerian memory
bandwidth; the Lagrangian membrane state stays float64 by design (see
docs/performance.md).

The seam is a plain name → backend → callable registry: a new backend
(compiled or device) registers its adapters under a backend name via
:func:`register_backend` and every call site picks it up through the
same :func:`get_kernel_table` — no call-site changes required.  Kernels
a backend does not provide fall back to the numpy reference.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

#: Environment variable selecting the kernels backend process-wide.
ENV_VAR = "REPRO_KERNELS"

#: Backend used when neither ``REPRO_KERNELS`` nor a constructor argument
#: selects one.
DEFAULT_BACKEND = "numpy"

#: Kernel names every backend must (or may) implement.  The numpy backend
#: implements all of them; other backends may implement a subset and
#: inherit the numpy reference for the rest (see :func:`get_kernel_table`).
KERNEL_NAMES = (
    "collide_bgk",
    "collide_bgk_rim",
    "collide_bgk_interior",
    "stream_pull",
    "stream_pull_padded",
    "skalak_forces",
    "bending_forces",
    "area_volume_forces",
    "local_area_forces",
    "contact_scatter",
    "subgrid_query",
    "ibm_interp",
    "ibm_spread",
    "ibm_spread_contrib",
    "ibm_spread_scatter",
)

#: Stable numeric ids for the ``kernels.backend`` telemetry gauge
#: (backends registered later publish -1).
BACKEND_IDS = {"numpy": 0}

#: Environment variable selecting the compute dtype process-wide.
DTYPE_ENV_VAR = "REPRO_DTYPE"

#: Compute dtype used when neither ``REPRO_DTYPE`` nor a constructor
#: argument selects one.
DEFAULT_DTYPE = "float64"

#: Supported compute dtypes for the Eulerian (lattice) state.
DTYPE_NAMES = ("float32", "float64")

#: name -> backend -> callable.  Populated by the backend modules below.
_REGISTRY: dict[str, dict[str, Callable]] = {name: {} for name in KERNEL_NAMES}


def resolve_dtype(dtype=None) -> "np.dtype":
    """Resolve a compute-dtype request against the environment.

    Precedence matches :func:`resolve_kernels`: the ``REPRO_DTYPE``
    environment variable, when set, **wins over** the ``dtype`` argument,
    which wins over :data:`DEFAULT_DTYPE`.  Accepts dtype names, numpy
    dtypes, or scalar types; only ``float32``/``float64`` are valid
    compute dtypes (the Lagrangian membrane state stays float64
    regardless — see docs/performance.md).
    """
    env = os.environ.get(DTYPE_ENV_VAR)
    requested = env if env else (dtype if dtype is not None else DEFAULT_DTYPE)
    try:
        resolved = np.dtype(requested)
    except TypeError as exc:
        source = f"{DTYPE_ENV_VAR}={env!r}" if env else f"dtype={dtype!r}"
        raise ValueError(
            f"invalid compute dtype {requested!r} (from {source}); "
            f"pick one of {DTYPE_NAMES}"
        ) from exc
    if resolved.name not in DTYPE_NAMES:
        source = f"{DTYPE_ENV_VAR}={env!r}" if env else f"dtype={dtype!r}"
        raise ValueError(
            f"unsupported compute dtype {resolved.name!r} (from {source}); "
            f"pick one of {DTYPE_NAMES}"
        )
    return resolved


def register_kernel(name: str, backend: str, fn: Callable | None = None) -> Callable:
    """Register ``fn`` as the ``backend`` implementation of kernel ``name``.

    Unknown names extend the registry (a backend may ship extra kernels);
    re-registration overwrites, so reloading a backend module is safe.
    Without ``fn`` returns a decorator: ``@register_kernel(name, backend)``.
    """
    if fn is None:
        def deco(f: Callable) -> Callable:
            _REGISTRY.setdefault(name, {})[backend] = f
            return f

        return deco
    _REGISTRY.setdefault(name, {})[backend] = fn
    return fn


def register_backend(backend: str, table: dict[str, Callable]) -> None:
    """Register a whole backend at once (``{kernel_name: callable}``)."""
    for name, fn in table.items():
        register_kernel(name, backend, fn)


def _known_backends() -> tuple[str, ...]:
    known = set()
    for impls in _REGISTRY.values():
        known.update(impls)
    return tuple(sorted(known))


def resolve_kernels(backend: str | None = None) -> str:
    """Resolve a kernels-backend request against the environment.

    Precedence: ``REPRO_KERNELS`` env var (when set) > ``backend``
    argument > :data:`DEFAULT_BACKEND`.  Names no backend registered
    raise, attributing the request to its source.
    """
    env = os.environ.get(ENV_VAR)
    requested = env if env else (backend if backend is not None else DEFAULT_BACKEND)
    if requested not in _known_backends():
        source = f"{ENV_VAR}={env!r}" if env else f"backend={backend!r}"
        raise ValueError(
            f"unknown kernels backend {requested!r} (from {source}); "
            f"pick one of {_known_backends()}"
        )
    return requested


def get_kernel(name: str, backend: str | None = None) -> Callable:
    """The ``name`` kernel for the resolved ``backend``.

    Falls back to the numpy reference implementation when the resolved
    backend does not provide this kernel (partial backends are allowed).
    """
    impls = _REGISTRY.get(name)
    if not impls:
        raise KeyError(
            f"unknown kernel {name!r}; registered kernels: "
            f"{tuple(sorted(_REGISTRY))}"
        )
    resolved = resolve_kernels(backend)
    fn = impls.get(resolved)
    if fn is None:
        fn = impls["numpy"]
    return fn


def get_kernel_table(backend: str | None = None) -> dict[str, Callable]:
    """Resolved name → callable table for one backend.

    Also publishes the resolved choice on the ``kernels.backend``
    telemetry gauge (:data:`BACKEND_IDS` maps names to gauge values) —
    a no-op when telemetry is inactive.
    """
    resolved = resolve_kernels(backend)
    table = {
        name: impls.get(resolved, impls.get("numpy"))
        for name, impls in _REGISTRY.items()
        if impls
    }
    from ..telemetry import get_telemetry

    get_telemetry().gauge("kernels.backend").set(
        float(BACKEND_IDS.get(resolved, -1))
    )
    return table


# The backend import lives at the bottom, after every registry function
# is defined: the numpy backend reaches into ``repro.fsi`` (whose stepper
# pulls ``repro.parallel``, which imports this module's resolve/table
# functions at top level), so the registry API must be complete before
# those modules execute.
from . import numpy_backend as _numpy_backend  # noqa: E402,F401

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "DTYPE_ENV_VAR",
    "DEFAULT_DTYPE",
    "DTYPE_NAMES",
    "KERNEL_NAMES",
    "BACKEND_IDS",
    "get_kernel",
    "get_kernel_table",
    "register_kernel",
    "register_backend",
    "resolve_dtype",
    "resolve_kernels",
]

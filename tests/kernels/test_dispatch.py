"""Dispatch-seam contracts of the repro.kernels registry.

Selection precedence (the deliberate env-wins inversion), unknown-name
errors, registry round-trips, partial-backend fallback to the numpy
reference, the telemetry gauge and the compute-dtype policy — everything
a call site relies on before any numerical kernel runs.
"""

import numpy as np
import pytest

from repro import kernels
from repro.kernels import DEFAULT_DTYPE, DTYPE_ENV_VAR, resolve_dtype
from repro.telemetry import Telemetry, active


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Every test starts from an unset REPRO_KERNELS."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)


@pytest.fixture
def fake_backend():
    """A partial backend registered for one test: only ``collide_bgk``."""

    def fake_collide(*a, **k):  # pragma: no cover - never called
        raise AssertionError("fake kernels never run")

    kernels.register_backend("fake", {"collide_bgk": fake_collide})
    try:
        yield fake_collide
    finally:
        for impls in kernels._REGISTRY.values():
            impls.pop("fake", None)


# ----------------------------------------------------------------------
# Defaults


def test_resolve_default_is_numpy():
    assert kernels.resolve_kernels(None) == "numpy"
    assert kernels.resolve_kernels() == kernels.DEFAULT_BACKEND


def test_resolve_explicit_numpy():
    assert kernels.resolve_kernels("numpy") == "numpy"


# ----------------------------------------------------------------------
# Precedence: the env var, when set, wins over the constructor argument.


def test_env_wins_over_constructor_argument(monkeypatch, fake_backend):
    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    # An explicit request is overridden by the environment — the
    # inversion of the REPRO_PARALLEL_* precedence, so an operator can
    # force the reference kernels process-wide.
    assert kernels.resolve_kernels("fake") == "numpy"
    monkeypatch.setenv(kernels.ENV_VAR, "fake")
    assert kernels.resolve_kernels("numpy") == "fake"


def test_env_reaches_solver_and_stepper(monkeypatch):
    from repro.fsi import CellManager, FSIStepper
    from repro.lbm import Grid, LBMSolver
    from repro.units import UnitSystem

    monkeypatch.setenv(kernels.ENV_VAR, "numpy")
    g = Grid((4, 4, 4), tau=1.0)
    assert LBMSolver(g, kernels=None).kernels == "numpy"
    dx = 0.65e-6
    st = FSIStepper(Grid((4, 4, 4), tau=1.0, origin=np.zeros(3), spacing=dx),
                    UnitSystem(dx, 1e-6, 1025.0), CellManager(), mode="wrap")
    assert st.kernels == "numpy"
    assert st.coupler.kernels == "numpy"
    assert st.solver.kernels == "numpy"
    st.close()


# ----------------------------------------------------------------------
# Unknown names raise, with the request source attributed.


def test_unknown_backend_argument_raises():
    with pytest.raises(ValueError, match="cuda"):
        kernels.resolve_kernels("cuda")
    with pytest.raises(ValueError, match="backend="):
        kernels.resolve_kernels("cuda")


def test_unknown_backend_env_raises_with_env_attribution(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "tpu")
    with pytest.raises(ValueError, match=kernels.ENV_VAR):
        kernels.resolve_kernels("numpy")


def test_unknown_kernel_name_raises():
    with pytest.raises(KeyError, match="no_such_kernel"):
        kernels.get_kernel("no_such_kernel")


@pytest.mark.parametrize("name", ["numba", "arrayapi:numpy"])
def test_retired_backends_raise(monkeypatch, name):
    """Backends that are no longer shipped fail loudly, never fall back."""
    with pytest.raises(ValueError, match="backend="):
        kernels.resolve_kernels(name)
    monkeypatch.setenv(kernels.ENV_VAR, name)
    with pytest.raises(ValueError, match=kernels.ENV_VAR):
        kernels.resolve_kernels(None)


# ----------------------------------------------------------------------
# Registry round-trips and partial-backend fallback.


def test_every_kernel_registered_for_numpy():
    for name in kernels.KERNEL_NAMES:
        assert callable(kernels.get_kernel(name, "numpy"))
    table = kernels.get_kernel_table("numpy")
    assert set(kernels.KERNEL_NAMES) <= set(table)
    for fn in table.values():
        assert callable(fn)


def test_partial_backend_falls_back_to_numpy_reference(fake_backend):
    assert kernels.resolve_kernels("fake") == "fake"
    assert kernels.get_kernel("collide_bgk", "fake") is fake_backend
    # Kernels the partial backend does not provide resolve to the numpy
    # reference implementation.
    assert (kernels.get_kernel("stream_pull", "fake")
            is kernels.get_kernel("stream_pull", "numpy"))
    table = kernels.get_kernel_table("fake")
    assert table["collide_bgk"] is fake_backend
    assert table["skalak_forces"] is kernels.get_kernel(
        "skalak_forces", "numpy")


def test_register_kernel_is_a_decorator():
    try:
        @kernels.register_kernel("decorated_extra", "numpy")
        def extra():
            return 42

        assert kernels.get_kernel("decorated_extra", "numpy") is extra
    finally:
        kernels._REGISTRY.pop("decorated_extra", None)


# ----------------------------------------------------------------------
# Telemetry gauge.


def test_kernel_table_publishes_backend_gauge():
    tel = Telemetry()
    with active(tel):
        kernels.get_kernel_table("numpy")
    assert tel.gauge("kernels.backend").value == kernels.BACKEND_IDS["numpy"]


# ----------------------------------------------------------------------
# resolve_dtype precedence (env wins, same policy as resolve_kernels)


def test_resolve_dtype_default(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    assert resolve_dtype() == np.dtype(DEFAULT_DTYPE) == np.float64


def test_resolve_dtype_ctor_arg(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    assert resolve_dtype("float32") == np.float32
    assert resolve_dtype(np.float32) == np.float32
    assert resolve_dtype(np.dtype(np.float64)) == np.float64


def test_resolve_dtype_env_wins_over_arg(monkeypatch):
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    assert resolve_dtype("float64") == np.float32


def test_resolve_dtype_rejects_non_compute_dtypes(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    with pytest.raises(ValueError, match="float16"):
        resolve_dtype("float16")
    with pytest.raises(ValueError):
        resolve_dtype("int32")


def test_resolve_dtype_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(DTYPE_ENV_VAR, "float16")
    with pytest.raises(ValueError, match=DTYPE_ENV_VAR):
        resolve_dtype("float64")


# ----------------------------------------------------------------------
# CLI: no subcommand takes --kernels any more (REPRO_KERNELS is the seam).


def test_cli_has_no_kernels_flag():
    from repro.cli import build_parser

    for argv in (["shear"], ["tube"], ["channel"], ["profile", "tube"],
                 ["trace", "tube"], ["kernels"]):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--kernels", "numpy"])

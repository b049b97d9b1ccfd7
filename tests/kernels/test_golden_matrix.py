"""Golden-trajectory matrix over kernels backends × executor backends.

The reference is the serial stepper on the NumPy kernels.  Every
combination of kernels backend and FSI executor backend ("serial" |
"threads" | "processes") must reproduce it bitwise: the dispatch layer is
a pure refactor.  The mid-run population-change leg exercises the
stencil rebuild and shared-memory remap path.

The kernels choice travels via REPRO_KERNELS (env-wins), exactly how a
CI leg or an operator selects it.
"""

import numpy as np
import pytest

from repro.fsi import CellManager, FSIStepper
from repro.kernels import ENV_VAR
from repro.lbm import Grid
from repro.membrane import make_rbc
from repro.membrane.cell import random_rotation
from repro.units import UnitSystem

#: Scaled-down hotpath-bench configuration (kept small: the matrix below
#: runs it for every kernels × executor combination).
SHAPE = (16, 16, 16)
N_CELLS = 3
SUBDIVISIONS = 1
SEED = 7
N_STEPS = 16

#: Kernels backends held bitwise to the reference.
KERNELS_BACKENDS = [pytest.param("numpy", id="numpy")]

EXECUTORS = [("serial", None), ("threads", 2), ("processes", 2)]


def build_stepper(backend=None, workers=None) -> FSIStepper:
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    grid = Grid(SHAPE, tau=1.0, origin=np.zeros(3), spacing=dx)
    manager = CellManager()
    rng = np.random.default_rng(SEED)
    extent = dx * (np.asarray(SHAPE) - 1)
    for _ in range(N_CELLS):
        center = extent * (0.25 + 0.5 * rng.random(3))
        manager.add(
            make_rbc(
                center,
                global_id=manager.allocate_id(),
                rotation=random_rotation(rng),
                subdivisions=SUBDIVISIONS,
            )
        )
    return FSIStepper(
        grid,
        units,
        manager,
        mode="wrap",
        body_force=np.array([500.0, 0.0, 0.0]),
        backend=backend,
        workers=workers,
    )


def _trajectory(st: FSIStepper, n_steps: int, every: int = 4):
    snaps = []
    for k in range(n_steps):
        st.step(1)
        if (k + 1) % every == 0 or k == n_steps - 1:
            verts, _, _ = st.cells.packed_vertices()
            snaps.append(verts.copy())
    return snaps, st.grid.f.copy()


def _extra_cell(st: FSIStepper):
    dx = st.units.dx
    extent = dx * (np.asarray(SHAPE) - 1)
    rng = np.random.default_rng(123)
    return make_rbc(
        extent * (0.3 + 0.4 * rng.random(3)),
        global_id=st.cells.allocate_id(),
        rotation=random_rotation(rng),
        subdivisions=SUBDIVISIONS,
    )


def _assert_matches(got, want, kernels_backend, label):
    assert np.array_equal(got, want), (
        f"{label}: {kernels_backend} leg must be bitwise"
    )


@pytest.fixture(scope="module")
def reference_trajectory():
    """Serial trajectory on the NumPy kernels, env pinned explicitly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_VAR, "numpy")
        st = build_stepper(backend="serial")
        snaps, f = _trajectory(st, N_STEPS)
        st.close()
    return snaps, f


@pytest.fixture(scope="module")
def reference_population_change():
    """Serial NumPy-kernels schedule with a cell added mid-run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_VAR, "numpy")
        st = build_stepper(backend="serial")
        st.step(6)
        st.cells.add(_extra_cell(st))
        st.step(6)
        verts, _, _ = st.cells.packed_vertices()
        verts = verts.copy()
        f = st.grid.f.copy()
        st.close()
    return verts, f


@pytest.mark.parametrize("exec_backend,workers", EXECUTORS)
@pytest.mark.parametrize("kernels_backend", KERNELS_BACKENDS)
def test_kernels_executor_matrix(
    kernels_backend, exec_backend, workers, reference_trajectory, monkeypatch
):
    ref_snaps, ref_f = reference_trajectory
    monkeypatch.setenv(ENV_VAR, kernels_backend)
    with build_stepper(backend=exec_backend, workers=workers) as st:
        assert st.kernels == kernels_backend
        snaps, f = _trajectory(st, N_STEPS)
    assert len(snaps) == len(ref_snaps)
    for k, (got, want) in enumerate(zip(snaps, ref_snaps)):
        _assert_matches(got, want, kernels_backend, f"vertices@snap{k}")
    _assert_matches(f, ref_f, kernels_backend, "populations")


@pytest.mark.parametrize("exec_backend,workers",
                         [("serial", None), ("processes", 2)])
@pytest.mark.parametrize("kernels_backend", KERNELS_BACKENDS)
def test_population_change_midrun_matrix(
    kernels_backend, exec_backend, workers,
    reference_population_change, monkeypatch,
):
    ref_verts, ref_f = reference_population_change
    monkeypatch.setenv(ENV_VAR, kernels_backend)
    with build_stepper(backend=exec_backend, workers=workers) as st:
        st.step(6)
        st.cells.add(_extra_cell(st))
        st.step(6)
        verts, _, _ = st.cells.packed_vertices()
        _assert_matches(verts, ref_verts, kernels_backend, "vertices")
        _assert_matches(st.grid.f, ref_f, kernels_backend, "populations")


def test_float32_golden_trajectory_tolerance(
    reference_trajectory, monkeypatch
):
    """REPRO_DTYPE=float32 tracks the float64 reference to single-precision
    tolerance: the Eulerian state computes in float32 while the Lagrangian
    membrane state stays float64 (docs/performance.md, "Compute dtype")."""
    from repro.kernels import DTYPE_ENV_VAR

    ref_snaps, ref_f = reference_trajectory
    monkeypatch.setenv(ENV_VAR, "numpy")
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    with build_stepper(backend="serial") as st:
        assert st.grid.dtype == np.float32
        snaps, f = _trajectory(st, N_STEPS)
    assert f.dtype == np.float32
    assert snaps[-1].dtype == np.float64  # Lagrangian stays double
    assert len(snaps) == len(ref_snaps)
    for k, (got, want) in enumerate(zip(snaps, ref_snaps)):
        scale = np.abs(want).max()
        rel = np.abs(got - want).max() / scale
        assert rel < 1e-3, f"vertices@snap{k}: rel diff {rel:.3e}"
    scale = np.abs(ref_f).max()
    rel = np.abs(f.astype(np.float64) - ref_f).max() / scale
    assert rel < 1e-3, f"populations: rel diff {rel:.3e}"


def test_distributed_solver_accepts_kernels(monkeypatch):
    """The block-decomposed LBM path resolves and threads the kernels
    choice through its chunk runners (numpy leg: bitwise vs LBMSolver)."""
    from repro.lbm.solver import LBMSolver
    from repro.parallel import DistributedLBMSolver

    monkeypatch.delenv(ENV_VAR, raising=False)
    shape = (12, 8, 8)
    rng = np.random.default_rng(3)
    f0 = 1.0 / 19.0 + 0.01 * rng.random((19,) + shape)

    g_ref = Grid(shape, tau=0.9)
    g_ref.f[:] = f0
    g_ref.mark_f_modified()
    ref = LBMSolver(g_ref, kernels="numpy")
    for _ in range(5):
        ref.step()

    dist = DistributedLBMSolver(shape, tau=0.9, n_tasks=4,
                                backend="serial", kernels="numpy")
    assert dist.kernels == "numpy"
    dist.scatter(f0)
    dist.step(5)
    assert np.array_equal(dist.gather(), g_ref.f)
    dist.close()

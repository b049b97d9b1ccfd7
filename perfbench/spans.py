"""Layer spans recorded from outside the simulator.

:class:`Tracer` wraps the public entry points of each ``repro`` layer with a
span of :class:`repro.telemetry.SpanRecorder` while it is installed, and
restores the originals on :meth:`Tracer.uninstall`.  Spans stay in memory
(name, start, end, parent, run id) and are written once, at the end, with
:func:`repro.telemetry.write_chrome_trace`.  Nothing in ``src/`` changes.

Span names are the layer names the per-layer metrics use:

======================  =================================================
``apr.step``            ``APRSimulation.step`` (one coarse APR step)
``coupling.step``       ``RefinedRegion.step``
``coupling.init``       ``RefinedRegion.initialize_fine_from_coarse``
``lbm.coarse``          ``LBMSolver.step`` of the coarse solver
``lbm.fine``            ``LBMSolver.step`` of any other (fine) solver
``fsi.step``            ``FSIStepper.step``
``fsi.forces``          ``ParallelFSIRuntime.total_forces``
``fsi.spread``          ``ParallelFSIRuntime.begin_step`` and ``spread``
``fsi.interp``          ``ParallelFSIRuntime.interpolate``
``fsi.advect``          ``CellManager.update_vertices``, ``set_velocities``
``pool.spawn``          ``ParallelFSIRuntime.__init__`` (first access to
                        ``FSIStepper.runtime``)
``maintain``            ``HematocritController.maintain``
``measure``             ``APRSimulation.window_hematocrit``
``window_move``         ``APRSimulation.move_window``
``setup.voxelize``      ``solid_mask_from_sdf`` (coarse and fine grids)
``setup.tile``          ``RBCTile.build``
``setup.fill``          ``APRSimulation.fill_window``
======================  =================================================
"""

from __future__ import annotations

import collections
import contextlib
import functools

from repro.core import apr as apr_module
from repro.core.apr import APRSimulation
from repro.core.refinement import RefinedRegion
from repro.core.seeding import HematocritController, RBCTile
from repro.fsi.cell_manager import CellManager
from repro.fsi.stepper import FSIStepper
from repro.lbm.solver import LBMSolver
from repro.parallel.fsi import ParallelFSIRuntime
from repro.telemetry import NullTelemetry, SpanRecorder, active

import workloads


class _CountingTelemetry(NullTelemetry):
    """No-op telemetry that keeps the counters the library increments
    (``ibm.clipped_markers``); phases stay free and diagnostics stay off."""

    def __init__(self, counts: collections.Counter):
        self.counts = counts

    def inc(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class Tracer:
    """Installs layer spans; one instance per benchmark run."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.counts: collections.Counter = collections.Counter()
        self.run_id = 0
        self.coarse = None  # the coarse LBMSolver of the traced episode
        #: Counters and coarse steps of the timed steps only (no set-up).
        self.timed_counts: collections.Counter = collections.Counter()
        self.timed_steps = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def _wrap(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        rec = self.rec
        run = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:  # count only, no span
                result = fn(*args, **kwargs)
            else:
                label = name(args) if callable(name) else name
                with rec.span(label, args={"run": run.run_id}):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def lbm_name(args):
            return "lbm.coarse" if args[0] is self.coarse else "lbm.fine"

        def count_lbm(args, _):
            grid = args[0].grid
            counts["lbm.updates"] += grid.n_fluid
            if args[0] is not self.coarse:
                counts["lbm.fine.nodes"] += grid.f[0].size
                counts["lbm.fine.bytes"] += _lbm_step_bytes(grid)

        def count_markers(args, _):
            counts["fsi.stencils"] += 1
            counts["fsi.markers"] += len(args[1])

        def count_cells(args, _):
            counts["fsi.cells"] += args[0].cells.n_cells
            counts["fsi.steps"] += 1

        def count_maintain(_, inserted):
            counts["maintain.inserted"] += inserted

        def count_removed(_, removed):
            counts["maintain.removed"] += removed

        def count_move(_, report):
            counts["window_move.captured"] += report.n_captured
            counts["window_move.filled"] += report.n_filled
            counts["window_move.inserted"] += report.n_inserted

        self._wrap(APRSimulation, "step", "apr.step")
        self._wrap(APRSimulation, "move_window", "window_move", count_move)
        self._wrap(APRSimulation, "window_hematocrit", "measure")
        self._wrap(APRSimulation, "fill_window", "setup.fill")
        self._wrap(RefinedRegion, "step", "coupling.step")
        self._wrap(RefinedRegion, "initialize_fine_from_coarse", "coupling.init")
        self._wrap(LBMSolver, "step", lbm_name, count_lbm)
        self._wrap(FSIStepper, "step", "fsi.step", count_cells)
        self._wrap(ParallelFSIRuntime, "__init__", "pool.spawn")
        self._wrap(ParallelFSIRuntime, "total_forces", "fsi.forces")
        self._wrap(ParallelFSIRuntime, "begin_step", "fsi.spread", count_markers)
        self._wrap(ParallelFSIRuntime, "spread", "fsi.spread")
        self._wrap(ParallelFSIRuntime, "interpolate", "fsi.interp")
        self._wrap(CellManager, "update_vertices", "fsi.advect")
        self._wrap(CellManager, "set_velocities", "fsi.advect")
        self._wrap(HematocritController, "maintain", "maintain", count_maintain)
        self._wrap(HematocritController, "remove_departed", None, count_removed)
        self._wrap(RBCTile, "build", "setup.tile")
        # The voxelizer is a function imported by name into both modules.
        self._wrap(apr_module, "solid_mask_from_sdf", "setup.voxelize")
        self._wrap(workloads, "solid_mask_from_sdf", "setup.voxelize")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, run_id: int):
        """Spans and library counters on for the duration of the block."""
        self.run_id = run_id
        self.install()
        try:
            with active(_CountingTelemetry(self.counts)):
                yield self
        finally:
            self.uninstall()

    def span(self, name: str):
        """A span opened by the benchmark itself (``setup`` roots)."""
        return self.rec.span(name, args={"run": self.run_id})


def _lbm_step_bytes(grid) -> int:
    """Bytes one LBM step moves, computed from array sizes.

    Collide reads ``f`` and the force field and writes ``f_post``; the pull
    stream reads ``f_post`` and writes ``f``: four passes over the 19
    populations plus one over the three force components.
    """
    f = grid.f
    return f.itemsize * f[0].size * (4 * f.shape[0] + 3)

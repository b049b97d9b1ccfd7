"""Inputs of the APR-step benchmark, built from a seed through the public API.

Each workload builds a fresh :class:`repro.core.apr.APRSimulation` from the
same classes the experiment modules use (``repro.experiments.tube_window``
for Fig. 5, ``repro.experiments.expanding_channel`` for Fig. 6), so the
benchmark can time set-up and every coarse step separately.  The seed is the
only input that varies between runs; it sets the RBC tile and the
controller's random stream (``APRConfig.seed``).

* ``tube`` / ``tube_pool2`` — Fig. 5 defaults: Ht 0.2, n = 4, a 49^3 fine
  window of about 26 RBCs at subdivision 2, stationary window.  ``tube_pool2``
  runs the FSI runtime on the ``processes`` backend with two workers.
* ``channel_moving`` — Fig. 6 APR channel: n = 2, 31x31x75 coarse lattice
  with a velocity inlet and an outflow, a 45^3 fine window that follows the
  CTC on a steady cadence (see ``CHANNEL_PARAMS`` and ``MOVE_THRESHOLD``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.analytics.rheology import (
    discharge_from_tube_hematocrit,
    pries_relative_viscosity,
)
from repro.constants import (
    CP_TO_PA_S,
    PLASMA_VISCOSITY_CP,
    WHOLE_BLOOD_VISCOSITY_CP,
)
from repro.core.apr import APRConfig, APRSimulation
from repro.core.window import WindowSpec
from repro.experiments.expanding_channel import (
    ChannelParams,
    _channel,
    _inlet_profile,
    _warm_start,
)
from repro.geometry.primitives import Tube
from repro.geometry.voxelize import solid_mask_from_sdf
from repro.lbm.boundaries import BounceBackWalls, OutflowOutlet, VelocityInlet
from repro.lbm.grid import Grid
from repro.lbm.solver import LBMSolver
from repro.membrane.cell import make_ctc
from repro.units import UnitSystem

RHO = 1025.0

#: Fig. 6 channel sized so the window moves on a steady cadence.  The CTC
#: starts on the axis 26 um downstream, just past where a window centred on
#: it would be clamped at the inlet.  ``tau_fine`` 2.0 lengthens the coarse
#: time step threefold, so at a 0.2 m/s mean inlet velocity (peak lattice
#: velocity about 0.17) the CTC advances 0.1-0.2 um per coarse step.  With
#: the default ``tau_fine`` it advances about 0.028 um per step at 0.1 m/s,
#: far short of the 2 um coarse spacing a move snaps to.
CHANNEL_PARAMS = ChannelParams(
    inlet_velocity=0.2, ctc_z0=26e-6, ctc_radial_offset=0.0, tau_fine=2.0
)

#: The window re-centres once the CTC is this far (Chebyshev) from the
#: window centre.  Above half the coarse spacing, so every move snaps to a
#: new coarse node: no zero-displacement moves.
MOVE_THRESHOLD = 1.5e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which simulation, which FSI runtime."""

    name: str
    build: object  # (seed) -> APRSimulation
    fsi_backend: str  # REPRO_PARALLEL_BACKEND while building
    fsi_workers: int
    #: Coarse steps timed per episode (after set-up and the first step).
    episode_steps: int
    #: Entry of ``reference.json`` the checks compare against.
    reference: str


def build_tube(seed: int) -> APRSimulation:
    """Fig. 5 tube window (``run_tube_window`` defaults), window filled."""
    hematocrit = 0.2
    tube_diameter, tube_length, dx = 40e-6, 80e-6, 2.0e-6
    w = 0.3 * tube_diameter
    spec = WindowSpec(proper_side=w, onramp_width=w / 6.0, insertion_width=w / 3.0)
    mu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S
    d_um = tube_diameter * 1e6
    ht_d = discharge_from_tube_hematocrit(d_um, hematocrit)
    mu_bulk = float(pries_relative_viscosity(d_um, ht_d)) * mu_plasma
    nu_bulk, nu_plasma = mu_bulk / RHO, mu_plasma / RHO

    radius = tube_diameter / 2.0
    nxy = int(round(tube_diameter / dx)) + 3
    nz = int(round(tube_length / dx))
    shape = (nxy, nxy, nz)
    origin = np.array([-(nxy - 1) / 2.0 * dx, -(nxy - 1) / 2.0 * dx, 0.0])
    tau_c = 1.0
    units = UnitSystem(dx, (tau_c - 0.5) / 3.0 * dx**2 / nu_bulk, RHO)
    tube = Tube(radius=radius, axis=2, center=(0.0, 0.0))
    cg = Grid(shape, tau=tau_c, origin=origin, spacing=dx)
    cg.solid = solid_mask_from_sdf(tube, shape, origin, dx)
    u_mean = 250.0 * tube_diameter
    force_density = 8.0 * mu_bulk * u_mean / radius**2
    cg.force[2] = units.force_density_to_lattice(force_density)
    coarse = LBMSolver(cg, [BounceBackWalls(cg.solid)])
    pos = cg.node_positions()
    r2 = pos[..., 0] ** 2 + pos[..., 1] ** 2
    vel = np.zeros((3,) + shape)
    vel[2] = units.velocity_to_lattice(2.0 * u_mean) * np.clip(
        1.0 - r2 / radius**2, 0.0, None
    )
    cg.init_equilibrium(1.0, vel)
    cfg = APRConfig(
        window_spec=spec,
        refinement=4,
        nu_bulk=nu_bulk,
        nu_window=nu_plasma,
        rho=RHO,
        hematocrit=hematocrit,
        rbc_subdivisions=2,
        maintain_interval=10,
        seed=seed,
    )
    sim = APRSimulation(
        cfg,
        coarse,
        window_center=np.array([0.0, 0.0, (nz - 1) / 2.0 * dx]),
        coarse_units=units,
        geometry=tube,
        window_body_force=np.array([0.0, 0.0, force_density]),
    )
    sim.fill_window()
    return sim


def build_channel(seed: int) -> APRSimulation:
    """Fig. 6 APR expanding channel with a CTC, window filled.

    The lattice set-up follows ``run_expanding_channel_apr`` and reuses its
    helpers; the window spec and CTC are the same, only the trigger distance
    is set (``MOVE_THRESHOLD``).
    """
    p = CHANNEL_PARAMS
    channel = _channel(p)
    nu_plasma = PLASMA_VISCOSITY_CP * CP_TO_PA_S / RHO
    nu_blood = WHOLE_BLOOD_VISCOSITY_CP * CP_TO_PA_S / RHO
    n = p.refinement
    dx = p.fine_spacing * n
    half = p.radius_out + 3 * dx
    nxy = int(round(2 * half / dx)) + 1
    nz = int(round(p.length / dx))
    origin = np.array([-half, -half, 0.0])
    tau_c = 0.5 + (p.tau_fine - 0.5) / (n * (nu_plasma / nu_blood))
    units = UnitSystem(dx, (tau_c - 0.5) / 3.0 * dx**2 / nu_blood, RHO)
    cg = Grid((nxy, nxy, nz), tau=tau_c, origin=origin, spacing=dx)
    cg.solid = solid_mask_from_sdf(channel, cg.shape, origin, dx)
    _warm_start(cg, units, p, channel)
    coarse = LBMSolver(
        cg,
        [
            BounceBackWalls(cg.solid),
            VelocityInlet(axis=2, side="low", velocity=_inlet_profile(cg, units, p)),
            OutflowOutlet(axis=2, side="high"),
        ],
    )
    proper = 2.5 * p.ctc_diameter
    spec = WindowSpec(
        proper_side=proper, onramp_width=p.rbc_diameter, insertion_width=p.rbc_diameter
    )
    cfg = APRConfig(
        window_spec=spec,
        refinement=n,
        nu_bulk=nu_blood,
        nu_window=nu_plasma,
        rho=RHO,
        hematocrit=p.hematocrit,
        rbc_diameter=p.rbc_diameter,
        rbc_subdivisions=p.rbc_subdivisions,
        maintain_interval=10,
        trigger_distance=0.5 * proper - MOVE_THRESHOLD,
        seed=seed,
    )
    ctc_center = np.array([p.ctc_radial_offset, 0.0, p.ctc_z0])
    sim = APRSimulation(
        cfg, coarse, window_center=ctc_center, coarse_units=units, geometry=channel
    )
    sim.add_ctc(
        make_ctc(
            ctc_center,
            global_id=sim.cells.allocate_id(),
            diameter=p.ctc_diameter,
            subdivisions=p.rbc_subdivisions,
        )
    )
    sim.fill_window()
    return sim


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tube", build_tube, "serial", 1, 10, "tube"),
        # Same inputs as ``tube``; the pool must reproduce its answers.
        Workload("tube_pool2", build_tube, "processes", 2, 10, "tube"),
        Workload("channel_moving", build_channel, "serial", 1, 20, "channel"),
    )
}


def build(workload: Workload, seed: int) -> APRSimulation:
    """Build ``workload``'s simulation with its FSI runtime selected.

    ``APRSimulation`` creates its ``FSIStepper`` without backend arguments,
    so the runtime is chosen through ``REPRO_PARALLEL_*``, which is read when
    each stepper is constructed (at every window placement).
    """
    os.environ["REPRO_PARALLEL_BACKEND"] = workload.fsi_backend
    os.environ["REPRO_PARALLEL_WORKERS"] = str(workload.fsi_workers)
    return workload.build(seed)

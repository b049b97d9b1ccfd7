"""Correctness checks of one benchmark episode.

Every episode ends with these checks; a failed check makes all of the
episode's steps count as failed.  Cell counts, window hematocrit, mass drift
and the move count are compared against reference values recorded from
this repository's code over many seeds (``reference.json``, written by
``record_reference.py``), not against the physical targets: the toy-scale
channel maintains a window Ht near 0.045 against its 0.15 target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Slack around the recorded ranges.
COUNT_SLACK = (4, 0.2)  # absolute cells, share of the recorded bound
HT_SLACK = 0.03  # absolute window hematocrit
DRIFT_FACTOR = 2.0  # times the largest recorded mean-density drift
DRIFT_FLOOR = 1e-4


@dataclass
class Observation:
    """What an episode leaves behind for the checks."""

    cells_setup: int
    cells_end: int
    window_ht_end: float
    coarse_rho_drift: float
    fine_rho_drift: float
    finite: bool
    moves: int
    zero_moves: int  # moves with zero displacement


def mean_density(solver) -> float:
    """Mass per fluid node of a lattice."""
    return solver.mass() / solver.grid.n_fluid


def populations_finite(sim) -> bool:
    return bool(
        np.isfinite(sim.coarse.grid.f).all() and np.isfinite(sim.fine.grid.f).all()
    )


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _count_band(lo: int, hi: int) -> tuple[float, float]:
    absolute, share = COUNT_SLACK
    return lo - max(absolute, share * lo), hi + max(absolute, share * hi)


def check(obs: Observation, ref: dict) -> list[str]:
    """Problems found in ``obs`` against the workload's reference entry."""
    problems = []
    if not obs.finite:
        problems.append("non-finite populations")
    for key in ("cells_setup", "cells_end"):
        lo, hi = _count_band(*ref[key])
        if not lo <= getattr(obs, key) <= hi:
            problems.append(f"{key}={getattr(obs, key)} outside [{lo:.0f}, {hi:.0f}]")
    lo, hi = ref["window_ht_end"]
    if not lo - HT_SLACK <= obs.window_ht_end <= hi + HT_SLACK:
        problems.append(
            f"window_ht_end={obs.window_ht_end:.4f} outside "
            f"[{lo - HT_SLACK:.4f}, {hi + HT_SLACK:.4f}]"
        )
    for key in ("coarse_rho_drift", "fine_rho_drift"):
        limit = max(DRIFT_FACTOR * ref[key], DRIFT_FLOOR)
        if not getattr(obs, key) <= limit:
            problems.append(f"{key}={getattr(obs, key):.3g} above {limit:.3g}")
    if obs.moves != ref["moves_per_episode"]:
        problems.append(
            f"{obs.moves} window moves, reference {ref['moves_per_episode']}"
        )
    if obs.zero_moves:
        problems.append(f"{obs.zero_moves} window moves with zero displacement")
    return problems

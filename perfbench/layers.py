"""Per-layer metrics of a traced run, from the spans of :mod:`spans`.

Step metrics (``*_ms_per_step``) are self times summed over the timed coarse
steps of the traced episodes and divided by their number, so over all layers
they add up to the traced mean step.  Set-up metrics come from the ``setup``
span trees; spans outside a ``setup`` or ``apr.step`` tree are ignored.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import stats


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(tracer, episodes) -> dict[str, tuple[float, str]]:
    spans = tracer.rec.spans
    by_id = {s.span_id: s for s in spans}
    self_s = stats.self_times(spans)
    roots = stats.root_of(spans)
    step_self: dict[str, float] = defaultdict(float)
    step_dur: dict[str, list[float]] = defaultdict(list)
    setup_dur: dict[str, float] = defaultdict(float)
    all_dur: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        root = by_id[roots[s.span_id]].name
        all_dur[s.name].append(s.t1 - s.t0)
        if root == "apr.step":
            step_self[s.name] += self_s[s.span_id]
            step_dur[s.name].append(s.t1 - s.t0)
        elif root == "setup":
            setup_dur[s.name] += s.t1 - s.t0
    steps = len(step_dur["apr.step"])
    if steps != tracer.timed_steps:
        raise RuntimeError(
            f"{steps} apr.step span trees for {tracer.timed_steps} timed steps"
        )
    c = tracer.timed_counts
    traced = [ep for ep in episodes if ep.traced]
    plain = [ep for ep in episodes if not ep.traced]
    setups = len(traced)

    def ms(name: str) -> float:
        return 1e3 * step_self[name] / steps

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fine_s = sum(step_dur["lbm.fine"])
    # Host-scaled, so the overhead compares like with like when the host's
    # speed moves between the traced and the untraced episodes.
    traced_steps = [t for ep in traced for t in ep.host_step_s]
    plain_steps = [t for ep in plain for t in ep.host_step_s]
    overhead = median(traced_steps) / median(plain_steps)
    host_scale = sum(traced_steps) / sum(t for ep in traced for t in ep.step_s)
    layer_sum = sum(step_self.values()) / steps
    moves = step_dur["window_move"]
    layout = traced[-1].layout
    return {
        "lbm.fine.ms_per_step": (ms("lbm.fine"), "ms"),
        "lbm.fine.ns_per_node": (1e9 * ratio(fine_s, c["lbm.fine.nodes"]), "ns"),
        "lbm.fine.computed_gb_per_s": (ratio(c["lbm.fine.bytes"], fine_s) / 1e9, "GB/s"),
        "lbm.coarse.ms_per_step": (ms("lbm.coarse"), "ms"),
        "lbm.updates": (c["lbm.updates"], "count"),
        "coupling.self_ms_per_step": (ms("coupling.step"), "ms"),
        "coupling.init_ms_per_placement": (1e3 * _mean(all_dur["coupling.init"]), "ms"),
        "coupling.ghost_nodes": (layout["ghost_nodes"], "count"),
        "coupling.restrict_nodes": (layout["restrict_nodes"], "count"),
        "fsi.forces_ms_per_step": (ms("fsi.forces"), "ms"),
        "fsi.spread_ms_per_step": (ms("fsi.spread"), "ms"),
        "fsi.interp_ms_per_step": (ms("fsi.interp"), "ms"),
        "fsi.advect_ms_per_step": (ms("fsi.advect"), "ms"),
        "fsi.self_ms_per_step": (ms("fsi.step"), "ms"),
        "fsi.markers": (ratio(c["fsi.markers"], c["fsi.stencils"]), "count"),
        "fsi.cells": (ratio(c["fsi.cells"], c["fsi.steps"]), "count"),
        "ibm.clipped_frac": (ratio(c["ibm.clipped_markers"], c["fsi.markers"]), "ratio"),
        "pool.spawn_s": (setup_dur["pool.spawn"] / setups, "s"),
        "pool.workers": (layout["workers"], "count"),
        "maintain.ms_per_call": (1e3 * _mean(step_dur["maintain"]), "ms"),
        "maintain.calls": (len(step_dur["maintain"]), "count"),
        "maintain.inserted": (c["maintain.inserted"], "count"),
        "maintain.removed": (c["maintain.removed"], "count"),
        "window_move.ms_per_move": (1e3 * _mean(moves), "ms"),
        "window_move.count": (len(moves), "count"),
        "window_move.captured": (c["window_move.captured"], "count"),
        "window_move.filled": (c["window_move.filled"], "count"),
        "window_move.inserted": (c["window_move.inserted"], "count"),
        "apr.self_ms_per_step": (ms("apr.step"), "ms"),
        "measure.ms_per_call": (1e3 * _mean(step_dur["measure"]), "ms"),
        "setup.voxelize_s": (setup_dur["setup.voxelize"] / setups, "s"),
        "setup.tile_s": (setup_dur["setup.tile"] / setups, "s"),
        "setup.fill_s": (setup_dur["setup.fill"] / setups, "s"),
        "trace.overhead": (overhead, "ratio"),
        # Layer self times (wall, scaled like the traced steps they sit in)
        # over the untraced mean step, net of the overhead: 1.0 when the
        # layers account for the whole untraced step.
        "trace.accounted_frac": (
            layer_sum * host_scale / (_mean(plain_steps) * overhead),
            "ratio",
        ),
    }

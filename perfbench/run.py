"""APR-step benchmark: one coupled coarse step of the adaptive-physics-
refinement simulator, timed end to end and, in a traced run, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload tube --seed 1 --seconds 30 --trace 0

A run is a series of *episodes*.  Each episode builds a fresh simulation
from an episode seed (set-up, timed up to the end of the first coarse step,
so lazy runtime/pool creation counts as set-up), times ``episode_steps``
further coarse steps one by one, then checks the results.  Episodes repeat
until ``--seconds`` would be exceeded, with a minimum of ``MIN_EPISODES``.

The host's speed drifts by a third over minutes, so a short fixed numpy
probe (``machine.probe_ms``) runs before set-up and after every step, and
each timing is scaled to a reference host speed by the probes around it
(``machine.host_scaled``).  The end-to-end timings are these host-scaled
times; the raw wall times are in the detail record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON detail record (machine block, host-speed probes, the tail
percentile and sample counts, per-episode observations).

See ``perfbench/NOTES.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

import machine
import stats

# Before numpy is imported anywhere: one BLAS/OpenMP thread per process, so
# the benchmark and its pool workers never keep more threads busy than cores.
REQUESTED_THREADS = machine.pin_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Episodes every run makes, however short ``--seconds`` is: enough step
#: samples for a tail percentile and several set-up samples.
MIN_EPISODES = 3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


@dataclass
class Episode:
    """Measurements and check results of one episode."""

    seed: int
    traced: bool
    setup_s: float = 0.0  # wall time
    step_s: list[float] = field(default_factory=list)  # wall times
    # The same, scaled to the reference host speed (``machine.host_scaled``).
    host_setup_s: float = 0.0
    host_step_s: list[float] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)
    maintain_steps: int = 0
    move_steps: int = 0
    special_steps: int = 0  # maintain or move
    rss_mb: float = 0.0
    observation: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layout: dict = field(default_factory=dict)


def run_episode(wl, seed: int, ref: dict, tracer=None) -> Episode:
    """Set up, time ``wl.episode_steps`` coarse steps, check, tear down."""
    import multiprocessing

    import checks
    import workloads

    ep = Episode(seed=seed, traced=tracer is not None)
    traced = tracer.installed(seed) if tracer else contextlib.nullcontext()

    def probe() -> float:
        return machine.probe_ms(machine.STEP_PROBE_REPEATS)

    with traced:
        probe_prev = probe()
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            sim = workloads.build(wl, seed)
            if tracer:
                tracer.coarse = sim.coarse
            sim.step(1)
        ep.setup_s = time.perf_counter() - t0
        probe_next = probe()
        ep.host_setup_s = machine.host_scaled(ep.setup_s, probe_prev, probe_next)
        probe_prev = probe_next
        try:
            cells_setup = sim.cells.n_cells
            rho_c0 = checks.mean_density(sim.coarse)
            rho_f0 = checks.mean_density(sim.fine.solver)
            counts0 = tracer.counts.copy() if tracer else None
            n = sim.config.refinement
            interval = sim.config.maintain_interval
            for _ in range(wl.episode_steps):
                updates = sim.coarse.grid.n_fluid + n * sim.fine.grid.n_fluid
                moves0 = len(sim.move_reports)
                t = time.perf_counter()
                sim.step(1)
                ep.step_s.append(time.perf_counter() - t)
                probe_next = probe()
                ep.host_step_s.append(
                    machine.host_scaled(ep.step_s[-1], probe_prev, probe_next)
                )
                probe_prev = probe_next
                ep.updates.append(updates)
                maintain = sim.coarse_step_count % interval == 0
                moved = len(sim.move_reports) > moves0
                ep.maintain_steps += maintain
                ep.move_steps += moved
                ep.special_steps += maintain or moved
            if tracer:
                tracer.timed_counts.update(tracer.counts - counts0)
                tracer.timed_steps += wl.episode_steps
        except Exception as exc:  # a failing step fails the episode
            ep.problems.append(f"step raised {type(exc).__name__}: {exc}")
    try:
        if not ep.problems:
            obs = checks.Observation(
                cells_setup=cells_setup,
                cells_end=sim.cells.n_cells,
                window_ht_end=sim.window_hematocrit(),
                coarse_rho_drift=abs(checks.mean_density(sim.coarse) / rho_c0 - 1),
                fine_rho_drift=abs(checks.mean_density(sim.fine.solver) / rho_f0 - 1),
                finite=checks.populations_finite(sim),
                moves=len(sim.move_reports),
                zero_moves=sum(
                    1 for r in sim.move_reports if not any(r.displacement)
                ),
            )
            ep.observation = asdict(obs)
            if ref is not None:
                ep.problems.extend(checks.check(obs, ref))
        ep.layout = _layout(sim)
        workers = [p.pid for p in multiprocessing.active_children()]
        ep.rss_mb = machine.peak_rss_mb(workers)
    finally:
        sim.close()
        # The simulation holds reference cycles; free it before the next
        # episode builds, so memory does not pile up across episodes.
        del sim
        gc.collect()
    return ep


def _layout(sim) -> dict:
    """Node counts of the coupling and the FSI runtime's worker count."""
    restrict = sim.coupling.restriction_coarse_indices
    return {
        # The ghost shell ``RefinedRegion`` interpolates into every substep.
        "ghost_nodes": int(len(sim.coupling._ghost_idx[0])),
        "restrict_nodes": 0 if restrict is None else int(len(restrict[0])),
        "workers": sim.fine.n_workers,
    }


def run(args) -> tuple[dict, dict]:
    """All episodes of one run; returns (result line, detail record)."""
    import checks
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"pick one of {sorted(workloads.WORKLOADS)}"
        )
    ref = checks.load_reference()[wl.reference]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine.machine_block(REQUESTED_THREADS),
        "probe_before": machine.host_probe(),
    }
    seeds = iter(stats.episode_seeds(args.seed, 1000))
    # A first set-up in a fresh process runs cold (page faults, first-use
    # caches); build one and discard it so every timed set-up starts warm.
    warm = workloads.build(wl, next(seeds))
    warm.step(1)
    warm.close()
    del warm
    gc.collect()
    episodes: list[Episode] = []
    t_start = time.perf_counter()
    while True:
        k = len(episodes)
        if k >= MIN_EPISODES:
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / k > args.seconds:
                break
        # Traced runs alternate untraced and traced episodes, so the
        # overhead compares steps taken under the same host conditions.
        use = tracer if (tracer is not None and k % 2 == 1) else None
        episodes.append(run_episode(wl, next(seeds), ref, use))
    detail["probe_after"] = machine.host_probe()

    tally = stats.Tally()
    for ep in episodes:
        tally.add_episode(1 + wl.episode_steps, ep.problems)
    detail["episodes"] = [
        {
            "seed": ep.seed,
            "traced": ep.traced,
            "setup_s": ep.setup_s,
            "host_setup_s": ep.host_setup_s,
            "step_ms_p50": 1e3 * median(ep.step_s) if ep.step_s else None,
            "host_step_ms_p50": (
                1e3 * median(ep.host_step_s) if ep.host_step_s else None
            ),
            "maintain_steps": ep.maintain_steps,
            "move_steps": ep.move_steps,
            "rss_mb": ep.rss_mb,
            "observation": ep.observation,
            "problems": ep.problems,
        }
        for ep in episodes
    ]
    if tracer is None:
        metrics, tail = end_to_end(episodes, MIN_EPISODES * wl.episode_steps)
        detail.update(tail)
    else:
        import layers

        metrics = layers.per_layer(tracer, episodes)
        OUT_DIR.mkdir(exist_ok=True)
        from repro.telemetry import write_chrome_trace

        path = write_chrome_trace(
            tracer.rec.spans,
            OUT_DIR / f"trace-{wl.name}-{args.seed}.json",
            meta={"workload": wl.name, "seed": args.seed},
        )
        detail["trace_file"] = str(path.relative_to(ROOT))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def end_to_end(episodes: list[Episode], min_samples: int) -> tuple[dict, dict]:
    """The five end-to-end metrics over the given (untraced) episodes.

    Timings are host-scaled (``machine.host_scaled``); the same statistics of
    the raw wall times go to the detail record.  The tail percentile is
    chosen for ``min_samples``, the step samples every run of the workload
    is guaranteed, so it does not change with the number of episodes a run
    happens to fit into ``--seconds``.
    """
    n = sum(len(ep.step_s) for ep in episodes)
    if n < min_samples:
        raise stats.TooFewSamples(f"{n} step samples, expected {min_samples}")
    shares = stats.class_shares(
        n,
        sum(ep.maintain_steps for ep in episodes),
        sum(ep.move_steps for ep in episodes),
        union=sum(ep.special_steps for ep in episodes),
    )
    p = stats.tail_percentile(min_samples, shares)
    updates = sum(u for ep in episodes for u in ep.updates)

    def timings(steps: list[float], setups: list[float]) -> dict:
        ms = [1e3 * s for s in steps]
        return {
            "lattice_updates_per_s": (updates / sum(steps), "1/s"),
            "step_ms_p50": (median(ms), "ms"),
            "step_ms_tail": (stats.percentile(ms, p), "ms"),
            "setup_s": (median(setups), "s"),
        }

    metrics = timings(
        [s for ep in episodes for s in ep.host_step_s],
        [ep.host_setup_s for ep in episodes],
    )
    metrics["peak_rss_mb"] = (max(ep.rss_mb for ep in episodes), "MB")
    wall = timings(
        [s for ep in episodes for s in ep.step_s], [ep.setup_s for ep in episodes]
    )
    tail = {
        "step_samples": n,
        "tail_percentile": p,
        "tail_samples_beyond": sum(
            1 for ep in episodes for x in ep.host_step_s
            if 1e3 * x > metrics["step_ms_tail"][0]
        ),
        "slow_class_shares": shares,
        "setup_samples": len(episodes),
        "wall": {k: v for k, (v, _) in wall.items()},
    }
    return metrics, tail


def _stop_resource_tracker() -> None:
    """Stop and reap the multiprocessing resource tracker, if one started
    (the FSI process pool starts it for its shared-memory segments)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"perfbench: repro imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message=".*IBM marker.*", category=RuntimeWarning)
    try:
        result, detail = run(args)
    finally:
        _stop_resource_tracker()
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())

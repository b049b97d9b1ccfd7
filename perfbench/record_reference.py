"""Record the reference values the benchmark's checks compare against.

Runs one episode for each of ``SEEDS`` seeds of every reference workload
with the checks off and writes the observed ranges to
``perfbench/reference.json``::

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter the simulated physics, and
say so in the change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings

import run  # pins BLAS threads before numpy loads
import stats

#: reference entry -> workload whose episodes define it
SOURCES = {"tube": "tube", "channel": "channel_moving"}
#: Episodes per reference entry; the check bands are the observed ranges.
SEEDS = 40


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks
    import workloads

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, cwd=run.ROOT,
    ).stdout.strip()
    warnings.filterwarnings("ignore", message=".*IBM marker.*")
    ref = {"recorded_at": commit, "seeds": SEEDS}
    seeds = stats.episode_seeds(0, SEEDS)
    for entry, name in SOURCES.items():
        wl = workloads.WORKLOADS[name]
        obs = []
        for seed in seeds:
            ep = run.run_episode(wl, seed, None)
            if ep.problems:
                raise SystemExit(f"{name} seed {seed}: {ep.problems}")
            obs.append(ep.observation)
            print(name, seed, json.dumps(ep.observation), flush=True)
        moves = {o["moves"] for o in obs}
        if len(moves) != 1:
            raise SystemExit(f"{name}: move count differs across seeds: {moves}")
        ref[entry] = {
            "cells_setup": [min(o["cells_setup"] for o in obs),
                            max(o["cells_setup"] for o in obs)],
            "cells_end": [min(o["cells_end"] for o in obs),
                          max(o["cells_end"] for o in obs)],
            "window_ht_end": [min(o["window_ht_end"] for o in obs),
                              max(o["window_ht_end"] for o in obs)],
            "coarse_rho_drift": max(o["coarse_rho_drift"] for o in obs),
            "fine_rho_drift": max(o["fine_rho_drift"] for o in obs),
            "moves_per_episode": moves.pop(),
        }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

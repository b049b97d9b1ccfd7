"""Parallel LBM runtime (in-process stand-in for Summit's MPI execution).

The paper runs HARVEY on Summit with 42 MPI tasks per node (36 CPU bulk
tasks + 6 GPU window tasks).  This package reproduces the *parallel
structure* and — since the executor backends landed — actually executes
it: a block domain decomposition with D3Q19 halo handling (optionally
direction-aware packed and fluid-weighted), a distributed LBM solver
that is bit-identical to the single-grid solver and steps its ranks
concurrently under a ``serial`` | ``threads`` | ``processes`` executor
(persistent shared-memory worker pool) in a barriered or fused
single-round-trip pipeline, per-task byte/message/slab accounting, the
paper's halo *recompute* mode, and the CPU/GPU task-mapping rules.
Measured communication volumes and wall-clock throughput feed the
scaling analysis of :mod:`repro.perfmodel` (Figs. 7-8); see
``docs/parallel_and_models.md`` and ``docs/performance.md``.
"""

from .decomposition import BlockDecomposition, balanced_dims, weighted_splits
from .halo import PACKED_QS, CommCounters, HaloAccountant, fill_rank_halo
from .executor import (
    BACKENDS,
    STEP_SUBPHASES,
    ProcessExecutor,
    RankBlocks,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_backend,
)
from .distributed import (
    HALO_MODES,
    DistributedLBMSolver,
    resolve_dist_overlap,
    resolve_halo_pack,
)
from .fsi import FSI_PHASES, ParallelFSIRuntime
from .measure import (
    halo_pack_comparison,
    measure_throughput,
    measured_scaling_curve,
    measured_weak_scaling,
    overlap_comparison,
)
from .taskmap import TaskMap, summit_task_map

__all__ = [
    "BACKENDS",
    "HALO_MODES",
    "STEP_SUBPHASES",
    "PACKED_QS",
    "BlockDecomposition",
    "balanced_dims",
    "weighted_splits",
    "CommCounters",
    "HaloAccountant",
    "fill_rank_halo",
    "RankBlocks",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "resolve_backend",
    "DistributedLBMSolver",
    "resolve_halo_pack",
    "resolve_dist_overlap",
    "FSI_PHASES",
    "ParallelFSIRuntime",
    "measure_throughput",
    "measured_scaling_curve",
    "measured_weak_scaling",
    "halo_pack_comparison",
    "overlap_comparison",
    "TaskMap",
    "summit_task_map",
]

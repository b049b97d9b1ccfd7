"""Pure helpers of the APR-step benchmark: percentiles, span self time,
failure counting and seed plumbing.  No numpy and no ``repro`` import, so
the unit tests in ``perfbench/tests`` run without the simulator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Percentiles the tail metric may report, highest first.
TAIL_CANDIDATES = (99, 95, 90, 85, 80, 75, 70, 65, 60, 55)
#: A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10
#: A candidate is skipped when its tail share (1 - p/100) lies closer than
#: this to the share of a special class of steps (maintain steps, move
#: steps, or both together): a percentile on the boundary between a fast and
#: a slow class of steps jumps between the two classes from run to run.
CLASS_GUARD = 0.05


class TooFewSamples(ValueError):
    """Raised when no tail percentile has enough samples beyond it."""


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int, class_shares=()) -> int:
    """The highest of :data:`TAIL_CANDIDATES` with :data:`MIN_BEYOND` of
    ``n`` samples beyond it.

    ``class_shares`` are the shares of steps that belong to slow classes
    (for example 0.1 when every tenth step is a maintain step); candidates
    whose tail share sits within :data:`CLASS_GUARD` of one are skipped.
    Raises :class:`TooFewSamples` when no candidate qualifies.
    """
    for p in TAIL_CANDIDATES:
        tail = 1.0 - p / 100.0
        if n * tail < MIN_BEYOND - 1e-9:
            continue
        if any(abs(tail - s) < CLASS_GUARD - 1e-9 for s in class_shares):
            continue
        return p
    raise TooFewSamples(
        f"{n} samples leave fewer than {MIN_BEYOND} beyond every allowed "
        f"percentile of {TAIL_CANDIDATES}"
    )


def class_shares(n: int, *class_counts: int, union: int | None = None) -> list[float]:
    """Shares of ``n`` steps taken by each slow class of steps, and by their
    union (steps in any class) when more than one class is present."""
    shares = [c / n for c in class_counts if c]
    if len(shares) > 1 and union:
        shares.append(union / n)
    return shares


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the time its children cover.

    ``spans`` are objects with ``span_id``, ``parent_id``, ``t0`` and ``t1``
    (``repro.telemetry.Span``).  Children of one parent run one after another
    in the main process, so their union is the sum of their durations, clipped to
    the parent's interval.
    """
    by_id = {s.span_id: s for s in spans}
    covered: dict[int, float] = {s.span_id: 0.0 for s in spans}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is None:
            continue
        lo, hi = max(s.t0, parent.t0), min(s.t1, parent.t1)
        covered[parent.span_id] += max(hi - lo, 0.0)
    return {s.span_id: (s.t1 - s.t0) - covered[s.span_id] for s in spans}


def root_of(spans) -> dict[int, int]:
    """Map every span id to the id of the root of its tree."""
    parent = {s.span_id: s.parent_id for s in spans}
    roots: dict[int, int] = {}
    for sid in parent:
        chain = [sid]
        while parent.get(chain[-1]) is not None and chain[-1] not in roots:
            chain.append(parent[chain[-1]])
        top = roots.get(chain[-1], chain[-1])
        for c in chain:
            roots[c] = top
    return roots


@dataclass
class Tally:
    """Steps attempted and failed over a run.

    An episode is the unit of checking: when any of its checks fails, every
    step it attempted counts as failed.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add_episode(self, steps: int, problems: list[str]) -> None:
        self.attempted += steps
        if problems:
            self.failed += steps
            self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def episode_seeds(seed: int, count: int) -> list[int]:
    """Input seeds of a run's episodes, fixed by the run seed alone."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]

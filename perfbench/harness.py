"""Pure timing helpers of the benchmark: the reference loop and
normalization, the percentile rule, the op rotation, self-time
subtraction, and the spread summary the steadiness mode prints.

Everything here is free of the library under test, so the helpers are
unit-tested on their own (``test_harness.py``).
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Size of the reference loop (about 12 ms on a 2-CPU cloud VM).
REF_ITERATIONS = 8_000
REF_SUBSETS = 10
#: The reference loop's time at the nominal machine speed.  A normalized
#: latency is the op's wall time scaled to a machine on which the
#: reference loop takes exactly this long.
NOMINAL_REF_MS = 12.0
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def reference_loop(iterations: int = REF_ITERATIONS, subsets: int = REF_SUBSETS) -> int:
    """A fixed piece of allocation-heavy pure-Python work.

    It builds tuples and frozensets and inserts them into a dict, then
    memoizes the union of every subset of ``subsets`` small frozensets,
    the same kinds of work the planner and the join kernels do, so its
    speed drifts with the machine the same way theirs does.
    """
    table = {}
    for i in range(iterations):
        key = (i, i & 7, i >> 3)
        table[key] = frozenset(key)
    parts = [frozenset((i, i + 1)) for i in range(subsets)]
    for mask in range(1, 1 << subsets):
        chosen = [parts[j] for j in range(subsets) if mask >> j & 1]
        table[frozenset(chosen)] = len(frozenset().union(*chosen))
    return len(table)


def timed_ms(fn: Callable[[], object]) -> Tuple[float, object]:
    """Run ``fn`` after a full collection; return (wall ms, result).

    The collection runs outside the timed window, so garbage left by an
    earlier op or sample is never charged to this one.
    """
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1e3, result


def reference_ms() -> float:
    """One timed sample of the reference loop, in ms."""
    return timed_ms(reference_loop)[0]


def normalize(raw: float, ref_ms: float, nominal_ms: float = NOMINAL_REF_MS) -> float:
    """``raw`` rescaled to the nominal machine speed.

    ``ref_ms`` is the reference loop's time measured beside the work;
    a machine running twice as slow doubles both and leaves the result
    unchanged.
    """
    if ref_ms <= 0:
        raise ValueError(f"reference time must be positive, got {ref_ms}")
    return raw * nominal_ms / ref_ms


def bracketing(refs: Sequence[float]) -> List[float]:
    """The reference time for each op, given samples taken before the
    first op, between ops, and after the last: op ``i`` ran between
    ``refs[i]`` and ``refs[i + 1]`` and is charged their mean."""
    return [(refs[i] + refs[i + 1]) / 2 for i in range(len(refs) - 1)]


def percentile(samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between
    order statistics.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    beyond it: p90 needs 100 samples, p50 needs 20.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(samples)
    beyond = math.floor(n * (1 - q) + 1e-9)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    ordered = sorted(samples)
    position = q * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def rounds_for(
    seconds: float, n_databases: int, nominal_ops_per_s: float, min_rounds: int
) -> int:
    """How many passes over the rotation a run makes.

    A run always covers whole passes, so every database gets the same
    number of ops and a run of a given length does the same work on any
    machine.  ``seconds`` scales the work at the workload's nominal rate;
    the floor keeps enough ops for the p90 rule.
    """
    if n_databases < 1:
        raise ValueError("a rotation needs at least one database")
    wanted = math.ceil(seconds * nominal_ops_per_s / n_databases)
    return max(min_rounds, wanted)


def rotation(n_databases: int, rounds: int) -> List[int]:
    """The database index of every op: ``rounds`` round-robin passes."""
    return [i % n_databases for i in range(n_databases * rounds)]


# -- spans -----------------------------------------------------------------------

#: A closed span: (name, layer, start, end, parent index or -1).
Span = Tuple[str, str, float, float, int]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; the part of a span its children cover is
    the sum of their durations.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Total duration per span name, counting only spans with no
    ancestor of the same name (a recursive call is not counted twice)."""
    ancestors: List[frozenset] = []
    totals: Dict[str, float] = {}
    for name, _, start, end, parent in spans:
        above = (
            ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        )
        ancestors.append(above)
        if name not in above:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


# -- steadiness ---------------------------------------------------------------------


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, and spreads of repeated measurements of one
    metric, as shares of the median: ``iqr_share`` is the distance
    between the quartiles (``statistics.quantiles(values, n=4)``) and
    ``range_share`` the distance between the extremes."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    scale = abs(median) if median else 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }

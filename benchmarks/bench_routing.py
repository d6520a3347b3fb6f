"""E-ROUTE: the per-subset kernel price vs. every pinned kernel.

An unpinned database on the default engine prices each connected subset
of three or more relations and runs it on Generic Join, the Yannakakis
pipeline, or the binary extension (see ``Database._price``).  A price
that misroutes shows up here as ``auto`` running slower than the best
kernel pinned for the whole database.  Four shapes, each a winner for a
different kernel:

* **clique6** -- the clique-6 of the end-to-end benchmark's
  ``query-cyclic`` rotation (60 distinct tuples per relation, domain 8);
  every subset is cyclic, and the binary extension wins.
* **cycle8** -- the same rotation's 3-regular cycle-8 over domain 8.
* **triangle** -- the spiked triangle at ``bench_wcoj``'s size (200);
  Generic Join wins.
* **selective_star** -- ``bench_yannakakis``'s 3-relation selective star
  at size 301; Yannakakis wins.  (Larger selective stars are left out on
  purpose: pinned ``vector`` materializes their quadratic intermediates,
  and at n=5, size 200 that exhausts memory.)

One timed op is ``JoinQuery(db).execute()`` -- plan by the subset DP,
then evaluate -- on a fresh database, auto and each pin interleaved per
round; a shape's time is the minimum over the rounds.  Every result is
asserted byte-identical to the pinned ``vector`` result.  The run exits
1 if ``auto`` is more than 1.2x slower than the best pin on any shape.
CI's ``wcoj-smoke`` job runs ``python benchmarks/bench_routing.py
--quick``.
"""

import argparse
import pathlib
import random
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:  # standalone-script entry
        sys.path.insert(0, str(path))

from repro import JoinQuery  # noqa: E402
from repro.database import Database  # noqa: E402
from repro.report import Table  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    generate_selective_star,
    generate_spiked_cycle,
)
from workloads import generate, generate_regular_cycle  # noqa: E402

#: auto may be at most this much slower than the best pinned kernel.
SLOWDOWN_BOUND = 1.2
PINS = ("vector", "wcoj", "yannakakis")
ROUNDS_QUICK = 5
ROUNDS_FULL = 9


def shapes():
    """The benchmark's databases, by shape name."""
    return {
        "clique6": generate("clique", 6, 60, 8, random.Random("routing:clique6")),
        "cycle8": generate_regular_cycle(8, 3, 8, random.Random("routing:cycle8")),
        "triangle": generate_spiked_cycle(3, 200),
        "selective_star": generate_selective_star(3, 301),
    }


def _time_op(relations, engine):
    """One cold ``JoinQuery(...).execute()``; returns (seconds, result)."""
    db = Database(relations, engine=engine)
    start = time.perf_counter()
    result = JoinQuery(db).execute()
    return time.perf_counter() - start, result, db


def _bench_shape(name, db, rounds):
    relations = db.relations()
    engines = (None,) + PINS
    best = {engine: float("inf") for engine in engines}
    expected = None
    kernels = None
    for _ in range(rounds):
        for engine in engines:
            seconds, result, used = _time_op(relations, engine)
            best[engine] = min(best[engine], seconds)
            table = result._table()
            image = (table.order, table.rows)
            if expected is None:
                expected = image
            assert image == expected, f"{name}: {engine or 'auto'} diverged"
            if engine is None:
                kernels = used.kernel_stats()
    pinned = {engine: best[engine] for engine in PINS}
    best_pin = min(pinned, key=pinned.get)
    return {
        "auto_seconds": best[None],
        "pinned_seconds": pinned,
        "best_pin": best_pin,
        "slowdown": best[None] / pinned[best_pin],
        "kernels": kernels,
        "tau": len(expected[1]),
    }


def run_benchmark(quick: bool = False) -> dict:
    rounds = ROUNDS_QUICK if quick else ROUNDS_FULL
    return {
        "rounds": rounds,
        "shapes": {
            name: _bench_shape(name, db, rounds) for name, db in shapes().items()
        },
    }


def _render_table(payload: dict) -> Table:
    table = Table(
        ["shape", "tau", "auto (s)"]
        + [f"{engine} (s)" for engine in PINS]
        + ["auto / best pin", "auto kernels (binary/gj/yk)"],
        title="E-ROUTE: priced kernel choice vs. pinned kernels "
        f"(min of {payload['rounds']} rounds)",
    )
    for name, entry in payload["shapes"].items():
        kernels = entry["kernels"]
        table.add_row(
            name,
            entry["tau"],
            f"{entry['auto_seconds']:.4f}",
            *(f"{entry['pinned_seconds'][engine]:.4f}" for engine in PINS),
            f"{entry['slowdown']:.2f}x ({entry['best_pin']})",
            f"{kernels.binary}/{kernels.generic_join}/{kernels.yannakakis}",
        )
    return table


def _misses(payload: dict):
    return [
        name
        for name, entry in payload["shapes"].items()
        if entry["slowdown"] > SLOWDOWN_BOUND
    ]


def test_routing_within_bound(record):
    payload = run_benchmark(quick=False)
    record("E-ROUTE_routing", _render_table(payload).render())
    assert not _misses(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="auto kernel choice vs. every pinned kernel; exits 1 "
        f"when auto is more than {SLOWDOWN_BOUND}x slower than the best pin"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{ROUNDS_QUICK} rounds instead of {ROUNDS_FULL} (the CI "
        "wcoj-smoke contract); the bound is still enforced",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(quick=args.quick)
    print(_render_table(payload).render())
    misses = _misses(payload)
    if misses:
        print(f"\nBOUND MISSED: auto > {SLOWDOWN_BOUND}x the best pin on "
              + ", ".join(misses))
        return 1
    print(f"\nbound met: auto within {SLOWDOWN_BOUND}x of the best pin everywhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())

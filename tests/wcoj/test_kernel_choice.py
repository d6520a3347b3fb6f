"""The per-subset kernel price: which kernel each connected subset runs
on, asserted through ``Database.kernel_stats()``, plus the stepping-stone
memo policy and the caller's warm caches surviving ``JoinQuery``."""

import random

import pytest

from repro import JoinQuery, Relation
from repro.database import Database, KernelChoice, KernelStats
from repro.optimizer.dp import optimize_dp
from repro.wcoj import fractional_edge_cover
from repro.workloads.generators import (
    WorkloadSpec,
    clique_scheme,
    cycle_scheme,
    generate_database,
    generate_selective_star,
    generate_spiked_cycle,
)


def _identical(left, right):
    lt, rt = left._table(), right._table()
    return lt.order == rt.order and lt.rows == rt.rows


def _legacy_evaluate(db):
    return Database(db.relations(), engine="legacy").evaluate()


def _clique6():
    return generate_database(
        clique_scheme(6), random.Random(6), WorkloadSpec(size=60, domain=8)
    )


def _regular_cycle8():
    """An 8-cycle of 3-regular relations over ``1..8``: every k-path
    joins to ``8 * 3**(k-1)`` rows, so the 7-path is 17,496 rows while
    AGM(cycle) = 24**4."""
    relations = []
    for index, scheme in enumerate(cycle_scheme(8)):
        rows = [(a, (a + k) % 8 + 1) for a in range(1, 9) for k in (0, 2, 5)]
        relations.append(
            Relation.from_tuples(scheme, rows, order=scheme.sorted(), name=f"R{index + 1}")
        )
    return Database(relations)


def _kernels(stats):
    return stats.binary, stats.generic_join, stats.yannakakis


class TestPricedDecision:
    def test_spiked_triangle_full_subset_runs_generic_join(self):
        db = generate_spiked_cycle(3, 21)
        result = db.evaluate()
        stats = db.kernel_stats()
        assert _kernels(stats) == (0, 1, 0)
        (choice,) = stats.choices
        assert choice.kernel == "generic_join" and choice.relations == 3
        assert choice.actual == len(result)
        assert _identical(result, _legacy_evaluate(db))

    def test_every_clique6_subset_runs_binary(self):
        db = _clique6()
        for subset in db.connected_subsets():
            db.tau_of(subset)
        stats = db.kernel_stats()
        # C(6,3) + C(6,4) + C(6,5) + C(6,6) cyclic subsets, each once.
        assert _kernels(stats) == (42, 0, 0)
        assert _identical(db.evaluate(), _legacy_evaluate(db))

    def test_regular_cycle8_runs_binary(self):
        db = _regular_cycle8()
        tau = db.tau_of()
        stats = db.kernel_stats()
        full = [c for c in stats.choices if c.relations == 8]
        assert full == [KernelChoice("binary", 8, 17496, tau)]
        assert stats.generic_join == 0
        # The 7-path stepping stone itself is priced too: its inputs
        # (168 rows) are below its own stepping stone (5,832 rows).
        assert [c.kernel for c in stats.choices if c.relations == 7] == ["yannakakis"]

    def test_selective_star_runs_yannakakis(self):
        db = generate_selective_star(3, 301)
        result = db.evaluate()
        assert _kernels(db.kernel_stats()) == (0, 0, 1)
        assert len(result) == 1
        assert _identical(result, _legacy_evaluate(db))

    def test_pins_keep_their_kernels(self):
        relations = _clique6().relations()
        wcoj = Database(relations, engine="wcoj")
        optimize_dp(wcoj)
        assert _kernels(wcoj.kernel_stats()) == (0, 42, 0)
        vector = Database(relations, engine="vector")
        vector.evaluate()
        stats = vector.kernel_stats()
        assert stats.generic_join == 0 and stats.binary > 0
        assert stats.choices == ()

    def test_agm_shortcut_matches_the_lp(self):
        # Every relation of a proper clique subset has a private
        # attribute, so AGM(S) is the product of the sizes.
        db = _clique6()
        schemes = sorted(db.scheme.schemes, key=lambda s: s.sorted())
        for subset in (schemes[:3], schemes[:5], schemes):
            key = frozenset(subset)
            cover = fractional_edge_cover(
                subset, [len(db.state_for(s)) for s in subset]
            )
            assert db._agm_bound(key) == pytest.approx(cover.bound)


class TestKernelStats:
    def test_snapshot_shape(self):
        db = generate_spiked_cycle(3, 21)
        empty = db.kernel_stats()
        assert _kernels(empty) == (0, 0, 0) and empty.choices == ()
        db.evaluate()
        stats = db.kernel_stats()
        image = stats.to_dict()
        assert image["generic_join"] == 1
        assert image["choices"] == [
            {"kernel": "generic_join", "relations": 3,
             "priced": stats.choices[0].priced, "actual": stats.choices[0].actual}
        ]
        assert image["priced"] == stats.priced and image["actual"] == stats.actual
        assert stats.describe().startswith("binary 0, generic join 1")
        assert "1 priced" in stats.describe()

    def test_delta(self):
        db = _clique6()
        schemes = sorted(db.scheme.schemes, key=lambda s: s.sorted())
        db.tau_of(schemes[:3])
        before = db.kernel_stats()
        db.tau_of(schemes[:4])
        after = db.kernel_stats()
        delta = after.delta(before)
        assert isinstance(delta, KernelStats)
        assert delta.choices == after.choices[len(before.choices):]
        assert _kernels(delta) == (len(delta.choices), 0, 0)
        assert delta.choices[-1].relations == 4


class TestSteppingStones:
    def test_tau_of_keeps_no_join_in_the_memo(self):
        db = _regular_cycle8()
        db.tau_of()
        assert len(db._join_cache) == 0
        # The cycle itself is cyclic and kept as a stone; its acyclic
        # 7-path stepping stone left only its tau behind.
        assert len(db._stones) == 1
        assert db.cache_stats().tau_entries > 0

    def test_requested_join_promotes_a_kept_stone(self):
        db = _regular_cycle8()
        tau = db.tau_of()
        computed = db.cache_stats().computed
        assert len(db.join_of(None)) == tau
        assert db.cache_stats().computed == computed  # served, not rebuilt
        assert len(db._stones) == 0 and len(db._join_cache) == 1

    def test_cyclic_stones_are_built_once(self):
        db = _clique6()
        optimize_dp(db)
        # Each cyclic subset is joined exactly once: 42 kernel runs for
        # 42 subsets, every later need served from the stone cache.
        assert _kernels(db.kernel_stats()) == (42, 0, 0)
        assert len(db._stones) == 42  # all kept, none requested
        assert len(db._join_cache) == 0


class TestQueryKeepsTheDatabase:
    def test_query_database_is_the_callers(self):
        db = _clique6()
        assert JoinQuery(db).database is db

    def test_optimize_after_dp_computes_no_new_tau(self):
        db = _clique6()
        optimize_dp(db)
        computed = db.cache_stats().computed
        plan = JoinQuery(db).optimize()
        assert db.cache_stats().computed == computed
        assert plan.cost == optimize_dp(db).cost

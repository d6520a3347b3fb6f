"""Tests of the benchmark's pure helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py
"""

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from tracing import OP_SPAN, summarize  # noqa: E402


class TestPercentile:
    def test_p90_needs_a_hundred_samples(self):
        assert harness.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
        with pytest.raises(ValueError, match="9 beyond"):
            harness.percentile(list(range(99)), 0.9)

    def test_p50_needs_twenty_samples(self):
        assert harness.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
        with pytest.raises(ValueError):
            harness.percentile(list(range(19)), 0.5)

    def test_matches_inclusive_interpolation(self):
        samples = [(i * 37) % 101 / 7 for i in range(120)]
        deciles = statistics.quantiles(samples, n=10, method="inclusive")
        assert harness.percentile(samples, 0.9) == pytest.approx(deciles[8])
        assert harness.percentile(samples, 0.5) == pytest.approx(statistics.median(samples))

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(200))
        assert harness.percentile(samples[::-1], 0.9) == harness.percentile(samples, 0.9)

    def test_rejects_quantiles_outside_the_open_interval(self):
        with pytest.raises(ValueError):
            harness.percentile(list(range(1000)), 1.0)


class TestNormalization:
    def test_nominal_speed_leaves_time_unchanged(self):
        assert harness.normalize(200.0, harness.NOMINAL_REF_MS) == pytest.approx(200.0)

    def test_slower_machine_cancels_out(self):
        fast = harness.normalize(100.0, 10.0, nominal_ms=12.0)
        slow = harness.normalize(150.0, 15.0, nominal_ms=12.0)
        assert fast == pytest.approx(slow) == pytest.approx(120.0)

    def test_rejects_a_nonpositive_reference(self):
        with pytest.raises(ValueError):
            harness.normalize(1.0, 0.0)

    def test_each_op_gets_the_mean_of_its_neighbours(self):
        assert harness.bracketing([10.0, 12.0, 14.0]) == [11.0, 13.0]

    def test_reference_loop_is_deterministic_work(self):
        assert harness.reference_loop(100, 3) == 100 + 7
        assert harness.reference_ms() > 0


class TestRotation:
    def test_every_database_gets_the_same_number_of_ops(self):
        order = harness.rotation(5, 3)
        assert len(order) == 15
        assert all(order.count(i) == 3 for i in range(5))
        assert order[:5] == [0, 1, 2, 3, 4]

    def test_rounds_never_fall_below_the_floor(self):
        assert harness.rounds_for(1, 50, 4.0, min_rounds=2) == 2

    def test_rounds_scale_with_seconds(self):
        assert harness.rounds_for(100, 50, 4.0, min_rounds=2) == 8
        assert harness.rounds_for(101, 50, 4.0, min_rounds=2) == 9

    def test_fixed_op_count_for_a_given_length(self):
        runs = {len(harness.rotation(50, harness.rounds_for(25, 50, 3.7, 2))) for _ in range(3)}
        assert runs == {100}


def _span(name, layer, start, end, parent):
    return (name, layer, float(start), float(end), parent)


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            _span("root", "a", 0, 10, -1),
            _span("child", "b", 1, 4, 0),
            _span("grandchild", "c", 2, 3, 1),
            _span("child2", "b", 5, 9, 0),
        ]
        assert harness.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_self_times_sum_to_the_root_duration(self):
        spans = [
            _span("root", "a", 0, 100, -1),
            _span("x", "b", 10, 50, 0),
            _span("y", "c", 20, 30, 1),
            _span("z", "c", 60, 70, 0),
        ]
        assert sum(harness.self_times(spans)) == pytest.approx(100.0)

    def test_recursion_is_counted_once_in_inclusive_totals(self):
        spans = [
            _span("root", "a", 0, 10, -1),
            _span("f", "b", 1, 8, 0),
            _span("f", "b", 2, 5, 1),
            _span("g", "b", 3, 4, 2),
            _span("f", "b", 8.5, 9.5, 0),
        ]
        totals = harness.outermost_totals(spans)
        assert totals["f"] == pytest.approx(8.0)
        assert totals["g"] == pytest.approx(1.0)

    def test_summary_accounts_for_the_whole_op(self):
        spans = [
            _span(OP_SPAN, "harness", 0, 0.010, -1),
            _span("optimize_dp", "optimizer", 0.001, 0.008, 0),
            _span("Database.tau_of", "database", 0.002, 0.005, 1),
            _span("Database.tau_of", "database", 0.006, 0.007, 1),
        ]
        summary = summarize(spans)
        assert summary["harness.op_ms"] == pytest.approx(10.0)
        assert summary["optimizer.self_ms"] == pytest.approx(3.0)
        assert summary["database.self_ms"] == pytest.approx(4.0)
        assert summary["harness.unattributed_ms"] == pytest.approx(3.0)
        assert summary["database.calls"] == 2
        assert summary["optimizer.calls"] == 1
        layers = sum(v for k, v in summary.items() if k.endswith(".self_ms"))
        assert layers + summary["harness.unattributed_ms"] == pytest.approx(10.0)


class TestSpread:
    def test_quartile_spread_is_a_share_of_the_median(self):
        s = harness.spread([9.0, 10.0, 10.0, 10.0, 11.0])
        assert s["median"] == 10.0
        q1, _, q3 = statistics.quantiles([9.0, 10.0, 10.0, 10.0, 11.0], n=4)
        assert s["iqr_share"] == pytest.approx((q3 - q1) / 10.0)
        assert s["range_share"] == pytest.approx(0.2)

    def test_identical_runs_have_no_spread(self):
        s = harness.spread([5.0] * 10)
        assert s["iqr_share"] == 0.0 and s["range_share"] == 0.0


class TestTracerInstall:
    """The tracer against the library itself (imported from ``src``)."""

    @pytest.fixture(autouse=True)
    def _library_on_path(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "src"))

    def test_functions_are_wrapped_where_they_are_bound(self):
        import repro.query
        from repro import JoinQuery
        from repro.workloads.paper import example4
        from tracing import Tracer

        original = repro.query.optimize_dp
        tracer = Tracer()
        with tracer.installed():
            assert repro.query.optimize_dp is not original
            with tracer.span(OP_SPAN):
                plan = JoinQuery(example4()).optimize()
        assert repro.query.optimize_dp is original
        assert plan.cost == 11
        summary = summarize(tracer.take())
        assert summary["incl.optimize_dp"] > 0
        assert summary["incl.JoinQuery.optimize"] >= summary["incl.optimize_dp"]
        assert summary["incl.EngineRouter.route"] > 0
        assert summary["database.self_ms"] > 0


class TestRecount:
    @pytest.fixture(autouse=True)
    def _library_on_path(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "src"))

    def _small(self):
        from repro import Database, Relation

        return Database([
            Relation.from_tuples("AB", [(1, 1), (1, 2), (2, 1)], order="AB", name="R1"),
            Relation.from_tuples("BC", [(1, 5), (1, 6), (2, 7)], order="BC", name="R2"),
            Relation.from_tuples("D", [(8,), (9,)], order="D", name="R3"),
        ])

    def test_join_sizes_by_hand(self):
        from recount import Recount

        recount = Recount(self._small())
        r1, r2, r3 = 1, 2, 4
        assert recount.tau(r1 | r2) == 5
        assert recount.tau(r1 | r3) == 6
        assert recount.tau(r1 | r2 | r3) == 10
        assert recount.parts[r1 | r2 | r3] == [r1 | r2, r3]

    def test_strategy_cost_and_cartesian_products(self):
        from recount import Recount

        db = self._small()
        recount = Recount(db)
        ab, bc, d = (rel.scheme for rel in db.relations())
        assert recount.strategy_cost(((ab, bc), d)) == 5 + 10
        assert recount.strategy_cost(((ab, d), bc)) == 6 + 10
        assert recount.avoids_cartesian_products(((ab, bc), d))
        assert not recount.avoids_cartesian_products(((ab, d), bc))
        assert recount.optimum("all") == recount.optimum("nocp") == 15
        with pytest.raises(ValueError):
            recount.strategy_cost(((ab, ab), d))
        with pytest.raises(ValueError):
            recount.strategy_cost((ab, bc))

    def test_paper_examples(self):
        from recount import Recount
        from workloads import EXAMPLE_OPTIMA, PAPER_VERDICTS

        for factory, space, cost in EXAMPLE_OPTIMA:
            assert Recount(factory()).optimum(space.value) == cost
        for factory, expected in PAPER_VERDICTS:
            report = Recount(factory()).safety_report()
            assert {key: report[key] for key in expected} == expected

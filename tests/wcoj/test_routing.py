"""Engine routing: the per-subset kernel price behind ``"auto"``, its
explain surface, and the pin/process-engine escape hatches."""

import json
import random

import pytest

from repro import JoinQuery
from repro.cli import main
from repro.database import Database
from repro.optimizer import EngineRouter, EngineRouting
from repro.relational.columnar import current_engine, set_engine, using_engine
from repro.workloads.generators import (
    WorkloadSpec,
    clique_scheme,
    generate_database,
    generate_selective_star,
    generate_spiked_cycle,
)


@pytest.fixture
def triangle():
    return generate_spiked_cycle(3, 21)


@pytest.fixture
def selective_star():
    return generate_selective_star(3, 301)


def route_of(db):
    return EngineRouter(db).route()


class TestEngineRouter:
    def test_cyclic_default_routes_to_wcoj(self, triangle):
        # Unpinned on the default engine, the router reports "auto"; the
        # spiked triangle's full subset then prices Generic Join below
        # the binary extension (AGM(S) < tau(S-l)) and runs on it.
        routing = route_of(triangle)
        assert routing.effective == "auto"
        assert routing.requested == "vector"
        assert routing.cyclic and routing.connected
        assert routing.cover is not None
        m = (21 - 1) // 2
        assert routing.cover.bound == pytest.approx((2 * m + 1) ** 1.5)
        triangle.join_of(None)
        stats = triangle.kernel_stats()
        assert (stats.generic_join, stats.binary, stats.yannakakis) == (1, 0, 0)
        (choice,) = stats.choices
        assert choice.priced == pytest.approx(routing.cover.bound)

    def test_acyclic_routes_to_yannakakis(self, selective_star):
        routing = route_of(selective_star)
        assert routing.effective == "auto"
        assert not routing.cyclic and routing.connected
        assert "yannakakis if sum |R| < tau(S-l)" in routing.reason
        assert len(selective_star.join_of(None)) == 1
        stats = selective_star.kernel_stats()
        assert (stats.yannakakis, stats.binary, stats.generic_join) == (1, 0, 0)
        (choice,) = stats.choices
        # Priced at the inputs (hub 601 + two satellites of 301), which
        # the quadratic stepping stone tau(S-l) dwarfs.
        assert choice.priced == sum(len(rel) for rel in selective_star)

    def test_small_schemes_stay_on_the_default(self, disconnected_db):
        # No connected component reaches three relations, so nothing is
        # priced: every join is one binary step.
        routing = route_of(disconnected_db)
        assert routing.effective == "auto"
        assert "three or more" in routing.reason
        assert [engine for _, _, engine in routing.components] == [
            "vector", "vector",
        ]
        disconnected_db.evaluate()
        stats = disconnected_db.kernel_stats()
        assert stats.binary == stats.generic_join == stats.yannakakis == 0

    def test_database_pin_wins(self, triangle):
        pinned = Database(triangle.relations(), engine="vector")
        routing = route_of(pinned)
        assert routing.effective == "vector"
        assert not routing.routed
        assert "pinned" in routing.reason
        pinned.evaluate()
        stats = pinned.kernel_stats()
        assert stats.binary == 1 and stats.generic_join == 0
        assert stats.choices == ()  # pins run kernels without pricing

    def test_explicit_process_engine_wins(self, triangle):
        with using_engine("columnar"):
            routing = route_of(triangle)
        assert routing.effective == "columnar"
        assert not routing.routed
        assert "explicitly" in routing.reason

    def test_precedence_is_pin_then_process_then_shape(self, triangle):
        # The decision matrix (docs/api.md), pinned row first: a database
        # pin beats an explicit process engine beats the per-subset price.
        pinned = Database(triangle.relations(), engine="legacy")
        with using_engine("columnar"):
            routing = route_of(pinned)
        assert routing.effective == "legacy"
        assert "pinned" in routing.reason
        with using_engine("columnar"):
            unpinned = route_of(Database(triangle.relations()))
        assert unpinned.effective == "columnar"
        assert "explicitly" in unpinned.reason
        assert route_of(Database(triangle.relations())).effective == "auto"

    def test_disconnected_scheme_has_no_cover(self, disconnected_db):
        routing = route_of(disconnected_db)
        assert not routing.connected
        assert routing.cover is None

    def test_classify_per_connected_subset(self):
        # Shape alone would send every cyclic clique subset to Generic
        # Join; priced, each of the 42 connected subsets of three or
        # more relations runs binary, and each choice records its bound
        # next to the actual tau.
        from repro.optimizer.dp import optimize_dp

        db = generate_database(
            clique_scheme(6),
            random.Random(6),
            WorkloadSpec(size=60, domain=8),
        )
        optimize_dp(db)
        stats = db.kernel_stats()
        assert (stats.binary, stats.generic_join, stats.yannakakis) == (42, 0, 0)
        assert len(stats.choices) == 42
        assert all(choice.kernel == "binary" for choice in stats.choices)
        assert sorted(c.relations for c in stats.choices) == sorted(
            [3] * 20 + [4] * 15 + [5] * 6 + [6]
        )

    def test_describe_and_to_dict(self, triangle):
        routing = route_of(triangle)
        line = routing.describe()
        assert line.startswith("engine: auto (requested vector")
        assert "cyclic" in line
        triangle.evaluate()
        image = routing.to_dict()
        assert image["effective"] == "auto"
        assert image["routed"] is True
        assert image["agm"]["bound"] == pytest.approx(routing.cover.bound)
        assert image["components"] == [
            {"relations": 3, "cyclic": True, "engine": "auto"}
        ]
        assert image["tree"] is None
        assert image["expansion"] == list(routing.expansion)
        assert image["kernels"]["generic_join"] == 1
        assert image["kernels"]["choices"][0]["kernel"] == "generic_join"
        json.dumps(image)  # must be JSON-ready

    def test_acyclic_to_dict_carries_the_join_tree(self, chain3):
        image = route_of(chain3).to_dict()
        assert image["tree"] == [[["A", "B"], ["B", "C"]], [["B", "C"], ["C", "D"]]]
        assert image["expansion"] is None
        json.dumps(image)

    def test_unrouted_describe_has_no_requested_clause(self, disconnected_db):
        pinned = Database(disconnected_db.relations(), engine="vector")
        line = route_of(pinned).describe()
        assert "requested" not in line
        assert line.startswith("engine: vector")


class TestEngineSwitch:
    def test_wcoj_is_a_named_engine(self):
        with using_engine("wcoj"):
            assert current_engine() == "wcoj"
        assert current_engine() == "vector"

    def test_yannakakis_is_a_named_engine(self):
        with using_engine("yannakakis"):
            assert current_engine() == "yannakakis"
        assert current_engine() == "vector"

    def test_set_engine_round_trip(self):
        set_engine("wcoj")
        try:
            assert current_engine() == "wcoj"
        finally:
            set_engine("vector")

    def test_with_engine_repins_with_fresh_caches(self, triangle):
        routed = triangle.with_engine("wcoj")
        assert routed.pinned_engine == "wcoj"
        assert routed is not triangle
        assert triangle.pinned_engine is None
        # Same engine is a no-op.
        assert routed.with_engine("wcoj") is routed


class TestQueryIntegration:
    def test_query_keeps_the_callers_database(self, triangle):
        query = JoinQuery(triangle)
        assert query.routing.effective == "auto"
        assert query.database is triangle
        assert triangle.pinned_engine is None

    def test_plan_explain_shows_engine_and_agm(self, triangle):
        plan = JoinQuery(triangle).optimize()
        text = plan.explain()
        assert "engine: auto (requested vector" in text
        assert "agm: tau <=" in text
        assert f"(binary plan tau: {plan.cost})" in text
        assert "kernels: binary 0, generic join 1, yannakakis 0" in text

    def test_cyclic_explain_shows_the_expansion_order(self, triangle):
        text = JoinQuery(triangle).optimize().explain()
        assert "expansion order: " in text

    def test_plan_provenance_export_carries_routing(self, triangle):
        plan = JoinQuery(triangle).plan_greedy()
        image = plan.provenance.to_dict()
        assert image["routing"]["effective"] == "auto"
        assert image["routing"]["cyclic"] is True
        assert image["routing"]["kernels"]["generic_join"] == 1

    def test_routed_execution_matches_the_binary_result(self, triangle):
        executed = JoinQuery(triangle).execute()
        expected = Database(triangle.relations(), engine="vector").evaluate()
        lt, rt = expected._table(), executed._table()
        assert lt.order == rt.order and lt.rows == rt.rows

    def test_acyclic_query_explain_reports_yannakakis(self, selective_star):
        query = JoinQuery(selective_star)
        plan = query.optimize()
        query.execute(plan)
        text = plan.explain()
        assert "engine: auto (requested vector" in text
        assert "acyclic" in text
        assert "kernels: binary 0, generic join 0, yannakakis 1" in text


class TestCLI:
    def test_optimize_prints_the_routing_verdict(self, capsys):
        assert (
            main(
                ["optimize", "--shape", "cycle", "--relations", "3",
                 "--size", "15", "--domain", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine: auto (requested vector" in out
        assert "agm: tau <=" in out
        assert "kernels: " in out

    def test_explain_reports_engine_and_cyclicity(self, capsys):
        assert (
            main(
                ["explain", "--shape", "cycle", "--relations", "3",
                 "--size", "15", "--domain", "4", "--no-memory"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "auto" in out
        assert "cyclic" in out
        assert "kernels" in out

    def test_explain_profile_json_carries_routing(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert (
            main(
                ["explain", "--shape", "cycle", "--relations", "3",
                 "--size", "15", "--domain", "4", "--no-memory",
                 "--profile-json", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["engine"] == "auto"
        assert payload["routing"]["effective"] == "auto"
        assert payload["routing"]["cyclic"] is True
        kernels = payload["routing"]["kernels"]
        assert kernels["binary"] + kernels["generic_join"] == 1

    def test_acyclic_explain_routes_to_yannakakis(self, capsys):
        assert (
            main(
                ["explain", "--shape", "chain", "--relations", "3",
                 "--size", "15", "--domain", "4", "--no-memory"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "acyclic" in out
        assert "yannakakis" in out
        assert "join tree" in out

    def test_engine_flag_accepts_wcoj(self, capsys):
        try:
            assert (
                main(
                    ["--engine", "wcoj", "optimize", "--shape", "cycle",
                     "--relations", "3", "--size", "15", "--domain", "4"]
                )
                == 0
            )
        finally:
            set_engine("vector")
        out = capsys.readouterr().out
        assert "engine: wcoj" in out


def test_engine_routing_repr(triangle):
    routing = EngineRouter(triangle).route()
    assert "vector->auto" in repr(routing)
    assert isinstance(routing, EngineRouting)

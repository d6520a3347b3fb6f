"""The benchmark's three workloads.

Each workload generates a rotation of databases from the seed, defines
one op over a cache-cold copy of a rotation database, and checks each
op's output outside the timed window against answers computed apart
from the library (:mod:`recount`, the ``legacy`` join kernel, and the
paper's published values).  See README.md for why each workload exists
and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, Sequence

from repro import (
    Database,
    JoinQuery,
    Relation,
    SearchSpace,
    optimize_dp,
    parse_strategy,
    tau_cost,
)
from repro.workloads.generators import (
    chain_scheme,
    clique_scheme,
    cycle_scheme,
    star_scheme,
)
from repro.workloads.paper import (
    example1,
    example2_c1_only,
    example2_c2_only,
    example3,
    example4,
    example5,
)

from recount import Recount

SHAPES = {
    "chain": chain_scheme,
    "star": star_scheme,
    "cycle": cycle_scheme,
    "clique": clique_scheme,
}


def generate(shape: str, n: int, tuples: int, domain: int, rng: random.Random) -> Database:
    """A database over the ``n``-relation ``shape`` in which every
    relation holds exactly ``tuples`` distinct tuples, drawn uniformly
    from ``1..domain`` per attribute.

    Fixing the distinct count (rather than drawing ``tuples`` times with
    repeats) keeps every relation equally dense, so join sizes, and the
    time to plan over them, vary less between seeds.
    """
    relations = []
    for index, scheme in enumerate(SHAPES[shape](n)):
        order = scheme.sorted()
        if tuples > domain ** len(order):
            raise ValueError(f"{tuples} distinct tuples do not fit {shape}-{n}")
        rows = set()
        while len(rows) < tuples:
            rows.add(tuple(rng.randint(1, domain) for _ in order))
        relations.append(
            Relation.from_tuples(scheme, sorted(rows), order=order, name=f"R{index + 1}")
        )
    return Database(relations)


def generate_regular_cycle(n: int, degree: int, domain: int, rng: random.Random) -> Database:
    """An ``n``-cycle whose relations are random ``degree``-regular
    bipartite graphs over ``1..domain``: every value occurs exactly
    ``degree`` times on each side of every relation.

    Every path join then has a fixed size and the cycle's join has about
    ``degree ** n`` rows whatever the seed, so the op's output, and the
    time to read it out and to check it, barely vary between seeds.
    """
    relations = []
    for index, scheme in enumerate(SHAPES["cycle"](n)):
        partners = [set() for _ in range(domain)]
        for _ in range(degree):
            # One more perfect matching, disjoint from the earlier ones.
            while True:
                matching = rng.sample(range(1, domain + 1), domain)
                if all(b not in partners[a] for a, b in enumerate(matching)):
                    break
            for a, b in enumerate(matching):
                partners[a].add(b)
        rows = sorted((a + 1, b) for a in range(domain) for b in partners[a])
        relations.append(
            Relation.from_tuples(scheme, rows, order=scheme.sorted(), name=f"R{index + 1}")
        )
    return Database(relations)


def cold_copy(base: Database) -> Database:
    """A copy of ``base`` sharing its relations but none of its caches."""
    return Database(base.relations())


def shape(strategy):
    """A strategy as nested pairs of schemes, free of its database."""
    if strategy.is_leaf:
        (scheme,) = strategy.scheme_set.schemes
        return scheme
    return (shape(strategy.left), shape(strategy.right))


def rows_digest(relation: Relation) -> str:
    """A digest of the relation's rows as sorted ``repr`` strings, so
    that ``1``, ``1.0`` and ``True`` stay distinct."""
    text = "\n".join(sorted(map(repr, relation.rows)))
    return hashlib.sha256(text.encode()).hexdigest()


#: The paper's stated verdicts on its examples (Sections 3 and 4).
PAPER_VERDICTS = (
    (example1, {"C1": True, "C2": False}),
    (example2_c1_only, {"C1": True, "C2": False}),
    (example2_c2_only, {"C1": False, "C2": True}),
    (example3, {"C1": True}),
    (example4, {"C1": False, "C2": True}),
    (example5, {"C1": True, "C2": True, "C3": False, "safe[nocp]": True, "safe[linear]": False}),
)

#: The paper's optimum costs (Examples 1 and 5).
EXAMPLE_OPTIMA = (
    (example1, SearchSpace.ALL, 546),
    (example1, SearchSpace.NOCP, 549),
    (example5, SearchSpace.ALL, 11),
)

#: Example 1's published strategy costs.
EXAMPLE1_COSTS = (
    ("(((R1 R2) R3) R4)", 570),
    ("(((R1 R2) R4) R3)", 570),
    ("((R1 R2) (R3 R4))", 549),
    ("((R1 R3) (R2 R4))", 546),
)


class Workload:
    """One workload: its rotation of databases, its op, and its checks.

    ``build(seed)`` generates the rotation (that is set-up work);
    ``op(base)`` is the timed operation; ``digest(outcome)`` keeps
    what the check needs, right after the op and outside its timed
    window.  ``references(bases)`` computes what the checks compare
    against, once per run after the timed loop, and ``check(index,
    digest)`` returns True when the op on database ``index`` was
    correct.  ``run_checks()`` compares the library and the recount with
    the paper's published numbers.
    """

    name = ""
    databases = 1
    min_rounds = 1
    nominal_ops_per_s = 1.0

    def __init__(self):
        self.reference: Dict[int, object] = {}
        self.recounts: Dict[int, Recount] = {}

    def build(self, seed: int) -> List[Database]:
        raise NotImplementedError

    def op(self, base: Database):
        raise NotImplementedError

    def stats_databases(self, outcome) -> Sequence[Database]:
        """The databases whose cache counters the op moved."""
        raise NotImplementedError

    def digest(self, outcome):
        """What the check needs from an outcome, taken right after the
        op so the outcome itself can be dropped."""
        raise NotImplementedError

    def references(self, bases: Sequence[Database]) -> None:
        self.recounts = {index: Recount(base) for index, base in enumerate(bases)}

    def check(self, index: int, digest) -> bool:
        raise NotImplementedError

    def plan_holds(self, index: int, tree, cost: int, space: str) -> bool:
        """True when a plan for database ``index`` costs what its steps'
        recounted join sizes add up to, and that is the recounted
        optimum of ``space``."""
        recount = self.recounts[index]
        try:
            return recount.strategy_cost(tree) == cost == recount.optimum(space)
        except ValueError:
            return False

    def run_checks(self) -> List[str]:
        """Run-level checks against the paper's numbers; returns the
        failures."""
        failures = []
        db = example1()
        recount = Recount(db)
        for text, cost in EXAMPLE1_COSTS:
            strategy = parse_strategy(db, text)
            for who, got in (("library", tau_cost(strategy)),
                             ("recount", recount.strategy_cost(shape(strategy)))):
                if got != cost:
                    failures.append(f"example 1: {who} tau{text} = {got}, paper {cost}")
        for factory, space, cost in EXAMPLE_OPTIMA:
            got = optimize_dp(factory(), space).cost
            again = Recount(factory()).optimum(space.value)
            if got != cost or again != cost:
                failures.append(
                    f"{factory.__name__} {space.value} optimum: library {got}, "
                    f"recount {again}, paper {cost}"
                )
        for factory, expected in PAPER_VERDICTS:
            got = Recount(factory()).safety_report()
            if any(got[key] is not want for key, want in expected.items()):
                failures.append(f"{factory.__name__}: recount verdicts {got}")
        return failures

    def _rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{index}")


class PlanAcyclic(Workload):
    name = "plan-acyclic"
    databases = 50
    min_rounds = 2
    nominal_ops_per_s = 9.0

    def build(self, seed):
        # One star per four chains: star-8 plans about 18% faster than
        # chain-9, and at 1:1 p50 sat in the gap between the two shapes'
        # latency modes.  At 1:4, p50 and p90 lie inside one mode.  The
        # shapes are one relation smaller than chain-10 and star-9 so
        # that a run makes 250 ops, not 100: with 100, p90 wandered by up
        # to 11% between runs.
        return [
            generate("star", 8, 15, 6, self._rng(seed, i))
            if i % 5 == 0
            else generate("chain", 9, 15, 6, self._rng(seed, i))
            for i in range(self.databases)
        ]

    def op(self, base):
        db = cold_copy(base)
        return db, optimize_dp(db, SearchSpace.ALL), optimize_dp(db, SearchSpace.NOCP)

    def stats_databases(self, outcome):
        return (outcome[0],)

    def digest(self, outcome):
        _, best, nocp = outcome
        return shape(best.strategy), best.cost, shape(nocp.strategy), nocp.cost

    def check(self, index, digest):
        best, best_cost, nocp, nocp_cost = digest
        return (
            self.plan_holds(index, best, best_cost, "all")
            and self.plan_holds(index, nocp, nocp_cost, "nocp")
            and self.recounts[index].avoids_cartesian_products(nocp)
        )


class QueryCyclic(Workload):
    name = "query-cyclic"
    databases = 50
    min_rounds = 2
    nominal_ops_per_s = 3.7

    def build(self, seed):
        # One cycle per four cliques: whichever shape is faster, p50 and
        # p90 then lie inside one shape's latency mode, never in a gap
        # between the two.
        return [
            generate_regular_cycle(8, 3, 8, self._rng(seed, i))
            if i % 5 == 0
            else generate("clique", 6, 60, 8, self._rng(seed, i))
            for i in range(self.databases)
        ]

    def op(self, base):
        query = JoinQuery(cold_copy(base))
        plan = query.optimize()
        result = query.execute(plan)
        rows = list(result.rows)
        return query, plan, result, rows, plan.explain()

    def stats_databases(self, outcome):
        return (outcome[0].database,)

    def digest(self, outcome):
        _, plan, result, rows, text = outcome
        return (
            shape(plan.strategy),
            plan.cost,
            plan.space.value,
            len(rows) == len(result) and f"tau: {plan.cost}" in text,
            rows_digest(result),
        )

    def references(self, bases):
        super().references(bases)
        for index, base in enumerate(bases):
            legacy = Database(base.relations(), engine="legacy")
            self.reference[index] = rows_digest(legacy.join_of(None))

    def check(self, index, digest):
        tree, cost, space, read_ok, rows = digest
        return (
            self.plan_holds(index, tree, cost, space)
            and read_ok
            and rows == self.reference[index]
        )


class SafetyCheck(Workload):
    name = "safety-check"
    databases = 25
    min_rounds = 4
    nominal_ops_per_s = 4.0

    def build(self, seed):
        self.examples = [factory() for factory, _ in PAPER_VERDICTS]
        return [generate("star", 8, 15, 6, self._rng(seed, i)) for i in range(self.databases)]

    def op(self, base):
        query = JoinQuery(cold_copy(base))
        report = query.safety_report()
        examples = [JoinQuery(cold_copy(ex)) for ex in self.examples]
        return query, report, examples, [q.safety_report() for q in examples]

    def stats_databases(self, outcome):
        return (outcome[0].database,) + tuple(q.database for q in outcome[2])

    def digest(self, outcome):
        return outcome[1], outcome[3]

    def references(self, bases):
        for index, base in enumerate(bases):
            self.reference[index] = Recount(base).safety_report()

    def check(self, index, digest):
        report, example_reports = digest
        if report != self.reference[index]:
            return False
        return all(
            all(got[key] is want for key, want in expected.items())
            for got, (_, expected) in zip(example_reports, PAPER_VERDICTS)
        )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (PlanAcyclic, QueryCyclic, SafetyCheck)
}

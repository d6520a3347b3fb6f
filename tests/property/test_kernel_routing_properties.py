"""Kernel choice never changes an answer: on random 3-5-relation
hypergraphs, cyclic and acyclic, over small mixed-type domains, an
unpinned database (kernels priced per connected subset) returns the
same joins and taus as the ``legacy``-pinned row-at-a-time engine.

Joins are compared as digests of their rows' sorted ``repr`` strings,
so ``1``, ``1.0`` and ``True`` stay distinct.  Both databases hold the
same relation objects, so the comparison isolates the kernels; how
values are interned when relations are built is a separate matter.

The memo policy is checked on the way: a join nobody requested through
``join_of`` (a stepping stone, or a subset materialized only to count
it) never enters the join memo.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.database import Database
from repro.relational.relation import Relation
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.schemegraph.scheme import DatabaseScheme

_ATTRS = "ABCDE"
#: Mixed types, among them the equal keys ``1``/``1.0``/``True`` and
#: ``0``/``False``.
_VALUES = (0, 1, 1.0, True, False, "a", (1,), 2.5, None)


@st.composite
def _rows(draw, width, hot):
    """Random rows, or -- for two attributes -- a spike: the hot value
    paired with others, on both sides.  Spikes sharing one hot value
    make pairwise joins quadratic while the relations stay linear, so
    the multiway kernels win their price now and then."""
    if width == 2 and draw(st.booleans()):
        others = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=9))
        return [(hot, v) for v in others] + [(v, hot) for v in others]
    return draw(
        st.lists(
            st.tuples(*[st.sampled_from(_VALUES)] * width),
            min_size=1,
            max_size=12,
        )
    )


@st.composite
def mixed_databases(draw):
    count = draw(st.integers(3, 5))
    # Half the schemes start from a triangle or a 4-cycle of binary
    # schemes, so cyclic connected subsets are common.
    base = draw(st.sampled_from([(), ("AB", "BC", "AC"), ("AB", "BC", "CD", "AD")]))
    schemes = [frozenset(edge) for edge in base[:count]]
    schemes += draw(
        st.lists(
            st.frozensets(st.sampled_from(_ATTRS), min_size=1, max_size=3).filter(
                lambda edge: edge not in schemes
            ),
            min_size=count - len(schemes),
            max_size=count - len(schemes),
            unique=True,
        )
    )
    hot = draw(st.sampled_from(_VALUES))
    relations = []
    for index, scheme in enumerate(schemes):
        order = sorted(scheme)
        rows = draw(_rows(len(order), hot))
        relations.append(
            Relation.from_tuples(scheme, rows, order=order, name=f"R{index}")
        )
    return relations


def _digest(relation):
    text = "\n".join(sorted(map(repr, relation.rows)))
    return hashlib.sha256(text.encode()).hexdigest()


@settings(max_examples=80, deadline=None)
@given(relations=mixed_databases(), data=st.data())
def test_priced_kernels_match_legacy(relations, data):
    auto = Database(relations)
    legacy = Database(relations, engine="legacy")
    subsets = [frozenset(s.schemes) for s in auto.scheme.subsets()]
    calls = data.draw(
        st.lists(
            st.tuples(st.sampled_from(subsets), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    requested = set()
    for subset, want_join in calls:
        if want_join:
            requested.add(subset)
            assert _digest(auto.join_of(subset)) == _digest(legacy.join_of(subset))
        else:
            assert auto.tau_of(subset) == legacy.tau_of(subset)
            assert set(key for key, _ in auto._join_cache.items()) <= requested
    # Stones kept whole are cyclic subsets only.
    for key, _ in auto._stones.items():
        assert not is_alpha_acyclic(DatabaseScheme(key))
    assert auto.tau_of() == legacy.tau_of()
    assert _digest(auto.evaluate()) == _digest(legacy.evaluate())

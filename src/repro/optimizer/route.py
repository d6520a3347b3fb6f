"""Engine routing: which kernel executes a query's joins, and why.

The binary-join machinery this library is built around is provably fine
on alpha-acyclic schemes *when the output is large* -- a join tree gives
a binary order whose intermediates never exceed input + output -- but
two shapes defeat every binary order:

* **cyclic** schemes: the triangle can force every pairwise plan through
  a Θ(N²) intermediate while the output is O(N^1.5) (the AGM bound,
  :mod:`repro.wcoj.agm`), and Generic Join runs within the bound;
* **acyclic** schemes with selective interaction: pairwise joins can be
  Θ(N²) while the full output is tiny, and the Yannakakis full reducer
  (:mod:`repro.yannakakis`) bounds every intermediate by input + output.

Shape alone does not say which kernel is cheaper, though: on clique-6
every subset is cyclic, yet the binary extension is several times
faster than Generic Join.  So the kernel is not chosen per database.
An unpinned database on the default engine prices every connected
subset ``S`` of three or more relations as it joins it (see
:meth:`~repro.database.Database._price`): with ``l`` the spanning-tree
leaf the binary extension peels off, a cyclic ``S`` runs on Generic
Join only when ``AGM(S) < tau(S-l)``, an acyclic ``S`` on Yannakakis
only when ``sum |R_i| < tau(S-l)``, and every other subset on the
binary extension.

:class:`EngineRouter` never overrides an explicit choice -- a database
pinned with ``engine=`` or a process engine somebody
:func:`~repro.relational.columnar.set_engine`-ed away from the default
stays put -- and otherwise reports ``"auto"``.  The
:class:`EngineRouting` record it returns is the one provenance shape for
every engine decision: it travels on plan and profile provenance so
``explain`` can say which engine ran and why, with the AGM bound, the
GYO join tree (acyclic) or the Generic-Join expansion order (cyclic),
and the kernels the database actually ran
(:meth:`~repro.database.Database.kernel_stats`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.database import Database, KernelStats
from repro.relational.attributes import format_attrs
from repro.relational.columnar import current_engine
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.schemegraph.jointree import JoinTree, build_join_tree
from repro.wcoj.agm import FractionalEdgeCover, fractional_edge_cover
from repro.wcoj.order import choose_order

__all__ = ["EngineRouter", "EngineRouting"]


class EngineRouting:
    """Why a query runs on the engine it runs on.

    ``requested`` is the engine the database would have used on its own
    (its pin, or the process-wide engine); ``effective`` the engine that
    runs -- ``"auto"`` when kernels are priced per connected subset;
    ``cyclic``/``connected`` the scheme-shape facts the
    decision rests on; ``reason`` a one-line human explanation;
    ``cover`` the optimal fractional edge cover of the scheme hypergraph
    (the AGM output bound), attached whenever the scheme is connected;
    ``components`` the per-connected-component verdicts
    ``(relations, cyclic, engine)`` the decision aggregates; ``tree``
    the GYO join tree the Yannakakis pipeline sweeps (connected acyclic
    schemes); and ``expansion`` the Generic-Join attribute order
    (connected cyclic schemes) -- the last two feed the ``explain``
    rendering of the multiway structure; and ``database`` the routed
    database, whose :meth:`~repro.database.Database.kernel_stats` feed
    :attr:`kernels`.
    """

    __slots__ = (
        "requested",
        "effective",
        "cyclic",
        "connected",
        "reason",
        "cover",
        "components",
        "tree",
        "expansion",
        "database",
    )

    def __init__(
        self,
        requested: str,
        effective: str,
        cyclic: bool,
        connected: bool,
        reason: str,
        cover: Optional[FractionalEdgeCover] = None,
        components: Tuple[Tuple[int, bool, str], ...] = (),
        tree: Optional[JoinTree] = None,
        expansion: Optional[Tuple[str, ...]] = None,
        database: Optional[Database] = None,
    ):
        self.requested = requested
        self.effective = effective
        self.cyclic = cyclic
        self.connected = connected
        self.reason = reason
        self.cover = cover
        self.components = components
        self.tree = tree
        self.expansion = expansion
        self.database = database

    @property
    def kernels(self) -> Optional[KernelStats]:
        """The kernels the routed database has run so far (read live, so
        a plan explained after execution shows them), or ``None`` when
        the record carries no database."""
        if self.database is None:
            return None
        return self.database.kernel_stats()

    @property
    def routed(self) -> bool:
        """True when the router changed the engine."""
        return self.effective != self.requested

    def describe(self) -> str:
        """The ``engine:`` explain line."""
        shape = "cyclic" if self.cyclic else "acyclic"
        if self.routed:
            return (
                f"engine: {self.effective} (requested {self.requested}; "
                f"scheme {shape} -> {self.reason})"
            )
        return f"engine: {self.effective} (scheme {shape}; {self.reason})"

    def structure_lines(self) -> List[str]:
        """Explain lines for the multiway structure, if any.

        Connected acyclic schemes render the GYO join tree the
        Yannakakis sweeps run over (root first, children indented);
        connected cyclic schemes render the Generic-Join expansion
        order.  Binary-only routings render nothing.
        """
        if self.tree is not None:
            nodes = self.tree.scheme.sorted_schemes()
            order = self.tree.rooted_at(nodes[0])
            depths: Dict[Any, int] = {}
            lines = ["join tree:"]
            for node, parent in order:
                depths[node] = 0 if parent is None else depths[parent] + 1
                lines.append("  " * (depths[node] + 1) + format_attrs(node))
            return lines
        if self.expansion is not None:
            return ["expansion order: " + " -> ".join(self.expansion)]
        return []

    def structure_summary(self) -> Optional[Tuple[str, str]]:
        """The multiway structure as one ``(key, value)`` pair for
        aligned key-value renderings (the profile summary), or ``None``
        when the routing is binary-only."""
        if self.tree is not None:
            edges = sorted(
                (format_attrs(a), format_attrs(b)) for a, b in self.tree.edges
            )
            return ("join tree", ", ".join(f"{a}-{b}" for a, b in edges))
        if self.expansion is not None:
            return ("expansion order", " -> ".join(self.expansion))
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready image (embedded in plan/profile exports)."""
        kernels = self.kernels
        return {
            "requested": self.requested,
            "effective": self.effective,
            "routed": self.routed,
            "cyclic": self.cyclic,
            "connected": self.connected,
            "reason": self.reason,
            "agm": self.cover.to_dict() if self.cover is not None else None,
            "components": [
                {"relations": size, "cyclic": cyc, "engine": engine}
                for size, cyc, engine in self.components
            ],
            "tree": (
                sorted(
                    sorted([list(a.sorted()), list(b.sorted())])
                    for a, b in self.tree.edges
                )
                if self.tree is not None
                else None
            ),
            "expansion": (
                list(self.expansion) if self.expansion is not None else None
            ),
            "kernels": kernels.to_dict() if kernels is not None else None,
        }

    def __repr__(self) -> str:
        arrow = f"{self.requested}->{self.effective}" if self.routed else self.effective
        return f"<EngineRouting {arrow} cyclic={self.cyclic}>"


class EngineRouter:
    """Report which engine runs a database's joins, and why.

    The decision matrix (also in docs/api.md):

    ========================  ==========================================
    situation                 effective engine
    ========================  ==========================================
    ``Database(engine=...)``  the pin, always
    process engine != vector  the process engine, always
    everything else           ``auto``: each connected subset of >= 3
                              relations is priced and runs on Generic
                              Join, Yannakakis or the binary extension
    ========================  ==========================================
    """

    #: The reason ``explain`` prints for ``"auto"``.
    PRICED = (
        "kernel priced per connected subset S: generic join if "
        "AGM(S) < tau(S-l), yannakakis if sum |R| < tau(S-l), else binary"
    )

    def __init__(self, db: Database):
        self._db = db

    def route(self) -> EngineRouting:
        """Decide the execution engine for the database and say why."""
        db = self._db
        scheme = db.scheme
        cyclic = not is_alpha_acyclic(scheme)
        connected = scheme.is_connected()
        cover = None
        if connected:
            relations = db.relations()
            cover = fractional_edge_cover(
                [rel.scheme for rel in relations],
                [len(rel) for rel in relations],
            )
        components = scheme.components()
        pinned = db.pinned_engine
        requested = pinned if pinned is not None else current_engine()
        if pinned is not None:
            effective, reason = pinned, "pinned on the database"
        elif requested != "vector":
            effective, reason = requested, "process engine set explicitly"
        elif any(len(component) >= 3 for component in components):
            effective, reason = "auto", self.PRICED
        else:
            effective = "auto"
            reason = "no connected subset of three or more relations"
        # Below three relations "auto" has nothing to price: the join is
        # one binary step on the default kernel.
        verdicts = tuple(
            (
                len(component),
                not is_alpha_acyclic(component),
                "vector" if effective == "auto" and len(component) < 3
                else effective,
            )
            for component in components
        )
        tree = None
        expansion = None
        if connected:
            auto = effective == "auto" and len(scheme) >= 3
            if not cyclic and (auto or effective == "yannakakis"):
                tree = build_join_tree(scheme)
            elif cyclic and (auto or effective in ("wcoj", "yannakakis")):
                expansion = choose_order([rel.scheme for rel in db.relations()])
        return EngineRouting(
            requested, effective, cyclic, connected, reason,
            cover, verdicts, tree, expansion, db,
        )

"""Reference answers computed apart from the library.

:class:`Recount` reads only each relation's attribute names and its rows
(as plain value tuples), and from them recounts everything the checks
compare against: the tau of every subset of relations, the optimum tau
cost over all strategies and over Cartesian-product-free ones, and the
verdicts of conditions C1-C3.  None of it goes through the library's
tau counting, join kernels, subset DP, scheme-graph code or condition
sweeps, so a wrong answer there is not reproduced here.

Subsets of relations are bit masks over the relations in scheme-sorted
order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence


class Recount:
    """Independent tau counts, optima and condition verdicts for one
    database."""

    def __init__(self, db):
        relations = db.relations()
        self.index = {rel.scheme: i for i, rel in enumerate(relations)}
        self.attrs = [tuple(rel.scheme.sorted()) for rel in relations]
        self.rows = [
            [row.values_for(attrs) for row in rel.rows]
            for rel, attrs in zip(relations, self.attrs)
        ]
        n = len(relations)
        self.full = (1 << n) - 1
        self.adjacent = [
            sum(1 << j for j in range(n) if j != i and set(self.attrs[i]) & set(self.attrs[j]))
            for i in range(n)
        ]
        self.parts = [[]] + [self._components(m) for m in range(1, self.full + 1)]
        self._tau: Dict[int, int] = {}
        self._optima: Dict[str, int] = {}

    # -- subsets ---------------------------------------------------------------

    def mask(self, schemes) -> int:
        return sum(1 << self.index[scheme] for scheme in schemes)

    def members(self, mask: int) -> List[int]:
        return [i for i in range(len(self.attrs)) if mask >> i & 1]

    def _components(self, mask: int) -> List[int]:
        """The connected components of ``mask``, as masks."""
        parts = []
        left = mask
        while left:
            part = frontier = left & -left
            while frontier:
                grown = 0
                for i in self.members(frontier):
                    grown |= self.adjacent[i]
                frontier = grown & mask & ~part
                part |= frontier
            parts.append(part)
            left &= ~part
        return parts

    def connected(self, mask: int) -> bool:
        return len(self.parts[mask]) == 1

    def linked(self, a: int, b: int) -> bool:
        return any(self.adjacent[i] & b for i in self.members(a))

    # -- tau ---------------------------------------------------------------------

    def tau(self, mask: int) -> int:
        """The size of the join of the relations in ``mask``."""
        if mask not in self._tau:
            parts = self.parts[mask]
            if len(parts) == 1:
                self._tau[mask] = self._count(self.members(mask))
            else:
                tau = 1
                for part in parts:
                    tau *= self.tau(part)
                self._tau[mask] = tau
        return self._tau[mask]

    def _count(self, members: Sequence[int]) -> int:
        """Join size of a connected subset, joining one relation at a
        time while keeping only the attributes later relations need,
        with each kept assignment's multiplicity."""
        order = [max(members, key=lambda i: len(self.attrs[i]))]
        while len(order) < len(members):
            seen = {a for i in order for a in self.attrs[i]}
            order.append(max(
                (i for i in members if i not in order),
                key=lambda i: len(seen.intersection(self.attrs[i])),
            ))
        counts = {(): 1}
        bound: tuple = ()
        for pos, i in enumerate(order):
            attrs = self.attrs[i]
            later = {a for j in order[pos + 1:] for a in self.attrs[j]}
            shared = [a for a in bound if a in attrs]
            at = [attrs.index(a) for a in shared]
            matches = defaultdict(list)
            for row in self.rows[i]:
                matches[tuple(row[k] for k in at)].append(row)
            kept = tuple(sorted((set(bound) | set(attrs)) & later))
            grown: Dict[tuple, int] = defaultdict(int)
            for key, count in counts.items():
                assignment = dict(zip(bound, key))
                for row in matches.get(tuple(assignment[a] for a in shared), ()):
                    assignment.update(zip(attrs, row))
                    grown[tuple(assignment[a] for a in kept)] += count
            counts, bound = grown, kept
        return sum(counts.values())

    def steps(self, tree) -> List[tuple]:
        """The (left, right) masks of every step of a strategy given as
        nested pairs of schemes; ValueError unless it joins every
        relation of the database exactly once."""
        steps = []

        def walk(node) -> int:
            if not isinstance(node, tuple):
                return self.mask((node,))
            left, right = walk(node[0]), walk(node[1])
            if left & right:
                raise ValueError("a strategy uses a relation twice")
            steps.append((left, right))
            return left | right

        if walk(tree) != self.full:
            raise ValueError("a strategy does not cover the database")
        return steps

    def strategy_cost(self, tree) -> int:
        """tau cost of a strategy: the sum of its steps' join sizes."""
        return sum(self.tau(left | right) for left, right in self.steps(tree))

    def avoids_cartesian_products(self, tree) -> bool:
        """True when the strategy lies in the NOCP space."""
        return all(
            self._avoids_cp(self.parts[left | right], left, right)
            for left, right in self.steps(tree)
        )

    # -- optima ------------------------------------------------------------------

    def optimum(self, space: str) -> int:
        """The least tau cost over all strategies (``"all"``) or over
        those that avoid Cartesian products (``"nocp"``): every node of a
        connected subset is connected, and the components of an
        unconnected one are each evaluated within one part."""
        if space not in ("all", "nocp"):
            raise ValueError(f"no reference optimum for space {space!r}")
        if space not in self._optima:
            nocp = space == "nocp"
            best = [0] * (self.full + 1)
            for mask in range(1, self.full + 1):
                if mask & (mask - 1) == 0:
                    continue
                parts = self.parts[mask]
                low = mask & -mask
                cheapest = None
                sub = (mask - 1) & mask
                while sub:
                    other = mask ^ sub
                    if sub & low and (not nocp or self._avoids_cp(parts, sub, other)):
                        cost = best[sub] + best[other]
                        if cheapest is None or cost < cheapest:
                            cheapest = cost
                    sub = (sub - 1) & mask
                best[mask] = self.tau(mask) + cheapest
            self._optima[space] = best[self.full]
        return self._optima[space]

    def _avoids_cp(self, parts: List[int], sub: int, other: int) -> bool:
        if len(parts) == 1:
            return self.connected(sub) and self.connected(other)
        return all(part & sub in (0, part) for part in parts)

    # -- conditions --------------------------------------------------------------

    def conditions(self) -> Dict[str, bool]:
        """C1-C3 over disjoint connected subsets, decided by brute force
        from their definitions."""
        connected = [m for m in range(1, self.full + 1) if self.connected(m)]
        c2 = c3 = True
        c2 = c3 = True
        for a, e1 in enumerate(connected):
            for e2 in connected[a + 1:]:
                if e1 & e2 or not self.linked(e1, e2):
                    continue
                joined, tau1, tau2 = self.tau(e1 | e2), self.tau(e1), self.tau(e2)
                c2 = c2 and (joined <= tau1 or joined <= tau2)
                c3 = c3 and joined <= tau1 and joined <= tau2
        return {"C1": self._c1(connected), "C2": c2, "C3": c3}

    def _c1(self, connected: List[int]) -> bool:
        """C1: tau(E ⋈ E1) <= tau(E ⋈ E2) whenever E is linked to E1 and
        not to E2.  The E2 are scanned by increasing tau(E ⋈ E2), so the
        scan for one E1 stops at the first E2 that cannot violate it."""
        for e in connected:
            near = [m for m in connected if not m & e and self.linked(e, m)]
            far = sorted(
                (m for m in connected if not m & e and not self.linked(e, m)),
                key=lambda m: self.tau(e | m),
            )
            for e1 in near:
                lhs = self.tau(e | e1)
                for e2 in far:
                    if self.tau(e | e2) >= lhs:
                        break
                    if not e2 & e1:
                        return False
        return True

    def safety_report(self) -> Dict[str, bool]:
        """The paper's guarantees: every space is safe only when the
        database is connected with a nonempty join; then NOCP is safe
        under C1 and C2 (Theorem 2), the linear spaces under C3
        (Theorem 3)."""
        report = self.conditions()
        usable = self.connected(self.full) and self.tau(self.full) > 0
        report.update({
            "safe[all]": True,
            "safe[linear]": usable and report["C3"],
            "safe[nocp]": usable and report["C1"] and report["C2"],
            "safe[linear_nocp]": usable and report["C3"],
        })
        return report

"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the library's public entry points in span
recorders for the duration of a ``with tracer.installed():`` block.  A
function is wrapped where it is *bound*: every module that imported it
with ``from x import f`` holds its own reference, so the tracer replaces
the object on every loaded ``repro`` module (and on the benchmark's
``workloads`` module) that holds it, and restores all of them on exit.  Methods and
properties are wrapped on their class.

A span's layer is the package its function lives in (``repro.wcoj.join``
is layer ``wcoj``).  Spans are kept in memory; :func:`summarize` turns
one op's spans into per-layer self times and call counts, and the
inclusive time of each entry point.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

from harness import Span, outermost_totals, self_times

#: (module, attribute path) of every traced entry point.
TRACED = (
    ("repro.optimizer.dp", "optimize_dp"),
    ("repro.optimizer.route", "EngineRouter.route"),
    ("repro.schemegraph.scheme", "DatabaseScheme.components"),
    ("repro.schemegraph.scheme", "DatabaseScheme.is_connected"),
    ("repro.schemegraph.scheme", "DatabaseScheme.is_linked_to"),
    ("repro.schemegraph.scheme", "DatabaseScheme.connected_subsets"),
    ("repro.schemegraph.acyclicity", "is_alpha_acyclic"),
    ("repro.schemegraph.jointree", "build_join_tree"),
    ("repro.database", "Database.__init__"),
    ("repro.database", "Database.tau_of"),
    ("repro.database", "Database.join_of"),
    ("repro.database", "Database.connected_subsets"),
    ("repro.relational.relation", "Relation.join"),
    ("repro.relational.relation", "Relation.rows"),
    ("repro.relational.relation", "Relation.from_tuples"),
    ("repro.wcoj.join", "generic_join"),
    ("repro.yannakakis.join", "yannakakis_join"),
    ("repro.conditions.checks", "check_c1"),
    ("repro.conditions.checks", "check_c2"),
    ("repro.conditions.checks", "check_c3"),
    ("repro.strategy.cost", "tau_cost"),
    ("repro.strategy.tree", "Strategy.state"),
    ("repro.strategy.tree", "Strategy.describe"),
    ("repro.query", "Plan.explain"),
    ("repro.query", "JoinQuery.__init__"),
    ("repro.query", "JoinQuery.optimize"),
    ("repro.query", "JoinQuery.execute"),
    ("repro.query", "JoinQuery.safety_report"),
)

#: The layers, named after the library's packages and modules.
LAYERS = (
    "optimizer", "schemegraph", "database", "relational", "wcoj",
    "yannakakis", "conditions", "strategy", "query",
)

#: Modules outside ``repro.*`` whose ``from x import f`` bindings are
#: wrapped too: the package itself and the benchmark's workloads.
HOLDERS = ("repro", "workloads")

#: The span opened by the harness around each traced op.
OP_SPAN = "op"


def _layer_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    """Records nested spans while installed.

    :meth:`take` returns the spans recorded since the last call, as
    :data:`~harness.Span` tuples whose parent is an index into the same
    list.
    """

    def __init__(self):
        self._open: List[list] = []
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        index = len(self._open)
        parent = self._stack[-1] if self._stack else -1
        self._open.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        return traced

    @contextmanager
    def span(self, name: str, layer: str = "harness") -> Iterator[None]:
        """An explicit span (the harness's root span around an op)."""
        index = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(index)

    def take(self) -> List[Span]:
        """The spans recorded since the last call, as tuples."""
        if self._stack:
            raise RuntimeError("take() called with spans still open")
        spans = [tuple(span) for span in self._open]
        self._open = []
        return spans

    # -- installation ---------------------------------------------------------------

    def _patches(self) -> List[Tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every binding."""
        patches = []
        for module_name, path in TRACED:
            module = importlib.import_module(module_name)
            layer = _layer_of(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, property):
                    new = property(
                        self._wrap(raw.fget, path, layer), raw.fset, raw.fdel, raw.__doc__
                    )
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, path, layer))
                else:
                    new = self._wrap(raw, path, layer)
                patches.append((cls, attr, raw, new))
                continue
            original = getattr(module, path)
            new = self._wrap(original, path, layer)
            for holder in self._holders():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, attr, original, new))
        return patches

    def _holders(self):
        for name, module in list(sys.modules.items()):
            if module is None:
                continue
            if name in HOLDERS or name.startswith("repro."):
                yield module

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced entry point for the scope of the block."""
        patches = self._patches()
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)


def summarize(spans: Sequence[Span]) -> Dict[str, float]:
    """One op's spans as flat numbers (times in ms).

    ``<layer>.self_ms`` and ``<layer>.calls`` for every layer,
    ``harness.unattributed_ms`` for the root span's own time,
    ``harness.op_ms`` for the root span, and ``incl.<name>`` for the
    outermost calls of each entry point.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 0.0
        out[f"{layer}.calls"] = 0
    out["harness.op_ms"] = 0.0
    out["harness.unattributed_ms"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, layer = span[0], span[1]
        if name == OP_SPAN:
            out["harness.op_ms"] += (span[3] - span[2]) * 1e3
            out["harness.unattributed_ms"] += own * 1e3
            continue
        out[f"{layer}.self_ms"] += own * 1e3
        out[f"{layer}.calls"] += 1
    for name, total in outermost_totals(spans).items():
        if name != OP_SPAN:
            out[f"incl.{name}"] = total * 1e3
    return out

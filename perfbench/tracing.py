"""In-memory spans and simulator counts for the benchmark.

Spans are recorded by wrapping public functions and methods of the
program's modules from the benchmark's side; nothing under ``src/`` is
changed.  A span keeps its name, start, end (``time.perf_counter``) and
the span that was open when it started.  The traced run is single
threaded in this process, so parents are tracked with a stack.

A layer's self time is its duration minus the time of the spans nested
directly inside it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``after(result, args)`` hook run once a wrapped call's span is closed.
After = Optional[Callable[[Any, tuple], None]]


class Patches:
    """Attribute replacements on modules and classes, undone by ``close``."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, value, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class Tracer(Patches):
    """Records spans around wrapped callables."""

    def __init__(self) -> None:
        super().__init__()
        #: ``[span_id, parent_id, name, start, end]`` in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrapper(self, original: Callable, name: str, after: After = None) -> Callable:
        """*original*, timed as span *name*."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def wrap_method(self, cls: type, attr: str, name: str, after: After = None) -> None:
        """Time every call of ``cls.attr`` as span *name*."""
        self.set(cls, attr, self.wrapper(getattr(cls, attr), name, after))

    def wrap_function(self, function: Callable, name: str, after: After = None) -> None:
        """Time every call of *function* as span *name*.

        The function is replaced in its own module and in every loaded
        module that imported it by name, so callers that did
        ``from module import function`` see the wrapper too.
        """
        traced = self.wrapper(function, name, after)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is function:
                    self.set(module, attr, traced)

    # -- analysis --------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span, to analyse one section of the run."""
        return len(self.spans)

    def totals(self, start: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name, over the spans from index *start* on: ``count``,
        ``total`` (durations, counting a span nested in one of the same
        name once) and ``self`` (durations minus nested spans)."""
        spans = self.spans[start:]
        by_id = {span[0]: span for span in spans}
        child_time: Dict[int, float] = {}
        for _id, parent, _name, begin, end in spans:
            if parent in by_id:
                child_time[parent] = child_time.get(parent, 0.0) + end - begin
        out: Dict[str, Dict[str, float]] = {}
        for span_id, parent, name, begin, end in spans:
            entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            entry["count"] += 1
            entry["self"] += end - begin - child_time.get(span_id, 0.0)
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                entry["total"] += end - begin
        return out

    def top_level_seconds(self, start: int = 0) -> float:
        """Wall time covered by spans (from *start* on) with no parent."""
        return sum(
            end - begin
            for _id, parent, _name, begin, end in self.spans[start:]
            if parent is None
        )

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the header and every span as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = [
            {"id": i, "parent": parent, "name": name, "start": begin, "end": end}
            for i, parent, name, begin, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": records}, handle)
            handle.write("\n")


#: Simulator work counts read from each engine and flow network.
SIM_COUNTS = (
    "events",
    "timers_scheduled",
    "flow_recomputes",
    "solver_iterations",
    "solver_classes",
    "recomputes_coalesced",
    "memo_hits",
    "memo_misses",
)


class SimCounters:
    """Sums engine and flow-solver counters over finished simulations.

    Counters are read when ``Engine.run`` returns.  Flow networks register
    at construction and are dropped once their engine's run is read, so
    no simulation is kept alive.  With a tracer, ``Engine.run`` is also a
    span (``sim.engine_run``).
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(SIM_COUNTS, 0)
        self._networks: List[Any] = []

    def install(self, patches: Patches, tracer: Optional[Tracer] = None) -> None:
        from repro.sim.engine import Engine
        from repro.sim.flow import FlowNetwork

        networks = self._networks
        network_init = FlowNetwork.__init__

        @functools.wraps(network_init)
        def registering_init(network, *args, **kwargs):
            network_init(network, *args, **kwargs)
            networks.append(network)

        patches.set(FlowNetwork, "__init__", registering_init)
        run = Engine.run
        if tracer is not None:

            def read(_result: Any, args: tuple) -> None:
                self.read(args[0])

            patches.set(Engine, "run", tracer.wrapper(run, "sim.engine_run", read))
            return

        @functools.wraps(run)
        def counted_run(engine, *args, **kwargs):
            result = run(engine, *args, **kwargs)
            self.read(engine)
            return result

        patches.set(Engine, "run", counted_run)

    def read(self, engine: Any) -> None:
        counts = self.counts
        counts["events"] += engine.events_executed
        counts["timers_scheduled"] += engine.timers_scheduled
        mine = [network for network in self._networks if network.engine is engine]
        for network in mine:
            counts["flow_recomputes"] += network.recompute_count
            counts["solver_iterations"] += network.solver_iterations
            counts["solver_classes"] += network.solver_classes
            counts["recomputes_coalesced"] += network.recomputes_coalesced
            counts["memo_hits"] += network.memo_hits
            counts["memo_misses"] += network.memo_misses
            self._networks.remove(network)

    def take(self) -> Dict[str, int]:
        """The counts so far, then reset to zero."""
        counts = dict(self.counts)
        self.counts = dict.fromkeys(SIM_COUNTS, 0)
        return counts

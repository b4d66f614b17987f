"""SIM2xx — whole-program determinism-taint analysis.

The PR-1 rule SIM109 is syntactic: it flags a host-clock *call* in an
unsanctioned module.  It cannot see the actually dangerous pattern — a
helper that reads the clock (legally, in :mod:`repro.service`) and returns
the value to a caller that stores it in a byte-identical payload.  This
analyzer closes that gap by running the :mod:`repro.analysis.dataflow`
engine over the :mod:`repro.analysis.project` model with three taint
families and the repository's deterministic *sinks*:

``SIM201`` host-clock taint
    ``time.time()`` / ``perf_counter()`` / ``datetime.now()`` values —
    read anywhere except the sanctioned source modules
    (:mod:`repro.obs.hostmetrics`, :mod:`repro.runtime`) — reaching a
    trace record, store cell, manifest, or cell-id hash, including through
    chains of helper calls.
``SIM202`` RNG / host-entropy taint
    ``random.*`` / ``numpy.random.*`` / ``os.urandom`` / ``uuid.uuid4`` /
    ``secrets.*`` / ``os.getpid`` / builtin ``hash()`` (randomized per
    process for strings) values reaching the same sinks.
``SIM203`` iteration-order taint
    Values whose *order* is not deterministic — ``set``/``frozenset``
    iteration, ``os.listdir``/``glob`` results, unsorted ``dict`` views —
    accumulated into an order-preserving container that reaches a sink.
    Because every payload serializes with ``sort_keys=True``
    (:func:`repro.obs.store.canonical_json`), order taint dies when a
    value is stored *under a dict key* and survives when it is appended
    to a *list*; ``sorted()`` (and order-insensitive reductions such as
    ``sum``/``min``/``max``) sanitize it.

Sinks (the byte-identity surfaces of PRs 2–4):

* ``StoredCell(...)`` — the ``cell_id`` / ``key`` / ``deterministic``
  fields (``host=`` and ``provenance=`` are segregated by design);
* ``CampaignStore.append_cell(...)`` / ``append_cells(...)`` — the
  appended cell(s);
* ``cell_id_from_manifests(...)`` / ``cell_id_for_spec(...)`` — anything
  hashed into a cell id;
* ``Tracer.record(...)`` — simulated trace events;
* ``RunManifest(...)`` / ``build_manifest(...)`` — every field except the
  provenance trio (``git_sha`` / ``repro_version`` / ``python_version``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import (
    Hit,
    TaintPolicy,
    TaintWalker,
    run_taint_analysis,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticSink, sort_diagnostics
from repro.analysis.noqa import filter_noqa
from repro.analysis.project import ModuleInfo, Project
from repro.analysis.rules import get_rule

#: Taint labels.
HOST_CLOCK = "host-clock"
RNG = "rng"
ITER_ORDER = "iter-order"

#: Labels that encode ordering (die at dict stores / sorted()).
ORDER_LABELS: FrozenSet[str] = frozenset({ITER_ORDER})

#: label -> rule code, in emission priority order.
LABEL_RULES: Tuple[Tuple[str, str], ...] = (
    (HOST_CLOCK, "SIM201"),
    (RNG, "SIM202"),
    (ITER_ORDER, "SIM203"),
)

#: The only modules whose host-clock use is part of their contract.
SANCTIONED_SOURCE_MODULES: FrozenSet[str] = frozenset(
    {"repro.obs.hostmetrics", "repro.obs.telemetry"}
)
SANCTIONED_SOURCE_PACKAGES: FrozenSet[str] = frozenset({"runtime"})

#: Host-clock call table (mirrors simlint's SIM101/SIM109 tables).
_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)
_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")

#: Host-entropy calls (SIM202).
_RNG_CALLS: FrozenSet[str] = frozenset(
    {
        "os.urandom",
        "os.getpid",
        "os.getppid",
        "uuid.uuid1",
        "uuid.uuid4",
        "hash",
        "id",
        "object",
    }
)
_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Filesystem-enumeration calls whose result order is OS-dependent.
_FS_ORDER_CALLS: FrozenSet[str] = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)

#: Constructors of unordered containers.
_UNORDERED_CONSTRUCTORS: FrozenSet[str] = frozenset({"set", "frozenset"})

#: Order-insensitive reducers: consuming an unordered value through these
#: is deterministic.
_ORDER_SANITIZERS: FrozenSet[str] = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "frozenset", "set"}
)

#: Dict-view methods whose iteration order is insertion order — which, on
#: shared accumulators, can reflect completion order.
_DICT_VIEW_METHODS: FrozenSet[str] = frozenset({"items", "keys", "values"})

#: Manifest kwargs excluded from determinism (code provenance).
_MANIFEST_PROVENANCE = frozenset(
    {"git_sha", "repro_version", "python_version"}
)


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class DeterminismTaintPolicy(TaintPolicy):
    """Sources, sinks, and sanitizers for the SIM2xx family."""

    order_labels = ORDER_LABELS

    def module_exempt(self, module: ModuleInfo) -> bool:
        if module.name in SANCTIONED_SOURCE_MODULES or any(
            module.name.endswith("." + m) for m in SANCTIONED_SOURCE_MODULES
        ):
            return True
        return module.package in SANCTIONED_SOURCE_PACKAGES

    # -- sources -----------------------------------------------------------
    def source_taints(
        self, resolved: Optional[str], call: ast.Call, walker: TaintWalker
    ) -> Set[str]:
        if resolved is None:
            return set()
        if resolved in _CLOCK_CALLS or resolved.endswith(_CLOCK_SUFFIXES):
            return {HOST_CLOCK}
        if resolved in _RNG_CALLS or resolved.startswith(_RNG_PREFIXES):
            return {RNG}
        if resolved in _FS_ORDER_CALLS:
            return {ITER_ORDER}
        if resolved in _UNORDERED_CONSTRUCTORS:
            # The *container* is fine; iterating it is the hazard.  Let the
            # label ride the value so iteration and list() conversions
            # inherit it, while sorted()/reducers strip it again.
            return {ITER_ORDER}
        return set()

    # -- sanitizers --------------------------------------------------------
    def sanitized_labels(
        self, resolved: Optional[str], call: ast.Call
    ) -> Set[str]:
        if resolved in _ORDER_SANITIZERS and resolved not in (
            "set",
            "frozenset",
        ):
            return set(ORDER_LABELS)
        return set()

    # -- iteration ---------------------------------------------------------
    def iteration_taints(
        self, iter_expr: ast.AST, walker: TaintWalker
    ) -> Set[str]:
        if isinstance(iter_expr, ast.Call) and isinstance(
            iter_expr.func, ast.Attribute
        ):
            if iter_expr.func.attr in _DICT_VIEW_METHODS:
                return {ITER_ORDER}
        if isinstance(iter_expr, ast.Name):
            if walker.kinds.get(iter_expr.id) in ("dict", "set"):
                return {ITER_ORDER}
        if isinstance(iter_expr, (ast.Set, ast.SetComp)):
            return {ITER_ORDER}
        return set()

    # -- sinks -------------------------------------------------------------
    def sink_args(
        self, resolved: Optional[str], call: ast.Call, walker: TaintWalker
    ) -> List[Tuple[ast.AST, str, FrozenSet[str]]]:
        trigger = frozenset({HOST_CLOCK, RNG, ITER_ORDER})
        terminal = _terminal(call.func)
        out: List[Tuple[ast.AST, str, FrozenSet[str]]] = []
        if terminal == "StoredCell":
            deterministic_kwargs = {"cell_id", "key", "deterministic"}
            for index, arg in enumerate(call.args):
                if index <= 2:
                    out.append((arg, "store cell record", trigger))
            for kw in call.keywords:
                if kw.arg in deterministic_kwargs:
                    out.append((kw.value, "store cell record", trigger))
        elif terminal in ("append_cell", "append_cells"):
            for arg in call.args[1:] if len(call.args) > 1 else call.args:
                out.append((arg, "campaign store append", trigger))
            for kw in call.keywords:
                if kw.arg in ("cell", "cells"):
                    out.append((kw.value, "campaign store append", trigger))
        elif terminal in ("cell_id_from_manifests", "cell_id_for_spec"):
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                out.append((arg, "cell-id hash", trigger))
        elif terminal == "record" and isinstance(call.func, ast.Attribute):
            receiver = _terminal(call.func.value)
            if receiver in ("tracer", "_tracer", "trace"):
                for arg in list(call.args) + [
                    kw.value for kw in call.keywords
                ]:
                    out.append((arg, "trace record", trigger))
        elif terminal in ("RunManifest", "build_manifest"):
            for arg in call.args:
                out.append((arg, "run manifest", trigger))
            for kw in call.keywords:
                if kw.arg not in _MANIFEST_PROVENANCE:
                    out.append((kw.value, "run manifest", trigger))
        return out


def hits_to_diagnostics(hits: List[Hit]) -> List[Diagnostic]:
    """Convert engine hits into deduplicated SIM2xx diagnostics."""
    seen: Set[Tuple[str, Optional[int], Optional[int], str]] = set()
    diagnostics: List[Diagnostic] = []
    for hit in hits:
        line = getattr(hit.node, "lineno", None)
        col = getattr(hit.node, "col_offset", None)
        for label, code in LABEL_RULES:
            if label not in hit.labels:
                continue
            key = (hit.module.path, line, col, code)
            if key in seen:
                continue
            seen.add(key)
            rule = get_rule(code)
            chain = f" {hit.via}" if hit.via else ""
            diagnostics.append(
                Diagnostic(
                    code=code,
                    message=(
                        f"{label} taint reaches {hit.sink}{chain} "
                        f"in {hit.function}()"
                    ),
                    severity=rule.severity,
                    path=hit.module.path,
                    line=line,
                    col=col,
                    hint=_HINTS[label],
                )
            )
    return diagnostics


_HINTS = {
    HOST_CLOCK: (
        "route wall-clock measurement through repro.obs.hostmetrics and "
        "keep it in the 'host' section of the record"
    ),
    RNG: (
        "derive the value deterministically from the spec/config (the "
        "simulator has no RNG by design)"
    ),
    ITER_ORDER: (
        "sort before accumulating (sorted(...) or .sort(key=...)) so the "
        "stored order is input-determined"
    ),
}


def check_determinism_taint(
    project: Project, sink: Optional[DiagnosticSink] = None
) -> List[Diagnostic]:
    """Run the SIM2xx analysis over *project*; emits into *sink*."""
    sink = sink if sink is not None else DiagnosticSink()
    hits = run_taint_analysis(project, DeterminismTaintPolicy())
    by_module: Dict[str, List[Diagnostic]] = {}
    for diagnostic in hits_to_diagnostics(hits):
        by_module.setdefault(diagnostic.path or "", []).append(diagnostic)
    kept: List[Diagnostic] = []
    for name in sorted(project.modules):
        module = project.modules[name]
        module_diags = by_module.pop(module.path, [])
        kept.extend(filter_noqa(module_diags, module.source))
    for leftovers in by_module.values():
        kept.extend(leftovers)
    for diagnostic in sort_diagnostics(kept):
        sink.emit(diagnostic)
    return sink.diagnostics

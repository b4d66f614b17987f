"""Fluid-flow network: concurrent transfers over state-dependent resources.

This module is the performance heart of the reproduction (DESIGN.md §5).
Every PMEM transfer issued by a simulated rank becomes a :class:`Flow`
traversing one or more :class:`CapacityResource` objects (the device read or
write port, the remote NUMA path, ...).  Instead of simulating individual
cache-line accesses, the network treats transfers as fluids and solves for
their average rates whenever the set of active flows changes, using a
*processor-sharing* model with software-overhead duty cycles:

1.  Each flow has a *self cap* ``R_self = bytes_per_op / (t_sw + t_lat)``,
    the throughput it would achieve on an infinitely fast device.  This
    models per-object software-stack overhead (NOVAfs syscalls, NVStream
    metadata) and idle device latency.
2.  A flow occupies the device only while it is actually transferring.  Its
    *duty cycle* is ``u = 1 - A / R_self`` (the fraction of wall time not
    spent in software), where ``A`` is its achieved average rate.
3.  While on the device, a flow proceeds at the instantaneous rate
    ``D = min over path resources r of  C_r(load) / max(1, U_r)``, where
    ``U_r`` is the total duty-weighted occupancy of resource *r* and
    ``C_r(load)`` is the resource's state-dependent capacity curve (this is
    where the non-linear Optane concurrency scaling enters).  Resources may
    additionally impose a per-thread instantaneous cap (a single thread
    cannot extract the device's full interleaved bandwidth).
4.  The achieved rate is the harmonic combination
    ``A = 1 / (1/R_self + 1/D)``; the solver iterates 2–4 to a damped fixed
    point.

A pleasant property of this system: for *n* identical flows on one resource,
the fixed point satisfies ``Σ A_f = C`` exactly once the device saturates,
and ``A_f → R_self`` (device untouched) when software overhead dominates —
i.e. capacity conservation and the paper's "high software overhead lowers
PMEM contention" observation (§VIII) both fall out of the model rather than
being special-cased.

Key emergent behaviours, each a headline observation of the paper:

* many small objects → high per-op software cost → low duty cycle → low
  effective device concurrency → parallel execution is cheap (§VIII);
* large objects → duty ≈ 1 → device saturates → serial execution and
  write-local placement win at high concurrency (§VI-A);
* compute phases don't create flows at all → interleaved compute hides
  contention (§VIII).

There is one solve path.  Every recompute hands the whole active flow set
to the solver in one call: the equivalence-class fixed point
(:func:`_solve_classes`) behind a converged-state :class:`SolverMemo` by
default, or the per-flow oracle (:func:`_solve_reference`) under
``REPRO_SOLVER=reference``.  The two are bit-identical (DESIGN.md §5b).
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Timer

#: Flows with fewer residual bytes than this are considered complete.
COMPLETION_EPSILON_BYTES = 1e-3

#: Lower clamp for duty cycles (keeps occupancy sums well conditioned).
MIN_DUTY = 1e-6

#: Fixed-point iterations for the duty-cycle solve.
DUTY_ITERATIONS = 24

#: Damping factor for the duty-cycle fixed point (1.0 = undamped).
DUTY_DAMPING = 0.6

#: Relative convergence tolerance on rates.
RATE_TOLERANCE = 1e-5

#: Bounded LRU capacity for the converged-state memo (entries per network).
MEMO_CAPACITY = 256

#: Environment variable selecting the solver implementation per network.
SOLVER_ENV = "REPRO_SOLVER"

#: Equivalence-class solver with converged-state memoization (the default).
SOLVER_FAST = "fast"

#: Straightforward per-flow fixed point — the byte-identity oracle the fast
#: path is validated against (``REPRO_SOLVER=reference``).
SOLVER_REFERENCE = "reference"


def _checked_solver(solver: Optional[str]) -> str:
    """*solver*, else ``REPRO_SOLVER``, else ``fast``; rejected unless it
    names a backend."""
    if solver is None:
        solver = os.environ.get(SOLVER_ENV) or SOLVER_FAST
    if solver not in (SOLVER_FAST, SOLVER_REFERENCE):
        raise SimulationError(
            f"unknown solver {solver!r} (env {SOLVER_ENV}); choices: "
            f"{SOLVER_FAST!r}, {SOLVER_REFERENCE!r}"
        )
    return solver


@dataclass
class ResourceLoad:
    """Duty-weighted view of the flows currently traversing one resource.

    Capacity models receive this object and may key their curves on any of
    the fields.  ``n_*`` fields are duty-weighted effective thread counts
    (floats); ``raw_*`` fields are plain flow counts.  ``*_op_bytes`` are
    duty-weighted geometric means of the per-operation access size.
    """

    n_read_local: float = 0.0
    n_read_remote: float = 0.0
    n_write_local: float = 0.0
    n_write_remote: float = 0.0
    raw_read_local: int = 0
    raw_read_remote: int = 0
    raw_write_local: int = 0
    raw_write_remote: int = 0
    read_op_bytes: float = 0.0
    write_op_bytes: float = 0.0
    #: Issue-capability-weighted remote-write occupancy: each flow
    #: contributes ``min(duty, issue_weight)``.  Software-bound flows have
    #: a bounded issue rate and cannot congest the cross-socket path no
    #: matter how long they queue on the device — using the raw duty here
    #: would create a congestion death-spiral (slow device -> higher duty
    #: -> more congestion -> slower device).
    congestion_write_remote: float = 0.0

    @property
    def n_reads(self) -> float:
        """Duty-weighted effective number of concurrent readers."""
        return self.n_read_local + self.n_read_remote

    @property
    def n_writes(self) -> float:
        """Duty-weighted effective number of concurrent writers."""
        return self.n_write_local + self.n_write_remote

    @property
    def n_total(self) -> float:
        return self.n_reads + self.n_writes

    @property
    def n_remote(self) -> float:
        return self.n_read_remote + self.n_write_remote

    @property
    def raw_total(self) -> int:
        return (
            self.raw_read_local
            + self.raw_read_remote
            + self.raw_write_local
            + self.raw_write_remote
        )


CapacityFn = Callable[[ResourceLoad], float]


class CapacityResource:
    """A shared resource whose capacity depends on the current load mix.

    The solver asks the resource, for each flow traversing it, what
    *instantaneous* rate the flow would get while actively on the resource,
    given the duty-weighted :class:`ResourceLoad`.  The default policy is
    plain processor sharing — aggregate capacity divided by total occupancy,
    clipped at an optional per-thread cap.  Device models (the Optane
    resource in :mod:`repro.pmem.device`) subclass and override
    :meth:`share` to hand out kind- and locality-specific rates.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity_fn:
        Callable mapping a :class:`ResourceLoad` to an aggregate capacity in
        bytes/s.  May return ``math.inf`` for an unconstrained resource.
    per_thread_cap_fn:
        Optional callable mapping a :class:`ResourceLoad` to the maximum
        instantaneous rate a *single* flow can extract (e.g. one thread
        cannot saturate six interleaved Optane DIMMs by itself).  Defaults
        to unbounded.
    """

    __slots__ = ("name", "_capacity_fn", "_per_thread_cap_fn")

    #: Solver-signature fields :meth:`share` actually reads, declared by
    #: subclasses that override :meth:`share`.  ``None`` (the default for
    #: overriding subclasses) means "any of them" — the solver then
    #: evaluates one share per full signature.  Declaring a subset (e.g.
    #: ``("kind", "remote")`` for the Optane device) lets the solver share
    #: one evaluation across every class whose projection matches, which is
    #: bit-exact because identical operands give identical IEEE-754 results.
    #: Resources that do not override :meth:`share` are grouped on the load
    #: alone (the default policy reads no per-flow field).
    share_signature_fields: Optional[Tuple[str, ...]] = None

    def __init__(
        self,
        name: str,
        capacity_fn: Optional[CapacityFn] = None,
        per_thread_cap_fn: Optional[CapacityFn] = None,
    ) -> None:
        self.name = name
        self._capacity_fn = capacity_fn
        self._per_thread_cap_fn = per_thread_cap_fn

    def capacity(self, load: ResourceLoad) -> float:
        """Evaluate the aggregate capacity curve for *load*."""
        if self._capacity_fn is None:
            return math.inf
        value = self._capacity_fn(load)
        if value < 0 or math.isnan(value):
            raise SimulationError(
                f"capacity model for {self.name!r} returned invalid value {value}"
            )
        return value

    def per_thread_cap(self, load: ResourceLoad) -> float:
        """Evaluate the single-flow instantaneous rate cap for *load*."""
        if self._per_thread_cap_fn is None:
            return math.inf
        value = self._per_thread_cap_fn(load)
        if value <= 0 or math.isnan(value):
            raise SimulationError(
                f"per-thread cap for {self.name!r} returned invalid value {value}"
            )
        return value

    def share(self, load: ResourceLoad, flow: "Flow") -> float:
        """Instantaneous rate available to *flow* while it occupies the resource.

        Default: processor sharing of the aggregate capacity across the
        duty-weighted total occupancy, clipped at the per-thread cap.

        Contract (relied on by the equivalence-class solver): the result may
        depend only on *load*, the resource's own state, and the flow's
        solver-signature fields (``kind``, ``remote``, ``self_cap``,
        ``op_bytes``, ``issue_weight``) — never on flow identity, label, or
        residual bytes.  Flows with identical signatures must receive
        identical shares.
        """
        return min(
            self.capacity(load) / max(1.0, load.n_total),
            self.per_thread_cap(load),
        )

    def observe(self, now: float, load: ResourceLoad) -> None:
        """Hook invoked by the flow network on every rate recomputation.

        Stateful device models (e.g. the Optane congestion EWMA) override
        this; the default resource is stateless.
        """

    def solver_state_token(self) -> object:
        """Hashable token covering all mutable state :meth:`share` reads.

        The converged-state memo (see :func:`solve_flow_set`) may only serve
        a cached solve when every resource on the path would hand out the
        same shares as when the entry was recorded.  The protocol:

        * resources that override neither this method nor :meth:`observe`
          are treated as stateless (empty token);
        * resources that override :meth:`observe` are assumed stateful — the
          memo is bypassed unless they also override this method to expose
          exactly the state :meth:`share` depends on (returning ``None``
          forces the bypass explicitly for opaque state);
        * state mutated through neither channel (e.g. a closure captured by
          ``capacity_fn``) must be announced via :meth:`FlowNetwork.poke`,
          which flushes the memo.
        """
        return None

    def share_state_token(self, kind: str, remote: bool) -> object:
        """Mutable state :meth:`share` reads for ``(kind, remote)`` flows.

        A finer-grained refinement of :meth:`solver_state_token`: stateful
        devices whose read path reads no mutable state can return ``()`` for
        reads while still tokenising their write-side state, so memo entries
        for read-only flow sets survive write-side state churn.  Returning
        ``None`` marks the combination opaque (memo bypass).  Resources that
        do not override this method fall back to the
        :meth:`solver_state_token` protocol.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CapacityResource {self.name}>"


@dataclass(eq=False)
class Flow:
    """One in-flight bulk transfer.

    Flows compare and hash by identity (``eq=False``): two transfers with
    equal fields are still distinct keys in the solver's rate maps.

    Parameters
    ----------
    nbytes:
        Total payload of the transfer.
    kind:
        ``"read"`` or ``"write"`` — selects which capacity curves apply.
    remote:
        ``True`` when the issuing CPU and the target PMEM are on different
        sockets (the transfer then traverses the remote-path resource too).
    resources:
        The capacity resources on the transfer's path.
    self_cap:
        Software-overhead throughput cap in bytes/s (``math.inf`` when the
        per-op software cost is negligible).
    op_bytes:
        Bytes moved per logical operation (object size as seen by the
        device); used by capacity curves for access-granularity effects.
    label:
        Trace label.
    """

    nbytes: float
    kind: str
    remote: bool
    resources: Tuple[CapacityResource, ...]
    self_cap: float = math.inf
    op_bytes: float = 0.0
    label: str = ""
    #: Upper bound on this flow's contribution to congestion accounting
    #: (see :attr:`ResourceLoad.congestion_write_remote`); typically
    #: ``self_cap / (self_cap + single_thread_device_rate)``.
    issue_weight: float = 1.0

    # Runtime state managed by FlowNetwork.
    remaining: float = field(init=False, default=0.0)
    rate: float = field(init=False, default=0.0)
    duty: float = field(init=False, default=1.0)
    started_at: float = field(init=False, default=0.0)
    done: SimEvent = field(init=False, repr=False)
    _timer: Optional["Timer"] = field(init=False, default=None, repr=False)
    #: ``log(max(op_bytes, 1))``, precomputed — the solver needs it for the
    #: geometric-mean accumulation on every class build.
    log_op: float = field(init=False, default=0.0, repr=False)
    #: Interned id of the static solver signature (see
    #: :meth:`SolverMemo.intern`); ``-1`` until a memo interns the flow.
    sig: int = field(init=False, default=-1, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise SimulationError(f"flow kind must be 'read' or 'write', got {self.kind!r}")
        if self.nbytes < 0:
            raise SimulationError(f"flow payload must be non-negative, got {self.nbytes}")
        if self.self_cap <= 0:
            raise SimulationError(f"flow self_cap must be positive, got {self.self_cap}")
        if self.op_bytes <= 0:
            self.op_bytes = max(self.nbytes, 1.0)
        self.remaining = float(self.nbytes)
        self.log_op = math.log(max(self.op_bytes, 1.0))
        self.done = SimEvent(name=f"flow:{self.label}.done")

    def signature(self) -> tuple:
        """Static solver inputs: flows with equal signatures (and equal
        duties) are indistinguishable to the fixed point."""
        return (
            self.kind,
            self.remote,
            self.resources,
            self.self_cap,
            self.op_bytes,
            self.issue_weight,
        )


def _build_loads(
    flows: Sequence[Flow], duties: Dict[Flow, float]
) -> Dict[CapacityResource, ResourceLoad]:
    """Accumulate duty-weighted per-resource load statistics."""
    loads: Dict[CapacityResource, ResourceLoad] = {}
    log_sums: Dict[CapacityResource, Dict[str, float]] = {}
    for f in flows:
        weight = max(duties.get(f, 1.0), MIN_DUTY)
        for resource in f.resources:
            load = loads.setdefault(resource, ResourceLoad())
            sums = log_sums.setdefault(resource, {"read": 0.0, "write": 0.0})
            if f.kind == "read":
                if f.remote:
                    load.n_read_remote += weight
                    load.raw_read_remote += 1
                else:
                    load.n_read_local += weight
                    load.raw_read_local += 1
                sums["read"] += weight * f.log_op
            else:
                if f.remote:
                    load.n_write_remote += weight
                    load.raw_write_remote += 1
                    load.congestion_write_remote += min(weight, f.issue_weight)
                else:
                    load.n_write_local += weight
                    load.raw_write_local += 1
                sums["write"] += weight * f.log_op
    for resource, load in loads.items():
        sums = log_sums[resource]
        if load.n_reads > 0:
            load.read_op_bytes = math.exp(sums["read"] / load.n_reads)
        if load.n_writes > 0:
            load.write_op_bytes = math.exp(sums["write"] / load.n_writes)
    return loads


@dataclass
class SolveResult:
    """Converged solver output plus cost/strategy accounting.

    ``loads`` are the solver's final *internal* per-resource loads — the
    ones that produced the converged rates — handed to the network so the
    post-solve ``observe()``/hooks pass no longer rebuilds them.
    """

    rates: Dict[Flow, float]
    iterations: int
    loads: Dict[CapacityResource, ResourceLoad]
    classes: int = 0
    memo_hit: bool = False
    memo_attempted: bool = False


class _FlowClass:
    """One solver equivalence class: flows indistinguishable to the fixed point.

    All solver-relevant inputs (kind, remote, path, caps, op size, issue
    weight, starting duty) are identical across members, so their rate and
    duty trajectories through the fixed point are identical too — the class
    carries one copy of that trajectory for all of them.
    """

    __slots__ = (
        "rep",
        "kind",
        "remote",
        "resources",
        "self_cap",
        "log_op",
        "issue_weight",
        "duty",
        "rate",
        "groups",
        "pairs",
        "weight",
        "log_term",
        "congestion_term",
    )

    def __init__(self, flow: Flow) -> None:
        self.rep = flow
        self.kind = flow.kind
        self.remote = flow.remote
        self.resources = flow.resources
        self.self_cap = flow.self_cap
        self.log_op = flow.log_op
        self.issue_weight = flow.issue_weight
        self.duty = flow.duty
        self.rate = 0.0
        self.groups: Tuple["_ShareGroup", ...] = ()
        #: ``(load, resource_index)`` pairs for the accumulation loop.
        self.pairs: Tuple[Tuple[ResourceLoad, int], ...] = ()
        self.weight = 0.0
        self.log_term = 0.0
        self.congestion_term = 0.0


def _state_token(resource: CapacityResource) -> object:
    """Memo token for *resource*, or ``None`` when its state is opaque."""
    rtype = type(resource)
    if rtype.solver_state_token is not CapacityResource.solver_state_token:
        return resource.solver_state_token()
    if rtype.observe is not CapacityResource.observe:
        # Stateful (it watches loads) but exposes no token: assume the
        # worst and bypass the memo for any set that touches it.
        return None
    return ()


def _share_fields_of(rtype: type) -> Optional[Tuple[str, ...]]:
    """Signature fields ``rtype.share`` may read (``None`` = all of them)."""
    if rtype.share is CapacityResource.share:
        return ()
    return rtype.share_signature_fields


#: Every signature field but duty: what an undeclared ``share`` override
#: is assumed to read (the contract has never allowed duty).
_FULL_PROJECTION = ("kind", "remote", "self_cap", "op_bytes", "issue_weight")


def share_projector(resource: CapacityResource) -> Callable[[Flow], object]:
    """Maps a flow to the fields of it that ``resource.share`` may read.

    Flows with equal projections receive bit-identical shares from the
    same load (the :meth:`CapacityResource.share` contract), so one
    evaluation per projection stands for all of them.
    """
    fields = _share_fields_of(type(resource))
    if fields is None:
        fields = _FULL_PROJECTION
    return attrgetter(*fields) if fields else _no_projection


def _no_projection(flow: Flow) -> object:
    return ()


def resource_share_token(
    resource: CapacityResource, combos: Sequence[Tuple[str, bool]]
) -> object:
    """Memo token covering the share state *resource* exposes to the
    ``(kind, remote)`` combinations in *combos* (sorted), or ``None`` when
    opaque.

    Prefers the per-combination :meth:`CapacityResource.share_state_token`
    protocol (so read-only sets are immune to write-side state churn) and
    falls back to the whole-resource :func:`_state_token` protocol.
    """
    rtype = type(resource)
    if rtype.share_state_token is not CapacityResource.share_state_token:
        parts = []
        for combo in combos:
            part = resource.share_state_token(combo[0], combo[1])
            if part is None:
                return None
            parts.append((combo, part))
        return tuple(parts)
    return _state_token(resource)


class _ShareGroup:
    """One ``share()`` evaluation standing for every class that projects to
    the same (resource, declared-signature-fields) key.

    The share contract forbids :meth:`CapacityResource.share` from reading
    anything outside the declared fields, so every member class receives
    bit-identical shares — one call per group per iteration replaces one
    call per class per iteration (the dominant cost on duty-ulp-splintered
    start cascades, where a dozen classes share one projection).
    """

    __slots__ = ("resource", "load", "rep", "share")

    def __init__(
        self, resource: CapacityResource, load: ResourceLoad, rep: Flow
    ) -> None:
        self.resource = resource
        self.load = load
        self.rep = rep
        self.share = math.inf


def _layout(flows: Sequence[Flow]) -> Tuple[Tuple[CapacityResource, tuple], ...]:
    """Resources of *flows* in flow-major first-appearance order, each with
    its sorted ``(kind, remote)`` combinations.

    First-appearance order fixes the loads-dict iteration order, which must
    match the reference solver's flow-major insertion order.
    """
    combos: Dict[CapacityResource, set] = {}
    for f in flows:
        combo = (f.kind, f.remote)
        for r in f.resources:
            seen = combos.get(r)
            if seen is None:
                combos[r] = {combo}
            else:
                seen.add(combo)
    return tuple((r, tuple(sorted(seen))) for r, seen in combos.items())


def _signature_ids(flows: Sequence[Flow]) -> Tuple[int, ...]:
    """Per-flow signature ids interned locally (memo-less solves)."""
    table: Dict[tuple, int] = {}
    return tuple([table.setdefault(f.signature(), len(table)) for f in flows])


def _build_groups(
    class_list: List[_FlowClass],
    loads: Dict[CapacityResource, ResourceLoad],
) -> List[_ShareGroup]:
    """Attach share groups to each class; returns groups in creation order."""
    groups: Dict[tuple, _ShareGroup] = {}
    group_list: List[_ShareGroup] = []
    projectors: Dict[CapacityResource, Callable[[Flow], object]] = {}
    for cls in class_list:
        rep = cls.rep
        slots = []
        for r in cls.resources:
            project = projectors.get(r)
            if project is None:
                project = projectors[r] = share_projector(r)
            gkey = (r, project(rep))
            group = groups.get(gkey)
            if group is None:
                group = _ShareGroup(r, loads[r], rep)
                groups[gkey] = group
                group_list.append(group)
            slots.append(group)
        cls.groups = tuple(slots)
    return group_list


def _solve_reference(flows: Sequence[Flow]) -> SolveResult:
    """Per-flow duty-cycle fixed point — the byte-identity oracle.

    This is the original solver, kept deliberately simple: one rate/duty
    update per *flow* per iteration and a full :func:`_build_loads` pass per
    iteration.  :func:`_solve_classes` must reproduce its results bit for
    bit; the determinism oracle test runs entire campaigns under both and
    compares stores byte-wise.
    """
    duties: Dict[Flow, float] = {f: f.duty for f in flows}
    rates: Dict[Flow, float] = {f: 0.0 for f in flows}
    loads: Dict[CapacityResource, ResourceLoad] = {}
    iterations = 0
    for _ in range(DUTY_ITERATIONS):
        iterations += 1
        loads = _build_loads(flows, duties)
        max_rel_change = 0.0
        for f in flows:
            device_rate = math.inf
            for r in f.resources:
                device_rate = min(device_rate, r.share(loads[r], f))
            if math.isinf(device_rate):
                new_rate = f.self_cap
                new_duty = MIN_DUTY if math.isfinite(f.self_cap) else 1.0
            elif math.isinf(f.self_cap):
                new_rate = device_rate
                new_duty = 1.0
            else:
                new_rate = 1.0 / (1.0 / f.self_cap + 1.0 / device_rate)
                # Fraction of wall time spent on the device rather than in
                # per-op software work: u = 1 - A / R_self.
                new_duty = min(1.0, max(MIN_DUTY, 1.0 - new_rate / f.self_cap))
            if math.isinf(new_rate):
                raise SimulationError(
                    f"flow {f.label!r} has unbounded rate: no resource or "
                    "self cap constrains it"
                )
            old_rate = rates[f]
            damped_duty = duties[f] + DUTY_DAMPING * (new_duty - duties[f])
            duties[f] = min(1.0, max(MIN_DUTY, damped_duty))
            rates[f] = new_rate
            denom = max(new_rate, 1.0)
            max_rel_change = max(max_rel_change, abs(new_rate - old_rate) / denom)
        if max_rel_change < RATE_TOLERANCE:
            break
    for f in flows:
        f.duty = duties[f]
    return SolveResult(rates, iterations, loads)


def _solve_classes(
    flows: Sequence[Flow],
    sig_ids: Sequence[int],
    layout: Tuple[Tuple[CapacityResource, tuple], ...],
) -> SolveResult:
    # simlint: hotpath — allocations here multiply by flows × resources ×
    # DUTY_ITERATIONS × recomputes; load objects are reset in place.
    """Equivalence-class duty-cycle fixed point.

    *sig_ids* are the flows' signature ids (equal ids = equal
    :meth:`Flow.signature`) and *layout* their :func:`_layout`.  Flows with
    equal ids and equal duties form one class.

    Byte-identity with :func:`_solve_reference` rests on three facts:

    * per-class work (``share()`` calls, rate/duty updates) uses exactly the
      arithmetic the reference applies to each member — identical operands
      give identical IEEE-754 results, so one evaluation stands for all;
    * per-resource *accumulation* stays in flow-list order.  Floating-point
      addition is order-sensitive, so load sums are accumulated per flow
      (using per-class cached terms) rather than per class scaled by count;
    * ``share()`` is evaluated once per *share group* (resource × declared
      signature projection) per iteration — identical operands stand for
      every member class (see :class:`_ShareGroup`).
    """
    classes: Dict[tuple, _FlowClass] = {}
    order: List[_FlowClass] = []
    for f, sig in zip(flows, sig_ids):
        ckey = (sig, f.duty)
        cls = classes.get(ckey)
        if cls is None:
            cls = classes[ckey] = _FlowClass(f)
        order.append(cls)
    class_list = list(classes.values())
    resources = [r for r, _combos in layout]
    loads = {r: ResourceLoad() for r in resources}
    loads_list = [loads[r] for r in resources]
    res_index = {r: i for i, r in enumerate(resources)}
    n_res = len(resources)
    read_logs = [0.0] * n_res
    write_logs = [0.0] * n_res
    for cls in class_list:
        cls.pairs = tuple(
            (loads[r], res_index[r]) for r in cls.resources
        )
    group_list = _build_groups(class_list, loads)
    # Raw (unweighted) flow counts are duty-independent: accumulate them
    # once, outside the fixed point — exact integer sums, so skipping the
    # per-iteration re-accumulation is bit-neutral.
    for cls in order:
        if cls.kind == "read":
            if cls.remote:
                for load, _ri in cls.pairs:
                    load.raw_read_remote += 1
            else:
                for load, _ri in cls.pairs:
                    load.raw_read_local += 1
        elif cls.remote:
            for load, _ri in cls.pairs:
                load.raw_write_remote += 1
        else:
            for load, _ri in cls.pairs:
                load.raw_write_local += 1
    exp = math.exp
    inf = math.inf
    iterations = 0
    for _ in range(DUTY_ITERATIONS):
        iterations += 1
        for load in loads_list:
            load.n_read_local = 0.0
            load.n_read_remote = 0.0
            load.n_write_local = 0.0
            load.n_write_remote = 0.0
            load.congestion_write_remote = 0.0
        for i in range(n_res):
            read_logs[i] = 0.0
            write_logs[i] = 0.0
        for cls in class_list:
            weight = cls.duty
            if weight < MIN_DUTY:
                weight = MIN_DUTY
            cls.weight = weight
            cls.log_term = weight * cls.log_op
            issue = cls.issue_weight
            cls.congestion_term = weight if weight < issue else issue
        # Accumulate per flow, in flow-list order: summation order is part
        # of the byte-identity contract with the reference solver.
        for cls in order:
            weight = cls.weight
            term = cls.log_term
            if cls.kind == "read":
                if cls.remote:
                    for load, ri in cls.pairs:
                        load.n_read_remote += weight
                        read_logs[ri] += term
                else:
                    for load, ri in cls.pairs:
                        load.n_read_local += weight
                        read_logs[ri] += term
            elif cls.remote:
                congestion = cls.congestion_term
                for load, ri in cls.pairs:
                    load.n_write_remote += weight
                    load.congestion_write_remote += congestion
                    write_logs[ri] += term
            else:
                for load, ri in cls.pairs:
                    load.n_write_local += weight
                    write_logs[ri] += term
        for i in range(n_res):
            load = loads_list[i]
            n_reads = load.n_read_local + load.n_read_remote
            if n_reads > 0:
                load.read_op_bytes = exp(read_logs[i] / n_reads)
            n_writes = load.n_write_local + load.n_write_remote
            if n_writes > 0:
                load.write_op_bytes = exp(write_logs[i] / n_writes)
        for g in group_list:
            g.share = g.resource.share(g.load, g.rep)
        max_rel_change = 0.0
        for cls in class_list:
            device_rate = inf
            for g in cls.groups:
                if g.share < device_rate:
                    device_rate = g.share
            self_cap = cls.self_cap
            if device_rate == inf:
                new_rate = self_cap
                new_duty = 1.0 if self_cap == inf else MIN_DUTY
            elif self_cap == inf:
                new_rate = device_rate
                new_duty = 1.0
            else:
                new_rate = 1.0 / (1.0 / self_cap + 1.0 / device_rate)
                new_duty = 1.0 - new_rate / self_cap
                if new_duty < MIN_DUTY:
                    new_duty = MIN_DUTY
                elif new_duty > 1.0:
                    new_duty = 1.0
            if new_rate == inf:
                raise SimulationError(
                    f"flow {cls.rep.label!r} has unbounded rate: no resource "
                    "or self cap constrains it"
                )
            old_rate = cls.rate
            duty = cls.duty + DUTY_DAMPING * (new_duty - cls.duty)
            if duty < MIN_DUTY:
                duty = MIN_DUTY
            elif duty > 1.0:
                duty = 1.0
            cls.duty = duty
            cls.rate = new_rate
            denom = new_rate if new_rate > 1.0 else 1.0
            rel = new_rate - old_rate
            if rel < 0.0:
                rel = -rel
            rel /= denom
            if rel > max_rel_change:
                max_rel_change = rel
        if max_rel_change < RATE_TOLERANCE:
            break
    rates = {}
    for f, cls in zip(flows, order):
        f.duty = cls.duty
        rates[f] = cls.rate
    return SolveResult(rates, iterations, loads, classes=len(class_list))


class SolverMemo:
    """Converged-state memo of one network's fast solves (bounded LRU).

    Each flow's static signature (:meth:`Flow.signature`) is interned to a
    small int once, when the flow starts.  A solve is keyed on ``(signature
    ids, per-flow duties, share tokens)``: equal keys mean every flow enters
    the fixed point with identical operands, so a hit replays the stored
    per-flow duties and rates without building classes or share groups.
    The resource layout (:func:`_layout`) depends only on the distinct
    signature ids in first-appearance order and is cached per that tuple.
    """

    __slots__ = ("entries", "_signatures", "_layouts")

    def __init__(self) -> None:
        self.entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._signatures: Dict[tuple, int] = {}
        self._layouts: Dict[Tuple[int, ...], tuple] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        """Drop every converged entry (signatures and layouts stay valid)."""
        self.entries.clear()

    def intern(self, flow: Flow) -> int:
        """Assign *flow* its signature id (stored on ``flow.sig``)."""
        table = self._signatures
        flow.sig = table.setdefault(flow.signature(), len(table))
        return flow.sig

    def solve(self, flows: Sequence[Flow]) -> SolveResult:
        """Memoized :func:`_solve_classes` for interned *flows*.

        The memo is bypassed (``memo_attempted`` false) when a resource on
        the path is opaque (:func:`resource_share_token` returns ``None``).
        """
        sig_ids = tuple([f.sig for f in flows])
        distinct = tuple(dict.fromkeys(sig_ids))
        layout = self._layouts.get(distinct)
        if layout is None:
            layout = self._layouts[distinct] = _layout(flows)
        tokens = []
        for r, combos in layout:
            token = resource_share_token(r, combos)
            if token is None:
                return _solve_classes(flows, sig_ids, layout)
            tokens.append(token)
        key = (sig_ids, tuple([f.duty for f in flows]), tuple(tokens))
        entries = self.entries
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            rates, duties, iterations, loads, classes = entry
            for f, duty in zip(flows, duties):
                f.duty = duty
            return SolveResult(
                dict(zip(flows, rates)),
                iterations,
                loads,
                classes=classes,
                memo_hit=True,
                memo_attempted=True,
            )
        result = _solve_classes(flows, sig_ids, layout)
        result.memo_attempted = True
        entries[key] = (
            tuple(result.rates.values()),
            tuple([f.duty for f in flows]),
            result.iterations,
            result.loads,
            result.classes,
        )
        if len(entries) > MEMO_CAPACITY:
            entries.popitem(last=False)
        return result


def solve_flow_set(
    flows: Sequence[Flow],
    solver: Optional[str] = None,
    memo: Optional[SolverMemo] = None,
) -> SolveResult:
    """Solve the processor-sharing duty-cycle fixed point for *flows*.

    Stores the converged duty cycle on each flow and returns a
    :class:`SolveResult` with rates, iteration count, and the solver's final
    internal loads.  *solver* selects the implementation (``"fast"``, the
    default, or ``"reference"``; default from the ``REPRO_SOLVER``
    environment variable); *memo* is the fast solver's converged-state
    :class:`SolverMemo` (``None`` disables memoization; flows are interned
    into it).  Both implementations produce byte-identical results for any
    flow set honouring the :meth:`CapacityResource.share` contract.
    """
    if not flows:
        return SolveResult({}, 0, {})
    if _checked_solver(solver) == SOLVER_REFERENCE:
        return _solve_reference(flows)
    if memo is None:
        return _solve_classes(flows, _signature_ids(flows), _layout(flows))
    for f in flows:
        memo.intern(f)
    return memo.solve(flows)


def solve_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Solve the fixed point for *flows*; returns achieved rates ``A_f``.

    Pure function of the flow set — exposed at module level so tests and
    the analytic cross-check can call it without an engine.
    """
    return solve_flow_set(flows).rates


def solve_rates_counted(
    flows: Sequence[Flow],
) -> Tuple[Dict[Flow, float], int]:
    """:func:`solve_rates` plus the number of fixed-point iterations used.

    The iteration count is the solver's own cost signal — the campaign
    host-metrics layer aggregates it per run to track how hard the model
    works as workload shape and calibration evolve.
    """
    result = solve_flow_set(flows)
    return result.rates, result.iterations


class FlowNetwork:
    """Tracks active flows and keeps their rates consistent as load changes.

    The network is lazy: rates are recomputed only when a flow starts or
    finishes.  Between recomputations every flow progresses linearly at its
    assigned rate, so completions can be scheduled exactly.  Each
    recompute solves the whole active flow set in one call — the
    equivalence-class solver behind the network's :class:`SolverMemo`, or
    the per-flow reference oracle under ``REPRO_SOLVER=reference``.

    Completion recomputations are additionally *coalesced*: flow finishes
    (and idle transitions) at the same virtual timestamp mark the network
    dirty, and one solve runs via the engine's flush hook just before the
    clock advances — 24 ranks finishing identical writes in one instant
    cost one solve, not 24.  Flow bookkeeping (``active_flows``, progress
    advancement) stays synchronous; only the fixed-point solve is deferred,
    under both solvers, so the fast-vs-reference oracle compares like with
    like.

    Flow *starts* deliberately keep solving synchronously, coalescing only
    an already-pending completion flush.  The congestion model's damped
    fixed point is bistable (remote-write collapse): starting N flows one
    solve at a time warm-starts duties down the uncongested branch, while
    one cold solve of N fresh flows at duty 1.0 can land on the collapsed
    branch — a simulated-result change of tens of percent, not rounding.
    The start cascade is therefore part of the model.  Completions are
    safe: survivors enter the flush solve with near-converged duties, so
    a deferred solve stays in the basin an inline one would reach.

    Parameters
    ----------
    engine:
        The discrete-event engine whose clock and flush hooks drive the
        network.
    solver:
        ``"fast"`` (equivalence classes + memo, the default) or
        ``"reference"`` (per-flow oracle).  Defaults from ``REPRO_SOLVER``.
    """

    def __init__(
        self,
        engine: "Engine",
        solver: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self._flows: List[Flow] = []
        self._last_update: float = 0.0
        self.recompute_count: int = 0
        self.flows_completed: int = 0
        self.solver_iterations: int = 0
        #: Equivalence classes summed over recomputes (fast solver).
        self.solver_classes: int = 0
        #: Converged-state memo hits/misses (fast solver; a bypassed memo —
        #: opaque stateful resource on the path — counts as neither).
        self.memo_hits: int = 0
        self.memo_misses: int = 0
        #: Recompute requests absorbed into an already-pending flush.
        self.recomputes_coalesced: int = 0
        self._observed_resources: set = set()
        #: Optional observability adapter (see :mod:`repro.obs.hooks`);
        #: ``None`` keeps the solver path free of instrumentation cost.
        self.hooks: Optional[object] = None
        self.solver = _checked_solver(solver)
        self._memo = SolverMemo()
        self._dirty = False
        #: Set when a solve cancelled completion timers; the flush
        #: re-schedules one timer per affected flow.
        self._timers_stale = False
        engine.add_flush_hook(self._flush_recompute)

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> Tuple[Flow, ...]:
        return tuple(self._flows)

    def transfer(self, flow: Flow) -> SimEvent:
        """Start *flow*; returns an event that succeeds on completion.

        Zero-byte flows complete immediately (software-overhead-only
        operations are charged by the storage stack before the flow starts).
        """
        if flow.done.triggered:
            raise SimulationError(f"flow {flow.label!r} reused after completion")
        flow.started_at = self.engine.now
        if flow.remaining <= COMPLETION_EPSILON_BYTES:
            flow.done.succeed(flow)
            return flow.done
        self._advance_progress()
        self._memo.intern(flow)
        self._flows.append(flow)
        # Starts solve synchronously (see class docstring) — but one solve
        # serves both this start and any pending completion flush.
        if self._dirty:
            self._dirty = False
            self.recomputes_coalesced += 1
        self._recompute()
        return flow.done

    def poke(self, *resources: CapacityResource) -> None:
        """Force a rate recomputation after external resource-state changes.

        Used when something other than a flow start/finish alters resource
        behaviour (e.g. a blocked reader registering as a metadata poller,
        or a closure captured by a ``capacity_fn`` mutating).  The solve is
        deferred to the end-of-timestamp flush like a completion: no
        virtual time passes before the flush runs, so in-flight progress is
        unaffected, and a burst of same-instant pokes (16 readers blocking
        on one publish) costs one solve instead of sixteen.

        Naming the changed *resources* keeps the memo warm: a resource that
        participates in the share-token protocol exposes the changed state
        in its token, so the flush solve's memo key already reflects it (a
        poller count bumped while only reads are active, say, still hits).
        A token-less resource (state hidden in a ``capacity_fn`` closure)
        cannot be reasoned about, so naming it flushes the memo, as does a
        bare ``poke()``.
        """
        opaque = [
            r
            for r in resources
            if type(r).share_state_token is CapacityResource.share_state_token
            and type(r).solver_state_token is CapacityResource.solver_state_token
        ]
        if opaque or not resources:
            # No token protocol: nothing provable about the changed state.
            self._memo.clear()
        self._advance_progress()
        self._request_recompute()

    # ------------------------------------------------------------------
    def _request_recompute(self) -> None:
        """Mark dirty for the end-of-timestamp flush (completions/idle)."""
        if self._dirty:
            self.recomputes_coalesced += 1
        else:
            self._dirty = True

    def _flush_recompute(self) -> bool:
        """Engine flush hook: run the one deferred solve for this instant.

        With epsilon-batched dispatch the flush may run a few ulps after
        the completions that marked the network dirty, so progress is
        advanced explicitly before solving.  Completion timers parked by
        deferred solves are scheduled here, after the solve, so each
        active flow pushes one timer per instant however many cascade
        solves touched its rate.
        """
        ran = False
        if self._dirty:
            self._dirty = False
            self._advance_progress()
            self._recompute()
            ran = True
        if self._timers_stale and self._flush_timers():
            ran = True
        return ran

    def _advance_progress(self) -> None:
        """Apply linear progress at current rates since the last update."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
        self._last_update = now

    def _recompute(self) -> None:
        """Re-solve rates for the whole active flow set and reschedule
        completions."""
        self.recompute_count += 1
        now = self.engine.now
        flows = self._flows
        if not flows:
            result = SolveResult({}, 0, {})
        elif self.solver == SOLVER_REFERENCE:
            result = _solve_reference(flows)
        else:
            result = self._memo.solve(flows)
        self.solver_iterations += result.iterations
        self.solver_classes += result.classes
        if result.memo_attempted:
            if result.memo_hit:
                self.memo_hits += 1
            else:
                self.memo_misses += 1
        loads = result.loads
        # Let stateful resources (congestion EWMAs) see the converged load.
        # Resources that just went idle observe an explicitly empty load so
        # their state can decay.
        for resource in self._observed_resources - set(loads):
            resource.observe(now, ResourceLoad())
        for resource, load in loads.items():
            resource.observe(now, load)
        self._observed_resources = set(loads)
        if self.hooks is not None:
            self.hooks.on_recompute(now, flows, loads)
            self.hooks.on_solve(now, result.iterations)
        for flow, new_rate in result.rates.items():
            if (
                new_rate == flow.rate
                and flow._timer is not None
                and not flow._timer.cancelled
            ):
                # Rate unchanged (bit-exact, e.g. a memo replay): the
                # pending completion timer is still correct — skipping the
                # cancel/reschedule churn keeps the heap small.
                continue
            flow.rate = new_rate
            if flow._timer is not None:
                flow._timer.cancel()
                flow._timer = None
            if new_rate <= 0 and flow.remaining > COMPLETION_EPSILON_BYTES:
                raise SimulationError(
                    f"flow {flow.label!r} stalled with zero rate and "
                    f"{flow.remaining:.0f} bytes remaining"
                )
            # Completion timers are (re)scheduled once per instant at the
            # flush: intermediate cascade solves at the same timestamp
            # would otherwise push a timer per flow per solve onto the heap
            # only to cancel it microseconds later.  No virtual time passes
            # before the flush, so the absolute fire times are unchanged.
            self._timers_stale = True

    def _schedule_completion(self, flow: Flow) -> None:
        """Schedule *flow*'s completion timer from its current rate."""
        if flow.rate > 0:
            eta = flow.remaining / flow.rate
            flow._timer = self.engine.schedule(eta, self._make_completion(flow))
        else:
            # Zero rate with (epsilon-)zero remaining: complete at once.
            flow._timer = self.engine.schedule(0.0, self._make_completion(flow))

    def _flush_timers(self) -> bool:
        """Schedule completion timers left stale by this instant's solves.

        Runs in ``self._flows`` order so heap tie-breaking (and therefore
        same-instant completion order) stays deterministic.
        """
        self._timers_stale = False
        scheduled = False
        for flow in self._flows:
            timer = flow._timer
            if timer is None or timer.cancelled:
                self._schedule_completion(flow)
                scheduled = True
        return scheduled

    def _make_completion(self, flow: Flow) -> Callable[[], None]:
        def _complete() -> None:
            self._advance_progress()
            if flow.remaining > COMPLETION_EPSILON_BYTES:  # pragma: no cover
                raise SimulationError(
                    f"flow {flow.label!r} completion fired early "
                    f"({flow.remaining:.0f} bytes left)"
                )
            flow.remaining = 0.0
            flow.rate = 0.0
            self._flows.remove(flow)
            self.flows_completed += 1
            if self.hooks is not None:
                self.hooks.on_flow_complete(self.engine.now, flow)
            flow.done.succeed(flow)
            # Recompute even when no flows remain so stateful resources
            # observe the transition to idle.
            self._request_recompute()

        return _complete

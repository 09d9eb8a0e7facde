"""Cluster-level workload units: pod specs and placement records.

A :class:`PodSpec` is the cluster analogue of a ``docker run`` request:
it carries both the *declared* resource requests (what a static
scheduler packs on) and the *actual* demand profile (what the pod will
really consume once running — the signal the adaptive views surface).
The gap between the two is the overcommit opportunity the view-based
scheduler exploits.

A :class:`PlacedPod` is the *worker-side* runtime record of one
admitted pod: which host holds it, the live container handle, and the
ledgers that must survive migration (cumulative CPU time across hosts,
bytes moved).  A :class:`PodRecord` is the *control-plane* shadow of
the same pod — no container handle, only the barrier-refreshed values
the scheduler reads — so the cluster can make placement and migration
decisions without reaching into (possibly remote) worlds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.container import Container
    from repro.cluster.host import Host, HostLedger

__all__ = ["PodSpec", "Footprint", "PlacedPod", "PodRecord"]


@dataclass(frozen=True)
class Footprint:
    """The resource shape a scheduler sizes a pod by.

    ``cpu_request``/``mem_request`` are the declared (static) values;
    ``cpu_live``/``mem_live`` are the live signal — current effective
    demand for a new pod, the adaptive-view footprint for a running one.
    Each strategy reads the pair it believes in.
    """

    cpu_request: float
    mem_request: int
    cpu_live: float
    mem_live: int


_NUMERIC_FIELDS = ("cpu_request", "mem_request", "cpu_demand", "mem_demand",
                   "burst_demand", "burst_at")
_OPTIONAL_FIELDS = ("burst_demand", "burst_at")


@dataclass(frozen=True)
class PodSpec:
    """One schedulable unit of cluster work.

    Attributes
    ----------
    cpu_request / mem_request:
        Declared requests — what the pod *asks* for.  The static
        baseline bin-packs on these.
    cpu_demand / mem_demand:
        Actual steady demand — the CPU quota the pod runs under and the
        resident bytes it charges at admission.
    burst_demand / burst_at:
        Optional demand phase change: at simulated time ``burst_at`` the
        pod's CPU demand (and quota) becomes ``burst_demand``.  Bursts
        are what make view-packed hosts run hot and give the migration
        rebalancer something to do.
    gang:
        Optional gang id.  Pods sharing a gang id are ranks of one
        tightly-coupled job: a gang-aware strategy places all of them
        in the same scheduling round or none at all.
    """

    name: str
    cpu_request: float
    mem_request: int
    cpu_demand: float
    mem_demand: int
    burst_demand: float | None = None
    burst_at: float | None = None
    gang: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterError("pod name cannot be empty")
        # One expression, no per-field loop: specs are built by the
        # thousand per submission.  isfinite raises on non-numbers.
        isfinite = math.isfinite
        try:
            finite = (isfinite(self.cpu_request) and isfinite(self.mem_request)
                      and isfinite(self.cpu_demand)
                      and isfinite(self.mem_demand)
                      and (self.burst_demand is None
                           or isfinite(self.burst_demand))
                      and (self.burst_at is None or isfinite(self.burst_at)))
        except TypeError:
            finite = False
        if not finite:                      # name the first culprit
            for field in _NUMERIC_FIELDS:
                value = getattr(self, field)
                if value is None and field in _OPTIONAL_FIELDS:
                    continue
                try:
                    if isfinite(value):
                        continue
                except TypeError:
                    pass
                raise ClusterError(f"pod {self.name!r}: {field} must be a "
                                   f"finite number, got {value!r}")
        if self.cpu_demand < 0.02:
            raise ClusterError(
                f"pod {self.name!r}: cpu_demand must be >= 0.02 cores "
                f"(cfs quota floor), got {self.cpu_demand}")
        if self.cpu_request < self.cpu_demand:
            raise ClusterError(
                f"pod {self.name!r}: cpu_request {self.cpu_request} below "
                f"cpu_demand {self.cpu_demand}")
        if self.mem_demand <= 0:
            raise ClusterError(
                f"pod {self.name!r}: mem_demand must be positive")
        if self.mem_request < self.mem_demand:
            raise ClusterError(
                f"pod {self.name!r}: mem_request {self.mem_request} below "
                f"mem_demand {self.mem_demand}")
        if (self.burst_demand is None) != (self.burst_at is None):
            raise ClusterError(
                f"pod {self.name!r}: burst_demand and burst_at must be "
                f"set together")
        if self.burst_demand is not None and self.burst_demand < 0.02:
            raise ClusterError(
                f"pod {self.name!r}: burst_demand must be >= 0.02 cores")

    def demand_at(self, now: float) -> float:
        """Effective CPU demand at simulated time ``now``."""
        if self.burst_at is not None and now >= self.burst_at:
            return self.burst_demand  # type: ignore[return-value]
        return self.cpu_demand

    def footprint(self, now: float = 0.0) -> Footprint:
        """The admission-time footprint of a not-yet-placed pod."""
        return Footprint(cpu_request=self.cpu_request,
                         mem_request=self.mem_request,
                         cpu_live=self.demand_at(now),
                         mem_live=self.mem_demand)


class PlacedPod:
    """Runtime record of one admitted pod."""

    def __init__(self, spec: PodSpec, host: "Host", container: "Container",
                 placed_at: float):
        self.spec = spec
        self.host = host
        self.container = container
        self.placed_at = placed_at
        #: Live CPU demand (tracks burst phase changes).
        self.demand = spec.demand_at(placed_at)
        self.migrations = 0
        #: CPU seconds consumed on *previous* hosts (folded in at each
        #: migration so the pod-level integral survives re-homing).
        self.cpu_time_retired = 0.0
        #: Bytes carried across migrations, cumulative.
        self.bytes_migrated = 0
        #: Epoch-window bookmark for attained-rate sampling.
        self.last_cpu_time = 0.0
        #: Epochs in which the pod's attained rate missed its SLO.
        self.violation_epochs = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def total_cpu_time(self) -> float:
        """Pod-lifetime CPU seconds, across every host it has run on."""
        return self.cpu_time_retired + self.container.cgroup.total_cpu_time

    def view_cpu_footprint(self) -> float:
        """The adaptive-view footprint: ``min(E_CPU, quota)`` in cores.

        ``E_CPU`` is what the container can effectively obtain
        (Algorithm 1); the quota is what it is currently asking the CFS
        for.  The min is the live cores the pod occupies for packing
        purposes — it follows bursts (quota raises) and contention
        (E_CPU shrinks) without trusting the declared request.
        """
        return min(float(self.container.sys_ns.e_cpu),
                   self.container.cgroup.quota_cores)

    def live_bytes(self) -> int:
        return self.container.cgroup.memory.usage_in_bytes

    def footprint(self) -> Footprint:
        return Footprint(cpu_request=self.spec.cpu_request,
                         mem_request=self.spec.mem_request,
                         cpu_live=self.view_cpu_footprint(),
                         mem_live=self.live_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PlacedPod {self.name!r} on {self.host.name} "
                f"demand={self.demand:.2f} migrations={self.migrations}>")


class PodRecord:
    """Control-plane shadow of one admitted pod.

    Holds no container handle — only the values the scheduler reads,
    refreshed from the owning shard at each epoch barrier.  Between
    barriers the record is updated by the same deterministic deltas the
    worker applies (quota changes on burst, ledger folds on migration),
    so placement decisions are identical no matter which process the
    live world lives in.
    """

    def __init__(self, spec: PodSpec, host: "HostLedger", placed_at: float):
        self.spec = spec
        self.host = host
        self.placed_at = placed_at
        #: Live CPU demand (tracks burst phase changes).
        self.demand = spec.demand_at(placed_at)
        self.migrations = 0
        #: CPU seconds consumed on *previous* hosts.
        self.cpu_time_retired = 0.0
        #: Bytes carried across migrations, cumulative.
        self.bytes_migrated = 0
        #: Epoch-window bookmark for attained-rate sampling.
        self.last_cpu_time = 0.0
        #: Epochs in which the pod's attained rate missed its SLO.
        self.violation_epochs = 0
        #: CPU seconds on the *current* host, as of the last barrier.
        self.live_cpu_time = 0.0
        #: Barrier-cached E_CPU view.  A fresh container's view is
        #: unbounded until it has run (sys_ns.e_cpu starts optimistic),
        #: so the shadow starts at +inf and the quota bounds the
        #: footprint until the first report lands.
        self.e_cpu = math.inf
        #: Barrier-cached CFS quota in cores (control-side predicted
        #: on admit/burst/migrate, confirmed at every barrier).
        self.quota_cores = 0.0
        #: Barrier-cached resident bytes.
        self._live_bytes = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def total_cpu_time(self) -> float:
        """Pod-lifetime CPU seconds, across every host it has run on."""
        return self.cpu_time_retired + self.live_cpu_time

    def view_cpu_footprint(self) -> float:
        """Shadow of :meth:`PlacedPod.view_cpu_footprint`."""
        return min(self.e_cpu, self.quota_cores)

    def live_bytes(self) -> int:
        return self._live_bytes

    def footprint(self) -> Footprint:
        return Footprint(cpu_request=self.spec.cpu_request,
                         mem_request=self.spec.mem_request,
                         cpu_live=self.view_cpu_footprint(),
                         mem_live=self.live_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PodRecord {self.name!r} on {self.host.name} "
                f"demand={self.demand:.2f} migrations={self.migrations}>")

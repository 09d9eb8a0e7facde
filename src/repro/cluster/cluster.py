"""The cluster: N lockstep worlds, one scheduler, one audit trail.

The :class:`Cluster` advances its hosts in fixed *epochs*.  Each epoch:

1. demand bursts fire (pods raise/lower their CPU quota);
2. pending pods are scheduled — gangs first (all-or-nothing when the
   strategy is gang-aware), then singles best-fit-decreasing;
3. every host world runs to the epoch boundary (independent event
   loops, identical clocks at the barrier);
4. per-pod attained CPU rates are sampled against the SLO and packing
   density/utilization samples are recorded;
5. optionally, the rebalancer migrates pods off hosts whose *live*
   demand exceeds the hot threshold.

The cluster itself is a pure *control plane*: it owns no ``World``.
Host worlds live behind an execution backend
(:mod:`repro.cluster.shard`) — in-process at ``jobs=1``, sharded across
persistent worker processes at ``jobs=N`` — and every scheduling
decision reads the control plane's own *shadow ledgers*
(:class:`~repro.cluster.host.HostLedger` /
:class:`~repro.cluster.pod.PodRecord`), refreshed from worker reports
at each epoch barrier.  Identical code over identical shadow state is
what makes ``jobs=N`` byte-identical to ``jobs=1``.

Every placement decision is appended to a JSON-able trace whose digest
is the determinism contract: the same seed must yield the same trace at
``jobs=1`` and ``jobs=4``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass

from repro.cluster.host import Host, HostLedger
from repro.cluster.migration import MigrationRecord, quota_cores
from repro.cluster.placement import PlacementStrategy, make_strategy
from repro.cluster.pod import PodRecord, PodSpec
from repro.cluster.shard import make_executor
from repro.errors import ClusterError
from repro.units import gib
from repro.world import ENGINES

__all__ = ["ClusterParams", "Cluster"]

_EPS = 1e-9


@dataclass(frozen=True)
class ClusterParams:
    """Cluster shape and scheduling policy."""

    n_hosts: int = 8
    host_ncpus: int = 32
    host_memory: int = gib(128)
    #: Scheduling/sampling interval (simulated seconds).
    epoch: float = 1.0
    #: Adaptive-view refresh period on every host (None = track CFS).
    view_update_period: float | None = 1.0
    strategy: str = "view"
    #: Enable the hot-host rebalancer.
    migration: bool = True
    #: A host is hot when live pod demand exceeds this fraction of cores.
    hot_frac: float = 0.85
    max_migrations_per_epoch: int = 4
    #: A pod-epoch violates when attained < slo_frac * demand.
    slo_frac: float = 0.95
    seed: int = 0
    engine: str = "incremental"
    #: Enable per-host trace logs (spans/events).  Purely passive: the
    #: placement trace digest is identical with tracing on or off.
    trace: bool = False
    #: Kernel policies every host world runs under (see repro.policy).
    sched_policy: str = "default"
    reclaim_policy: str = "default"

    def __post_init__(self) -> None:
        _check_int("n_hosts", self.n_hosts, 1)
        _check_int("host_ncpus", self.host_ncpus, 1)
        _check_int("host_memory", self.host_memory, 1)
        _check_int("max_migrations_per_epoch", self.max_migrations_per_epoch, 0)
        _check_int("seed", self.seed, None)
        _check_positive("epoch", self.epoch)
        if self.view_update_period is not None:
            _check_positive("view_update_period", self.view_update_period)
        for name in ("hot_frac", "slo_frac"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 < value <= 1.0):
                raise ClusterError(f"{name} must be in (0, 1], got {value!r}")
        make_strategy(self.strategy)         # ClusterError if unknown
        if self.engine not in ENGINES:
            raise ClusterError(f"unknown engine {self.engine!r}: expected "
                               f"one of {list(ENGINES)}")
        from repro.policy import RECLAIM_POLICIES, SCHED_POLICIES
        if self.sched_policy not in SCHED_POLICIES:
            raise ClusterError(
                f"unknown sched_policy {self.sched_policy!r}: expected one "
                f"of {sorted(SCHED_POLICIES)}")
        if self.reclaim_policy not in RECLAIM_POLICIES:
            raise ClusterError(
                f"unknown reclaim_policy {self.reclaim_policy!r}: expected "
                f"one of {sorted(RECLAIM_POLICIES)}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int(name: str, value, minimum: int | None) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ClusterError(f"{name} must be an integer{bound}, got {value!r}")


def _check_positive(name: str, value) -> None:
    if not (_is_real(value) and math.isfinite(value) and value > 0):
        raise ClusterError(
            f"{name} must be a positive finite number, got {value!r}")


@dataclass
class _Metrics:
    epochs: int = 0
    pod_epochs: int = 0
    violations: int = 0
    density_sum: float = 0.0
    utilization_sum: float = 0.0
    gangs_placed: int = 0
    gangs_rejected: int = 0
    gangs_partial: int = 0


class Cluster:
    """A fleet of simulated hosts under one placement scheduler."""

    def __init__(self, params: ClusterParams | None = None, *,
                 strategy: PlacementStrategy | None = None, jobs: int = 1):
        self.params = params or ClusterParams()
        p = self.params
        width = max(2, len(str(p.n_hosts - 1)))
        names = [f"host{idx:0{width}d}" for idx in range(p.n_hosts)]
        self._executor = make_executor(p, names, jobs)
        #: Effective shard-worker count (1 = in-process).
        self.jobs = self._executor.jobs
        #: Control-plane shadow ledgers, one per host, in host order —
        #: the only state placement strategies ever read.
        self.ledgers: list[HostLedger] = []
        self._ledger_by_name: dict[str, HostLedger] = {}
        for row in self._executor.init_reports():
            ledger = HostLedger(row["host"], ncpus=row["ncpus"],
                                mem_capacity=row["mem_capacity"])
            ledger.mem_free = row["mem_free"]
            self.ledgers.append(ledger)
            self._ledger_by_name[ledger.name] = ledger
        self._now = 0.0
        #: Optional fleet telemetry pipeline (see repro.obs.fleet).
        self.telemetry = None
        self.strategy = strategy or make_strategy(p.strategy)
        self.placed: dict[str, PodRecord] = {}
        self.pending: list[PodSpec] = []
        self._pending_names: set[str] = set()
        self.rejected: list[str] = []
        self.submitted = 0
        self.migration_records: list[MigrationRecord] = []
        self.metrics = _Metrics()
        #: Per-pod (attained, demand) rates from the most recent epoch
        #: sample — read by the fleet telemetry collector.
        self.last_epoch_attained: dict[str, tuple[float, float]] = {}
        #: Deterministic event log: (time, event, pod, host) rows.
        self.trace: list[tuple[float, str, str, str]] = []
        #: Rolling hash over every epoch's merged barrier reports —
        #: layout-independent, so it doubles as a cheap cross-layout
        #: divergence detector alongside trace_digest().
        self._sample_hash = hashlib.sha256()

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def cpu_capacity(self) -> int:
        return sum(ledger.ncpus for ledger in self.ledgers)

    @property
    def hosts(self) -> list[Host]:
        """The live host worlds — in-process (``jobs=1``) only."""
        hosts = getattr(self._executor, "hosts", None)
        if hosts is None:
            raise ClusterError(
                f"host worlds live inside shard worker processes at "
                f"jobs={self.jobs}; read the control-plane ledgers, "
                f"fleet_spans(), or invariant_snapshot() instead")
        return hosts

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down shard workers (no-op in-process; idempotent)."""
        self._executor.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    def submit(self, spec: PodSpec) -> None:
        """Queue a pod for the next scheduling round."""
        if spec.name in self.placed or spec.name in self._pending_names:
            raise ClusterError(f"pod {spec.name!r} already submitted")
        self.pending.append(spec)
        self._pending_names.add(spec.name)
        self.submitted += 1
        self.trace.append((self._now, "submit", spec.name, ""))

    def submit_all(self, specs: list[PodSpec]) -> None:
        for spec in specs:
            self.submit(spec)

    # -- main loop ------------------------------------------------------------

    def attach_telemetry(self, collector) -> None:
        """Attach a :class:`repro.obs.fleet.FleetCollector`.

        The collector is driven at every epoch barrier by pure reads —
        host sampling happens where the worlds live (worker-side under
        sharding) and never schedules events, so attaching it cannot
        perturb the simulation or its digests.
        """
        self.telemetry = collector
        collector.bind(self)
        self._executor.attach_telemetry(collector.params)

    def run(self, *, until: float) -> None:
        """Advance all hosts in lockstep epochs to ``until``."""
        while self._now < until - _EPS:
            epoch_end = min(self._now + self.params.epoch, until)
            epoch_len = epoch_end - self._now
            #: Per-host command batch for this epoch, in decision order.
            ops: dict[str, list] = {}
            self._apply_bursts(ops)
            self._place_pending(ops)
            reports = self._executor.run_epoch(ops, epoch_end)
            self._now = epoch_end
            self._absorb_reports(reports)
            self._sample_epoch(epoch_len)
            if self.params.migration:
                self._rebalance()
            if self.telemetry is not None:
                samples = self._executor.sample(self._attained_by_host())
                self.telemetry.on_epoch(self, epoch_len, samples)

    # -- scheduling -----------------------------------------------------------

    def _place_pending(self, ops: dict[str, list]) -> None:
        """One scheduling round: gangs first, then singles BFD."""
        if not self.pending:
            return
        pending, self.pending = self.pending, []
        self._pending_names.clear()
        # Footprints are pure functions of (spec, now): compute each
        # once per round instead of once per sort key + choose call.
        fps = {spec.name: spec.footprint(self._now) for spec in pending}
        gangs: dict[str, list[PodSpec]] = {}
        singles: list[PodSpec] = []
        for spec in pending:
            if spec.gang is not None:
                gangs.setdefault(spec.gang, []).append(spec)
            else:
                singles.append(spec)

        for gang_id in sorted(gangs):
            ranks = gangs[gang_id]
            if self.strategy.gang_aware:
                assignment = self.strategy.choose_gang(self.ledgers, ranks)
                if assignment is None:
                    self.metrics.gangs_rejected += 1
                    for spec in ranks:
                        self.rejected.append(spec.name)
                        self.trace.append((self._now, "reject", spec.name,
                                           ""))
                    continue
                for spec, ledger in assignment:
                    self._admit(spec, ledger, ops)
                self.metrics.gangs_placed += 1
            else:
                # Gang-blind baseline: ranks scheduled independently;
                # partial gangs are a real (bad) outcome we count.
                landed = 0
                for spec in ranks:
                    ledger = self.strategy.choose(self.ledgers,
                                                  fps[spec.name])
                    if ledger is None:
                        self.rejected.append(spec.name)
                        self.trace.append((self._now, "reject", spec.name,
                                           ""))
                    else:
                        self._admit(spec, ledger, ops)
                        landed += 1
                if landed == len(ranks):
                    self.metrics.gangs_placed += 1
                elif landed == 0:
                    self.metrics.gangs_rejected += 1
                else:
                    self.metrics.gangs_partial += 1

        # Best-fit-DECREASING: big pods first so fragments stay usable.
        singles.sort(key=lambda s: (-fps[s.name].cpu_live, s.name))
        for spec in singles:
            ledger = self.strategy.choose(self.ledgers, fps[spec.name])
            if ledger is None:
                self.rejected.append(spec.name)
                self.trace.append((self._now, "reject", spec.name, ""))
            else:
                self._admit(spec, ledger, ops)

    def _admit(self, spec: PodSpec, ledger: HostLedger,
               ops: dict[str, list]) -> None:
        demand = spec.demand_at(self._now)
        rec = PodRecord(spec, ledger, self._now)
        rec.demand = demand
        rec.quota_cores = quota_cores(demand)
        # Admission charges exactly mem_demand on the worker; mirror it
        # so same-round placements see the byte already spoken for.
        rec._live_bytes = spec.mem_demand
        ledger.account_add(rec)
        ledger.mem_free -= spec.mem_demand
        self.placed[spec.name] = rec
        ops.setdefault(ledger.name, []).append(("admit", spec, demand))
        self.trace.append((self._now, "place", spec.name, ledger.name))

    # -- epoch hooks ----------------------------------------------------------

    def _apply_bursts(self, ops: dict[str, list]) -> None:
        for rec in self.placed.values():
            target = rec.spec.demand_at(self._now)
            if abs(target - rec.demand) < _EPS:
                continue
            ledger = rec.host
            ledger.demand_cpu += target - rec.demand
            rec.demand = target
            rec.quota_cores = quota_cores(target)
            ledger.set_view(rec.name, rec.view_cpu_footprint())
            ops.setdefault(ledger.name, []).append(
                ("burst", rec.name, target))
            self.trace.append((self._now, "burst", rec.name, ledger.name))

    def _absorb_reports(self, reports: list[dict]) -> None:
        """Refresh the shadow ledgers from one barrier's merged reports.

        Reports arrive in canonical host order with per-pod rows in
        sorted-name order, so both the rolling sample hash and the
        float-summation order inside each ledger are identical for
        every shard layout.
        """
        payload = json.dumps(reports, sort_keys=True, separators=(",", ":"))
        self._sample_hash.update(payload.encode())
        self._sample_hash.update(b"\x00")
        for row in reports:
            ledger = self._ledger_by_name[row["host"]]
            ledger.mem_free = row["mem_free"]
            rows = row["pods"]
            if len(rows) != len(ledger.pods):
                raise ClusterError(
                    f"shard report for host {row['host']!r} lists "
                    f"{len(rows)} pods, control ledger holds "
                    f"{len(ledger.pods)}")
            for name, cpu_time, mem_usage, e_cpu, quota in rows:
                rec = self.placed[name]
                rec.live_cpu_time = cpu_time
                rec._live_bytes = mem_usage
                rec.e_cpu = e_cpu
                rec.quota_cores = quota
            ledger.refresh_views()

    def _sample_epoch(self, epoch_len: float) -> None:
        m = self.metrics
        m.epochs += 1
        attained_total = 0.0
        demand_total = 0.0
        self.last_epoch_attained = {}
        for rec in self.placed.values():
            total = rec.total_cpu_time
            attained = (total - rec.last_cpu_time) / epoch_len
            rec.last_cpu_time = total
            window = min(epoch_len, self._now - rec.placed_at)
            if window < epoch_len - _EPS:
                # Partial first epoch: rate over the actual residency.
                attained = (attained * epoch_len / window) if window > _EPS \
                    else rec.demand
            m.pod_epochs += 1
            demand_total += rec.demand
            attained_total += min(attained, rec.demand)
            self.last_epoch_attained[rec.name] = (attained, rec.demand)
            if attained + _EPS < self.params.slo_frac * rec.demand:
                rec.violation_epochs += 1
                m.violations += 1
        cap = float(self.cpu_capacity)
        m.density_sum += demand_total / cap
        m.utilization_sum += attained_total / cap

    def _attained_by_host(self) -> dict[str, dict[str, tuple[float, float]]]:
        """Last epoch's (attained, demand) pairs, sliced by current host."""
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for name, rates in self.last_epoch_attained.items():
            rec = self.placed[name]
            out.setdefault(rec.host.name, {})[name] = rates
        return out

    # -- migration ------------------------------------------------------------

    def _rebalance(self) -> None:
        """Move the biggest pods off hosts running over the hot threshold.

        Every demand read here is the ledger's incrementally-maintained
        ``demand_cpu`` — O(1), not the old O(pods) recompute per probe.
        """
        moved = 0
        budget = self.params.max_migrations_per_epoch
        hot_frac = self.params.hot_frac
        hot = sorted(
            (l for l in self.ledgers if l.demand_cpu > hot_frac * l.ncpus),
            key=lambda l: (-(l.demand_cpu / l.ncpus), l.name))
        for ledger in hot:
            while (moved < budget and
                   ledger.demand_cpu > hot_frac * ledger.ncpus):
                candidates = sorted(ledger.pods.values(),
                                    key=lambda p: (-p.demand, p.name))
                target_found = False
                for rec in candidates:
                    dst = self._pick_target(rec, exclude=ledger)
                    if dst is None:
                        continue
                    self._migrate(rec, ledger, dst)
                    moved += 1
                    target_found = True
                    break
                if not target_found:
                    break           # nothing on this host can move anywhere
            if moved >= budget:
                break

    def _pick_target(self, rec: PodRecord, *,
                     exclude: HostLedger) -> HostLedger | None:
        fp = rec.footprint()
        hot_cap = self.params.hot_frac
        best: HostLedger | None = None
        best_key: tuple[float, str] | None = None
        for ledger in self.ledgers:
            if ledger is exclude:
                continue
            if not self.strategy.feasible(ledger, fp):
                continue
            # Don't create a new hotspot while fixing this one.
            if ledger.demand_cpu + rec.demand > hot_cap * ledger.ncpus:
                continue
            key = (self.strategy.fit_score(ledger, fp), ledger.name)
            if best_key is None or key < best_key:
                best, best_key = ledger, key
        return best

    def _migrate(self, rec: PodRecord, src: HostLedger,
                 dst: HostLedger) -> None:
        payload = self._executor.migrate(rec.name, src.name, dst.name)
        bytes_moved = payload["bytes_moved"]
        cpu_at = payload["cpu_time"]
        src.account_remove(rec)
        # Fold the source-side CPU integral into the retired ledger so
        # the pod-lifetime total survives the re-home exactly.
        rec.cpu_time_retired += cpu_at
        rec.live_cpu_time = 0.0
        rec._live_bytes = bytes_moved
        rec.e_cpu = math.inf
        rec.quota_cores = quota_cores(rec.demand)
        rec.migrations += 1
        rec.bytes_migrated += bytes_moved
        rec.host = dst
        dst.account_add(rec)
        # Byte ledger estimate until the next barrier report: the moved
        # bytes free up on the source and land on the target.
        src.mem_free += bytes_moved
        dst.mem_free -= bytes_moved
        self.migration_records.append(MigrationRecord(
            pod=rec.name, src=src.name, dst=dst.name, time=self._now,
            bytes_moved=bytes_moved, cpu_time=cpu_at))
        self.trace.append((self._now, "migrate", rec.name, dst.name))

    # -- reporting ------------------------------------------------------------

    def trace_digest(self) -> str:
        """SHA-256 of the canonical placement/migration trace."""
        payload = json.dumps(self.trace, sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def epoch_sample_digest(self) -> str:
        """Rolling SHA-256 over every epoch's merged barrier reports.

        Layout-independent: reports are merged into canonical host
        order before hashing, so ``jobs=1`` and any ``jobs=N`` fold the
        same byte stream.
        """
        return self._sample_hash.copy().hexdigest()

    def shard_digests(self) -> list[str]:
        """Per-shard invariant digests (layout-*dependent* by nature).

        Attributes a cross-process divergence to one shard without
        shipping worlds; deliberately excluded from
        :meth:`invariant_snapshot`, which must be layout-independent.
        """
        return self._executor.snapshot()["digests"]

    def fleet_spans(self) -> list[dict]:
        """Per-host trace bundles (host, enabled, dropped, log_id, spans).

        The span-tree audit consumes these instead of reaching into
        host worlds, so it works identically for sharded clusters.
        """
        return self._executor.spans()

    def summary(self) -> dict:
        """JSON-able scorecard of the run so far."""
        m = self.metrics
        epochs = max(1, m.epochs)
        return {
            "strategy": self.strategy.name,
            "hosts": len(self.ledgers),
            "submitted": self.submitted,
            "placed": len(self.placed),
            "rejected": len(self.rejected),
            "pending": len(self.pending),
            "migrations": len(self.migration_records),
            "migrated_bytes": sum(r.bytes_moved
                                  for r in self.migration_records),
            "slo_burn": (m.violations / m.pod_epochs) if m.pod_epochs else 0.0,
            "density": m.density_sum / epochs,
            "utilization": m.utilization_sum / epochs,
            "gangs_placed": m.gangs_placed,
            "gangs_rejected": m.gangs_rejected,
            "gangs_partial": m.gangs_partial,
            "trace_digest": self.trace_digest(),
        }

    def invariant_snapshot(self) -> dict:
        """Cluster-level digest for ``repro.check.check_cluster``.

        Mirrors :meth:`World.invariant_snapshot` one level up: per-host
        ledgers in canonical order plus the pod/migration records that
        tie them together across re-homes.  Layout-independent: the
        same dict, byte for byte, at ``jobs=1`` and any ``jobs=N``.
        """
        snap = self._executor.snapshot()
        live = snap["pods"]
        pods = {
            name: {
                "host": rec.host.name,
                "migrations": rec.migrations,
                "total_cpu_time": (rec.cpu_time_retired
                                   + live[name]["live_cpu_time"]),
                "cpu_time_retired": rec.cpu_time_retired,
                "bytes_migrated": rec.bytes_migrated,
                "mem_usage": live[name]["mem_usage"],
            }
            for name, rec in sorted(self.placed.items())
        }
        return {
            "now": self._now,
            "submitted": self.submitted,
            "placed": len(self.placed),
            "pending": len(self.pending),
            "rejected": len(self.rejected),
            "hosts": snap["hosts"],
            "pods": pods,
            "migrations": {
                "count": len(self.migration_records),
                "bytes_total": sum(r.bytes_moved
                                   for r in self.migration_records),
                "cpu_time_total": sum(r.cpu_time
                                      for r in self.migration_records),
                "records": [
                    {"pod": r.pod, "src": r.src, "dst": r.dst,
                     "time": r.time, "bytes_moved": r.bytes_moved,
                     "cpu_time": r.cpu_time}
                    for r in self.migration_records
                ],
            },
            "epoch_sample_digest": self.epoch_sample_digest(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Cluster t={self._now:.1f}s hosts={len(self.ledgers)} "
                f"placed={len(self.placed)} strategy={self.strategy.name} "
                f"jobs={self.jobs}>")

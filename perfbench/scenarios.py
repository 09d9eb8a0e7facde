"""The four benchmark workloads, defined here and nowhere else.

Each workload is a class whose constructor is the set-up (build the
world or cluster, create containers, launch runtimes, spawn shard
workers) and whose :meth:`run` is the measured part.  Inputs derive
only from the seed passed in, so one seed always gives one input.

After :meth:`run`, :meth:`fingerprint` returns the simulated outputs
that must repeat exactly, and :meth:`check` raises
:class:`WorkloadFailed` when the outputs break a rule the workload
promises (every request answered, every runtime completed, every pod
placed).  All times the benchmark reports are host seconds; simulated
outputs appear only inside fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.cluster import Cluster, ClusterParams, PodSpec
from repro.container.spec import ContainerSpec
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.openmp.policy import OmpPolicy
from repro.openmp.runtime import OpenMpRuntime
from repro.serve import autoscaler as vertical
from repro.serve.balancer import Balancer
from repro.serve.latency import LatencyRecorder
from repro.serve.loadgen import LoadGenerator, Phase
from repro.serve.slo import Slo
from repro.serve.workload import ServiceReplica, ServiceWorkload
from repro.units import gib, mib
from repro.workloads.dacapo import PAPER_DACAPO, dacapo
from repro.workloads.micro import heap_micro_benchmark
from repro.workloads.npb import npb
from repro.world import World

__all__ = ["WORKLOADS", "WorkloadFailed", "Serve", "Colocate", "ClusterRun",
           "ClusterSharded", "snapshot_sha256"]


class WorkloadFailed(Exception):
    """A workload's outputs broke one of its own correctness rules."""


def snapshot_sha256(snapshot: dict) -> str:
    """SHA-256 of a canonical JSON encoding of an invariant snapshot."""
    payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class Serve:
    """One 32-CPU host serving 64 replicas under open-loop Poisson load.

    Arrivals are drawn in simulated time from the world's seeded
    streams: steady 600 req/s, a 2x spike, steady again.  Every request
    completion re-solves the fair scheduler, and containers are created
    only here in set-up, so ``ns_monitor`` is nearly idle during the run.
    """

    name = "serve"
    DURATION = 6.0
    RATE = 600.0

    def __init__(self, seed: int):
        world = World(ncpus=32, seed=seed)
        workload = ServiceWorkload(name="fe", mean_demand=0.02, demand_cv=0.5,
                                   workers_per_replica=3, queue_capacity=128,
                                   resident_memory=mib(64))
        containers = [world.containers.create(ContainerSpec(f"fe-{i}"))
                      for i in range(64)]
        recorder = LatencyRecorder()
        replicas = [ServiceReplica(c, workload, recorder) for c in containers]
        for replica in replicas:
            replica.start()
        self.balancer = Balancer(replicas)
        d = self.DURATION
        phases = [Phase.steady(d * 0.4, self.RATE),
                  Phase.spike(d * 0.2, self.RATE, 2.0),
                  Phase.steady(d * 0.4, self.RATE)]
        self.loadgen = LoadGenerator(world, workload, phases,
                                     self.balancer.dispatch)
        self.scaler = vertical.Autoscaler(world, vertical.AutoscalerParams(
            period=0.5, min_cores=0.25, max_cores=4.0, host_reserve=1.0))
        self.scaler.manage(workload.name, replicas, self.balancer, recorder,
                           Slo(target=0.25, percentile=99.0, window=2.0),
                           initial_cores=1.0)
        self.world = world

    def run(self) -> None:
        self.scaler.start()
        self.loadgen.start()
        self.world.run(until=self.DURATION)
        balancer, loadgen = self.balancer, self.loadgen
        self.drained = self.world.run_until(
            lambda: loadgen.done and balancer.outstanding == 0, timeout=120.0)
        self.scaler.stop()

    def fingerprint(self) -> dict:
        return {"completed": self.balancer.completed,
                "shed": self.balancer.shed,
                "steps": self.world.steps,
                "sim_time": self.world.now,
                "snapshot_sha256": snapshot_sha256(
                    self.world.invariant_snapshot())}

    def check(self) -> None:
        b = self.balancer
        if not self.drained:
            raise WorkloadFailed("serve: requests still in flight at timeout")
        if b.completed + b.shed != self.loadgen.generated:
            raise WorkloadFailed(
                f"serve: {b.completed} completed + {b.shed} shed != "
                f"{self.loadgen.generated} generated")

    def close(self) -> None:
        pass


class Colocate:
    """The paper's testbed running its own adaptive applications.

    20 CPUs and 128 GiB, equal shares.  Ten adaptive JVMs (the five
    paper DaCapo programs, two of each) size GC teams from E_CPU and
    heaps from E_MEM; four adaptive OpenMP NPB programs size their teams
    from E_CPU; elastic-heap micro-benchmark JVMs whose hard limits
    together exceed host memory (the fig12(c) set-up) steer by E_MEM.
    Everything runs to completion.  The seed jitters each DaCapo JVM's
    run length by up to 5%, so the view timers see a different
    interleaving per seed.
    """

    name = "colocate"
    NPB_PROGRAMS = ("cg", "ft", "mg", "sp")
    N_MICRO = 5
    #: Long enough that every micro JVM settles at the memory
    #: equilibrium: shorter runs end on either side of an extra major
    #: GC depending on the seed, which swings the step count by 20%.
    MICRO_WORK = 240.0
    JITTER = 0.05

    def __init__(self, seed: int):
        world = World(ncpus=20, memory=gib(128), seed=seed)
        self.jvms: list[Jvm] = []
        self.omps: list[OpenMpRuntime] = []
        for rep in range(2):
            for bench in PAPER_DACAPO:
                c = world.containers.create(ContainerSpec(f"{bench}-{rep}"))
                self.jvms.append(Jvm(c, dacapo(bench), JvmConfig.adaptive(),
                                     work_jitter=self.JITTER))
        for prog in self.NPB_PROGRAMS:
            c = world.containers.create(ContainerSpec(f"npb-{prog}"))
            self.omps.append(OpenMpRuntime(c, npb(prog), OmpPolicy.ADAPTIVE))
        micro = heap_micro_benchmark(total_work=self.MICRO_WORK)
        for i in range(self.N_MICRO):
            c = world.containers.create(ContainerSpec(
                f"micro-{i}", memory_limit=gib(30), memory_soft_limit=gib(15)))
            self.jvms.append(Jvm(c, micro, JvmConfig.adaptive()))
        for jvm in self.jvms:
            jvm.launch()
        for omp in self.omps:
            omp.start()
        self.world = world

    def run(self) -> None:
        runtimes = [*self.jvms, *self.omps]
        self.done = self.world.run_until(
            lambda: all(r.finished for r in runtimes), timeout=20000.0)

    def fingerprint(self) -> dict:
        return {"jvms": {j.name: [j.stats.execution_time, j.stats.gc_time]
                         for j in self.jvms},
                "omp": {o.name: o.stats.execution_time for o in self.omps},
                "steps": self.world.steps,
                "snapshot_sha256": snapshot_sha256(
                    self.world.invariant_snapshot())}

    def check(self) -> None:
        if not self.done:
            raise WorkloadFailed("colocate: runtimes unfinished at timeout")
        failed = [j.name for j in self.jvms
                  if not j.stats.completed or j.stats.oom]
        failed += [o.name for o in self.omps if not o.stats.completed]
        if failed:
            raise WorkloadFailed(f"colocate: runtimes failed: {failed}")

    def close(self) -> None:
        pass


class ClusterRun:
    """32 hosts (8 CPUs, 16 GiB) absorbing 3000 pods submitted at t=0.

    Requests are inflated to twice the real demand.  Every 50th pod
    bursts to 3.5 cores at a staggered time, pushing its host past the
    hot threshold so the rebalancer migrates pods.  Demands are jittered
    by the seed within a band that keeps every pod placeable.  Runs 16
    epochs of 0.5 s with the host worlds in this process.
    """

    name = "cluster"
    JOBS = 1
    N_HOSTS = 32
    N_PODS = 3000
    HORIZON = 8.0

    def __init__(self, seed: int):
        self.cluster = Cluster(ClusterParams(
            n_hosts=self.N_HOSTS, host_ncpus=8, host_memory=gib(16),
            epoch=0.5, hot_frac=0.75, seed=seed), jobs=self.JOBS)
        self.specs = pod_specs(seed, self.N_PODS)

    def run(self) -> None:
        self.cluster.submit_all(self.specs)
        self.cluster.run(until=self.HORIZON)

    def fingerprint(self) -> dict:
        c = self.cluster
        return {"trace_digest": c.trace_digest(),
                "epoch_sample_digest": c.epoch_sample_digest(),
                "snapshot_sha256": snapshot_sha256(c.invariant_snapshot())}

    def check(self) -> None:
        c = self.cluster
        if c.rejected or c.pending or len(c.placed) != len(self.specs):
            raise WorkloadFailed(
                f"{self.name}: placed {len(c.placed)} of {len(self.specs)} "
                f"pods ({len(c.rejected)} rejected, {len(c.pending)} pending)")
        if not c.migration_records:
            raise WorkloadFailed(f"{self.name}: the rebalancer never fired")

    def close(self) -> None:
        self.cluster.close()


class ClusterSharded(ClusterRun):
    """``cluster`` with two shard worker processes (``jobs=2``).

    The only workload with shard IPC and barrier waits.  Its fingerprint
    must equal ``cluster``'s byte for byte on the same seed.
    """

    name = "cluster-sharded"
    JOBS = 2


def pod_specs(seed: int, n_pods: int) -> list[PodSpec]:
    """The cluster pods: request-inflated, every 50th one bursting.

    Baseline demand sits near half the hot threshold per host; the seed
    jitters each demand by up to 10% and shifts each burst by up to one
    epoch, never enough to make a pod unplaceable.
    """
    rng = random.Random(seed)
    specs = []
    for i in range(n_pods):
        demand = (0.025 + 0.03 * ((i * 7) % 5) / 4) * rng.uniform(0.9, 1.1)
        burst = i % 50 == 0
        burst_at = 1.0 + ((i // 50) % 12) * 0.5 + rng.choice((0.0, 0.5))
        specs.append(PodSpec(
            name=f"pod{i:04d}", cpu_request=round(demand * 2.0, 3),
            mem_request=mib(48), cpu_demand=round(demand, 3),
            mem_demand=mib(24),
            burst_demand=3.5 if burst else None,
            burst_at=burst_at if burst else None))
    return specs


WORKLOADS = {cls.name: cls for cls in (Serve, Colocate, ClusterRun,
                                       ClusterSharded)}

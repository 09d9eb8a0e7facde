"""exp_serve — SLO autoscaling of a serving workload (beyond the paper).

The paper's evaluation is throughput-oriented; this experiment opens a
latency-oriented workload on the same substrate.  A replicated service
handles open-loop Poisson traffic that goes through a 4x load spike.
Three provisioning policies run on identical traffic (same seed, same
request sequence):

* ``adaptive``     — the SLO-driven vertical autoscaler, reading each
  container's ``sys_namespace`` view plus serving signals and rescaling
  cgroup quotas; ``ns_monitor`` folds every change back into the views
  it moves.
* ``adaptive-psi`` — the same autoscaler with PSI cpu pressure enabled
  as an extra capacity-bound signal (``use_pressure=True``): stall
  time, not just utilization/queueing, unlocks the burn-rate trigger.
  The ablation for the obs layer's pressure accounting.
* ``static-equal`` — a fixed quota equal to the *time-averaged* cores
  the adaptive run reserved (the equal-budget baseline).
* ``static-peak``  — a fixed quota equal to the adaptive run's *peak*
  reservation (provisioned for the spike the whole time).

Headline: the adaptive policy beats static-equal on p99 latency under
the spike while reserving no more cores on average, and gets within
sight of static-peak's latency while reserving far fewer cores — the
"CPU-limits kill tail latency" pathology fixed by the adaptive view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.results import ExperimentResult, ResultTable
from repro.metrics import Histogram, MetricsRecorder
from repro.serve import autoscaler as vertical
from repro.serve.balancer import Balancer
from repro.serve.latency import LatencyRecorder
from repro.serve.loadgen import LoadGenerator, Phase
from repro.serve.slo import Slo
from repro.serve.workload import ServiceReplica, ServiceWorkload
from repro.units import mib
from repro.world import World

__all__ = ["ServeParams", "RunStats", "run", "run_one"]


@dataclass(frozen=True)
class ServeParams:
    """Scenario knobs for the serving experiment."""

    seed: int = 0
    ncpus: int = 20
    replicas: int = 4
    workers: int = 4
    mean_demand: float = 0.040       # CPU-seconds per request
    demand_cv: float = 0.5
    base_rate: float = 50.0          # aggregate requests/second
    spike_mult: float = 4.0
    warm: float = 10.0               # steady seconds before the spike
    spike_len: float = 15.0
    cool: float = 25.0               # steady seconds after the spike
    queue_capacity: int = 400        # per-replica FIFO bound
    replica_memory: int = mib(256)
    slo_target: float = 0.25         # p99 objective, seconds
    initial_cores: float = 1.0       # adaptive starting quota per replica
    min_cores: float = 0.5
    max_cores: float = 4.0
    host_reserve: float = 1.0
    autoscale_period: float = 0.5
    queue_high: int = 8
    metrics_period: float = 0.5
    drain_timeout: float = 300.0

    @property
    def duration(self) -> float:
        return self.warm + self.spike_len + self.cool


#: run_all --quick resolves the params class through this hook.
PARAMS = ServeParams


@dataclass
class RunStats:
    """Outcome of one provisioning policy on the shared traffic."""

    mode: str
    generated: int
    completed: int
    shed: int
    hist: Histogram                  # streaming latency distribution
    p50: float
    p95: float
    p99: float
    spike_p99: float
    mean_latency: float
    reserved_avg: float              # time-averaged reserved cores
    reserved_peak: float
    metrics: dict[str, dict[str, float]]
    cores_trace: list[tuple[float, float]]   # adaptive only, else []
    pressure_avg10: float = 0.0      # worst replica cpu some-stall at end


def _workload(params: ServeParams) -> ServiceWorkload:
    return ServiceWorkload(name="frontend",
                           mean_demand=params.mean_demand,
                           demand_cv=params.demand_cv,
                           workers_per_replica=params.workers,
                           queue_capacity=params.queue_capacity,
                           resident_memory=params.replica_memory)


def _phases(params: ServeParams) -> list[Phase]:
    return [Phase.steady(params.warm, params.base_rate),
            Phase.spike(params.spike_len, params.base_rate, params.spike_mult),
            Phase.steady(params.cool, params.base_rate)]


def run_one(params: ServeParams, *, static_cores: float | None,
            use_pressure: bool = False) -> RunStats:
    """One full scenario; ``static_cores=None`` runs the autoscaler.

    ``static_cores`` is the *total* quota, split evenly over replicas.
    ``use_pressure`` lets the autoscaler treat PSI cpu stall as
    capacity-bound evidence (the obs-layer ablation).
    """
    world = World(ncpus=params.ncpus, seed=params.seed)
    workload = _workload(params)
    adaptive = static_cores is None
    per_replica = (params.initial_cores if adaptive
                   else static_cores / params.replicas)
    containers = [
        world.containers.create(ContainerSpec(
            f"{workload.name}-{i}",
            cpus=None if adaptive else max(per_replica, 0.01)))
        for i in range(params.replicas)]

    recorder = LatencyRecorder()
    replicas = [ServiceReplica(c, workload, recorder) for c in containers]
    for r in replicas:
        r.start()
    balancer = Balancer(replicas)
    loadgen = LoadGenerator(world, workload, _phases(params), balancer.dispatch)

    metrics = MetricsRecorder(world, period=params.metrics_period)
    for c in containers:
        metrics.watch_container(c)
        metrics.add_probe(f"{c.name}.quota_cores",
                          lambda cg=c.cgroup: cg.quota_cores)
    metrics.watch_host()
    metrics.start()

    scaler = None
    if adaptive:
        scaler = vertical.Autoscaler(world, vertical.AutoscalerParams(
            period=params.autoscale_period, min_cores=params.min_cores,
            max_cores=params.max_cores, host_reserve=params.host_reserve,
            queue_high=params.queue_high, use_pressure=use_pressure))
        slo = Slo(target=params.slo_target, percentile=99.0,
                  window=max(2.0, 3 * params.autoscale_period))
        service = scaler.manage(workload.name, replicas, balancer, recorder,
                                slo, initial_cores=params.initial_cores)
        scaler.start()

    loadgen.start()
    world.run(until=params.duration)
    drained = world.run_until(
        lambda: loadgen.done and balancer.outstanding == 0,
        timeout=params.drain_timeout)
    if not drained:
        raise RuntimeError(
            f"serving scenario failed to drain: {balancer.outstanding} "
            f"requests outstanding after {params.drain_timeout}s grace")
    metrics.stop()
    if scaler is not None:
        scaler.stop()
        scaler.finalize()
        reserved_avg = scaler.reserved_core_seconds / world.now
        reserved_peak = max(total for _, total in scaler.history)
        trace = list(service.cores_history)
    else:
        reserved_avg = reserved_peak = float(static_cores)
        trace = []

    spike_start, spike_end = params.warm, params.warm + params.spike_len
    summary = recorder.summary()
    spike = recorder.summary(spike_start, spike_end + 3.0)
    return RunStats(
        mode="adaptive" if adaptive else "static",
        generated=loadgen.generated,
        completed=balancer.completed,
        shed=balancer.shed,
        hist=recorder.hist,
        p50=summary.p50, p95=summary.p95, p99=summary.p99,
        spike_p99=spike.p99 if spike.count else summary.p99,
        mean_latency=summary.mean,
        reserved_avg=reserved_avg,
        reserved_peak=reserved_peak,
        metrics=metrics.summary(),
        cores_trace=trace,
        pressure_avg10=max(c.cgroup.pressure.cpu.avg("some", 10.0)
                           for c in containers))


def run(params: ServeParams | None = None) -> ExperimentResult:
    params = params or ServeParams()
    result = ExperimentResult(
        experiment="exp_serve",
        description="SLO-driven vertical autoscaling vs static quotas "
                    "under a load spike")

    adaptive = run_one(params, static_cores=None)
    psi = run_one(params, static_cores=None, use_pressure=True)
    psi.mode = "adaptive-psi"
    equal = run_one(params, static_cores=adaptive.reserved_avg)
    equal.mode = "static-equal"
    peak = run_one(params, static_cores=adaptive.reserved_peak)
    peak.mode = "static-peak"

    lat = result.add_table("latency", ResultTable(
        "Serving latency under a 4x spike (seconds; lower is better)",
        ["mode", "generated", "completed", "shed", "p50", "p95", "p99",
         "spike_p99", "mean_latency", "reserved_avg_cores",
         "reserved_peak_cores"]))
    for stats in (adaptive, psi, equal, peak):
        lat.add(mode=stats.mode, generated=stats.generated,
                completed=stats.completed, shed=stats.shed,
                p50=stats.p50, p95=stats.p95, p99=stats.p99,
                spike_p99=stats.spike_p99, mean_latency=stats.mean_latency,
                reserved_avg_cores=stats.reserved_avg,
                reserved_peak_cores=stats.reserved_peak)

    trace = result.add_table("autoscaler_trace", ResultTable(
        "Adaptive per-replica quota over time (downsampled)",
        ["time", "cores_per_replica"]))
    stride = max(1, len(adaptive.cores_trace) // 40)
    for when, cores in adaptive.cores_trace[::stride]:
        trace.add(time=when, cores_per_replica=cores)

    mtab = result.add_table("metrics", ResultTable(
        "Per-container metrics (MetricsRecorder summaries)",
        ["mode", "container", "cpu_rate_mean", "e_cpu_mean", "quota_max"]))
    for stats in (adaptive, psi, equal, peak):
        for i in range(params.replicas):
            name = f"frontend-{i}"
            mtab.add(mode=stats.mode, container=name,
                     cpu_rate_mean=stats.metrics[f"{name}.cpu_rate"]["mean"],
                     e_cpu_mean=stats.metrics[f"{name}.e_cpu"]["mean"],
                     quota_max=stats.metrics[f"{name}.quota_cores"]["max"])

    psi_tab = result.add_table("pressure_ablation", ResultTable(
        "PSI signal ablation (cpu some-stall as capacity-bound evidence)",
        ["mode", "p99", "spike_p99", "reserved_avg_cores",
         "end_pressure_avg10"]))
    for stats in (adaptive, psi):
        psi_tab.add(mode=stats.mode, p99=stats.p99,
                    spike_p99=stats.spike_p99,
                    reserved_avg_cores=stats.reserved_avg,
                    end_pressure_avg10=stats.pressure_avg10)

    result.note(
        f"headline: adaptive p99 {adaptive.p99:.3f}s vs static-equal "
        f"{equal.p99:.3f}s at the same average reservation "
        f"({adaptive.reserved_avg:.2f} cores); static-peak matches latency "
        f"({peak.p99:.3f}s) but pins {peak.reserved_avg:.1f} cores for the "
        f"whole run")
    result.note("expected: p99(adaptive) < p99(static-equal); "
                "avg reserved(adaptive) << static-peak reservation")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())

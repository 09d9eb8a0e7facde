"""Engine throughput benchmark: steps/sec of the simulation core.

Two scenarios stress the two scaling axes of the discrete-event engine:

* ``fleet`` — a dense serving fleet (replicated service, open-loop
  Poisson traffic, SLO autoscaler) where every request completion
  perturbs the runnable set, so the scheduler re-solves constantly and
  the completion path dominates.
* ``churn`` — 200 concurrent containers with long-running background
  threads plus steady create/destroy churn and a few pinned cpusets,
  the regime ARC-style vertical adaptivity papers evaluate against.

Run directly to produce ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick

``--mode scan`` runs the brute-force reference engine (full re-solve +
thread scans) for before/after comparisons; ``--mode both`` runs each
scenario under incremental and scan.
``benchmarks/check_engine_regression.py`` compares a fresh run against
the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.container.spec import ContainerSpec  # noqa: E402
from repro.serve import autoscaler as vertical  # noqa: E402
from repro.serve.balancer import Balancer  # noqa: E402
from repro.serve.latency import LatencyRecorder  # noqa: E402
from repro.serve.loadgen import LoadGenerator, Phase  # noqa: E402
from repro.serve.slo import Slo  # noqa: E402
from repro.serve.workload import ServiceReplica, ServiceWorkload  # noqa: E402
from repro.units import mib  # noqa: E402
from repro.world import World  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_engine.json"


def _make_world(ncpus: int, seed: int, engine: str | None,
                sched_policy: str = "default",
                reclaim_policy: str = "default") -> World:
    """Build a world, tolerating pre-refactor Worlds without ``engine``."""
    kwargs = {}
    if sched_policy != "default" or reclaim_policy != "default":
        kwargs = {"sched_policy": sched_policy,
                  "reclaim_policy": reclaim_policy}
    if engine is None:
        return World(ncpus=ncpus, seed=seed, **kwargs)
    try:
        return World(ncpus=ncpus, seed=seed, engine=engine, **kwargs)
    except TypeError:
        # Pre-refactor engine: only the (then unnamed) scan mode exists.
        return World(ncpus=ncpus, seed=seed)


def _make_profiler(profile: bool, world: World):
    """An attached EngineProfiler, or None when profiling is off."""
    if not profile:
        return None
    from repro.obs.profile import EngineProfiler
    return EngineProfiler(flight_every=2048).attach_world(world)


def _finish_profile(profiler, record: dict) -> None:
    if profiler is None:
        return
    profiler.detach()
    record["profile"] = profiler.report()
    print(profiler.format_report(), file=sys.stderr)


def run_fleet(*, quick: bool = False, engine: str | None = None,
              seed: int = 7, profile: bool = False,
              sched_policy: str = "default",
              reclaim_policy: str = "default") -> dict:
    """Dense serve fleet: replicas x workers under Poisson traffic."""
    replicas_n = 16 if quick else 64
    duration = 2.0 if quick else 6.0
    rate = 250.0 if quick else 600.0
    world = _make_world(32, seed, engine, sched_policy, reclaim_policy)
    profiler = _make_profiler(profile, world)
    workload = ServiceWorkload(name="fe", mean_demand=0.02, demand_cv=0.5,
                               workers_per_replica=3, queue_capacity=128,
                               resident_memory=mib(64))
    containers = [world.containers.create(ContainerSpec(f"fe-{i}"))
                  for i in range(replicas_n)]
    recorder = LatencyRecorder()
    replicas = [ServiceReplica(c, workload, recorder) for c in containers]
    for r in replicas:
        r.start()
    balancer = Balancer(replicas)
    phases = [Phase.steady(duration * 0.4, rate),
              Phase.spike(duration * 0.2, rate, 2.0),
              Phase.steady(duration * 0.4, rate)]
    loadgen = LoadGenerator(world, workload, phases, balancer.dispatch)
    scaler = vertical.Autoscaler(world, vertical.AutoscalerParams(
        period=0.5, min_cores=0.25, max_cores=4.0, host_reserve=1.0))
    slo = Slo(target=0.25, percentile=99.0, window=2.0)
    scaler.manage(workload.name, replicas, balancer, recorder, slo,
                  initial_cores=1.0)
    scaler.start()
    loadgen.start()

    t0 = time.perf_counter()
    world.run(until=duration)
    world.run_until(lambda: loadgen.done and balancer.outstanding == 0,
                    timeout=120.0)
    wall = time.perf_counter() - t0
    scaler.stop()
    record = {"scenario": "fleet", "replicas": replicas_n,
              "completed": balancer.completed, "sim_time": world.now,
              "steps": world.steps, "wall_s": wall,
              "steps_per_sec": world.steps / wall if wall > 0 else 0.0}
    _finish_profile(profiler, record)
    return record


def run_churn(*, quick: bool = False, engine: str | None = None,
              seed: int = 11, profile: bool = False,
              sched_policy: str = "default",
              reclaim_policy: str = "default") -> dict:
    """200 concurrent containers with steady create/destroy churn."""
    n_containers = 60 if quick else 200
    duration = 1.5 if quick else 4.0
    churn_period = 0.025
    world = _make_world(48, seed, engine, sched_policy, reclaim_policy)
    profiler = _make_profiler(profile, world)

    serial = [0]

    def launch(pinned: str | None = None):
        serial[0] += 1
        c = world.containers.create(ContainerSpec(
            f"c{serial[0]}", cpuset=pinned, memory_limit=mib(64)))
        for j in range(2):
            c.spawn_thread(f"w{j}").assign_work(1e9)
        return c

    # A few pinned containers carve the host into contention domains.
    fleet = [launch(pinned=f"{4 * i}-{4 * i + 3}") for i in range(4)]
    fleet += [launch() for _ in range(n_containers - 4)]

    def churn():
        victim = fleet.pop(4)  # never churn the pinned ones
        world.containers.destroy(victim)
        fleet.append(launch())

    handle = world.events.call_every(churn_period, churn, name="churn")
    t0 = time.perf_counter()
    world.run(until=duration)
    wall = time.perf_counter() - t0
    handle.cancel()
    record = {"scenario": "churn", "containers": n_containers,
              "churn_cycles": serial[0] - n_containers,
              "sim_time": world.now, "steps": world.steps, "wall_s": wall,
              "steps_per_sec": world.steps / wall if wall > 0 else 0.0}
    _finish_profile(profiler, record)
    return record


SCENARIOS = {"fleet": run_fleet, "churn": run_churn}


def run_all(*, quick: bool, modes: list[str | None],
            profile: bool = False) -> dict:
    results: dict[str, dict] = {}
    for mode in modes:
        label = mode or "default"
        for name, fn in SCENARIOS.items():
            key = name if len(modes) == 1 else f"{name}[{label}]"
            results[key] = fn(quick=quick, engine=mode, profile=profile)
            results[key]["engine"] = label
            rec = results[key]
            print(f"{key}: {rec['steps']} steps in {rec['wall_s']:.2f}s "
                  f"-> {rec['steps_per_sec']:.0f} steps/s", file=sys.stderr)
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller scenarios for CI smoke runs")
    ap.add_argument("--mode",
                    choices=["incremental", "scan", "both"],
                    default="incremental")
    ap.add_argument("--profile", action="store_true",
                    help="attach the engine self-profiler and report "
                         "per-subsystem wall-clock attribution")
    ap.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = ap.parse_args(argv)
    modes: list[str | None]
    if args.mode == "both":
        modes = ["incremental", "scan"]
    else:
        modes = [args.mode]
    results = run_all(quick=args.quick, modes=modes, profile=args.profile)
    payload = {"benchmark": "bench_engine", "quick": args.quick,
               "scenarios": results}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

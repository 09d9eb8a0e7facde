"""Cluster scenarios for the ``jobs=N`` differential variants.

The sharded execution backend (:mod:`repro.cluster.shard`) promises
that ``Cluster(params, jobs=N)`` is *byte-identical* to ``jobs=1`` for
every shard layout: same placement trace, same invariant snapshot,
same rolling barrier-report digest.  This module supplies the two
layout-specific pieces the differential engine
(:func:`repro.check.run_differential`) needs to earn that promise the
same way the engines earned theirs:

* :func:`scenario` derives one randomized cluster scenario from a seed
  — host count and shape, strategy, epoch length, hot threshold,
  bursty/gang pod mix, staggered submission waves, tracing and
  telemetry on or off;
* :func:`run_layout` runs it at one layout and returns a
  :class:`~repro.check.runner.RunResult`: the ``trace_digest()``,
  ``epoch_sample_digest()`` and telemetry epoch count as its log, the
  ``invariant_snapshot()`` at every epoch boundary as its snapshots,
  and as its violations every epoch snapshot that fails
  :func:`repro.check.check_cluster_snapshot` plus, when traced, every
  migration span chain that fails
  :func:`repro.check.span_tree.check_span_tree` (which exercises the
  cross-process ``follows`` links).

``python -m repro check --diff jobs=1,jobs=2,jobs=3`` sweeps it.
Scenarios stay deliberately small: migrations and gang rejections are
common, so a 50-seed sweep covers cross-shard drains/readmits many
times over.
"""

from __future__ import annotations

import random

from repro.check.cluster_invariants import check_cluster_snapshot
from repro.check.runner import RunResult
from repro.par.seeds import derive_seed
from repro.units import gib, mib

__all__ = ["scenario", "run_layout"]

_STRATEGIES = ("view", "static", "view-gang", "static-gang")


def scenario(seed: int) -> dict:
    """Derive one randomized cluster scenario from a seed.

    Hosts are kept small and the hot threshold low so the rebalancer
    fires often — cross-shard migrations are the interesting paths.
    """
    rng = random.Random(derive_seed("check-shard-diff", "scenario", seed))
    n_hosts = rng.randint(2, 6)
    ncpus = rng.choice((2, 4, 8))
    epoch = rng.choice((0.25, 0.5, 1.0))
    params = {
        "n_hosts": n_hosts,
        "host_ncpus": ncpus,
        "host_memory": rng.choice((gib(1), gib(2), gib(4))),
        "epoch": epoch,
        "strategy": rng.choice(_STRATEGIES),
        "hot_frac": rng.choice((0.6, 0.7, 0.85)),
        "max_migrations_per_epoch": rng.randint(1, 4),
        "seed": seed,
        "trace": rng.random() < 0.5,
    }
    n_pods = rng.randint(8, int(3.0 * n_hosts * ncpus))
    specs = []
    horizon = epoch * rng.randint(6, 12)
    for i in range(n_pods):
        demand = round(rng.uniform(0.1, 1.5), 2)
        request = round(demand * rng.uniform(1.0, 2.5), 2)
        mem_demand = mib(rng.choice((32, 64, 128)))
        spec = {
            "name": f"pod{i:03d}",
            "cpu_request": request,
            "mem_request": mem_demand * rng.choice((1, 2)),
            "cpu_demand": demand,
            "mem_demand": mem_demand,
        }
        if rng.random() < 0.4:
            spec["burst_demand"] = round(demand * rng.uniform(1.5, 4.0), 2)
            spec["burst_at"] = round(rng.uniform(0.2, 0.8) * horizon, 2)
        if rng.random() < 0.25:
            spec["gang"] = f"gang{rng.randint(0, 3)}"
        specs.append(spec)
    # Staggered submission: a wave at t=0 and one or two mid-run waves,
    # so admissions also land on clusters with history.
    waves = sorted({0.0} | {round(rng.uniform(0.2, 0.8) * horizon, 2)
                            for _ in range(rng.randint(0, 2))})
    per_wave: list[list[dict]] = [[] for _ in waves]
    for spec in specs:
        per_wave[rng.randrange(len(waves))].append(spec)
    return {"params": params, "horizon": horizon, "telemetry":
            rng.random() < 0.5, "waves": list(zip(waves, per_wave))}


def run_layout(scenario: dict, jobs: int) -> RunResult:
    """Run one cluster scenario at one shard layout."""
    from repro.cluster import Cluster, ClusterParams, PodSpec

    params = ClusterParams(**scenario["params"])
    cluster = Cluster(params, jobs=jobs)
    result = RunResult(engine=f"jobs={jobs}")
    try:
        collector = None
        if scenario["telemetry"]:
            from repro.obs.fleet import FleetCollector
            collector = FleetCollector()
            cluster.attach_telemetry(collector)
        waves = list(scenario["waves"])
        horizon = scenario["horizon"]
        prev = None
        t = 0.0
        while t < horizon - 1e-9:
            while waves and waves[0][0] <= t + 1e-9:
                _at, specs = waves.pop(0)
                for spec in specs:
                    cluster.submit(PodSpec(**spec))
            t = min(t + params.epoch, horizon)
            cluster.run(until=t)
            snap = cluster.invariant_snapshot()
            result.violations.extend(
                f"epoch[{len(result.snapshots)}]: {v}"
                for v in check_cluster_snapshot(snap, prev))
            result.snapshots.append(snap)
            prev = snap
        if params.trace:
            from repro.check.span_tree import check_span_tree
            result.violations.extend(
                f"final: {v}" for v in check_span_tree(cluster))
        result.log = [
            f"trace_digest:{cluster.trace_digest()}",
            f"sample_digest:{cluster.epoch_sample_digest()}",
            f"telemetry_epochs:{collector.epochs if collector else 0}",
        ]
        return result
    finally:
        cluster.close()

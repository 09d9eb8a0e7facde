"""Which ``repro`` entry points the traced run wraps, per layer.

:data:`SPANS` lists every wrapped method with its span name.  Each
per-layer metric the benchmark reports is then read off the spans by
:func:`layer_metrics`: ``*.calls`` are exact span counts, ``*.self_s``
are self times summed over the layer's spans.  The shard layer also
counts the pickled size of every request and reply on the parent side.
"""

from __future__ import annotations

from multiprocessing.reduction import ForkingPickler

from repro.cluster.cluster import Cluster
from repro.cluster.shard import InlineShardExecutor, ProcessShardExecutor
from repro.container.runtime import ContainerRuntime
from repro.core.ns_monitor import NsMonitor
from repro.core.sys_namespace import SysNamespace
from repro.kernel.mm.memcg import MemoryManager
from repro.kernel.sched.fair import FairScheduler
from repro.kernel.sysfs import SysfsRegistry
from repro.par.workers import PersistentWorkerPool
from repro.serve.balancer import Balancer
from repro.sim.events import EventLoop
from repro.world import World

from spans import Tracer, self_times

__all__ = ["SPANS", "ROOT_SPANS", "attach", "layer_metrics", "WORK_VECTOR"]

#: (class, method, span name) for every wrapped entry point.
SPANS = (
    (World, "run", "world.run"),
    (World, "run_until", "world.run"),
    (World, "step", "world.step"),
    (EventLoop, "step", "sim.event"),
    (FairScheduler, "reallocate", "sched.reallocate"),
    (FairScheduler, "advance", "sched.advance"),
    (NsMonitor, "register", "core.ns_register"),
    (NsMonitor, "unregister", "core.ns_unregister"),
    (NsMonitor, "_on_cgroup_event", "core.ns_event"),
    (SysNamespace, "refresh_cpu_bounds", "core.bounds_refresh"),
    (SysNamespace, "update", "core.view_update"),
    (ContainerRuntime, "create", "container.create"),
    (ContainerRuntime, "destroy", "container.destroy"),
    *((MemoryManager, attr, "mm") for attr in (
        "charge", "uncharge", "uncharge_all", "enforce_limit", "rebalance")),
    (SysfsRegistry, "sysconf", "sysfs.sysconf"),
    (SysfsRegistry, "read", "sysfs.read"),
    (Balancer, "dispatch", "serve.dispatch"),
    (Cluster, "run", "cluster.control"),
    (InlineShardExecutor, "run_epoch", "cluster.epoch"),
    (ProcessShardExecutor, "run_epoch", "cluster.epoch"),
    (PersistentWorkerPool, "start_call", "shard.call"),
    (PersistentWorkerPool, "finish_call", "shard.wait"),
)

#: Spans the benchmark opens itself around each traced iteration.
#: Their self time is the traced wall time no layer accounts for.
ROOT_SPANS = ("setup", "run")

#: Span that holds the tracer's own IPC sizing work (not a layer).
IPC_SIZING = "trace.ipc_sizing"


def _sizing_wrappers(tracer: Tracer):
    """Wrappers that add the pickled request/reply size to a counter.

    Sizing re-pickles the message, so it runs in its own span to keep
    that cost out of the shard layer's wait time.
    """
    nid = tracer.name_id(IPC_SIZING)

    def size_of(obj) -> int:
        index = tracer.enter(nid)
        try:
            return len(ForkingPickler.dumps(obj))
        finally:
            tracer.exit(index)

    def start_call(orig):
        def wrapper(pool, index, method, payload=None):
            if tracer.attached:
                tracer.count("shard.ipc_bytes", size_of((method, payload)))
            return orig(pool, index, method, payload)
        return wrapper

    def finish_call(orig):
        def wrapper(pool, index):
            result = orig(pool, index)
            if tracer.attached:
                tracer.count("shard.ipc_bytes", size_of(("ok", result)))
            return result
        return wrapper

    return start_call, finish_call


def attach(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`SPANS` (and the IPC sizing)."""
    for owner, attr, name in SPANS:
        tracer.wrap(owner, attr, name)
    start_call, finish_call = _sizing_wrappers(tracer)
    tracer.wrap_with(PersistentWorkerPool, "start_call", start_call)
    tracer.wrap_with(PersistentWorkerPool, "finish_call", finish_call)


def _sum(rows: dict, names, key: str):
    return sum(rows[n][key] for n in names if n in rows)


def layer_metrics(tracer: Tracer, run_id: int, *, migrations: int) -> dict:
    """The per-layer metrics of one traced iteration, by metric name.

    Also returns ``trace.wall_s`` (the root spans' total) and
    ``trace.unattributed_s`` (their self time).
    """
    rows = self_times(tracer, run_id)
    calls = lambda *names: _sum(rows, names, "calls")
    self_s = lambda *names: _sum(rows, names, "self_s")
    wall = _sum(rows, ROOT_SPANS, "inclusive_s")
    return {
        "world.steps": calls("world.step"),
        "world.step.self_s": self_s("world.step"),
        "world.run.self_s": self_s("world.run"),
        "sim.events": calls("sim.event"),
        "sim.event.self_s": self_s("sim.event"),
        "sched.reallocate.calls": calls("sched.reallocate"),
        "sched.reallocate.self_s": self_s("sched.reallocate"),
        "sched.advance.calls": calls("sched.advance"),
        "sched.advance.self_s": self_s("sched.advance"),
        "core.ns_register.calls": calls("core.ns_register"),
        "core.ns_unregister.calls": calls("core.ns_unregister"),
        "core.ns_monitor.self_s": self_s("core.ns_register",
                                         "core.ns_unregister",
                                         "core.ns_event"),
        "core.bounds_refresh.calls": calls("core.bounds_refresh"),
        "core.bounds_refresh.self_s": self_s("core.bounds_refresh"),
        "core.view_update.calls": calls("core.view_update"),
        "core.view_update.self_s": self_s("core.view_update"),
        "container.create.calls": calls("container.create"),
        "container.destroy.calls": calls("container.destroy"),
        "container.self_s": self_s("container.create", "container.destroy"),
        "mm.calls": calls("mm"),
        "mm.self_s": self_s("mm"),
        "sysfs.sysconf.calls": calls("sysfs.sysconf"),
        "sysfs.self_s": self_s("sysfs.sysconf", "sysfs.read"),
        "serve.dispatch.calls": calls("serve.dispatch"),
        "serve.dispatch.self_s": self_s("serve.dispatch"),
        "cluster.control.self_s": self_s("cluster.control"),
        "cluster.epoch_s": _sum(rows, ("cluster.epoch",), "inclusive_s"),
        "cluster.migrations": migrations,
        "shard.calls": calls("shard.call"),
        "shard.wait_s": _sum(rows, ("shard.wait",), "inclusive_s"),
        "shard.ipc_bytes": tracer.counters.get(run_id, {}).get(
            "shard.ipc_bytes", 0),
        "trace.ipc_sizing_s": self_s(IPC_SIZING),
        "trace.wall_s": wall,
        "trace.unattributed_s": self_s(*ROOT_SPANS),
    }


#: Metrics that count work: identical on every machine for one seed.
WORK_VECTOR = ("world.steps", "sim.events", "sched.reallocate.calls",
               "sched.advance.calls", "core.ns_register.calls",
               "core.ns_unregister.calls", "core.bounds_refresh.calls",
               "core.view_update.calls", "container.create.calls",
               "container.destroy.calls", "mm.calls", "sysfs.sysconf.calls",
               "serve.dispatch.calls", "cluster.migrations", "shard.calls",
               "shard.ipc_bytes")

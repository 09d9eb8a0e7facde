"""Repository benchmark: four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload

``--trace 0`` repeats set-up + run of one workload until ``--seconds``
of host time are spent and reports the median run time (``run_s``),
the median set-up time (``setup_s``) and the peak resident memory
(``peak_rss_mib``).  Times are host seconds scaled to a fixed machine
speed, read off a reference kernel right before and after each sample
(see ``speed.py``); the raw host-second medians are printed too.
``--trace 1`` alternates untraced and traced iterations instead; the
traced ones wrap the public entry points of each ``repro`` layer from
outside (see ``layers.py``) and report per-layer call counts and self
times, the tracing overhead and the share of traced wall time no layer
accounts for.  Spans are kept in memory and written to ``.perfbench/``
at the end.

Every iteration is checked: the workload's own rules must hold and its
fingerprint must equal the committed one in ``baseline.json`` (for a
seed not listed there, the first iteration's; ``cluster-sharded`` is
then also compared with a ``cluster`` run of the same seed).  A failed
check, an exception or a host-time timeout counts the iteration as
failed; it is never folded into a metric.  ``error_rate`` is
``failed / attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-baseline SEEDS`` (e.g. ``0-9``) regenerates ``baseline.json``:
per workload and seed, the fingerprint and the work vector (the exact
per-layer call counts).  A change that moves the work vector on purpose
regenerates it and says why.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S, Bracket

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

BASELINE = HERE / "baseline.json"
SPAN_DIR = Path(".perfbench")
#: At least this many measured iterations, however long each takes.
MIN_RUNS = 3
#: Set-up is repeated (without running) until this many samples exist.
MIN_SETUPS = 21
#: Host seconds one iteration may take before it counts as failed.
ITERATION_TIMEOUT = 60


def _on_alarm(_signum, _frame):
    raise TimeoutError(f"iteration exceeded {ITERATION_TIMEOUT} s")


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_baseline() -> dict:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text())["workloads"]


def committed(baseline: dict, workload: str, seed: int) -> dict | None:
    """The committed record of ``workload`` at ``seed``, if any.

    ``cluster-sharded`` has no fingerprint of its own: it must equal
    ``cluster``'s, so that is what it is held to.
    """
    rec = baseline.get(workload, {}).get(str(seed))
    if workload == "cluster-sharded":
        ref = baseline.get("cluster", {}).get(str(seed))
        if ref is None:
            return None
        rec = dict(rec or {}, fingerprint=ref["fingerprint"])
    return rec


def parallel_speedup() -> float:
    """Speed-up of two forked spinners over one: the cores we can use."""
    import multiprocessing as mp

    def spin():
        n = 0
        for i in range(1_500_000):
            n += i
        return n

    t0 = time.perf_counter()
    spin()
    serial = time.perf_counter() - t0
    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=spin) for _ in range(2)]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    return 2 * serial / (time.perf_counter() - t0)


def environment(workload: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.world import World
    engine = inspect.signature(World).parameters["engine"].default
    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "numpy": numpy_version,
           "engine": engine,
           "cpu_count": os.cpu_count(),
           "affinity": sorted(os.sched_getaffinity(0))
           if hasattr(os, "sched_getaffinity") else None}
    if workload == "cluster-sharded":
        speedup = parallel_speedup()
        usable = len(env["affinity"] or [0]) if speedup >= 1.5 else 1
        env.update(two_process_speedup=round(speedup, 3),
                   usable_cores=usable)
    return env


class Runner:
    """Runs one workload's iterations and keeps their measurements."""

    def __init__(self, name: str, seed: int, baseline: dict):
        from scenarios import WORKLOADS
        self.name = name
        self.cls = WORKLOADS[name]
        self.seed = seed
        self.record = committed(baseline, name, seed)
        self.reference = self.record["fingerprint"] if self.record else None
        #: Untraced samples in raw host seconds, and scaled to nominal
        #: machine speed by their own reference bracket.
        self.setups: list[float] = []
        self.runs: list[float] = []
        self.scaled_setups: list[float] = []
        self.scaled_runs: list[float] = []
        self.references: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        #: How the traced run's work vector compares with the committed one.
        self.work_report = ""

    def cross_check(self) -> None:
        """Hold ``cluster-sharded`` to an in-process ``cluster`` run.

        Only needed for a seed with no committed fingerprint.  It runs
        after measuring, so its memory never counts as the workload's
        peak.  A mismatch fails every run.
        """
        if (self.name != "cluster-sharded" or self.record is not None
                or self.reference is None):
            return
        from scenarios import ClusterRun
        inst = ClusterRun(self.seed)
        try:
            inst.run()
            inst.check()
            expected = inst.fingerprint()
        finally:
            inst.close()
        if canonical(expected) != canonical(self.reference):
            self.failures = [f"fingerprint differs from cluster's on seed "
                             f"{self.seed}"] * self.attempted

    def iteration(self, tracer=None) -> tuple[float, object] | None:
        """One set-up + run; returns ``(run_s, instance)`` or None if failed.

        With ``tracer`` set, layers are wrapped for the whole iteration
        and ``setup``/``run`` root spans are opened around the phases.
        """
        import layers
        self.attempted += 1
        gc.collect()
        inst = None
        signal.alarm(ITERATION_TIMEOUT)
        try:
            if tracer is None:
                with Bracket() as bracket:
                    t0 = time.perf_counter()
                    inst = self.cls(self.seed)
                    t1 = time.perf_counter()
                    inst.run()
                    t2 = time.perf_counter()
            else:
                layers.attach(tracer)
                try:
                    t0 = time.perf_counter()
                    with tracer.span("setup"):
                        inst = self.cls(self.seed)
                    t1 = time.perf_counter()
                    with tracer.span("run"):
                        inst.run()
                    t2 = time.perf_counter()
                finally:
                    tracer.detach()
            signal.alarm(0)
            inst.check()
            fingerprint = inst.fingerprint()
        except Exception as exc:  # noqa: BLE001 - a failed run, reported
            signal.alarm(0)
            self.failures.append(f"{type(exc).__name__}: {exc}")
            if inst is not None:
                inst.close()
            return None
        if self.reference is None:
            self.reference = fingerprint
        if canonical(fingerprint) != canonical(self.reference):
            self.failures.append(
                f"fingerprint differs from the reference: "
                f"{canonical(fingerprint)[:300]}")
            inst.close()
            return None
        if tracer is None:
            self.setups.append(t1 - t0)
            self.runs.append(t2 - t1)
            self.scaled_setups.append(bracket.scale(t1 - t0))
            self.scaled_runs.append(bracket.scale(t2 - t1))
            self.references.append(bracket.reference_s)
        return t2 - t1, inst

    def extra_setups(self) -> None:
        """Repeat set-up alone until :data:`MIN_SETUPS` samples exist."""
        while len(self.setups) < MIN_SETUPS:
            gc.collect()
            with Bracket() as bracket:
                t0 = time.perf_counter()
                inst = self.cls(self.seed)
                t1 = time.perf_counter()
            self.setups.append(t1 - t0)
            self.scaled_setups.append(bracket.scale(t1 - t0))
            inst.close()


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) >= 1000:
            return pct, sorted(samples)[math.ceil(n * pct / 100) - 1]
    return None


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure_untraced(runner: Runner, seconds: float) -> dict:
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        result = runner.iteration()
        if result is not None:
            result[1].close()
        # Drop the instance now: the next set-up must not overlap it.
        result = None
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed > 2 * seconds or (
                runner.attempted >= MIN_RUNS
                and elapsed + statistics.median(durations) > seconds):
            break
    runner.extra_setups()
    if not runner.runs:
        raise SystemExit(f"{runner.name}: no iteration completed: "
                         f"{runner.failures}")
    return {"run_s": (statistics.median(runner.scaled_runs), "s"),
            "setup_s": (statistics.median(runner.scaled_setups), "s"),
            "peak_rss_mib": (peak_rss_mib(resource.RUSAGE_SELF), "MiB")}


def traced_row(tracer, inst) -> dict:
    """Per-layer metrics of the tracer's current run over ``inst``."""
    import layers
    migrations = (len(inst.cluster.migration_records)
                  if hasattr(inst, "cluster") else 0)
    return layers.layer_metrics(tracer, tracer.run_id, migrations=migrations)


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced iterations for ``seconds``."""
    import layers
    from spans import Tracer
    tracer = Tracer()
    start = time.perf_counter()
    durations: list[float] = []
    traced: list[dict] = []
    traced_fingerprints_ok = True
    while True:
        t0 = time.perf_counter()
        if runner.attempted % 2 == 0:
            result = runner.iteration()
            if result is not None:
                result[1].close()
            result = None
        else:
            tracer.run_id += 1
            result = runner.iteration(tracer)
            if result is None:
                traced_fingerprints_ok = False
            else:
                run_s, inst = result
                inst.close()
                row = traced_row(tracer, inst)
                row["run_s"] = run_s
                traced.append(row)
                result = inst = None
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = (len(traced) >= 2 and runner.runs) or runner.attempted >= 8
        if elapsed > 2 * seconds or (
                enough and elapsed + statistics.median(durations) > seconds):
            break
    if not traced or not runner.runs:
        raise SystemExit(f"{runner.name}: no traced and untraced iteration "
                         f"completed: {runner.failures}")
    work = {k: traced[0][k] for k in layers.WORK_VECTOR}
    for row in traced[1:]:
        again = {k: row[k] for k in layers.WORK_VECTOR}
        if again != work:
            runner.failures.append(
                f"work vector not repeatable: {work} vs {again}")
    metrics = {}
    for key in traced[0]:
        if key in layers.WORK_VECTOR:
            metrics[key] = (work[key],
                            "bytes" if key.endswith("_bytes") else "count")
        elif key not in ("run_s", "trace.wall_s", "trace.unattributed_s"):
            metrics[key] = (statistics.median(r[key] for r in traced), "s")
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(runner.runs))
    unattributed = statistics.median(
        r["trace.unattributed_s"] / r["trace.wall_s"] for r in traced)
    metrics.update({
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_frac": (unattributed, "ratio"),
        "trace.wall_s": (statistics.median(r["trace.wall_s"]
                                           for r in traced), "s"),
        "trace.spans": (len(tracer) // len(traced), "count"),
        "trace.fingerprint_match": (int(traced_fingerprints_ok), "count"),
        "shard.worker_peak_rss_mib": (
            peak_rss_mib(resource.RUSAGE_CHILDREN)
            if runner.name == "cluster-sharded" else 0.0, "MiB"),
    })
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{runner.name}-seed{runner.seed}.bin",
                 {"workload": runner.name, "seed": runner.seed,
                  "work_vector": work})
    committed_work = (runner.record or {}).get("work")
    diffs = []
    if committed_work is not None:
        diffs = [f"{k} {committed_work.get(k)} -> {v}"
                 for k, v in work.items() if committed_work.get(k) != v]
    runner.work_report = (
        "work vector: no committed vector for this seed"
        if committed_work is None else
        "work vector: equal to the committed one" if not diffs else
        "work vector: CHANGED " + "; ".join(diffs))
    return metrics


def check_declared(metrics: dict, trace: bool) -> None:
    """Exit unless ``metrics`` are exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    expected = {(m["name"], m["unit"]) for m in section}
    got = {(key, unit) for key, (_value, unit) in metrics.items()}
    if got != expected:
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(got ^ expected)}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; prints a readable report, returns the result."""
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(name)
    runner = Runner(name, seed, load_baseline())
    metrics = (measure_traced if trace else measure_untraced)(runner, seconds)
    worker_rss = peak_rss_mib(resource.RUSAGE_CHILDREN)
    runner.cross_check()
    check_declared(metrics, trace)
    print(f"perfbench {name} seed={seed} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    if name == "cluster-sharded" and env["usable_cores"] < 2:
        print("cluster-sharded: UNRESOLVED for speed-up (fewer than two "
              "usable cores); fingerprints are still checked")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:>14.6g} {unit}")
    if not trace:
        print(f"  {'runs':28s} {len(runner.runs):>14d} (run_s is their "
              f"median; set-up median of {len(runner.setups)})")
        print(f"  {'raw run_s, setup_s':28s} "
              f"{statistics.median(runner.runs):>14.6g} s "
              f"{statistics.median(runner.setups):.6g} s (unscaled)")
        print(f"  {'reference reading':28s} "
              f"{statistics.median(runner.references):>14.6g} s "
              f"(nominal {NOMINAL_S:g} s; min {min(runner.references):.6g},"
              f" max {max(runner.references):.6g})")
        tail = tail_percentile(runner.scaled_runs)
        print(f"  {'run_s tail':28s} " + (
            f"p{tail[0]} = {tail[1]:.6g} s" if tail else
            "none (needs >= 10 runs beyond a percentile)"))
        if name == "cluster-sharded":
            print(f"  {'worker_peak_rss_mib':28s} "
                  f"{worker_rss:>14.6g} MiB")
    else:
        print("  " + runner.work_report)
    failed = len(runner.failures)
    print(f"  {'error_rate':28s} {failed / runner.attempted:>14.6g} "
          f"({failed} failed / {runner.attempted} attempted)")
    for failure in runner.failures:
        print(f"  FAILED: {failure}")
    return {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh child process of this script.

    A child per workload keeps each peak-memory reading its own.
    """
    from scenarios import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, row in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = row
    return total


def write_baseline(seeds: list[int]) -> None:
    """Regenerate ``baseline.json`` for ``seeds`` (fingerprints + work)."""
    import layers
    from scenarios import WORKLOADS
    from spans import Tracer
    out: dict = {name: {} for name in WORKLOADS}
    for seed in seeds:
        for name in WORKLOADS:
            runner = Runner(name, seed, {})
            tracer = Tracer()
            tracer.run_id = 1
            runner.iteration()
            result = runner.iteration(tracer)
            if result is None or runner.failures:
                raise SystemExit(f"{name} seed {seed}: {runner.failures}")
            result[1].close()
            row = traced_row(tracer, result[1])
            rec = {"work": {k: row[k] for k in layers.WORK_VECTOR}}
            if name == "cluster-sharded":
                if canonical(runner.reference) != canonical(
                        out["cluster"][str(seed)]["fingerprint"]):
                    raise SystemExit(f"seed {seed}: cluster-sharded "
                                     f"differs from cluster")
            else:
                rec["fingerprint"] = runner.reference
            out[name][str(seed)] = rec
            print(f"{name} seed {seed}: {rec['work']}", file=sys.stderr)
    BASELINE.write_text(json.dumps(
        {"python": platform.python_version(), "workloads": out},
        indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help="serve, colocate, cluster, cluster-sharded or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="host seconds of measurement per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-baseline", metavar="SEEDS",
                    help="regenerate baseline.json for these seeds, e.g. 0-9")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to measure")
    os.chdir(ROOT)
    sys.path.insert(0, str(HERE))
    if args.write_baseline:
        write_baseline(parse_seeds(args.write_baseline))
        return 0
    from scenarios import WORKLOADS
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    elif args.workload in WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    else:
        ap.error(f"unknown workload {args.workload!r}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro check`` — drive the fuzzer from the command line.

Modes (combinable with ``--diff``, ``--shrink`` and ``--fixtures``):

* fixed-seed sweep (default): ``--seeds N`` runs seeds
  ``[--seed-start, --seed-start + N)`` through the differential
  harness; ``--jobs N`` fans the sweep across worker processes and
  results are content-cached under ``results/.cache`` (disable with
  ``--no-cache``), so an unchanged sweep is pure cache hits.
* single seed: ``--seed S``.
* randomized smoke: ``--smoke SECONDS`` draws fresh seeds from the OS
  RNG until the wall-clock budget runs out, printing every seed as it
  goes so a failure in CI is reproducible by number.
* replay: ``--replay FIXTURE.json`` re-runs a committed regression
  fixture under the variants in its ``variants`` key (default: the
  incremental/scan engine pair).

``--diff A,B[,C...]`` picks the variants every mode compares (default
``incremental,scan``): engines (``incremental``, ``scan``), registered
policy bundles (``default``, ``burstable``, ``intent``, ...) or shard
layouts (``jobs=N``), all of one kind, the first being the reference.
Engines and shard layouts must agree byte for byte; bundles need only
each stay lawful — see :mod:`repro.check.differ`.  ``jobs=N`` variants
run cluster scenarios that spawn their own shard workers, so they
always sweep in-process, whatever ``--jobs`` says.

Every mode ends with the same grep-able summary line
(``check: seeds=N failures=M cache_hits=K``); exit status is 0 only if
every scenario passed.  On a sweep failure the *first* failing seed is
re-run locally, shrunk to a minimal repro (unless ``--no-shrink``) and
written as a fixture next to the other regressions, ready to commit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import time

from repro.check.differ import (DEFAULT_VARIANTS, default_oracle,
                                run_differential, scenario_for,
                                variant_kind)
from repro.check.scenario import Scenario
from repro.check.shrinker import shrink
from repro.check.sweep import TRIAL_FN, seed_trial, summary_line
from repro.par import ResultCache, TrialSpec, default_cache_dir, run_trials

__all__ = ["main", "add_arguments"]


def _variants(spec: str) -> tuple[str, ...]:
    """``--diff`` value -> validated variant names (a usage error if bad)."""
    variants = tuple(p.strip() for p in spec.split(","))
    try:
        variant_kind(variants)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return variants


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of fixed seeds to sweep (default 50)")
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly one seed instead of a sweep")
    parser.add_argument("--smoke", type=float, default=None, metavar="SECONDS",
                        help="randomized smoke: fresh seeds until the "
                             "wall-clock budget is spent")
    parser.add_argument("--replay", type=str, default=None, metavar="FIXTURE",
                        help="re-run a regression fixture JSON file")
    parser.add_argument("--diff", type=_variants, default=DEFAULT_VARIANTS,
                        metavar="A,B[,...]",
                        help="variants to compare, first = reference: "
                             "engines (incremental,scan), policy "
                             "bundles (default,burstable,intent,...) or "
                             "shard layouts (jobs=1,jobs=2,...); default "
                             "incremental,scan")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the seed sweep "
                             "(default 1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed result cache")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="report the raw failing scenario without "
                             "shrinking it first")
    parser.add_argument("--fixtures", type=str, default=None, metavar="DIR",
                        help="where to write minimized fixtures "
                             "(default: tests/regressions if present)")
    parser.add_argument("-v", "--verbose", action="store_true")


def _default_fixture_dir() -> str | None:
    cand = os.path.join("tests", "regressions")
    return cand if os.path.isdir(cand) else None


def _fail(seed: int, variants: tuple[str, ...], args) -> None:
    """Report, shrink and fixture one failing seed.

    World scenarios shrink to a fixture tagged with ``variants`` (the
    tag is omitted for the default pair) so ``--replay`` re-runs it
    under the same variants; cluster scenarios are reproduced by their
    seed alone.
    """
    scenario = scenario_for(variants, seed)
    report = run_differential(scenario, variants)
    rerun = f"re-run with: python -m repro check --seed {seed}"
    if variants != DEFAULT_VARIANTS:
        rerun += f" --diff {','.join(variants)}"
    if not isinstance(scenario, Scenario):
        print(f"FAIL seed={seed} (cluster scenario)")
        print(report.summary())
        print(rerun)
        return
    print(f"FAIL seed={seed} "
          f"(ncpus={scenario.ncpus}, mem={scenario.memory >> 20}MiB, "
          f"horizon={scenario.horizon}s, ops={len(scenario)})")
    print(report.summary())
    fingerprint = report.fingerprint()
    minimal = scenario
    if args.shrink:
        print(f"shrinking (fingerprint {fingerprint}) ...")
        minimal = shrink(
            scenario,
            lambda s: run_differential(s, variants).fingerprint())
        print(f"minimal repro: {len(minimal)} ops, "
              f"horizon {minimal.horizon}s")
    fixture = minimal.to_dict()
    if variants != DEFAULT_VARIANTS:
        fixture["variants"] = list(variants)
    fixture_json = json.dumps(fixture, indent=2, sort_keys=True)
    fixture_dir = args.fixtures or _default_fixture_dir()
    if fixture_dir:
        os.makedirs(fixture_dir, exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "_", (fingerprint or "fail").lower())
        path = os.path.join(fixture_dir, f"{slug}_seed{seed}.json")
        with open(path, "w") as fh:
            fh.write(fixture_json)
            fh.write("\n")
        print(f"fixture written: {path}")
        print(f"replay with: python -m repro check --replay {path}")
    else:
        print("repro scenario JSON:")
        print(fixture_json)
    print(rerun)


#: Trial-value fields a verbose sweep prints, world and cluster alike.
_STATS = ("ops", "steps", "oom", "groups", "epochs", "pods", "migrations")


def _print_seed_result(value: dict, *, cached: bool, verbose: bool) -> None:
    if not verbose:
        return
    tag = " (cached)" if cached else ""
    if value.get("ok"):
        stats = " ".join(f"{k}={value[k]}" for k in _STATS if k in value)
        print(f"ok   seed={value['seed']} {stats}{tag}")
    else:
        print(f"fail seed={value['seed']} "
              f"fingerprint={value.get('fingerprint')}{tag}")


def _sweep(seeds: list[int], args) -> int:
    """Fixed-seed sweep through the parallel runner + result cache."""
    variants = args.diff
    kind = variant_kind(variants)
    cache = None if args.no_cache else ResultCache(default_cache_dir())
    specs = [TrialSpec(fn=TRIAL_FN, experiment="check-sweep",
                       trial_id=f"seed{s}",
                       config={"seed": s, "variants": list(variants)})
             for s in seeds]

    def on_result(_spec, res):
        if res.ok:
            _print_seed_result(res.value, cached=res.cached,
                               verbose=args.verbose)
        else:
            print(f"fail seed trial {res.trial_id}: {res.error}")

    # A jobs=N trial spawns its own shard workers, which cannot nest
    # inside the sweep pool's daemonic workers.
    jobs = 1 if kind == "jobs" else args.jobs
    results = run_trials(specs, jobs=jobs, cache=cache, on_result=on_result)
    failed = [(seed, res) for seed, res in zip(seeds, results)
              if not res.ok or not res.value.get("ok")]
    if failed:
        # Shrinking needs live report objects; re-run the first failing
        # seed in this process (cheap next to the sweep itself).
        seed, res = failed[0]
        if res.ok:                       # differential failure, not a crash
            _fail(seed, variants, args)
        else:
            print(f"seed {seed} worker failure: {res.error}")
    hits = cache.hits if cache else 0
    print(summary_line(seeds=len(seeds), failures=len(failed),
                       cache_hits=hits))
    names = ",".join(variants)
    if failed:
        print(f"check: FAILED (first failure above; "
              f"{len(failed)}/{len(seeds)} seeds failed under {names})")
        return 1
    oracle = default_oracle(kind)
    tail = ", 0 divergences" if oracle == "identical" else ""
    print(f"check: {len(seeds)} scenarios {oracle} under {names}, "
          f"0 invariant violations{tail}")
    return 0


def _smoke(args) -> int:
    deadline = time.monotonic() + args.smoke
    sysrand = random.SystemRandom()
    n = failures = 0
    while time.monotonic() < deadline:
        seed = sysrand.randrange(1 << 32)
        print(f"smoke seed={seed}", flush=True)
        value = seed_trial({"seed": seed, "variants": list(args.diff)}, 0)
        n += 1
        if not value["ok"]:
            failures += 1
            _fail(seed, args.diff, args)
            break              # keep the first failure's fixture intact
        _print_seed_result(value, cached=False, verbose=args.verbose)
    print(summary_line(seeds=n, failures=failures, cache_hits=0))
    return 1 if failures else 0


def _replay(args) -> int:
    with open(args.replay) as fh:
        data = json.loads(fh.read())
    scenario = Scenario.from_dict(data)
    variants = tuple(data.get("variants", DEFAULT_VARIANTS))
    try:
        kind = variant_kind(variants)
    except ValueError as exc:
        raise SystemExit(f"{args.replay}: variants: {exc}") from None
    if kind == "jobs":
        raise SystemExit(f"{args.replay}: variants: jobs=N variants run "
                         f"cluster scenarios, not fixtures")
    report = run_differential(scenario, variants)
    print(f"replay {args.replay} ({','.join(variants)}): "
          f"{'ok' if report.ok else 'FAIL'}")
    if not report.ok:
        print(report.summary())
    print(summary_line(seeds=1, failures=0 if report.ok else 1,
                       cache_hits=0))
    return 0 if report.ok else 1


def main(args: argparse.Namespace) -> int:
    if args.replay is not None:
        return _replay(args)
    if args.smoke is not None:
        return _smoke(args)
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    return _sweep(seeds, args)

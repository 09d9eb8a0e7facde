"""Seed-sweep trials for the differential fuzzer, runnable via repro.par.

One trial = one seed: derive the scenario, run it under every variant,
judge.  The trial value is a plain dict so sweeps can fan out across
worker processes and be content-cached — a 200-seed CI sweep after a
docs-only commit is 200 cache hits.

Failing seeds are reported *in* the value (``ok=False``) rather than
raised: the CLI re-runs the first failure locally to shrink it and
write a fixture, which needs live objects the pool cannot ship back.
"""

from __future__ import annotations

from repro.check.differ import DEFAULT_VARIANTS, run_differential, scenario_for
from repro.check.scenario import Scenario

__all__ = ["TRIAL_FN", "seed_trial", "summary_line"]

#: Dotted path handed to TrialSpec.fn.
TRIAL_FN = "repro.check.sweep:seed_trial"


def seed_trial(config: dict, spawn_seed: int) -> dict:
    """Run one generated seed through the differential harness.

    ``config["seed"]`` is the scenario seed (the sweep's unit of
    identity) and ``config["variants"]`` the variant names, defaulting
    to the incremental/scan engine pair; the oracle follows from their
    kind (:func:`repro.check.differ.default_oracle`).  The spawn key is
    unused because the scenario is already a pure function of the seed.
    """
    seed = int(config["seed"])
    variants = tuple(config.get("variants", DEFAULT_VARIANTS))
    scenario = scenario_for(variants, seed)
    report = run_differential(scenario, variants)
    snaps = report.results[variants[0]].snapshots
    value = {"seed": seed, "ok": report.ok}
    if isinstance(scenario, Scenario):
        value.update(ops=len(scenario), ncpus=scenario.ncpus,
                     memory_mib=scenario.memory >> 20,
                     horizon=scenario.horizon, steps=snaps[-1]["steps"],
                     oom=snaps[-1]["mm"]["oom_kills"],
                     groups=len(snaps[-1]["groups"]))
    else:
        value.update(epochs=len(snaps), pods=snaps[-1]["placed"],
                     migrations=snaps[-1]["migrations"]["count"])
    if not report.ok:
        value.update(fingerprint=report.fingerprint(),
                     summary=report.summary())
    return value


def summary_line(*, seeds: int, failures: int, cache_hits: int) -> str:
    """The stable, grep-able one-line summary every check mode prints.

    CI greps for the ``check: seeds=... failures=... cache_hits=...``
    shape; keep the key order and spelling fixed.
    """
    return f"check: seeds={seeds} failures={failures} cache_hits={cache_hits}"

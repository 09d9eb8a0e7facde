"""repro.check — differential scenario fuzzer and invariant checker.

The correctness backbone of the simulator: seeded random scenarios
(container churn, cgroup edits at random times, OOM-prone memory
workloads, traffic-phase thread loops) run under two or more
*variants* — engines (``incremental``, ``scan``), policy bundles
(``default``, ``burstable``, ``intent``, ...) or cluster shard layouts
(``jobs=N``) — with every boundary checked against a pluggable
invariant suite.  The *oracle* then judges the runs: ``identical``
(engines, shard layouts) demands byte-identical state digests on top,
``lawful`` (bundles, which may lawfully allocate differently) only the
invariants.  Failures shrink to a minimal replayable JSON fixture
under ``tests/regressions/``.

Entry points::

    python -m repro check --seeds 200       # fixed-seed sweep (CI fast tier)
    python -m repro check --smoke 60        # randomized smoke, seed printed
    python -m repro check --replay FIX.json # re-run a committed fixture
    python -m repro check --diff default,burstable --seeds 50
    python -m repro check --diff jobs=1,jobs=2,jobs=3 --seeds 50
"""

from repro.check.cluster_invariants import (check_cluster,
                                            check_cluster_snapshot)
from repro.check.differ import DiffReport, diff_snapshots, run_differential
from repro.check.generator import generate
from repro.check.invariants import Invariant, default_suite
from repro.check.runner import RunResult, run_scenario
from repro.check.scenario import Scenario
from repro.check.shrinker import shrink
from repro.check.span_tree import check_span_tree

__all__ = [
    "Scenario", "generate", "Invariant", "default_suite",
    "RunResult", "run_scenario", "DiffReport", "diff_snapshots",
    "run_differential", "shrink",
    "check_cluster", "check_cluster_snapshot", "check_span_tree",
]

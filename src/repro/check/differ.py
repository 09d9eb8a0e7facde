"""Differential oracle: run one scenario under several variants, judge them.

A *variant* is one name, of one of three kinds:

* an engine — ``incremental`` or ``scan`` (default policies);
* a registered policy bundle — ``default``, ``burstable``, ``intent``,
  ... (incremental engine, see :mod:`repro.policy`);
* a shard layout — ``jobs=N`` (the cluster scenario family of
  :mod:`repro.check.shard_diff`).

All variants of one diff share a kind; the first is the reference.
Every variant's run is checked against its own invariant suite, and the
*oracle* decides what else must hold:

* ``identical`` — every other variant's log and snapshots must equal
  the reference's *exactly*, floats included.  The engines and shard
  layouts share their arithmetic by construction, so tolerances would
  only hide the first divergence until it compounds into a visible one.
* ``lawful`` — invariants only.  Distinct policies may lawfully
  allocate differently, so equality is not the oracle for bundles.

:func:`default_oracle` maps a kind to the oracle the CLI uses for it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.check import shard_diff
from repro.check.generator import generate
from repro.check.runner import RunResult, run_scenario
from repro.check.scenario import Scenario
from repro.errors import PolicyError
from repro.policy import resolve_bundle
from repro.world import ENGINES

__all__ = ["DiffReport", "diff_snapshots", "run_differential",
           "DEFAULT_VARIANTS", "variant_kind", "default_oracle",
           "scenario_for"]

#: The classic engine pair; an absent ``variants`` key means this.
DEFAULT_VARIANTS = ("incremental", "scan")

ORACLES = ("identical", "lawful")

_JOBS = re.compile(r"jobs=(\d+)")

#: Snapshot mismatches reported per variant before giving up.
_MAX_MISMATCHES = 20


def variant_kind(variants) -> str:
    """Validate ``variants``; return their shared kind.

    Kinds are ``"engine"``, ``"bundle"`` and ``"jobs"``.  Raises
    :class:`ValueError` on fewer than two variants, an unknown name, a
    malformed or zero ``jobs=N``, or variants of mixed kinds.
    """
    if len(variants) < 2:
        raise ValueError(f"need at least two variants, got {list(variants)}")
    kinds = {_kind(name) for name in variants}
    if len(kinds) > 1:
        raise ValueError(f"variants {list(variants)} mix kinds "
                         f"{sorted(kinds)}")
    return kinds.pop()


def _kind(name: str) -> str:
    if name in ENGINES:
        return "engine"
    if name.startswith("jobs="):
        m = _JOBS.fullmatch(name)
        if m is None or int(m.group(1)) < 1:
            raise ValueError(f"{name!r}: expected jobs=N with N >= 1")
        return "jobs"
    try:
        resolve_bundle(name)
    except PolicyError:
        raise ValueError(
            f"unknown variant {name!r}: expected an engine "
            f"({', '.join(ENGINES)}), a policy bundle or jobs=N") from None
    return "bundle"


def default_oracle(kind: str) -> str:
    """Engines and shard layouts must agree exactly; bundles lawfully."""
    return "lawful" if kind == "bundle" else "identical"


def scenario_for(variants, seed: int) -> "Scenario | dict":
    """The seeded scenario ``variants`` run: a world script, or a cluster."""
    if variant_kind(variants) == "jobs":
        return shard_diff.scenario(seed)
    return generate(seed)


def _run_variant(scenario, name: str, kind: str) -> RunResult:
    if kind == "engine":
        return run_scenario(scenario, name)
    if kind == "bundle":
        sched, reclaim = resolve_bundle(name)
        return run_scenario(scenario, "incremental", sched_policy=sched,
                            reclaim_policy=reclaim)
    return shard_diff.run_layout(scenario, int(name[len("jobs="):]))


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    #: Variant name -> its run, in variant order (reference first).
    results: dict[str, RunResult] = field(default_factory=dict)
    #: "variant: snapshot[i] path: a != b" strings; empty = variants agree.
    divergences: list[str] = field(default_factory=list)
    #: Invariant violations from every run, prefixed with the variant.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    def fingerprint(self) -> str | None:
        """Stable failure identity used by the shrinker's oracle.

        Coarse on purpose: the shrinker mutates the scenario, so op
        indexes and numeric details shift; what must stay fixed is the
        *kind* of failure (which invariant under which variant, or a
        divergence and on what field).
        """
        if self.violations:
            # "variant: tag: name: detail" -> "invariant:variant:name"
            parts = [p.strip() for p in self.violations[0].split(":")]
            return f"invariant:{parts[0]}:{parts[2] if len(parts) > 2 else '?'}"
        if self.divergences:
            # "variant: field.path a != b" -> "divergence:leaf"
            field_path = self.divergences[0].split(": ", 1)[1].split(" ", 1)[0]
            leaf = field_path.split(".")[-1].split("[")[0]
            return f"divergence:{leaf}"
        return None

    def summary(self) -> str:
        lines = []
        for v in self.violations[:8]:
            lines.append(f"  violation  {v}")
        for d in self.divergences[:8]:
            lines.append(f"  divergence {d}")
        extra = len(self.violations) + len(self.divergences) - len(lines)
        if extra > 0:
            lines.append(f"  ... and {extra} more")
        return "\n".join(lines) or "  ok"


def diff_snapshots(a: dict | list | object, b: dict | list | object,
                   path: str = "") -> list[str]:
    """Exact structural comparison; returns human-readable mismatch paths."""
    if type(a) is not type(b):
        return [f"{path} type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        out = []
        if a.keys() != b.keys():
            return [f"{path} keys {sorted(a)} != {sorted(b)}"]
        for k in a:
            out.extend(diff_snapshots(a[k], b[k], f"{path}.{k}" if path else k))
        return out
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path} length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_snapshots(x, y, f"{path}[{i}]"))
        return out
    if a != b:
        return [f"{path} {a!r} != {b!r}"]
    return []


def _divergences(ref: RunResult, other: RunResult) -> list[str]:
    """Where ``other`` first departs from ``ref``: log, then snapshots."""
    out = []
    if ref.log != other.log:
        for i, (la, lb) in enumerate(zip(ref.log, other.log)):
            if la != lb:
                out.append(f"log[{i}] {la!r} != {lb!r}")
                break
        else:
            out.append(f"log length {len(ref.log)} != {len(other.log)}")
    for i, (sa, sb) in enumerate(zip(ref.snapshots, other.snapshots)):
        out.extend(diff_snapshots(sa, sb, f"snapshot[{i}]"))
        if out:
            # Later snapshots inherit the first divergence; stop at the
            # earliest boundary so the report points at the cause.
            break
    return out[:_MAX_MISMATCHES]


def run_differential(scenario: "Scenario | dict",
                     variants=DEFAULT_VARIANTS, *,
                     oracle: str | None = None) -> DiffReport:
    """Run ``scenario`` under every variant and judge the runs.

    ``scenario`` is a :class:`Scenario` for engine and bundle variants
    and a :func:`repro.check.shard_diff.scenario` dict for ``jobs=N``
    (:func:`scenario_for` derives either from a seed).  ``oracle``
    defaults to :func:`default_oracle` of the variants' kind.
    """
    variants = tuple(variants)
    kind = variant_kind(variants)
    oracle = oracle or default_oracle(kind)
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}: expected one of "
                         f"{ORACLES}")
    report = DiffReport()
    for name in dict.fromkeys(variants):      # a repeated variant runs once
        res = _run_variant(scenario, name, kind)
        report.results[name] = res
        report.violations.extend(f"{name}: {v}" for v in res.violations)
    if oracle == "identical":
        ref = report.results[variants[0]]
        for name in variants[1:]:
            report.divergences.extend(
                f"{name}: {d}"
                for d in _divergences(ref, report.results[name]))
    return report

"""Replay committed regression fixtures under their variants.

Every JSON file under ``tests/regressions/`` is a minimized scenario
from the fuzzer's bug burn-down (or a handcrafted pin for a fixed bug
class), run under the variants in its ``variants`` key (default: the
incremental/scan engine pair).  Each must run clean — zero invariant
violations, zero divergences — forever after.  Reproduce one interactively with::

    python -m repro check --replay tests/regressions/<fixture>.json
"""

import json
from pathlib import Path

import pytest

from repro.check import Scenario, run_differential
from repro.check.differ import DEFAULT_VARIANTS

FIXTURE_DIR = Path(__file__).resolve().parent / "regressions"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))


def test_fixture_directory_is_populated():
    assert FIXTURES, f"no regression fixtures in {FIXTURE_DIR}"


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_replays_clean_on_both_engines(path):
    data = json.loads(path.read_text())
    variants = tuple(data.get("variants", DEFAULT_VARIANTS))
    report = run_differential(Scenario.from_dict(data), variants)
    assert report.ok, f"{path.name} regressed:\n{report.summary()}"
    # The fixture exercised what it claims to: the variants agree on a
    # non-trivial run (at least one op actually applied).
    log = report.results[variants[0]].log
    assert any(line.endswith(":ok") or ":oom:" in line for line in log), log


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_round_trips_byte_identically(path):
    text = path.read_text()
    scenario = Scenario.from_json(text)
    assert scenario.to_json() + "\n" == text

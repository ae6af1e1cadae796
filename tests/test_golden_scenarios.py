"""Every bundled scenario against its pinned event-log digest and summary row.

`golden_scenarios.json` holds, for each `scenarios/*.cfg`, the SHA-256 digest
of the event log and the `summary_row` of one run. A change that is meant to
leave behaviour alone must leave every row as it is. A change that alters
behaviour on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_scenarios.py

and names the rows that moved, and why.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden_scenarios.json"


def _pin(path: Path) -> dict:
    from chainsim.netsim import run_scenario, summary_row
    from chainsim.scenario import load_scenario

    result = run_scenario(load_scenario(str(path)))
    return {"event_log_digest": result.event_log_digest().hex(), "summary_row": summary_row(result)}


def test_golden_file_covers_every_bundled_scenario():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(p.name for p in SCENARIO_DIR.glob("*.cfg"))


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.cfg")))
def test_scenario_matches_golden(name):
    assert _pin(SCENARIO_DIR / name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    pins = {p.name: _pin(p) for p in sorted(SCENARIO_DIR.glob("*.cfg"))}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

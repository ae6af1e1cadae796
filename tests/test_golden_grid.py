"""Simulations with many peers against their pinned digests and summary rows.

The bundled scenarios all have ten nodes or fewer, so a fault in gossip that
shows only with many peers (fan-out, duplicate deliveries, partition groups,
nodes going offline mid-flight) would pass `test_golden_scenarios.py`.
`golden_grid.json` pins the event-log digest and `summary_row` of the node
count grid of `bench/workloads.py::grid_scenario` (PoW, equal publishers,
latency 1, jitter 1) at N=20 and N=40, and
of two N=20 variants: one with a partition, a node left out of every group
and a lightweight wallet, and one whose publishers go offline for part of the
run. A change meant to leave behaviour alone leaves every row as it is; one
that alters it on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_grid.py

and names the rows that moved, and why.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.workloads import grid_scenario  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_grid.json"


def partitioned_with_wallet(seed: int) -> dict:
    """N=20 grid point split into two groups for ticks 150..350, with n19 in
    neither group and a lightweight wallet, funded at genesis, in the first."""
    raw = grid_scenario(20, 600, 13, seed)
    raw["nodes"].append({"name": "lw", "role": "lightweight", "balance": 100})
    raw["topology"]["partitions"] = [
        {
            "start": 150,
            "end": 350,
            "groups": [[f"n{i}" for i in range(10)] + ["lw"], [f"n{i}" for i in range(10, 19)]],
        }
    ]
    return raw


def offline_publishers(seed: int) -> dict:
    """N=20 grid point where six publishers are down for part of the run, two
    of them twice, so deliveries in flight land on offline nodes and the
    nodes catch up on rejoin."""
    raw = grid_scenario(20, 600, 13, seed)
    windows = {
        0: [[0, 120], [200, 600]],
        3: [[0, 250], [260, 400], [470, 600]],
        5: [[100, 600]],
        8: [[0, 300]],
        13: [[0, 50], [51, 52], [60, 600]],
        17: [[0, 140], [141, 600]],
    }
    for i, online in windows.items():
        raw["nodes"][i]["online"] = online
    return raw


POINTS = {
    "pow_n20_s1": lambda: grid_scenario(20, 600, 13, 1),
    "pow_n20_s2": lambda: grid_scenario(20, 600, 13, 2),
    "pow_n40_s1": lambda: grid_scenario(40, 600, 13, 1),
    "pow_n40_s2": lambda: grid_scenario(40, 600, 13, 2),
    "pow_n20_partition_lightweight_s1": lambda: partitioned_with_wallet(1),
    "pow_n20_offline_s1": lambda: offline_publishers(1),
}


def pin(name: str) -> dict:
    from chainsim.netsim import run_scenario, summary_row
    from chainsim.scenario import parse_scenario

    result = run_scenario(parse_scenario(POINTS[name]()))
    return {"event_log_digest": result.event_log_digest().hex(), "summary_row": summary_row(result)}


def test_golden_file_covers_every_point():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(POINTS)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_grid_point_matches_golden(name):
    assert pin(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    pins = {name: pin(name) for name in sorted(POINTS)}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

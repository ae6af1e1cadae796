"""Node-count scaling of the simulator on the PoW grid.

Runs the grid point of `bench/workloads.py::grid_scenario` (PoW, equal
publishers, latency 1, jitter 1, duration 600, tx_interval 13) at each node
count, and prints per point the wall time of `Simulation.run`, the number of
events pushed on the queue (`Simulation._seq`) and the event-log digest. The
last lines give the node-count exponents of wall time and of pushed events,
fitted by least squares on log-log scale. It reports and does not gate.

    python3 scripts/gossip_scaling.py [--nodes 10,20,40,80] [--seed 1]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bench.workloads import grid_scenario  # noqa: E402
from chainsim.netsim import Simulation  # noqa: E402
from chainsim.scenario import parse_scenario  # noqa: E402

DURATION = 600
TX_INTERVAL = 13


def run_point(nodes: int, seed: int) -> tuple[float, int, str]:
    """(wall seconds of the run, events pushed, event-log digest)."""
    raw = grid_scenario(nodes, DURATION, TX_INTERVAL, seed)
    sim = Simulation(parse_scenario(raw))
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    return wall, sim._seq, result.event_log_digest().hex()


def fitted_exponent(xs: list[float], ys: list[float]) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--nodes", default="10,20,40,80", help="comma-separated node counts")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    counts = [int(n) for n in args.nodes.split(",")]

    print(f"{'N':>4} {'wall_s':>8} {'events':>9}  digest")
    walls, events = [], []
    for n in counts:
        wall, pushed, digest = run_point(n, args.seed)
        walls.append(wall)
        events.append(pushed)
        print(f"{n:>4} {wall:>8.3f} {pushed:>9}  {digest}", flush=True)
    if len(counts) > 1:
        print(f"wall_s exponent: {fitted_exponent(counts, walls):.2f}")
        print(f"events exponent: {fitted_exponent(counts, events):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

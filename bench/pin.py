"""Regenerate bench/golden.json: for every simulator workload and every input
seed of the pool, the event-log digest, summary row and tip height of each
simulation; and the lowest nonce of the operator's puzzle.

    python3 bench/pin.py

Run it only when a change is meant to alter simulator behaviour, and say in
the change which rows moved and why.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from chainsim.crypto import solve_string_puzzle  # noqa: E402

JOBS = 2  # child processes at once


def main() -> int:
    jobs = [(w, k) for w in workloads.SIM_WORKLOADS for k in range(1, workloads.POOL + 1)]
    # each thread only waits on its child process
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        passes = list(pool.map(lambda job: run.sim_pass(job[0], job[1], trace=False), jobs))
    golden: dict = {w: {} for w in workloads.SIM_WORKLOADS}
    for (workload, k), p in zip(jobs, passes):
        if p.failed:
            print(f"{workload} input {k}: {p.errors}", file=sys.stderr)
            return 1
        golden[workload][str(k)] = p.outputs
    solution = solve_string_puzzle(workloads.PUZZLE_PREFIX, workloads.PUZZLE_ZEROS, 0)
    golden["operator_cli"] = {"puzzle_nonce": solution.nonce}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

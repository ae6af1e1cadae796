"""Workload inputs, generated from the benchmark seed.

Every workload is a pure function of (name, seed).  The simulator workloads
yield scenario mappings that go through ``parse_scenario`` exactly as a user's
YAML file would; ``operator_cli`` yields the parameters of a data directory and
the command sequence an operator runs against it.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

DEFAULT_SEED = 1
POOL = 48
CYCLE = 3
SIM_WORKLOADS = ("payments_pow_n10", "bundled_scenarios")
WORKLOADS = SIM_WORKLOADS + ("operator_cli",)

# payments_pow_n10: a payment every 2 ticks grows the UTXO history; the
# duration takes every input of the pool to height 150 or more (golden.json
# has each input's tip height).
PAYMENTS_NODES = 10
PAYMENTS_DURATION = 1760
PAYMENTS_TX_INTERVAL = 2

# operator_cli: a chain of OPERATOR_HEIGHT blocks, each carrying a contract
# call and OPERATOR_PAYMENTS payments, then OPERATOR_CALLS call commands.
OPERATOR_HEIGHT = 200
OPERATOR_PAYMENTS = 3
OPERATOR_RECIPIENTS = 8
OPERATOR_CALLS = 6
OPERATOR_FEE = 2
# The nonce search length depends on the prefix by a geometric law, so the
# prefix is fixed (the README's) rather than drawn from the seed; its lowest
# 5-zero nonce is pinned in golden.json.
PUZZLE_PREFIX = "blockchain"
PUZZLE_ZEROS = 5

COUNTER_ASM = """\
# bump the counter in slot 0 and emit the new value
PUSH 0
LOAD
PUSH 1
ADD
DUP
PUSH 0
STORE
EMIT
"""


def pass_seed(seed: int, index: int) -> int:
    """Input seed of pass ``index`` in a run with benchmark seed ``seed``.

    A run cycles through CYCLE consecutive inputs of a pool of POOL input
    seeds, 1..POOL, from a start drawn from ``seed`` (the default seed starts
    at 1), and runs whole cycles only.  A run thus averages over inputs, how
    much work and memory one simulator seed happens to need, while the inputs
    it times do not depend on how fast the code is.  Every input has pinned
    outputs.
    """
    start = 0
    if seed != DEFAULT_SEED:
        start = int.from_bytes(hashlib.sha256(b"%d" % seed).digest()[:8], "big") % POOL
    return 1 + (start + index % CYCLE) % POOL


def grid_scenario(nodes: int, duration: int, tx_interval: int, seed: int) -> dict:
    """The ROADMAP grid point: PoW, equal publishers with balance 100,
    latency 1, jitter 1, production stopping 40 ticks before the end."""
    return {
        "seed": seed,
        "duration": duration,
        "production_stop": duration - 40,
        "consensus": {"model": "pow", "target_bits": 250, "target_spacing": 10},
        "topology": {"latency": 1, "jitter": 1},
        "workload": {"tx_interval": tx_interval, "tx_amount": 3, "tx_fee": 1},
        "nodes": [
            {"name": f"n{i}", "role": "publishing", "hash_share": 1.0 / nodes, "balance": 100}
            for i in range(nodes)
        ],
    }


def scenario_files() -> list[Path]:
    return sorted(SCENARIO_DIR.glob("*.cfg"))


def sim_inputs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(run name, raw scenario mapping) for each simulation of one pass."""
    if workload == "payments_pow_n10":
        return [(workload, grid_scenario(
            PAYMENTS_NODES, PAYMENTS_DURATION, PAYMENTS_TX_INTERVAL, seed))]
    if workload == "bundled_scenarios":
        import yaml

        runs = []
        for path in scenario_files():
            with open(path) as fh:
                raw = yaml.safe_load(fh)
            raw["seed"] += seed - 1  # input seed 1 keeps each file's own seed
            runs.append((path.stem, raw))
        return runs
    raise ValueError(f"not a simulator workload: {workload}")


def operator_key_seeds(seed: int) -> list[bytes]:
    """32-byte key seeds: the operator's first, then the payment recipients."""
    base = b"bench-operator" + struct.pack(">Q", seed)
    return [hashlib.sha256(base + struct.pack(">I", i)).digest()
            for i in range(1 + OPERATOR_RECIPIENTS)]


def operator_commands(contract_hex: str) -> list[tuple[str, list[str]]]:
    """(kind, argv after --data-dir) for one timed operator session."""
    commands = [("verify", ["chain", "verify"])]
    commands += [("call", ["call", contract_hex, "--fee", str(OPERATOR_FEE)])] * OPERATOR_CALLS
    commands.append(("puzzle", ["puzzle", PUZZLE_PREFIX, str(PUZZLE_ZEROS), "0"]))
    return commands

"""A run's event log does not depend on the interpreter's hash seed.

String and bytes hashing is salted per process by PYTHONHASHSEED, so any
iteration over a set or dict whose order follows hashes, rather than
insertion, would make two processes write different logs for one scenario.
The simulator keys its peer lists by node name and its per-node gossip state
by transaction and block hashes. Each check below runs a scenario in fresh
interpreters under two hash seeds and compares the digests with each other
and with the pinned ones.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent

PROGRAM = """
import sys
from chainsim.netsim import run_scenario
from chainsim.scenario import load_scenario, parse_scenario

kind, arg = sys.argv[1:]
if kind == "file":
    config = load_scenario(arg)
else:
    import test_golden_grid
    config = parse_scenario(test_golden_grid.POINTS[arg]())
print(run_scenario(config).event_log_digest().hex())
"""


def digest_under(hash_seed: str, kind: str, arg: str) -> str:
    path = [str(REPO / "src"), str(TESTS)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, kind, arg],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "kind, arg, golden, key",
    [
        ("file", str(REPO / "scenarios" / "partition.cfg"), "golden_scenarios.json",
         "partition.cfg"),
        ("grid", "pow_n20_s1", "golden_grid.json", "pow_n20_s1"),
    ],
)
def test_digest_does_not_depend_on_hash_seed(kind, arg, golden, key):
    pinned = json.loads((TESTS / golden).read_text())[key]["event_log_digest"]
    assert [digest_under(seed, kind, arg) for seed in ("0", "12345")] == [pinned, pinned]

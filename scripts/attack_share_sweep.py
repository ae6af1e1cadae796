"""Sweep the adversary's hash-power share and measure reorg damage.

For each share in the grid, runs a majority_reorg attacker against four
equal honest publishers across a set of seeds: it mines a secret branch from
--secret-depth blocks below its tip and releases it once it is longer than
the honest chain. The script then counts reorganizations observed by honest
nodes at or beyond --deep. The resulting CSV shows how attack success scales
with hash power: a small minority produces shallow, rare reorgs while a
majority rewrites the chain at will.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainsim.netsim import run_scenario
from chainsim.scenario import parse_scenario

HONEST = 4


def sweep_config(seed: int, share: float, secret_depth: int) -> dict:
    honest_share = (1.0 - share) / HONEST
    nodes = [{"name": "adv", "role": "publishing", "hash_share": share}]
    for i in range(HONEST):
        nodes.append({"name": f"h{i}", "role": "publishing",
                      "hash_share": honest_share})
    return {
        "seed": seed,
        "duration": 1200,
        "consensus": {"model": "pow", "target_bits": 240, "target_spacing": 10},
        "nodes": nodes,
        "topology": {"latency": 1, "jitter": 1},
        "adversary": {"kind": "majority_reorg", "node": "adv",
                      "secret_depth": secret_depth},
    }


def deep_reorgs(result, threshold: int) -> tuple[int, int]:
    """Count honest-node reorg events and those at/beyond threshold."""
    total = 0
    deep = 0
    for _tick, node, depth in result.metrics.reorg_events:
        if node == "adv":
            continue
        total += 1
        if depth >= threshold:
            deep += 1
    return total, deep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shares", default="0.1,0.3,0.5,0.6",
                    help="comma-separated adversary hash shares")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                    help="comma-separated scenario seeds")
    ap.add_argument("--deep", type=int, default=3,
                    help="depth at which a reorg counts as deep")
    ap.add_argument("--secret-depth", type=int, default=3,
                    help="secret lead the attacker builds before releasing")
    ap.add_argument("--out", default="results/attack_sweep.csv")
    args = ap.parse_args()

    shares = [float(s) for s in args.shares.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    rows = []
    for share in shares:
        total = 0
        deep = 0
        deepest = 0
        for seed in seeds:
            config = parse_scenario(sweep_config(seed, share, args.secret_depth))
            result = run_scenario(config)
            t, d = deep_reorgs(result, args.deep)
            total += t
            deep += d
            honest_depths = [depth for _, node, depth in result.metrics.reorg_events
                             if node != "adv"]
            if honest_depths:
                deepest = max(deepest, max(honest_depths))
        rows.append({"share": share, "seeds": len(seeds),
                     "honest_reorgs": total, "deep_reorgs": deep,
                     "max_depth": deepest})
        print(f"share={share:.2f}  honest_reorgs={total}  "
              f"deep(>={args.deep})={deep}  max_depth={deepest}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["share", "seeds", "honest_reorgs",
                            "deep_reorgs", "max_depth"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

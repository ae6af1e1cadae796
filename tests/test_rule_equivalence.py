"""One fork rule and tip-grouped agreement against the code they replaced.

`fork_rule` states the fork schedule once: `_produce_block` takes its size
budget and rule version from it, and the store policy checks each block
against it.  `chain_agreement` compares each pair of distinct adopted tips
once and weighs it by the number of full nodes on each, and `fork_split` is
read from it.  The reference below is the simulator as it was before: a
policy written as its own branch tree, separate size-budget and rule-version
helpers, and a comparison of every pair of full nodes for the agreement
series and again for the end-of-run split.  On the bundled scenarios and on
generated ones (soft and hard forks, partitions, adversaries) both must write
the same event log and report the same agreement series and split.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chainsim import consensus as cons
from chainsim.chain import ChainParams
from chainsim.ledger import Validity
from chainsim.netsim import Simulation, fork_rule, online_overlap
from chainsim.scenario import HARD, SOFT, ForkSchedule, load_scenario, parse_scenario
from test_gossip_equivalence import HARD_FORK_SPLIT, scenarios

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class ReferenceSimulation(Simulation):
    """The simulator with the fork schedule worked out in three places and
    agreement compared node pair by node pair."""

    def _fork_policy(self, fork, name):
        adopter = name in fork.adopters
        base_limit = self.params.max_block_data_bytes

        def policy(block):
            height = block.header.height
            version = block.header.rule_version
            if fork.kind == SOFT:
                if adopter and height >= fork.activation_height:
                    if len(block.data_bytes()) > base_limit // 2:
                        return Validity(False, "Oversize", "tightened rule")
                return Validity(True)
            if adopter:
                if height >= fork.activation_height and version != fork.new_rule_version:
                    return Validity(False, "RuleVersion", "old version after activation")
                if height < fork.activation_height and version != 0:
                    return Validity(False, "RuleVersion", "new version before activation")
            elif version != 0:
                return Validity(False, "RuleVersion", f"unknown version {version}")
            return Validity(True)

        return policy

    def _rule_version_for(self, node, height):
        fork = self.config.fork
        if (
            fork is not None
            and fork.kind == HARD
            and node.name in fork.adopters
            and height >= fork.activation_height
        ):
            return fork.new_rule_version
        return 0

    def _size_budget(self, node, height):
        limit = self.params.max_block_data_bytes
        fork = self.config.fork
        if (
            fork is not None
            and fork.kind == SOFT
            and node.name in fork.adopters
            and height >= fork.activation_height
        ):
            limit //= 2
        return limit

    def _produce_block(self, node, parent, poet_cert=None):
        height = node.store.blocks[parent].header.height + 1
        budget = self._size_budget(node, height) - 160
        txs = self._mempool_selection(node, parent, budget)
        candidate = node.store.make_candidate(
            node.address,
            txs,
            timestamp=self.now,
            rule_version=self._rule_version_for(node, height),
            parent_hash=parent,
        )
        return cons.attach_proof(candidate, self.model, keypair=node.keypair, poet_cert=poet_cert)

    def chain_agreement(self):
        names = self.full_nodes
        if len(names) < 2:
            return 1.0
        agreeing = 0
        total = 0
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                total += 1
                sa, sb = self.nodes[a].store, self.nodes[b].store
                h = min(sa.tip_height, sb.tip_height)
                if sa.ancestor_at(sa.tip_hash, h) == sb.ancestor_at(sb.tip_hash, h):
                    agreeing += 1
        return agreeing / total

    def _finalize(self):
        self.now = self.config.duration
        for name in self.publishers:
            node = self.nodes[name]
            self.metrics.hash_attempts[name] = node.hash_rate * online_overlap(node.spec, 0, self.now)
        for name in self.full_nodes:
            self._check_confirmations(self.nodes[name])
        adopted_union = set()
        for name in self.full_nodes:
            adopted_union.update(self.nodes[name].store.adopted_path())
        self.metrics.orphan_count = sum(1 for h in self.produced if h not in adopted_union)
        self.metrics.fork_split = self._fork_split()
        tips = ",".join(
            f"{name}:{self.nodes[name].tip_hash().hex()[:12]}" for name in self.full_nodes
        )
        self._emit(f"t={self.config.duration} end tips={tips}")

    def _fork_split(self):
        tips = {self.nodes[name].store.tip_hash for name in self.full_nodes}
        if len(tips) < 2:
            return False
        names = self.full_nodes
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                sa, sb = self.nodes[a].store, self.nodes[b].store
                if sa.tip_hash == sb.tip_hash:
                    continue
                h = min(sa.tip_height, sb.tip_height)
                if sa.ancestor_at(sa.tip_hash, h) != sb.ancestor_at(sb.tip_hash, h):
                    return True
        return False


def _assert_same_run(config):
    new, ref = Simulation(config), ReferenceSimulation(config)
    new_result, ref_result = new.run(), ref.run()
    assert new_result.event_log_digest() == ref_result.event_log_digest()
    assert new.metrics.agreement_series == ref.metrics.agreement_series
    assert new.metrics.fork_split == ref.metrics.fork_split
    assert new.metrics == ref.metrics
    return new


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.cfg")))
def test_bundled_scenario_matches_reference(name):
    _assert_same_run(load_scenario(str(SCENARIO_DIR / name)))


# A soft fork whose limit, halved, is below what the old nodes fill: blocks of
# two payments from the old miners are Oversize to the adopters, which log a
# reject for every copy they receive.  With the default limit no generated
# block comes near the halved limit.
SOFT_FORK_OVERSIZE = {
    "seed": 5,
    "duration": 240,
    "production_stop": 220,
    "chain": {"max_block_data_bytes": 600},
    "consensus": {"model": "pow", "target_bits": 250, "target_spacing": 5},
    "topology": {"latency": 1, "jitter": 1, "partitions": []},
    "workload": {"tx_interval": 2, "tx_amount": 3, "tx_fee": 1},
    "fork": {"kind": "soft", "activation_height": 3, "adopters": ["p0", "p1"]},
    "nodes": [
        {"name": f"p{i}", "role": "publishing", "hash_share": 0.25, "balance": 80}
        for i in range(4)
    ],
}


def test_soft_fork_example_rejects_oversize_blocks():
    sim = _assert_same_run(parse_scenario(SOFT_FORK_OVERSIZE))
    assert any(" reject " in line and line.endswith("r=Oversize") for line in sim.log)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(HARD_FORK_SPLIT)
def test_generated_scenario_matches_reference(raw):
    _assert_same_run(parse_scenario(raw))


# -- the rule itself ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, node, height, expected",
    [
        (SOFT, "a", 4, (1000, 0)),
        (SOFT, "a", 5, (500, 0)),
        (SOFT, "b", 4, (1000, 0)),
        (SOFT, "b", 5, (1000, 0)),
        (HARD, "a", 4, (1000, 0)),
        (HARD, "a", 5, (1000, 3)),
        (HARD, "b", 4, (1000, 0)),
        (HARD, "b", 5, (1000, 0)),
    ],
)
def test_fork_rule_table(kind, node, height, expected):
    """Adopter a and non-adopter b, one height before activation and at it."""
    fork = ForkSchedule(kind=kind, activation_height=5, adopters=("a",), new_rule_version=3)
    assert fork_rule(fork, node, height, 1000) == expected
    assert fork_rule(None, node, height, 1000) == (1000, 0)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([SOFT, HARD]),
    activation=st.integers(1, 6),
    adopter=st.booleans(),
    new_version=st.integers(0, 3),
    limit=st.integers(1, 2048),
    height=st.integers(0, 10),
    version=st.integers(0, 3),
    size=st.integers(0, 2200),
)
def test_policy_matches_reference_on_any_block(
    kind, activation, adopter, new_version, limit, height, version, size
):
    """Outcome and reason agree for every block, not only for blocks a
    node would make: any height, rule version and data size."""
    fork = ForkSchedule(kind, activation, ("a",), new_version)
    sim = SimpleNamespace(params=ChainParams(max_block_data_bytes=limit))
    name = "a" if adopter else "b"
    header = SimpleNamespace(height=height, rule_version=version)
    block = SimpleNamespace(header=header, data_bytes=lambda: bytes(size))
    got = Simulation._fork_policy(sim, fork, name)(block)
    want = ReferenceSimulation._fork_policy(sim, fork, name)(block)
    assert (got.ok, got.reason) == (want.ok, want.reason)


def test_chain_params_need_a_positive_block_limit():
    """Halving a limit of 0 leaves it at 0, which the policy would not see
    as tightened; a block always carries a coinbase, so no chain has that
    limit."""
    with pytest.raises(ValueError):
        ChainParams(max_block_data_bytes=0)
    assert ChainParams(max_block_data_bytes=1).max_block_data_bytes == 1

"""Gossip that skips no-op deliveries against the flood it replaced.

`Simulation._gossip_block` and `_deliver_tx_to` push no delivery that is
certain to do nothing on arrival, and take their targets from
`Simulation._flood_targets`, which keeps one list per partition in force,
node and kind (block or transaction).  The reference below is the flood as
it was before: one push per (item, reachable peer), its targets from
`peers_of`, which builds a new list on every call by asking `reachable` for
every pair.  Over generated scenarios (online windows, partitions with nodes
left out, lightweight submitters, jitter 0 to 3, withholding and
majority-reorg adversaries, soft and hard forks) the two must write the same
event log and end in the same state, while the change pushes fewer events.
The reference hashes every latency draw and the simulator only those whose
value it reads, so ending at the same gossip-stream position pins the
positions each flood takes.
"""

from chainsim._record import fields, replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chainsim.chain import BlockHeader, header_hash
from chainsim.crypto import sha256
from chainsim.netsim import (
    _RANK_BLOCK,
    _RANK_TX,
    Simulation,
    prepare_config,
    summary_row,
)
from chainsim.scenario import LIGHTWEIGHT, parse_scenario


class ReferenceSimulation(Simulation):
    """The simulator with the flood gossip it had before no-op deliveries
    were dropped.  It keeps the per-node set of relayed blocks the simulator
    once had and asserts that a node never gossips a block twice, which is
    why the simulator needs no such set."""

    def __init__(self, config):
        super().__init__(config)
        self.relayed = {name: set() for name in self.nodes}

    def peers_of(self, name, tick):
        return [
            other
            for other in self.order
            if other != name and self.reachable(name, other, tick)
        ]

    def _gossip_block(self, node, block, extra_delay=0):
        h = header_hash(block.header)
        assert h not in self.relayed[node.name], (node.name, h.hex())
        self.relayed[node.name].add(h)
        for peer_name in self.peers_of(node.name, self.now):
            peer = self.nodes[peer_name]
            delay = self._latency() + extra_delay
            if peer.role == LIGHTWEIGHT:
                if node.role != LIGHTWEIGHT:
                    self._push(
                        self.now + delay,
                        _RANK_BLOCK,
                        peer.address.to_bytes(),
                        "deliver_header",
                        (peer_name, block.header),
                    )
            else:
                self._push(
                    self.now + delay,
                    _RANK_BLOCK,
                    peer.address.to_bytes(),
                    "deliver_block",
                    (peer_name, block, node.name),
                )

    def _deliver_tx_to(self, node, tx, sender):
        tx_id = tx.tx_id
        if tx_id in node.tx_relayed:
            return
        node.tx_relayed.add(tx_id)
        node.store.mempool.add(tx, node.store.tip_state().utxo, not self.stake_model)
        for peer_name in self.peers_of(node.name, self.now):
            peer = self.nodes[peer_name]
            if peer.role == LIGHTWEIGHT:
                continue
            self._push(
                self.now + self._latency(),
                _RANK_TX,
                peer.address.to_bytes(),
                "deliver_tx",
                (peer_name, tx, node.name),
            )


# ---------------------------------------------------------------------------
# Generated scenarios
# ---------------------------------------------------------------------------


def _windows(draw, duration: int) -> list[list[int]]:
    """One or two up intervals inside [0, duration]."""
    size = 2 * draw(st.integers(1, 2))
    cuts = sorted(
        draw(st.lists(st.integers(0, duration), min_size=size, max_size=size, unique=True))
    )
    return [[cuts[i], cuts[i + 1]] for i in range(0, len(cuts), 2)]


@st.composite
def scenarios(draw) -> dict:
    duration = draw(st.integers(120, 320))
    publishers = [f"p{i}" for i in range(draw(st.integers(2, 6)))]
    relays = [f"f{i}" for i in range(draw(st.integers(0, 2)))]
    wallet = ["lw"] if draw(st.booleans()) else []
    names = publishers + relays + wallet

    adversary = draw(st.sampled_from([None, "withholding", "majority_reorg"]))
    weights = [draw(st.integers(1, 4)) for _ in publishers]
    if adversary:
        weights[0] = draw(st.integers(2, 8))
    nodes = []
    for name in names:
        role = "publishing" if name in publishers else "lightweight" if name == "lw" else "full"
        node = {"name": name, "role": role, "balance": draw(st.integers(0, 80))}
        if role == "publishing":
            node["hash_share"] = weights[publishers.index(name)] / sum(weights)
        if draw(st.integers(0, 2)) == 0:
            node["online"] = _windows(draw, duration)
        nodes.append(node)

    partitions = []
    cuts = sorted(draw(st.lists(st.integers(1, duration), max_size=4, unique=True)))
    for start, end in zip(cuts[::2], cuts[1::2]):
        groups: dict[int, list[str]] = {}
        for name in names:
            group = draw(st.integers(-1, 2))  # -1 leaves the node out: isolated
            if group >= 0:
                groups.setdefault(group, []).append(name)
        partitions.append({"start": start, "end": end, "groups": list(groups.values())})

    raw = {
        "seed": draw(st.integers(0, 2**32)),
        "duration": duration,
        "production_stop": duration - draw(st.integers(0, 40)),
        "consensus": {"model": "pow", "target_bits": 250,
                      "target_spacing": draw(st.integers(3, 10))},
        "topology": {"latency": draw(st.integers(1, 2)), "jitter": draw(st.integers(0, 3)),
                     "partitions": partitions},
        "workload": {"tx_interval": draw(st.integers(0, 8)), "tx_amount": 3, "tx_fee": 1},
        "nodes": nodes,
    }
    if wallet and draw(st.booleans()):
        raw["workload"]["submit_via"] = "lw"
    if adversary == "withholding":
        raw["adversary"] = {"kind": adversary, "node": "p0",
                            "delay_ticks": draw(st.integers(1, 30))}
    elif adversary:
        raw["adversary"] = {"kind": adversary, "node": "p0",
                            "secret_depth": draw(st.integers(1, 3))}
    if draw(st.integers(0, 3)) == 0:
        raw["fork"] = {
            "kind": draw(st.sampled_from(["soft", "hard"])),
            "activation_height": draw(st.integers(1, 6)),
            "adopters": draw(st.lists(st.sampled_from(names), unique=True)),
        }
    return raw


# A hard fork splits six equal miners in two.  Blocks come 2 ticks apart and
# reach a peer 1 to 4 ticks after they are sent, so a block often arrives
# before its parent and waits in the orphan buffer; when the parent comes, a
# node on the other side of the split rejects it once for every copy it
# buffered.  Generated forks seldom reach that case.
HARD_FORK_SPLIT = {
    "seed": 23,
    "duration": 200,
    "production_stop": 180,
    "consensus": {"model": "pow", "target_bits": 250, "target_spacing": 2},
    "topology": {"latency": 1, "jitter": 3, "partitions": []},
    "fork": {"kind": "hard", "activation_height": 3, "adopters": ["p0", "p1", "p2"]},
    "nodes": [
        {"name": f"p{i}", "role": "publishing", "hash_share": 1 / 6, "balance": 20}
        for i in range(6)
    ],
}


# The same six miners without the fork, at jitter 4, above the 3 that
# scenarios() draws.  No block is rejected, so a copy of a block that waits in
# a peer's orphan buffer is not pushed when an earlier copy reaches the peer
# first; the flood reference calls _request_missing 41 times here and the
# simulator 39.
ORPHANS_NO_FORK = {
    **{key: value for key, value in HARD_FORK_SPLIT.items() if key != "fork"},
    "seed": 1,
    "topology": {"latency": 1, "jitter": 4, "partitions": []},
}


def _end_state(sim) -> dict:
    return {
        name: (
            node.tip_hash(),
            set(node.store.blocks) if node.store else set(node.headers),
            list(node.store.mempool._entries) if node.store else None,
            node.tx_relayed,
        )
        for name, node in sim.nodes.items()
    }


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(HARD_FORK_SPLIT)
@example(ORPHANS_NO_FORK)
def test_gossip_matches_flood_reference(raw):
    config = prepare_config(parse_scenario(raw))
    new, ref = Simulation(config), ReferenceSimulation(config)
    new_result, ref_result = new.run(), ref.run()
    assert new_result.event_log == ref_result.event_log
    assert summary_row(new_result) == summary_row(ref_result)
    assert new.metrics == ref.metrics
    assert _end_state(new) == _end_state(ref)
    assert new._gossip_stream._counter == ref._gossip_stream._counter
    assert new._seq <= ref._seq
    if not raw["topology"]["partitions"] and any(" deliver " in line for line in ref.log):
        # whoever accepts a block from a peer floods it back to that peer,
        # which already holds it
        assert new._seq < ref._seq


HEADERS = st.builds(
    BlockHeader,
    height=st.integers(0, 2**32),
    prev_header_hash=st.binary(min_size=32, max_size=32),
    data_hash=st.binary(min_size=32, max_size=32),
    timestamp=st.integers(0, 2**32),
    size=st.integers(0, 2**16),
    nonce=st.integers(0, 2**32),
    rule_version=st.integers(0, 3),
    consensus_tag=st.binary(max_size=8),
)


@given(HEADERS, st.sampled_from([f.name for f in fields(BlockHeader) if f.init]), st.data())
def test_cached_header_hash_follows_replace(header, name, data):
    """header_hash keeps the hash on the instance; a header made from it by
    replace is hashed from its own bytes."""
    assert header_hash(header) == sha256(header.serialize())
    value = data.draw(st.binary(min_size=32, max_size=32) if name.endswith("hash")
                      else st.binary(max_size=8) if name == "consensus_tag"
                      else st.integers(0, 2**16 - 1))
    changed = replace(header, **{name: value})
    assert header_hash(changed) == sha256(changed.serialize())
    assert header_hash(header) == sha256(header.serialize())
    assert changed == header or header_hash(changed) != header_hash(header)

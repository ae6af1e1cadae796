"""End-to-end behaviour of the deterministic network simulator: gossip and
convergence, partitions, adversaries, lightweight clients, and the metric
bookkeeping the experiment scripts rely on."""

from collections import Counter
from chainsim._record import replace
from pathlib import Path

from chainsim import consensus as cons
from chainsim.chain import ChainStore, header_hash
from chainsim.crypto import HashStream, derive_address, sha256
from chainsim.netsim import (
    Simulation,
    build_genesis,
    is_online,
    online_overlap,
    prepare_config,
    run_scenario,
    summary_row,
    write_reports,
)
from chainsim.scenario import NodeSpec, load_scenario, node_keypair, parse_scenario
from test_golden_grid import grid_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario(name: str):
    return load_scenario(str(SCENARIO_DIR / f"{name}.cfg"))


def two_miner_raw(**overrides) -> dict:
    raw = {
        "seed": 7,
        "duration": 300,
        "production_stop": 260,
        "consensus": {"model": "pow", "target_bits": 250},
        "workload": {"tx_interval": 13, "tx_amount": 2, "tx_fee": 1},
        "nodes": [
            {"name": "a", "role": "publishing", "hash_share": 0.5, "balance": 100},
            {"name": "b", "role": "publishing", "hash_share": 0.5, "balance": 100},
        ],
    }
    raw.update(overrides)
    return raw


def live_total(store: ChainStore) -> int:
    utxo = store.tip_state().utxo
    return sum(entry.output.amount for _, entry in utxo.live_entries())


def assert_conserved(result) -> None:
    """Every full node's live coin supply equals the genesis allocation plus
    one subsidy per adopted block; fees only move value, never create it."""
    chain = result.config.chain
    genesis_total = sum(amount for _, amount in chain.genesis_allocation)
    for name, node in result.nodes.items():
        if node.store is None:
            continue
        expected = genesis_total + chain.block_subsidy * node.store.tip_height
        assert live_total(node.store) == expected, name


def full_tips(result) -> set[bytes]:
    return {node.store.tip_hash for node in result.nodes.values() if node.store}


# -- determinism -----------------------------------------------------------------


def test_same_seed_same_run():
    first = run_scenario(parse_scenario(two_miner_raw()))
    second = run_scenario(parse_scenario(two_miner_raw()))
    assert first.event_log == second.event_log
    assert first.event_log_digest() == second.event_log_digest()
    assert summary_row(first) == summary_row(second)


def test_different_seed_different_run():
    base = run_scenario(parse_scenario(two_miner_raw()))
    other = run_scenario(parse_scenario(two_miner_raw(seed=8)))
    assert base.event_log_digest() != other.event_log_digest()


def test_event_log_digest_is_hash_of_joined_lines():
    result = run_scenario(parse_scenario(two_miner_raw(duration=120)))
    assert result.event_log_digest() == sha256("\n".join(result.event_log).encode())


# -- clean single-publisher runs ----------------------------------------------------


def test_single_publisher_builds_one_branch():
    raw = two_miner_raw(
        nodes=[
            {"name": "solo", "role": "publishing", "hash_share": 1.0, "balance": 100},
            {"name": "obs", "role": "full", "balance": 50},
        ]
    )
    result = run_scenario(parse_scenario(raw))
    m = result.metrics
    assert m.orphan_count == 0
    assert m.reorg_events == []
    assert not m.fork_split
    assert all(fraction == 1.0 for _, fraction in m.agreement_series)
    assert len(full_tips(result)) == 1
    assert result.nodes["obs"].store.tip_height > 0
    assert m.confirmation_latencies
    assert m.mean_confirmation_latency > 0
    assert_conserved(result)


def test_payments_settle_into_recipient_balances():
    raw = two_miner_raw(
        workload={"tx_interval": 10, "tx_amount": 5, "tx_fee": 1, "submit_via": "a"}
    )
    result = run_scenario(parse_scenario(raw))
    confirmed = result.metrics.confirmation_latencies
    assert confirmed
    store = result.nodes["b"].store
    assert all(store.is_confirmed(tx_id) for tx_id in confirmed)
    depth_floor = result.config.chain.confirmation_depth
    assert result.metrics.mean_confirmation_latency >= depth_floor
    assert_conserved(result)


# -- conflicts and convergence -------------------------------------------------------


def test_slow_link_forks_then_converges():
    result = run_scenario(scenario("conflict_pow_2"))
    m = result.metrics
    assert m.orphan_count > 0
    assert m.max_reorg_depth >= 1
    assert any("r=NewSideBranch" in line for line in result.event_log)
    assert any(" reorg " in line for line in result.event_log)
    assert not m.fork_split
    assert len(full_tips(result)) == 1
    assert_conserved(result)


def test_random_topologies_reach_consensus():
    stream = HashStream(404, "netsim-fuzz")
    for trial in range(6):
        count = 3 + stream.randrange(3)
        weights = [1 + stream.randrange(5) for _ in range(count)]
        total = sum(weights)
        nodes = [
            {
                "name": f"n{i}",
                "role": "publishing",
                "hash_share": weights[i] / total,
                "balance": 60,
            }
            for i in range(count)
        ]
        nodes.append({"name": "watch", "role": "full"})
        raw = {
            "seed": 1000 + trial,
            "duration": 300,
            "production_stop": 240,
            "consensus": {"model": "pow", "target_bits": 250},
            "topology": {"latency": 1 + stream.randrange(3), "jitter": stream.randrange(3)},
            "workload": {"tx_interval": 17, "tx_amount": 2, "tx_fee": 1},
            "nodes": nodes,
        }
        result = run_scenario(parse_scenario(raw))
        assert len(full_tips(result)) == 1, raw["seed"]
        assert result.nodes["watch"].store.tip_height > 0
        assert_conserved(result)


def test_partition_diverges_then_heals():
    result = run_scenario(scenario("partition"))
    m = result.metrics
    during = [f for tick, f in m.agreement_series if 160 <= tick <= 350]
    assert min(during) < 1.0
    assert m.agreement_series[-1][1] == 1.0
    assert m.max_reorg_depth >= 1
    assert not m.fork_split
    assert len(full_tips(result)) == 1
    assert_conserved(result)


def test_nodes_left_out_of_every_group_are_isolated():
    """Unlisted nodes shared one group, so they reached each other."""
    raw = two_miner_raw(
        nodes=[{"name": n, "role": "publishing", "hash_share": 1 / 3, "balance": 100}
               for n in ("n0", "n1", "n2")],
        topology={"latency": 1, "jitter": 0,
                  "partitions": [{"start": 10, "end": 50, "groups": [["n0"]]}]},
    )
    sim = Simulation(parse_scenario(raw))
    for a, b in (("n1", "n2"), ("n0", "n1"), ("n0", "n2")):
        assert not sim.reachable(a, b, 20)
        assert sim.reachable(a, b, 50)
    assert [sim.peers_of(n, 20) for n in ("n0", "n1", "n2")] == [[], [], []]
    assert sim.peers_of("n1", 9) == ["n0", "n2"]


def test_flood_targets_are_built_once_per_partition_in_force(monkeypatch):
    """Reach follows from the partition in force alone, so a partitioned run
    asks peers_of at most once per (partition in force, node, txs), once
    for a flood's block list and once for its transaction list, not once
    per flood."""
    config = scenario("partition")
    partitions = config.topology.partitions
    asked = Counter()
    floods = []
    peers_of, flood = Simulation.peers_of, Simulation._flood

    def counted_peers_of(self, name, tick):
        in_force = next((i for i, p in enumerate(partitions) if p.start <= tick < p.end), None)
        asked[in_force, name] += 1
        return peers_of(self, name, tick)

    def counted_flood(self, *args, **kwargs):
        floods.append(self.now)
        return flood(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "peers_of", counted_peers_of)
    monkeypatch.setattr(Simulation, "_flood", counted_flood)
    run_scenario(config)
    assert {in_force for in_force, _ in asked} == {None, 0}
    assert max(asked.values()) <= 2
    assert sum(asked.values()) < len(floods) / 10


# -- adversaries ---------------------------------------------------------------------


def test_censoring_publisher_excludes_victim_but_cannot_block_settlement():
    result = run_scenario(scenario("censorship"))
    censor = result.nodes["cen"]
    victim = result.nodes["victim"]
    store = censor.store
    victim_txs_by_publisher = {censor.address: 0, result.nodes["hon"].address: 0}
    censor_blocks = 0
    for block_hash in store.adopted_path()[1:]:
        block = store.get_block(block_hash)
        publisher = cons.proof_publisher(block.header)
        if publisher == censor.address:
            censor_blocks += 1
        for tx in block.transactions:
            if any(derive_address(i.public_key) == victim.address for i in tx.inputs):
                victim_txs_by_publisher[publisher] += 1
    assert censor_blocks > 0
    assert victim_txs_by_publisher[censor.address] == 0
    # the honest half still gets the victim's payments onto the chain
    assert victim_txs_by_publisher[result.nodes["hon"].address] > 0
    assert result.metrics.confirmation_latencies
    assert len(full_tips(result)) == 1
    assert_conserved(result)


def test_withholding_inflates_orphans():
    config = scenario("withholding")
    withheld = run_scenario(config)
    honest = run_scenario(replace(config, adversary=None))
    assert withheld.metrics.orphan_count > honest.metrics.orphan_count
    assert withheld.metrics.max_reorg_depth >= 1
    # a first-seen tie may survive the run, but never a height difference
    heights = {n.store.tip_height for n in withheld.nodes.values() if n.store}
    assert len(heights) == 1
    assert_conserved(withheld)


def test_majority_attacker_forces_deep_reorgs():
    config = scenario("majority_attack")
    result = run_scenario(config)
    assert any(" attack_start " in line for line in result.event_log)
    assert any(" attack_release " in line for line in result.event_log)
    honest_depths = [
        depth
        for _, node, depth in result.metrics.reorg_events
        if node != config.adversary.node
    ]
    assert honest_depths and max(honest_depths) >= config.adversary.secret_depth
    assert len(full_tips(result)) == 1
    assert_conserved(result)


def test_the_block_that_starts_an_attack_is_still_gossiped():
    """_handle_own_block asks whether an attack is on before _after_accept,
    which may start a majority_reorg attack, runs: the block whose
    acceptance starts one is an honest block and goes to the peers at once.
    Taken as the attack's first secret block instead, it would wait for a
    release, which a rival at its height, unseen by the attacker, holds
    back."""
    raw = two_miner_raw(adversary={"kind": "majority_reorg", "node": "a", "secret_depth": 1})
    sim = Simulation(parse_scenario(raw))
    adv, honest = sim.nodes["a"], sim.nodes["b"]
    rival = sim._produce_block(honest, honest.store.tip_hash)
    honest.store.append_block(rival)
    block = sim._produce_block(adv, adv.store.tip_hash)
    sim._handle_own_block(adv, block)
    assert adv.attack_active and adv.secret_blocks == []
    delivered = [payload[1] for *_, kind, payload in sim._queue if kind == "deliver_block"]
    assert delivered == [block]


# -- lightweight clients ---------------------------------------------------------------


def test_lightweight_node_tracks_headers_and_proves_inclusion():
    result = run_scenario(scenario("lightweight"))
    lw = result.nodes["lw"]
    full = result.nodes["n0"]
    assert lw.store is None
    assert lw.header_tip == full.store.tip_hash
    assert len(lw.headers) >= full.store.tip_height + 1
    assert any(" tx node=lw " in line for line in result.event_log)
    confirmed = []
    for block_hash in full.store.adopted_path()[1:]:
        block = full.store.get_block(block_hash)
        for tx in block.transactions:
            if tx.inputs and full.store.is_confirmed(tx.tx_id):
                confirmed.append(tx.tx_id)
    assert confirmed
    assert all(lw.lightweight_confirmed(tx_id, full) for tx_id in confirmed)
    assert not lw.lightweight_confirmed(sha256(b"no such transaction"), full)
    assert_conserved(result)


# -- node availability -----------------------------------------------------------------


def test_rotation_skips_offline_publisher_and_resyncs_it():
    result = run_scenario(scenario("round_robin"))
    r2 = result.nodes["r2"]
    others = [result.nodes["r0"], result.nodes["r1"]]
    assert r2.store.tip_hash == others[0].store.tip_hash
    assert others[0].store.tip_height > 10
    assert len(full_tips(result)) == 1
    assert_conserved(result)


def test_online_interval_helpers():
    spec = NodeSpec(name="x", online=((0, 100), (200, 300)))
    assert is_online(spec, 0)
    assert is_online(spec, 99)
    assert not is_online(spec, 100)
    assert not is_online(spec, 199)
    assert is_online(spec, 200)
    assert not is_online(spec, 300)
    always = NodeSpec(name="y")
    assert is_online(always, 10**9)
    assert online_overlap(spec, 50, 250) == 50 + 50
    assert online_overlap(spec, 0, 300) == 200
    assert online_overlap(spec, 120, 180) == 0
    assert online_overlap(spec, 40, 40) == 0
    assert online_overlap(always, 3, 17) == 14


def test_hash_attempts_track_power_shares():
    raw = two_miner_raw(
        nodes=[
            {"name": "a", "role": "publishing", "hash_share": 0.25, "balance": 100},
            {"name": "b", "role": "publishing", "hash_share": 0.75, "balance": 100},
        ]
    )
    result = run_scenario(parse_scenario(raw))
    attempts = result.metrics.hash_attempts
    assert attempts["a"] > 0
    assert abs(attempts["b"] / attempts["a"] - 3.0) < 1e-6


def test_hash_attempts_are_rate_times_online_ticks():
    """Each publisher's attempts are its hash rate times its ticks online in
    the run, as one product. In this run, adding rate x online ticks find by
    find rounds differently: 1164.7999999999997 for "a", 576.0 for "b"."""
    raw = two_miner_raw(
        nodes=[
            {"name": "a", "role": "publishing", "hash_share": 0.7, "balance": 100,
             "online": [[0, 90], [130, 300]]},
            {"name": "b", "role": "publishing", "hash_share": 0.3, "balance": 100},
        ]
    )
    result = run_scenario(parse_scenario(raw))
    for name in ("a", "b"):
        node = result.nodes[name]
        expected = node.hash_rate * online_overlap(node.spec, 0, result.config.duration)
        assert result.metrics.hash_attempts[name] == expected
    assert result.metrics.hash_attempts["a"] == 1164.8


# -- construction helpers ---------------------------------------------------------------


def test_node_keypair_is_stable_per_seed_and_name():
    assert node_keypair(42, "n0").public_key == node_keypair(42, "n0").public_key
    assert node_keypair(42, "n0").public_key != node_keypair(42, "n1").public_key
    assert node_keypair(42, "n0").public_key != node_keypair(43, "n0").public_key


def test_build_genesis_allocates_and_locks_stake():
    config = prepare_config(scenario("pos_chain"))
    genesis = build_genesis(config)
    store = ChainStore(config.chain, genesis)
    specs = {spec.name: spec for spec in config.nodes}
    total = sum(spec.balance + spec.stake for spec in config.nodes)
    assert live_total(store) == total
    utxo = store.tip_state().utxo
    locked = sum(entry.output.amount for _, entry in utxo.live_entries() if entry.locked)
    assert locked == sum(spec.stake for spec in config.nodes)
    keys = {name: node_keypair(config.seed, name) for name in specs}
    stakes: dict = {}
    for entry in cons.stake_view(utxo, store.tip_height):
        stakes[entry.address] = stakes.get(entry.address, 0) + entry.amount
    for name, spec in specs.items():
        addr = derive_address(keys[name].public_key)
        assert stakes.get(addr, 0) == spec.stake


def test_simulation_prepares_its_own_config():
    """A parsed config carries no genesis allocation; Simulation prepares it
    as prepare_config does, and its nodes start from build_genesis of it."""
    config = scenario("pos_chain")
    assert config.chain.genesis_allocation == ()
    prepared = prepare_config(config)
    assert sum(a for _, a in prepared.chain.genesis_allocation) == sum(
        spec.balance + spec.stake for spec in config.nodes
    )
    assert prepare_config(prepared) == prepared
    sim = Simulation(config)
    assert sim.config.chain.genesis_allocation == prepared.chain.genesis_allocation
    genesis = build_genesis(prepared)
    for node in sim.nodes.values():
        assert node.store.tip_hash == header_hash(genesis.header)


def test_summary_row_and_reports(tmp_path):
    result = run_scenario(parse_scenario(two_miner_raw(duration=150)))
    row = summary_row(result)
    assert set(row) == {
        "seed",
        "orphans",
        "max_reorg_depth",
        "mean_confirmation_latency",
        "fork_split",
    }
    out = tmp_path / "report"
    write_reports(result, str(out))
    assert (out / "metrics_summary.csv").exists()
    assert (out / "agreement_timeseries.csv").exists()
    assert (out / "node_resources.csv").exists()
    assert (out / "events.log").read_text() == "\n".join(result.event_log) + "\n"


def test_stake_view_is_built_only_for_stake_models(monkeypatch):
    calls = []
    real = cons.stake_view
    monkeypatch.setattr(cons, "stake_view", lambda *args: calls.append(args) or real(*args))
    run_scenario(scenario("poa"))
    assert calls == []
    run_scenario(scenario("pos_chain"))
    assert calls


def test_flood_hashes_only_the_draws_it_reads_and_pushes_no_duplicate_block(monkeypatch):
    """Each peer of a flood takes one gossip-stream position, but one whose
    value decides nothing (the peer holds the item, or an earlier push in
    flight reaches it first) is not hashed.  Without a fork schedule no
    block copy is pushed that would arrive as a Duplicate.  The event-log
    digest is the one the flood without either saving writes."""
    sim = Simulation(parse_scenario(grid_scenario(10, 400, 2, 1)))
    hashed, reasons = [], []
    u64, append_block = HashStream.u64, ChainStore.append_block

    def counted_u64(stream, at=None):
        if stream is sim._gossip_stream:
            hashed.append(stream._counter if at is None else at)
        return u64(stream, at)

    def counted_append_block(store, block, *args, **kwargs):
        result = append_block(store, block, *args, **kwargs)
        reasons.append(result.reason)
        return result

    monkeypatch.setattr(HashStream, "u64", counted_u64)
    monkeypatch.setattr(ChainStore, "append_block", counted_append_block)
    result = sim.run()
    assert result.event_log_digest().hex().startswith("a10dd77119fbe44d")
    assert len(set(hashed)) == len(hashed)
    assert all(0 <= position < sim._gossip_stream._counter for position in hashed)
    assert 0 < len(hashed) < sim._gossip_stream._counter
    assert reasons and "Duplicate" not in reasons

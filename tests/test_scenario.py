import math
from pathlib import Path

import pytest

from chainsim.consensus import (
    PoaParams,
    PoetParams,
    PosChainParams,
    PosCoinAgeParams,
    PowParams,
    RoundRobinParams,
)
from chainsim.crypto import derive_address
from chainsim.netsim import node_keypair
from chainsim.scenario import ScenarioError, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal(**overrides) -> dict:
    raw = {
        "seed": 1,
        "duration": 100,
        "consensus": {"model": "pow"},
        "nodes": [{"name": "n0", "role": "publishing", "hash_share": 1.0}],
    }
    raw.update(overrides)
    return raw


def errors_of(raw: dict) -> list[str]:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    return err.value.errors


def test_minimal_config_defaults():
    config = parse_scenario(minimal())
    assert config.seed == 1
    assert config.duration == 100
    assert config.block_interval == 10
    assert config.agreement_interval == 10
    assert config.production_stop is None
    assert config.topology.latency == 1 and config.topology.jitter == 0
    assert config.fork is None and config.adversary is None
    assert config.workload.tx_interval == 0
    assert config.chain.block_subsidy == 50
    assert config.chain.confirmation_depth == 6
    assert isinstance(config.chain.consensus, PowParams)
    assert config.chain.consensus.simulated is True
    assert config.chain.consensus.target == 1 << 250


def test_all_bundled_scenarios_load():
    paths = sorted(SCENARIO_DIR.glob("*.cfg"))
    assert len(paths) >= 15
    for path in paths:
        config = load_scenario(str(path))
        assert config.duration > 0
        assert any(n.role == "publishing" for n in config.nodes)


def test_error_paths_are_collected_not_first_only():
    raw = {
        "seed": 1,
        "duration": -5,
        "consensus": {"model": "warp"},
        "nodes": [
            {"name": "a", "role": "publishing", "hash_share": 0.5},
            {"name": "a", "role": "wizard"},
        ],
        "topology": {"latency": 0},
    }
    errs = errors_of(raw)
    assert "duration: must be positive" in errs
    assert "nodes[1].name: duplicate node name 'a'" in errs
    assert any(e.startswith("nodes[1].role: must be one of") for e in errs)
    assert "topology.latency: must be at least 1" in errs
    assert any(e.startswith("consensus.model: must be one of") for e in errs)


def test_unknown_keys_rejected_at_every_level():
    errs = errors_of(minimal(unknown_top=1))
    assert "unknown_top: unknown key" in errs
    errs = errors_of(
        minimal(nodes=[{"name": "n0", "role": "publishing", "hash_share": 1.0, "warp": 1}])
    )
    assert "nodes[0].warp: unknown key" in errs
    errs = errors_of(minimal(consensus={"model": "pow", "stake": 3}))
    assert "consensus.stake: unknown key for model 'pow'" in errs
    errs = errors_of(minimal(chain={"subsidy": 1}))
    assert "chain.subsidy: unknown key" in errs


def test_booleans_are_not_integers():
    errs = errors_of(minimal(seed=True))
    assert any(e.startswith("seed: expected an integer") for e in errs)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_unsigned_64_bits_rejected(seed):
    assert errors_of(minimal(seed=seed)) == ["seed: must be between 0 and 18446744073709551615"]


def test_seed_at_unsigned_64_bit_limits_accepted():
    assert parse_scenario(minimal(seed=0)).seed == 0
    assert parse_scenario(minimal(seed=2**64 - 1)).seed == 2**64 - 1


def test_pow_hash_shares_must_sum_to_one():
    raw = minimal(
        nodes=[
            {"name": "n0", "role": "publishing", "hash_share": 0.5},
            {"name": "n1", "role": "publishing", "hash_share": 0.4},
        ]
    )
    errs = errors_of(raw)
    assert any("hash_share values must sum to 1" in e for e in errs)


def test_pow_target_bits_bounds():
    errs = errors_of(minimal(consensus={"model": "pow", "target_bits": 256}))
    assert "consensus.target_bits: must be between 8 and 255" in errs
    for spacing, interval in ((-5, -3), (0, 0)):
        consensus = {"model": "pow", "target_spacing": spacing, "retarget_interval": interval}
        errs = errors_of(minimal(consensus=consensus))
        assert "consensus.target_spacing: must be at least 1" in errs
        assert "consensus.retarget_interval: must be at least 1" in errs
    consensus = {"model": "pow", "target_spacing": 1, "retarget_interval": 1}
    params = parse_scenario(minimal(consensus=consensus)).chain.consensus
    assert (params.target_spacing, params.retarget_interval) == (1, 1)


def test_pos_requires_stake():
    raw = minimal(consensus={"model": "pos_chain"})
    errs = errors_of(raw)
    assert "nodes: pos_chain needs at least one node with stake" in errs

    raw = minimal(consensus={"model": "pos_chain"})
    raw["nodes"] = [{"name": "n0", "role": "publishing", "stake": 10, "balance": 5}]
    config = parse_scenario(raw)
    assert isinstance(config.chain.consensus, PosChainParams)


def test_pos_coinage_params_flow_through():
    raw = minimal(consensus={"model": "pos_coinage", "age_threshold": 2, "weight_cap": 500})
    raw["nodes"] = [{"name": "n0", "role": "publishing", "stake": 10}]
    config = parse_scenario(raw)
    assert config.chain.consensus == PosCoinAgeParams(age_threshold=2, weight_cap=500)


def test_round_robin_publishers_in_config_order():
    raw = minimal(consensus={"model": "round_robin"})
    raw["nodes"] = [
        {"name": "r1", "role": "publishing"},
        {"name": "obs", "role": "full"},
        {"name": "r0", "role": "publishing"},
    ]
    config = parse_scenario(raw)
    params = config.chain.consensus
    assert isinstance(params, RoundRobinParams)
    expected = tuple(
        derive_address(node_keypair(1, name).public_key) for name in ("r1", "r0")
    )
    assert params.publishers == expected


def test_poa_reputations_map_to_publishing_nodes():
    raw = minimal(consensus={"model": "poa", "reputations": {"n0": 60, "ghost": 40}})
    errs = errors_of(raw)
    assert "consensus.reputations.ghost: not a publishing node" in errs

    raw = minimal(consensus={"model": "poa", "reputations": {"n0": 60}})
    config = parse_scenario(raw)
    params = config.chain.consensus
    assert isinstance(params, PoaParams)
    addr = derive_address(node_keypair(1, "n0").public_key)
    assert params.authorities == {addr: 60}


@pytest.mark.parametrize(
    "consensus, error",
    [
        ({"model": "poa", "reputations": {"n0": 150}},
         "consensus.reputations.n0: must be between 0 and 100"),
        ({"model": "poa", "reputations": {"n0": -1}},
         "consensus.reputations.n0: must be between 0 and 100"),
        ({"model": "poa", "reputations": {"n0": 5}, "r_max": 4},
         "consensus.reputations.n0: must be between 0 and 4"),
        ({"model": "poa", "reputations": {"n0": 0}, "r_max": 0},
         "consensus.r_max: must be at least 1"),
        ({"model": "pos_coinage", "weight_cap": 0}, "consensus.weight_cap: must be at least 1"),
        ({"model": "pos_coinage", "weight_cap": -3}, "consensus.weight_cap: must be at least 1"),
    ],
)
def test_authority_and_coinage_bounds_name_their_key(consensus, error):
    raw = minimal(consensus=consensus)
    raw["nodes"] = [{"name": "n0", "role": "publishing", "stake": 10}]
    assert error in errors_of(raw)


def test_authority_and_coinage_values_at_their_bounds():
    raw = minimal(consensus={"model": "poa", "reputations": {"n0": 1}, "r_max": 1})
    assert parse_scenario(raw).chain.consensus.r_max == 1
    raw = minimal(consensus={"model": "poa", "reputations": {"n0": 0, "n1": 1}, "r_max": 1})
    raw["nodes"].append({"name": "n1", "role": "publishing"})
    assert list(parse_scenario(raw).chain.consensus.authorities.values()) == [0, 1]
    raw = minimal(consensus={"model": "pos_coinage", "weight_cap": 1})
    raw["nodes"] = [{"name": "n0", "role": "publishing", "stake": 10}]
    assert parse_scenario(raw).chain.consensus.weight_cap == 1


def test_poa_needs_a_reputation_above_zero():
    """An authority is drawn with probability proportional to its
    reputation, so with every reputation 0 no block is ever produced."""
    raw = minimal(consensus={"model": "poa", "reputations": {"n0": 0, "n1": 0}})
    raw["nodes"].append({"name": "n1", "role": "publishing"})
    assert errors_of(raw) == ["consensus.reputations: needs at least one reputation above 0"]
    raw["consensus"]["reputations"]["n1"] = 1
    assert parse_scenario(raw).chain.consensus.r_max == 100


def test_poet_inherits_scenario_seed():
    raw = minimal(consensus={"model": "poet", "mean_wait": 4.5})
    config = parse_scenario(raw)
    params = config.chain.consensus
    assert isinstance(params, PoetParams)
    assert params.seed == 1
    assert params.mean_wait == 4.5


@pytest.mark.parametrize("mean_wait", [-2.5, 0])
def test_poet_mean_wait_must_be_positive(mean_wait):
    errs = errors_of(minimal(consensus={"model": "poet", "mean_wait": mean_wait}))
    assert errs == ["consensus.mean_wait: must be positive"]


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"consensus": {"model": "poet", "mean_wait": math.inf}},
         "consensus.mean_wait: expected a finite number, got inf"),
        ({"consensus": {"model": "poet", "mean_wait": -math.inf}},
         "consensus.mean_wait: expected a finite number, got -inf"),
        ({"consensus": {"model": "poet", "mean_wait": math.nan}},
         "consensus.mean_wait: expected a finite number, got nan"),
        ({"nodes": [{"name": "n0", "role": "publishing", "hash_share": math.nan}]},
         "nodes[0].hash_share: expected a finite number, got nan"),
        ({"nodes": [{"name": "n0", "role": "publishing", "hash_share": math.inf}]},
         "nodes[0].hash_share: expected a finite number, got inf"),
        ({"nodes": [{"name": "n0", "role": "publishing", "hash_share": 10**400}]},
         f"nodes[0].hash_share: expected a finite number, got {10**400}"),
    ],
    ids=["mean_wait-inf", "mean_wait-minus-inf", "mean_wait-nan",
         "hash_share-nan", "hash_share-inf", "hash_share-beyond-float"],
)
def test_non_finite_numbers_rejected(overrides, error):
    assert error in errors_of(minimal(**overrides))


def test_partition_validation():
    raw = minimal(
        topology={
            "latency": 2,
            "partitions": [{"start": 50, "end": 20, "groups": [["n0"], ["zz"]]}],
        }
    )
    errs = errors_of(raw)
    assert "topology.partitions[0]: start must be below end" in errs
    assert "topology.partitions[0].groups[1]: unknown node 'zz'" in errs

    nodes = [{"name": n, "role": "publishing", "hash_share": 0.5} for n in ("n0", "n1")]
    raw = minimal(
        nodes=nodes,
        topology={"partitions": [{"start": 10, "end": 20, "groups": [["n0"], ["n1", "n0"]]}]},
    )
    assert errors_of(raw) == ["topology.partitions[0].groups[1]: node 'n0' is already in groups[0]"]

    split = [["n0"], ["n1"]]
    raw = minimal(
        nodes=nodes,
        topology={
            "partitions": [
                {"start": 10, "end": 20, "groups": split},
                {"start": 20, "end": 30, "groups": split},
                {"start": 25, "end": 40, "groups": split},
                {"start": 5, "end": 11, "groups": split},
            ]
        },
    )
    assert errors_of(raw) == [
        "topology.partitions[2]: overlaps topology.partitions[1]",
        "topology.partitions[3]: overlaps topology.partitions[0]",
    ]


def test_online_intervals_validated():
    raw = minimal(
        nodes=[{"name": "n0", "role": "publishing", "hash_share": 1.0,
                "online": [[10, 5], [1, 2, 3]]}]
    )
    errs = errors_of(raw)
    assert "nodes[0].online[0]: start must be below end" in errs
    assert "nodes[0].online[1]: expected [start, end] integers" in errs


def test_fork_and_adversary_validation():
    raw = minimal(fork={"kind": "sideways", "activation_height": 0, "adopters": ["nope"]})
    errs = errors_of(raw)
    assert any(e.startswith("fork.kind: must be one of") for e in errs)
    assert "fork.activation_height: must be at least 1" in errs
    assert "fork.adopters: unknown node 'nope'" in errs

    raw = minimal(adversary={"kind": "censorship", "node": "n0"})
    errs = errors_of(raw)
    assert "adversary.victim: censorship needs a victim node" in errs


def test_workload_validation():
    raw = minimal(workload={"tx_interval": -1, "tx_amount": 0, "submit_via": "ghost"})
    errs = errors_of(raw)
    assert "workload.tx_interval: must be non-negative" in errs
    assert "workload.tx_amount: must be positive" in errs
    assert "workload.submit_via: unknown node 'ghost'" in errs


def test_chain_bounds():
    errs = errors_of(minimal(chain={"max_block_data_bytes": 100, "confirmation_depth": 0}))
    assert "chain.max_block_data_bytes: must be at least 256" in errs
    assert "chain.confirmation_depth: must be at least 1" in errs
    # reported, not passed on to ChainParams, which raises for them
    errs = errors_of(minimal(chain={"confirmation_depth": -1, "block_subsidy": -1}))
    assert errs == [
        "chain.block_subsidy: must be non-negative",
        "chain.confirmation_depth: must be at least 1",
    ]


def test_top_level_must_be_mapping(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.errors == ["top level: expected a mapping"]

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsim.consensus import (
    PoaParams,
    PoetParams,
    PosChainParams,
    PosCoinAgeParams,
    PowParams,
    RoundRobinParams,
)
from chainsim import scenario
from chainsim.crypto import derive_address
from chainsim.netsim import run_scenario
from chainsim.scenario import PUBLISHING, ScenarioError, load_scenario, node_keypair, parse_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"


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


PAIR = [{"name": n, "role": "publishing", "hash_share": 0.5} for n in ("n0", "n1")]


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"fork": {"kind": "hard", "activation_height": 2, "adopters": ["n0"], "new_rule_version": 65536}},
         "fork.new_rule_version: must be between 0 and 65535"),
        ({"fork": {"kind": "hard", "activation_height": 2, "adopters": ["n0"], "new_rule_version": -1}},
         "fork.new_rule_version: must be between 0 and 65535"),
        ({"chain": {"block_subsidy": 2**62 + 1}},
         "chain.block_subsidy: must be at most 4611686018427387904"),
        ({"adversary": {"kind": "withholding", "node": "n0", "delay_ticks": -30}},
         "adversary.delay_ticks: must be non-negative"),
        ({"adversary": {"kind": "majority_reorg", "node": "n0", "secret_depth": -1}},
         "adversary.secret_depth: must be non-negative"),
        ({"nodes": [{"name": "n0", "role": "publishing", "hash_share": 0.5, "balance": 2**62},
                    {"name": "n1", "role": "publishing", "hash_share": 0.5, "stake": 1}]},
         "nodes: balance plus stake totals 4611686018427387905,"
         " above the maximum supply 4611686018427387904"),
        ({"workload": {"tx_interval": 5}}, "workload.tx_interval: payments need at least two nodes"),
        ({"nodes": [{"name": "n0", "role": "publishing", "hash_share": 1.0,
                     "online": [[0, 150], [50, 200], [10, 20]]}]},
         "nodes[0].online[1]: overlaps nodes[0].online[0]"),
        ({"duration": 2**64}, "duration: must be at most 18446744073709551615"),
        ({"consensus": {"model": "poet", "mean_wait": 1e308}},
         "consensus.mean_wait: must be at most 18446744073709551615"),
        ({"nodes": [{"name": "n0", "role": "publishing", "hash_share": 1.5}]},
         "nodes[0].hash_share: must be at most 1"),
    ],
    ids=["rule-version-above", "rule-version-below", "subsidy", "delay", "secret-depth",
         "supply", "lone-payer", "online-overlap", "duration", "mean-wait", "hash-share"],
)
def test_values_that_crash_a_run_are_rejected(overrides, error):
    """Each value parsed before but crashed the run (struct.error on a header
    field, ValueError from make_genesis, an empty randrange, a delivery in the
    past, an infinite wait) or counted an up-interval twice."""
    assert error in errors_of(minimal(**overrides))


def test_values_at_the_new_bounds_are_accepted():
    fork = {"kind": "hard", "activation_height": 2, "adopters": ["n0"], "new_rule_version": 65535}
    assert parse_scenario(minimal(fork=fork)).fork.new_rule_version == 65535
    fork["new_rule_version"] = 0
    assert parse_scenario(minimal(fork=fork)).fork.new_rule_version == 0
    assert parse_scenario(minimal(chain={"block_subsidy": 2**62})).chain.block_subsidy == 2**62
    adversary = {"kind": "majority_reorg", "node": "n0", "secret_depth": 0, "delay_ticks": 0}
    config = parse_scenario(minimal(adversary=adversary))
    assert (config.adversary.secret_depth, config.adversary.delay_ticks) == (0, 0)
    nodes = [dict(PAIR[0], balance=2**61), dict(PAIR[1], balance=2**61 - 5, stake=5)]
    assert parse_scenario(minimal(nodes=nodes)).nodes[1].stake == 5
    config = parse_scenario(minimal(nodes=PAIR, workload={"tx_interval": 5}))
    assert config.workload.tx_interval == 5
    nodes = [{"name": "n0", "role": "publishing", "hash_share": 1.0, "online": [[0, 50], [50, 100]]}]
    assert parse_scenario(minimal(nodes=nodes)).nodes[0].online == ((0, 50), (50, 100))
    assert parse_scenario(minimal(duration=2**64 - 1)).duration == 2**64 - 1


def _readme_keys(heading: str) -> set[str]:
    text = (REPO / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return {key + model for key, model in re.findall(r"^\| `([^`]+)`( \(\w+\))?", section, re.M)}


def test_readme_table_lists_every_key():
    tables = {
        "": scenario.TOP,
        "nodes[].": scenario.NODE,
        "topology.": scenario.TOPOLOGY,
        "topology.partitions[].": scenario.PARTITION,
        "fork.": scenario.FORK,
        "adversary.": scenario.ADVERSARY,
        "workload.": scenario.WORKLOAD,
        "chain.": scenario.CHAIN,
        "consensus.": scenario.MODEL,
        **{f"consensus.({model})": table for model, table in scenario.CONSENSUS.items()},
    }
    keys = set()
    for prefix, table in tables.items():
        model = re.fullmatch(r"consensus\.\((\w+)\)", prefix)
        keys |= {f"consensus.{key} ({model.group(1)})" if model else prefix + key for key in table}
    readme = _readme_keys("Scenario files")
    assert keys - readme == set()
    assert readme - keys == set()


def test_readme_params_table_lists_every_key():
    keys = set(scenario.PARAMS) | {f"pow.{key}" for key in scenario.PARAMS_POW}
    readme = _readme_keys("Params files")
    assert keys - readme == set()
    assert readme - keys == set()


# -- hardening --------------------------------------------------------------------------

ALL_KEYS = sorted({key for table in (scenario.TOP, scenario.NODE, scenario.TOPOLOGY, scenario.PARTITION,
                                     scenario.FORK, scenario.ADVERSARY, scenario.WORKLOAD, scenario.CHAIN,
                                     scenario.MODEL, *scenario.CONSENSUS.values())
                   for key in table})
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
          | st.sampled_from(["n0", "n1", *scenario.MODELS, *scenario.ROLES, *scenario.FORK_KINDS,
                             *scenario.ADVERSARY_KINDS]))
NESTED = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(ALL_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.sampled_from(ALL_KEYS) | st.text(max_size=3), NESTED, max_size=8))
def test_arbitrary_input_raises_only_scenario_error(raw):
    try:
        parse_scenario(raw)
    except ScenarioError:
        pass


NAMES = ("n0", "n1", "n2", "n3")
EDGES = (-1, 0, 1, 2, 8, 255, 256, 2**16 - 1, 2**16, 2**62, 2**62 + 1, 2**64)
FLOAT_EDGES = (-1.0, 0.0, 1e-300, 1.5, 2.0**64, 2.0**65, 1e308)


def mostly(valid, edges):
    """A draw from valid nine times in ten, else one of edges."""
    return st.sampled_from([False] * 9 + [True]).flatmap(
        lambda edge: st.sampled_from(edges) if edge else valid
    )


INTS = mostly(st.integers(1, 40), EDGES)
AMOUNTS = mostly(st.integers(0, 100), (2**61, 2**62, 2**62 + 1))
FLOATS = mostly(st.sampled_from([0.5, 1.0, 10.0]), FLOAT_EDGES)
# disjoint [start, end) pairs, cut from sorted distinct ticks
INTERVALS = st.lists(st.integers(-5, 160), unique=True, max_size=6).map(
    lambda cuts: [list(pair) for pair in zip(sorted(cuts)[::2], sorted(cuts)[1::2])]
)


@st.composite
def small_scenarios(draw):
    """Scenarios of at most 4 nodes and 150 ticks, every section and key in
    play, each value mostly valid and otherwise at or past a bound."""

    def maybe(mapping: dict, key: str, values) -> None:
        if draw(st.booleans()):
            mapping[key] = draw(values)

    names = NAMES[: draw(st.integers(1, 4))]
    some_name = st.sampled_from(names)
    nodes = []
    for name in names:
        node = {"name": name, "role": draw(st.sampled_from(scenario.ROLES + (PUBLISHING,)))}
        maybe(node, "stake", AMOUNTS)
        maybe(node, "balance", AMOUNTS)
        maybe(node, "online", INTERVALS)
        nodes.append(node)
    publishers = [node for node in nodes if node["role"] == PUBLISHING]
    for node in publishers:
        node["hash_share"] = draw(mostly(st.just(1 / len(publishers)), FLOAT_EDGES))
    model = draw(st.sampled_from(scenario.MODELS))
    consensus = {"model": model}
    for key, spec in scenario.CONSENSUS[model].items():
        if key == "reputations":
            consensus[key] = {node["name"]: draw(INTS) for node in publishers}
        else:
            maybe(consensus, key, FLOATS if spec.kind is float else INTS)
    raw = {"seed": draw(INTS), "duration": draw(st.integers(1, 150)), "nodes": nodes,
           "consensus": consensus}
    for key in ("production_stop", "block_interval", "agreement_interval"):
        maybe(raw, key, INTS)
    if draw(st.booleans()):
        topology = raw["topology"] = {}
        maybe(topology, "latency", INTS)
        maybe(topology, "jitter", INTS)
        # partitions over disjoint intervals, each splitting the nodes in two
        # at a drawn index, with a node sometimes left out of both groups
        cut = st.integers(0, len(names))
        groups = st.tuples(cut, cut).map(lambda ab: [list(names[: min(ab)]), list(names[max(ab):])])
        partition = st.tuples(INTERVALS, st.lists(groups, min_size=3, max_size=3)).map(
            lambda pair: [{"start": start, "end": end, "groups": split}
                          for (start, end), split in zip(pair[0], pair[1])]
        )
        maybe(topology, "partitions", partition)
    if draw(st.booleans()):
        fork = raw["fork"] = {"kind": draw(st.sampled_from(scenario.FORK_KINDS)),
                              "activation_height": draw(INTS),
                              "adopters": draw(st.lists(some_name, unique=True))}
        maybe(fork, "new_rule_version", INTS)
    if draw(st.booleans()):
        adversary = raw["adversary"] = {"kind": draw(st.sampled_from(scenario.ADVERSARY_KINDS)),
                                        "node": draw(some_name)}
        maybe(adversary, "secret_depth", INTS)
        maybe(adversary, "delay_ticks", INTS)
        maybe(adversary, "victim", some_name)
    if draw(st.booleans()):
        workload = raw["workload"] = {}
        for key in ("tx_interval", "tx_amount", "tx_fee"):
            maybe(workload, key, INTS)
        maybe(workload, "submit_via", some_name)
    if draw(st.booleans()):
        chain = raw["chain"] = {}
        maybe(chain, "block_subsidy", INTS)
        maybe(chain, "max_block_data_bytes", st.integers(200, 5000))
        maybe(chain, "confirmation_depth", INTS)
    return raw


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_scenarios())
def test_every_accepted_scenario_runs(raw):
    try:
        config = parse_scenario(raw)
    except ScenarioError:
        return
    run_scenario(config)


def test_library_use_loads_neither_yaml_nor_multiprocessing():
    """Parsing a scenario mapping and running it imports no YAML reader, no
    process pool and no key serialization: each is loaded only by the code
    that needs it (a scenario or params file, a puzzle past its first chunk)."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(scenario.__file__).parent.parent)!r})",
        "from chainsim import netsim, scenario",
        f"netsim.run_scenario(scenario.parse_scenario({minimal(duration=40)!r}))",
        "names = ('yaml', 'multiprocessing', 'cryptography.hazmat.primitives.serialization')",
        "print(sorted(name for name in names if name in sys.modules))",
    ])
    run = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_parsing_loads_no_simulator(tmp_path):
    """The parser holds the run-configuration types it fills, so parsing a
    scenario mapping or a params file never imports the simulator."""
    params = tmp_path / "params.yaml"
    params.write_text("block_subsidy: 5\npow:\n  target_bits: 250\n")
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(scenario.__file__).parent.parent)!r})",
        "from chainsim import scenario",
        f"scenario.parse_scenario({minimal(duration=40)!r})",
        f"scenario.load_params({str(params)!r})",
        "print('chainsim.netsim' in sys.modules)",
    ])
    run = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"

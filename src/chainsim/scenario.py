"""Scenario configuration: the run-configuration types the simulator reads,
the YAML files describing a network run that fill them, and the chain params
file that ``chainsim chain init`` reads.

Every error is reported with the key path that caused it, and all errors in a
file are collected before raising, so a bad config surfaces its full damage in
one pass.  Each section's keys are read from one table that gives every key's
type and bounds; a key left out takes the default of the config dataclass
field it fills.  The config objects are built only from a file with no errors.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

from . import consensus as cons
from .chain import ChainParams
from .crypto import Address, KeyPair, derive_address, keypair_generate, sha256
from .ledger import MAX_SUPPLY

FULL = "full"
PUBLISHING = "publishing"
LIGHTWEIGHT = "lightweight"

SOFT = "soft"
HARD = "hard"

MAJORITY_REORG = "majority_reorg"
WITHHOLDING = "withholding"
CENSORSHIP = "censorship"


@dataclass(frozen=True)
class NodeSpec:
    name: str
    role: str = FULL
    hash_share: float = 0.0
    stake: int = 0
    balance: int = 0
    online: tuple[tuple[int, int], ...] = ()  # up intervals; empty means always up


@dataclass(frozen=True)
class PartitionSpec:
    start: int
    end: int
    groups: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class TopologySpec:
    latency: int = 1
    jitter: int = 0
    partitions: tuple[PartitionSpec, ...] = ()


@dataclass(frozen=True)
class ForkSchedule:
    kind: str  # soft | hard
    activation_height: int
    adopters: tuple[str, ...]
    new_rule_version: int = 1


@dataclass(frozen=True)
class AdversarySpec:
    kind: str
    node: str
    secret_depth: int = 3
    delay_ticks: int = 0
    victim: str = ""


@dataclass(frozen=True)
class WorkloadSpec:
    tx_interval: int = 0  # 0 disables the payment generator
    tx_amount: int = 5
    tx_fee: int = 1
    submit_via: str = ""  # node name; empty picks a random funded node


@dataclass(frozen=True)
class SimConfig:
    seed: int
    duration: int
    nodes: tuple[NodeSpec, ...]
    chain: ChainParams
    topology: TopologySpec = TopologySpec()
    fork: ForkSchedule | None = None
    adversary: AdversarySpec | None = None
    workload: WorkloadSpec = WorkloadSpec()
    block_interval: int = 10  # slot cadence for non-PoW models
    production_stop: int | None = None  # quiesce the network before the run ends
    agreement_interval: int = 10


@functools.lru_cache(maxsize=None)
def node_keypair(seed: int, name: str) -> KeyPair:
    """The node's signing key, derived from the scenario seed and its name.
    Memoised: the parser, the genesis allocation and the simulator ask for the
    same pairs, and each is derived once per process."""
    return keypair_generate(sha256(b"node-key" + struct.pack(">Q", seed) + name.encode()))


ROLES = (FULL, PUBLISHING, LIGHTWEIGHT)
FORK_KINDS = (SOFT, HARD)
ADVERSARY_KINDS = (MAJORITY_REORG, WITHHOLDING, CENSORSHIP)
MAX_SEED = 2**64 - 1  # seeds are packed as unsigned 64-bit integers
MAX_TICK = 2**64 - 1  # block timestamps are packed as unsigned 64-bit integers
MAX_RULE_VERSION = 2**16 - 1  # block headers pack the rule version in 16 bits


class ScenarioError(Exception):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


# ---------------------------------------------------------------------------
# Key tables
# ---------------------------------------------------------------------------

# A bound is a test on a well-typed value and the error when the test fails.
POSITIVE = (lambda v: v > 0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")


def at_least(low):
    return (lambda v: v >= low, f"must be at least {low}")


def at_most(high):
    return (lambda v: v <= high, f"must be at most {high}")


def between(low, high):
    return (lambda v: low <= v <= high, f"must be between {low} and {high}")


def one_of(choices):
    return (lambda v: v in choices, f"must be one of {choices}")


class Key:
    """One scenario key: its type, the bounds its value must meet (checked in
    order, the first failure reported), whether the file must give it, and a
    default where the scenario's differs from the config dataclass field's."""

    __slots__ = ("kind", "bounds", "required", "default")

    def __init__(self, kind, *bounds, required=False, default=None):
        self.kind, self.bounds, self.required, self.default = kind, bounds, required, default


TOP = {
    "seed": Key(int, between(0, MAX_SEED), required=True),
    "duration": Key(int, POSITIVE, at_most(MAX_TICK), required=True),
    "production_stop": Key(int),
    "block_interval": Key(int, POSITIVE),
    "agreement_interval": Key(int, POSITIVE),
    "nodes": Key(list, (len, "at least one node is required"), required=True),
    "topology": Key(dict),
    "fork": Key(dict),
    "adversary": Key(dict),
    "workload": Key(dict),
    "consensus": Key(dict, required=True),
    "chain": Key(dict),
}
NODE = {
    "name": Key(str, required=True),
    "role": Key(str, one_of(ROLES)),
    "hash_share": Key(float, NON_NEGATIVE, at_most(1)),
    "stake": Key(int, NON_NEGATIVE),
    "balance": Key(int, NON_NEGATIVE),
    "online": Key(list),
}
TOPOLOGY = {
    "latency": Key(int, at_least(1)),
    "jitter": Key(int, NON_NEGATIVE),
    "partitions": Key(list),
}
PARTITION = {
    "start": Key(int, required=True),
    "end": Key(int, required=True),
    "groups": Key(list, required=True),
}
FORK = {
    "kind": Key(str, one_of(FORK_KINDS), required=True),
    "activation_height": Key(int, at_least(1), required=True),
    "adopters": Key(list, required=True),
    "new_rule_version": Key(int, between(0, MAX_RULE_VERSION)),
}
ADVERSARY = {
    "kind": Key(str, one_of(ADVERSARY_KINDS), required=True),
    "node": Key(str, required=True),
    "secret_depth": Key(int, NON_NEGATIVE),
    "delay_ticks": Key(int, NON_NEGATIVE),
    "victim": Key(str),
}
WORKLOAD = {
    "tx_interval": Key(int, NON_NEGATIVE),
    "tx_amount": Key(int, POSITIVE),
    "tx_fee": Key(int, NON_NEGATIVE),
    "submit_via": Key(str),
}
CHAIN = {
    "block_subsidy": Key(int, NON_NEGATIVE, at_most(MAX_SUPPLY)),
    "max_block_data_bytes": Key(int, at_least(256)),
    "confirmation_depth": Key(int, at_least(1)),
}
CONSENSUS = {
    "pow": {
        "target_bits": Key(int, between(8, 255), default=250),
        "retarget_interval": Key(int, at_least(1)),
        "target_spacing": Key(int, at_least(1)),
    },
    "pos_chain": {},
    "pos_coinage": {
        "age_threshold": Key(int, default=1),
        "weight_cap": Key(int, at_least(1)),
    },
    "round_robin": {},
    "poa": {"reputations": Key(dict, required=True), "r_max": Key(int, at_least(1))},
    "poet": {"mean_wait": Key(float, POSITIVE, at_most(MAX_TICK))},
}
MODELS = tuple(CONSENSUS)
MODEL = {"model": Key(str, one_of(MODELS), required=True)}
# The params file: a chain's genesis parameters, with literal PoW as its one
# consensus model.
PARAMS = {
    **CHAIN,
    "max_block_data_bytes": Key(int, at_least(1)),
    "allocation": Key(list),
    "pow": Key(dict),
}
PARAMS_POW = {**CONSENSUS["pow"], "target_bits": Key(int, between(8, 255), default=252)}

_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "a mapping", list: "a list"
}


class _Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def typed(self, value, name: str, kind):
        """value if it has kind (a number is returned as a float), else None
        after reporting it.  A bool is not a number."""
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            self.fail(name, f"expected {_KIND_NAMES[kind]}, got {value!r}")
            return None
        if kind is not float:
            return value
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            self.fail(name, f"expected a finite number, got {value!r}")
            return None
        return number

    def read(self, raw: dict, path: str, table: dict, unknown: str | None = "unknown key") -> dict:
        """The values in raw that have their table key's type and bounds,
        plus the table's defaults for keys left out (a null counts as left
        out).  Reports each key missing from the table (with the unknown
        message, unless it is None), missing though required, of the wrong
        type, or out of bounds; such a key is left out of the result."""
        prefix = f"{path}." if path else ""
        if unknown is not None:
            for key in raw:
                if key not in table:
                    self.fail(f"{prefix}{key}", unknown)
        values = {}
        for key, spec in table.items():
            name = prefix + key
            value = raw.get(key)
            if value is None:
                if spec.required:
                    self.fail(name, "required key is missing")
                elif spec.default is not None:
                    values[key] = spec.default
                continue
            value = self.typed(value, name, spec.kind)
            if value is None:
                continue
            for ok, message in spec.bounds:
                if not ok(value):
                    self.fail(name, message)
                    break
            else:
                values[key] = value
        return values


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _read_mapping(path: str) -> dict:
    """The YAML document in the file at path, which must be a mapping."""
    import yaml  # only files need it; parse_scenario on a mapping does not

    with open(path, "rb") as fh:  # yaml decodes, and reports bytes that are not text
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ScenarioError(["top level: expected a mapping"])
    return raw


def load_params(path: str) -> ChainParams:
    """Parse a chain params file: the chain keys, a genesis allocation of
    [address_hex, amount] pairs and an optional literal-PoW section."""
    c = _Checker()
    values = c.read(_read_mapping(path), "", PARAMS)
    allocation = []
    for i, pair in enumerate(values.pop("allocation", [])):
        where = f"allocation[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            c.fail(where, "expected [address_hex, amount]")
            continue
        try:
            address = Address.from_hex(str(pair[0]))
        except ValueError as exc:
            c.fail(where, str(exc))
            continue
        if isinstance(pair[1], bool) or not isinstance(pair[1], int) or pair[1] <= 0:
            c.fail(where, "amount must be a positive integer")
            continue
        allocation.append((address, pair[1]))
    if sum(amount for _, amount in allocation) > MAX_SUPPLY:
        c.fail("allocation", f"total exceeds the maximum supply {MAX_SUPPLY}")
    pow_values = values.pop("pow", None)
    if pow_values is not None:
        pow_values = c.read(pow_values, "pow", PARAMS_POW)
    if c.errors:
        raise ScenarioError(c.errors)
    consensus = None
    if pow_values is not None:
        consensus = cons.PowParams(target=1 << pow_values.pop("target_bits"), **pow_values)
    return ChainParams(genesis_allocation=tuple(allocation), consensus=consensus, **values)


def load_scenario(path: str, seed: int | None = None) -> SimConfig:
    """Parse a scenario file.  A seed other than None replaces the file's
    before parsing, so everything derived from the seed (node keys, publisher
    addresses, PoET's draw seed) follows it."""
    raw = _read_mapping(path)
    if seed is not None:
        raw["seed"] = seed
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> SimConfig:
    c = _Checker()
    top = c.read(raw, "", TOP)
    nodes = _parse_nodes(c, top.pop("nodes", []))
    names = [spec.name for spec in nodes]
    topology = _parse_topology(c, top.pop("topology", {}), names)
    fork = _parse_fork(c, top.pop("fork", None), names)
    adversary = _parse_adversary(c, top.pop("adversary", None), names)
    workload = _parse_workload(c, top.pop("workload", {}), names)
    consensus = _parse_consensus(c, top.pop("consensus", None), nodes)
    chain = c.read(top.pop("chain", {}), "chain", CHAIN)

    if c.errors:
        raise ScenarioError(c.errors)
    nodes = tuple(nodes)
    return SimConfig(
        nodes=nodes,
        chain=ChainParams(consensus=_consensus_params(consensus, nodes, top["seed"]), **chain),
        topology=TopologySpec(**topology),
        fork=None if fork is None else ForkSchedule(**fork),
        adversary=None if adversary is None else AdversarySpec(**adversary),
        workload=WorkloadSpec(**workload),
        **top,
    )


def _parse_nodes(c: _Checker, raw: list) -> list[NodeSpec]:
    """Each node with a valid name, its fields the node's valid values, for
    the rules across keys to read."""
    specs: list[NodeSpec] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        path = f"nodes[{i}]"
        item = c.typed(item, path, dict)
        if item is None:
            continue
        values = c.read(item, path, NODE)
        if "name" not in values:
            continue
        if values["name"] in seen:
            c.fail(f"{path}.name", f"duplicate node name {values['name']!r}")
        seen.add(values["name"])
        if values.get("hash_share", 0) > 0 and values.get("role", FULL) != PUBLISHING:
            c.fail(f"{path}.hash_share", "must be 0 unless the role is publishing")
        values["online"] = _parse_intervals(c, values.get("online", []), f"{path}.online")
        specs.append(NodeSpec(**values))
    total = sum(spec.balance + spec.stake for spec in specs)
    if total > MAX_SUPPLY:
        c.fail("nodes", f"balance plus stake totals {total}, above the maximum supply {MAX_SUPPLY}")
    return specs


def _parse_intervals(c: _Checker, raw: list, path: str) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            c.fail(f"{path}[{i}]", "expected [start, end] integers")
            continue
        start, end = pair
        if start >= end:
            c.fail(f"{path}[{i}]", "start must be below end")
            continue
        for j in _overlapping(start, end, out):
            c.fail(f"{path}[{i}]", f"overlaps {path}[{j}]")
        out.append((start, end))
    return tuple(out)


def _overlapping(start: int, end: int, intervals) -> list[int]:
    """The indexes of the [start, end) intervals that share a tick with
    [start, end); two that only touch share none."""
    return [i for i, (low, high) in enumerate(intervals) if start < high and low < end]


def _parse_topology(c: _Checker, raw: dict, names: list[str]) -> dict:
    values = c.read(raw, "topology", TOPOLOGY)
    partitions: list[PartitionSpec] = []
    for i, item in enumerate(values.get("partitions", [])):
        path = f"topology.partitions[{i}]"
        item = c.typed(item, path, dict)
        if item is None:
            continue
        part = c.read(item, path, PARTITION)
        if len(part) < len(PARTITION):  # a required key failed
            continue
        start, end = part["start"], part["end"]
        if start >= end:
            c.fail(path, "start must be below end")
        groups = []
        group_of: dict[str, int] = {}
        for gi, group in enumerate(part["groups"]):
            gpath = f"{path}.groups[{gi}]"
            group = c.typed(group, gpath, list)
            if group is None:
                continue
            for member in group:
                if member not in names:
                    c.fail(gpath, f"unknown node {member!r}")
                elif group_of.setdefault(member, gi) != gi:
                    c.fail(gpath, f"node {member!r} is already in groups[{group_of[member]}]")
            groups.append(tuple(group))
        for pi in _overlapping(start, end, [(other.start, other.end) for other in partitions]):
            c.fail(path, f"overlaps topology.partitions[{pi}]")
        partitions.append(PartitionSpec(start=start, end=end, groups=tuple(groups)))
    if "partitions" in values:
        values["partitions"] = tuple(partitions)
    return values


def _parse_fork(c: _Checker, raw: dict | None, names: list[str]) -> dict | None:
    if raw is None:
        return None
    values = c.read(raw, "fork", FORK)
    for name in values.get("adopters", []):
        if name not in names:
            c.fail("fork.adopters", f"unknown node {name!r}")
    if "adopters" in values:
        values["adopters"] = tuple(values["adopters"])
    return values


def _parse_adversary(c: _Checker, raw: dict | None, names: list[str]) -> dict | None:
    if raw is None:
        return None
    values = c.read(raw, "adversary", ADVERSARY)
    if "node" in values and values["node"] not in names:
        c.fail("adversary.node", f"unknown node {values['node']!r}")
    victim = values.get("victim")
    if values.get("kind") == CENSORSHIP and not victim:
        c.fail("adversary.victim", "censorship needs a victim node")
    if victim and victim not in names:
        c.fail("adversary.victim", f"unknown node {victim!r}")
    return values


def _parse_workload(c: _Checker, raw: dict, names: list[str]) -> dict:
    values = c.read(raw, "workload", WORKLOAD)
    via = values.get("submit_via")
    if via and via not in names:
        c.fail("workload.submit_via", f"unknown node {via!r}")
    if values.get("tx_interval") and len(names) < 2:
        # a payment goes from one node to another
        c.fail("workload.tx_interval", "payments need at least two nodes")
    return values


def _parse_consensus(c: _Checker, raw: dict | None, nodes: list[NodeSpec]) -> dict | None:
    if raw is None:
        return None
    model = c.read(raw, "consensus", MODEL, unknown=None).get("model")
    if model is None:
        return None
    table = {**MODEL, **CONSENSUS[model]}
    values = c.read(raw, "consensus", table, unknown=f"unknown key for model {model!r}")
    publishers = [spec for spec in nodes if spec.role == PUBLISHING]
    if model == "pow":
        total = math.fsum(spec.hash_share for spec in publishers)
        if publishers and abs(total - 1.0) > 1e-9:
            c.fail("nodes", f"publishing hash_share values must sum to 1, got {total}")
    elif model in ("pos_chain", "pos_coinage"):
        if not any(spec.stake > 0 for spec in nodes):
            c.fail("nodes", f"{model} needs at least one node with stake")
    elif model in ("round_robin", "poet"):
        if not publishers:
            c.fail("nodes", f"{model} needs publishing nodes")
    elif "reputations" in values:
        names = [spec.name for spec in publishers]
        in_range, out_of_range = between(0, values.get("r_max", cons.PoaParams.r_max))
        reputations = {}
        for name, rep in values["reputations"].items():
            path = f"consensus.reputations.{name}"
            if name not in names:
                c.fail(path, "not a publishing node")
            elif c.typed(rep, path, int) is None:
                pass
            elif in_range(rep):
                reputations[name] = rep
            else:
                c.fail(path, out_of_range)
        if not reputations:
            c.fail("consensus.reputations", "needs at least one authority")
        elif not any(reputations.values()):
            # poa_select weighs authorities by reputation: all 0, none is picked
            c.fail("consensus.reputations", "needs at least one reputation above 0")
        values["reputations"] = reputations
    return values


def _consensus_params(values: dict, nodes: tuple[NodeSpec, ...], seed: int):
    """The consensus params of a section with no errors.  Publishers are
    named by the addresses of their keys, which derive from the seed."""
    model = values.pop("model")
    if model == "pow":
        return cons.PowParams(target=1 << values.pop("target_bits"), simulated=True, **values)
    if model == "pos_chain":
        return cons.PosChainParams()
    if model == "pos_coinage":
        return cons.PosCoinAgeParams(**values)
    address = {
        spec.name: derive_address(node_keypair(seed, spec.name).public_key)
        for spec in nodes
        if spec.role == PUBLISHING
    }
    if model == "poa":
        authorities = {address[name]: rep for name, rep in values.pop("reputations").items()}
        return cons.PoaParams(authorities=authorities, **values)
    if model == "round_robin":
        return cons.RoundRobinParams(publishers=tuple(address.values()))
    return cons.PoetParams(publishers=tuple(address.values()), seed=seed, **values)

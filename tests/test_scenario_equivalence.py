"""Scenario parsing against the earlier per-key parser.

parse_scenario reads each section from one key table and builds the config
objects only from a file with no errors.  The reference below is the parser
it replaced, which read each key by hand, restated the dataclass defaults
and built the config objects even after an error.  Over mutations of the
bundled scenarios and of minimal(), the two must both accept with equal
SimConfigs, or both reject with the same error lines (in any order).  The
only differences allowed are the ones _new_only_allowed and
_reference_only_allowed name: the new bounds, and error lines that depend on
another error in the same file.
Where the reference raises something other than its ScenarioError (it
passed a bad value on to ChainParams, or overflowed summing hash shares),
the new parser must reject the file.
"""

import copy
import math
import re
from collections import Counter

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsim import consensus as cons
from chainsim.chain import ChainParams
from chainsim.crypto import derive_address
from chainsim.scenario import (
    FULL,
    LIGHTWEIGHT,
    PUBLISHING,
    AdversarySpec,
    CENSORSHIP,
    ForkSchedule,
    HARD,
    MAJORITY_REORG,
    NodeSpec,
    PartitionSpec,
    ScenarioError,
    SimConfig,
    SOFT,
    TopologySpec,
    WITHHOLDING,
    WorkloadSpec,
    node_keypair,
    parse_scenario,
)
from chainsim import scenario

from test_golden_grid import POINTS
from test_scenario import SCENARIO_DIR, minimal

# ---------------------------------------------------------------------------
# Reference: the parser that read each key by hand
# ---------------------------------------------------------------------------

ROLES = (FULL, PUBLISHING, LIGHTWEIGHT)
FORK_KINDS = (SOFT, HARD)
ADVERSARY_KINDS = (MAJORITY_REORG, WITHHOLDING, CENSORSHIP)
MODELS = ("pow", "pos_chain", "pos_coinage", "round_robin", "poa", "poet")
MAX_SEED = 2**64 - 1  # seeds are packed as unsigned 64-bit integers

_TOP_KEYS = {
    "seed",
    "duration",
    "production_stop",
    "block_interval",
    "agreement_interval",
    "chain",
    "consensus",
    "nodes",
    "topology",
    "fork",
    "adversary",
    "workload",
}


class ReferenceScenarioError(Exception):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


class _Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def require(self, mapping: dict, path: str, key: str, kind):
        name = f"{path}.{key}" if path else key
        if key not in mapping:
            self.fail(name, "required key is missing")
            return None
        return self.typed(mapping[key], name, kind)

    def optional(self, mapping: dict, path: str, key: str, kind, default):
        name = f"{path}.{key}" if path else key
        if key not in mapping or mapping[key] is None:
            return default
        return self.typed(mapping[key], name, kind)

    def typed(self, value, name: str, kind):
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                self.fail(name, f"expected an integer, got {value!r}")
                return None
            return value
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.fail(name, f"expected a number, got {value!r}")
                return None
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                self.fail(name, f"expected a finite number, got {value!r}")
                return None
            return number
        if kind is str:
            if not isinstance(value, str):
                self.fail(name, f"expected a string, got {value!r}")
                return None
            return value
        if kind is dict:
            if not isinstance(value, dict):
                self.fail(name, f"expected a mapping, got {value!r}")
                return None
            return value
        if kind is list:
            if not isinstance(value, list):
                self.fail(name, f"expected a list, got {value!r}")
                return None
            return value
        raise AssertionError(kind)


def reference_parse_scenario(raw: dict) -> SimConfig:
    c = _Checker()
    for key in raw:
        if key not in _TOP_KEYS:
            c.fail(key, "unknown key")

    seed = c.require(raw, "", "seed", int)
    if seed is not None and not 0 <= seed <= MAX_SEED:
        c.fail("seed", f"must be between 0 and {MAX_SEED}")
        seed = None
    duration = c.require(raw, "", "duration", int)
    if duration is not None and duration <= 0:
        c.fail("duration", "must be positive")
    production_stop = c.optional(raw, "", "production_stop", int, None)
    block_interval = c.optional(raw, "", "block_interval", int, 10)
    agreement_interval = c.optional(raw, "", "agreement_interval", int, 10)
    if block_interval is not None and block_interval <= 0:
        c.fail("block_interval", "must be positive")
    if agreement_interval is not None and agreement_interval <= 0:
        c.fail("agreement_interval", "must be positive")

    nodes = _parse_nodes(c, raw.get("nodes"))
    names = [spec.name for spec in nodes]
    topology = _parse_topology(c, raw.get("topology"), names, duration)
    fork = _parse_fork(c, raw.get("fork"), names)
    adversary = _parse_adversary(c, raw.get("adversary"), names)
    workload = _parse_workload(c, raw.get("workload"), names)
    consensus = _parse_consensus(c, raw.get("consensus"), nodes, seed)
    chain = _parse_chain(c, raw.get("chain"), consensus)

    if c.errors:
        raise ReferenceScenarioError(c.errors)
    return SimConfig(
        seed=seed,
        duration=duration,
        nodes=tuple(nodes),
        chain=chain,
        topology=topology,
        fork=fork,
        adversary=adversary,
        workload=workload,
        block_interval=block_interval,
        production_stop=production_stop,
        agreement_interval=agreement_interval,
    )


def _parse_nodes(c: _Checker, raw) -> list[NodeSpec]:
    if raw is None:
        c.fail("nodes", "required key is missing")
        return []
    raw = c.typed(raw, "nodes", list)
    if not raw:
        c.fail("nodes", "at least one node is required")
        return []
    specs: list[NodeSpec] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        path = f"nodes[{i}]"
        item = c.typed(item, path, dict)
        if item is None:
            continue
        for key in item:
            if key not in {"name", "role", "hash_share", "stake", "balance", "online"}:
                c.fail(f"{path}.{key}", "unknown key")
        name = c.require(item, path, "name", str)
        if name is None:
            continue
        if name in seen:
            c.fail(f"{path}.name", f"duplicate node name {name!r}")
        seen.add(name)
        role = c.optional(item, path, "role", str, FULL)
        if role not in ROLES:
            c.fail(f"{path}.role", f"must be one of {ROLES}")
            role = FULL
        share = c.optional(item, path, "hash_share", float, 0.0)
        stake = c.optional(item, path, "stake", int, 0)
        balance = c.optional(item, path, "balance", int, 0)
        if share is not None and share < 0:
            c.fail(f"{path}.hash_share", "must be non-negative")
            share = 0.0
        if stake is not None and stake < 0:
            c.fail(f"{path}.stake", "must be non-negative")
        if balance is not None and balance < 0:
            c.fail(f"{path}.balance", "must be non-negative")
        online = _parse_intervals(c, item.get("online"), f"{path}.online")
        specs.append(
            NodeSpec(
                name=name,
                role=role,
                hash_share=share or 0.0,
                stake=stake or 0,
                balance=balance or 0,
                online=online,
            )
        )
    return specs


def _parse_intervals(c: _Checker, raw, path: str) -> tuple[tuple[int, int], ...]:
    if raw is None:
        return ()
    raw = c.typed(raw, path, list)
    if raw is None:
        return ()
    out = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            c.fail(f"{path}[{i}]", "expected [start, end] integers")
            continue
        if pair[0] >= pair[1]:
            c.fail(f"{path}[{i}]", "start must be below end")
            continue
        out.append((pair[0], pair[1]))
    return tuple(out)


def _parse_topology(c: _Checker, raw, names: list[str], duration) -> TopologySpec:
    if raw is None:
        return TopologySpec()
    raw = c.typed(raw, "topology", dict)
    if raw is None:
        return TopologySpec()
    for key in raw:
        if key not in {"latency", "jitter", "partitions"}:
            c.fail(f"topology.{key}", "unknown key")
    latency = c.optional(raw, "topology", "latency", int, 1)
    jitter = c.optional(raw, "topology", "jitter", int, 0)
    if latency is not None and latency < 1:
        c.fail("topology.latency", "must be at least 1")
    if jitter is not None and jitter < 0:
        c.fail("topology.jitter", "must be non-negative")
    partitions: list[tuple[int, PartitionSpec]] = []
    for i, item in enumerate(c.optional(raw, "topology", "partitions", list, []) or []):
        path = f"topology.partitions[{i}]"
        item = c.typed(item, path, dict)
        if item is None:
            continue
        start = c.require(item, path, "start", int)
        end = c.require(item, path, "end", int)
        groups_raw = c.require(item, path, "groups", list)
        if None in (start, end, groups_raw):
            continue
        if start >= end:
            c.fail(path, "start must be below end")
        groups = []
        group_of: dict[str, int] = {}
        for gi, group in enumerate(groups_raw):
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
        for pi, other in partitions:
            if start < other.end and other.start < end:
                c.fail(path, f"overlaps topology.partitions[{pi}]")
        partitions.append((i, PartitionSpec(start=start, end=end, groups=tuple(groups))))
    return TopologySpec(
        latency=latency or 1, jitter=jitter or 0, partitions=tuple(spec for _, spec in partitions)
    )


def _parse_fork(c: _Checker, raw, names: list[str]) -> ForkSchedule | None:
    if raw is None:
        return None
    raw = c.typed(raw, "fork", dict)
    if raw is None:
        return None
    for key in raw:
        if key not in {"kind", "activation_height", "adopters", "new_rule_version"}:
            c.fail(f"fork.{key}", "unknown key")
    kind = c.require(raw, "fork", "kind", str)
    if kind is not None and kind not in FORK_KINDS:
        c.fail("fork.kind", f"must be one of {FORK_KINDS}")
    height = c.require(raw, "fork", "activation_height", int)
    if height is not None and height < 1:
        c.fail("fork.activation_height", "must be at least 1")
    adopters = c.require(raw, "fork", "adopters", list)
    version = c.optional(raw, "fork", "new_rule_version", int, 1)
    if adopters is None:
        return None
    for name in adopters:
        if name not in names:
            c.fail("fork.adopters", f"unknown node {name!r}")
    return ForkSchedule(
        kind=kind or SOFT,
        activation_height=height or 1,
        adopters=tuple(adopters),
        new_rule_version=version if version is not None else 1,
    )


def _parse_adversary(c: _Checker, raw, names: list[str]) -> AdversarySpec | None:
    if raw is None:
        return None
    raw = c.typed(raw, "adversary", dict)
    if raw is None:
        return None
    for key in raw:
        if key not in {"kind", "node", "secret_depth", "delay_ticks", "victim"}:
            c.fail(f"adversary.{key}", "unknown key")
    kind = c.require(raw, "adversary", "kind", str)
    if kind is not None and kind not in ADVERSARY_KINDS:
        c.fail("adversary.kind", f"must be one of {ADVERSARY_KINDS}")
    node = c.require(raw, "adversary", "node", str)
    if node is not None and node not in names:
        c.fail("adversary.node", f"unknown node {node!r}")
    depth = c.optional(raw, "adversary", "secret_depth", int, 3)
    delay = c.optional(raw, "adversary", "delay_ticks", int, 0)
    victim = c.optional(raw, "adversary", "victim", str, "")
    if kind == CENSORSHIP and not victim:
        c.fail("adversary.victim", "censorship needs a victim node")
    if victim and victim not in names:
        c.fail("adversary.victim", f"unknown node {victim!r}")
    return AdversarySpec(
        kind=kind or WITHHOLDING,
        node=node or "",
        secret_depth=depth if depth is not None else 3,
        delay_ticks=delay or 0,
        victim=victim or "",
    )


def _parse_workload(c: _Checker, raw, names: list[str]) -> WorkloadSpec:
    if raw is None:
        return WorkloadSpec()
    raw = c.typed(raw, "workload", dict)
    if raw is None:
        return WorkloadSpec()
    for key in raw:
        if key not in {"tx_interval", "tx_amount", "tx_fee", "submit_via"}:
            c.fail(f"workload.{key}", "unknown key")
    interval = c.optional(raw, "workload", "tx_interval", int, 0)
    amount = c.optional(raw, "workload", "tx_amount", int, 5)
    fee = c.optional(raw, "workload", "tx_fee", int, 1)
    via = c.optional(raw, "workload", "submit_via", str, "")
    if interval is not None and interval < 0:
        c.fail("workload.tx_interval", "must be non-negative")
    if amount is not None and amount <= 0:
        c.fail("workload.tx_amount", "must be positive")
    if fee is not None and fee < 0:
        c.fail("workload.tx_fee", "must be non-negative")
    if via and via not in names:
        c.fail("workload.submit_via", f"unknown node {via!r}")
    return WorkloadSpec(
        tx_interval=interval or 0,
        tx_amount=amount or 5,
        tx_fee=fee if fee is not None else 1,
        submit_via=via or "",
    )


def _parse_consensus(c: _Checker, raw, nodes: list[NodeSpec], seed) -> object:
    if raw is None:
        c.fail("consensus", "required key is missing")
        return None
    raw = c.typed(raw, "consensus", dict)
    if raw is None:
        return None
    model = c.require(raw, "consensus", "model", str)
    if model is None:
        return None
    if model not in MODELS:
        c.fail("consensus.model", f"must be one of {MODELS}")
        return None

    publishers = [spec for spec in nodes if spec.role == PUBLISHING]
    pub_addrs = {
        spec.name: derive_address(node_keypair(seed or 0, spec.name).public_key)
        for spec in publishers
    }

    known = {"model"}
    params: object = None
    if model == "pow":
        known |= {"target_bits", "retarget_interval", "target_spacing"}
        bits = c.optional(raw, "consensus", "target_bits", int, 250)
        interval = c.optional(raw, "consensus", "retarget_interval", int, 16)
        spacing = c.optional(raw, "consensus", "target_spacing", int, 10)
        if bits is not None and not 8 <= bits <= 255:
            c.fail("consensus.target_bits", "must be between 8 and 255")
            bits = 250
        for key, value in (("retarget_interval", interval), ("target_spacing", spacing)):
            if value is not None and value < 1:
                c.fail(f"consensus.{key}", "must be at least 1")
        total = math.fsum(spec.hash_share for spec in publishers)
        if publishers and abs(total - 1.0) > 1e-9:
            c.fail("nodes", f"publishing hash_share values must sum to 1, got {total}")
        params = cons.PowParams(
            target=1 << (bits or 250),
            retarget_interval=interval if interval is not None else 16,
            target_spacing=spacing if spacing is not None else 10,
            simulated=True,
        )
    elif model in ("pos_chain", "pos_coinage"):
        staked = [spec for spec in nodes if spec.stake > 0]
        if not staked:
            c.fail("nodes", f"{model} needs at least one node with stake")
        if model == "pos_chain":
            params = cons.PosChainParams()
        else:
            known |= {"age_threshold", "weight_cap"}
            threshold = c.optional(raw, "consensus", "age_threshold", int, 1)
            cap = c.optional(raw, "consensus", "weight_cap", int, cons.PosCoinAgeParams().weight_cap)
            if cap is not None and cap < 1:
                c.fail("consensus.weight_cap", "must be at least 1")
            params = cons.PosCoinAgeParams(
                age_threshold=threshold if threshold is not None else 1,
                weight_cap=cap if cap is not None else cons.PosCoinAgeParams().weight_cap,
            )
    elif model == "round_robin":
        if not publishers:
            c.fail("nodes", "round_robin needs publishing nodes")
            return None
        params = cons.RoundRobinParams(
            publishers=tuple(pub_addrs[spec.name] for spec in publishers)
        )
    elif model == "poa":
        known |= {"reputations", "r_max"}
        reps = c.require(raw, "consensus", "reputations", dict)
        r_max = c.optional(raw, "consensus", "r_max", int, 100)
        if r_max is not None and r_max < 1:
            c.fail("consensus.r_max", "must be at least 1")
            r_max = None
        if reps is None:
            return None
        authorities = {}
        for name, rep in reps.items():
            if name not in pub_addrs:
                c.fail(f"consensus.reputations.{name}", "not a publishing node")
                continue
            rep = c.typed(rep, f"consensus.reputations.{name}", int)
            if rep is None:
                continue
            if r_max is not None and not 0 <= rep <= r_max:
                c.fail(f"consensus.reputations.{name}", f"must be between 0 and {r_max}")
                continue
            authorities[pub_addrs[name]] = rep
        if not authorities:
            c.fail("consensus.reputations", "needs at least one authority")
            return None
        if not any(authorities.values()):
            # poa_select weighs authorities by reputation: all 0, none is picked
            c.fail("consensus.reputations", "needs at least one reputation above 0")
            return None
        if r_max is None:
            return None
        params = cons.PoaParams(authorities=authorities, r_max=r_max)
    elif model == "poet":
        known |= {"mean_wait"}
        mean_wait = c.optional(raw, "consensus", "mean_wait", float, 10.0)
        if mean_wait is not None and mean_wait <= 0:
            c.fail("consensus.mean_wait", "must be positive")
        if not publishers:
            c.fail("nodes", "poet needs publishing nodes")
            return None
        params = cons.PoetParams(
            publishers=tuple(pub_addrs[spec.name] for spec in publishers),
            mean_wait=mean_wait if mean_wait is not None else 10.0,
            seed=seed or 0,
        )

    for key in raw:
        if key not in known:
            c.fail(f"consensus.{key}", f"unknown key for model {model!r}")
    return params


def _parse_chain(c: _Checker, raw, consensus) -> ChainParams:
    raw = raw if raw is not None else {}
    raw = c.typed(raw, "chain", dict)
    if raw is None:
        raw = {}
    for key in raw:
        if key not in {"block_subsidy", "max_block_data_bytes", "confirmation_depth"}:
            c.fail(f"chain.{key}", "unknown key")
    subsidy = c.optional(raw, "chain", "block_subsidy", int, 50)
    max_bytes = c.optional(raw, "chain", "max_block_data_bytes", int, 65536)
    depth = c.optional(raw, "chain", "confirmation_depth", int, 6)
    if subsidy is not None and subsidy < 0:
        c.fail("chain.block_subsidy", "must be non-negative")
        subsidy = 50
    if max_bytes is not None and max_bytes < 256:
        c.fail("chain.max_block_data_bytes", "must be at least 256")
    if depth is not None and depth < 1:
        c.fail("chain.confirmation_depth", "must be at least 1")
        depth = 6
    return ChainParams(
        consensus=consensus,
        block_subsidy=subsidy if subsidy is not None else 50,
        max_block_data_bytes=max_bytes or 65536,
        confirmation_depth=depth or 6,
    )


# ---------------------------------------------------------------------------
# The differences allowed, by rule
# ---------------------------------------------------------------------------

# Bounds the reference lacked.  Each value they reject crashed a run (or,
# for the summed hash shares, the reference parser itself): a rule version
# beyond the header's 16 bits, a subsidy or genesis allocation above the
# maximum supply, a delivery scheduled in the past, payments with no second
# node, overlapping up-intervals counted twice, a timestamp beyond 64 bits,
# an infinite PoET wait.  Partition entries now have a key table, so their
# unknown keys are reported instead of ignored.  A hash share on a node that
# is not publishing was parsed and then ignored; it is now an error.
NEW_BOUND = re.compile(
    r"fork\.new_rule_version: must be between 0 and 65535"
    r"|chain\.block_subsidy: must be at most 4611686018427387904"
    r"|adversary\.(delay_ticks|secret_depth): must be non-negative"
    r"|nodes: balance plus stake totals \d+, above the maximum supply 4611686018427387904"
    r"|workload\.tx_interval: payments need at least two nodes"
    r"|nodes\[\d+\]\.online\[\d+\]: overlaps nodes\[\d+\]\.online\[\d+\]"
    r"|duration: must be at most 18446744073709551615"
    r"|nodes\[\d+\]\.hash_share: must be at most 1"
    r"|nodes\[\d+\]\.hash_share: must be 0 unless the role is publishing"
    r"|consensus\.mean_wait: must be at most 18446744073709551615"
    r"|topology\.partitions\[\d+\]\..*: unknown key"
)

# Errors after which the reference returned from its consensus check before
# it looked for unknown keys.
CONSENSUS_EARLY_RETURN = re.compile(
    r"consensus\.reputations: .*|consensus\.r_max: .*|nodes: (round_robin|poet) needs publishing nodes"
)


def _node_has_no_name(raw: dict, index: int) -> bool:
    nodes = raw.get("nodes")
    node = nodes[index] if isinstance(nodes, list) and index < len(nodes) else None
    return isinstance(node, dict) and not isinstance(node.get("name"), str)


def _r_max_failed(ref_errors: list[str]) -> bool:
    return any(line.startswith("consensus.r_max: ") for line in ref_errors)


def _share_above_one(new_errors: list[str]) -> bool:
    return any(line.endswith(".hash_share: must be at most 1") for line in new_errors)


def _new_only_allowed(raw: dict, line: str, new_errors: list[str], ref_errors: list[str]) -> bool:
    """Why the new parser may report a line the reference did not."""
    path = line.split(": ")[0]
    node = re.match(r"nodes\[(\d+)\]\.", line)
    return (
        bool(NEW_BOUND.fullmatch(line))
        # a null required key is missing, where the reference reported its type
        or line.endswith(": required key is missing")
        and any(e.startswith(f"{path}: expected") and e.endswith("got None") for e in ref_errors)
        # a node whose name fails still has its other keys checked
        or node is not None and _node_has_no_name(raw, int(node.group(1)))
        # unknown consensus keys are reported whatever else fails
        or bool(re.fullmatch(r"consensus\..*: unknown key for model '\w+'", line))
        and any(CONSENSUS_EARLY_RETURN.fullmatch(e) for e in ref_errors)
        # with r_max failed, reputations are checked against the default r_max
        or line.startswith("consensus.reputations") and _r_max_failed(ref_errors)
        # a hash share that fails its bound is left out of the sum
        or line.startswith("nodes: publishing hash_share values must sum to 1") and _share_above_one(new_errors)
    )


def _reference_only_allowed(raw: dict, line: str, new_errors: list[str], ref_errors: list[str]) -> bool:
    """Why the reference may report a line the new parser does not."""
    path = line.split(": ")[0]
    return (
        # a value of the wrong type gets its type error only, not also a bound
        # error ("must be one of") or the emptiness error of nodes
        (line.startswith(f"{path}: must be one of") or line == "nodes: at least one node is required")
        and any(e.startswith(f"{path}: expected") for e in new_errors)
        # a null required key: see _new_only_allowed
        or line.endswith("got None") and f"{path}: required key is missing" in new_errors
        or line.startswith("consensus.reputations") and _r_max_failed(ref_errors)
        or line.startswith("nodes: publishing hash_share values must sum to 1") and _share_above_one(new_errors)
    )


def _outcome(parse, raw: dict):
    try:
        return "ok", parse(copy.deepcopy(raw))
    except (ScenarioError, ReferenceScenarioError) as exc:
        return "rejected", exc.errors
    except Exception as exc:  # the reference's crashes are part of what is compared
        return "crashed", exc


def unexplained(raw: dict) -> list[str]:
    """What the two parsers' outcomes for raw differ in, beyond the rules."""
    new_kind, new = _outcome(parse_scenario, raw)
    ref_kind, ref = _outcome(reference_parse_scenario, raw)
    assert new_kind != "crashed", new
    if ref_kind == "crashed":
        return [] if new_kind == "rejected" else [f"accepted what the reference crashed on: {ref!r}"]
    if new_kind == ref_kind == "ok":
        return [] if new == ref else ["accepted with a different config"]
    new_errors = new if new_kind == "rejected" else []
    ref_errors = ref if ref_kind == "rejected" else []
    new_only = Counter(new_errors) - Counter(ref_errors)
    ref_only = Counter(ref_errors) - Counter(new_errors)
    left = [f"+{line}" for line in new_only.elements()
            if not _new_only_allowed(raw, line, new_errors, ref_errors)]
    left += [f"-{line}" for line in ref_only.elements()
             if not _reference_only_allowed(raw, line, new_errors, ref_errors)]
    if new_kind == "ok":
        left.append("accepted what the reference rejected")
    return left


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _bundled() -> list[dict]:
    return [yaml.safe_load(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.cfg"))]


BASES = _bundled() + [minimal()]

SECTIONS = {
    "topology": scenario.TOPOLOGY,
    "fork": scenario.FORK,
    "adversary": scenario.ADVERSARY,
    "workload": scenario.WORKLOAD,
    "chain": scenario.CHAIN,
    "consensus": scenario.MODEL,
}
WRONG_TYPES = (None, True, "x", 1.5, [], {})
EXTREMES = (0, -1, -30, 2**62, 2**62 + 1, 2**63, 2**64, 10**400)
FLOATS = (0.0, -0.5, 0.5, 1.0, 1.5, 2.0**64, 1e308, math.nan, math.inf)
WORDS = ("", *scenario.ROLES, *scenario.FORK_KINDS, *scenario.ADVERSARY_KINDS, *scenario.MODELS)
INTERVALS = ([[0, 150], [50, 200]], [[0, 50], [50, 100]], [[10, 5]], [[0, 10], [5]], [[0, 10]])


def _values(spec, names: list[str]) -> list:
    """Values to try for a key: wrong types, each bound and its neighbours,
    0, negatives, 2**62 and 2**64, and node names where a key names nodes."""
    if spec.kind is int:
        bounds = {int(n) for _, message in spec.bounds for n in re.findall(r"-?\d+", message)}
        return [*WRONG_TYPES, *EXTREMES, 1, *(n + d for n in bounds for d in (-1, 0, 1))]
    if spec.kind is float:
        return [*WRONG_TYPES[:3], 7, *FLOATS]
    if spec.kind is str:
        return [*WRONG_TYPES, *WORDS, *names, "ghost"]
    if spec.kind is list:
        return [*WRONG_TYPES, *INTERVALS, names, names[:1], names[1:], ["ghost"], [names]]
    return [*WRONG_TYPES, {name: value for name, value in zip(names, (0, 1, 100, 101, -1))},
            {"ghost": 1}, {names[0]: 0}]


def _target(raw: dict, section: str, index: int = 0):
    """The mapping in raw that a change to a key of section alters (entry
    index of nodes or of the partitions), created if raw lacks it; None
    where raw holds something other than a mapping."""
    if section == "":
        return raw
    if section == "nodes":
        nodes = raw["nodes"]
        return nodes[index % len(nodes)] if isinstance(nodes, list) and nodes else None
    if section == "partitions":
        topology = raw.setdefault("topology", {})
        if not isinstance(topology, dict):
            return None
        partitions = topology.setdefault("partitions", [])
        if partitions == []:
            names = [node["name"] for node in raw["nodes"]]
            partitions.append({"start": 10, "end": 20, "groups": [names[:1], names[1:]]})
        return partitions[index % len(partitions)] if isinstance(partitions, list) else None
    return raw.setdefault(section, {})


def _table(section: str, target: dict) -> dict:
    if section == "":
        return scenario.TOP
    if section == "nodes":
        return scenario.NODE
    if section == "partitions":
        return scenario.PARTITION
    if section == "consensus":
        return {**scenario.MODEL, **scenario.CONSENSUS.get(str(target.get("model")), {})}
    return SECTIONS[section]


SITES = ("", "nodes", "partitions", *SECTIONS)
DELETE = object()


def _mutate(raw: dict, section: str, index: int, key, value) -> None:
    target = _target(raw, section, index)
    if not isinstance(target, dict):
        return
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = copy.deepcopy(value)


def single_changes():
    """(base, section, key, value) for every key of every section of every
    base input, each value of _values and a removal."""
    for base in BASES:
        names = [node["name"] for node in base["nodes"]]
        for section in SITES:
            table = _table(section, _target(copy.deepcopy(base), section))
            for key in [*table, "bogus"]:
                for value in [*_values(table.get(key, scenario.Key(int)), names), DELETE]:
                    yield base, section, key, value


@st.composite
def mutated(draw):
    """A base input with two or three keys changed."""
    raw = copy.deepcopy(draw(st.sampled_from(BASES)))
    names = [node["name"] for node in raw["nodes"]]
    for _ in range(draw(st.integers(2, 3))):
        section = draw(st.sampled_from(SITES))
        index = draw(st.integers(0, 3))
        target = _target(raw, section, index)
        if isinstance(target, dict):
            table = _table(section, target)
            key = draw(st.sampled_from([*table, "bogus"]))
            values = [*_values(table.get(key, scenario.Key(int)), names), DELETE]
            _mutate(raw, section, index, key, draw(st.sampled_from(values)))
    return raw


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_unmutated_inputs_parse_to_equal_configs():
    grid = [point() for point in POINTS.values()]
    for raw in BASES + grid:
        assert parse_scenario(copy.deepcopy(raw)) == reference_parse_scenario(copy.deepcopy(raw))


def test_each_single_change_agrees_with_the_reference():
    failures = []
    for base, section, key, value in single_changes():
        raw = copy.deepcopy(base)
        _mutate(raw, section, 0, key, value)
        left = unexplained(raw)
        if left:
            failures.append((raw, left))
    assert failures[:3] == []


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated())
def test_combined_changes_agree_with_the_reference(raw):
    assert unexplained(raw) == []

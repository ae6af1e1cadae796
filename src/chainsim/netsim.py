"""Seeded discrete-event simulator of a blockchain network.

One global integer tick clock drives a single event loop; simultaneous events
are ordered by (tick, kind rank, node address, sequence number), so a config
replays to a byte-identical event log.  Proof-of-work production is an
exponential race (next find drawn per publisher with rate proportional to
hash share and the current target) rather than literal hashing; hash attempts
are accrued analytically as rate x elapsed online time.  All other models
produce on a fixed slot cadence through the consensus module's selection.
Its configuration types (``SimConfig`` and its parts) live in scenario.py.
"""

from __future__ import annotations

import hashlib
import heapq

# the first package import: placed last, it raised the import's peak RSS by about 0.6 MB
from .scenario import (
    CENSORSHIP,
    HARD,
    LIGHTWEIGHT,
    MAJORITY_REORG,
    PUBLISHING,
    SOFT,
    WITHHOLDING,
    ForkSchedule,
    NodeSpec,
    SimConfig,
    WorkloadSpec,
    node_keypair,
)
from . import consensus as cons
from ._record import field, record, replace
from .chain import (
    Block,
    BlockHeader,
    ChainParams,
    ChainStore,
    NEW_SIDE_BRANCH,
    REJECTED,
    REORGANIZED,
    header_hash,
    is_stake_model,
    make_genesis,
)
from .crypto import Address, HashStream, KeyPair, derive_address
from .ledger import (
    Mempool,
    Transaction,
    TxBuildError,
    TxKind,
    UtxoSet,
    VALID,
    Validity,
    build_transaction,
    make_coinbase,
    spendable_outpoint,
)
from .merkle import merkle_proof, verify_proof

# event ranks: transaction gossip, then block gossip, then production, then
# workload generation, then sampling
_RANK_TX = 0
_RANK_BLOCK = 1
_RANK_PRODUCE = 2
_RANK_WORKLOAD = 3
_RANK_SAMPLE = 4


def fork_rule(fork: ForkSchedule | None, node: str, height: int, limit: int) -> tuple[int, int]:
    """The block-data limit and rule version that node applies at height,
    given the chain's limit.  From activation on, a soft-fork adopter halves
    the limit and a hard-fork adopter moves to the new version; every other
    case keeps the full limit and version 0."""
    if fork is None or node not in fork.adopters or height < fork.activation_height:
        return limit, 0
    if fork.kind == SOFT:
        return limit // 2, 0
    return limit, fork.new_rule_version


@record
class Metrics:
    seed: int
    orphan_count: int = 0
    reorg_events: list[tuple[int, str, int]] = field(default_factory=list)
    confirmation_latencies: dict[bytes, int] = field(default_factory=dict)
    hash_attempts: dict[str, float] = field(default_factory=dict)
    agreement_series: list[tuple[int, float]] = field(default_factory=list)
    fork_split: bool = False

    @property
    def max_reorg_depth(self) -> int:
        return max((d for _, _, d in self.reorg_events), default=0)

    @property
    def mean_confirmation_latency(self) -> float:
        if not self.confirmation_latencies:
            return 0.0
        return sum(self.confirmation_latencies.values()) / len(self.confirmation_latencies)


@record
class SimResult:
    config: SimConfig
    metrics: Metrics
    event_log: list[str]
    nodes: dict[str, "SimNode"]

    def event_log_digest(self) -> bytes:
        # of the lines joined by newlines, fed line by line: a joined copy could set the peak RSS
        digest = hashlib.sha256()
        for i, line in enumerate(self.event_log):
            digest.update(f"\n{line}".encode() if i else line.encode())
        return digest.digest()


def is_online(spec: NodeSpec, tick: int) -> bool:
    if not spec.online:
        return True
    return any(start <= tick < end for start, end in spec.online)


def online_overlap(spec: NodeSpec, a: int, b: int) -> int:
    """Ticks in [a, b) during which the node is up."""
    if b <= a:
        return 0
    if not spec.online:
        return b - a
    return sum(max(0, min(b, end) - max(a, start)) for start, end in spec.online)


class SimNode:
    """A network participant: key material, chain store (or header chain for
    lightweight nodes), mempool, and gossip bookkeeping."""

    def __init__(self, spec: NodeSpec, keypair: KeyPair, params: ChainParams, genesis: Block):
        self.spec = spec
        self.name = spec.name
        self.keypair = keypair
        self.address = derive_address(keypair.public_key)
        self.addr = self.address.to_bytes()  # event-queue key
        self.role = spec.role
        self.params = params
        if spec.role == LIGHTWEIGHT:
            self.store = None
            self.headers: dict[bytes, BlockHeader] = {}
            self.header_tip = header_hash(genesis.header)
            self.headers[self.header_tip] = genesis.header
            self._header_buffer: dict[bytes, list[BlockHeader]] = {}
        else:
            self.store = ChainStore(params, genesis, Mempool())
            self.headers = None
        self.tx_relayed: set[bytes] = set()
        # tx_id or block hash -> earliest tick at which a gossip push in
        # flight to this node arrives while it is online; dropped on intake
        self.due: dict[bytes, int] = {}
        self.orphan_buffer: dict[bytes, list[tuple[Block, str]]] = {}
        self.pulled: set[bytes] = set()
        self.pending_txs: list[tuple[bytes, int]] = []  # (tx_id, submit tick)
        # producers
        self.mine_gen = 0
        self.mining_parent: bytes | None = None
        self.draw_index = 0
        self.hash_rate = 0.0
        self.attempts = 0.0
        self._last_accrual = 0
        # adversary state
        self.attack_active = False
        self.secret_tip: bytes | None = None
        self.secret_blocks: list[Block] = []

    # -- queries -------------------------------------------------------------

    def online(self, tick: int) -> bool:
        return is_online(self.spec, tick)

    def tip_hash(self) -> bytes:
        return self.store.tip_hash if self.store else self.header_tip

    def tip_height(self) -> int:
        if self.store:
            return self.store.tip_height
        return self.headers[self.header_tip].height

    # -- lightweight header chain ---------------------------------------------

    def accept_header(self, header: BlockHeader) -> None:
        h = header_hash(header)
        if h in self.headers:
            return
        if header.prev_header_hash not in self.headers:
            self._header_buffer.setdefault(header.prev_header_hash, []).append(header)
            return
        self.headers[h] = header
        if header.height > self.headers[self.header_tip].height:
            self.header_tip = h
        for child in self._header_buffer.pop(h, []):
            self.accept_header(child)

    def lightweight_confirmed(self, tx_id: bytes, full_peer: "SimNode") -> bool:
        """Header-depth confirmation backed by a Merkle proof from a full node."""
        height = full_peer.store.confirmation_height(tx_id)
        if height is None:
            return False
        block_hash = full_peer.store.ancestor_at(full_peer.store.tip_hash, height)
        block = full_peer.store.get_block(block_hash)
        header = self.headers.get(block_hash)
        if header is None:
            return False
        leaves = [t.tx_id for t in block.transactions]
        try:
            index = leaves.index(tx_id)
        except ValueError:
            return False
        proof = merkle_proof(leaves, index)
        if not verify_proof(header.data_hash, tx_id, index, proof):
            return False
        return self.headers[self.header_tip].height - height >= self.params.confirmation_depth


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class Simulation:
    def __init__(self, config: SimConfig):
        self.config = config
        self.params = config.chain
        self.model = config.chain.consensus
        self.now = 0
        self._queue: list = []
        self._seq = 0
        self.log: list[str] = []
        self.metrics = Metrics(seed=config.seed)
        self.produced: dict[bytes, str] = {}  # block hash -> producer name

        genesis = build_genesis(config)
        self.nodes: dict[str, SimNode] = {}
        for spec in config.nodes:
            keypair = node_keypair(config.seed, spec.name)
            self.nodes[spec.name] = SimNode(spec, keypair, self.params, genesis)
        self.order = [spec.name for spec in config.nodes]
        self.publishers = [n for n in self.order if self.nodes[n].role == PUBLISHING]
        self.full_nodes = [n for n in self.order if self.nodes[n].role != LIGHTWEIGHT]
        self.stake_model = is_stake_model(self.params)
        # _flood_targets' lists by (partition in force, node, txs), built on first use
        self._flood_lists: dict[tuple, list[SimNode]] = {}

        self.adversary = config.adversary
        self.adversary_node = self.nodes[config.adversary.node] if config.adversary else None

        self._gossip_stream = HashStream(config.seed, "gossip")
        self._latency_base = config.topology.latency
        self._jitter = config.topology.jitter
        self._workload_stream = HashStream(config.seed, "workload")
        self._mine_streams = {
            name: HashStream(config.seed, f"mine:{name}") for name in self.publishers
        }

        if isinstance(self.model, cons.PowParams):
            p0 = self.model.target / 2.0**256
            # calibrate so the whole network finds one block per target_spacing
            total_rate = 1.0 / (p0 * self.model.target_spacing)
            for name in self.publishers:
                self.nodes[name].hash_rate = self.nodes[name].spec.hash_share * total_rate

        if config.fork is not None:
            for name in self.full_nodes:
                self.nodes[name].store.policy = self._fork_policy(config.fork, name)

    # -- event plumbing -------------------------------------------------------

    def _push(self, tick: int, rank: int, addr: bytes, kind: str, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (tick, rank, addr, self._seq, kind, payload))

    def _emit(self, line: str) -> None:
        self.log.append(line)

    def production_allowed(self, tick: int) -> bool:
        stop = self.config.production_stop
        return stop is None or tick < stop

    # -- topology -------------------------------------------------------------

    def _partition_at(self, tick: int) -> int | None:
        """The index of the partition in force at tick (the first listed, if
        several are), or None."""
        for pi, part in enumerate(self.config.topology.partitions):
            if part.start <= tick < part.end:
                return pi
        return None

    def _group_of(self, name: str, tick: int) -> int:
        pi = self._partition_at(tick)
        if pi is None:
            return 0
        for gi, group in enumerate(self.config.topology.partitions[pi].groups):
            if name in group:
                return pi * 100 + gi
        # an unlisted node is isolated during the partition: a group of its
        # own, below every listed one
        return self.order.index(name) - len(self.order)

    def reachable(self, a: str, b: str, tick: int) -> bool:
        return self._group_of(a, tick) == self._group_of(b, tick)

    def _latency(self, at: int | None = None) -> int:
        """A link delay: the base latency plus a jitter drawn at gossip-stream
        position at (by default, the next one), and at least 1."""
        jitter = self._gossip_stream.u64(at) % (self._jitter + 1) if self._jitter else 0
        return max(1, self._latency_base + jitter)

    def _flood_targets(self, name: str, txs: bool) -> list[SimNode]:
        """The nodes a flood from name reaches now, in config order: every
        peer under a block, the full ones under a transaction (txs).  Reach
        follows from the partition in force alone, so each list is built once
        per partition and shared by every call: callers must not modify it."""
        key = (self._partition_at(self.now), name, txs)
        targets = self._flood_lists.get(key)
        if targets is None:
            targets = self._flood_lists[key] = [
                self.nodes[other] for other in self.peers_of(name, self.now)
                if not txs or self.nodes[other].role != LIGHTWEIGHT]
        return targets

    def peers_of(self, name: str, tick: int) -> list[str]:
        """Nodes that name reaches at tick, in config order."""
        return [
            other
            for other in self.order
            if other != name and self.reachable(name, other, tick)
        ]

    # -- fork schedules ---------------------------------------------------------

    def _fork_policy(self, fork: ForkSchedule, name: str):
        """Check a block against the rule name applies at its height: the size
        only under a tightened limit, the version only under a hard fork."""
        base_limit = self.params.max_block_data_bytes

        def policy(block: Block) -> Validity:
            limit, version = fork_rule(fork, name, block.header.height, base_limit)
            if limit < base_limit and len(block.data_bytes()) > limit:
                return Validity(False, "Oversize", f"above the tightened limit {limit}")
            if fork.kind == HARD and block.header.rule_version != version:
                return Validity(
                    False, "RuleVersion", f"version {block.header.rule_version}, expected {version}"
                )
            return VALID

        return policy

    # -- run --------------------------------------------------------------------

    def run(self) -> SimResult:
        self._schedule_initial()
        while self._queue:
            tick, rank, addr, seq, kind, payload = heapq.heappop(self._queue)
            if tick > self.config.duration:
                break
            self.now = tick
            handler = getattr(self, f"_on_{kind}")
            handler(*payload)
        self._finalize()
        return SimResult(self.config, self.metrics, self.log, self.nodes)

    def _schedule_initial(self) -> None:
        if isinstance(self.model, cons.PowParams):
            for name in self.publishers:
                self._schedule_find(self.nodes[name], 0)
        else:
            self._push(self.config.block_interval, _RANK_PRODUCE, b"", "slot", ())
        if self.config.workload.tx_interval:
            self._push(self.config.workload.tx_interval, _RANK_WORKLOAD, b"", "workload", ())
        self._push(0, _RANK_SAMPLE, b"", "sample", ())
        # catch-up syncs: nodes returning from downtime and partition heals
        for spec in self.config.nodes:
            for start, _end in spec.online:
                if 0 < start <= self.config.duration:
                    addr = self.nodes[spec.name].addr
                    self._push(start, _RANK_BLOCK, addr, "rejoin", (spec.name,))
        for part in self.config.topology.partitions:
            if part.end <= self.config.duration:
                self._push(part.end, _RANK_BLOCK, b"", "heal", ())

    def _on_rejoin(self, name: str) -> None:
        """A node back from downtime asks its peers for their adopted chains."""
        node = self.nodes[name]
        if not node.online(self.now):
            return
        for peer in self._flood_targets(name, True):
            if not peer.online(self.now):
                continue
            arrive = self.now + self._latency()
            if node.role == LIGHTWEIGHT:
                for bh in peer.store.adopted_path():
                    self._push(
                        arrive,
                        _RANK_BLOCK,
                        node.addr,
                        "deliver_header",
                        (name, peer.store.blocks[bh].header),
                    )
            else:
                self._push(
                    arrive,
                    _RANK_BLOCK,
                    node.addr,
                    "deliver_block",
                    (name, peer.store.tip, peer.name),
                )

    def _on_heal(self) -> None:
        for name in self.order:
            self._on_rejoin(name)

    # -- PoW race ---------------------------------------------------------------

    def _mining_parent(self, node: SimNode) -> bytes:
        if node.attack_active:
            return node.secret_tip
        return node.store.tip_hash

    def _accrue_attempts(self, node: SimNode) -> None:
        node.attempts += node.hash_rate * online_overlap(node.spec, node._last_accrual, self.now)
        node._last_accrual = self.now

    def _schedule_find(self, node: SimNode, tick: int) -> None:
        if node.hash_rate <= 0:
            return
        node.mine_gen += 1
        parent = self._mining_parent(node)
        node.mining_parent = parent
        pow_params = node.store.undo[parent].pow_params
        target = pow_params.target if pow_params else self.model.target
        rate = node.hash_rate * (target / 2.0**256)
        if rate <= 0:
            return
        wait = max(1, round(self._mine_streams[node.name].expovariate(1.0 / rate)))
        self._push(tick + wait, _RANK_PRODUCE, node.addr, "find", (node.name, node.mine_gen))

    def _on_find(self, name: str, gen: int) -> None:
        node = self.nodes[name]
        self._accrue_attempts(node)
        if gen != node.mine_gen:
            return
        if not self.production_allowed(self.now) or not node.online(self.now):
            self._schedule_find(node, self.now)
            return
        parent = node.mining_parent
        block = self._produce_block(node, parent)
        if block is not None:
            self._handle_own_block(node, block)
        self._schedule_find(node, self.now)

    # -- slotted production --------------------------------------------------------

    def _on_slot(self) -> None:
        interval = self.config.block_interval
        if self.production_allowed(self.now):
            if isinstance(self.model, cons.PoetParams):
                self._poet_round()
            else:
                for name in self.publishers:
                    node = self.nodes[name]
                    if not node.online(self.now):
                        continue
                    if self._selected_for_slot(node):
                        block = self._produce_block(node, node.store.tip_hash)
                        if block is not None:
                            self._handle_own_block(node, block)
        self._push(self.now + interval, _RANK_PRODUCE, b"", "slot", ())

    def _selected_for_slot(self, node: SimNode) -> bool:
        tip = node.store.tip_hash
        height = node.store.tip_height + 1
        if isinstance(self.model, cons.RoundRobinParams):
            live = {
                self.nodes[n].address
                for n in self.publishers
                if self.nodes[n].online(self.now) and self.reachable(node.name, n, self.now)
            }
            return cons.round_robin_publisher(self.model, height, live) == node.address
        state = node.store.state_at(tip)
        stakes = (
            cons.stake_view(state.utxo, height, state.stake_resets)
            if self.stake_model
            else ()
        )
        expected = cons.expected_publisher(self.model, tip, height, stakes)
        return expected == node.address

    def _poet_round(self) -> None:
        by_group: dict[int, list[SimNode]] = {}
        for name in self.publishers:
            node = self.nodes[name]
            if not node.online(self.now):
                continue
            by_group.setdefault(self._group_of(name, self.now), []).append(node)
        for group in sorted(by_group):
            members = by_group[group]
            certs = []
            for node in members:
                cert = cons.poet_draw(
                    node.address, node.draw_index, self.model.seed, self.model.mean_wait
                )
                node.draw_index += 1
                certs.append((node, cert))
            winner_addr = cons.poet_winner([c for _, c in certs])
            for node, cert in certs:
                if node.address == winner_addr:
                    wait = max(1, round(cert.draw))
                    self._push(
                        self.now + wait,
                        _RANK_PRODUCE,
                        node.addr,
                        "poet_fire",
                        (node.name, cert, node.store.tip_hash),
                    )
                    break

    def _on_poet_fire(self, name: str, cert: cons.PoetCertificate, tip: bytes) -> None:
        node = self.nodes[name]
        if node.store.tip_hash != tip:
            return  # a block arrived while waiting; stop idling
        if not self.production_allowed(self.now) or not node.online(self.now):
            return
        block = self._produce_block(node, tip, poet_cert=cert)
        if block is not None:
            self._handle_own_block(node, block)

    # -- block production --------------------------------------------------------

    def _mempool_selection(self, node: SimNode, parent: bytes, budget: int) -> list[Transaction]:
        state = node.store.state_at(parent)
        txs = node.store.mempool.take(budget, state.utxo, not self.stake_model)
        if (
            self.adversary
            and self.adversary.kind == CENSORSHIP
            and node is self.adversary_node
            and self.adversary.victim
        ):
            victim = self.nodes[self.adversary.victim].address
            txs = [
                t
                for t in txs
                if all(derive_address(i.public_key) != victim for i in t.inputs)
            ]
        return txs

    def _produce_block(
        self, node: SimNode, parent: bytes, poet_cert: cons.PoetCertificate | None = None
    ) -> Block | None:
        height = node.store.blocks[parent].header.height + 1
        limit, version = fork_rule(
            self.config.fork, node.name, height, self.params.max_block_data_bytes
        )
        txs = self._mempool_selection(node, parent, limit - 160)  # room for the coinbase
        candidate = node.store.make_candidate(
            node.address,
            txs,
            timestamp=self.now,
            rule_version=version,
            parent_hash=parent,
        )
        return cons.attach_proof(candidate, self.model, keypair=node.keypair, poet_cert=poet_cert)

    def _handle_own_block(self, node: SimNode, block: Block) -> None:
        h = header_hash(block.header)
        self.produced[h] = node.name
        result = node.store.append_block(block)
        if result.status == REJECTED:
            self._emit(
                f"t={self.now} stale node={node.name} b={h.hex()[:12]} r={result.reason}"
            )
            return
        self._emit(
            f"t={self.now} produce node={node.name} h={block.header.height}"
            f" b={h.hex()[:12]} txs={len(block.transactions) - 1}"
        )
        if node.attack_active:
            node.secret_tip = h
            node.secret_blocks.append(block)
            self._after_accept(node, result, h)
            self._maybe_release(node)
        elif self.adversary and self.adversary.kind == WITHHOLDING and node is self.adversary_node:
            self._after_accept(node, result, h)
            self._gossip_block(node, block, extra_delay=self.adversary.delay_ticks)
        else:
            self._after_accept(node, result, h)
            self._gossip_block(node, block)

    # -- adversary: majority reorg -------------------------------------------------

    def _honest_tip_height(self) -> int:
        best = 0
        for name in self.full_nodes:
            node = self.nodes[name]
            if node is self.adversary_node:
                continue
            best = max(best, node.store.tip_height)
        return best

    def _maybe_start_attack(self, node: SimNode) -> None:
        depth = self.adversary.secret_depth
        tip = node.store.tip_hash
        tip_height = node.store.tip_height
        if tip_height < depth:
            return
        fork_hash = node.store.ancestor_at(tip, tip_height - depth)
        if fork_hash is None:
            return
        node.attack_active = True
        node.secret_tip = fork_hash
        node.secret_blocks = []
        self._schedule_find(node, self.now)
        self._emit(
            f"t={self.now} attack_start node={node.name} fork_h={tip_height - depth}"
            f" b={fork_hash.hex()[:12]}"
        )

    def _maybe_release(self, node: SimNode) -> None:
        secret_height = node.store.blocks[node.secret_tip].header.height
        if secret_height <= self._honest_tip_height():
            return
        self._emit(
            f"t={self.now} attack_release node={node.name}"
            f" blocks={len(node.secret_blocks)} h={secret_height}"
        )
        released = node.secret_blocks
        node.attack_active = False
        node.secret_tip = None
        node.secret_blocks = []
        for block in released:
            self._gossip_block(node, block)
        self._maybe_start_attack(node)

    # -- gossip ---------------------------------------------------------------------

    def _gossip_block(self, node: SimNode, block: Block, extra_delay: int = 0) -> None:
        """Flood a block (a header, to lightweight peers) to every reachable
        peer.  A node calls this once per block: when it produces the block,
        first accepts it, or releases it from its secret chain, and its store
        rejects any later copy as Duplicate."""
        self._flood(node, _RANK_BLOCK, block, header_hash(block.header), extra_delay)

    def _flood(
        self, node: SimNode, rank: int, item, item_id: bytes, extra_delay: int = 0
    ) -> None:
        """Push item from node to the nodes _flood_targets names: a block
        (rank _RANK_BLOCK) to every peer, as a header to a lightweight one,
        and a transaction (_RANK_TX) to the full ones.

        Each of those takes one gossip-stream position, in order, pushed or
        not: the flood reserves them at once and hashes position base + i
        only for the i-th whose draw decides.  No delivery is pushed to a
        full peer that holds the item (a store never drops a block, nor
        tx_relayed an id), nor to one that an earlier push reaches, online,
        no later (peer.due): on a tie that push runs first, so this one would
        do nothing.  That holds for blocks without a fork schedule, as every
        block is then valid on every node, and a later copy of an
        orphan-buffered block would only add a buffer entry that ends in
        Duplicate.  With one, a peer logs each copy it rejects, so a block
        records no due and every copy is pushed.
        """
        is_tx = rank == _RANK_TX
        settles = is_tx or self.config.fork is None
        peers = self._flood_targets(node.name, is_tx)
        base = self._gossip_stream.reserve(len(peers)) if self._jitter else 0
        start = self.now + extra_delay
        floor = start + max(1, self._latency_base)  # no link delay is shorter, whatever the draw
        kind = "deliver_tx" if is_tx else "deliver_block"
        for i, peer in enumerate(peers):
            if peer.role == LIGHTWEIGHT:
                self._push(start + self._latency(base + i), rank, peer.addr, "deliver_header",
                           (peer.name, item.header))
                continue
            due = peer.due.get(item_id)  # never set for an item that settles no peer
            if (due is not None and due <= floor
                    or item_id in (peer.tx_relayed if is_tx else peer.store.blocks)):
                continue
            arrive = start + self._latency(base + i)
            if due is not None and due <= arrive:
                continue
            if settles and peer.online(arrive):
                peer.due[item_id] = arrive
            self._push(arrive, rank, peer.addr, kind, (peer.name, item, node.name))

    def _on_deliver_header(self, name: str, header: BlockHeader) -> None:
        node = self.nodes[name]
        if node.online(self.now):
            node.accept_header(header)

    def _on_deliver_block(self, name: str, block: Block, sender: str) -> None:
        node = self.nodes[name]
        if node.online(self.now):
            self._ingest_block(node, block, sender)

    def _ingest_block(self, node: SimNode, block: Block, sender: str) -> None:
        h = header_hash(block.header)
        result = node.store.append_block(block)
        if result.status == REJECTED:
            if result.reason == "Duplicate":
                return
            if result.reason == "UnknownParent":
                node.orphan_buffer.setdefault(block.header.prev_header_hash, []).append(
                    (block, sender)
                )
                self._request_missing(node, block.header.prev_header_hash, sender)
                return
            self._emit(
                f"t={self.now} reject node={node.name} b={h.hex()[:12]} r={result.reason}"
            )
            return
        self._emit(
            f"t={self.now} deliver node={node.name} b={h.hex()[:12]}"
            f" from={sender} r={result.status}"
        )
        node.due.pop(h, None)
        self._after_accept(node, result, h)
        self._gossip_block(node, block)
        for child, child_sender in node.orphan_buffer.pop(h, []):
            self._ingest_block(node, child, child_sender)

    def _request_missing(self, node: SimNode, missing: bytes, sender: str) -> None:
        """Full-chain pull: the peer answers with every block on its adopted
        path that the requester has not seen."""
        if missing in node.pulled:
            return
        node.pulled.add(missing)
        peer = self.nodes.get(sender)
        if peer is None or peer.store is None:
            return
        delay = self._latency()
        for bh in peer.store.adopted_path():
            if node.store.get_block(bh) is None:
                self._push(
                    self.now + delay,
                    _RANK_BLOCK,
                    node.addr,
                    "deliver_block",
                    (node.name, peer.store.blocks[bh], sender),
                )

    def _after_accept(self, node: SimNode, result, block_hash: bytes) -> None:
        if result.status == REORGANIZED:
            depth = len(result.orphaned)
            self.metrics.reorg_events.append((self.now, node.name, depth))
            self._emit(f"t={self.now} reorg node={node.name} depth={depth}")
        if result.status != NEW_SIDE_BRANCH:
            if (
                isinstance(self.model, cons.PowParams)
                and node.hash_rate > 0
                and not node.attack_active
            ):
                self._schedule_find(node, self.now)
            self._check_confirmations(node)
        if (
            self.adversary is not None
            and self.adversary.kind == MAJORITY_REORG
            and node is self.adversary_node
            and not node.attack_active
        ):
            self._maybe_start_attack(node)

    # -- transactions -----------------------------------------------------------------

    def submit_transaction(self, via: str, tx: Transaction) -> None:
        """Entry point for workload ticks and tests: hand a signed transaction
        to one node, which validates and gossips it."""
        node = self.nodes[via]
        tx_id = tx.tx_id
        self._emit(f"t={self.now} tx node={via} id={tx_id.hex()[:12]}")
        node.pending_txs.append((tx_id, self.now))
        if node.role == LIGHTWEIGHT:
            self._flood(node, _RANK_TX, tx, tx_id)  # a wallet hands it to its full peers
        else:
            self._deliver_tx_to(node, tx, via)

    def _deliver_tx_to(self, node: SimNode, tx: Transaction, sender: str) -> None:
        """First arrival of a transaction at a full node: offer it to the
        node's pool (ChainStore.admit) and flood it to every reachable full
        peer."""
        tx_id = tx.tx_id
        if tx_id in node.tx_relayed:
            return
        node.tx_relayed.add(tx_id)
        node.due.pop(tx_id, None)
        node.store.admit(tx)
        self._flood(node, _RANK_TX, tx, tx_id)

    def _on_deliver_tx(self, name: str, tx: Transaction, sender: str) -> None:
        node = self.nodes[name]
        if node.online(self.now):
            self._deliver_tx_to(node, tx, sender)

    def _check_confirmations(self, node: SimNode) -> None:
        still_pending = []
        for tx_id, submitted in node.pending_txs:
            if tx_id in self.metrics.confirmation_latencies:
                continue
            confirmed = node.store.is_confirmed(tx_id) if node.store else False
            if confirmed:
                latency = self.now - submitted
                self.metrics.confirmation_latencies[tx_id] = latency
                self._emit(
                    f"t={self.now} confirm node={node.name} id={tx_id.hex()[:12]}"
                    f" latency={latency}"
                )
            else:
                still_pending.append((tx_id, submitted))
        node.pending_txs = still_pending

    # -- workload ------------------------------------------------------------------

    def _on_workload(self) -> None:
        wl = self.config.workload
        if self.production_allowed(self.now):
            self._generate_payment(wl)
        self._push(self.now + wl.tx_interval, _RANK_WORKLOAD, b"", "workload", ())

    def _generate_payment(self, wl: WorkloadSpec) -> None:
        candidates = [wl.submit_via] if wl.submit_via else list(self.order)
        needed = wl.tx_amount + wl.tx_fee
        viable = []
        for name in candidates:
            node = self.nodes[name]
            if not node.online(self.now):
                continue
            view = node if node.store else self._first_full_peer(node)
            if view is None:
                continue
            utxo = view.store.tip_state().utxo
            outpoint = spendable_outpoint(utxo, node.address, needed)
            if outpoint is not None:
                viable.append((name, outpoint, utxo))
        if not viable:
            return
        name, outpoint, utxo = viable[self._workload_stream.randrange(len(viable))]
        others = [n for n in self.order if n != name]
        recipient = self.nodes[others[self._workload_stream.randrange(len(others))]].address
        node = self.nodes[name]
        try:
            tx = build_transaction(
                [outpoint], [(recipient, wl.tx_amount)], wl.tx_fee, [node.keypair], utxo
            )
        except TxBuildError:
            return
        self.submit_transaction(name, tx)

    def _first_full_peer(self, node: SimNode) -> SimNode | None:
        return next((peer for peer in self._flood_targets(node.name, True)
                     if peer.online(self.now)), None)

    # -- sampling --------------------------------------------------------------------

    def _tips(self) -> dict[bytes, tuple[ChainStore, int]]:
        """Each distinct adopted tip among full nodes, in first-seen order,
        with a store that holds it and the number of nodes on it."""
        tips: dict[bytes, tuple[ChainStore, int]] = {}
        for name in self.full_nodes:
            store = self.nodes[name].store
            _, count = tips.get(store.tip_hash, (store, 0))
            tips[store.tip_hash] = (store, count + 1)
        return tips

    def chain_agreement(self) -> float:
        """Fraction of full-node pairs whose adopted tips are prefix-compatible
        at the lower of the two heights.  Nodes on one tip agree; each pair of
        distinct tips is compared once and counts for every node pair it
        stands for."""
        n = len(self.full_nodes)
        if n < 2:
            return 1.0
        groups = list(self._tips().values())
        agreeing = sum(count * (count - 1) // 2 for _, count in groups)
        for i, (sa, ca) in enumerate(groups):
            for sb, cb in groups[i + 1 :]:
                h = min(sa.tip_height, sb.tip_height)
                if sa.ancestor_at(sa.tip_hash, h) == sb.ancestor_at(sb.tip_hash, h):
                    agreeing += ca * cb
        return agreeing / (n * (n - 1) // 2)

    def _on_sample(self) -> None:
        self.metrics.agreement_series.append((self.now, self.chain_agreement()))
        nxt = self.now + self.config.agreement_interval
        if nxt <= self.config.duration:
            self._push(nxt, _RANK_SAMPLE, b"", "sample", ())

    # -- finalization -------------------------------------------------------------------

    def _finalize(self) -> None:
        self.now = self.config.duration
        for name in self.publishers:
            node = self.nodes[name]
            self._accrue_attempts(node)
            self.metrics.hash_attempts[name] = node.attempts
        for name in self.full_nodes:
            self._check_confirmations(self.nodes[name])
        adopted_union: set[bytes] = set()
        for store, _ in self._tips().values():
            adopted_union.update(store.adopted_path())
        self.metrics.orphan_count = sum(1 for h in self.produced if h not in adopted_union)
        # some pair of full nodes disagrees at the lower tip height
        self.metrics.fork_split = self.chain_agreement() < 1.0
        tips = ",".join(
            f"{name}:{self.nodes[name].tip_hash().hex()[:12]}" for name in self.full_nodes
        )
        self._emit(f"t={self.config.duration} end tips={tips}")


def _genesis_funds(config: SimConfig) -> list[tuple[NodeSpec, Address, int]]:
    """Each node holding a balance or stake, in config order, with its address
    and genesis allocation (balance plus stake)."""
    return [
        (spec, derive_address(node_keypair(config.seed, spec.name).public_key),
         spec.balance + spec.stake)
        for spec in config.nodes
        if spec.balance + spec.stake > 0
    ]


def build_genesis(config: SimConfig) -> Block:
    """Genesis carrying each node's allocation, with stake locked through
    signed STAKE transactions that spend the allocation inside the block."""
    params = effective_params(config)
    coinbase = make_coinbase(params.genesis_allocation, 0)
    view = UtxoSet()
    view.apply(coinbase, 0)
    stake_txs = []
    for i, (spec, addr, _) in enumerate(_genesis_funds(config)):
        if spec.stake <= 0:
            continue
        tx = build_transaction(
            [(coinbase.tx_id, i)],
            [(addr, spec.stake)],
            0,
            [node_keypair(config.seed, spec.name)],
            view,
            kind=TxKind.STAKE,
        )
        stake_txs.append(tx)
    return make_genesis(params, tuple(stake_txs))


def effective_params(config: SimConfig) -> ChainParams:
    """Chain params with the genesis allocation implied by the node specs."""
    allocation = tuple((addr, total) for _, addr, total in _genesis_funds(config))
    return replace(config.chain, genesis_allocation=allocation)


def run_scenario(config: SimConfig) -> SimResult:
    sim = Simulation(prepare_config(config))
    return sim.run()


def prepare_config(config: SimConfig) -> SimConfig:
    return replace(config, chain=effective_params(config))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def summary_row(result: SimResult) -> dict:
    m = result.metrics
    return {
        "seed": m.seed,
        "orphans": m.orphan_count,
        "max_reorg_depth": m.max_reorg_depth,
        "mean_confirmation_latency": round(m.mean_confirmation_latency, 3),
        "fork_split": str(m.fork_split).lower(),
    }


def write_reports(result: SimResult, out_dir: str) -> None:
    import csv
    import os

    os.makedirs(out_dir, exist_ok=True)
    row = summary_row(result)
    with open(os.path.join(out_dir, "metrics_summary.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    with open(os.path.join(out_dir, "agreement_timeseries.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tick", "agreement_fraction"])
        for tick, fraction in result.metrics.agreement_series:
            writer.writerow([tick, f"{fraction:.4f}"])
    with open(os.path.join(out_dir, "node_resources.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "hash_attempts"])
        for name, attempts in result.metrics.hash_attempts.items():
            writer.writerow([name, f"{attempts:.1f}"])
    with open(os.path.join(out_dir, "events.log"), "w") as fh:
        fh.write("\n".join(result.event_log) + "\n")

"""Blocks, hash chaining, chain storage, and longest-chain fork choice.

A ChainStore indexes every accepted block by header hash and keeps one
materialised state (UTXO set, contract registry, stake bookkeeping, current
PoW target), at its adopted tip, plus a small undo record per block, in the
manner of Bitcoin Core's per-block undo data.  A block on the tip is walked
in place; a side branch is validated on a copy of the tip state rewound over
undo records to the fork point, each block above it reconnected through
validate_and_apply, so its cost follows the depth of the fork, not the
height of the chain.  Fork choice is block count with a strict-inequality
switch: on equal length the first-seen tip is kept, and extending the tip is
a reorganization that orphans nothing.

ChainStore.append_block is the one place that indexes a block and stores its
undo record, and _founding_state the one check of a genesis.  One replay
judges each later record once, read two ways: load runs it to the end, and
verify_blocks (which chain verify feeds every record read_chain_file decodes,
and the store it founds on the first) stops at the first failing verdict.
persist writes beside the chain file a record of the prefix whose blocks
passed validation; load alone reads it, and skips their signature checks, and
only those, as Bitcoin Core's -assumevalid.

validate_and_apply walks a block's rules once per block object and params
object: the first judgement with signature checks keeps on the block its
verdict and, for a valid block, its forward delta (BlockVerdict), in the
manner of Bitcoin Core's script-execution cache.  Every later call with the
same params, such as from the other nodes of one simulation, applies a kept
acceptance to its own state, and one with signature checks also returns a
kept rejection.  A transaction keeps its own last verdict, keyed by the
input entries its rules read (ledger.validate_transaction), which pool
intake and maintenance, block assembly and the walk here all share.  Each
verdict is the one cache of its judgement, and nothing is kept beyond the
block and transaction objects.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Iterable

from . import contracts
from ._record import field, record, replace
from .crypto import Address, atomic_write, derive_address, sha256
from .ledger import (
    MAX_SUPPLY,
    Mempool,
    Outpoint,
    Transaction,
    TxKind,
    UtxoEntry,
    UtxoSet,
    Validity,
    VALID,
    _invalid,
    deserialize_transaction,
    make_coinbase,
    validate_transaction,
)
from .merkle import merkle_root

GENESIS_PREV_HASH = b"\x00" * 32
CHAIN_MAGIC = b"LGLB"
CHAIN_FORMAT_VERSION = 1
CHECKED_SUFFIX = ".checked"  # persist's checked-prefix record, beside the chain file

EXTENDED = "Extended"
NEW_SIDE_BRANCH = "NewSideBranch"
REORGANIZED = "Reorganized"
REJECTED = "Rejected"


@record(frozen=True, slots=True)
class BlockHeader:
    height: int
    prev_header_hash: bytes
    data_hash: bytes
    timestamp: int
    size: int
    nonce: int
    rule_version: int = 0
    consensus_tag: bytes = b""
    # what header_hash keeps on the instance: outside equality, hashing and
    # repr, and _record.replace starts it afresh
    _hash: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def serialize(self, zero_tag: bool = False) -> bytes:
        tag = b"" if zero_tag else self.consensus_tag
        return b"".join(
            (
                struct.pack(">Q", self.height),
                self.prev_header_hash,
                self.data_hash,
                struct.pack(">Q", self.timestamp),
                struct.pack(">I", self.size),
                struct.pack(">Q", self.nonce),
                struct.pack(">H", self.rule_version),
                struct.pack(">I", len(tag)),
                tag,
            )
        )


def header_hash(header: BlockHeader) -> bytes:
    """sha256 of the serialized header.

    Computed on first call and kept in the header's _hash slot, as
    Transaction.tx_id is: every field is immutable, and _record.replace
    builds a new instance without it.
    """
    cached = header._hash
    if cached is None:
        cached = sha256(header.serialize())
        object.__setattr__(header, "_hash", cached)
    return cached


def deserialize_header(buf: bytes, offset: int = 0) -> tuple[BlockHeader, int]:
    fixed = struct.calcsize(">Q32s32sQIQHI")
    if offset + fixed > len(buf):
        raise ValueError(f"header truncated at byte {offset}")
    height, prev, data, ts, size, nonce, version, tag_len = struct.unpack_from(
        ">Q32s32sQIQHI", buf, offset
    )
    offset += fixed
    if offset + tag_len > len(buf):
        raise ValueError(f"header tag truncated at byte {offset}")
    tag = buf[offset : offset + tag_len]
    return BlockHeader(height, prev, data, ts, size, nonce, version, tag), offset + tag_len


@record(frozen=True, slots=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]
    # what validate_and_apply keeps on the instance: outside equality,
    # hashing and repr, and _record.replace starts it afresh
    _verdict: BlockVerdict | None = field(default=None, init=False, repr=False, compare=False)

    def data_bytes(self) -> bytes:
        return block_data_bytes(self.transactions)

    def serialize(self) -> bytes:
        return self.header.serialize() + self.data_bytes()


def block_data_bytes(txs: Iterable[Transaction]) -> bytes:
    txs = tuple(txs)
    return struct.pack(">I", len(txs)) + b"".join(t.serialize() for t in txs)


def deserialize_block(buf: bytes, offset: int = 0) -> tuple[Block, int]:
    header, offset = deserialize_header(buf, offset)
    if offset + 4 > len(buf):
        raise ValueError(f"block truncated at byte {offset}")
    (count,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    txs = []
    for _ in range(count):
        tx, offset = deserialize_transaction(buf, offset)
        txs.append(tx)
    return Block(header, tuple(txs)), offset


def transactions_merkle_root(txs: Iterable[Transaction]) -> bytes:
    return merkle_root([t.tx_id for t in txs])


# ---------------------------------------------------------------------------
# Parameters and genesis
# ---------------------------------------------------------------------------


@record(frozen=True)
class ChainParams:
    confirmation_depth: int = 6
    block_subsidy: int = 50
    max_block_data_bytes: int = 65536
    genesis_allocation: tuple[tuple[Address, int], ...] = ()
    consensus: object = None  # one of the consensus params records

    def __post_init__(self):
        if self.confirmation_depth < 1:
            raise ValueError("confirmation depth must be at least 1")
        if self.block_subsidy < 0:
            raise ValueError("subsidy must be non-negative")
        if self.max_block_data_bytes < 1:
            raise ValueError("block data limit must be at least 1")


def make_genesis(params: ChainParams, extra_txs: tuple[Transaction, ...] = ()) -> Block:
    """Height-0 block carrying the initial allocation in its coinbase.

    extra_txs lets a scenario pre-configure state (for instance initial STAKE
    transactions spending the allocation) as part of the fixed genesis.
    """
    total = sum(amount for _, amount in params.genesis_allocation)
    if total > MAX_SUPPLY:
        raise ValueError("genesis allocation exceeds maximum supply")
    coinbase = make_coinbase(list(params.genesis_allocation), 0)
    txs = (coinbase,) + tuple(extra_txs)
    data = block_data_bytes(txs)
    header = BlockHeader(
        height=0,
        prev_header_hash=GENESIS_PREV_HASH,
        data_hash=transactions_merkle_root(txs),
        timestamp=0,
        size=len(data),
        nonce=0,
        rule_version=0,
    )
    return Block(header, txs)


# ---------------------------------------------------------------------------
# Chain state
# ---------------------------------------------------------------------------


@record
class ChainState:
    utxo: UtxoSet
    registry: contracts.ContractRegistry = field(default_factory=dict)
    stake_resets: dict[Outpoint, int] = field(default_factory=dict)
    pow_params: object = None  # PowParams with the branch-current target

    def clone(self) -> "ChainState":
        return ChainState(
            self.utxo.copy(),
            contracts.clone_registry(self.registry),
            dict(self.stake_resets),
            self.pow_params,
        )


@record(slots=True)
class BlockUndo:
    """What taking a block back off its post-state needs beyond the block,
    whose transactions name the outpoints it spent and created (a spent
    entry stays in the set, so UtxoSet.revert loses nothing).

    ``applied`` counts the leading transactions applied, all of them once
    the block is stored, and ``fees`` sums their fees for the ExcessReward
    check.  ``writes`` holds, in write order, (table, key, prior value) for
    each slot the block set in the registry (a deployed contract, or a
    called one) or stake_resets; a prior of None means the slot was empty.
    A creator's next deploy index is the count of its accounts in the
    registry (contracts.deploy_count), so a revert takes it back too.
    """

    pow_params: object  # the branch PowParams after this block (None outside PoW)
    applied: int = 0
    fees: int = 0
    writes: list[tuple[str, object, object]] = field(default_factory=list)


def _revert_block(state: ChainState, block: Block, undo: BlockUndo, pow_params) -> None:
    """Take block back off state, and give it pow_params (the parent's)."""
    for tx in reversed(block.transactions[: undo.applied]):
        state.utxo.revert(tx)
    for table, key, prior in reversed(undo.writes):
        if prior is None:
            del getattr(state, table)[key]
        else:
            getattr(state, table)[key] = prior
    state.pow_params = pow_params


def is_stake_model(params: ChainParams) -> bool:
    """True for the proof-of-stake models, where stake is locked and selects
    the publisher."""
    return isinstance(params.consensus, (consensus.PosChainParams, consensus.PosCoinAgeParams))


def _walk_transactions(
    txs: tuple[Transaction, ...],
    state: ChainState,
    height: int,
    params: ChainParams,
    undo: BlockUndo,
    check_signatures: bool = True,
) -> Validity:
    """Validate and apply a block's transactions in order, mutating state and
    recording each change in undo, up to the first invalid transaction.

    Covers the ledger rules plus the chain-level ones: transaction 0, and no
    other, is a coinbase (Coinbase); contract deploys must parse; calls must
    target a known contract and execute with gas = fee x GAS_PER_FEE_UNIT
    (failed executions keep the fee but revert writes); and no transaction
    may repeat one already in the state (DuplicateTransaction: its output 0
    exists), which apply would refuse by raising.  A coinbase's payload must
    be its block's height (Coinbase), as in BIP 34, so that a coinbase with no
    outputs cannot repeat either.  check_signatures passes to
    validate_transaction.
    """
    allow_locked = not is_stake_model(params)
    for index, tx in enumerate(txs):
        if (tx.kind == TxKind.COINBASE) != (index == 0):
            return _invalid("Coinbase", f"transaction {index}")
        v = validate_transaction(tx, state.utxo, allow_locked, check_signatures)
        if not v:
            return _invalid(v.reason, f"transaction {index}: {v.detail}".strip())
        if tx.kind == TxKind.CONTRACT_DEPLOY:
            try:
                contracts.parse_bytecode(tx.payload)
            except contracts.BytecodeError as exc:
                return _invalid("BadBytecode", f"transaction {index}: {exc}")
        call_target = None
        call_words: tuple[int, ...] = ()
        if tx.kind == TxKind.CONTRACT_CALL:
            call_target = tx.outputs[0].recipient.to_bytes()
            if call_target not in state.registry:
                return _invalid("UnknownContract", f"transaction {index}")
            try:
                call_words = contracts.parse_call_payload(tx.payload)
            except ValueError as exc:
                return _invalid("BadCallData", f"transaction {index}: {exc}")
        if state.utxo.get((tx.tx_id, 0)) is not None:
            return _invalid("DuplicateTransaction", f"transaction {index}")
        if tx.kind == TxKind.COINBASE and tx.payload != struct.pack(">Q", height):
            return _invalid("Coinbase", f"transaction {index}: payload is not the height")
        fee = state.utxo.apply(tx, height)  # 0 for a coinbase
        undo.applied += 1
        undo.fees += fee
        if tx.kind == TxKind.CONTRACT_DEPLOY:
            creator = derive_address(tx.inputs[0].public_key)
            account = contracts.registry_deploy(state.registry, creator, tx.payload)
            undo.writes.append(("registry", account.address.to_bytes(), None))
        elif tx.kind == TxKind.CONTRACT_CALL:
            # copy on write: an account is not changed once the call that
            # made it returns, so undo records can share accounts
            prior = state.registry[call_target]
            state.registry[call_target] = account = prior.clone()
            undo.writes.append(("registry", call_target, prior))
            contracts.registry_call(account, call_words, fee * contracts.GAS_PER_FEE_UNIT)
    return VALID


def _block_fees(txs: tuple[Transaction, ...], utxo: UtxoSet) -> int | None:
    """Total fees if every input resolves as txs are applied in order to
    utxo, else None; every applied transaction is reverted before returning.

    Only make_candidate and a block whose walk failed need it: a block that
    walks cleanly takes its fees from the walk.
    """
    applied: list[Transaction] = []
    try:
        fees = 0
        for tx in txs:
            fees += utxo.apply(tx, 0)
            applied.append(tx)
        return fees
    except (KeyError, ValueError):
        return None
    finally:
        for tx in reversed(applied):
            utxo.revert(tx)


def _data_check(block: Block) -> Validity:
    """The block's data against its header, genesis included: at least one
    transaction and the Merkle root (DataHash), then the declared size
    (Size)."""
    header = block.header
    if not block.transactions:
        return _invalid("DataHash", "no transactions")
    if header.data_hash != transactions_merkle_root(block.transactions):
        return _invalid("DataHash")
    if header.size != (size := len(block.data_bytes())):
        return _invalid("Size", f"declared {header.size}, actual {size}")
    return VALID


@record(frozen=True, slots=True)
class BlockVerdict:
    """A block's verdict under one params object, kept on the block by its
    first full judgement.  A valid block's also holds its forward delta, what
    it did to its parent's post-state, so that every other store can apply it
    without a rule: the branch PowParams after it, its fee total, the final
    entry of each outpoint _touched lists, and each registry or
    stake_resets write as (table, key, new value), in write order."""

    params: ChainParams
    validity: Validity
    pow_params: object = None
    fees: int = 0
    entries: tuple[UtxoEntry, ...] = ()
    writes: tuple[tuple[str, object, object], ...] = ()


def _touched(block: Block) -> dict[Outpoint, None]:
    """Every outpoint block's transactions spend or create, once, in the
    order their apply calls first write it."""
    return dict.fromkeys(
        op for tx in block.transactions
        for op in (*(inp.outpoint for inp in tx.inputs), *tx.outpoints)
    )


def _forward_delta(
    block: Block, state: ChainState, undo: BlockUndo, params: ChainParams
) -> BlockVerdict:
    """The acceptance of block, just walked to state with undo."""
    # a slot written twice holds, after the first write, the second's prior
    after: dict[tuple[str, object], object] = {}
    writes = []
    for table, key, prior in reversed(undo.writes):
        slot = (table, key)
        writes.append((table, key, after[slot] if slot in after else getattr(state, table)[key]))
        after[slot] = prior
    return BlockVerdict(params, VALID, undo.pow_params, undo.fees,
                        tuple(map(state.utxo.get, _touched(block))), tuple(reversed(writes)))


def _apply_delta(block: Block, state: ChainState, kept: BlockVerdict) -> BlockUndo:
    """Turn the parent's post-state into block's, as the walk that made
    kept did, and return the undo record of this state's prior values."""
    undo = BlockUndo(kept.pow_params, len(block.transactions), kept.fees)
    state.pow_params = kept.pow_params
    state.utxo.install(zip(_touched(block), kept.entries))
    for table, key, new in kept.writes:
        values = getattr(state, table)
        undo.writes.append((table, key, values.get(key)))
        values[key] = new
    return undo


def validate_and_apply(
    block: Block,
    parent_header: BlockHeader,
    state: ChainState,
    params: ChainParams,
    header_at: Callable[[int], BlockHeader | None],
    check_signatures: bool = True,
) -> tuple[BlockUndo | None, Validity]:
    """Full block validation in fixed rule order on the parent's post-state.

    A valid block turns state into its own post-state and returns the undo
    record that takes it back; an invalid one leaves state as it was.
    header_at(height) resolves ancestors on the block's own branch (needed for
    the retarget window of branch_pow_params).  check_signatures=False skips
    the transactions' signature checks and no other rule: load passes it for
    records whose exact bytes passed them before, and state_at for blocks
    its store accepted.

    The rules run once per block object and params object.  After the
    block's link to parent_header is checked, one rule settles a call.  A
    BlockVerdict kept on the block under the same params object answers it
    if it can: a kept acceptance answers any call and applies its forward
    delta to state, a kept rejection only a call with signature checks.
    Otherwise the rules run, and a call with signature checks keeps their
    verdict on a block that has none; a call without them keeps nothing, so
    a load replay never vouches for a later check.  This is sound because
    parent_header's post-state follows from its header hash and params
    alone: the hash commits to every byte of its branch, genesis included,
    but the signatures, and no signature changes a state.
    """
    header = block.header
    if header.prev_header_hash != header_hash(parent_header):
        return None, _invalid("PrevHash")
    if header.height != parent_header.height + 1:
        return None, _invalid("Height", f"{header.height} after {parent_header.height}")
    kept = block._verdict
    if kept is not None and kept.params is params and (kept.validity or check_signatures):
        return (_apply_delta(block, state, kept) if kept.validity else None), kept.validity
    undo, v = _judge(block, state, params, header_at, check_signatures)
    if kept is None and check_signatures:
        kept = _forward_delta(block, state, undo, params) if v else BlockVerdict(params, v)
        object.__setattr__(block, "_verdict", kept)
    return undo, v


def _judge(
    block: Block,
    state: ChainState,
    params: ChainParams,
    header_at: Callable[[int], BlockHeader | None],
    check_signatures: bool,
) -> tuple[BlockUndo | None, Validity]:
    """validate_and_apply's rules after the block's link to its parent."""
    header = block.header
    v = _data_check(block)
    if not v:
        return None, v
    if header.size > params.max_block_data_bytes:
        return None, _invalid("Oversize", f"{header.size} > {params.max_block_data_bytes}")

    pow_params = branch_pow_params(params, state, header.height, header_at)
    stakes = (
        consensus.stake_view(state.utxo, header.height, state.stake_resets)
        if is_stake_model(params)
        else ()
    )
    ok, reason = consensus.verify_header_proof(
        params.consensus, header, pow_params.target if pow_params is not None else 0, stakes
    )
    if not ok:
        return None, _invalid("Consensus", reason)

    coinbases = [t for t in block.transactions if t.kind == TxKind.COINBASE]
    if len(coinbases) != 1 or block.transactions[0].kind != TxKind.COINBASE:
        return None, _invalid("Coinbase", "exactly one coinbase, first in the block")

    # ExcessReward outranks a walk failure whenever every input resolves on
    # the parent's set.  A clean walk yields the fees; only a failed one,
    # taken back first, needs _block_fees to tell.
    undo = BlockUndo(pow_params)
    parent_pow_params, state.pow_params = state.pow_params, pow_params
    v = _walk_transactions(block.transactions, state, header.height, params, undo,
                           check_signatures)
    reward = coinbases[0].output_value
    if not v or reward > params.block_subsidy + undo.fees:
        _revert_block(state, block, undo, parent_pow_params)
        fees = undo.fees if v else _block_fees(block.transactions, state.utxo)
        if fees is not None and reward > params.block_subsidy + fees:
            return None, _invalid("ExcessReward", f"{reward} > {params.block_subsidy} + {fees}")
        return None, v
    _apply_stake_resets(block, state, stakes, params, header.height, undo)
    return undo, VALID


def branch_pow_params(
    params: ChainParams,
    parent_state: ChainState,
    height: int,
    header_at: Callable[[int], BlockHeader | None],
):
    """The PowParams whose target a block at ``height`` must meet on the
    branch of ``parent_state`` (None outside proof of work): validation and
    every miner call this.  Each retarget_interval-th height retargets from
    the last retarget_interval gaps between the headers below it, which
    header_at resolves on the branch."""
    pow_params = parent_state.pow_params
    model = params.consensus
    if isinstance(model, consensus.PowParams) and height % model.retarget_interval == 0:
        lo = max(0, height - model.retarget_interval - 1)
        window = [h for h in map(header_at, range(lo, height)) if h is not None]
        if window:
            pow_params = replace(pow_params, target=consensus.pow_retarget(window, pow_params))
    return pow_params


def _apply_stake_resets(
    block: Block, state: ChainState, stakes: Iterable, params: ChainParams, height: int,
    undo: BlockUndo,
) -> None:
    """Coin-age: restart the age of the winner's mature stake, judged on the
    parent state's stake view."""
    if not isinstance(params.consensus, consensus.PosCoinAgeParams):
        return
    winner = consensus.proof_publisher(block.header)
    if winner is None:
        return
    threshold = params.consensus.age_threshold
    for entry in stakes:
        if entry.address == winner and entry.age >= threshold:
            prior = state.stake_resets.get(entry.outpoint)
            undo.writes.append(("stake_resets", entry.outpoint, prior))
            state.stake_resets[entry.outpoint] = height


def _founding_state(genesis: Block, params: ChainParams) -> ChainState:
    """genesis's post-state on an empty UTXO set, after its shape (PrevHash),
    its data (_data_check) and its transactions pass; else ValueError, whose
    validity attribute holds the verdict."""
    state = ChainState(UtxoSet())
    if isinstance(params.consensus, consensus.PowParams):
        state.pow_params = params.consensus
    if genesis.header.height != 0 or genesis.header.prev_header_hash != GENESIS_PREV_HASH:
        v, message = _invalid("PrevHash"), "genesis must have height 0 and a zero previous hash"
    else:
        v = _data_check(genesis) and _walk_transactions(
            genesis.transactions, state, 0, params, BlockUndo(state.pow_params))
        if v:
            return state
        message = f"invalid genesis: {v.reason} {v.detail}".strip()
    error = ValueError(message)
    error.validity = v
    raise error


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


@record
class AppendResult:
    status: str
    validity: Validity = VALID
    orphaned: list[Block] = field(default_factory=list)
    adopted: list[Block] = field(default_factory=list)

    @property
    def reason(self) -> str | None:
        return self.validity.reason


@record(frozen=True)
class VerifyResult:
    ok: bool
    height: int | None = None
    reason: str | None = None


class ChainStore:
    """Block index, one undo record per validated block, and the
    materialised state at the adopted tip, for one node."""

    def __init__(
        self,
        params: ChainParams,
        genesis: Block | None = None,
        mempool: Mempool | None = None,
    ):
        self.params = params
        # None while _replay judges records: no pool is kept
        self.mempool: Mempool | None = mempool if mempool is not None else Mempool()
        self.policy: Callable[[Block], Validity] | None = None
        genesis = genesis if genesis is not None else make_genesis(params)
        state = _founding_state(genesis, params)
        self.genesis_hash = header_hash(genesis.header)
        self.blocks: dict[bytes, Block] = {self.genesis_hash: genesis}
        # a block load indexes without validation has no record
        self.undo: dict[bytes, BlockUndo] = {self.genesis_hash: BlockUndo(state.pow_params)}
        # the materialised states: the tip's, and at most one other, kept by
        # state_at until the tip moves
        self.states: dict[bytes, ChainState] = {self.genesis_hash: state}
        self.tip_hash = self.genesis_hash
        self._adopted_tx_heights: dict[bytes, int] = {
            t.tx_id: 0 for t in genesis.transactions
        }

    # -- basic queries ------------------------------------------------------

    @property
    def tip(self) -> Block:
        return self.blocks[self.tip_hash]

    @property
    def tip_height(self) -> int:
        return self.tip.header.height

    def tip_state(self) -> ChainState:
        return self.states[self.tip_hash]

    def state_at(self, block_hash: bytes) -> ChainState:
        """The post-state of a validated block.  A caller may walk it and
        revert the walk, but leaves it as found.

        Besides the tip's, the store keeps the last other state it built
        until the tip moves, so that a side branch growing block by block (a
        secret chain, or one released to peers) is not rebuilt for each
        block.  A state is built on a copy of the tip's, rewound over undo
        records to the fork point, and each block above it is reconnected
        through validate_and_apply without signature checks: every stored
        block passed validate_and_apply in this store, so a reconnect
        rebuilds a state and does not judge.  A stored block that fails
        there is a fault of the store, and raises.
        """
        state = self.states.get(block_hash)
        if state is not None:
            return state
        tip_state = self.tip_state()
        state = tip_state.clone()
        down, up = self._fork_paths(self.tip_hash, block_hash)
        for h in down:
            block = self.blocks[h]
            parent_pow_params = self.undo[block.header.prev_header_hash].pow_params
            _revert_block(state, block, self.undo[h], parent_pow_params)
        for h in reversed(up):
            block = self.blocks[h]
            parent_hash = block.header.prev_header_hash
            _, v = validate_and_apply(block, self.blocks[parent_hash].header, state, self.params,
                                      self.branch_header_at(parent_hash), check_signatures=False)
            if not v:
                raise RuntimeError(f"stored block {h.hex()} fails on its parent's state:"
                                   f" {v.reason} {v.detail}".rstrip())
        self.states = {self.tip_hash: tip_state, block_hash: state}
        return state

    def _fork_paths(self, a: bytes, b: bytes) -> tuple[list[bytes], list[bytes]]:
        """The hashes above the common ancestor of blocks a and b on a's
        branch and on b's, each newest first."""
        down: list[bytes] = []
        up: list[bytes] = []
        while a != b:
            if self.blocks[a].header.height >= self.blocks[b].header.height:
                down.append(a)
                a = self.blocks[a].header.prev_header_hash
            else:
                up.append(b)
                b = self.blocks[b].header.prev_header_hash
        return down, up

    def get_block(self, block_hash: bytes) -> Block | None:
        return self.blocks.get(block_hash)

    def adopted_path(self) -> list[bytes]:
        """Hashes from genesis up to and including the tip."""
        down, _ = self._fork_paths(self.tip_hash, self.genesis_hash)
        return [self.genesis_hash] + down[::-1]

    def ancestor_at(self, block_hash: bytes, height: int) -> bytes | None:
        h = block_hash
        while True:
            block = self.blocks.get(h)
            if block is None:
                return None
            if block.header.height == height:
                return h
            if block.header.height < height or block.header.height == 0:
                return None
            h = block.header.prev_header_hash

    def branch_header_at(self, parent_hash: bytes) -> Callable[[int], BlockHeader | None]:
        def header_at(height: int) -> BlockHeader | None:
            h = self.ancestor_at(parent_hash, height)
            return self.blocks[h].header if h is not None else None

        return header_at

    # -- append -------------------------------------------------------------

    def append_block(self, block: Block, check_signatures: bool = True) -> AppendResult:
        h = header_hash(block.header)
        if h in self.blocks:
            return AppendResult(REJECTED, _invalid("Duplicate"))
        parent_hash = block.header.prev_header_hash
        parent = self.blocks.get(parent_hash)
        if parent is None:
            return AppendResult(REJECTED, _invalid("UnknownParent"))
        if self.policy is not None:
            v = self.policy(block)
            if not v:
                return AppendResult(REJECTED, v)
        if parent_hash not in self.undo:
            return AppendResult(REJECTED, _invalid("UnknownParentState"))
        state = self.state_at(parent_hash)
        undo, v = validate_and_apply(
            block, parent.header, state, self.params, self.branch_header_at(parent_hash),
            check_signatures,
        )
        if not v:
            return AppendResult(REJECTED, v)

        self.blocks[h] = block
        self.undo[h] = undo
        del self.states[parent_hash]  # the parent's state is now the block's
        self.states[h] = state
        if block.header.height <= self.tip_height:
            return AppendResult(NEW_SIDE_BRANCH)
        return self._reorganize(h, state)

    def _reorganize(self, new_tip: bytes, state: ChainState) -> AppendResult:
        """Adopt new_tip, whose post-state is state, and drop the old tip's.
        The confirmation index changes over the orphaned and adopted blocks
        only.  A new tip on the old one orphans nothing and reports Extended."""
        down, up = self._fork_paths(self.tip_hash, new_tip)
        orphaned = [self.blocks[h] for h in reversed(down)]
        adopted = [self.blocks[h] for h in reversed(up)]
        self.tip_hash = new_tip
        self.states = {new_tip: state}
        for b in orphaned:
            for t in b.transactions:
                self._adopted_tx_heights.pop(t.tx_id, None)
        for b in adopted:
            for t in b.transactions:
                self._adopted_tx_heights[t.tx_id] = b.header.height
        if self.mempool is not None:
            for b in adopted:
                self.mempool.remove_confirmed(b.transactions)
            # the orphaned transactions that can enter the pool, in tx_id
            # order (the batch shares one arrival): no coinbase, and none the
            # adopted branch confirmed
            for t in sorted((t for b in orphaned for t in b.transactions[1:]
                             if t.tx_id not in self._adopted_tx_heights), key=lambda t: t.tx_id):
                self.admit(t)
            self.mempool.drop_conflicting(state.utxo, not is_stake_model(self.params))
        # drop the verdicts the parent's transactions keep (validate_transaction),
        # pool or not, as block judgement keeps them too: only a node two
        # blocks behind, or one that reorganizes past them, still asks about
        # those, and kept, they would hold the entries they spent as long as
        # the chain
        for t in self.blocks[self.tip.header.prev_header_hash].transactions:
            object.__setattr__(t, "_verdict", None)
        if not orphaned:
            return AppendResult(EXTENDED)
        return AppendResult(REORGANIZED, orphaned=orphaned, adopted=adopted)

    # -- pool ------------------------------------------------------------------

    def admit(self, tx: Transaction) -> Validity:
        """Offer tx to the pool against the tip state (Mempool.add)."""
        return self.mempool.add(tx, self.tip_state().utxo, not is_stake_model(self.params))

    # -- confirmation ----------------------------------------------------------

    def is_confirmed(self, tx_id: bytes) -> bool:
        height = self._adopted_tx_heights.get(tx_id)
        if height is None:
            return False
        return self.tip_height - height >= self.params.confirmation_depth

    def confirmation_height(self, tx_id: bytes) -> int | None:
        return self._adopted_tx_heights.get(tx_id)

    # -- candidate assembly ---------------------------------------------------

    def make_candidate(
        self,
        publisher: Address,
        txs: list[Transaction],
        timestamp: int,
        rule_version: int = 0,
        parent_hash: bytes | None = None,
    ) -> Block:
        """Assemble an unproven block on top of a parent (default: the tip)."""
        parent_hash = parent_hash if parent_hash is not None else self.tip_hash
        parent = self.blocks[parent_hash]
        fees = _block_fees(tuple(txs), self.state_at(parent_hash).utxo)
        if fees is None:
            raise ValueError("candidate transactions do not resolve")
        height = parent.header.height + 1
        reward = self.params.block_subsidy + fees
        coinbase = make_coinbase([(publisher, reward)] if reward else [], height)
        all_txs = (coinbase,) + tuple(txs)
        data = block_data_bytes(all_txs)
        header = BlockHeader(
            height=height,
            prev_header_hash=header_hash(parent.header),
            data_hash=transactions_merkle_root(all_txs),
            timestamp=timestamp,
            size=len(data),
            nonce=0,
            rule_version=rule_version,
        )
        return Block(header, all_txs)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _replay(store: ChainStore, blocks: Iterable[Block], trusted: int = 0):
    """Judge the blocks after store's genesis in order, on store with no pool,
    yielding each with its Validity; the first ``trusted`` skip signature
    checks.  An exact duplicate is skipped; one that repeats a header with
    other transaction bytes (signatures lie outside tx_id) is judged on a
    clone of its parent's state, if that passed; any other rejected block is
    indexed without an undo record, so it is never adopted or built on."""
    store.mempool = None
    for index, block in enumerate(blocks):
        check_signatures = index >= trusted
        v = store.append_block(block, check_signatures).validity
        if v.reason == "Duplicate":
            if store.blocks[header_hash(block.header)] == block:
                continue
            parent_hash = block.header.prev_header_hash
            if parent_hash in store.undo:
                v = validate_and_apply(
                    block, store.blocks[parent_hash].header, store.state_at(parent_hash).clone(),
                    store.params, store.branch_header_at(parent_hash), check_signatures,
                )[1]
        elif not v:
            store.blocks[header_hash(block.header)] = block
        yield block, v


def verify_blocks(
    params: ChainParams, blocks: Iterable[Block], store: ChainStore | None = None
) -> VerifyResult:
    """Found a store on the first block and judge every later one through
    _replay, up to the first failing verdict; an unknown parent, or a
    height-0 block after the first, reports PrevHash.  A store already
    founded on the first block, as read_chain_file's, can be passed instead:
    the replay then runs on it, and the first block is not judged again."""
    blocks = iter(blocks)
    genesis = next(blocks, None)
    if genesis is None:
        return VerifyResult(True)
    if store is None:
        try:
            store = ChainStore(params, genesis)
        except ValueError as exc:
            return VerifyResult(False, genesis.header.height, exc.validity.reason)
    for block, v in _replay(store, blocks):
        if not v:
            height = block.header.height
            reason = "PrevHash" if v.reason == "UnknownParent" or height == 0 else v.reason
            return VerifyResult(False, height, reason)
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class ChainFileError(Exception):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


@record
class ChainFile:
    """A decoded chain file (read_chain_file), and what load returns: its
    store then holds every record replayed.  It keeps no file bytes: each
    record's block is decoded from them, and load drops them before its
    replay."""

    blocks: list[Block]
    ends: list[int]  # the offset just past each block's record
    store: ChainStore  # founded on the first block
    truncated_at: int | None = None


def persist(store: ChainStore, path: str) -> None:
    """Write all blocks in insertion order, then the checked-prefix record
    beside the file, at path + CHECKED_SUFFIX; each file is written through
    atomic_write.

    The record vouches for the longest prefix of the file whose records all
    hold blocks with an undo record, that is blocks that passed
    validate_and_apply: it is that prefix's length as 8 big-endian bytes and
    its sha256.  It vouches for exact bytes, not for one file, so a record
    left beside another file is still true of any prefix it matches.
    """
    head = CHAIN_MAGIC + struct.pack(">H", CHAIN_FORMAT_VERSION)
    prefix = hashlib.sha256(head)
    checked = len(head)

    def chunks():
        nonlocal checked
        yield head
        vouched = True
        for h, block in store.blocks.items():
            body = block.serialize()
            record = struct.pack(">I", len(body)) + body + sha256(body)[:4]
            vouched = vouched and h in store.undo
            if vouched:
                prefix.update(record)
                checked += len(record)
            yield record

    atomic_write(path, chunks())
    atomic_write(path + CHECKED_SUFFIX, [struct.pack(">Q", checked) + prefix.digest()])


def _checked_length(path: str, buf: bytes) -> int:
    """How many leading bytes of buf, the chain file at path, the record
    beside it vouches for: 0 when the record is missing, unreadable, not 40
    bytes, longer than buf, or its digest does not match."""
    try:
        with open(path + CHECKED_SUFFIX, "rb") as fh:
            record = fh.read(41)
    except OSError:
        return 0
    if len(record) != 40:
        return 0
    (length,) = struct.unpack_from(">Q", record)
    if length > len(buf) or hashlib.sha256(memoryview(buf)[:length]).digest() != record[8:]:
        return 0
    return length


def read_chain_file(path: str, params: ChainParams) -> ChainFile:
    """Decode the chain file at path and found a store on its first block
    (_decode_chain)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    return _decode_chain(buf, params)


def _decode_chain(buf: bytes, params: ChainParams) -> ChainFile:
    """Decode buf, a chain file's bytes, and found a store on its first block.
    A file ending mid-record yields its intact prefix and the truncation
    offset; a bad magic or version, checksum or block, no blocks, or a first
    block that cannot found a store raises ChainFileError with the fault's
    offset."""
    if buf[:4] != CHAIN_MAGIC:
        raise ChainFileError(0, "bad magic")
    if len(buf) < 6:
        raise ChainFileError(4, "missing format version")
    (version,) = struct.unpack_from(">H", buf, 4)
    if version != CHAIN_FORMAT_VERSION:
        raise ChainFileError(4, f"unsupported format version {version}")
    offset = 6
    blocks: list[Block] = []
    ends: list[int] = []
    truncated_at: int | None = None
    while offset < len(buf):
        start = offset
        length = int.from_bytes(buf[offset : offset + 4], "big")
        offset += 4 + length + 4  # the length field, the record, its checksum
        if offset > len(buf):  # also when the length field itself is cut short
            truncated_at = start
            break
        record = buf[start + 4 : offset - 4]
        if sha256(record)[:4] != buf[offset - 4 : offset]:
            raise ChainFileError(start, "record checksum mismatch")
        try:
            block, consumed = deserialize_block(record)
        except ValueError as exc:
            raise ChainFileError(start, f"undecodable block: {exc}") from None
        if consumed != length:
            raise ChainFileError(start, "trailing bytes in record")
        blocks.append(block)
        ends.append(offset)
    if not blocks:
        raise ChainFileError(6, "no blocks in file")
    if blocks[0].header.height != 0:
        raise ChainFileError(6, "first record is not a genesis block")
    try:
        store = ChainStore(params, blocks[0])
    except ValueError as exc:
        raise ChainFileError(6, str(exc)) from None
    return ChainFile(blocks, ends, store, truncated_at)


def load(path: str, params: ChainParams) -> ChainFile:
    """The chain file at path, decoded as read_chain_file does, once its
    store has judged every later record through _replay: a block that fails
    a rule stays indexed, so persist writes it back.  Records within the
    prefix that persist's checked-prefix record vouches for skip their
    signature checks, which depend on the record bytes alone, and no other
    rule; the rest are checked in full.  The file is read once, so the bytes
    the record vouches for are the bytes decoded, and they are dropped before
    the replay.  The mempool starts empty, even when a reorganization in the
    file orphaned transactions."""
    with open(path, "rb") as fh:
        buf = fh.read()
    chain_file = _decode_chain(buf, params)
    checked = _checked_length(path, buf)
    del buf
    trusted = sum(end <= checked for end in chain_file.ends[1:])
    store = chain_file.store
    for _ in _replay(store, chain_file.blocks[1:], trusted):
        pass
    store.mempool = Mempool()
    return chain_file


# Last, because consensus imports Block, BlockHeader and header_hash from
# this module: bound here, it finds them defined whichever module is
# imported first.
from . import consensus

import subprocess
import sys
from chainsim._record import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import chain
from chainsim.chain import (
    Block,
    BlockHeader,
    ChainFileError,
    ChainParams,
    ChainStore,
    EXTENDED,
    NEW_SIDE_BRANCH,
    REJECTED,
    REORGANIZED,
    block_data_bytes,
    deserialize_block,
    header_hash,
    load,
    make_genesis,
    persist,
    transactions_merkle_root,
    validate_and_apply,
    verify_blocks,
    BlockUndo,
    _block_fees,
    _revert_block,
    _walk_transactions,
)
from chainsim.crypto import HashStream, derive_address, keypair_generate, sha256, sign
from chainsim.ledger import (
    Balance,
    Mempool,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    Validity,
    balance,
    build_transaction,
    make_coinbase,
)

ALICE = keypair_generate(bytes(range(32)))
BOB = keypair_generate(bytes(range(1, 33)))
A_ADDR = derive_address(ALICE.public_key)
B_ADDR = derive_address(BOB.public_key)
C_ADDR = derive_address(keypair_generate(bytes(range(2, 34))).public_key)


def fresh_store(allocation=((A_ADDR, 100),), **overrides) -> ChainStore:
    params = ChainParams(genesis_allocation=tuple(allocation), **overrides)
    return ChainStore(params, mempool=Mempool())


def extend(store: ChainStore, txs=(), publisher=B_ADDR, parent=None, timestamp=None):
    parent = parent if parent is not None else store.tip_hash
    ts = timestamp if timestamp is not None else store.blocks[parent].header.height + 1
    block = store.make_candidate(publisher, list(txs), ts, parent_hash=parent)
    return block, store.append_block(block)


def forge(store: ChainStore, txs) -> Block:
    """A block of exactly txs on the tip, with a consistent header; no rule
    beyond the header's own is checked."""
    height = store.tip_height + 1
    txs = tuple(txs)
    header = BlockHeader(height, store.tip_hash, transactions_merkle_root(txs), height,
                         len(block_data_bytes(txs)), 0, 0)
    return Block(header, txs)


def signed(inputs, outputs) -> Transaction:
    """A transfer spending (outpoint, key) pairs, each input signed by its
    key whether or not the key owns the outpoint."""
    unsigned = Transaction(
        TxKind.TRANSFER,
        tuple(TxInput(op[0], op[1], key.public_key, b"") for op, key in inputs),
        outputs,
    )
    return Transaction(
        TxKind.TRANSFER,
        tuple(TxInput(op[0], op[1], key.public_key, sign(key, unsigned.tx_id))
              for op, key in inputs),
        outputs,
    )


def bad_signature(tx: Transaction) -> Transaction:
    first = tx.inputs[0]
    flipped = bytes([first.signature[0] ^ 1]) + first.signature[1:]
    return Transaction(
        tx.kind, (TxInput(first.source_tx, first.source_index, first.public_key, flipped),)
        + tx.inputs[1:], tx.outputs, tx.payload,
    )


# ---------------------------------------------------------------------------
# genesis and headers
# ---------------------------------------------------------------------------


def test_genesis_with_empty_allocation():
    genesis = make_genesis(ChainParams())
    assert genesis.header.height == 0
    assert genesis.header.prev_header_hash == b"\x00" * 32
    assert genesis.transactions[0].outputs == ()


def test_genesis_is_deterministic_and_pinned():
    params = ChainParams()
    assert header_hash(make_genesis(params).header) == header_hash(
        make_genesis(params).header
    )
    assert header_hash(make_genesis(params).header).hex() == (
        "b2e4c6f9b292c0343bbf1b3fb2a1abfcfedb986c138d75f25ba5b076dcd224d5"
    )


def test_genesis_allocation_is_spendable_balance():
    store = fresh_store([(A_ADDR, 100)])
    assert balance(A_ADDR, store.tip_state().utxo) == Balance(100, 0)


def test_header_hash_depends_on_nonce():
    header = make_genesis(ChainParams()).header
    bumped = BlockHeader(
        header.height, header.prev_header_hash, header.data_hash,
        header.timestamp, header.size, header.nonce + 1, header.rule_version,
        header.consensus_tag,
    )
    assert header_hash(header) != header_hash(bumped)


def test_header_roundtrip_through_block_serialization():
    store = fresh_store()
    block, _ = extend(store)
    decoded, consumed = deserialize_block(block.serialize())
    assert consumed == len(block.serialize())
    assert decoded == block
    assert header_hash(decoded.header) == header_hash(block.header)


@pytest.mark.parametrize("first", ["chainsim.chain", "chainsim.consensus"])
def test_chain_and_consensus_import_in_either_order(first):
    """chain binds consensus last, after what consensus imports from chain,
    so a fresh interpreter can import either module first."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(chain.__file__).parent.parent)!r})",
        f"import {first}",
        "from chainsim import chain, consensus",
        "assert chain.consensus is consensus and consensus.Block is chain.Block",
    ])
    run = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# block validation
# ---------------------------------------------------------------------------


def test_data_hash_mismatch_rejected():
    store = fresh_store()
    block = store.make_candidate(B_ADDR, [], 1)
    bad = Block(
        BlockHeader(
            block.header.height, block.header.prev_header_hash, b"\x99" * 32,
            block.header.timestamp, block.header.size, 0, 0,
        ),
        block.transactions,
    )
    result = store.append_block(bad)
    assert result.status == REJECTED
    assert result.reason == "DataHash"


def test_each_block_instance_is_judged_on_its_own_data():
    """Two stores each reject the one block with a wrong Merkle root as
    DataHash; its dataclasses.replace copy with the right root is judged
    afresh and accepted by both, and a copy of that header over other
    transactions is still rejected."""
    stores = [fresh_store(), fresh_store()]
    block = stores[0].make_candidate(B_ADDR, [], 1)
    bad = replace(block, header=replace(block.header, data_hash=b"\x99" * 32))
    for store in stores:
        assert store.append_block(bad).reason == "DataHash"
    good = replace(bad, header=replace(bad.header, data_hash=block.header.data_hash))
    assert stores[0].append_block(good).status == EXTENDED
    swapped = replace(good, transactions=stores[1].make_candidate(C_ADDR, [], 1).transactions)
    assert header_hash(swapped.header) == header_hash(good.header)
    assert stores[1].append_block(swapped).reason == "DataHash"
    assert stores[1].append_block(good).status == EXTENDED


def test_coinbase_reward_boundary():
    store = fresh_store([(A_ADDR, 100)], block_subsidy=50)
    fund = store.tip.transactions[0]
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 90)], 10, [ALICE],
                           store.tip_state().utxo)
    # exactly subsidy + fees is legal
    block = store.make_candidate(B_ADDR, [tx], 1)
    assert block.transactions[0].outputs[0].amount == 60
    assert store.append_block(block).status == EXTENDED

    # one unit over is not
    greedy = make_coinbase([(B_ADDR, 51)], 2)
    data = block_data_bytes((greedy,))
    over = Block(
        BlockHeader(2, store.tip_hash, transactions_merkle_root((greedy,)),
                    2, len(data), 0, 0),
        (greedy,),
    )
    result = store.append_block(over)
    assert result.status == REJECTED
    assert result.reason == "ExcessReward"


def test_oversized_block_rejected():
    store = fresh_store(max_block_data_bytes=150)
    fund = store.tip.transactions[0]
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 1)], 0, [ALICE],
                           store.tip_state().utxo)
    block = store.make_candidate(B_ADDR, [tx], 1)
    assert len(block.data_bytes()) > 150
    result = store.append_block(block)
    assert result.status == REJECTED
    assert result.reason == "Oversize"


def test_height_must_increment():
    store = fresh_store()
    block = store.make_candidate(B_ADDR, [], 1)
    skewed = Block(
        BlockHeader(5, block.header.prev_header_hash, block.header.data_hash,
                    1, block.header.size, 0, 0),
        block.transactions,
    )
    # data_hash still matches, but the height does not chain
    result = store.append_block(skewed)
    assert result.status == REJECTED
    assert result.reason == "Height"


def test_repeated_coinbase_is_rejected_without_touching_the_store():
    store = fresh_store()
    block1, result = extend(store)
    assert result.status == EXTENDED
    tip, utxo_digest = store.tip_hash, store.tip_state().utxo.digest()
    before = store.tip_state().clone()

    repeat = forge(store, block1.transactions)
    result = store.append_block(repeat)
    assert result.status == REJECTED
    assert result.reason == "DuplicateTransaction"
    assert result.validity.detail == "transaction 0"
    assert store.tip_hash == tip
    assert store.tip_state().utxo.digest() == utxo_digest
    assert store.states == {tip: before}


def test_repeated_empty_coinbase_is_rejected():
    """A coinbase with no outputs has no output 0 for DuplicateTransaction to
    find, so its payload must be its height.  Block 1's repeated at height 3
    put one id twice on a branch, and a longer rival from block 2 then made
    the confirmation index forget the copy at height 1."""
    store = fresh_store(block_subsidy=0)
    block1, _ = extend(store)
    block2, _ = extend(store)
    assert block1.transactions[0].outputs == ()
    result = store.append_block(forge(store, block1.transactions))
    assert (result.status, result.reason) == (REJECTED, "Coinbase")
    assert result.validity.detail == "transaction 0: payload is not the height"
    parent = header_hash(block2.header)
    for _ in range(2):
        block, result = extend(store, parent=parent, timestamp=10)
        assert result.status == EXTENDED
        parent = header_hash(block.header)
    assert store.confirmation_height(block1.transactions[0].tx_id) == 1


def _fee_check_block(case: str):
    """(store, block) for one row of the folded fee-check table: subsidy 50,
    one payment with fee 10 from a genesis output of 100."""
    store = fresh_store([(A_ADDR, 100)], block_subsidy=50)
    fund = store.tip.transactions[0]
    pay = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 90)], 10, [ALICE],
                            store.tip_state().utxo)
    reward = {"bad_signature": 61, "unknown_input": 61, "exact": 60, "one_over": 61}[case]
    txs = [make_coinbase([(B_ADDR, reward)], 1), pay]
    if case == "bad_signature":
        txs.append(bad_signature(signed([((pay.tx_id, 0), BOB)], (TxOutput(90, A_ADDR),))))
    elif case == "unknown_input":
        txs.append(signed([((sha256(b"ghost"), 0), ALICE)], (TxOutput(1, A_ADDR),)))
    return store, forge(store, txs)


@pytest.mark.parametrize("case, status, reason", [
    # the reward is judged first whenever every input resolves...
    ("bad_signature", REJECTED, "ExcessReward"),
    # ...and the walk's reason stands when one does not
    ("unknown_input", REJECTED, "UnknownInput"),
    ("exact", EXTENDED, None),
    ("one_over", REJECTED, "ExcessReward"),
])
def test_folded_fee_check_reasons(case, status, reason):
    store, block = _fee_check_block(case)
    result = store.append_block(block)
    assert (result.status, result.reason) == (status, reason)
    if reason == "ExcessReward":
        assert result.validity.detail == "61 > 50 + 10"


def _fees_first_reference(block: Block, parent_state, params: ChainParams):
    """The transaction stage of validate_and_apply in its older order: fees
    from _block_fees on the parent's set, the reward check, then the walk."""
    fees = _block_fees(block.transactions, parent_state.utxo)
    reward = block.transactions[0].output_value
    if fees is not None and reward > params.block_subsidy + fees:
        return None, Validity(False, "ExcessReward", f"{reward} > {params.block_subsidy} + {fees}")
    state = parent_state.clone()
    v = _walk_transactions(block.transactions, state, block.header.height, params, BlockUndo(None))
    return (state if v else None), v


_SPENDS = st.sampled_from(
    ["pay"] * 4 + ["chained"] * 2 + ["bad_signature", "unknown", "wrong_owner", "value_created"]
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_SPENDS, st.integers(0, 3), st.integers(0, 3)), max_size=5),
    st.integers(-1, 3),
    st.integers(0, 7),
)
def test_folded_fee_check_matches_fees_first_reference(plan, extra, coinbase_pick):
    store = fresh_store([(A_ADDR, 10)] * 4, block_subsidy=5)
    genesis = store.tip.transactions[0]
    txs, previous = [], None
    for spend, i, fee in plan:
        source = ((genesis.tx_id, i), ALICE)
        outputs = (TxOutput(10 - fee, B_ADDR),)
        if spend == "unknown":
            source = ((sha256(b"ghost"), i), ALICE)
        elif spend == "chained" and previous is not None:
            source = ((previous.tx_id, 0), BOB)
            outputs = (TxOutput(max(previous.outputs[0].amount - fee, 0), C_ADDR),)
        elif spend == "wrong_owner":
            source = ((genesis.tx_id, i), BOB)
        elif spend == "value_created":
            outputs = (TxOutput(10 + fee + 1, B_ADDR),)
        tx = signed([source], outputs)
        txs.append(bad_signature(tx) if spend == "bad_signature" else tx)
        previous = tx
    declared = sum(fee for _, _, fee in plan)
    # now and then the block repeats the genesis coinbase
    reward = 5 + declared + extra
    coinbase = genesis if coinbase_pick == 0 else make_coinbase([(B_ADDR, reward)], 1)
    block = forge(store, [coinbase] + txs)

    state = store.tip_state()
    parent = state.clone()
    want_state, want = _fees_first_reference(block, parent, store.params)
    assert state == parent
    undo, got = validate_and_apply(
        block, store.tip.header, state, store.params, store.branch_header_at(store.tip_hash),
    )
    assert (got.ok, got.reason, got.detail) == (want.ok, want.reason, want.detail)
    if got.ok:
        assert state == want_state and state.utxo.digest() == want_state.utxo.digest()
        _revert_block(state, block, undo, parent.pow_params)
    # a rejected block leaves the state as it was, and an accepted one reverts to it
    assert state == parent and state.utxo.digest() == parent.utxo.digest()


# ---------------------------------------------------------------------------
# fork choice
# ---------------------------------------------------------------------------


def test_extend_then_side_branch_then_reorganize():
    store = fresh_store([(A_ADDR, 10), (A_ADDR, 10)])
    _, r1 = extend(store, publisher=A_ADDR)
    assert r1.status == EXTENDED

    _, r2 = extend(store, publisher=B_ADDR, parent=store.adopted_path()[0])
    assert r2.status == NEW_SIDE_BRANCH
    assert store.tip.transactions[0].outputs[0].recipient == A_ADDR  # tip kept

    side = list(store.blocks)[-1]
    _, r3 = extend(store, publisher=B_ADDR, parent=side, timestamp=2)
    assert r3.status == REORGANIZED
    assert [b.header.height for b in r3.orphaned] == [1]
    assert [b.header.height for b in r3.adopted] == [1, 2]


def test_conflicting_branch_transactions_reorg_reinserts_orphans():
    """Two equal branches share tx1, tx2 and differ in tx3 vs tx4; the branch
    carrying tx4 wins the length race, so tx3 must reappear in the pool."""
    store = fresh_store([(A_ADDR, 10), (A_ADDR, 10), (A_ADDR, 10), (A_ADDR, 10)])
    genesis_hash = store.tip_hash
    fund = store.tip.transactions[0]
    utxo = store.tip_state().utxo
    tx1, tx2, tx3, tx4 = (
        build_transaction([(fund.tx_id, i)], [(B_ADDR, 10)], 0, [ALICE], utxo)
        for i in range(4)
    )

    block_a = store.make_candidate(A_ADDR, [tx1, tx2, tx3], 1, parent_hash=genesis_hash)
    assert store.append_block(block_a).status == EXTENDED

    block_b = store.make_candidate(B_ADDR, [tx1, tx2, tx4], 1, parent_hash=genesis_hash)
    assert store.append_block(block_b).status == NEW_SIDE_BRANCH
    assert store.tip_hash == header_hash(block_a.header)

    follow = store.make_candidate(B_ADDR, [], 2, parent_hash=header_hash(block_b.header))
    result = store.append_block(follow)
    assert result.status == REORGANIZED
    assert result.orphaned == [block_a]
    assert result.adopted == [block_b, follow]

    assert tx3.tx_id in store.mempool
    assert tx1.tx_id not in store.mempool and tx2.tx_id not in store.mempool
    assert store.confirmation_height(tx4.tx_id) == 1
    assert store.confirmation_height(tx3.tx_id) is None



def test_reorganization_offers_the_pool_only_orphans_that_can_enter(monkeypatch):
    """The orphaned block holds its coinbase, tx1, which the adopted branch
    also confirmed, and tx3, which it did not: only tx3 is offered to
    Mempool.add, and only tx3 ends up in the pool."""
    store = fresh_store([(A_ADDR, 5), (B_ADDR, 5)])
    genesis_hash = store.tip_hash
    fund = store.tip.transactions[0]
    utxo = store.tip_state().utxo
    tx3 = build_transaction([(fund.tx_id, 0)], [(C_ADDR, 5)], 0, [ALICE], utxo)
    tx1 = build_transaction([(fund.tx_id, 1)], [(C_ADDR, 5)], 0, [BOB], utxo)
    orphan = store.make_candidate(A_ADDR, [tx1, tx3], 1, parent_hash=genesis_hash)
    assert store.append_block(orphan).status == EXTENDED
    side = store.make_candidate(B_ADDR, [tx1], 1, parent_hash=genesis_hash)
    assert store.append_block(side).status == NEW_SIDE_BRANCH

    offered = []
    add = Mempool.add

    def counted(self, tx, *args):
        v = add(self, tx, *args)
        offered.append((tx.tx_id, bool(v)))
        return v

    monkeypatch.setattr(Mempool, "add", counted)
    follow = store.make_candidate(B_ADDR, [], 2, parent_hash=header_hash(side.header))
    result = store.append_block(follow)
    assert result.status == REORGANIZED and result.orphaned == [orphan]
    assert offered == [(tx3.tx_id, True)]
    assert tx3.tx_id in store.mempool and tx1.tx_id not in store.mempool

def test_unknown_parent_rejected():
    store = fresh_store()
    other = fresh_store()
    block, _ = extend(other)
    orphan = other.make_candidate(B_ADDR, [], 2)
    assert store.append_block(orphan).status == REJECTED
    assert store.append_block(orphan).reason == "UnknownParent"


def test_duplicate_block_rejected():
    store = fresh_store()
    block, _ = extend(store)
    result = store.append_block(block)
    assert result.status == REJECTED
    assert result.reason == "Duplicate"


def test_fork_choice_converges_for_any_delivery_order():
    base = fresh_store([(A_ADDR, 10)])
    blocks = []
    for i in range(1, 6):
        block, result = extend(base, timestamp=i)
        assert result.status == EXTENDED
        blocks.append(block)
    side = base.make_candidate(A_ADDR, [], 9, parent_hash=header_hash(blocks[2].header))
    assert base.append_block(side).status == NEW_SIDE_BRANCH
    blocks.append(side)

    rng = HashStream(13, "shuffle")
    for _ in range(20):
        order = list(blocks)
        for i in range(len(order) - 1, 0, -1):  # seeded Fisher-Yates
            j = rng.randrange(i + 1)
            order[i], order[j] = order[j], order[i]
        replica = fresh_store([(A_ADDR, 10)])
        pending = list(order)
        while pending:
            progressed = False
            still = []
            for block in pending:
                if replica.append_block(block).reason == "UnknownParent":
                    still.append(block)
                else:
                    progressed = True
            assert progressed, "delivery stalled"
            pending = still
        assert replica.tip_hash == base.tip_hash


def test_reorganized_state_equals_clean_replay():
    store = fresh_store([(A_ADDR, 10)])
    genesis_hash = store.tip_hash
    extend(store, timestamp=1)
    b1, _ = extend(store, publisher=A_ADDR, parent=genesis_hash, timestamp=1)
    b2, r = extend(store, parent=header_hash(b1.header), timestamp=2)
    assert r.status == REORGANIZED

    replica = fresh_store([(A_ADDR, 10)])
    for h in store.adopted_path()[1:]:
        assert replica.append_block(store.blocks[h]).status == EXTENDED
    assert replica.tip_hash == store.tip_hash
    assert replica.tip_state().utxo == store.tip_state().utxo
    assert replica.tip_state().utxo.digest() == store.tip_state().utxo.digest()


# ---------------------------------------------------------------------------
# confirmation
# ---------------------------------------------------------------------------


def test_confirmation_depth_boundary():
    store = fresh_store([(A_ADDR, 10)], confirmation_depth=6)
    fund = store.tip.transactions[0]
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 10)], 0, [ALICE],
                           store.tip_state().utxo)
    extend(store, [tx], timestamp=1)
    assert not store.is_confirmed(tx.tx_id)
    for i in range(2, 7):
        extend(store, timestamp=i)
    assert store.tip_height == 6
    assert not store.is_confirmed(tx.tx_id)  # five on top
    extend(store, timestamp=7)
    assert store.is_confirmed(tx.tx_id)  # six on top


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def build_chain(store: ChainStore, length: int) -> list[Block]:
    blocks = [store.tip]
    for i in range(1, length + 1):
        block, result = extend(store, timestamp=i)
        assert result.status == EXTENDED
        blocks.append(block)
    return blocks


def test_verify_untampered_chain_ok():
    store = fresh_store()
    build_chain(store, 50)
    result = verify_blocks(store.params, store.blocks.values())
    assert result.ok and result.height is None


def test_verify_flags_tampered_transaction_data():
    store = fresh_store([(A_ADDR, 10)])
    blocks = build_chain(store, 20)
    target = blocks[10]
    coin = target.transactions[0]
    tampered_tx = Transaction(
        coin.kind, coin.inputs,
        (TxOutput(coin.outputs[0].amount + 1, coin.outputs[0].recipient),),
        coin.payload,
    )
    blocks[10] = Block(target.header, (tampered_tx,))
    result = verify_blocks(store.params, blocks)
    assert not result.ok
    assert (result.height, result.reason) == (10, "DataHash")


def test_verify_flags_recomputed_block_via_broken_link():
    store = fresh_store([(A_ADDR, 10)])
    blocks = build_chain(store, 20)
    target = blocks[10]
    coin = target.transactions[0]
    # redirect the (unsigned) coinbase so block 10 stays valid in isolation
    tampered_tx = Transaction(
        coin.kind, coin.inputs,
        (TxOutput(coin.outputs[0].amount, A_ADDR),),
        coin.payload,
    )
    txs = (tampered_tx,)
    fixed_header = BlockHeader(
        target.header.height, target.header.prev_header_hash,
        transactions_merkle_root(txs), target.header.timestamp,
        len(block_data_bytes(txs)), target.header.nonce, target.header.rule_version,
        target.header.consensus_tag,
    )
    blocks[10] = Block(fixed_header, txs)
    result = verify_blocks(store.params, blocks)
    assert not result.ok
    assert (result.height, result.reason) == (11, "PrevHash")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_persist_load_roundtrip_100_blocks(tmp_path):
    store = fresh_store()
    build_chain(store, 100)
    path = tmp_path / "chain.dat"
    persist(store, str(path))
    loaded = load(str(path), store.params)
    assert loaded.truncated_at is None
    assert loaded.store.tip_hash == store.tip_hash
    assert verify_blocks(loaded.store.params, loaded.store.blocks.values()).ok
    assert loaded.store.tip_state().utxo == store.tip_state().utxo


def test_load_recovers_prefix_of_truncated_file(tmp_path):
    store = fresh_store()
    build_chain(store, 10)
    path = tmp_path / "chain.dat"
    persist(store, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    loaded = load(str(path), store.params)
    assert loaded.truncated_at is not None
    assert loaded.store.tip_height == 9


def test_load_fails_on_checksum_corruption_with_offset(tmp_path):
    store = fresh_store()
    build_chain(store, 10)
    path = tmp_path / "chain.dat"
    persist(store, str(path))
    raw = bytearray(path.read_bytes())
    # find record 3's offset by walking the framing
    offset = 6
    for _ in range(3):
        length = int.from_bytes(raw[offset : offset + 4], "big")
        offset += 4 + length + 4
    length = int.from_bytes(raw[offset : offset + 4], "big")
    raw[offset + 4 + length] ^= 0xFF  # first checksum byte
    path.write_bytes(bytes(raw))
    with pytest.raises(ChainFileError) as err:
        load(str(path), store.params)
    assert err.value.offset == offset
    assert "checksum" in str(err.value)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "chain.dat"
    path.write_bytes(b"NOPE" + b"\x00" * 10)
    with pytest.raises(ChainFileError) as err:
        load(str(path), ChainParams())
    assert err.value.offset == 0


def test_empty_blocks_are_legal():
    store = fresh_store(allocation=())
    block, result = extend(store, publisher=A_ADDR)
    assert result.status == EXTENDED
    # subsidy defaults on: coinbase only
    assert len(block.transactions) == 1

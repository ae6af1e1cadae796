from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim.chain import (
    Block,
    BlockHeader,
    ChainParams,
    ChainStore,
    EXTENDED,
    REJECTED,
    _block_fees,
    block_data_bytes,
    header_hash,
    transactions_merkle_root,
)
from chainsim.crypto import Address, HashStream, derive_address, keypair_generate, sha256, sign
from chainsim.ledger import (
    Balance,
    Mempool,
    Transaction,
    TxBuildError,
    TxInput,
    TxKind,
    TxOutput,
    UtxoEntry,
    UtxoSet,
    balance,
    build_transaction,
    deserialize_transaction,
    make_coinbase,
    spendable_outpoint,
    validate_transaction,
)

ALICE = keypair_generate(bytes(range(32)))
BOB = keypair_generate(bytes(range(1, 33)))
CAROL = keypair_generate(bytes(range(2, 34)))
A_ADDR = derive_address(ALICE.public_key)
B_ADDR = derive_address(BOB.public_key)
C_ADDR = derive_address(CAROL.public_key)


def funded_utxo(*grants: tuple[Address, int]) -> tuple[UtxoSet, Transaction]:
    """Coinbase-funded starting set; returns (utxo, funding tx)."""
    coinbase = make_coinbase(list(grants), 0)
    utxo = UtxoSet()
    utxo.apply(coinbase, 0)
    return utxo, coinbase


def total_live(utxo: UtxoSet) -> int:
    return sum(entry.output.amount for _, entry in utxo.live_entries())


def applied(txs, utxo: UtxoSet, height: int) -> UtxoSet:
    """A copy of utxo with txs applied in order; utxo itself is untouched."""
    new = utxo.copy()
    for tx in txs:
        new.apply(tx, height)
    return new


# ---------------------------------------------------------------------------
# construction and change mechanics
# ---------------------------------------------------------------------------


def test_spend_5_pay_3_appends_change_2():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 0, [ALICE], utxo)
    assert [(o.amount, o.recipient) for o in tx.outputs] == [(3, B_ADDR), (2, A_ADDR)]


def test_spend_5_pay_5_has_no_change_output():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    assert [(o.amount, o.recipient) for o in tx.outputs] == [(5, B_ADDR)]


def test_insufficient_funds_rejected():
    utxo, fund = funded_utxo((A_ADDR, 4))
    with pytest.raises(TxBuildError):
        build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)


def test_unknown_outpoint_and_key_mismatch_rejected():
    utxo, fund = funded_utxo((A_ADDR, 5))
    with pytest.raises(TxBuildError):
        build_transaction([(b"\x00" * 32, 0)], [(B_ADDR, 1)], 0, [ALICE], utxo)
    with pytest.raises(TxBuildError):
        build_transaction([(fund.tx_id, 0)], [(B_ADDR, 1)], 0, [BOB], utxo)


def test_fee_is_input_minus_output():
    utxo, fund = funded_utxo((A_ADDR, 10))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 7)], 2, [ALICE], utxo)
    assert utxo.copy().apply(tx, 1) == 2
    assert sum(o.amount for o in tx.outputs) == 8


# ---------------------------------------------------------------------------
# validation rule order
# ---------------------------------------------------------------------------


def test_valid_transfer_built_end_to_end():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 1, [ALICE], utxo)
    assert validate_transaction(tx, utxo)


def test_unknown_input():
    utxo, _ = funded_utxo((A_ADDR, 5))
    ghost = TxInput(b"\x11" * 32, 0, ALICE.public_key, b"\x00" * 64)
    tx = Transaction(TxKind.TRANSFER, (ghost,), (TxOutput(1, B_ADDR),), b"")
    assert validate_transaction(tx, utxo).reason == "UnknownInput"


def test_spent_input():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    after = applied([tx], utxo, 1)
    again = build_transaction([(fund.tx_id, 0)], [(C_ADDR, 5)], 0, [ALICE], utxo)
    assert validate_transaction(again, after).reason == "SpentInput"


def test_bad_signature_on_output_mutation():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 0, [ALICE], utxo)
    tampered = Transaction(
        tx.kind, tx.inputs, (TxOutput(4, B_ADDR),) + tx.outputs[1:], tx.payload
    )
    assert validate_transaction(tampered, utxo).reason == "BadSignature"


def test_wrong_owner():
    utxo, fund = funded_utxo((A_ADDR, 5))
    unsigned = Transaction(
        TxKind.TRANSFER,
        (TxInput(fund.tx_id, 0, BOB.public_key, b""),),
        (TxOutput(5, C_ADDR),),
        b"",
    )
    signed = Transaction(
        unsigned.kind,
        (TxInput(fund.tx_id, 0, BOB.public_key, sign(BOB, unsigned.tx_id)),),
        unsigned.outputs,
        b"",
    )
    assert validate_transaction(signed, utxo).reason == "WrongOwner"


def test_value_created():
    utxo, fund = funded_utxo((A_ADDR, 5))
    unsigned = Transaction(
        TxKind.TRANSFER,
        (TxInput(fund.tx_id, 0, ALICE.public_key, b""),),
        (TxOutput(6, B_ADDR),),
        b"",
    )
    signed = Transaction(
        unsigned.kind,
        (TxInput(fund.tx_id, 0, ALICE.public_key, sign(ALICE, unsigned.tx_id)),),
        unsigned.outputs,
        b"",
    )
    assert validate_transaction(signed, utxo).reason == "ValueCreated"


def test_duplicate_outpoint():
    utxo, fund = funded_utxo((A_ADDR, 5))
    unsigned = Transaction(
        TxKind.TRANSFER,
        (
            TxInput(fund.tx_id, 0, ALICE.public_key, b""),
            TxInput(fund.tx_id, 0, ALICE.public_key, b""),
        ),
        (TxOutput(10, B_ADDR),),
        b"",
    )
    sig = sign(ALICE, unsigned.tx_id)
    signed = Transaction(
        unsigned.kind,
        tuple(TxInput(i.source_tx, i.source_index, i.public_key, sig) for i in unsigned.inputs),
        unsigned.outputs,
        b"",
    )
    assert validate_transaction(signed, utxo).reason == "DuplicateOutpoint"


def test_coinbase_with_inputs_is_bad_format():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = Transaction(
        TxKind.COINBASE,
        (TxInput(fund.tx_id, 0, ALICE.public_key, b"\x00" * 64),),
        (TxOutput(1, B_ADDR),),
        b"",
    )
    assert validate_transaction(tx, utxo).reason == "BadFormat"


def test_locked_input_blocks_stake_spend():
    utxo, fund = funded_utxo((A_ADDR, 5))
    stake = build_transaction(
        [(fund.tx_id, 0)], [(A_ADDR, 5)], 0, [ALICE], utxo, kind=TxKind.STAKE
    )
    staked = applied([stake], utxo, 1)
    spend = build_transaction([(stake.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], staked,
                              kind=TxKind.TRANSFER)
    assert validate_transaction(spend, staked).reason == "LockedInput"
    assert validate_transaction(spend, staked, allow_locked=True)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_spends_inputs_adds_outputs_and_returns_fee():
    utxo, fund = funded_utxo((A_ADDR, 5), (B_ADDR, 7))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 1, [ALICE], utxo)
    after = utxo.copy()
    assert after.apply(tx, 1) == 1
    assert after.get((fund.tx_id, 0)).spent_height == 1
    assert after.get((fund.tx_id, 1)).live
    assert [after.get((tx.tx_id, i)).output for i in range(2)] == list(tx.outputs)
    assert not any(after.get((tx.tx_id, i)).locked for i in range(2))
    assert after.get((tx.tx_id, 0)).created_height == 1
    assert utxo.get((fund.tx_id, 0)).live and utxo.get((tx.tx_id, 0)) is None


def test_every_set_keys_an_output_with_the_transactions_outpoint():
    """Sets that apply one transaction object share its outpoint tuples, so
    n nodes hold one key per output rather than n."""
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 1, [ALICE], utxo)
    first, second = utxo.copy(), utxo.copy()
    first.apply(tx, 1)
    second.apply(tx, 1)
    assert tx.outpoints == ((tx.tx_id, 0), (tx.tx_id, 1)) and tx.outpoints is tx.outpoints
    for outpoint in tx.outpoints:
        (key_1,) = [k for k in first._entries if k == outpoint]
        (key_2,) = [k for k in second._entries if k == outpoint]
        assert key_1 is key_2 is outpoint
    first.revert(tx)
    assert first == utxo


def test_per_output_records_have_no_instance_dict():
    """Neither the per-output records nor the transactions, headers and key
    pairs that keep caches have an instance dict, caches filled or not."""
    entry = UtxoEntry(TxOutput(5, A_ADDR), False, 1)
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 1, [ALICE], utxo)
    header = BlockHeader(1, b"\x01" * 32, transactions_merkle_root([tx]), 1, 0, 0)
    assert tx.outpoints and validate_transaction(tx, utxo) and header_hash(header)
    for record in (entry, entry.output, A_ADDR, TxInput(b"\x11" * 32, 0, b"", b""),
                   tx, header, ALICE):
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert replace(entry, spent_height=2).spent_height == 2


def test_filled_caches_leave_equality_hashing_and_repr_alone():
    """A transaction and a header compare equal to, hash as and print as a
    fresh copy, before and after their caches fill."""
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 3)], 1, [ALICE], utxo)
    header = BlockHeader(1, b"\x01" * 32, transactions_merkle_root([tx]), 1, 0, 0)
    pairs = [(tx, deserialize_transaction(tx.serialize())[0]), (header, replace(header))]
    before = [(hash(obj), repr(obj)) for obj, _ in pairs]
    for obj, fresh in pairs:
        assert obj == fresh and (hash(obj), repr(obj)) == (hash(fresh), repr(fresh))
    assert tx.outpoints and validate_transaction(tx, utxo) and header_hash(header)
    assert None not in (tx._tx_id, tx._outpoints, tx._verdict, header._hash)
    for (obj, fresh), seen in zip(pairs, before):
        assert fresh == obj and obj == fresh
        assert (hash(obj), repr(obj)) == (hash(fresh), repr(fresh)) == seen


def test_apply_locks_stake_output_zero_and_charges_coinbase_nothing():
    utxo, fund = funded_utxo((A_ADDR, 8))
    stake = build_transaction(
        [(fund.tx_id, 0)], [(A_ADDR, 5)], 1, [ALICE], utxo, kind=TxKind.STAKE
    )
    assert utxo.apply(stake, 1) == 1
    assert utxo.get((stake.tx_id, 0)).locked and not utxo.get((stake.tx_id, 1)).locked
    assert utxo.apply(make_coinbase([(C_ADDR, 51)], 2), 2) == 0


def test_apply_raises_on_unresolvable_input():
    utxo, fund = funded_utxo((A_ADDR, 5))
    ghost = Transaction(
        TxKind.TRANSFER, (TxInput(b"\x11" * 32, 0, ALICE.public_key, b""),), (), b""
    )
    with pytest.raises(KeyError):
        utxo.copy().apply(ghost, 1)
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    after = applied([tx], utxo, 1)
    again = build_transaction([(fund.tx_id, 0)], [(C_ADDR, 5)], 0, [ALICE], utxo)
    with pytest.raises(ValueError):
        after.apply(again, 2)


def test_a_failed_apply_changes_nothing_and_revert_undoes_apply():
    utxo, fund = funded_utxo((A_ADDR, 5), (A_ADDR, 6))
    before = utxo.copy()
    pay = build_transaction([(fund.tx_id, 0), (fund.tx_id, 1)], [(B_ADDR, 9)], 2, [ALICE], utxo)
    half_known = replace(pay, inputs=pay.inputs[:1] + (replace(pay.inputs[1], source_tx=b"\x11" * 32),))
    twice = replace(pay, inputs=pay.inputs[:1] * 2)
    with pytest.raises(KeyError):
        utxo.apply(half_known, 1)
    with pytest.raises(ValueError):
        utxo.apply(twice, 1)
    assert utxo == before
    assert utxo.apply(pay, 1) == 2
    utxo.revert(pay)
    assert utxo == before and utxo.digest() == before.digest()
    assert spendable_outpoint(utxo, A_ADDR, 6) == (fund.tx_id, 1)


def _unproven_block(store: ChainStore, txs) -> Block:
    """A block on the tip carrying a subsidy-only coinbase and then txs."""
    parent = store.tip.header
    height = parent.height + 1
    coinbase = make_coinbase([(C_ADDR, store.params.block_subsidy)], height)
    all_txs = (coinbase,) + tuple(txs)
    header = BlockHeader(
        height=height,
        prev_header_hash=header_hash(parent),
        data_hash=transactions_merkle_root(all_txs),
        timestamp=height,
        size=len(block_data_bytes(all_txs)),
        nonce=0,
    )
    return Block(header, all_txs)


def test_internal_double_spend_fails_atomically():
    store = ChainStore(ChainParams(genesis_allocation=((A_ADDR, 5),)), mempool=Mempool())
    genesis_hash = store.tip_hash
    utxo = store.tip_state().utxo
    fund = store.tip.transactions[0]
    t1 = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    t2 = build_transaction([(fund.tx_id, 0)], [(C_ADDR, 5)], 0, [ALICE], utxo)
    before = utxo.copy()
    result = store.append_block(_unproven_block(store, [t1, t2]))
    assert result.status == REJECTED
    assert result.reason == "SpentInput"
    assert result.validity.detail.startswith("transaction 2:")
    assert store.tip_hash == genesis_hash and len(store.states) == 1
    assert store.tip_state().utxo == before


def test_chained_spend_within_one_block():
    utxo, fund = funded_utxo((A_ADDR, 5))
    t1 = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    mid = applied([t1], utxo, 1)
    t2 = build_transaction([(t1.tx_id, 0)], [(C_ADDR, 5)], 0, [BOB], mid)
    after = applied([t1, t2], utxo, 1)
    assert balance(C_ADDR, after) == Balance(5, 0)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_apply_over_a_block_equals_store_post_state(splits, seed):
    """Random single-block spend patterns: applying the block's transactions
    to the parent's UTXO set gives the store's post-state, and reverting them
    from that post-state, newest first, gives the parent's set back."""
    rng = HashStream(seed, "ledger-prop")
    store = ChainStore(
        ChainParams(genesis_allocation=((A_ADDR, 40), (B_ADDR, 40))), mempool=Mempool()
    )
    parent = store.tip_state().utxo
    before = parent.copy()
    fund = store.tip.transactions[0]
    txs = []
    view = parent.copy()
    sources = [((fund.tx_id, 0), ALICE), ((fund.tx_id, 1), BOB)]
    for n in splits:
        if not sources:
            break
        outpoint, key = sources.pop(rng.randrange(len(sources)))
        amount = view.get(outpoint).output.amount
        payee = [A_ADDR, B_ADDR, C_ADDR][rng.randrange(3)]
        pay = min(n, amount)
        tx = build_transaction([outpoint], [(payee, pay)], 0, [key], view)
        view.apply(tx, 1)
        txs.append(tx)
    block = store.make_candidate(C_ADDR, txs, timestamp=1)
    assert parent == before  # make_candidate walked the tip's set and took the walk back
    assert store.append_block(block).status == EXTENDED
    post = store.tip_state().utxo
    assert applied(block.transactions, before, 1) == post
    for tx in reversed(block.transactions):
        post.revert(tx)
    assert post == before and post.digest() == before.digest()


def test_conservation_across_blocks():
    utxo, fund = funded_utxo((A_ADDR, 50))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 20)], 3, [ALICE], utxo)
    after = applied([tx], utxo, 1)
    # fee leaves the live set until a publisher coinbase re-mints it
    assert total_live(after) == 47
    reward = make_coinbase([(C_ADDR, 3)], 2)
    assert total_live(applied([reward], after, 2)) == 50


# ---------------------------------------------------------------------------
# balances
# ---------------------------------------------------------------------------


def test_fresh_address_balance_zero():
    assert balance(C_ADDR, UtxoSet()) == Balance(0, 0)


def test_balance_sums_outputs():
    utxo, _ = funded_utxo((A_ADDR, 3), (A_ADDR, 4), (B_ADDR, 9))
    assert balance(A_ADDR, utxo) == Balance(7, 0)


def test_stake_moves_balance_to_locked():
    utxo, fund = funded_utxo((A_ADDR, 8))
    stake = build_transaction(
        [(fund.tx_id, 0)], [(A_ADDR, 5)], 0, [ALICE], utxo, kind=TxKind.STAKE
    )
    staked = applied([stake], utxo, 1)
    assert balance(A_ADDR, staked) == Balance(3, 5)


def test_spendable_outpoint_is_lowest_live_unlocked_match():
    utxo, fund = funded_utxo((A_ADDR, 2), (A_ADDR, 9), (B_ADDR, 9), (A_ADDR, 8), (A_ADDR, 7))
    stake = build_transaction(
        [(fund.tx_id, 4)], [(A_ADDR, 7)], 0, [ALICE], utxo, kind=TxKind.STAKE
    )
    staked = applied([stake], utxo, 1)
    assert spendable_outpoint(staked, A_ADDR, 3) == (fund.tx_id, 1)
    spent = applied([build_transaction([(fund.tx_id, 1)], [(B_ADDR, 9)], 0, [ALICE], staked)],
                    staked, 2)
    assert spendable_outpoint(spent, A_ADDR, 3) == (fund.tx_id, 3)
    assert spendable_outpoint(spent, A_ADDR, 9) is None
    assert spendable_outpoint(spent, C_ADDR, 0) is None


def test_spendable_memo_is_cleared_by_add_and_spend_and_never_shared():
    utxo, fund = funded_utxo((A_ADDR, 5))
    assert spendable_outpoint(utxo, A_ADDR, 6) is None
    richer = make_coinbase([(A_ADDR, 7)], 1)
    utxo.apply(richer, 1)
    assert spendable_outpoint(utxo, A_ADDR, 6) == (richer.tx_id, 0)

    twin = utxo.copy()
    assert spendable_outpoint(twin, A_ADDR, 6) == (richer.tx_id, 0)
    twin.apply(build_transaction([(richer.tx_id, 0)], [(B_ADDR, 7)], 0, [ALICE], twin), 2)
    assert spendable_outpoint(twin, A_ADDR, 6) is None
    assert spendable_outpoint(utxo, A_ADDR, 6) == (richer.tx_id, 0)
    both = {(fund.tx_id, 0), (richer.tx_id, 0)}
    first = spendable_outpoint(utxo, A_ADDR, 0)
    assert first == min(both)
    utxo.spend(first, 2)
    assert spendable_outpoint(utxo, A_ADDR, 0) == max(both)
    assert spendable_outpoint(twin, A_ADDR, 6) is None


def _brute_spendable(utxo: UtxoSet, address: Address, needed: int):
    return min(
        (op for op, e in utxo.live_entries()
         if not e.locked and e.output.recipient == address and e.output.amount >= needed),
        default=None,
    )


_OWNERS = {A_ADDR: ALICE, B_ADDR: BOB, C_ADDR: CAROL}

_utxo_ops = st.one_of(
    # coinbase paying (address index, amount) pairs
    st.tuples(st.just("coinbase"), st.integers(0, 7),
              st.lists(st.tuples(st.integers(0, 2), st.integers(1, 9)), min_size=1, max_size=3)),
    # spend the k-th live unlocked outpoint, paying an address; STAKE locks
    # output 0, and a burn pays it all as fee, so the spend adds no output
    st.tuples(st.just("spend"), st.integers(0, 7), st.integers(0, 20), st.integers(0, 2),
              st.sampled_from(["transfer", "stake", "burn"])),
    st.tuples(st.just("copy"), st.integers(0, 7)),
    # a new set from the live entries, through the constructor
    st.tuples(st.just("rebuild"), st.integers(0, 7)),
    # ask one set one question between mutations, not only after each step
    st.tuples(st.just("query"), st.integers(0, 7), st.integers(0, 3), st.integers(0, 10)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_utxo_ops, min_size=1, max_size=25))
def test_spendable_outpoint_equals_brute_force_over_copies(ops):
    """Each set keeps its own index of spendable outpoints, built by the
    constructor, kept by add and spend, and copied by copy; spendable_outpoint
    must equal the scan of that set's own live entries, for every set after
    every step.  Sets are asked before and after each mutation of themselves
    and of their copies, so an index that misses an add or a spend, or that a
    copy shares, gives a stale answer."""
    addrs = list(_OWNERS)
    sets = [UtxoSet()]
    for height, (op, which, *rest) in enumerate(ops, start=1):
        utxo = sets[which % len(sets)]
        if op == "coinbase":
            utxo.apply(make_coinbase([(addrs[a], amt) for a, amt in rest[0]], height), height)
        elif op == "spend":
            k, payee, how = rest
            live = sorted(o for o, e in utxo.live_entries() if not e.locked)
            if live:
                source = live[k % len(live)]
                entry = utxo.get(source)
                pay, fee = [(addrs[payee], 1)], 0
                if how == "burn":
                    pay, fee = [], entry.output.amount
                tx = build_transaction(
                    [source], pay, fee, [_OWNERS[entry.output.recipient]], utxo,
                    kind=TxKind.STAKE if how == "stake" else TxKind.TRANSFER,
                    payload=height.to_bytes(4, "big"),
                )
                utxo.apply(tx, height)
        elif op == "copy":
            sets.append(utxo.copy())
        elif op == "rebuild":
            sets.append(UtxoSet(dict(utxo.live_entries())))
        else:
            address = (addrs + [derive_address(b"nobody")])[rest[0]]
            assert spendable_outpoint(utxo, address, rest[1]) == \
                _brute_spendable(utxo, address, rest[1])
        for each in sets:
            for address in addrs + [derive_address(b"nobody")]:
                for needed in (0, 1, 5, 9):
                    assert spendable_outpoint(each, address, needed) == \
                        _brute_spendable(each, address, needed)


def _spend_nth(utxo: UtxoSet, k: int, payee: Address, how: str, tag: bytes):
    """A transaction spending utxo's k-th live outpoint, paying 1 to payee:
    a locked outpoint for "unstake", else an unlocked one; None if there is
    none.  "stake" locks output 0, and "burn" pays it all as fee."""
    live = sorted(o for o, e in utxo.live_entries() if e.locked == (how == "unstake"))
    if not live:
        return None
    source = live[k % len(live)]
    entry = utxo.get(source)
    pay, fee = [(payee, 1)], 0
    if how == "burn":
        pay, fee = [], entry.output.amount
    return build_transaction(
        [source], pay, fee, [_OWNERS[entry.output.recipient]], utxo,
        kind=TxKind.STAKE if how == "stake" else TxKind.TRANSFER, payload=tag,
    )


_spend_kinds = st.sampled_from(["transfer", "stake", "burn", "unstake"])
_revert_ops = st.one_of(
    st.tuples(st.just("coinbase"), st.integers(0, 7),
              st.lists(st.tuples(st.integers(0, 2), st.integers(1, 9)), min_size=1, max_size=3)),
    st.tuples(st.just("spend"), st.integers(0, 7), st.integers(0, 20), st.integers(0, 2),
              _spend_kinds),
    # revert the newest transaction the set applied
    st.tuples(st.just("revert"), st.integers(0, 7)),
    st.tuples(st.just("copy"), st.integers(0, 7)),
    # a new set from every entry, spent ones included, through the constructor
    st.tuples(st.just("rebuild"), st.integers(0, 7)),
    # pool chained transfers and take them within a byte budget
    st.tuples(st.just("take"), st.integers(0, 7), st.lists(st.just("transfer"), max_size=4),
              st.integers(0, 800)),
    # _block_fees over chained spends, then one whose input is spent or unknown
    st.tuples(st.just("fees"), st.integers(0, 7), st.lists(_spend_kinds, max_size=3),
              st.booleans()),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_revert_ops, min_size=1, max_size=30))
# a reverted unstake must leave its locked input out of the index
@example([("coinbase", 0, [(0, 5)]), ("spend", 0, 0, 0, "stake"),
          ("spend", 0, 0, 0, "unstake"), ("revert", 0)])
@example([("coinbase", 0, [(0, 5)]), ("fees", 0, ["stake", "unstake"], True)])
def test_spendable_outpoint_equals_brute_force_through_reverts(ops):
    """revert takes outputs out of a set's index and puts its inputs back,
    unless they are locked.  Apply and revert newest first, copy, and run the
    trial walks that revert everything they apply (Mempool.take, and a
    _block_fees walk that fails partway) over several sets; after every step
    spendable_outpoint must equal the scan of each set's own live entries."""
    addrs = list(_OWNERS)
    sets, stacks = [UtxoSet()], [[]]
    for step, (op, which, *rest) in enumerate(ops, start=1):
        i = which % len(sets)
        utxo, stack = sets[i], stacks[i]
        tag = step.to_bytes(4, "big")
        if op == "coinbase":
            stack.append(make_coinbase([(addrs[a], amt) for a, amt in rest[0]], step))
            utxo.apply(stack[-1], step)
        elif op == "spend":
            k, payee, how = rest
            tx = _spend_nth(utxo, k, addrs[payee], how, tag)
            if tx is not None:
                utxo.apply(tx, step)
                stack.append(tx)
        elif op == "revert":
            if stack:
                utxo.revert(stack.pop())
        elif op in ("copy", "rebuild"):
            sets.append(utxo.copy() if op == "copy" else UtxoSet(dict(utxo._entries)))
            stacks.append(list(stack))
        else:
            before = utxo.digest()
            scratch, txs = utxo.copy(), []
            for j, how in enumerate(rest[0]):
                tx = _spend_nth(scratch, j, addrs[j % 3], how, tag + bytes([j]))
                if tx is not None:
                    txs.append(tx)
                    scratch.apply(tx, step)
            if op == "take":
                pool, view = Mempool(), utxo.copy()
                for tx in txs:
                    assert pool.add(tx, view)
                    view.apply(tx, step)
                pool.take(rest[1], utxo)
            else:
                bad = txs[0] if txs and rest[1] else _spend_nth(
                    funded_utxo((A_ADDR, 5))[0], 0, B_ADDR, "transfer", tag)
                assert _block_fees(tuple(txs) + (bad,), utxo) is None
            assert utxo.digest() == before
        for each in sets:
            for address in addrs + [derive_address(b"nobody")]:
                for needed in (0, 1, 4, 9):
                    assert spendable_outpoint(each, address, needed) == \
                        _brute_spendable(each, address, needed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_wire_roundtrip_and_tx_id_ignores_signatures():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 2)], 1, [ALICE], utxo,
                           kind=TxKind.TRANSFER, payload=b"hello")
    decoded, consumed = deserialize_transaction(tx.serialize())
    assert consumed == len(tx.serialize())
    assert decoded == tx
    assert decoded.tx_id == tx.tx_id
    stripped = Transaction(
        tx.kind,
        tuple(TxInput(i.source_tx, i.source_index, i.public_key, b"") for i in tx.inputs),
        tx.outputs,
        tx.payload,
    )
    assert stripped.tx_id == tx.tx_id


@settings(max_examples=100)
@given(
    st.sampled_from(list(TxKind)),
    st.lists(st.tuples(st.binary(min_size=32, max_size=32),
                       st.integers(min_value=0, max_value=2**32 - 1),
                       st.binary(min_size=32, max_size=32),
                       st.binary(min_size=0, max_size=64)),
             max_size=3),
    st.lists(st.tuples(st.integers(min_value=0, max_value=2**40),
                       st.integers(min_value=0, max_value=255)),
             max_size=3),
    st.binary(max_size=50),
)
def test_wire_roundtrip_property(kind, raw_inputs, raw_outputs, payload):
    inputs = tuple(TxInput(s, i, pk, sig) for s, i, pk, sig in raw_inputs)
    outputs = tuple(
        TxOutput(amount, Address.make(version % 2, bytes(20)))
        for amount, version in raw_outputs
    )
    tx = Transaction(kind, inputs, outputs, payload)
    blob = tx.serialize()
    decoded, consumed = deserialize_transaction(blob)
    assert consumed == len(blob)
    assert decoded == tx
    # the cached id is the hash of the zero-signature bytes, on either object
    expected = sha256(tx.serialize(zero_signatures=True))
    assert tx.tx_id == expected
    assert tx.tx_id == expected  # the second read comes from the cache
    assert decoded == tx and hash(decoded) == hash(tx)  # one cached, one not
    assert decoded.tx_id == expected
    changed = replace(tx, payload=payload + b"x")
    assert changed.tx_id == sha256(changed.serialize(zero_signatures=True)) != expected


def test_cached_tx_id_of_built_transaction():
    utxo, fund = funded_utxo((A_ADDR, 5), (A_ADDR, 4))
    tx = build_transaction([(fund.tx_id, 0), (fund.tx_id, 1)], [(B_ADDR, 6)], 1, [ALICE], utxo)
    expected = sha256(tx.serialize(zero_signatures=True))
    assert tx.tx_id == expected
    assert tx.tx_id == expected  # the second read comes from the cache
    assert fund.tx_id == sha256(fund.serialize(zero_signatures=True))
    assert isinstance(vars(Transaction)["tx_id"], property)
    assert repr(tx) == repr(deserialize_transaction(tx.serialize())[0])


def test_deserialize_rejects_truncation():
    utxo, fund = funded_utxo((A_ADDR, 5))
    tx = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 2)], 0, [ALICE], utxo)
    blob = tx.serialize()
    with pytest.raises(ValueError):
        deserialize_transaction(blob[:-1])


# ---------------------------------------------------------------------------
# mempool
# ---------------------------------------------------------------------------


def test_mempool_rejects_conflicts_and_coinbase():
    utxo, fund = funded_utxo((A_ADDR, 5))
    pool = Mempool()
    t1 = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    t2 = build_transaction([(fund.tx_id, 0)], [(C_ADDR, 5)], 0, [ALICE], utxo)
    assert pool.add(t1, utxo)
    assert pool.add(t2, utxo).reason == "Conflict"
    assert pool.add(make_coinbase([(A_ADDR, 1)], 1), utxo).reason == "Coinbase"
    assert len(pool) == 1


def test_mempool_take_respects_budget_and_order():
    utxo, fund = funded_utxo((A_ADDR, 5), (B_ADDR, 5))
    pool = Mempool()
    t1 = build_transaction([(fund.tx_id, 0)], [(C_ADDR, 5)], 0, [ALICE], utxo)
    t2 = build_transaction([(fund.tx_id, 1)], [(C_ADDR, 5)], 0, [BOB], utxo)
    assert pool.add(t1, utxo) and pool.add(t2, utxo)
    assert pool.take(10**6, utxo) == [t1, t2]
    only_first = pool.take(len(t1.serialize()), utxo)
    assert only_first == [t1]


def test_mempool_take_allows_chained_pending_spends():
    utxo, fund = funded_utxo((A_ADDR, 5))
    pool = Mempool()
    t1 = build_transaction([(fund.tx_id, 0)], [(B_ADDR, 5)], 0, [ALICE], utxo)
    mid = applied([t1], utxo, 1)
    t2 = build_transaction([(t1.tx_id, 0)], [(C_ADDR, 5)], 0, [BOB], mid)
    assert pool.add(t1, utxo)
    assert pool.add(t2, mid)
    assert pool.take(10**6, utxo) == [t1, t2]

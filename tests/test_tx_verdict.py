"""One transaction judgement per set of input entries.

validate_transaction reads the state only through the entries of the
transaction's inputs, so the transaction keeps its last verdict, keyed by
allow_locked, check_signatures and those entries, and every caller shares
it: pool intake (ChainStore.admit, which also takes back a reorganization's
orphans) and drop_conflicting when a tip moves, Mempool.take and block
judgement, on every node.  These
tests pin that a call on equal entries makes no walk, that a simulation
walks each (transaction, tip) pair at most once in pool maintenance, and
that the kept verdicts, and the pools they fill, match full validation of
fresh transaction instances.
"""

import random
from contextlib import contextmanager
from chainsim._record import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import ledger
from chainsim import consensus as cons
from chainsim.chain import ChainParams, ChainStore, is_stake_model, make_genesis
from chainsim.ledger import (
    Mempool,
    TxKind,
    TxOutput,
    UtxoEntry,
    UtxoSet,
    build_transaction,
    make_coinbase,
    validate_transaction,
)
from chainsim.netsim import Simulation, prepare_config
from chainsim.scenario import parse_scenario

from test_chain import A_ADDR, ALICE, B_ADDR, BOB, bad_signature, signed
from test_golden_grid import grid_scenario


def _verdict(v):
    return bool(v), v.reason, v.detail


# ---------------------------------------------------------------------------
# The key: the flags and the input entries
# ---------------------------------------------------------------------------

SOURCE = bytes(range(32))
SPEND = signed([((SOURCE, 0), ALICE), ((SOURCE, 1), ALICE)], (TxOutput(9, B_ADDR),))
FORGED = bad_signature(SPEND)


def _entry(amount=5, owner=A_ADDR, locked=False, spent=None):
    return UtxoEntry(TxOutput(amount, owner), locked, 0, spent)


def test_equal_entries_reuse_the_verdict_and_changed_ones_walk(monkeypatch):
    """A second call on other sets holding equal entries checks no
    signature; once an input's entry is spent or absent, the call walks
    again and returns the fresh verdict, and so does the return to the
    first entries."""
    verified = []
    monkeypatch.setattr(ledger, "verify", lambda *args: verified.append(args) or True)
    tx = replace(SPEND)
    funded = {(SOURCE, 0): _entry(), (SOURCE, 1): _entry()}
    assert validate_transaction(tx, UtxoSet(funded))
    assert len(verified) == 2
    assert validate_transaction(tx, UtxoSet({op: replace(e) for op, e in funded.items()}))
    assert len(verified) == 2
    spent = UtxoSet({**funded, (SOURCE, 1): _entry(spent=3)})
    assert _verdict(validate_transaction(tx, spent)) == (
        False, "SpentInput", f"{SOURCE.hex()[:16]}:1")
    assert _verdict(validate_transaction(tx, UtxoSet())) == (
        False, "UnknownInput", f"{SOURCE.hex()[:16]}:0")
    assert validate_transaction(tx, UtxoSet(funded))
    assert len(verified) == 4


# the entries an input may have: absent, and variations of amount, owner,
# lock and spent state on one outpoint
ENTRIES = [None, _entry(), _entry(amount=4), _entry(amount=3), _entry(owner=B_ADDR),
           _entry(locked=True), _entry(spent=2), _entry(locked=True, spent=2)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(ENTRIES), st.sampled_from(ENTRIES),
                          st.booleans(), st.booleans()), min_size=1, max_size=12))
def test_kept_verdict_equals_a_fresh_walk(calls):
    """One well-signed and one forged transaction object, each validated
    against hand-built sets in random order, under both flags, return what
    a fresh instance, which keeps no verdict, returns."""
    for forged, first, second, allow_locked, check_signatures in calls:
        tx = FORGED if forged else SPEND
        utxo = UtxoSet({op: e for op, e in zip(((SOURCE, 0), (SOURCE, 1)), (first, second))
                        if e is not None})
        fresh = replace(tx)
        assert fresh._verdict is None
        assert _verdict(validate_transaction(tx, utxo, allow_locked, check_signatures)) == _verdict(
            validate_transaction(fresh, utxo, allow_locked, check_signatures))


# ---------------------------------------------------------------------------
# Pool maintenance on a simulation
# ---------------------------------------------------------------------------


def test_pool_maintenance_walks_each_transaction_once_per_tip(monkeypatch):
    """On a payments grid point, count the rule walks (ledger._rules) made
    inside Mempool.add (intake and orphans) and drop_conflicting, and the
    distinct (tx_id, tip hash) pairs those calls ask about.  Without kept
    verdicts every one of the about ten intakes per transaction walks."""
    sim = Simulation(prepare_config(parse_scenario(grid_scenario(10, 400, 2, 1))))
    store_of = {id(node.store.mempool): node.store for node in sim.nodes.values() if node.store}
    pairs, intakes, walks, depth = set(), [], [], [0]
    add, drop_conflicting, rules = Mempool.add, Mempool.drop_conflicting, ledger._rules

    def maintenance(method, asked):
        def counted(pool, *args, **kwargs):
            tip = store_of[id(pool)].tip_hash
            pairs.update((tx_id, tip) for tx_id in asked(pool, *args))
            depth[0] += 1
            try:
                return method(pool, *args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    def asked_by_add(pool, tx, *args):
        intakes.append(tx.tx_id)
        return [] if tx.kind == TxKind.COINBASE or tx.tx_id in pool else [tx.tx_id]

    def counted_walk(tx, *args):
        if depth[0]:
            walks.append(tx.tx_id)
        return rules(tx, *args)

    monkeypatch.setattr(Mempool, "add", maintenance(add, asked_by_add))
    monkeypatch.setattr(Mempool, "drop_conflicting",
                        maintenance(drop_conflicting, lambda pool, *args: list(pool._entries)))
    monkeypatch.setattr(ledger, "_rules", counted_walk)
    result = sim.run()
    assert result.event_log_digest().hex().startswith("a10dd77119fbe44d")
    assert len(intakes) > 5 * len(set(intakes))
    assert 0 < len(walks) <= len(pairs)


# ---------------------------------------------------------------------------
# Kept verdicts against full validation
# ---------------------------------------------------------------------------

# A stakes one output at genesis; as the only staker it publishes every block
FUNDS = 8
STAKE_PARAMS = ChainParams(
    genesis_allocation=tuple((A_ADDR, 10) for _ in range(FUNDS)) + ((A_ADDR, 20),),
    consensus=cons.PosChainParams(),
)
# the same genesis under simulated work, where locked stake may be spent:
# its stores share every tip hash with the stake stores
WORK_PARAMS = replace(STAKE_PARAMS, consensus=cons.PowParams(simulated=True))


def _genesis():
    coinbase = make_coinbase(list(STAKE_PARAMS.genesis_allocation), 0)
    view = ledger.UtxoSet()
    view.apply(coinbase, 0)
    stake = build_transaction([(coinbase.tx_id, FUNDS)], [(A_ADDR, 20)], 0, [ALICE], view,
                              kind=TxKind.STAKE)
    return make_genesis(STAKE_PARAMS, (stake,))


GENESIS = _genesis()
FUND_TX, STAKE_TX = GENESIS.transactions


def _payments():
    """Transactions that spend the genesis outputs, some of them twice, and
    outputs of those spends; blocks carry some of them, and every store is
    asked about all of them."""
    pays = [signed([((FUND_TX.tx_id, i), ALICE)], (TxOutput(9, B_ADDR),)) for i in range(FUNDS)]
    return pays + [
        signed([((FUND_TX.tx_id, 0), ALICE)], (TxOutput(8, A_ADDR),)),  # conflicts with pays[0]
        signed([((FUND_TX.tx_id, 1), ALICE)], (TxOutput(11, B_ADDR),)),  # ValueCreated
        bad_signature(signed([((FUND_TX.tx_id, 2), ALICE)], (TxOutput(9, A_ADDR),))),
        signed([((STAKE_TX.tx_id, 0), ALICE)], (TxOutput(19, A_ADDR),)),  # unstakes
        signed([((FUND_TX.tx_id, 3), BOB)], (TxOutput(9, B_ADDR),)),  # WrongOwner
        signed([((pays[4].tx_id, 0), BOB)], (TxOutput(8, A_ADDR),)),  # needs pays[4] mined
        signed([((pays[5].tx_id, 0), BOB), ((pays[6].tx_id, 0), BOB)], (TxOutput(17, A_ADDR),)),
        signed([((FUND_TX.tx_id, 7), ALICE), ((FUND_TX.tx_id, 7), ALICE)],
               (TxOutput(9, B_ADDR),)),  # DuplicateOutpoint
    ]


PAYMENTS = _payments()


VALIDATE = validate_transaction


def _fresh_walk(tx, *args):
    fresh = replace(tx)
    assert fresh._verdict is None
    return VALIDATE(fresh, *args)


@contextmanager
def _judging_fresh_instances():
    # nests: _reorganize offers its orphans through admit
    prior, ledger.validate_transaction = ledger.validate_transaction, _fresh_walk
    try:
        yield
    finally:
        ledger.validate_transaction = prior


class ReferenceStore(ChainStore):
    """A store whose pool judges every transaction in full, on a fresh
    instance, which carries no kept verdict: intake, and the orphans taken
    back and the evictions of a tip move."""

    def admit(self, tx):
        with _judging_fresh_instances():
            return super().admit(tx)

    def _reorganize(self, *args):
        with _judging_fresh_instances():
            return super()._reorganize(*args)


def _tip_verdict(store: ChainStore, tx):
    return validate_transaction(tx, store.tip_state().utxo, not is_stake_model(store.params))


def _block(store: ChainStore, parent_hash: bytes, picks: list[int], timestamp: int):
    """A block on parent_hash carrying the picked payments that are valid
    there in turn, signed by A."""
    utxo = store.state_at(parent_hash).utxo
    txs = []
    for pick in picks:
        tx = PAYMENTS[pick % len(PAYMENTS)]
        if tx not in txs and validate_transaction(tx, utxo, False):
            utxo.apply(tx, 0)
            txs.append(tx)
    for tx in reversed(txs):
        utxo.revert(tx)
    candidate = store.make_candidate(A_ADDR, txs, timestamp, parent_hash=parent_hash)
    return cons.attach_proof(candidate, STAKE_PARAMS.consensus, keypair=ALICE)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.lists(st.integers(0, 30), max_size=4),
                       st.booleans()), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
)
# a side branch that takes over, orphaning pays[1] and pays[4] (whose
# output the spend at index 13 needs), and then the first branch again,
# carrying that spend
@example([(0, [4, 1], True), (0, [0, 5], False), (2, [6], True), (1, [], True),
          (4, [], False), (5, [13], True)], random.Random(0))
def test_kept_verdicts_match_full_validation(plan, rng):
    """Blocks on random parents (so side branches and reorganizations),
    signed by the one staker, reach four stores with pools: a stake-model
    store and a stake-model reference that judges in full get every block,
    a second stake-model store only some (so it sits on other tips), and a
    store under simulated work every block (the same tip hashes as the
    first, with another params object, under which locked stake may be
    spent).  After each block every store is offered every payment, in one
    random order, the stores taking turns at random.  Each kept verdict has
    the truth value, reason and detail of full validation of a fresh
    instance, and the first store's pool, filled, reinserted and evicted
    through kept verdicts, holds what the reference's holds, in its order."""
    stake_params, work_params = replace(STAKE_PARAMS), replace(WORK_PARAMS)
    builder = ChainStore(stake_params, GENESIS)
    first, lagging = ChainStore(stake_params, GENESIS), ChainStore(stake_params, GENESIS)
    working = ChainStore(work_params, GENESIS)
    reference = ReferenceStore(stake_params, GENESIS)
    stores = [first, lagging, working, reference]
    for pick, payments, to_lagging in plan:
        parents = list(builder.blocks)
        parent_hash = parents[pick % len(parents)]
        block = _block(builder, parent_hash, payments, len(parents))  # no block repeats
        assert builder.append_block(block).validity
        for store in (first, working, reference) + ((lagging,) if to_lagging else ()):
            store.append_block(block)
        assert first.tip_hash == working.tip_hash == reference.tip_hash
        for tx in rng.sample(PAYMENTS, len(PAYMENTS)):
            for store in rng.sample(stores, len(stores)):
                store.admit(tx)
                assert _verdict(_tip_verdict(store, tx)) == _verdict(_tip_verdict(store, replace(tx)))
        assert list(first.mempool._entries) == list(reference.mempool._entries)
    unstake = PAYMENTS[FUNDS + 3]
    assert _tip_verdict(first, unstake).reason == "LockedInput"
    assert _tip_verdict(working, unstake)

"""One rule walk per block object and params object.

The first store to judge a block with signature checks keeps, on the block,
its verdict and, for a valid block, its forward delta; every later store with
the same params object returns the kept rejection or applies the delta to its
own state.  These tests pin what the verdict is keyed by (the block instance,
the params object, a full check), that a simulation walks each block object
once, and that the delta path leaves every state, undo record and verdict a
full validate_and_apply on a fresh instance gives.
"""

from contextlib import contextmanager
from chainsim._record import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import chain, contracts
from chainsim import consensus as cons
from chainsim.chain import (
    EXTENDED,
    Block,
    ChainParams,
    ChainStore,
    block_data_bytes,
    header_hash,
    transactions_merkle_root,
)
from chainsim.crypto import Address
from chainsim.ledger import TxKind, TxOutput, build_transaction
from chainsim.netsim import run_scenario
from chainsim.scenario import parse_scenario

from test_chain import A_ADDR, ALICE, B_ADDR, BOB, bad_signature, signed
from test_state_store import ReferenceStore, assert_same_states

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

COUNTER = contracts.assemble("PUSH 0\nLOAD\nPUSH 1\nADD\nPUSH 0\nSTORE")


@contextmanager
def counted_walks():
    """The heights of every _walk_transactions call inside the block."""
    heights = []
    walk = chain._walk_transactions

    def counted(txs, state, height, *args):
        heights.append(height)
        return walk(txs, state, height, *args)

    chain._walk_transactions = counted
    try:
        yield heights
    finally:
        chain._walk_transactions = walk


def with_transactions(block: Block, txs) -> Block:
    """block's header over txs, with its data hash and size made to match."""
    txs = tuple(txs)
    header = replace(block.header, data_hash=transactions_merkle_root(txs),
                     size=len(block_data_bytes(txs)))
    return Block(header, txs)


def payment_block(store: ChainStore) -> Block:
    """A block on store's tip paying B 7 of A's first genesis output."""
    fund = store.tip.transactions[0].tx_id
    tx = build_transaction([(fund, 0)], [(B_ADDR, 7)], 1, [ALICE], store.tip_state().utxo)
    return store.make_candidate(B_ADDR, [tx], 1)


# ---------------------------------------------------------------------------
# What the verdict is keyed by
# ---------------------------------------------------------------------------


def test_a_kept_acceptance_does_not_vouch_for_other_signature_bytes():
    """One header over a payment whose signature differs in one byte: the
    header hash is the same, the block instance is not."""
    params = ChainParams(genesis_allocation=((A_ADDR, 100),))
    first, second = ChainStore(params), ChainStore(params)
    block = payment_block(first)
    assert first.append_block(block).status == EXTENDED
    coinbase, payment = block.transactions
    forged = Block(block.header, (coinbase, bad_signature(payment)))
    assert header_hash(forged.header) == header_hash(block.header)
    result = second.append_block(forged)
    assert (result.reason, result.validity.detail) == ("BadSignature", "transaction 1:")
    assert second.append_block(block).status == EXTENDED


def test_a_kept_acceptance_does_not_vouch_under_other_params():
    """Equal genesis, lower subsidy: the coinbase that claimed 50 + 1 is too
    much for a store whose params object pays 10."""
    params = ChainParams(genesis_allocation=((A_ADDR, 100),))
    stingy = replace(params, block_subsidy=10)
    first, second = ChainStore(params), ChainStore(stingy)
    assert first.genesis_hash == second.genesis_hash
    block = payment_block(first)
    assert first.append_block(block).status == EXTENDED
    result = second.append_block(block)
    assert (result.reason, result.validity.detail) == ("ExcessReward", "51 > 10 + 1")


def test_a_check_without_signatures_keeps_nothing():
    """A store that skips signature checks accepts a bad signature; a later
    full check of the same block object still finds it."""
    params = ChainParams(genesis_allocation=((A_ADDR, 100),))
    trusting, checking = ChainStore(params), ChainStore(params)
    block = payment_block(trusting)
    coinbase, payment = block.transactions
    forged = Block(block.header, (coinbase, bad_signature(payment)))
    assert trusting.append_block(forged, check_signatures=False).status == EXTENDED
    assert forged._verdict is None
    assert checking.append_block(forged).reason == "BadSignature"


def test_a_check_without_signatures_applies_a_kept_acceptance_and_ignores_a_kept_rejection():
    """Without signature checks, a store applies a block another store
    accepted, without a walk, and judges afresh, and accepts, a block another
    store rejected as BadSignature; neither call keeps or replaces a
    verdict."""
    params = ChainParams(genesis_allocation=((A_ADDR, 100),))
    checking, trusting = ChainStore(params), ChainStore(params)
    block = payment_block(checking)
    assert checking.append_block(block).status == EXTENDED
    accepted = block._verdict
    with counted_walks() as walks:
        assert trusting.append_block(block, check_signatures=False).status == EXTENDED
    assert walks == [] and block._verdict is accepted
    assert trusting.tip_state() == checking.tip_state()
    assert trusting.undo == checking.undo

    checking, trusting = ChainStore(params), ChainStore(params)
    coinbase, payment = block.transactions
    forged = Block(block.header, (coinbase, bad_signature(payment)))
    assert checking.append_block(forged).reason == "BadSignature"
    rejected = forged._verdict
    with counted_walks() as walks:
        assert trusting.append_block(forged, check_signatures=False).status == EXTENDED
    assert walks == [1] and forged._verdict is rejected


def test_a_kept_rejection_returns_its_reason_and_detail_without_a_walk():
    """A block whose second transaction spends the output its first spent:
    it fails part way through its walk, and every later store gets the same
    Validity, walks nothing and keeps its state."""
    params = ChainParams(genesis_allocation=((A_ADDR, 100),))
    stores = [ChainStore(params) for _ in range(3)]
    block = payment_block(stores[0])
    fund = stores[0].tip.transactions[0].tx_id
    again = signed([((fund, 0), ALICE)], (TxOutput(5, B_ADDR),))
    bad = with_transactions(block, block.transactions + (again,))
    want = stores[0].append_block(bad).validity
    assert (want.reason, want.detail) == ("SpentInput", f"transaction 2: {fund.hex()[:16]}:0")
    with counted_walks() as walks:
        for store in stores[1:]:
            assert store.append_block(bad).validity == want
            assert store.tip_state() == stores[0].tip_state()
    assert walks == []


# ---------------------------------------------------------------------------
# One walk per block object in a simulation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["majority_attack.cfg", "pos_coinage.cfg"])
def test_a_simulation_walks_each_block_object_once(name, monkeypatch):
    """Side branches and reorganizations in one, stake resets in the other:
    every node judges each block it is sent, but the rules run once per
    block object."""
    calls = []
    validate_and_apply = chain.validate_and_apply

    def counted(block, *args, **kwargs):
        calls.append(block)
        return validate_and_apply(block, *args, **kwargs)

    monkeypatch.setattr(chain, "validate_and_apply", counted)
    config = parse_scenario(yaml.safe_load((SCENARIO_DIR / name).read_text()))
    with counted_walks() as walks:
        run_scenario(config)
    distinct = len({id(block) for block in calls})  # calls holds them: no id is reused
    assert len([height for height in walks if height > 0]) == distinct
    assert len(calls) > 2 * distinct


# ---------------------------------------------------------------------------
# The delta path against the full rules
# ---------------------------------------------------------------------------

# simulated PoW retargeting every 4 blocks, so the kept branch params change
PARAMS = ChainParams(
    genesis_allocation=tuple((A_ADDR, 10) for _ in range(8)),
    consensus=cons.PowParams(retarget_interval=4, target_spacing=5, simulated=True),
)
STEPS = st.sampled_from(["pay", "deploy", "call_twice", "spent", "value", "signature"])


def _step_block(store: ChainStore, parent_hash: bytes, step: str, timestamp: int) -> Block:
    """A signed block on parent_hash: a payment, a deploy, two calls to one
    contract, or a payment followed by a transfer that fails (a spent input,
    value created or a bad signature), so that its walk fails part way."""
    state = store.state_at(parent_hash)
    fund = store.blocks[store.genesis_hash].transactions[0]
    live = [(fund.tx_id, i) for i in range(len(fund.outputs))
            if state.utxo.get((fund.tx_id, i)).live]
    if step == "call_twice" and not state.registry or len(live) < 2:
        step = "pay" if live else "empty"
    txs = []
    if step == "deploy":
        txs.append(build_transaction([live[0]], [], 1, [ALICE], state.utxo,
                                     kind=TxKind.CONTRACT_DEPLOY, payload=COUNTER))
    elif step == "call_twice":
        target = Address.from_bytes(min(state.registry))
        for outpoint in live[:2]:
            txs.append(build_transaction([outpoint], [(target, 0)], 1, [ALICE], state.utxo,
                                         kind=TxKind.CONTRACT_CALL,
                                         payload=contracts.encode_call_payload([])))
    elif step != "empty":
        txs.append(build_transaction([live[0]], [(B_ADDR, 4)], 1, [ALICE], state.utxo))
    candidate = store.make_candidate(B_ADDR, txs, timestamp, parent_hash=parent_hash)
    failing = {
        "spent": lambda: signed([(live[0], ALICE)], (TxOutput(2, A_ADDR),)),
        "value": lambda: signed([(live[1], ALICE)], (TxOutput(11, B_ADDR),)),
        "signature": lambda: bad_signature(signed([(live[1], ALICE)], (TxOutput(9, B_ADDR),))),
    }.get(step)
    if failing is not None:
        candidate = with_transactions(candidate, candidate.transactions + (failing(),))
    return cons.attach_proof(candidate, PARAMS.consensus, keypair=BOB)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), STEPS, st.integers(1, 12)),
                min_size=1, max_size=14))
# a deploy, two calls to it in one block, a side branch whose blocks fail at
# their second transaction, a reorganization, and a retarget at height 4
@example([(0, "deploy", 5), (1, "call_twice", 5), (0, "pay", 3), (3, "spent", 2),
          (3, "pay", 2), (4, "value", 1), (4, "call_twice", 9), (0, "signature", 4),
          (5, "pay", 3), (6, "call_twice", 4), (7, "pay", 6)])
def test_the_delta_path_matches_the_full_rules(plan):
    """Blocks on random parents (so side branches and reorganizations),
    valid or failing part way through their walk.  A reference store judges
    fresh instances with the full rules; the first store judges the blocks
    themselves, and keeps their verdicts; a second store then meets the same
    objects.  The second walks no block, and every verdict, status, state and
    undo record matches."""
    first, reference = ChainStore(PARAMS), ReferenceStore(PARAMS)
    blocks, results = [], []
    for pick, step, gap in plan:
        valid = [h for h in first.blocks if h in first.undo]
        parent_hash = valid[pick % len(valid)]
        timestamp = first.blocks[parent_hash].header.timestamp + gap
        block = _step_block(first, parent_hash, step, timestamp)
        want = reference.append_block(block)
        got = first.append_block(block)
        assert (got.status, got.validity) == (want.status, want.validity)
        blocks.append(block)
        results.append((want.status, want.validity))
    assert_same_states(first, reference)
    second = ChainStore(PARAMS)
    with counted_walks() as walks:
        for block, want in zip(blocks, results):
            got = second.append_block(block)
            assert (got.status, got.validity) == want
        assert_same_states(second, reference)
    assert walks == []
    assert second.undo == first.undo

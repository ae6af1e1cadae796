"""One materialised state per node against the per-block-state store it
replaced.

ChainStore keeps the state of its tip (and, until the tip moves, of at most
one side branch) plus an undo record per block, and builds any other block's
state with state_at.  ReferenceStore below is the store as it was before: a
full post-state kept for every block, each validated on a copy of its
parent's, and the confirmation index rebuilt from genesis on every
reorganization.  For every block a store validated, state_at must equal the
reference's stored state, over simulations, a grid point, and the chain files
and byte mutants of test_chain_replay.  The reference runs every rule on a
fresh instance of each block (full_validate_and_apply), so it never applies a
verdict and delta that a store it is compared with kept on the block.
"""

from chainsim._record import replace
from pathlib import Path

import pytest
import yaml

from chainsim import contracts
from chainsim.chain import (
    EXTENDED,
    NEW_SIDE_BRANCH,
    REJECTED,
    REORGANIZED,
    AppendResult,
    ChainParams,
    ChainStore,
    _invalid,
    header_hash,
    is_stake_model,
    validate_and_apply,
)
from chainsim.crypto import derive_address, keypair_generate
from chainsim.ledger import TxKind, build_transaction, spendable_outpoint
from chainsim.netsim import run_scenario
from chainsim.scenario import parse_scenario

from test_golden_grid import grid_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def full_validate_and_apply(block, parent_header, state, params, header_at):
    """validate_and_apply with every rule run: on a replace copy
    of block, which carries no kept verdict, and which the call leaves holding
    the verdict of its own first judgement."""
    fresh = replace(block)
    assert fresh._verdict is None
    result = validate_and_apply(fresh, parent_header, state, params, header_at)
    kept = fresh._verdict
    # a block that fails its link to the parent keeps no verdict
    assert kept is not None and kept.params is params or result[1].reason in ("PrevHash", "Height")
    return result


class ReferenceStore(ChainStore):
    """The store with a full post-state per block."""

    def state_at(self, block_hash):
        return self.states[block_hash]

    def append_block(self, block):
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
        parent_state = self.states.get(parent_hash)
        if parent_state is None:
            return AppendResult(REJECTED, _invalid("UnknownParentState"))
        state = parent_state.clone()
        _, v = full_validate_and_apply(
            block, parent.header, state, self.params, self.branch_header_at(parent_hash)
        )
        if not v:
            return AppendResult(REJECTED, v)
        self.blocks[h] = block
        self.states[h] = state
        if block.header.height <= self.tip_height:
            return AppendResult(NEW_SIDE_BRANCH)
        if parent_hash == self.tip_hash:
            self.tip_hash = h
            for t in block.transactions:
                self._adopted_tx_heights[t.tx_id] = block.header.height
            if self.mempool:
                self.mempool.remove_confirmed(block.transactions)
                self.mempool.drop_conflicting(state.utxo, not is_stake_model(self.params))
            return AppendResult(EXTENDED)
        return self._reorganize(h, state)

    def _reorganize(self, new_tip, state):
        states = self.states
        result = super()._reorganize(new_tip, state)
        self.states = states
        self._adopted_tx_heights = {}
        for h in self.adopted_path():
            for t in self.blocks[h].transactions:
                self._adopted_tx_heights[t.tx_id] = self.blocks[h].header.height
        return result


def replayed(store: ChainStore) -> ReferenceStore:
    """A reference store fed every block of store in insertion order."""
    genesis = store.blocks[store.genesis_hash]
    reference = ReferenceStore(store.params, genesis)
    reference.mempool = None  # as in load and verify_blocks: no pool is kept
    for block in list(store.blocks.values())[1:]:
        reference.append_block(block)
    return reference


def assert_spendable_index(utxo) -> None:
    """spendable_outpoint answers from the set's index as a scan of its live
    entries does, for every address the set ever paid; state equality covers
    the entries only, so a stale index shows here and nowhere else."""
    live: dict = {}
    for outpoint, entry in utxo.live_entries():
        if not entry.locked:
            live.setdefault(entry.output.recipient, []).append((outpoint, entry.output.amount))
    for address in {entry.output.recipient for entry in utxo._entries.values()}:
        for needed in (0, 1, 4, 9):
            want = min((op for op, amount in live.get(address, ()) if amount >= needed),
                       default=None)
            assert spendable_outpoint(utxo, address, needed) == want


def assert_same_states(store: ChainStore, reference: ReferenceStore) -> None:
    """Every block store validated has the reference's state, with an index
    of spendable outpoints that matches it, and the tips and confirmation
    heights agree."""
    assert store.undo.keys() == reference.states.keys()
    assert store.tip_hash == reference.tip_hash
    for h, want in reference.states.items():
        got = store.state_at(h)
        assert got.utxo.digest() == want.utxo.digest()
        assert got == want
        assert_spendable_index(got.utxo)
        assert_spendable_index(want.utxo)
    assert store.tip_state() == reference.tip_state()
    assert_spendable_index(store.tip_state().utxo)
    assert store._adopted_tx_heights == reference._adopted_tx_heights


@pytest.mark.parametrize("name", [
    "partition.cfg", "majority_attack.cfg", "withholding.cfg", "softfork_tighten.cfg",
    "pos_coinage.cfg",
])
def test_simulated_stores_match_the_per_block_reference(name):
    """Each run has side branches, except the coin-age one, whose states
    rewind over stake resets."""
    raw = yaml.safe_load((SCENARIO_DIR / name).read_text())
    result = run_scenario(parse_scenario(raw))
    stores = [node.store for node in result.nodes.values() if node.store is not None]
    for store in stores:
        assert_same_states(store, replayed(store))
    side_blocks = sum(len(store.blocks) - len(store.adopted_path()) for store in stores)
    resets = sum(len(store.tip_state().stake_resets) for store in stores)
    assert side_blocks > 0 or resets > 0


def test_grid_point_matches_the_per_block_reference():
    result = run_scenario(parse_scenario(grid_scenario(10, 600, 13, 1)))
    for node in result.nodes.values():
        assert_same_states(node.store, replayed(node.store))


def test_a_grid_run_keeps_one_state_per_node_and_one_side_branch_at_most():
    """Every full node ends with the state of its tip, plus the state of at
    most one block off its adopted path; before, it kept one per block."""
    result = run_scenario(parse_scenario(grid_scenario(10, 2400, 13, 1)))
    for node in result.nodes.values():
        store = node.store
        assert store.tip_hash in store.states and len(store.states) <= 2
        assert not (store.states.keys() - {store.tip_hash}) & set(store.adopted_path())
        assert len(store.undo) == len(store.blocks) > 200


def test_contract_state_follows_reorganizations_both_ways():
    """Deploys and calls on two branches: reorganizing to the side branch and
    back takes back each call's storage write, the side branch's second
    deploy and its deploy count."""
    alice = keypair_generate(bytes(range(32)))
    owner = derive_address(alice.public_key)
    params = ChainParams(genesis_allocation=((owner, 100),) * 6)
    store, reference = ChainStore(params), ReferenceStore(params)
    fund = store.tip.transactions[0].tx_id
    code = contracts.assemble("PUSH 0\nLOAD\nPUSH 1\nADD\nPUSH 0\nSTORE")
    counter = contracts.derive_contract_address(owner, 0)

    def child(parent, output, kind):
        utxo = store.state_at(parent).utxo
        if kind == TxKind.CONTRACT_DEPLOY:
            pay, payload = [], code
        else:
            pay, payload = [(counter, 0)], contracts.encode_call_payload([])
        tx = build_transaction([(fund, output)], pay, 1, [alice], utxo, kind=kind, payload=payload)
        block = store.make_candidate(owner, [tx], output + 1, parent_hash=parent)
        result = store.append_block(block)
        assert result.validity == reference.append_block(block).validity
        return header_hash(block.header), result.status

    deploy, call = TxKind.CONTRACT_DEPLOY, TxKind.CONTRACT_CALL
    b1, _ = child(store.tip_hash, 0, deploy)
    b2, _ = child(b1, 1, call)
    b3, _ = child(b2, 2, call)
    c2, _ = child(b1, 3, deploy)  # the owner's second contract, on the side branch only
    c3, _ = child(c2, 4, call)
    c4, status = child(c3, 5, call)
    assert status == REORGANIZED
    assert store.tip_state().registry[counter.to_bytes()].storage == {0: 2}
    assert contracts.deploy_count(store.tip_state().registry, owner) == 2
    b4, _ = child(b3, 3, call)
    _, status = child(b4, 4, call)
    assert status == REORGANIZED
    assert store.tip_state().registry[counter.to_bytes()].storage == {0: 4}
    assert contracts.deploy_count(store.tip_state().registry, owner) == 1
    assert_same_states(store, reference)

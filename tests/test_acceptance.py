"""Acceptance gate: twelve end-to-end guarantees, one test per criterion.

Each test prints a single `[criterion NN] name: PASS|FAIL` line on the real
terminal (bypassing capture) so a full run yields a twelve-line scoreboard.
Tolerances are part of the contract and are stated inline.
"""

import math
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from chainsim import consensus as cons
from chainsim import contracts
from chainsim.chain import (
    ChainParams,
    ChainStore,
    EXTENDED,
    NEW_SIDE_BRANCH,
    REJECTED,
    REORGANIZED,
    deserialize_block,
    header_hash,
    verify_blocks,
)
from chainsim.crypto import HashStream, derive_address, keypair_generate, sha256, solve_string_puzzle
from chainsim.ledger import Mempool, TxKind, Validity, build_transaction
from chainsim.netsim import run_scenario, summary_row
from chainsim.scenario import load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from scripts.attack_share_sweep import sweep_config  # noqa: E402

SCENARIO_DIR = ROOT / "scenarios"

ALICE = keypair_generate(bytes(range(32)))
BOB = keypair_generate(bytes(range(1, 33)))
A_ADDR = derive_address(ALICE.public_key)
B_ADDR = derive_address(BOB.public_key)

REFERENCE_EVENT_LOG_DIGEST = "598d3000a1ee04f804a33499cf0c53a69a9ac6b6e4bd92bf1b72ef61afff7945"


def _announce(capsys, number: int, name: str, verdict: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number:02d}] {name}: {verdict}")


@contextmanager
def criterion(capsys, number: int, name: str):
    try:
        yield
    except BaseException:
        _announce(capsys, number, name, "FAIL")
        raise
    _announce(capsys, number, name, "PASS")


@pytest.fixture(scope="module")
def bundled_runs():
    """One run of every bundled scenario, shared across criteria."""
    return {
        path.name: run_scenario(load_scenario(str(path)))
        for path in sorted(SCENARIO_DIR.glob("*.cfg"))
    }


# -- 1: hash primitive -------------------------------------------------------------


def test_criterion_01_hash_known_answers(capsys):
    with criterion(capsys, 1, "sha-256 known answers"):
        assert sha256(b"1").hex() == (
            "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"
        )
        assert sha256(b"2").hex() == (
            "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35"
        )
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


# -- 2 and 3: hash puzzle vectors -----------------------------------------------------


def test_criterion_02_puzzle_six_zeros(capsys):
    with criterion(capsys, 2, "puzzle 6 zeros from 0"):
        solution = solve_string_puzzle("blockchain", 6, 0)
        assert solution.nonce == 10_730_895
        assert solution.attempts == 10_730_896
        assert solution.digest.hex() == (
            "000000ca1415e0bec568f6f605fcc83d18cac7a4e6c219a957c10c6879d67587"
        )


@pytest.mark.slow
def test_criterion_03_puzzle_seven_zeros_pooled_range(capsys):
    with criterion(capsys, 3, "puzzle 7 zeros pooled range"):
        solution = solve_string_puzzle("blockchain", 7, 1_610_612_736)
        assert solution.nonce == 1_700_876_653
        assert solution.attempts == 90_263_918
        assert solution.digest.hex() == (
            "00000003ba55d20c9cbd1b6fb34dd81c3553360ed918d07acf16dc9e75d7c7f1"
        )


@pytest.mark.ignored
def test_criterion_03_appendix_full_seven_zero_scan(capsys):
    # ~934M hashes; run with CHAINSIM_RUN_IGNORED=1 when you have the time
    with criterion(capsys, 3, "puzzle 7 zeros full scan"):
        solution = solve_string_puzzle("blockchain", 7, 0)
        assert solution.nonce == 934_224_174
        assert solution.attempts == 934_224_175


# -- 4: difficulty scaling --------------------------------------------------------------


def test_criterion_04_each_hex_zero_multiplies_work_by_16(capsys):
    with criterion(capsys, 4, "difficulty scaling x16"):
        trials = 200
        stream = HashStream(1848, "difficulty-scaling")
        means = {}
        for difficulty in (2, 3, 4):
            total = 0
            for _ in range(trials):
                prefix = stream.bytes(8).hex()
                total += solve_string_puzzle(prefix, difficulty, 0).attempts
            means[difficulty] = total / trials
        # attempts are geometric, so the mean of N trials has sd ~= mean/sqrt(N)
        # and the ratio of two means has sd ~= 16*sqrt(2/N)
        tolerance = 3 * 16 * math.sqrt(2 / trials)
        for low, high in ((2, 3), (3, 4)):
            ratio = means[high] / means[low]
            assert abs(ratio - 16.0) <= tolerance, (low, high, ratio)


# -- 5: stake-weighted selection ---------------------------------------------------------


def test_criterion_05_stake_42_58_selection_share(capsys):
    with criterion(capsys, 5, "stake 42/58 selection share"):
        entries = [
            cons.StakeEntry((b"\x01" * 32, 0), A_ADDR, 42, 0),
            cons.StakeEntry((b"\x02" * 32, 0), B_ADDR, 58, 0),
        ]
        rng = HashStream(2024, "pos-42")
        wins = sum(
            cons.pos_select_chain(entries, rng.random()) == A_ADDR for _ in range(10_000)
        )
        assert abs(wins - 4_200) <= 150


# -- 6: tamper evidence --------------------------------------------------------------------


def _signed_payment_chain(length: int):
    """A chain where every byte matters: each block carries one signed
    payment, and headers are covered by the publisher's consensus tag."""
    rr = cons.RoundRobinParams(publishers=(B_ADDR,))
    params = ChainParams(genesis_allocation=((A_ADDR, 1_000),), consensus=rr)
    store = ChainStore(params, mempool=Mempool())
    blocks = [store.tip]
    outpoint = (store.tip.transactions[0].tx_id, 0)
    for height in range(1, length + 1):
        utxo = store.tip_state().utxo
        tx = build_transaction([outpoint], [(B_ADDR, 1)], 0, [ALICE], utxo)
        outpoint = (tx.tx_id, 1)  # change output keeps funding the next block
        candidate = store.make_candidate(B_ADDR, [tx], timestamp=height)
        block = cons.attach_proof(candidate, rr, keypair=BOB)
        assert store.append_block(block).status == EXTENDED
        blocks.append(block)
    return params, blocks


def test_criterion_06_any_single_byte_edit_breaks_verification(capsys):
    with criterion(capsys, 6, "single-byte tamper evidence"):
        params, blocks = _signed_payment_chain(50)
        serialized = [block.serialize() for block in blocks]
        boundaries = []
        total = 0
        for raw in serialized:
            boundaries.append(total)
            total += len(raw)

        stream = HashStream(7, "tamper-sampler")
        positions = set()
        while len(positions) < 500:
            positions.add(stream.randrange(total))

        reached_verify = 0
        for position in sorted(positions):
            idx = max(i for i, start in enumerate(boundaries) if start <= position)
            offset = position - boundaries[idx]
            raw = bytearray(serialized[idx])
            raw[offset] ^= 1 + stream.randrange(255)
            try:
                mutant, consumed = deserialize_block(bytes(raw))
                if consumed != len(raw):
                    raise ValueError("trailing bytes")
            except ValueError:
                continue  # the record no longer decodes; the loader rejects it
            reached_verify += 1
            result = verify_blocks(params, blocks[:idx] + [mutant] + blocks[idx + 1 :])
            assert not result.ok, (idx, offset)
            # a corrupted height field makes the claimed height itself lie,
            # so the floor is whichever height the chain can still attribute
            floor = min(blocks[idx].header.height, mutant.header.height)
            assert result.height >= floor, (idx, offset, result)
        assert reached_verify >= 350


# -- 7: conflicting branches ------------------------------------------------------------


def test_criterion_07_equal_branches_resolve_and_recycle_transactions(capsys):
    with criterion(capsys, 7, "conflict resolution replay"):
        params = ChainParams(
            genesis_allocation=((A_ADDR, 10), (A_ADDR, 10), (A_ADDR, 10), (A_ADDR, 10))
        )
        store = ChainStore(params, mempool=Mempool())
        genesis_hash = store.tip_hash
        fund = store.tip.transactions[0]
        utxo = store.tip_state().utxo
        tx1, tx2, tx3, tx4 = (
            build_transaction([(fund.tx_id, i)], [(B_ADDR, 10)], 0, [ALICE], utxo)
            for i in range(4)
        )

        statuses = []
        block_a = store.make_candidate(A_ADDR, [tx1, tx2, tx3], 1, parent_hash=genesis_hash)
        statuses.append(store.append_block(block_a).status)
        block_b = store.make_candidate(B_ADDR, [tx1, tx2, tx4], 1, parent_hash=genesis_hash)
        statuses.append(store.append_block(block_b).status)
        follow = store.make_candidate(
            B_ADDR, [], 2, parent_hash=header_hash(block_b.header)
        )
        result = store.append_block(follow)
        statuses.append(result.status)

        assert statuses == [EXTENDED, NEW_SIDE_BRANCH, REORGANIZED]
        assert result.orphaned == [block_a]
        assert result.adopted == [block_b, follow]
        assert tx3.tx_id in store.mempool  # the losing branch's extra payment returns
        assert tx1.tx_id not in store.mempool and tx2.tx_id not in store.mempool
        assert tx4.tx_id not in store.mempool
        assert store.confirmation_height(tx4.tx_id) == 1
        assert store.confirmation_height(tx3.tx_id) is None


# -- 8: conservation ---------------------------------------------------------------------


def test_criterion_08_value_is_conserved_in_every_scenario(capsys, bundled_runs):
    with criterion(capsys, 8, "conservation across scenarios"):
        assert len(bundled_runs) >= 15
        for name, result in bundled_runs.items():
            chain = result.config.chain
            genesis_total = sum(amount for _, amount in chain.genesis_allocation)
            for node in result.nodes.values():
                if node.store is None:
                    continue
                supply = sum(
                    entry.output.amount
                    for _, entry in node.store.tip_state().utxo.live_entries()
                )
                minted = genesis_total + chain.block_subsidy * node.store.tip_height
                assert supply == minted, (name, node.name)


# -- 9: attack share scaling ------------------------------------------------------------


def test_criterion_09_attack_success_scales_with_hash_share(capsys):
    with criterion(capsys, 9, "attack impact vs hash share"):
        counts = {0.1: 0, 0.6: 0}
        for share in counts:
            for seed in range(1, 11):
                result = run_scenario(parse_scenario(sweep_config(seed, share, 3)))
                honest = [
                    depth
                    for _, node, depth in result.metrics.reorg_events
                    if node != "adv"
                ]
                counts[share] += len(honest)
                if share == 0.1:
                    # a 10% attacker never rewrites settled history
                    assert all(depth <= 6 for depth in honest), (seed, honest)
        assert counts[0.6] > counts[0.1], counts


# -- 10: fork dynamics -------------------------------------------------------------------


def test_criterion_10_fork_dynamics(capsys, bundled_runs):
    with criterion(capsys, 10, "hard and soft fork behaviour"):
        _check_hard_fork_split(bundled_runs["hardfork_split.cfg"])
        _check_soft_fork_matrix()


def _check_hard_fork_split(result):
    config = result.config
    activation = config.fork.activation_height
    assert result.metrics.fork_split

    adopters = [result.nodes[n] for n in config.fork.adopters]
    others = [
        node
        for name, node in result.nodes.items()
        if name not in config.fork.adopters and node.store
    ]
    new_tips = {node.store.tip_hash for node in adopters}
    old_tips = {node.store.tip_hash for node in others}
    assert len(new_tips) == 1 and len(old_tips) == 1 and new_tips != old_tips

    for node, version in ((adopters[0], config.fork.new_rule_version), (others[0], 0)):
        store = node.store
        assert store.tip_height >= activation + 5
        assert store.tip.header.rule_version == version

    # the same pre-fork output is spent once per branch: the split doubles it
    donor = result.nodes["n2"]
    genesis = adopters[0].store.get_block(adopters[0].store.adopted_path()[0])
    coinbase = genesis.transactions[0]
    index = next(
        i for i, out in enumerate(coinbase.outputs) if out.recipient == donor.address
    )
    outpoint = (coinbase.tx_id, index)
    for node, version in ((adopters[0], config.fork.new_rule_version), (others[0], 0)):
        store = node.store
        utxo = store.tip_state().utxo
        assert utxo.get(outpoint).live
        tx = build_transaction([outpoint], [(node.address, 5)], 0, [donor.keypair], utxo)
        candidate = store.make_candidate(
            node.address,
            [tx],
            timestamp=store.tip.header.timestamp + 1,
            rule_version=version,
        )
        block = cons.attach_proof(candidate, store.params.consensus, keypair=node.keypair)
        assert store.append_block(block).status == EXTENDED
        assert not store.tip_state().utxo.get(outpoint).live


def _check_soft_fork_matrix():
    base = 2048
    activation = 1
    params = ChainParams(genesis_allocation=((A_ADDR, 1_000),), max_block_data_bytes=base)

    def tightened(block):
        if block.header.height >= activation and len(block.data_bytes()) > base // 2:
            return Validity(False, "Oversize", "tightened rule")
        return Validity(True)

    adopter = ChainStore(params, mempool=Mempool())
    adopter.policy = tightened
    old_node = ChainStore(params, mempool=Mempool())

    def payment(store, payload=b""):
        utxo = store.tip_state().utxo
        outpoint = min(
            op
            for op, entry in utxo.live_entries()
            if entry.output.recipient == A_ADDR
        )
        return build_transaction(
            [outpoint], [(B_ADDR, 1)], 0, [ALICE], utxo, payload=payload
        )

    # a block satisfying the tightened limit is accepted by everyone
    tight = old_node.make_candidate(B_ADDR, [payment(old_node)], 1)
    assert old_node.append_block(tight).status == EXTENDED
    assert adopter.append_block(tight).status == EXTENDED

    # legal under the old limit, oversized under the new one: only the
    # adopter rejects it, which is what makes the tightening a soft fork
    big = old_node.make_candidate(B_ADDR, [payment(old_node, payload=b"\x5a" * 1200)], 2)
    assert len(big.data_bytes()) <= base
    assert len(big.data_bytes()) > base // 2
    accepted = old_node.append_block(big)
    assert accepted.status == EXTENDED
    rejected = adopter.append_block(big)
    assert rejected.status == REJECTED
    assert rejected.reason == "Oversize"


# -- 11: contract determinism and gas ------------------------------------------------------


COUNTER_CODE = contracts.encode_bytecode(
    [
        (contracts.OP_PUSH, 0),
        (contracts.OP_LOAD, None),
        (contracts.OP_PUSH, 1),
        (contracts.OP_ADD, None),
        (contracts.OP_PUSH, 0),
        (contracts.OP_STORE, None),
    ]
)


def test_criterion_11_contract_determinism_and_gas(capsys):
    with criterion(capsys, 11, "contract determinism and gas"):
        _check_counter_replicates_across_nodes()
        _check_infinite_loop_burns_limit_only()
        _check_thousand_program_replay()


def _check_counter_replicates_across_nodes():
    params = ChainParams(genesis_allocation=((A_ADDR, 1_000),))
    author = ChainStore(params, mempool=Mempool())
    contract = contracts.derive_contract_address(A_ADDR, 0)

    utxo = author.tip_state().utxo
    outpoint = (author.tip.transactions[0].tx_id, 0)
    deploy = build_transaction(
        [outpoint], [], 1, [ALICE], utxo,
        kind=TxKind.CONTRACT_DEPLOY, payload=COUNTER_CODE,
    )
    txs = [deploy]
    outpoint = (deploy.tx_id, 0)
    blocks = []
    for height in range(1, 5):
        candidate = author.make_candidate(B_ADDR, txs, timestamp=height)
        assert author.append_block(candidate).status == EXTENDED
        blocks.append(candidate)
        utxo = author.tip_state().utxo
        call = build_transaction(
            [outpoint], [(contract, 0)], 1, [ALICE], utxo,
            kind=TxKind.CONTRACT_CALL, payload=contracts.encode_call_payload([]),
        )
        txs = [call]
        outpoint = (call.tx_id, 1)

    replicas = [ChainStore(params, mempool=Mempool()) for _ in range(3)]
    for replica in replicas:
        for block in blocks:
            assert replica.append_block(block).status == EXTENDED
    storages = [
        {
            addr: dict(account.storage)
            for addr, account in replica.tip_state().registry.items()
        }
        for replica in replicas
    ]
    assert storages[0] == storages[1] == storages[2]
    assert storages[0][contract.to_bytes()] == {0: 3}  # three calls landed


def _check_infinite_loop_burns_limit_only():
    loop = contracts.encode_bytecode([(contracts.OP_JMP, 0)])
    storage = {0: 7}
    result = contracts.execute(loop, (), storage, 5_000)
    assert result.status == contracts.OUT_OF_GAS
    assert result.gas_used == 5_000
    assert result.storage_writes == {}
    assert storage == {0: 7}


def _check_thousand_program_replay():
    stream = HashStream(99, "vm-fuzz")
    opcodes = list(contracts.MNEMONICS)
    seen = set()
    for _ in range(1_000):
        length = 1 + stream.randrange(12)
        program = []
        for _ in range(length):
            op = opcodes[stream.randrange(len(opcodes))]
            if op == contracts.OP_PUSH:
                operand = stream.u64() & contracts.WORD_MASK
            elif op in (contracts.OP_JMP, contracts.OP_JMPIF):
                operand = stream.randrange(length)
            elif op == contracts.OP_INPUT:
                operand = stream.randrange(4)
            else:
                operand = None
            program.append((op, operand))
        code = contracts.encode_bytecode(program)
        inputs = tuple(stream.u64() & contracts.WORD_MASK for _ in range(stream.randrange(4)))
        storage = {stream.randrange(8): stream.u64() for _ in range(stream.randrange(3))}
        gas_limit = 1 + stream.randrange(300)
        first = contracts.execute(code, inputs, dict(storage), gas_limit)
        second = contracts.execute(code, inputs, dict(storage), gas_limit)
        assert first == second
        seen.add(first.status)
    assert seen == {contracts.OK, contracts.OUT_OF_GAS, contracts.TRAP}


# -- 12: simulator determinism --------------------------------------------------------------


def test_criterion_12_every_scenario_is_replay_identical(capsys, bundled_runs):
    with criterion(capsys, 12, "simulator determinism"):
        for path in sorted(SCENARIO_DIR.glob("*.cfg")):
            again = run_scenario(load_scenario(str(path)))
            assert (
                again.event_log_digest()
                == bundled_runs[path.name].event_log_digest()
            ), path.name

        reference = bundled_runs["honest_pow_10.cfg"]
        assert reference.config.seed == 42
        assert summary_row(reference) == {
            "seed": 42,
            "orphans": 10,
            "max_reorg_depth": 1,
            "mean_confirmation_latency": 67.0,
            "fork_split": "false",
        }
        assert reference.event_log_digest().hex() == REFERENCE_EVENT_LOG_DIGEST

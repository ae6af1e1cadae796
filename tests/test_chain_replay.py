"""Chain-file loading and replay verification against a reference.

load and verify_blocks read one replay, which judges each record after the
genesis once through ChainStore.append_block, on a store founded by the one
genesis check: load runs it to the end, and verify_blocks stops at the first
failing verdict.  The reference below is the earlier loader (its own
_install_raw and a confirmation-index rebuild) and verifier (its own block
index, state map, ancestor walk and genesis walk), written as functions.
Over random chain files and random single-byte block mutants the two must
agree, except for the one deliberate change pinned in
test_second_genesis_record_fails_verification.  The reference loader fills a
ReferenceStore (test_state_store), which keeps a state per block, and every
state of a loaded or replayed store must match it.  Both references judge
each block with every rule, on a fresh instance (full_validate_and_apply).
"""

import os
import random
import struct
import tempfile
from chainsim._record import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import consensus as cons
from chainsim import crypto
from chainsim.chain import (
    CHAIN_FORMAT_VERSION,
    CHAIN_MAGIC,
    GENESIS_PREV_HASH,
    Block,
    BlockHeader,
    BlockUndo,
    ChainFileError,
    ChainParams,
    ChainState,
    ChainStore,
    VerifyResult,
    _walk_transactions,
    block_data_bytes,
    deserialize_block,
    header_hash,
    load,
    make_genesis,
    persist,
    read_chain_file,
    transactions_merkle_root,
    verify_blocks,
)
from chainsim.crypto import derive_address, keypair_generate, sha256
from chainsim.ledger import Mempool, UtxoSet, build_transaction, make_coinbase

from test_acceptance import _signed_payment_chain
from test_state_store import ReferenceStore, assert_same_states, full_validate_and_apply

ALICE = keypair_generate(bytes(range(32)))
BOB = keypair_generate(bytes(range(1, 33)))
A_ADDR = derive_address(ALICE.public_key)
B_ADDR = derive_address(BOB.public_key)

# simulated PoW: every header is signed, and a retarget every 4 blocks makes
# each state depend on the timestamps of its own branch's ancestors
PARAMS = ChainParams(
    genesis_allocation=tuple((A_ADDR, 10) for _ in range(12)),
    consensus=cons.PowParams(retarget_interval=4, target_spacing=5, simulated=True),
)


# ---------------------------------------------------------------------------
# Reference: the loader and verifier that kept their own block bookkeeping
# ---------------------------------------------------------------------------


def reference_verify_blocks(params, blocks):
    index = {}
    states = {}
    for block in blocks:
        header = block.header
        if header.height == 0:
            if header.prev_header_hash != GENESIS_PREV_HASH:
                return VerifyResult(False, 0, "PrevHash")
            if not block.transactions:
                return VerifyResult(False, 0, "DataHash")
            if header.data_hash != transactions_merkle_root(block.transactions):
                return VerifyResult(False, 0, "DataHash")
            if header.size != len(block.data_bytes()):
                return VerifyResult(False, 0, "Size")
            state = ChainState(UtxoSet())
            if isinstance(params.consensus, cons.PowParams):
                state.pow_params = params.consensus
            undo = BlockUndo(state.pow_params)
            v = _walk_transactions(block.transactions, state, 0, params, undo)
            if not v:
                return VerifyResult(False, 0, v.reason)
        else:
            parent = index.get(header.prev_header_hash)
            if parent is None:
                return VerifyResult(False, header.height, "PrevHash")

            def header_at(height, _start=parent):
                b = _start
                while b.header.height > height:
                    b = index.get(b.header.prev_header_hash)
                    if b is None:
                        return None
                return b.header if b.header.height == height else None

            state = states[header_hash(parent.header)].clone()
            _, v = full_validate_and_apply(block, parent.header, state, params, header_at)
            if not v:
                return VerifyResult(False, header.height, v.reason)
        h = header_hash(header)
        index[h] = block
        states[h] = state
    return VerifyResult(True)


def reference_install_raw(store, block):
    h = header_hash(block.header)
    if h in store.blocks:
        return
    parent_hash = block.header.prev_header_hash
    store.blocks[h] = block
    parent = store.blocks.get(parent_hash)
    parent_state = store.states.get(parent_hash)
    if parent is not None and parent_state is not None:
        state = parent_state.clone()
        _, v = full_validate_and_apply(
            block, parent.header, state, store.params, store.branch_header_at(parent_hash),
        )
        if v:
            store.states[h] = state
    if h in store.states and block.header.height > store.tip_height:
        store.tip_hash = h


def reference_load(path, params):
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != CHAIN_MAGIC:
        raise ChainFileError(0, "bad magic")
    if len(buf) < 6:
        raise ChainFileError(4, "missing format version")
    (version,) = struct.unpack_from(">H", buf, 4)
    if version != CHAIN_FORMAT_VERSION:
        raise ChainFileError(4, f"unsupported format version {version}")
    offset = 6
    blocks = []
    truncated_at = None
    while offset < len(buf):
        start = offset
        if offset + 4 > len(buf):
            truncated_at = start
            break
        (length,) = struct.unpack_from(">I", buf, offset)
        offset += 4
        if offset + length + 4 > len(buf):
            truncated_at = start
            break
        record = buf[offset : offset + length]
        offset += length
        checksum = buf[offset : offset + 4]
        offset += 4
        if sha256(record)[:4] != checksum:
            raise ChainFileError(start, "record checksum mismatch")
        try:
            block, consumed = deserialize_block(record)
        except ValueError as exc:
            raise ChainFileError(start, f"undecodable block: {exc}") from None
        if consumed != length:
            raise ChainFileError(start, "trailing bytes in record")
        blocks.append(block)
    if not blocks:
        raise ChainFileError(6, "no blocks in file")
    if blocks[0].header.height != 0:
        raise ChainFileError(6, "first record is not a genesis block")
    try:
        store = ReferenceStore(params, genesis=blocks[0])
    except ValueError as exc:
        raise ChainFileError(6, str(exc)) from None
    for block in blocks[1:]:
        reference_install_raw(store, block)
    store._adopted_tx_heights = {}
    for h in store.adopted_path():
        blk = store.blocks[h]
        for t in blk.transactions:
            store._adopted_tx_heights[t.tx_id] = blk.header.height
    return SimpleNamespace(store=store, truncated_at=truncated_at)


# ---------------------------------------------------------------------------
# Random chain files
# ---------------------------------------------------------------------------


def _file_bytes(blocks) -> bytes:
    parts = [CHAIN_MAGIC, struct.pack(">H", CHAIN_FORMAT_VERSION)]
    for block in blocks:
        record = block.serialize()
        parts += [struct.pack(">I", len(record)), record, sha256(record)[:4]]
    return b"".join(parts)


def _valid_child(store, rng, parent_hash) -> Block:
    """A signed block on parent_hash paying 0-2 of the genesis outputs still
    live on that branch, so sibling branches carry conflicting payments."""
    utxo = store.state_at(parent_hash).utxo
    fund = store.blocks[store.genesis_hash].transactions[0]
    live = [i for i in range(len(fund.outputs)) if utxo.get((fund.tx_id, i)).live]
    picks = rng.sample(live, min(len(live), rng.randrange(3)))
    txs = [build_transaction([(fund.tx_id, i)], [(B_ADDR, 9)], 1, [ALICE], utxo) for i in picks]
    timestamp = store.blocks[parent_hash].header.timestamp + rng.randrange(1, 12)
    candidate = store.make_candidate(B_ADDR, txs, timestamp, parent_hash=parent_hash)
    return cons.attach_proof(candidate, PARAMS.consensus, keypair=BOB)


def _forged_child(parent: Block) -> Block:
    """A well-formed, signed coinbase-only block on any parent, whether or not
    the parent is valid or present in the file."""
    height = parent.header.height + 1
    txs = (make_coinbase([(B_ADDR, 50)], height),)
    header = BlockHeader(height, header_hash(parent.header), transactions_merkle_root(txs),
                         parent.header.timestamp + 1, len(block_data_bytes(txs)), 0)
    return cons.attach_proof(Block(header, txs), PARAMS.consensus, keypair=BOB)


def _invalid_variant(rng, block: Block) -> Block:
    """A single-byte mutant of block that still decodes, else block with its
    timestamp moved after signing (a broken publisher signature)."""
    raw = bytearray(block.serialize())
    raw[rng.randrange(len(raw))] ^= 1 + rng.randrange(255)
    try:
        mutant, consumed = deserialize_block(bytes(raw))
        if consumed == len(raw):
            return mutant
    except ValueError:
        pass
    return Block(replace(block.header, timestamp=block.header.timestamp + 1), block.transactions)


def random_chain_file(seed: int) -> bytes:
    """Records of a random block tree with side branches, reorgs and duplicate
    records.  Two files in three are also damaged: invalid blocks, children of
    invalid blocks, orphans (a child before its parent, or a parent left out),
    and sometimes a flipped byte or a truncated tail."""
    rng = random.Random(seed)
    damaged = rng.random() < 2 / 3
    source = ChainStore(PARAMS)
    valid = [source.genesis_hash]
    records = []
    for _ in range(rng.randrange(8, 30)):
        parent_hash = source.tip_hash if rng.random() < 0.6 else rng.choice(valid)
        block = _valid_child(source, rng, parent_hash)
        if damaged and rng.random() < 0.15:
            block = _invalid_variant(rng, block)
        elif source.append_block(block).validity:
            valid.append(header_hash(block.header))
        records.append(block)
        if damaged and rng.random() < 0.15:
            records.append(_forged_child(rng.choice(records)))
        if rng.random() < 0.1:
            records.append(rng.choice(records))
    if damaged:
        for _ in range(rng.randrange(3)):
            i = rng.randrange(len(records) - 1)
            records[i], records[i + 1] = records[i + 1], records[i]
        if rng.random() < 0.3:
            del records[rng.randrange(len(records))]
    data = bytearray(_file_bytes([source.blocks[source.genesis_hash]] + records))
    if damaged and rng.random() < 0.15:
        data[rng.randrange(len(data))] ^= 1 + rng.randrange(255)
    if damaged and rng.random() < 0.15:
        del data[rng.randrange(6, len(data)):]
    return bytes(data)


def _appended(params, blocks):
    """A store and a reference store fed the same blocks through append_block."""
    store = ChainStore(params, blocks[0])
    reference = ReferenceStore(params, blocks[0])
    for block in blocks[1:]:
        assert store.append_block(block).validity == reference.append_block(block).validity
    return store, reference


def _load_either(loader, path):
    try:
        return loader(str(path), PARAMS)
    except ChainFileError as exc:
        return exc


def _confirmation_heights(store):
    return {
        t.tx_id: store.confirmation_height(t.tx_id)
        for block in store.blocks.values()
        for t in block.transactions
    }


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_load_matches_reference(tmp_path, seed):
    path = tmp_path / "chain.dat"
    path.write_bytes(random_chain_file(seed))
    new = _load_either(load, path)
    ref = _load_either(reference_load, path)
    if isinstance(ref, ChainFileError):
        assert isinstance(new, ChainFileError)
        assert (new.offset, str(new)) == (ref.offset, str(ref))
        return
    assert new.truncated_at == ref.truncated_at
    a, b = new.store, ref.store
    assert list(a.blocks) == list(b.blocks)
    assert a.blocks == b.blocks
    assert_same_states(a, b)
    assert _confirmation_heights(a) == _confirmation_heights(b)
    assert len(a.mempool) == 0
    assert verify_blocks(a.params, a.blocks.values()) == reference_verify_blocks(PARAMS, b.blocks.values())


def test_verify_of_the_decoded_records_matches_verify_of_the_loaded_store(tmp_path):
    """chain verify replays the records read_chain_file decodes, once, where
    it used to verify the blocks of the store load built.  Over the random
    chain files the two agree: the same ChainFileError offset and message,
    or the same verdict.  No file repeats a header with other transaction
    bytes, the one record load drops and the replay judges."""
    loadable = 0
    for seed in range(200):
        path = tmp_path / f"{seed}.dat"
        path.write_bytes(random_chain_file(seed))
        ref = _load_either(reference_load, path)
        decoded = _load_either(read_chain_file, path)
        if isinstance(ref, ChainFileError):
            assert isinstance(decoded, ChainFileError)
            assert (decoded.offset, str(decoded)) == (ref.offset, str(ref))
            continue
        loadable += 1
        assert decoded.truncated_at == ref.truncated_at
        store = load(str(path), PARAMS).store
        assert verify_blocks(PARAMS, decoded.blocks) == verify_blocks(PARAMS, store.blocks.values())
    assert loadable == 179


def test_random_chain_files_cover_every_case(tmp_path):
    """The files above include reorganizations whose orphaned payments a live
    store puts back in its mempool, blocks kept without state, truncated
    files, files that verify and files that fail verification or to load."""
    repooled = stateless = truncated = verified = unverified = unloadable = 0
    for seed in range(60):
        path = tmp_path / f"{seed}.dat"
        path.write_bytes(random_chain_file(seed))
        loaded = _load_either(load, path)
        if isinstance(loaded, ChainFileError):
            unloadable += 1
            continue
        store = loaded.store
        replay = ChainStore(PARAMS, store.blocks[store.genesis_hash])
        for h in list(store.blocks)[1:]:
            replay.append_block(store.blocks[h])
        repooled += len(replay.mempool) > 0
        stateless += len(store.blocks) > len(store.undo)
        truncated += loaded.truncated_at is not None
        ok = verify_blocks(store.params, store.blocks.values()).ok
        verified += ok
        unverified += not ok
    assert repooled >= 2 and stateless >= 20 and truncated >= 2
    assert verified >= 10 and unverified >= 20 and unloadable >= 2


def test_verify_matches_reference_on_single_byte_mutants():
    params, blocks = _signed_payment_chain(50)
    rng = random.Random(6)
    reached = 0
    for _ in range(1500):
        idx = rng.randrange(len(blocks))
        raw = bytearray(blocks[idx].serialize())
        raw[rng.randrange(len(raw))] ^= 1 + rng.randrange(255)
        try:
            mutant, consumed = deserialize_block(bytes(raw))
        except ValueError:
            continue
        if consumed != len(raw):
            continue
        reached += 1
        sequences = [blocks[:idx] + [mutant] + blocks[idx + 1 :]]
        if idx > 0 and header_hash(mutant.header) == header_hash(blocks[idx].header):
            # other transaction bytes under the same header, after the original
            sequences.append(blocks[: idx + 1] + [mutant] + blocks[idx + 1 :])
        for sequence in sequences:
            assert verify_blocks(params, sequence) == reference_verify_blocks(params, sequence)
            if idx > 0 and reached % 25 == 0:
                assert_same_states(*_appended(params, sequence))
    assert reached >= 1000


def test_verify_skips_exact_duplicates_and_judges_a_resigned_duplicate():
    params, blocks = _signed_payment_chain(6)
    repeated = blocks[:4] + [blocks[0], blocks[3], blocks[2]] + blocks[4:]
    assert verify_blocks(params, repeated) == reference_verify_blocks(params, repeated)
    assert verify_blocks(params, repeated).ok
    # a payment signature is outside tx_id, so the header hash is unchanged
    original = blocks[3]
    tx = original.transactions[1]
    forged_tx = replace(tx, inputs=(replace(tx.inputs[0], signature=bytes(64)),) + tx.inputs[1:])
    forged = Block(original.header, (original.transactions[0], forged_tx))
    assert header_hash(forged.header) == header_hash(original.header)
    sequence = blocks[:4] + [forged] + blocks[4:]
    assert verify_blocks(params, sequence) == VerifyResult(False, 3, "BadSignature")
    assert reference_verify_blocks(params, sequence) == VerifyResult(False, 3, "BadSignature")


def test_second_genesis_record_fails_verification(tmp_path):
    """The deliberate change: a height-0 block after the first that is not an
    exact duplicate no longer passes as a second root."""
    params, blocks = _signed_payment_chain(3)
    other = make_genesis(ChainParams(genesis_allocation=((B_ADDR, 5),)))
    sequence = blocks[:2] + [other] + blocks[2:]
    assert reference_verify_blocks(params, sequence) == VerifyResult(True)
    assert verify_blocks(params, sequence) == VerifyResult(False, 0, "PrevHash")
    # a height-0 header on a replayed parent was PrevHash before and still is
    lowered = Block(replace(blocks[2].header, height=0), blocks[2].transactions)
    sequence_low = blocks[:2] + [lowered]
    assert verify_blocks(params, sequence_low) == VerifyResult(False, 0, "PrevHash")
    assert reference_verify_blocks(params, sequence_low) == VerifyResult(False, 0, "PrevHash")
    exact = blocks[:2] + [blocks[0]] + blocks[2:]
    assert verify_blocks(params, exact) == reference_verify_blocks(params, exact)
    assert verify_blocks(params, exact).ok
    # loading is unchanged: the foreign genesis is kept without state
    path = tmp_path / "chain.dat"
    path.write_bytes(_file_bytes(sequence + [_forged_child(other)]))
    new, ref = load(str(path), params), reference_load(str(path), params)
    assert list(new.store.blocks) == list(ref.store.blocks)
    assert new.store.undo.keys() == ref.store.states.keys()
    assert header_hash(other.header) not in new.store.undo
    assert verify_blocks(new.store.params, new.store.blocks.values()) == VerifyResult(False, 0, "PrevHash")
    assert reference_verify_blocks(params, ref.store.blocks.values()).ok


def test_replay_keeps_no_mempool(tmp_path, monkeypatch):
    """load and verify_blocks replay reorganizations without putting orphaned
    transactions back in a pool: nothing reads it, and load hands back an
    empty one.  A store with a pool, fed the same blocks, does offer them to
    its pool (ChainStore.admit)."""
    calls = []
    admit = ChainStore.admit

    def counted(self, *args, **kwargs):
        calls.append(self)
        return admit(self, *args, **kwargs)

    monkeypatch.setattr(ChainStore, "admit", counted)
    reorganizing = 0
    # 90 seeds, not 60: a reorganization offers only the orphans that can
    # enter, and 5 of the first 90 files, 4 of the first 60, orphan one
    for seed in range(90):
        path = tmp_path / f"{seed}.dat"
        path.write_bytes(random_chain_file(seed))
        calls.clear()  # the generating store has a pool
        loaded = _load_either(load, path)
        if isinstance(loaded, ChainFileError):
            continue
        verify_blocks(loaded.store.params, loaded.store.blocks.values())
        assert calls == [] and len(loaded.store.mempool) == 0
        store = loaded.store
        live = ChainStore(PARAMS, store.blocks[store.genesis_hash], Mempool())
        for h in list(store.blocks)[1:]:
            live.append_block(store.blocks[h])
        reorganizing += bool(calls)
    assert reorganizing >= 5


def test_load_rebuilds_a_side_branch_inside_the_checked_prefix_without_signature_checks(
    tmp_path, monkeypatch
):
    """Two blocks, a longer branch that orphans them, then a block on the old
    branch: load rebuilds the old branch's state by reconnecting its two
    blocks.  With the checked-prefix record in place the whole load checks
    no signature, and without it each input's once."""
    params = ChainParams(genesis_allocation=tuple((A_ADDR, 10) for _ in range(6)))
    store = ChainStore(params)
    fund = store.tip.transactions[0].tx_id
    statuses = []

    def pay(parent_hash, index):
        state = store.state_at(parent_hash)
        tx = build_transaction([(fund, index)], [(B_ADDR, 9)], 1, [ALICE], state.utxo)
        block = store.make_candidate(B_ADDR, [tx], index + 1, parent_hash=parent_hash)
        statuses.append(store.append_block(block).status)
        return header_hash(block.header)

    old = pay(pay(store.genesis_hash, 0), 1)
    pay(pay(pay(store.genesis_hash, 2), 3), 4)
    pay(old, 5)
    assert statuses == ["Extended", "Extended", "NewSideBranch", "NewSideBranch",
                        "Reorganized", "NewSideBranch"]
    path = str(tmp_path / "chain.dat")
    persist(store, path)

    checks = []
    uncached = crypto._verify_uncached

    def counted(*args):
        checks.append(args)
        return uncached(*args)

    def load_checks():
        """Real Ed25519 checks of one load, on a cleared signature memo."""
        crypto._verify_memo.clear()
        checks.clear()
        loaded = load(path, params).store
        assert (list(loaded.blocks), loaded.undo) == (list(store.blocks), store.undo)
        assert loaded.states == store.states
        return len(checks)

    monkeypatch.setattr(crypto, "_verify_uncached", counted)
    assert load_checks() == 0
    os.remove(path + ".checked")
    assert load_checks() == 6


# ---------------------------------------------------------------------------
# Hardening: random byte mutations of a valid chain file
# ---------------------------------------------------------------------------

# an undamaged file: 18 records over side branches, with a reorganization
VALID_FILE = random_chain_file(2)


def _reseal(data: bytearray) -> None:
    """Rewrite the checksum of every record the length fields still frame,
    so a mutation inside a record reaches the decoder and the replay."""
    offset = 6
    while offset + 4 <= len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        end = offset + 4 + length
        if end + 4 > len(data):
            return
        data[end : end + 4] = sha256(bytes(data[offset + 4 : end]))[:4]
        offset = end + 4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    flips=st.lists(st.tuples(st.integers(0, len(VALID_FILE) - 1), st.integers(1, 255)),
                   min_size=1, max_size=4),
    cut=st.none() | st.integers(0, len(VALID_FILE)),
    reseal=st.booleans(),
)
def test_mutated_chain_file_fails_to_load_or_verifies_cleanly(flips, cut, reseal):
    """load either raises ChainFileError or returns a store whose
    verify_blocks result is well-formed: Ok with no height or reason, or
    broken at a height with a reason."""
    data = bytearray(VALID_FILE)
    for position, mask in flips:
        data[position] ^= mask
    if cut is not None:
        del data[cut:]
    if reseal:
        _reseal(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.dat")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            loaded = load(path, PARAMS)
        except ChainFileError as exc:
            assert 0 <= exc.offset <= len(data)
            return
    assert loaded.truncated_at is None or 6 <= loaded.truncated_at < len(data)
    result = verify_blocks(loaded.store.params, loaded.store.blocks.values())
    assert type(result) is VerifyResult
    if result.ok:
        assert result.height is None and result.reason is None
    else:
        assert result.ok is False
        assert isinstance(result.height, int) and result.height >= 0
        assert isinstance(result.reason, str) and result.reason


def _record_ends(data: bytes) -> list[int]:
    offset = 6
    ends = []
    while offset < len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4 + length + 4
        ends.append(offset)
    return ends


# Every record of VALID_FILE passes validation, so a checked-prefix record
# may vouch for the file up to the end of any of them; its own, the one over
# the whole file, is the last.  A mutant leaves a shorter prefix intact more
# often, and only then does load skip any signature check.
VALID_CHECKED = [struct.pack(">Q", end) + sha256(VALID_FILE[:end])
                 for end in _record_ends(VALID_FILE)]


def _load_outcome(path):
    """The ChainFileError offset, or the loaded blocks, undo keys, tip,
    truncation offset and verify_blocks result."""
    try:
        loaded = load(path, PARAMS)
    except ChainFileError as exc:
        return exc.offset
    store = loaded.store
    return (list(store.blocks.items()), list(store.undo), store.tip_hash,
            loaded.truncated_at, verify_blocks(store.params, store.blocks.values()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    flips=st.lists(st.tuples(st.integers(0, len(VALID_FILE) - 1), st.integers(1, 255)),
                   min_size=1, max_size=4),
    cut=st.none() | st.integers(0, len(VALID_FILE)),
    reseal=st.booleans(),
    checked=st.sampled_from(VALID_CHECKED),
)
def test_mutated_chain_file_loads_the_same_beside_a_checked_record(flips, cut, reseal, checked):
    """A checked-prefix record of VALID_FILE changes no mutant's outcome:
    the same ChainFileError offset, or the same store and verify_blocks
    result, as with no record beside the file."""
    data = bytearray(VALID_FILE)
    for position, mask in flips:
        data[position] ^= mask
    if cut is not None:
        del data[cut:]
    if reseal:
        _reseal(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.dat")
        with open(path, "wb") as fh:
            fh.write(data)
        alone = _load_outcome(path)
        with open(path + ".checked", "wb") as fh:
            fh.write(checked)
        assert _load_outcome(path) == alone

"""Transactions, UTXO bookkeeping, validation, and the pending pool.

Amounts are integers in a smallest indivisible unit.  A transaction's fee is
the surplus of resolved input value over output value; the block publisher
claims fees through its coinbase.  UtxoSet.apply is the one place a
transaction's inputs are spent and its outputs added, and UtxoSet.revert the
one place they are taken back: the chain store (which walks one set per
node back and forth), block-fee pre-computation and mempool selection go
through the pair, the block verifier and the genesis builder through apply.
The pair also keeps each set's index of spendable outpoints (see UtxoSet).
UtxoSet.install alone writes entries apply did not make in this set: those
another store's apply made for a block whose delta it kept (see chain).
validate_transaction is the one judgement of a transaction, and keeps the
one cache of it: the transaction's last verdict, keyed by the entries of its
inputs, which is all of the state its rules read.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, insort
from enum import IntEnum
from typing import Iterable, NamedTuple

from ._record import field, record, replace
from .crypto import (
    ADDRESS_SIZE,
    CONTRACT_ADDRESS_VERSION,
    Address,
    KeyPair,
    derive_address,
    sha256,
    sign,
    verify,
)

MAX_SUPPLY = 2**62

Outpoint = tuple[bytes, int]


class TxKind(IntEnum):
    TRANSFER = 0
    COINBASE = 1
    STAKE = 2
    CONTRACT_DEPLOY = 3
    CONTRACT_CALL = 4


class TxBuildError(Exception):
    """Raised by build_transaction on unknown outpoints, key mismatch, or
    insufficient funds."""


@record(frozen=True, slots=True)
class TxOutput:
    amount: int
    recipient: Address

    def serialize(self) -> bytes:
        return struct.pack(">Q", self.amount) + self.recipient.to_bytes()


@record(frozen=True, slots=True)
class TxInput:
    source_tx: bytes
    source_index: int
    public_key: bytes
    signature: bytes

    @property
    def outpoint(self) -> Outpoint:
        return (self.source_tx, self.source_index)

    def serialize(self, zero_signature: bool = False) -> bytes:
        sig = b"" if zero_signature else self.signature
        return b"".join(
            (
                self.source_tx,
                struct.pack(">I", self.source_index),
                struct.pack(">I", len(self.public_key)),
                self.public_key,
                struct.pack(">I", len(sig)),
                sig,
            )
        )


@record(frozen=True, slots=True)
class Transaction:
    kind: TxKind
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    payload: bytes = b""
    # what tx_id, outpoints and validate_transaction keep on the instance:
    # outside equality, hashing and repr, and _record.replace starts them afresh
    _tx_id: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _outpoints: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _verdict: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def serialize(self, zero_signatures: bool = False) -> bytes:
        parts = [bytes([self.kind]), struct.pack(">I", len(self.inputs))]
        parts += [i.serialize(zero_signatures) for i in self.inputs]
        parts.append(struct.pack(">I", len(self.outputs)))
        parts += [o.serialize() for o in self.outputs]
        parts.append(struct.pack(">I", len(self.payload)))
        parts.append(self.payload)
        return b"".join(parts)

    @property
    def tx_id(self) -> bytes:
        """sha256 of the canonical bytes with all signatures zeroed.

        Computed on first access and kept in the _tx_id slot: every field
        is immutable, so the id cannot change.
        """
        cached = self._tx_id
        if cached is None:
            cached = sha256(self.serialize(zero_signatures=True))
            object.__setattr__(self, "_tx_id", cached)
        return cached

    @property
    def outpoints(self) -> tuple[Outpoint, ...]:
        """(tx_id, i) for each output i, built on first access and kept in
        the _outpoints slot as tx_id is.  Every node applies the same
        transaction object, so all their UTXO sets key an output with one
        tuple."""
        cached = self._outpoints
        if cached is None:
            tx_id = self.tx_id
            cached = tuple((tx_id, i) for i in range(len(self.outputs)))
            object.__setattr__(self, "_outpoints", cached)
        return cached

    @property
    def output_value(self) -> int:
        return sum(o.amount for o in self.outputs)


def _read(buf: bytes, offset: int, n: int) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise ValueError(f"transaction truncated at byte {offset}")
    return buf[offset : offset + n], offset + n


def deserialize_transaction(buf: bytes, offset: int = 0) -> tuple[Transaction, int]:
    """Parse one canonical transaction; returns (tx, next offset)."""
    raw, offset = _read(buf, offset, 1)
    try:
        kind = TxKind(raw[0])
    except ValueError:
        raise ValueError(f"unknown transaction kind {raw[0]}") from None
    raw, offset = _read(buf, offset, 4)
    inputs = []
    for _ in range(struct.unpack(">I", raw)[0]):
        source_tx, offset = _read(buf, offset, 32)
        raw, offset = _read(buf, offset, 4)
        index = struct.unpack(">I", raw)[0]
        raw, offset = _read(buf, offset, 4)
        public_key, offset = _read(buf, offset, struct.unpack(">I", raw)[0])
        raw, offset = _read(buf, offset, 4)
        signature, offset = _read(buf, offset, struct.unpack(">I", raw)[0])
        inputs.append(TxInput(source_tx, index, public_key, signature))
    raw, offset = _read(buf, offset, 4)
    outputs = []
    for _ in range(struct.unpack(">I", raw)[0]):
        raw, offset = _read(buf, offset, 8)
        amount = struct.unpack(">Q", raw)[0]
        addr, offset = _read(buf, offset, ADDRESS_SIZE)
        outputs.append(TxOutput(amount, Address.from_bytes(addr)))
    raw, offset = _read(buf, offset, 4)
    payload, offset = _read(buf, offset, struct.unpack(">I", raw)[0])
    return Transaction(kind, tuple(inputs), tuple(outputs), payload), offset


# ---------------------------------------------------------------------------
# UTXO set
# ---------------------------------------------------------------------------


@record(frozen=True, slots=True)
class UtxoEntry:
    output: TxOutput
    locked: bool
    created_height: int
    spent_height: int | None = None

    @property
    def live(self) -> bool:
        return self.spent_height is None


class UtxoSet:
    """Map from outpoint to entry.  Spending marks an entry with its
    spent_height and keeps it, so validation can tell a spent input
    (SpentInput) from one that never existed (UnknownInput), and digest()
    covers spent entries as well as live ones.

    _spendable maps each address to the outpoints of this set's live,
    unlocked entries paying it, and to no others, in sorted order: an address
    collects outputs too small to pay with, and spendable_outpoint, scanning
    in order, stops at the first one large enough, which is the lowest.
    """

    def __init__(self, entries: dict[Outpoint, UtxoEntry] | None = None):
        self._entries: dict[Outpoint, UtxoEntry] = dict(entries or {})
        self._spendable: dict[Address, list[Outpoint]] = {}
        for outpoint, entry in sorted(self._entries.items()):
            if entry.live:
                self._list(outpoint, entry)

    def copy(self) -> "UtxoSet":
        twin = UtxoSet.__new__(UtxoSet)
        twin._entries = dict(self._entries)
        twin._spendable = {address: list(ops) for address, ops in self._spendable.items()}
        return twin

    def get(self, outpoint: Outpoint) -> UtxoEntry | None:
        return self._entries.get(outpoint)

    def _list(self, outpoint: Outpoint, entry: UtxoEntry) -> None:
        if not entry.locked:
            insort(self._spendable.setdefault(entry.output.recipient, []), outpoint)

    def _unlist(self, outpoint: Outpoint, entry: UtxoEntry) -> None:
        if not entry.locked:
            outpoints = self._spendable[entry.output.recipient]
            del outpoints[bisect_left(outpoints, outpoint)]

    def add(self, outpoint: Outpoint, output: TxOutput, locked: bool, height: int) -> None:
        if outpoint in self._entries:
            raise ValueError("outpoint already present")
        self._entries[outpoint] = entry = UtxoEntry(output, locked, height)
        self._list(outpoint, entry)

    def spend(self, outpoint: Outpoint, height: int) -> None:
        """Mark a live entry spent."""
        entry = self._entries[outpoint]
        if not entry.live:
            raise ValueError("outpoint already spent")
        self._entries[outpoint] = replace(entry, spent_height=height)
        self._unlist(outpoint, entry)

    def apply(self, tx: Transaction, height: int) -> int:
        """Spend every input and add every output of tx at height (output 0
        of a STAKE is locked); return the fee, 0 for a coinbase.

        Checks no rule: validate_transaction does that.  Raises KeyError for
        an unknown input and ValueError for a spent input, an input named
        twice or an output that is already present, and then leaves the set
        as it was.
        """
        entries = self._entries
        spent = [entries[inp.outpoint] for inp in tx.inputs]  # KeyError: unknown input
        outpoints = tx.outpoints
        if (not all(entry.live for entry in spent)
                or len({inp.outpoint for inp in tx.inputs}) < len(spent)
                or any(outpoint in entries for outpoint in outpoints)):
            raise ValueError("input spent or named twice, or output already present")
        for inp in tx.inputs:
            self.spend(inp.outpoint, height)
        for i, (outpoint, out) in enumerate(zip(outpoints, tx.outputs)):
            self.add(outpoint, out, tx.kind == TxKind.STAKE and i == 0, height)
        value_in = sum(entry.output.amount for entry in spent)
        return 0 if tx.kind == TxKind.COINBASE else value_in - tx.output_value

    def install(self, changed: Iterable[tuple[Outpoint, UtxoEntry]]) -> None:
        """Set each outpoint to its entry, in order, as the apply calls that
        made the entries, run on a set equal to this one, left that set; the
        entries are shared, not copied.  Checks no rule: the caller vouches
        that those apply calls succeeded on an equal set."""
        entries = self._entries
        for outpoint, entry in changed:
            prior = entries.get(outpoint)
            if prior is not None and prior.live:
                self._unlist(outpoint, prior)
            entries[outpoint] = entry
            if entry.live:
                self._list(outpoint, entry)

    def revert(self, tx: Transaction) -> None:
        """Take back apply(tx, ...): remove tx's outputs and make its inputs
        live again.  Transactions are reverted newest first, so none of tx's
        outputs is spent when it is."""
        entries = self._entries
        for outpoint in tx.outpoints:
            self._unlist(outpoint, entries.pop(outpoint))
        for inp in tx.inputs:
            outpoint = inp.outpoint
            entries[outpoint] = entry = replace(entries[outpoint], spent_height=None)
            self._list(outpoint, entry)

    def live_entries(self) -> Iterable[tuple[Outpoint, UtxoEntry]]:
        return ((op, e) for op, e in self._entries.items() if e.live)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UtxoSet) and self._entries == other._entries

    def digest(self) -> bytes:
        """Order-independent state digest over live and spent entries."""
        lines = []
        for (txid, idx), e in sorted(self._entries.items()):
            spent = -1 if e.spent_height is None else e.spent_height
            lines.append(
                txid
                + struct.pack(">IQ", idx, e.output.amount)
                + e.output.recipient.to_bytes()
                + struct.pack(">?qq", e.locked, e.created_height, spent)
            )
        return sha256(b"".join(lines))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@record(frozen=True)
class Validity:
    ok: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


VALID = Validity(True)


def _invalid(reason: str, detail: str = "") -> Validity:
    return Validity(False, reason, detail)


def validate_transaction(
    tx: Transaction, utxo: UtxoSet, allow_locked: bool = False, check_signatures: bool = True
) -> Validity:
    """Check one transaction against a UTXO snapshot.

    Rule order is fixed: format, input existence/lock/spent state, signature,
    owner match, value conservation, duplicate outpoints.  allow_locked is the
    unstake path used when the active consensus model holds no stake.
    check_signatures=False skips the signature rule alone, for a transaction
    whose exact bytes already passed it.

    The rules read the snapshot only through the entries of tx's inputs, so
    tx keeps its last verdict, keyed by the two flags and those entries, and
    a call whose key is equal (UtxoEntry is a frozen value) returns it
    without a walk, whichever caller asks: pool intake and maintenance,
    block assembly and block judgement, on any node.  Like Bitcoin Core's
    script-execution cache, the key is what the rules read, not the state.
    """
    entries = [utxo.get(inp.outpoint) for inp in tx.inputs]
    # a list, not a tuple: the tuples each call frees would pile up on
    # CPython's tuple free lists
    key = [allow_locked, check_signatures, *entries]
    kept = tx._verdict
    if kept is None or kept[0] != key:
        kept = key, _rules(tx, entries, allow_locked, check_signatures)
        object.__setattr__(tx, "_verdict", kept)
    return kept[1]


def _rules(
    tx: Transaction, entries: list[UtxoEntry | None], allow_locked: bool, check_signatures: bool
) -> Validity:
    """validate_transaction's walk, given the entries of tx's inputs."""
    for out in tx.outputs:
        if not 0 <= out.amount <= MAX_SUPPLY:
            return _invalid("BadFormat", "output amount out of range")
    if tx.kind == TxKind.COINBASE:
        if tx.inputs:
            return _invalid("BadFormat", "coinbase must have no inputs")
    elif not tx.inputs:
        return _invalid("BadFormat", "non-coinbase needs at least one input")
    if tx.kind == TxKind.STAKE and not tx.outputs:
        return _invalid("BadFormat", "stake needs a locked output")
    if tx.kind == TxKind.CONTRACT_DEPLOY and not tx.payload:
        return _invalid("BadFormat", "deploy needs bytecode payload")
    if tx.kind == TxKind.CONTRACT_CALL:
        if not tx.outputs:
            return _invalid("BadFormat", "call needs a contract-address output")
        if tx.outputs[0].recipient.version != CONTRACT_ADDRESS_VERSION:
            return _invalid("BadFormat", "call output 0 must target a contract address")
    for inp, entry in zip(tx.inputs, entries):
        reason = ("UnknownInput" if entry is None
                  else "LockedInput" if entry.locked and not allow_locked
                  else None if entry.live else "SpentInput")
        if reason:
            return _invalid(reason, f"{inp.source_tx.hex()[:16]}:{inp.source_index}")
    if check_signatures:
        tx_id = tx.tx_id
        for inp in tx.inputs:
            if not verify(inp.public_key, tx_id, inp.signature):
                return _invalid("BadSignature")
    for inp, entry in zip(tx.inputs, entries):
        if derive_address(inp.public_key) != entry.output.recipient:
            return _invalid("WrongOwner")
    if tx.kind != TxKind.COINBASE:
        value_in = sum(entry.output.amount for entry in entries)
        if value_in < tx.output_value:
            return _invalid("ValueCreated", f"in {value_in} < out {tx.output_value}")
    seen: set[Outpoint] = set()
    for inp in tx.inputs:
        if inp.outpoint in seen:
            return _invalid("DuplicateOutpoint")
        seen.add(inp.outpoint)
    return VALID


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_transaction(
    spend: list[Outpoint],
    pay: list[tuple[Address, int]],
    fee: int,
    keys: list[KeyPair],
    utxo: UtxoSet,
    kind: TxKind = TxKind.TRANSFER,
    payload: bytes = b"",
) -> Transaction:
    """Assemble and sign a transaction spending the given outpoints.

    Any surplus beyond payments and fee goes back to the first spender's
    address as an appended change output.
    """
    if fee < 0:
        raise TxBuildError("negative fee")
    by_address = {derive_address(k.public_key): k for k in keys}
    resolved: list[tuple[Outpoint, KeyPair, int]] = []
    for outpoint in spend:
        entry = utxo.get(outpoint)
        if entry is None or not entry.live:
            raise TxBuildError(f"unknown outpoint {outpoint[0].hex()[:16]}:{outpoint[1]}")
        key = by_address.get(entry.output.recipient)
        if key is None:
            raise TxBuildError(f"key mismatch for {entry.output.recipient.hex()}")
        resolved.append((outpoint, key, entry.output.amount))
    total_in = sum(amount for _, _, amount in resolved)
    total_out = sum(amount for _, amount in pay)
    if total_in < total_out + fee:
        raise TxBuildError(f"insufficient funds: {total_in} < {total_out} + {fee}")
    outputs = [TxOutput(amount, addr) for addr, amount in pay]
    change = total_in - total_out - fee
    if change > 0:
        first_spender = utxo.get(spend[0]).output.recipient
        outputs.append(TxOutput(change, first_spender))
    unsigned = Transaction(
        kind,
        tuple(TxInput(op[0], op[1], key.public_key, b"") for op, key, _ in resolved),
        tuple(outputs),
        payload,
    )
    tx_id = unsigned.tx_id
    signed_inputs = tuple(
        TxInput(op[0], op[1], key.public_key, sign(key, tx_id)) for op, key, _ in resolved
    )
    return Transaction(kind, signed_inputs, tuple(outputs), payload)


def make_coinbase(recipients: list[tuple[Address, int]], height: int) -> Transaction:
    """Reward transaction: no inputs; payload carries the height so coinbase
    ids differ across blocks with identical outputs."""
    outputs = tuple(TxOutput(amount, addr) for addr, amount in recipients)
    return Transaction(TxKind.COINBASE, (), outputs, struct.pack(">Q", height))


class Balance(NamedTuple):
    unlocked: int
    locked_stake: int


def spendable_outpoint(utxo: UtxoSet, address: Address, needed: int) -> Outpoint | None:
    """The lowest live, unlocked outpoint paying address at least needed."""
    entries = utxo._entries
    for outpoint in utxo._spendable.get(address, ()):
        if entries[outpoint].output.amount >= needed:
            return outpoint
    return None


def balance(address: Address, utxo: UtxoSet) -> Balance:
    unlocked = locked = 0
    for _, entry in utxo.live_entries():
        if entry.output.recipient == address:
            if entry.locked:
                locked += entry.output.amount
            else:
                unlocked += entry.output.amount
    return Balance(unlocked, locked)


# ---------------------------------------------------------------------------
# Mempool
# ---------------------------------------------------------------------------


class Mempool:
    """Validated pending transactions, kept by tx_id in arrival order, which
    is the order block assembly reads them in."""

    def __init__(self) -> None:
        self._entries: dict[bytes, Transaction] = {}
        self._claimed: set[Outpoint] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tx_id: bytes) -> bool:
        return tx_id in self._entries

    def add(self, tx: Transaction, utxo: UtxoSet, allow_locked: bool = False) -> Validity:
        if tx.kind == TxKind.COINBASE:
            return _invalid("Coinbase", "coinbase never enters the pool")
        tx_id = tx.tx_id
        if tx_id in self._entries:
            return _invalid("Duplicate")
        v = validate_transaction(tx, utxo, allow_locked)
        if not v:
            return v
        for inp in tx.inputs:
            if inp.outpoint in self._claimed:
                return _invalid("Conflict", "outpoint claimed by a pooled transaction")
        self._entries[tx_id] = tx
        self._claimed.update(inp.outpoint for inp in tx.inputs)
        return VALID

    def _drop(self, tx_id: bytes) -> None:
        tx = self._entries.pop(tx_id, None)
        if tx is not None:
            self._claimed.difference_update(i.outpoint for i in tx.inputs)

    def remove_confirmed(self, txs: Iterable[Transaction]) -> None:
        for tx in txs:
            self._drop(tx.tx_id)

    def drop_conflicting(self, utxo: UtxoSet, allow_locked: bool = False) -> None:
        """Evict entries no longer valid against a new chain state.  Only an
        entry whose inputs' entries changed is walked again (see
        validate_transaction)."""
        for tx_id in [t for t, tx in self._entries.items()
                      if not validate_transaction(tx, utxo, allow_locked)]:
            self._drop(tx_id)

    def take(self, max_bytes: int, utxo: UtxoSet, allow_locked: bool = False) -> list[Transaction]:
        """Select transactions for a block, respecting a serialized-size budget
        and sequential validity (pool entries may chain off each other).
        Each pick is applied to utxo, so that later entries see it, and every
        pick is reverted before returning."""
        picked: list[Transaction] = []
        budget = max_bytes
        try:
            for tx in self._entries.values():
                size = len(tx.serialize())
                if size > budget:
                    continue
                if not validate_transaction(tx, utxo, allow_locked):
                    continue
                utxo.apply(tx, 0)
                picked.append(tx)
                budget -= size
        finally:
            for tx in reversed(picked):
                utxo.revert(tx)
        return picked

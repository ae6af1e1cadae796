"""Pluggable publisher selection and proof validation.

Six models: proof of work (literal hashing against a 256-bit target, plus a
simulated variant for the network simulator's exponential-race production),
chain-based proof of stake, coin-age proof of stake, round robin, proof of
authority, and simulated proof of elapsed time.

Every model except literal PoW proves authorship with a signature over the
header serialized with an empty consensus tag, so even the tip block cannot
be altered silently.  Stochastic selections draw from hash-derived entropy
that any validator can recompute from the parent hash and height.
"""

from __future__ import annotations

import struct
from math import log
from typing import Iterable, Mapping, Sequence

from ._record import record, replace
from .chain import Block, BlockHeader, header_hash
from .crypto import (
    Address,
    KeyPair,
    derive_address,
    sha256,
    sign,
    uniform_from_digest,
    verify,
)
from .ledger import Outpoint, UtxoSet

DEFAULT_POW_TARGET = 1 << (256 - 8)
MAX_TARGET = (1 << 256) - 1

PROOF_PUBKEY_SIZE = 32
PROOF_SIG_SIZE = 64

# selection entropy domains
_POS_TAG = b"PSEL"
_COINAGE_TAG = b"CSEL"
_POA_TAG = b"ASEL"


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@record(frozen=True)
class PowParams:
    target: int = DEFAULT_POW_TARGET
    retarget_interval: int = 16
    target_spacing: int = 10
    simulated: bool = False  # netsim races instead of hashing; proofs are signed

    def __post_init__(self):
        if not 0 < self.target <= MAX_TARGET:
            raise ValueError("target must be a positive 256-bit integer")


@record(frozen=True)
class PosChainParams:
    pass


@record(frozen=True)
class PosCoinAgeParams:
    age_threshold: int = 30
    weight_cap: int = 2**62


@record(frozen=True)
class RoundRobinParams:
    publishers: tuple[Address, ...]

    def __post_init__(self):
        if not self.publishers:
            raise ValueError("round robin needs at least one publisher")


@record(frozen=True)
class PoaParams:
    authorities: Mapping[Address, int]
    r_max: int = 100

    def __post_init__(self):
        if not self.authorities:
            raise ValueError("proof of authority needs at least one authority")
        for addr, rep in self.authorities.items():
            if not 0 <= rep <= self.r_max:
                raise ValueError(f"reputation for {addr.hex()} outside [0, {self.r_max}]")


@record(frozen=True)
class PoetParams:
    publishers: tuple[Address, ...]
    mean_wait: float = 10.0
    seed: int = 0  # stands in for the trusted hardware's attestation key

    def __post_init__(self):
        if not self.publishers:
            raise ValueError("elapsed-time consensus needs at least one publisher")


# ---------------------------------------------------------------------------
# Proof of work
# ---------------------------------------------------------------------------


def pow_check(header: BlockHeader, target: int) -> bool:
    return int.from_bytes(header_hash(header), "big") < target


def pow_mine(
    header_template: BlockHeader, target: int, nonce_start: int = 0, nonce_end: int = 2**32
) -> BlockHeader | None:
    """Scan nonces ascending; return the first header whose hash beats the
    target, or None when the range is exhausted."""
    for nonce in range(nonce_start, nonce_end):
        candidate = replace(header_template, nonce=nonce)
        if pow_check(candidate, target):
            return candidate
    return None


def pow_retarget(recent_headers: Sequence[BlockHeader], params: PowParams) -> int:
    """New target from observed spacing over the window, clamped to a factor
    of 4 per adjustment and to the representable target range."""
    if len(recent_headers) < 2:
        return params.target
    elapsed = recent_headers[-1].timestamp - recent_headers[0].timestamp
    expected = (len(recent_headers) - 1) * params.target_spacing
    old = params.target
    raw = old * max(elapsed, 0) // expected
    raw = max(raw, old // 4, 1)
    raw = min(raw, old * 4, MAX_TARGET)
    return raw


# ---------------------------------------------------------------------------
# Stake views
# ---------------------------------------------------------------------------


@record(frozen=True)
class StakeEntry:
    outpoint: Outpoint
    address: Address
    amount: int
    age: int


def stake_view(
    utxo: UtxoSet, height: int, resets: Mapping[Outpoint, int] | None = None
) -> list[StakeEntry]:
    """Locked live outputs with their ages; a coin-age win bumps the entry's
    effective stake height via the resets map."""
    resets = resets or {}
    entries = []
    for outpoint, entry in utxo.live_entries():
        if not entry.locked:
            continue
        stake_height = max(entry.created_height, resets.get(outpoint, entry.created_height))
        entries.append(
            StakeEntry(outpoint, entry.output.recipient, entry.output.amount, height - stake_height)
        )
    entries.sort(key=lambda e: (e.address.to_bytes(), e.outpoint))
    return entries


def _weighted_pick(weights: list[tuple[Address, int]], rand: float) -> Address | None:
    total = sum(w for _, w in weights)
    if total <= 0:
        return None
    point = rand * total
    cumulative = 0
    for address, weight in weights:
        cumulative += weight
        if point < cumulative:
            return address
    return weights[-1][0]


def _aggregate(pairs: Iterable[tuple[Address, int]]) -> list[tuple[Address, int]]:
    sums: dict[Address, int] = {}
    for address, weight in pairs:
        sums[address] = sums.get(address, 0) + weight
    return sorted(sums.items(), key=lambda kv: kv[0].to_bytes())


def pos_select_chain(stakes: Sequence[StakeEntry], rand: float) -> Address | None:
    """Stake-weighted draw: an address holding 42% of all locked stake wins
    42% of the time."""
    return _weighted_pick(_aggregate((e.address, e.amount) for e in stakes), rand)


def pos_select_coin_age(
    stakes: Sequence[StakeEntry], params: PosCoinAgeParams, rand: float
) -> Address | None:
    """Weight = min(amount x age, cap) for entries at or past the age
    threshold; block validation restarts the age of the winner's."""
    return _weighted_pick(_aggregate(
        (e.address, min(e.amount * e.age, params.weight_cap))
        for e in stakes if e.age >= params.age_threshold
    ), rand)


# ---------------------------------------------------------------------------
# Permissioned models
# ---------------------------------------------------------------------------


def round_robin_publisher(
    params: RoundRobinParams, height: int, live: set[Address] | None = None
) -> Address | None:
    """publishers[height mod n], walking forward past offline entries."""
    n = len(params.publishers)
    for j in range(n):
        candidate = params.publishers[(height + j) % n]
        if live is None or candidate in live:
            return candidate
    return None


def poa_select(params: PoaParams, rand: float) -> Address | None:
    return _weighted_pick(_aggregate(params.authorities.items()), rand)


# ---------------------------------------------------------------------------
# Elapsed time
# ---------------------------------------------------------------------------


@record(frozen=True)
class PoetCertificate:
    node: Address
    draw: float
    draw_index: int
    attestation: bytes

    def serialize(self) -> bytes:
        return struct.pack(">Id", self.draw_index, self.draw) + self.attestation


def _poet_attestation(node: Address, draw_index: int, scenario_seed: int) -> bytes:
    return sha256(node.to_bytes() + struct.pack(">I", draw_index) + struct.pack(">Q", scenario_seed))


def poet_draw(node: Address, draw_index: int, scenario_seed: int, mean_wait: float) -> PoetCertificate:
    """Exponential wait drawn from the attestation hash, which plays the
    secure hardware time source: anyone holding the seed can recheck it."""
    attestation = _poet_attestation(node, draw_index, scenario_seed)
    u = uniform_from_digest(attestation)
    draw = -mean_wait * log(1.0 - u)
    return PoetCertificate(node, draw, draw_index, attestation)


def poet_winner(certificates: Sequence[PoetCertificate]) -> Address | None:
    """Minimum wait wins; ties break toward the lower address."""
    if not certificates:
        return None
    best = min(certificates, key=lambda c: (c.draw, c.node.to_bytes()))
    return best.node


def poet_verify(certificate: PoetCertificate, scenario_seed: int, mean_wait: float) -> bool:
    expected = poet_draw(certificate.node, certificate.draw_index, scenario_seed, mean_wait)
    return (
        certificate.attestation == expected.attestation
        and certificate.draw == expected.draw
    )


def parse_poet_certificate(blob: bytes, node: Address) -> PoetCertificate | None:
    if len(blob) != 12 + 32:
        return None
    draw_index, draw = struct.unpack(">Id", blob[:12])
    return PoetCertificate(node, draw, draw_index, blob[12:])


# ---------------------------------------------------------------------------
# Header proofs
# ---------------------------------------------------------------------------


def selection_rand(domain: bytes, parent_hash: bytes, height: int) -> float:
    """Per-height draw every validator can recompute."""
    return uniform_from_digest(domain + parent_hash + struct.pack(">Q", height))


def expected_publisher(
    params: object, parent_hash: bytes, height: int, stakes: Sequence[StakeEntry] = ()
) -> Address | None:
    """The address entitled to publish at this height, for models where the
    selection is a pure function of chain state."""
    if isinstance(params, PosChainParams):
        return pos_select_chain(stakes, selection_rand(_POS_TAG, parent_hash, height))
    if isinstance(params, PosCoinAgeParams):
        rand = selection_rand(_COINAGE_TAG, parent_hash, height)
        return pos_select_coin_age(stakes, params, rand)
    if isinstance(params, PoaParams):
        return poa_select(params, selection_rand(_POA_TAG, parent_hash, height))
    return None


def make_signed_tag(keypair: KeyPair, header: BlockHeader, extra: bytes = b"") -> bytes:
    base = header.serialize(zero_tag=True)
    return keypair.public_key + sign(keypair, base) + extra


def split_signed_tag(tag: bytes) -> tuple[bytes, bytes, bytes] | None:
    if len(tag) < PROOF_PUBKEY_SIZE + PROOF_SIG_SIZE:
        return None
    pubkey = tag[:PROOF_PUBKEY_SIZE]
    signature = tag[PROOF_PUBKEY_SIZE : PROOF_PUBKEY_SIZE + PROOF_SIG_SIZE]
    return pubkey, signature, tag[PROOF_PUBKEY_SIZE + PROOF_SIG_SIZE :]


def proof_publisher(header: BlockHeader) -> Address | None:
    """Publisher address recovered from a signed consensus tag."""
    parts = split_signed_tag(header.consensus_tag)
    if parts is None:
        return None
    return derive_address(parts[0])


def attach_proof(
    block: Block,
    params: object,
    keypair: KeyPair | None = None,
    poet_cert: PoetCertificate | None = None,
) -> Block | None:
    """Complete a candidate block with its consensus proof.

    Literal PoW mines the nonce against ``params.target``, which a caller
    takes from chain.branch_pow_params; every other model signs the zero-tag
    header bytes (PoET additionally embeds its certificate).
    """
    header = block.header
    if isinstance(params, PowParams) and not params.simulated:
        mined = pow_mine(replace(header, consensus_tag=b""), params.target)
        if mined is None:
            return None
        return Block(mined, block.transactions)
    if keypair is None:
        raise ValueError("signed consensus models need the publisher's keypair")
    extra = b""
    if isinstance(params, PoetParams):
        if poet_cert is None:
            raise ValueError("elapsed-time proofs need a certificate")
        extra = poet_cert.serialize()
    tag = make_signed_tag(keypair, header, extra)
    return Block(replace(header, consensus_tag=tag), block.transactions)


def verify_header_proof(
    params: object, header: BlockHeader, target: int = 0, stake_entries: Sequence[StakeEntry] = ()
) -> tuple[bool, str]:
    """Model-specific proof check used by block validation, given the branch
    state it needs: the current target (PoW) and the parent state's stake
    view (PoS models)."""
    if params is None:
        return True, ""
    if isinstance(params, PowParams) and not params.simulated:
        if header.consensus_tag != b"":
            return False, "PoW header carries a tag"
        if not pow_check(header, target):
            return False, "hash not below target"
        return True, ""

    parts = split_signed_tag(header.consensus_tag)
    if parts is None:
        return False, "malformed consensus tag"
    pubkey, signature, extra = parts
    if not verify(pubkey, header.serialize(zero_tag=True), signature):
        return False, "bad publisher signature"
    publisher = derive_address(pubkey)

    if isinstance(params, PowParams):
        return True, ""  # simulated work: rate is enforced by the race model
    if isinstance(params, (PosChainParams, PosCoinAgeParams, PoaParams)):
        expected = expected_publisher(
            params, header.prev_header_hash, header.height, stake_entries
        )
        role = "authority" if isinstance(params, PoaParams) else "staker"
        if expected is None:
            return False, f"no eligible {role}"
        if publisher != expected:
            return False, f"publisher {publisher.hex()} is not the selected {role}"
        return True, ""
    if isinstance(params, RoundRobinParams):
        if publisher not in params.publishers:
            return False, "publisher not in the rotation"
        return True, ""
    if isinstance(params, PoetParams):
        if publisher not in params.publishers:
            return False, "publisher not in the elapsed-time set"
        cert = parse_poet_certificate(extra, publisher)
        if cert is None:
            return False, "malformed wait certificate"
        if not poet_verify(cert, params.seed, params.mean_wait):
            return False, "wait certificate does not verify"
        return True, ""
    return False, f"unknown consensus params {type(params).__name__}"

"""Cryptographic substrate: hashing, nonce puzzles, keys, signatures, addresses.

Everything here is a pure function of its inputs.  All randomness used
elsewhere in the package flows through :class:`HashStream`, a counter-mode
SHA-256 generator, so that entire simulation runs are reproducible from a
single integer seed.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct
from collections import OrderedDict, deque
from math import log
from typing import Iterable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from ._record import field, record

ADDRESS_PAYLOAD_SIZE = 20
ADDRESS_CHECKSUM_SIZE = 4
ADDRESS_SIZE = 1 + ADDRESS_PAYLOAD_SIZE + ADDRESS_CHECKSUM_SIZE

USER_ADDRESS_VERSION = 0x00
CONTRACT_ADDRESS_VERSION = 0x01


class KeystoreError(Exception):
    pass


def sha256(data: bytes) -> bytes:
    """FIPS 180-4 digest of ``data`` (32 bytes)."""
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Nonce puzzles
# ---------------------------------------------------------------------------


@record(frozen=True)
class PuzzleSolution:
    nonce: int
    digest: bytes
    attempts: int


def _scan(prefix: bytes, difficulty: int, start: int, stop: int):
    """First (nonce, digest) in [start, stop) meeting difficulty, else None."""
    base = hashlib.sha256(prefix)
    half, odd = divmod(difficulty, 2)
    zeros = b"\x00" * half
    for nonce in range(start, stop):
        h = base.copy()
        h.update(b"%d" % nonce)
        d = h.digest()
        if d.startswith(zeros) and (not odd or d[half] < 0x10):
            return nonce, d
    return None


# nonces per chunk; a puzzle answered in the first chunk starts no worker
PUZZLE_CHUNK = 1 << 20
# nonces lie in [0, MAX_NONCE): the scan's end when no end nonce is given
MAX_NONCE = 1 << 63


def _pooled_scan(prefix: bytes, difficulty: int, start: int, stop: int):
    """_scan over [start, stop) in PUZZLE_CHUNK chunks on one spawned worker
    per CPU, two chunks per worker in flight, results read in chunk order.

    If a worker dies, as when spawn cannot re-import the caller's __main__
    (a script read from stdin, or one with no __main__ guard), the pool
    breaks and the chunks not yet read are scanned in this process.
    """
    # imported here: at module level they add about 15 ms and 2.6 MB resident
    # to every start-up (python -X importtime and VmHWM, 2-CPU VM)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = os.cpu_count() or 1
    starts = iter(range(start, stop, PUZZLE_CHUNK))
    window: deque = deque()
    try:
        # spawned, not forked: the caller may have threads
        with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
            found = None
            while found is None:
                while len(window) < 2 * workers and (s := next(starts, None)) is not None:
                    window.append(pool.submit(_scan, prefix, difficulty, s, min(s + PUZZLE_CHUNK, stop)))
                if not window:
                    break
                found = window.popleft().result()
                start = min(start + PUZZLE_CHUNK, stop)  # the first chunk not yet read
            for future in window:
                future.cancel()
            return found
    except BrokenProcessPool:
        return _scan(prefix, difficulty, start, stop)


def solve_string_puzzle(
    prefix: str,
    difficulty: int,
    start_nonce: int = 0,
    end_nonce: int | None = None,
) -> PuzzleSolution | None:
    """Scan nonces ascending until sha256(prefix + str(nonce)) has at least
    ``difficulty`` leading zero hex digits.

    The nonce is rendered as unpadded base-10 ASCII appended to ``prefix``.
    Nonces lie below MAX_NONCE = 2**63, the end when ``end_nonce`` is None;
    a start at or past it, or an end past it, raises ValueError.  Returns
    None when the range is exhausted.  The first PUZZLE_CHUNK nonces are
    scanned in this process.  Only when they hold no answer is the rest of
    the range scanned in ordered chunks of that size by one worker process
    per CPU (_pooled_scan).  Chunk results are read in order and the pool is
    shut down at the first hit, so the answer is always the lowest solving
    nonce in the range, and no worker outlives the call.
    """
    if not 0 <= difficulty <= 64:
        raise ValueError("difficulty must be in [0, 64]")
    if start_nonce < 0:
        raise ValueError("start_nonce must be non-negative")
    if start_nonce >= MAX_NONCE:
        raise ValueError("start_nonce must be below 2**63")
    if end_nonce is not None and end_nonce > MAX_NONCE:
        raise ValueError("end_nonce must be at most 2**63")
    prefix_bytes = prefix.encode()
    stop = end_nonce if end_nonce is not None else MAX_NONCE
    first_stop = min(start_nonce + PUZZLE_CHUNK, stop)
    found = _scan(prefix_bytes, difficulty, start_nonce, first_stop)
    if found is None and first_stop < stop:
        found = _pooled_scan(prefix_bytes, difficulty, first_stop, stop)
    if found is None:
        return None
    nonce, digest = found
    return PuzzleSolution(nonce=nonce, digest=digest, attempts=nonce - start_nonce + 1)


# ---------------------------------------------------------------------------
# Keys and signatures (Ed25519; deterministic by construction)
# ---------------------------------------------------------------------------


@record(frozen=True, slots=True)
class KeyPair:
    seed: bytes
    public_key: bytes
    # what _private_key and _signer_public_key keep on the instance: outside
    # equality, hashing and repr, and _record.replace starts them afresh
    _sk: Ed25519PrivateKey | None = field(default=None, init=False, repr=False, compare=False)
    _spk: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self) -> str:  # never leak the seed in logs
        return f"KeyPair(public_key={self.public_key.hex()})"

    def _private_key(self) -> Ed25519PrivateKey:
        """The signing key built from the seed, on first use, and kept in the
        instance's _sk slot."""
        cached = self._sk
        if cached is None:
            cached = Ed25519PrivateKey.from_private_bytes(self.seed)
            object.__setattr__(self, "_sk", cached)
        return cached

    def _signer_public_key(self) -> bytes:
        """The public key of the signing key, kept in the _spk slot as _sk
        is.  It need not equal the public_key field: a KeyPair can be built
        with a field that does not match its seed."""
        cached = self._spk
        if cached is None:
            cached = self._private_key().public_key().public_bytes_raw()
            object.__setattr__(self, "_spk", cached)
        return cached


def keypair_generate(entropy: bytes) -> KeyPair:
    """Derive a signing key pair from a 32-byte seed.  Same seed, same pair."""
    if len(entropy) != 32:
        raise ValueError("entropy must be exactly 32 bytes")
    pk = Ed25519PrivateKey.from_private_bytes(entropy).public_key().public_bytes_raw()
    return KeyPair(seed=entropy, public_key=pk)


def sign(keypair: KeyPair, message: bytes) -> bytes:
    """Sign sha256(message); deterministic for a given (seed, message).

    The signature is recorded as valid in verify's memo under the public key
    of the private key that made it, which RFC 8032 guarantees it verifies
    under.
    """
    signature = keypair._private_key().sign(sha256(message))
    _remember((keypair._signer_public_key(), bytes(message), signature), True)
    return signature


# Distinct (public key, message, signature) triples whose result verify keeps,
# the oldest dropped first.  Every full node checks the same transactions and
# headers, and each was signed in the same process, so the working set is the
# signatures made or checked while in flight: one pass over the 15 bundled
# scenarios makes 1,338 signatures and verifies 1,294 of them.
VERIFY_CACHE_SIZE = 1 << 14

# an OrderedDict, because a plain dict takes time in proportion to the
# entries deleted before its first live one to find it (11 us against 0.9 us
# per insert into a full memo, 2-CPU VM)
_verify_memo: OrderedDict[tuple[bytes, bytes, bytes], bool] = OrderedDict()


def _remember(key: tuple[bytes, bytes, bytes], result: bool) -> None:
    if key not in _verify_memo and len(_verify_memo) >= VERIFY_CACHE_SIZE:
        _verify_memo.popitem(last=False)
    _verify_memo[key] = result


# distinct public keys whose key object verify keeps: a chain's signatures
# come from a handful of keys (797 checks, one key, in a chain verify of the
# benchmark's 200-block chain)
PUBLIC_KEY_CACHE_SIZE = 1 << 12


@functools.lru_cache(maxsize=PUBLIC_KEY_CACHE_SIZE)
def _public_key_of(public_key: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public_key)


def _verify_uncached(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """The check itself.  The key object of a bytes key comes from a bounded
    memo; a malformed key raises there, and a call that raises stores
    nothing."""
    try:
        pk = (_public_key_of(public_key) if type(public_key) is bytes
              else Ed25519PublicKey.from_public_bytes(public_key))
        pk.verify(signature, sha256(message))
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid for (public_key, message).

    Malformed keys or signatures verify false rather than raising.  When
    all three arguments are bytes, the result is memoised in the process,
    valid or not, in a memo of at most VERIFY_CACHE_SIZE entries that drops
    the oldest first; other types, such as a memoryview, which equals its
    bytes but is refused as a key, are checked without it.  sign records
    each signature it makes there, so a signature made in this process is
    not checked while the memo holds it; a fresh process checks every
    signature.  Verification is a pure function, and a signature always
    verifies under the key that made it, so a hit returns what a fresh check
    would.
    """
    if not (type(public_key) is type(message) is type(signature) is bytes):
        return _verify_uncached(public_key, message, signature)
    key = (public_key, message, signature)
    result = _verify_memo.get(key)
    if result is None:
        result = _verify_uncached(public_key, message, signature)
        _remember(key, result)
    return result


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


@record(frozen=True, order=True, slots=True)
class Address:
    """version byte + 20-byte truncated key hash + 4-byte checksum."""

    version: int
    payload: bytes
    checksum: bytes

    @classmethod
    def make(cls, version: int, payload: bytes) -> "Address":
        if len(payload) != ADDRESS_PAYLOAD_SIZE:
            raise ValueError("payload must be 20 bytes")
        checksum = sha256(bytes([version]) + payload)[:ADDRESS_CHECKSUM_SIZE]
        return cls(version=version, payload=payload, checksum=checksum)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Address":
        """The address raw encodes; ValueError for a wrong length or
        checksum.  Memoised in the process for a bytes raw, keyed by all 25
        bytes, so a decoded chain holds one Address per distinct address."""
        if type(raw) is bytes:
            return _decoded_address(raw)
        return _decoded_address.__wrapped__(raw)

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        return cls.from_bytes(bytes.fromhex(text.removeprefix("0x")))

    def to_bytes(self) -> bytes:
        return bytes([self.version]) + self.payload + self.checksum

    def hex(self) -> str:
        return self.to_bytes().hex()

    def __str__(self) -> str:
        return self.hex()


# (public key, version) pairs whose address derive_address keeps: every node
# checks the owner of each input it validates, from a handful of keys
ADDRESS_CACHE_SIZE = 1 << 12


@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _address_of(public_key: bytes, version: int) -> Address:
    return Address.make(version, sha256(public_key)[:ADDRESS_PAYLOAD_SIZE])


# the encoded addresses Address.from_bytes keeps, least recently used dropped
# first: a chain's outputs pay a handful of addresses (1,794 outputs, 10
# addresses, in the benchmark's 200-block chain).  A call that raises, for a
# wrong length or checksum, stores nothing.
@functools.lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def _decoded_address(raw: bytes) -> Address:
    if len(raw) != ADDRESS_SIZE:
        raise ValueError(f"address must be {ADDRESS_SIZE} bytes")
    addr = Address.make(raw[0], raw[1:21])
    if addr.checksum != raw[21:]:
        raise ValueError("address checksum mismatch")
    return addr


def derive_address(public_key: bytes, version: int = USER_ADDRESS_VERSION) -> Address:
    """public key -> sha256 -> first 20 bytes, wrapped with version+checksum.

    Memoised in the process (least recently used dropped first) for a bytes
    key and an int version; other types, such as an unhashable bytearray,
    are derived without the memo.  An Address is immutable, so it is shared.
    """
    if type(public_key) is bytes and type(version) is int:
        return _address_of(public_key, version)
    return _address_of.__wrapped__(public_key, version)


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------


class HashStream:
    """Counter-mode SHA-256 random stream: sha256(seed || tag || counter).

    Each (seed, tag) pair is an independent stream; no OS entropy is ever
    consumed, so any consumer seeded this way replays identically.  Each
    draw takes the next counter position.  Counter mode can skip ahead:
    ``reserve`` takes a run of positions unhashed, and ``u64(at)`` reads any
    position without moving the counter.
    """

    def __init__(self, seed: int | bytes, tag: str | bytes = ""):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big", signed=False)
        if isinstance(tag, str):
            tag = tag.encode()
        self._prefix = seed + tag
        self._counter = 0

    def u64(self, at=None) -> int:
        """The value at position at (an int), leaving the counter as it is;
        by default, the next position's, which the draw takes."""
        if at is None:
            at = self._counter
            self._counter += 1
        return int.from_bytes(sha256(self._prefix + struct.pack(">Q", at))[:8], "big")

    def reserve(self, n: int) -> int:
        """Take the next n positions, as n draws would, without hashing any;
        return the first."""
        self._counter += n
        return self._counter - n

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.u64() / 2**64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return self.u64() % n

    def expovariate(self, mean: float) -> float:
        """Exponential deviate with the given mean."""
        u = self.random()
        return -mean * log(1.0 - u)

    def bytes(self, n: int = 32) -> bytes:
        out = b""
        while len(out) < n:
            out += sha256(self._prefix + struct.pack(">Q", self._counter))
            self._counter += 1
        return out[:n]


def uniform_from_digest(data: bytes) -> float:
    """Map arbitrary bytes to a uniform float in [0, 1) via one hash."""
    return int.from_bytes(sha256(data)[:8], "big") / 2**64


# ---------------------------------------------------------------------------
# Key store
# ---------------------------------------------------------------------------

KEYSTORE_FORMAT_VERSION = 1


@record
class KeystoreRecord:
    seed: bytes
    address_version: int
    label: str


def save_keystore(path, records: list[KeystoreRecord]) -> None:
    """Plaintext key store: format byte, record count, then records."""
    out = bytearray([KEYSTORE_FORMAT_VERSION])
    out += struct.pack(">I", len(records))
    for rec in records:
        out += struct.pack(">I", len(rec.seed)) + rec.seed
        out.append(rec.address_version)
        label = rec.label.encode()
        out += struct.pack(">I", len(label)) + label
    atomic_write(path, [bytes(out)])


def atomic_write(path, chunks: Iterable[bytes]) -> None:
    """Write chunks to path through a temp file named for this process and a
    rename, so a reader finds the old file or the new one, never part of
    one.  Makes the parent directory if it is missing, and removes the temp
    file if the write fails."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_keystore(path) -> list[KeystoreRecord]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw or raw[0] != KEYSTORE_FORMAT_VERSION:
        raise KeystoreError("unsupported key store format")
    offset = 1
    records = []
    try:
        (count,) = struct.unpack_from(">I", raw, offset)
        offset += 4
        for _ in range(count):
            (n,) = struct.unpack_from(">I", raw, offset)
            offset += 4
            seed = raw[offset : offset + n]
            if len(seed) != n:
                raise KeystoreError(f"truncated key store at offset {offset}")
            if n != 32:
                raise KeystoreError(f"key seed of {n} bytes at offset {offset}, expected 32")
            offset += n
            version = raw[offset]
            offset += 1
            (m,) = struct.unpack_from(">I", raw, offset)
            offset += 4
            label = raw[offset : offset + m]
            if len(label) != m:
                raise KeystoreError(f"truncated key store at offset {offset}")
            label = label.decode()
            offset += m
            records.append(KeystoreRecord(seed=seed, address_version=version, label=label))
    except (struct.error, IndexError):
        raise KeystoreError(f"truncated key store at offset {offset}") from None
    except UnicodeDecodeError:
        raise KeystoreError(f"key label at offset {offset} is not UTF-8") from None
    return records

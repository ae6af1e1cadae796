import hashlib
import struct
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import crypto
from chainsim.crypto import (
    Address,
    HashStream,
    KeystoreError,
    KeystoreRecord,
    PuzzleSolution,
    derive_address,
    keypair_generate,
    load_keystore,
    save_keystore,
    sha256,
    sign,
    solve_string_puzzle,
    uniform_from_digest,
    verify,
    CONTRACT_ADDRESS_VERSION,
    USER_ADDRESS_VERSION,
)

SEED_A = bytes(range(32))
SEED_B = bytes(range(1, 33))


# ---------------------------------------------------------------------------
# sha256
# ---------------------------------------------------------------------------


def test_sha256_known_answers():
    assert sha256(b"1").hex() == "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"
    assert sha256(b"2").hex() == "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35"
    assert sha256(b"").hex() == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert sha256(b"abc").hex() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


@given(st.binary(max_size=256))
def test_sha256_matches_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()


def test_sha256_avalanche():
    rng = HashStream(99, "avalanche")
    weak = 0
    for _ in range(1000):
        msg = bytearray(rng.bytes(32))
        bit = rng.randrange(256)
        base = sha256(bytes(msg))
        msg[bit // 8] ^= 1 << (bit % 8)
        flipped = sha256(bytes(msg))
        diff = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
        if diff < 64:  # 25% of 256 digest bits
            weak += 1
    assert weak == 0


# ---------------------------------------------------------------------------
# string puzzle
# ---------------------------------------------------------------------------


def test_puzzle_zero_difficulty_accepts_first_nonce():
    sol = solve_string_puzzle("anything", 0, 5)
    assert sol == PuzzleSolution(nonce=5, digest=sha256(b"anything5"), attempts=1)


def test_puzzle_not_found_when_range_exhausted():
    assert solve_string_puzzle("blockchain", 6, 0, end_nonce=100) is None


def test_puzzle_small_difficulty():
    sol = solve_string_puzzle("blockchain", 2, 0)
    assert sol.digest.hex().startswith("00")
    assert sol.attempts == sol.nonce + 1
    # no earlier nonce qualifies
    for nonce in range(sol.nonce):
        assert not sha256(b"blockchain%d" % nonce).hex().startswith("00")


def test_puzzle_sharded_scan_matches_single_scan():
    single = solve_string_puzzle("pool", 3, 0)
    # four disjoint sub-ranges; lowest solving nonce must win
    quarter = (single.nonce // 4) + 1
    best = None
    for i in range(4):
        part = solve_string_puzzle("pool", 3, i * quarter, end_nonce=(i + 1) * quarter)
        if part is not None and (best is None or part.nonce < best.nonce):
            best = part
    assert best.nonce == single.nonce
    assert best.digest == single.digest


def test_pooled_puzzle_finds_the_lowest_nonce_and_leaves_no_worker(monkeypatch):
    """Past the first chunk the scan runs in a worker pool, here over
    4,096-nonce chunks: the answer is the serial scan's, and no worker is
    left when the call returns, whether a nonce was found or the range
    ran out."""
    monkeypatch.setattr(crypto, "PUZZLE_CHUNK", 4096)
    sol = solve_string_puzzle("pool", 4, 0)
    assert sol.nonce == 67_883  # in the 17th chunk
    assert (sol.nonce, sol.digest) == crypto._scan(b"pool", 4, 0, 1 << 20)
    assert sol.attempts == sol.nonce + 1
    assert multiprocessing.active_children() == []
    assert solve_string_puzzle("pool", 4, 0, end_nonce=sol.nonce) is None
    assert multiprocessing.active_children() == []


def test_pooled_puzzle_reads_chunks_in_order(monkeypatch):
    """With 256-nonce chunks, answers lie in many chunks that the workers
    finish out of order; the lowest nonce still wins."""
    monkeypatch.setattr(crypto, "PUZZLE_CHUNK", 256)
    for prefix in ("a", "b", "c"):
        sol = solve_string_puzzle(prefix, 3, 300)
        assert (sol.nonce, sol.digest) == crypto._scan(prefix.encode(), 3, 300, 1 << 20)


def test_pooled_puzzle_falls_back_in_process_when_its_workers_die():
    """A script read from stdin cannot be re-imported by a spawned worker, so
    every worker dies at start-up; the scan finishes in the caller's process
    with the same answer instead of hanging."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(crypto.__file__).parent.parent)!r})",
        "from chainsim import crypto",
        "crypto.PUZZLE_CHUNK = 256",
        "print(crypto.solve_string_puzzle('a', 3, 300).nonce)",
    ])
    run = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == crypto._scan(b"a", 3, 300, 1 << 20)[0]


def test_puzzle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_string_puzzle("x", 65, 0)
    with pytest.raises(ValueError):
        solve_string_puzzle("x", 1, -1)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        solve_string_puzzle("x", 0, 2**63)
    with pytest.raises(ValueError, match=r"at most 2\*\*63"):
        solve_string_puzzle("x", 0, 0, end_nonce=2**63 + 1)
    assert solve_string_puzzle("x", 0, 2**63 - 1).nonce == 2**63 - 1


# ---------------------------------------------------------------------------
# keys and signatures
# ---------------------------------------------------------------------------


def test_keypair_deterministic_from_seed():
    assert keypair_generate(SEED_A).public_key == keypair_generate(SEED_A).public_key
    assert keypair_generate(SEED_A).public_key != keypair_generate(SEED_B).public_key


def test_keypair_pinned_vector():
    pair = keypair_generate(b"\x00" * 32)
    assert pair.public_key.hex() == (
        "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"
    )
    # RFC 8032 section 7.1, test 1
    seed = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
    assert keypair_generate(seed).public_key.hex() == (
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    )


def test_sign_builds_the_private_key_once_and_keeps_it_off_equality(monkeypatch):
    real = crypto.Ed25519PrivateKey
    built = []

    class Counting:
        @staticmethod
        def from_private_bytes(raw):
            built.append(raw)
            return real.from_private_bytes(raw)

    fresh = keypair_generate(SEED_A)
    monkeypatch.setattr(crypto, "Ed25519PrivateKey", Counting)
    pair = crypto.KeyPair(SEED_A, fresh.public_key)
    sigs = [sign(pair, message) for message in (b"a", b"b", b"a")]
    assert built == [SEED_A]
    assert sigs[0] == sigs[2] and all(verify(pair.public_key, m, s)
                                      for m, s in zip((b"a", b"b", b"a"), sigs))
    assert pair == fresh and hash(pair) == hash(fresh) and repr(pair) == repr(fresh)


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        keypair_generate(b"\x00" * 31)


def test_sign_verify_roundtrip():
    pair = keypair_generate(SEED_A)
    sig = sign(pair, b"abc")
    assert verify(pair.public_key, b"abc", sig)
    assert sign(pair, b"abc") == sig  # deterministic


def test_verify_rejects_wrong_key_and_mutated_message():
    pair = keypair_generate(SEED_A)
    other = keypair_generate(SEED_B)
    sig = sign(pair, b"abc")
    assert not verify(other.public_key, b"abc", sig)
    assert not verify(pair.public_key, b"abd", sig)


def test_verify_rejects_malformed_signature_without_raising():
    pair = keypair_generate(SEED_A)
    assert not verify(pair.public_key, b"abc", b"")
    assert not verify(pair.public_key, b"abc", b"\x00" * 63)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=80), st.integers(0, 63), st.integers(1, 255))
def test_cached_valid_signature_does_not_leak_to_neighbours(message, index, flip):
    pair = keypair_generate(SEED_A)
    other = keypair_generate(SEED_B)
    sig = sign(pair, message)
    assert verify(pair.public_key, message, sig)
    assert verify(pair.public_key, message, sig)  # now a cache hit
    flipped = bytearray(sig)
    flipped[index] ^= flip
    assert not verify(pair.public_key, message, bytes(flipped))
    assert not verify(pair.public_key, message + b"\x00", sig)
    assert not verify(other.public_key, message, sig)
    assert not verify(pair.public_key, message, sig[:63])
    assert not verify(pair.public_key, message, b"")
    assert not verify(b"", message, sig)
    assert not verify(b"", b"", b"")


def test_cached_invalid_signature_stays_invalid():
    pair = keypair_generate(SEED_A)
    forged = bytes(64)
    assert not verify(pair.public_key, b"abc", forged)
    assert not verify(pair.public_key, b"abc", forged)
    assert verify(pair.public_key, b"abc", sign(pair, b"abc"))


def test_verify_unhashable_arguments_bypass_the_cache_without_raising():
    pair = keypair_generate(SEED_A)
    sig = sign(pair, b"abc")
    assert verify(pair.public_key, bytearray(b"abc"), bytearray(sig))
    assert not verify(pair.public_key, bytearray(b"abd"), bytearray(sig))
    assert not verify(bytearray(pair.public_key), b"abc", sig)  # the key must be bytes
    assert not verify(pair.public_key, [1], sig)


def test_verify_of_a_memoryview_leaves_the_memo_to_the_bytes():
    """A memoryview of the key hashes and compares equal to the key's bytes,
    so a verdict memoised under it would answer for the bytes too."""
    pair = keypair_generate(SEED_A)
    sig = sign(pair, b"abc")
    crypto._verify_memo.pop((pair.public_key, b"abc", sig))
    verify(memoryview(pair.public_key), b"abc", sig)
    assert verify(pair.public_key, b"abc", sig)


def test_verify_builds_one_key_object_per_key_and_keeps_no_malformed_one(monkeypatch):
    real = crypto.Ed25519PublicKey
    built = []

    class Counting:
        @staticmethod
        def from_public_bytes(raw):
            built.append(raw)
            return real.from_public_bytes(raw)

    pair = keypair_generate(SEED_A)
    messages = (b"a", b"b", b"c")
    sigs = [sign(pair, m) for m in messages]
    crypto._verify_memo.clear()
    crypto._public_key_of.cache_clear()
    monkeypatch.setattr(crypto, "Ed25519PublicKey", Counting)
    assert all(verify(pair.public_key, m, s) for m, s in zip(messages, sigs))
    assert not verify(pair.public_key, b"d", sigs[0])
    assert built == [pair.public_key]
    for malformed in (b"", pair.public_key[:31], pair.public_key + b"\x00"):
        built.clear()
        assert not verify(malformed, b"a", sigs[0])
        assert not crypto._verify_uncached(malformed, b"a", sigs[0])
        assert built == [malformed, malformed]  # asked twice, kept neither time
    info = crypto._public_key_of.cache_info()
    assert (info.currsize, info.maxsize) == (1, crypto.PUBLIC_KEY_CACHE_SIZE)


def test_verify_rejects_random_byte_strings():
    pair = keypair_generate(SEED_A)
    rng = HashStream(7, "nonsig")
    for _ in range(1000):
        assert not verify(pair.public_key, b"abc", rng.bytes(64))


def _flip(raw: bytes, index: int) -> bytes:
    out = bytearray(raw)
    out[index % len(out)] ^= 0x01
    return bytes(out)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=1, max_size=80),
       st.integers(0, 255))
def test_sign_records_only_its_own_signature_as_valid(seed, message, index):
    pair = keypair_generate(seed)
    sig = sign(pair, message)
    assert verify(pair.public_key, message, sig)
    crypto._verify_memo.clear()
    assert verify(pair.public_key, message, sig)  # a real check

    # a one-byte flip is another triple, checked for real right after signing
    sig = sign(pair, message)
    assert not verify(pair.public_key, message, _flip(sig, index))
    assert not verify(pair.public_key, _flip(message, index), sig)
    assert not verify(_flip(pair.public_key, index), message, sig)

    # recorded under the key that signed, not the field it was built with
    mismatched = crypto.KeyPair(seed, keypair_generate(_flip(seed, index)).public_key)
    assert not verify(mismatched.public_key, message, sign(mismatched, message))


def test_verify_of_a_signature_signed_in_the_process_runs_no_check(monkeypatch):
    checks = []
    uncached = crypto._verify_uncached
    monkeypatch.setattr(crypto, "_verify_uncached",
                        lambda *args: checks.append(args) or uncached(*args))
    crypto._verify_memo.clear()
    pair = keypair_generate(SEED_A)
    sig = sign(pair, bytearray(b"abc"))  # recorded under the message's bytes
    assert verify(pair.public_key, b"abc", sig) and checks == []
    assert not verify(pair.public_key, b"abd", sig) and len(checks) == 1
    assert not verify(pair.public_key, b"abd", sig) and len(checks) == 1


def test_memo_holds_at_most_verify_cache_size_entries_oldest_dropped_first(monkeypatch):
    monkeypatch.setattr(crypto, "VERIFY_CACHE_SIZE", 4)
    crypto._verify_memo.clear()
    pair = keypair_generate(SEED_A)
    messages = [b"%d" % i for i in range(10)]
    sigs = [sign(pair, m) for m in messages]
    assert len(crypto._verify_memo) == 4
    for m, sig in zip(messages, sigs):
        assert verify(pair.public_key, m, sig)
        assert not verify(pair.public_key, m, bytes(64))
        assert len(crypto._verify_memo) <= 4
    assert list(crypto._verify_memo.items()) == [
        ((pair.public_key, messages[8], sigs[8]), True),
        ((pair.public_key, messages[8], bytes(64)), False),
        ((pair.public_key, messages[9], sigs[9]), True),
        ((pair.public_key, messages[9], bytes(64)), False),
    ]


# ---------------------------------------------------------------------------
# addresses
# ---------------------------------------------------------------------------


def test_address_deterministic_and_pinned():
    pair = keypair_generate(b"\x00" * 32)
    addr = derive_address(pair.public_key)
    assert addr == derive_address(pair.public_key)
    payload = sha256(pair.public_key)[:20]
    assert addr.to_bytes()[0] == USER_ADDRESS_VERSION
    assert addr.to_bytes()[1:21] == payload
    assert addr.hex() == Address.make(USER_ADDRESS_VERSION, payload).hex()


def test_address_checksum_detects_any_single_hex_corruption():
    addr = derive_address(keypair_generate(SEED_A).public_key)
    text = addr.hex()
    for pos in range(len(text)):
        for repl in "0123456789abcdef":
            if repl == text[pos]:
                continue
            corrupted = text[:pos] + repl + text[pos + 1 :]
            with pytest.raises(ValueError):
                Address.from_hex(corrupted)


def test_contract_version_changes_address():
    pair = keypair_generate(SEED_A)
    a0 = derive_address(pair.public_key, USER_ADDRESS_VERSION)
    a1 = derive_address(pair.public_key, CONTRACT_ADDRESS_VERSION)
    assert a0 != a1
    assert a1.to_bytes()[0] == CONTRACT_ADDRESS_VERSION


def test_address_of_a_bytearray_or_memoryview_key_equals_the_bytes_key():
    key = keypair_generate(SEED_A).public_key
    expected = derive_address(key)
    for other in (bytearray(key), memoryview(key)):
        assert derive_address(other) == expected
        assert derive_address(other, CONTRACT_ADDRESS_VERSION) == derive_address(
            key, CONTRACT_ADDRESS_VERSION
        )


def test_decoded_address_memo_keeps_one_object_per_encoding_and_no_failure():
    addr = derive_address(keypair_generate(SEED_A).public_key)
    raw = addr.to_bytes()
    crypto._decoded_address.cache_clear()
    first = Address.from_bytes(raw)
    assert first == addr and Address.from_bytes(bytes(bytearray(raw))) is first
    assert Address.from_bytes(bytearray(raw)) == addr  # decoded without the memo
    for bad in (raw[:-1] + bytes([raw[-1] ^ 1]), raw[:-1], raw + b"\x00"):
        with pytest.raises(ValueError):
            Address.from_bytes(bad)
    info = crypto._decoded_address.cache_info()
    assert (info.currsize, info.maxsize) == (1, crypto.ADDRESS_CACHE_SIZE)


def test_address_memo_is_bounded_and_answers_as_a_fresh_derivation():
    memo = crypto._address_of
    memo.cache_clear()
    keys = [i.to_bytes(32, "big") for i in range(crypto.ADDRESS_CACHE_SIZE + 10)]
    for key in keys:
        derive_address(key)
    info = memo.cache_info()
    assert info.maxsize == crypto.ADDRESS_CACHE_SIZE
    assert info.currsize == crypto.ADDRESS_CACHE_SIZE and info.hits == 0
    for key in (keys[0], keys[-1]):
        assert derive_address(key) == Address.make(USER_ADDRESS_VERSION, sha256(key)[:20])
    assert memo.cache_info().hits == 1  # keys[0] was dropped, keys[-1] kept
    assert memo.cache_info().currsize == crypto.ADDRESS_CACHE_SIZE


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32), st.binary(max_size=8), st.integers(0, 40))
def test_hashstream_u64_at_reads_the_ith_draw_and_leaves_the_counter(seed, tag, i):
    sequential, indexed = HashStream(seed, tag), HashStream(seed, tag)
    draws = [sequential.u64() for _ in range(i + 1)]
    assert indexed.u64(at=i) == draws[i]
    assert indexed._counter == 0
    # reserve takes positions without hashing them, as draws would
    assert indexed.reserve(i) == 0 and indexed._counter == i
    assert indexed.u64() == draws[i] and indexed._counter == sequential._counter


def test_hashstream_replays_identically():
    a = [HashStream(42, "x").u64() for _ in range(5)]
    b = [HashStream(42, "x").u64() for _ in range(5)]
    assert a == b
    assert [HashStream(42, "y").u64() for _ in range(5)] != a


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=2**32))
def test_hashstream_randrange_in_bounds(n, seed):
    assert 0 <= HashStream(seed, "r").randrange(n) < n


@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=64))
def test_uniform_from_digest_in_unit_interval(data):
    u = uniform_from_digest(data)
    assert 0.0 <= u < 1.0


def test_expovariate_mean_roughly_matches():
    rng = HashStream(5, "exp")
    draws = [rng.expovariate(10.0) for _ in range(5000)]
    mean = sum(draws) / len(draws)
    assert 9.0 < mean < 11.0
    assert all(d >= 0 for d in draws)


# ---------------------------------------------------------------------------
# key store
# ---------------------------------------------------------------------------


def test_keystore_roundtrip(tmp_path):
    path = tmp_path / "keys.dat"
    records = [
        KeystoreRecord(SEED_A, USER_ADDRESS_VERSION, "alice"),
        KeystoreRecord(SEED_B, USER_ADDRESS_VERSION, "bob"),
    ]
    save_keystore(path, records)
    assert load_keystore(path) == records


def test_keystore_rejects_corrupt_file(tmp_path):
    path = tmp_path / "keys.dat"
    save_keystore(path, [KeystoreRecord(SEED_A, USER_ADDRESS_VERSION, "a")])
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF  # format version byte
    path.write_bytes(bytes(raw))
    with pytest.raises(KeystoreError):
        load_keystore(path)


def test_keystore_rejects_truncated_file(tmp_path):
    path = tmp_path / "keys.dat"
    save_keystore(path, [KeystoreRecord(SEED_A, USER_ADDRESS_VERSION, "a")])
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(KeystoreError):
        load_keystore(path)


@pytest.mark.parametrize("raw", [
    b"\x01",  # no record count
    b"\x01" + struct.pack(">II", 1, 5) + bytes(5) + b"\x00" + struct.pack(">I", 1) + b"a",
    b"\x01" + struct.pack(">II", 1, 32) + bytes(32) + b"\x00" + struct.pack(">I", 1) + b"\xff",
    b"\x01" + struct.pack(">II", 1, 32) + bytes(32) + b"\x00" + struct.pack(">I", 5) + b"ab",
], ids=["count", "seed-length", "label-not-utf8", "label-truncated"])
def test_keystore_rejects_malformed_records(tmp_path, raw):
    """The first three once escaped as struct.error, a ValueError from
    keypair_generate, or UnicodeDecodeError; the last loaded as label "ab"."""
    path = tmp_path / "keys.dat"
    path.write_bytes(raw)
    with pytest.raises(KeystoreError):
        load_keystore(path)

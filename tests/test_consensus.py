from chainsim._record import replace

import pytest

from chainsim.chain import (
    Block,
    ChainParams,
    ChainStore,
    EXTENDED,
    REJECTED,
    BlockHeader,
    header_hash,
    make_genesis,
)
from chainsim.consensus import (
    PoaParams,
    PoetParams,
    PosChainParams,
    PosCoinAgeParams,
    PowParams,
    RoundRobinParams,
    StakeEntry,
    attach_proof,
    expected_publisher,
    parse_poet_certificate,
    poa_select,
    poet_draw,
    poet_verify,
    poet_winner,
    pos_select_chain,
    pos_select_coin_age,
    pow_check,
    pow_mine,
    pow_retarget,
    proof_publisher,
    round_robin_publisher,
    selection_rand,
    stake_view,
    verify_header_proof,
)
from chainsim.crypto import Address, HashStream, derive_address, keypair_generate
from chainsim.ledger import Mempool

KEY_A = keypair_generate(bytes(range(32)))
KEY_B = keypair_generate(bytes(range(1, 33)))
KEY_C = keypair_generate(bytes(range(2, 34)))
ADDR_A = derive_address(KEY_A.public_key)
ADDR_B = derive_address(KEY_B.public_key)
ADDR_C = derive_address(KEY_C.public_key)


def template(height=1, prev=b"\x11" * 32) -> BlockHeader:
    return BlockHeader(height, prev, b"\x22" * 32, 7, 0, 0, 0)


def stakes(*pairs: tuple[Address, int], age=0) -> list[StakeEntry]:
    return [
        StakeEntry((bytes([i]) * 32, 0), addr, amount, age)
        for i, (addr, amount) in enumerate(pairs)
    ]


# ---------------------------------------------------------------------------
# proof of work
# ---------------------------------------------------------------------------


def test_maximal_target_accepts_first_nonce():
    mined = pow_mine(template(), (1 << 256) - 1, 0)
    assert mined.nonce == 0
    assert pow_check(mined, (1 << 256) - 1)


def test_mine_at_desk_difficulty_verifies():
    target = 1 << (256 - 16)
    mined = pow_mine(template(), target, 0)
    assert mined is not None
    assert pow_check(mined, target)
    assert int.from_bytes(header_hash(mined), "big") < target
    # exhausted range reports no solution
    assert pow_mine(template(), 1, 0, nonce_end=50) is None


def test_failed_pow_header_rejected_by_block_validation():
    target = 1 << (256 - 12)
    params = ChainParams(consensus=PowParams(target=target))
    store = ChainStore(params, mempool=Mempool())
    candidate = store.make_candidate(ADDR_A, [], 1)
    mined = attach_proof(candidate, params.consensus)
    bad = Block(replace(mined.header, nonce=mined.header.nonce + 1), mined.transactions)
    if pow_check(bad.header, target):  # vanishingly unlikely at 12 bits
        bad = Block(replace(mined.header, nonce=mined.header.nonce + 2), mined.transactions)
    result = store.append_block(bad)
    assert result.status == REJECTED
    assert result.reason == "Consensus"
    assert store.append_block(mined).status == EXTENDED


def test_retarget_ratios_and_clamps():
    params = PowParams(target=1 << 200, retarget_interval=4, target_spacing=10)

    def window(spacings):
        headers = [template(height=i, prev=bytes(32)) for i in range(len(spacings) + 1)]
        t = 0
        out = [replace(headers[0], timestamp=0)]
        for h, gap in zip(headers[1:], spacings):
            t += gap
            out.append(replace(h, timestamp=t))
        return out

    assert pow_retarget(window([10, 10, 10, 10]), params) == 1 << 200
    assert pow_retarget(window([5, 5, 5, 5]), params) == (1 << 200) // 2
    assert pow_retarget(window([20, 20, 20, 20]), params) == (1 << 200) * 2
    # clamped at 4x either way
    assert pow_retarget(window([1, 0, 0, 0]), params) == (1 << 200) // 4
    assert pow_retarget(window([500, 500, 500, 500]), params) == (1 << 200) * 4
    # degenerate window
    assert pow_retarget(window([]), params) == 1 << 200


def test_pow_pass_rate_tracks_target():
    rng = HashStream(3, "pow-rate")
    target_hi = 1 << 248
    target_lo = 1 << 247
    hi = lo = 0
    trials = 20000
    for _ in range(trials):
        header = replace(template(), nonce=rng.u64())
        value = int.from_bytes(header_hash(header), "big")
        hi += value < target_hi
        lo += value < target_lo
    # P(pass) = target / 2^256: expect ~78 and ~39 here
    expected_hi = trials * target_hi / (1 << 256)
    assert abs(hi - expected_hi) <= 3 * (expected_hi ** 0.5)
    expected_lo = expected_hi / 2
    assert abs(lo - expected_lo) <= 3 * (expected_lo ** 0.5)


# ---------------------------------------------------------------------------
# proof of stake
# ---------------------------------------------------------------------------


def test_single_staker_always_selected():
    entries = stakes((ADDR_A, 7))
    for u in (0.0, 0.5, 0.999):
        assert pos_select_chain(entries, u) == ADDR_A


def test_zero_stake_never_selected_and_empty_is_none():
    entries = stakes((ADDR_A, 0), (ADDR_B, 5))
    rng = HashStream(1, "pos-zero")
    assert all(pos_select_chain(entries, rng.random()) == ADDR_B for _ in range(500))
    assert pos_select_chain([], 0.5) is None
    assert pos_select_chain(stakes((ADDR_A, 0)), 0.5) is None


def test_stake_split_42_58_selection_frequency():
    entries = stakes((ADDR_A, 42), (ADDR_B, 58))
    rng = HashStream(2024, "pos-42")
    wins = sum(pos_select_chain(entries, rng.random()) == ADDR_A for _ in range(10000))
    assert abs(wins - 4200) <= 150  # 3 sigma


def test_selection_invariant_under_stake_scaling():
    base = stakes((ADDR_A, 42), (ADDR_B, 58))
    scaled = stakes((ADDR_A, 4200), (ADDR_B, 5800))
    rng1, rng2 = HashStream(5, "scale"), HashStream(5, "scale")
    for _ in range(2000):
        assert pos_select_chain(base, rng1.random()) == pos_select_chain(scaled, rng2.random())


def test_coin_age_threshold_and_reset_flow():
    """Only a stake at or past the age threshold can win, and a store that
    accepts the winner's block restarts the age of the winner's ripe stake,
    and of no other."""
    params = PosCoinAgeParams(age_threshold=30, weight_cap=10**9)
    assert pos_select_coin_age(stakes((ADDR_A, 10), age=10), params, 0.5) is None
    assert pos_select_coin_age(stakes((ADDR_A, 10), age=30), params, 0.5) == ADDR_A

    allocation = ((ADDR_A, 10), (ADDR_B, 10))
    chain_params = ChainParams(genesis_allocation=allocation,
                               consensus=PosCoinAgeParams(age_threshold=1, weight_cap=10**9))
    store = ChainStore(chain_params, make_genesis(chain_params, [(0, KEY_A, 10), (1, KEY_B, 10)]))
    ripe = stake_view(store.tip_state().utxo, 1)
    assert [entry.age for entry in ripe] == [1, 1]
    winner = expected_publisher(chain_params.consensus, store.genesis_hash, 1, ripe)
    block = attach_proof(store.make_candidate(winner, [], 1), chain_params.consensus,
                         keypair=KEY_A if winner == ADDR_A else KEY_B)
    assert store.append_block(block).status == EXTENDED
    [won] = [entry.outpoint for entry in ripe if entry.address == winner]
    assert store.tip_state().stake_resets == {won: 1}


def test_coin_age_weight_is_amount_times_age():
    params = PosCoinAgeParams(age_threshold=1, weight_cap=10**9)
    entries = [
        StakeEntry((b"\x01" * 32, 0), ADDR_A, 10, 60),
        StakeEntry((b"\x02" * 32, 0), ADDR_B, 10, 30),
    ]
    rng = HashStream(7, "coinage")
    wins_a = sum(
        pos_select_coin_age(entries, params, rng.random()) == ADDR_A
        for _ in range(10000)
    )
    # weights 600 vs 300: expect 2/3, sigma = sqrt(n p q) ~ 47
    assert abs(wins_a - 6667) <= 3 * 47 + 1


def test_coin_age_weight_cap_equalizes():
    params = PosCoinAgeParams(age_threshold=1, weight_cap=300)
    entries = [
        StakeEntry((b"\x01" * 32, 0), ADDR_A, 10, 60),  # uncapped 600 -> 300
        StakeEntry((b"\x02" * 32, 0), ADDR_B, 10, 30),  # 300
    ]
    rng = HashStream(8, "coinage-cap")
    wins_a = sum(
        pos_select_coin_age(entries, params, rng.random()) == ADDR_A
        for _ in range(10000)
    )
    assert abs(wins_a - 5000) <= 150


# ---------------------------------------------------------------------------
# round robin
# ---------------------------------------------------------------------------


def test_round_robin_rotation():
    params = RoundRobinParams(publishers=(ADDR_A, ADDR_B, ADDR_C))
    order = [round_robin_publisher(params, h) for h in range(4)]
    assert order == [ADDR_A, ADDR_B, ADDR_C, ADDR_A]


def test_round_robin_skips_offline():
    params = RoundRobinParams(publishers=(ADDR_A, ADDR_B, ADDR_C))
    live = {ADDR_A, ADDR_C}
    assert round_robin_publisher(params, 1, live) == ADDR_C
    assert round_robin_publisher(params, 4, {ADDR_C}) == ADDR_C
    assert round_robin_publisher(params, 2, set()) is None


def test_round_robin_needs_publishers():
    with pytest.raises(ValueError):
        RoundRobinParams(publishers=())


# ---------------------------------------------------------------------------
# proof of authority
# ---------------------------------------------------------------------------


def test_poa_weighted_selection_and_zero_reputation():
    params = PoaParams(authorities={ADDR_A: 75, ADDR_B: 25, ADDR_C: 0})
    rng = HashStream(11, "poa")
    counts = {ADDR_A: 0, ADDR_B: 0, ADDR_C: 0}
    for _ in range(10000):
        counts[poa_select(params, rng.random())] += 1
    assert counts[ADDR_C] == 0
    assert abs(counts[ADDR_A] - 7500) <= 3 * 43 + 1  # sigma = sqrt(n*.75*.25)


def test_poa_select_needs_a_positive_reputation():
    assert poa_select(PoaParams(authorities={ADDR_A: 0}), 0.3) is None


def test_poa_proof_requires_selected_authority():
    params = PoaParams(authorities={ADDR_A: 50, ADDR_B: 50})
    header = template()
    chosen = expected_publisher(params, header.prev_header_hash, header.height)
    chosen_key = KEY_A if chosen == ADDR_A else KEY_B
    other_key = KEY_B if chosen == ADDR_A else KEY_A

    good = attach_proof(Block(header, ()), params, keypair=chosen_key)
    assert verify_header_proof(params, good.header) == (True, "")
    bad = attach_proof(Block(header, ()), params, keypair=other_key)
    ok, why = verify_header_proof(params, bad.header)
    assert not ok and "selected authority" in why
    nobody = PoaParams(authorities={ADDR_A: 0})
    ok, why = verify_header_proof(nobody, good.header)
    assert not ok and "no eligible authority" in why


# ---------------------------------------------------------------------------
# elapsed time
# ---------------------------------------------------------------------------


def test_poet_draw_deterministic_and_verifiable():
    cert = poet_draw(ADDR_A, 0, 99, 8.0)
    again = poet_draw(ADDR_A, 0, 99, 8.0)
    assert cert == again
    assert cert.draw >= 0
    assert poet_verify(cert, 99, 8.0)
    assert not poet_verify(replace(cert, draw=cert.draw / 2), 99, 8.0)  # cheater
    assert not poet_verify(cert, 100, 8.0)  # wrong seed


def test_poet_winner_min_and_tie_break():
    a = poet_draw(ADDR_A, 0, 1, 8.0)
    b = poet_draw(ADDR_B, 0, 1, 8.0)
    expected = a if (a.draw, a.node.to_bytes()) < (b.draw, b.node.to_bytes()) else b
    assert poet_winner([a, b]) == expected.node
    assert poet_winner([]) is None

    tied = [replace(a, draw=5.0), replace(b, draw=5.0)]
    low = min(ADDR_A, ADDR_B, key=lambda x: x.to_bytes())
    assert poet_winner(tied) == low


def test_poet_certificate_wire_roundtrip():
    cert = poet_draw(ADDR_B, 3, 42, 8.0)
    parsed = parse_poet_certificate(cert.serialize(), ADDR_B)
    assert parsed == cert
    assert parse_poet_certificate(cert.serialize()[:-1], ADDR_B) is None


def test_poet_draws_average_near_mean_wait():
    mean = 8.0
    draws = [poet_draw(ADDR_A, i, 7, mean).draw for i in range(4000)]
    avg = sum(draws) / len(draws)
    assert abs(avg - mean) < 3 * mean / (len(draws) ** 0.5) + 0.3


# ---------------------------------------------------------------------------
# header proofs end to end
# ---------------------------------------------------------------------------


def test_selection_rand_is_replayable_and_varies():
    r1 = selection_rand(b"TAG", b"\x01" * 32, 5)
    assert r1 == selection_rand(b"TAG", b"\x01" * 32, 5)
    assert r1 != selection_rand(b"TAG", b"\x01" * 32, 6)
    assert 0.0 <= r1 < 1.0


def test_signed_tag_proof_roundtrip_and_forgery():
    params = RoundRobinParams(publishers=(ADDR_A, ADDR_B))
    genesis = make_genesis(ChainParams())
    block = Block(template(prev=header_hash(genesis.header)), ())
    proven = attach_proof(block, params, keypair=KEY_A)
    assert proof_publisher(proven.header) == ADDR_A
    ok, _ = verify_header_proof(params, proven.header)
    assert ok

    outsider = attach_proof(block, params, keypair=KEY_C)
    ok, why = verify_header_proof(params, outsider.header)
    assert not ok and "rotation" in why

    # altering any header field invalidates the signature
    tampered = replace(proven.header, timestamp=proven.header.timestamp + 1)
    ok, why = verify_header_proof(params, tampered)
    assert not ok and "signature" in why


def test_pos_proof_requires_selected_staker():
    params = PosChainParams()
    entries = stakes((ADDR_A, 42), (ADDR_B, 58))
    header = template()
    chosen = expected_publisher(params, header.prev_header_hash, header.height, entries)
    chosen_key = KEY_A if chosen == ADDR_A else KEY_B
    other_key = KEY_B if chosen == ADDR_A else KEY_A

    good = attach_proof(Block(header, ()), params, keypair=chosen_key)
    ok, _ = verify_header_proof(params, good.header, stake_entries=entries)
    assert ok

    bad = attach_proof(Block(header, ()), params, keypair=other_key)
    ok, why = verify_header_proof(params, bad.header, stake_entries=entries)
    assert not ok and "selected staker" in why


def test_poet_proof_carries_certificate():
    params = PoetParams(publishers=(ADDR_A, ADDR_B), mean_wait=8.0, seed=55)
    header = template()
    cert = poet_draw(ADDR_A, 0, 55, 8.0)
    proven = attach_proof(Block(header, ()), params, keypair=KEY_A, poet_cert=cert)
    ok, _ = verify_header_proof(params, proven.header)
    assert ok

    forged = poet_draw(ADDR_A, 0, 56, 8.0)  # wrong seed commitment
    fake = attach_proof(Block(header, ()), params, keypair=KEY_A, poet_cert=forged)
    ok, why = verify_header_proof(params, fake.header)
    assert not ok and "certificate" in why


def test_simulated_pow_uses_signed_tags():
    params = PowParams(target=1 << 240, simulated=True)
    proven = attach_proof(Block(template(), ()), params, keypair=KEY_B)
    assert proof_publisher(proven.header) == ADDR_B
    ok, _ = verify_header_proof(params, proven.header, target=1 << 240)
    assert ok


def test_literal_pow_rejects_tagged_headers():
    params = PowParams(target=(1 << 256) - 1)
    tagged = replace(template(), consensus_tag=b"x")
    ok, why = verify_header_proof(params, tagged, target=params.target)
    assert not ok and "tag" in why


def test_pow_params_validation():
    with pytest.raises(ValueError):
        PowParams(target=0)
    with pytest.raises(ValueError):
        PowParams(target=1 << 256)
    with pytest.raises(ValueError):
        PoaParams(authorities={})
    with pytest.raises(ValueError):
        PoetParams(publishers=(), mean_wait=1.0, seed=0)

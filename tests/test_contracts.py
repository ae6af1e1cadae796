import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.crypto import HashStream, derive_address, keypair_generate, sha256
from chainsim.contracts import (
    BytecodeError,
    AsmError,
    GAS_COST,
    GAS_PER_FEE_UNIT,
    MNEMONICS,
    OK,
    OP_ADD,
    OP_EMIT,
    OP_HALT,
    OP_JMP,
    OP_LOAD,
    OP_PUSH,
    OP_STORE,
    OUT_OF_GAS,
    TRAP,
    WORD_MASK,
    assemble,
    clone_registry,
    deploy_count,
    derive_contract_address,
    encode_bytecode,
    encode_call_payload,
    execute,
    parse_bytecode,
    parse_call_payload,
    registry_call,
    registry_deploy,
)

CREATOR = derive_address(keypair_generate(bytes(range(32))).public_key)

COUNTER = encode_bytecode(
    [(OP_PUSH, 0), (OP_LOAD, None), (OP_PUSH, 1), (OP_ADD, None), (OP_PUSH, 0), (OP_STORE, None)]
)

ADDER = encode_bytecode(
    [(OP_PUSH, 2), (OP_PUSH, 3), (OP_ADD, None), (OP_EMIT, None), (OP_HALT, None)]
)


# ---------------------------------------------------------------------------
# execution semantics
# ---------------------------------------------------------------------------


def test_add_emit_program():
    result = execute(ADDER, (), {}, 10)
    assert result.status == OK
    assert result.output == (5,)
    assert result.gas_used == 5


def test_infinite_loop_burns_exactly_the_limit():
    loop = encode_bytecode([(OP_JMP, 0)])
    before = {0: 7}
    result = execute(loop, (), before, 100)
    assert result.status == OUT_OF_GAS
    assert result.gas_used == 100
    assert result.storage_writes == {}
    assert before == {0: 7}


def test_divide_by_zero_traps_atomically():
    program = assemble("PUSH 1\nPUSH 0\nDIV")
    result = execute(program, (), {}, 50)
    assert result.status == TRAP
    assert "DivZero" in result.reason
    assert result.gas_used == 50
    assert result.storage_writes == {}


def test_stack_underflow_and_bad_input_index_trap():
    assert execute(assemble("ADD"), (), {}, 10).status == TRAP
    assert execute(assemble("INPUT 3"), (1, 2), {}, 10).status == TRAP


def test_counter_program_shape_and_cost():
    assert len(COUNTER) == 30
    result = execute(COUNTER, (), {}, 10)
    assert result.status == OK
    assert result.gas_used == 10  # 1+3+1+1+1+3
    assert result.storage_writes == {0: 1}
    again = execute(COUNTER, (), {0: 1}, 10)
    assert again.storage_writes == {0: 2}


def test_gas_short_by_one_is_out_of_gas():
    result = execute(COUNTER, (), {}, 9)
    assert result.status == OUT_OF_GAS
    assert result.gas_used == 9
    assert result.storage_writes == {}


def test_wrapping_arithmetic():
    top = WORD_MASK
    assert execute(assemble(f"PUSH {top}\nPUSH 1\nADD\nEMIT"), (), {}, 10).output == (0,)
    assert execute(assemble("PUSH 0\nPUSH 1\nSUB\nEMIT"), (), {}, 10).output == (WORD_MASK,)
    assert execute(assemble(f"PUSH {top}\nPUSH 2\nMUL\nEMIT"), (), {}, 10).output == (
        (top * 2) & WORD_MASK,
    )


def test_comparison_and_branching():
    # EQ, LT, NOT, JMPIF exercised through a max(a, b) routine
    source = """
    INPUT 0
    INPUT 1
    LT          ; a < b ?
    JMPIF 6
    INPUT 0
    JMP 7
    INPUT 1
    EMIT
    """
    code = assemble(source)
    assert execute(code, (3, 9), {}, 20).output == (9,)
    assert execute(code, (9, 3), {}, 20).output == (9,)
    assert execute(assemble("PUSH 5\nPUSH 5\nEQ\nNOT\nEMIT"), (), {}, 10).output == (0,)


def test_input_words_reach_the_stack():
    code = assemble("INPUT 0\nINPUT 1\nADD\nEMIT")
    assert execute(code, (20, 22), {}, 10).output == (42,)


def test_load_missing_key_yields_zero():
    assert execute(assemble("PUSH 9\nLOAD\nEMIT"), (), {}, 10).output == (0,)


def test_gas_accounting_matches_instruction_costs():
    code = assemble("PUSH 1\nPUSH 2\nSTORE\nPUSH 1\nLOAD\nEMIT\nHALT")
    result = execute(code, (), {}, 100)
    expected = GAS_COST[OP_PUSH] * 3 + GAS_COST[OP_STORE] + GAS_COST[OP_LOAD] + 1 + 1
    assert result.gas_used == expected


def test_storage_writes_only_surface_on_ok():
    # STORE succeeds, then a trap follows: nothing may survive
    code = assemble("PUSH 0\nPUSH 5\nSTORE\nADD")
    result = execute(code, (), {}, 50)
    assert result.status == TRAP
    assert result.storage_writes == {}


# ---------------------------------------------------------------------------
# bytecode wire format
# ---------------------------------------------------------------------------


def test_parse_rejects_unknown_opcode_truncation_and_bad_jump():
    with pytest.raises(BytecodeError):
        parse_bytecode(b"\xff")
    with pytest.raises(BytecodeError):
        parse_bytecode(bytes([OP_PUSH]) + b"\x00" * 7)
    with pytest.raises(BytecodeError):
        parse_bytecode(encode_bytecode([(OP_JMP, 5)]))


def test_execute_on_malformed_code_traps_with_full_gas():
    result = execute(b"\xff", (), {}, 25)
    assert result.status == TRAP
    assert result.gas_used == 25


@settings(max_examples=100)
@given(st.lists(st.sampled_from(sorted(MNEMONICS)), min_size=1, max_size=20),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_encode_parse_roundtrip(ops, seed):
    rng = HashStream(seed, "bytecode")
    instructions = []
    for op in ops:
        if op == OP_PUSH:
            instructions.append((op, rng.u64()))
        elif op in (OP_JMP, 0x0D, 0x0E):  # JMP, JMPIF, INPUT carry an index
            instructions.append((op, rng.randrange(len(ops))))
        else:
            instructions.append((op, None))
    blob = encode_bytecode(instructions)
    assert parse_bytecode(blob) == instructions
    assert encode_bytecode(parse_bytecode(blob)) == blob


# ---------------------------------------------------------------------------
# assembler
# ---------------------------------------------------------------------------


def test_assemble_encodes_the_counter():
    source = "PUSH 0\nLOAD\nPUSH 1\nADD\nPUSH 0\nSTORE"
    blob = assemble(source)
    assert blob == COUNTER
    assert parse_bytecode(blob) == [
        (OP_PUSH, 0), (OP_LOAD, None), (OP_PUSH, 1), (OP_ADD, None), (OP_PUSH, 0), (OP_STORE, None)
    ]


def test_assembler_comments_and_blank_lines():
    source = "# preamble\nPUSH 2\n\nPUSH 3  ; operand note\nADD\nEMIT"
    assert assemble(source) == assemble("PUSH 2\nPUSH 3\nADD\nEMIT")


def test_assembler_reports_line_numbers():
    with pytest.raises(AsmError) as err:
        assemble("PUSH 1\nFROB 2")
    assert "line 2" in str(err.value)
    with pytest.raises(AsmError) as err:
        assemble("PUSH")
    assert "line 1" in str(err.value)
    with pytest.raises(AsmError) as err:  # a jump past the program's end
        assemble("PUSH 1\nJMP 5")
    assert str(err.value) == "line 2: jump target 5 out of bounds"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_execute_is_replay_identical():
    storage = {3: 4}
    first = execute(COUNTER, (), storage, 10)
    second = execute(COUNTER, (), storage, 10)
    assert first == second


# ---------------------------------------------------------------------------
# contract accounts
# ---------------------------------------------------------------------------


def test_contract_address_derivation():
    a0 = derive_contract_address(CREATOR, 0)
    a0_again = derive_contract_address(CREATOR, 0)
    a1 = derive_contract_address(CREATOR, 1)
    assert a0 == a0_again
    assert a0 != a1
    payload = sha256(CREATOR.to_bytes() + (0).to_bytes(4, "big"))[:20]
    assert a0.to_bytes()[1:21] == payload
    assert a0.to_bytes()[0] == 0x01


def test_registry_deploy_and_call_commit_semantics():
    registry = {}
    account = registry_deploy(registry, CREATOR, COUNTER)
    assert account.address == derive_contract_address(CREATOR, 0)
    assert registry[account.address.to_bytes()] is account
    assert deploy_count(registry, CREATOR) == 1

    ok = registry_call(account, (), 1 * GAS_PER_FEE_UNIT)
    assert ok.status == OK and account.storage == {0: 1}
    registry_call(account, (), 10)
    assert account.storage == {0: 2}

    broke = registry_call(account, (), 0)
    assert broke.status == OUT_OF_GAS
    assert account.storage == {0: 2}


def test_clone_registry_shares_accounts():
    """A call copies an account before writing to it, so a registry copy
    shares the accounts; only its slots are its own."""
    registry = {}
    first = registry_deploy(registry, CREATOR, COUNTER)
    clone = clone_registry(registry)
    assert clone == registry and clone is not registry
    assert clone[first.address.to_bytes()] is first
    second = registry_deploy(clone, CREATOR, COUNTER)
    assert second.address == derive_contract_address(CREATOR, 1)
    assert second.address.to_bytes() not in registry


def test_call_payload_roundtrip():
    words = [0, 1, WORD_MASK]
    assert parse_call_payload(encode_call_payload(words)) == tuple(words)
    with pytest.raises(ValueError):
        parse_call_payload(b"\x00\x00")
    with pytest.raises(ValueError):
        parse_call_payload(encode_call_payload(words) + b"\x00")


def test_opcode_set_has_no_cross_contract_access():
    # the instruction set can only touch its own storage: no opcode names
    # another account, so isolation is structural
    assert set(MNEMONICS.values()) == {
        "PUSH", "POP", "DUP", "SWAP", "ADD", "SUB", "MUL", "DIV", "EQ", "LT",
        "NOT", "JMP", "JMPIF", "INPUT", "STORE", "LOAD", "EMIT", "HALT",
    }

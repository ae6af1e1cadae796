"""The contract VM against the code it replaced, as a reference.

`contracts` states each opcode once, in `_OPS`: its mnemonic, operand width,
gas and the stack words it needs.  `execute` checks the stack depth once per
instruction from that table and reads storage through the call's own writes;
`assemble` checks jump targets on its own instruction list.  The reference
below is the VM as it was before: four tables kept by hand, an underflow
check in each opcode's branch, a copy of the caller's storage on every call,
and an assembler that decoded its own output to check its jumps.

On generated programs, each run against storage holding the keys it loads
and against empty storage, at every gas limit from 0 to past what it needs,
both must give the same status, output, gas, storage writes and trap reason,
and neither may change the caller's storage.  Decoding must give the same
instructions or the same error, and encoding the same bytes.  The assembler
must give the same bytes or the same error, with one allowed difference: a
jump past the program's end, which the reference reported as a BytecodeError
without a line, is now an AsmError that names the jump's line.
"""

import itertools
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import contracts
from chainsim.contracts import AsmError, BytecodeError, ExecResult, Instruction

# ---------------------------------------------------------------------------
# The reference: the VM as it was, copied verbatim
# ---------------------------------------------------------------------------

WORD_MASK = 2**64 - 1

OP_PUSH = 0x01
OP_POP = 0x02
OP_DUP = 0x03
OP_SWAP = 0x04
OP_ADD = 0x05
OP_SUB = 0x06
OP_MUL = 0x07
OP_DIV = 0x08
OP_EQ = 0x09
OP_LT = 0x0A
OP_NOT = 0x0B
OP_JMP = 0x0C
OP_JMPIF = 0x0D
OP_INPUT = 0x0E
OP_STORE = 0x0F
OP_LOAD = 0x10
OP_EMIT = 0x11
OP_HALT = 0x12

MNEMONICS = {
    OP_PUSH: "PUSH",
    OP_POP: "POP",
    OP_DUP: "DUP",
    OP_SWAP: "SWAP",
    OP_ADD: "ADD",
    OP_SUB: "SUB",
    OP_MUL: "MUL",
    OP_DIV: "DIV",
    OP_EQ: "EQ",
    OP_LT: "LT",
    OP_NOT: "NOT",
    OP_JMP: "JMP",
    OP_JMPIF: "JMPIF",
    OP_INPUT: "INPUT",
    OP_STORE: "STORE",
    OP_LOAD: "LOAD",
    OP_EMIT: "EMIT",
    OP_HALT: "HALT",
}
OPCODES = {name: op for op, name in MNEMONICS.items()}

# operand widths: PUSH carries an 8-byte word, jump/input carry 4-byte indices
_WORD_OPERAND = {OP_PUSH}
_INDEX_OPERAND = {OP_JMP, OP_JMPIF, OP_INPUT}

GAS_COST = {op: 1 for op in MNEMONICS}
GAS_COST[OP_STORE] = 3
GAS_COST[OP_LOAD] = 3

OK = "Ok"
OUT_OF_GAS = "OutOfGas"
TRAP = "Trap"


def parse_bytecode(blob: bytes) -> list[Instruction]:
    """Decode a bytecode blob into (opcode, operand) pairs, checking that it
    parses completely and every jump target lands on an instruction."""
    instructions: list[Instruction] = []
    offset = 0
    while offset < len(blob):
        op = blob[offset]
        offset += 1
        if op not in MNEMONICS:
            raise BytecodeError(f"unknown opcode 0x{op:02x} at byte {offset - 1}")
        operand = None
        if op in _WORD_OPERAND:
            if offset + 8 > len(blob):
                raise BytecodeError(f"truncated PUSH operand at byte {offset}")
            operand = struct.unpack(">Q", blob[offset : offset + 8])[0]
            offset += 8
        elif op in _INDEX_OPERAND:
            if offset + 4 > len(blob):
                raise BytecodeError(f"truncated operand at byte {offset}")
            operand = struct.unpack(">I", blob[offset : offset + 4])[0]
            offset += 4
        instructions.append((op, operand))
    for op, operand in instructions:
        if op in (OP_JMP, OP_JMPIF) and operand >= len(instructions):
            raise BytecodeError(f"jump target {operand} out of bounds")
    return instructions


def encode_bytecode(instructions: list[Instruction]) -> bytes:
    parts = []
    for op, operand in instructions:
        parts.append(bytes([op]))
        if op in _WORD_OPERAND:
            parts.append(struct.pack(">Q", operand))
        elif op in _INDEX_OPERAND:
            parts.append(struct.pack(">I", operand))
    return b"".join(parts)


def execute(
    code: bytes, input_words: tuple[int, ...], storage: dict[int, int], gas_limit: int
) -> ExecResult:
    """Run a program to completion, OutOfGas, or Trap.

    The caller's storage mapping is never mutated; surviving writes come back
    in storage_writes (empty unless status is Ok).  Falling off the end of the
    code halts normally.
    """
    try:
        program = parse_bytecode(code)
    except BytecodeError as exc:
        return ExecResult(TRAP, (), gas_limit, {}, f"BadBytecode: {exc}")
    view = dict(storage)
    writes: dict[int, int] = {}
    stack: list[int] = []
    output: list[int] = []
    gas = 0
    pc = 0

    def trap(reason: str) -> ExecResult:
        return ExecResult(TRAP, (), gas_limit, {}, reason)

    while pc < len(program):
        op, operand = program[pc]
        cost = GAS_COST[op]
        if gas + cost > gas_limit:
            return ExecResult(OUT_OF_GAS, (), gas_limit, {})
        gas += cost
        pc += 1
        if op == OP_PUSH:
            stack.append(operand)
        elif op == OP_POP:
            if not stack:
                return trap("StackUnderflow")
            stack.pop()
        elif op == OP_DUP:
            if not stack:
                return trap("StackUnderflow")
            stack.append(stack[-1])
        elif op == OP_SWAP:
            if len(stack) < 2:
                return trap("StackUnderflow")
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op in (OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_EQ, OP_LT):
            if len(stack) < 2:
                return trap("StackUnderflow")
            y = stack.pop()
            x = stack.pop()
            if op == OP_ADD:
                stack.append((x + y) & WORD_MASK)
            elif op == OP_SUB:
                stack.append((x - y) & WORD_MASK)
            elif op == OP_MUL:
                stack.append((x * y) & WORD_MASK)
            elif op == OP_DIV:
                if y == 0:
                    return trap("DivZero")
                stack.append(x // y)
            elif op == OP_EQ:
                stack.append(1 if x == y else 0)
            else:
                stack.append(1 if x < y else 0)
        elif op == OP_NOT:
            if not stack:
                return trap("StackUnderflow")
            stack.append(0 if stack.pop() else 1)
        elif op == OP_JMP:
            pc = operand
        elif op == OP_JMPIF:
            if not stack:
                return trap("StackUnderflow")
            if stack.pop():
                pc = operand
        elif op == OP_INPUT:
            if operand >= len(input_words):
                return trap(f"BadInput: index {operand}")
            stack.append(input_words[operand])
        elif op == OP_STORE:
            if len(stack) < 2:
                return trap("StackUnderflow")
            key = stack.pop()
            value = stack.pop()
            view[key] = value
            writes[key] = value
        elif op == OP_LOAD:
            if not stack:
                return trap("StackUnderflow")
            stack.append(view.get(stack.pop(), 0))
        elif op == OP_EMIT:
            if not stack:
                return trap("StackUnderflow")
            output.append(stack.pop())
        elif op == OP_HALT:
            break
    return ExecResult(OK, tuple(output), gas, writes)


def assemble(text: str) -> bytes:
    """One instruction per line; ';' and '#' start comments; operands are
    decimal or 0x-hex."""
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        mnemonic = parts[0].upper()
        op = OPCODES.get(mnemonic)
        if op is None:
            raise AsmError(f"line {lineno}: unknown mnemonic {parts[0]!r}")
        needs_operand = op in _WORD_OPERAND or op in _INDEX_OPERAND
        if needs_operand:
            if len(parts) != 2:
                raise AsmError(f"line {lineno}: {mnemonic} takes exactly one operand")
            try:
                operand = int(parts[1], 0)
            except ValueError:
                raise AsmError(f"line {lineno}: bad operand {parts[1]!r}") from None
            limit = WORD_MASK if op in _WORD_OPERAND else 2**32 - 1
            if not 0 <= operand <= limit:
                raise AsmError(f"line {lineno}: operand out of range")
            instructions.append((op, operand))
        else:
            if len(parts) != 1:
                raise AsmError(f"line {lineno}: {mnemonic} takes no operand")
            instructions.append((op, None))
    blob = encode_bytecode(instructions)
    parse_bytecode(blob)  # bounds-check jumps
    return blob


# ---------------------------------------------------------------------------
# Generated programs, blobs and sources
# ---------------------------------------------------------------------------

# small words collide as storage keys, make DIV by 0 and steer JMPIF
WORD = st.integers(0, 3) | st.integers(0, WORD_MASK)
# every limit up to past the 40 gas a loop-free program of programs() can
# need (8 STOREs or LOADs after 16 PUSHes), and one that loops run out of
GAS_LIMITS = (*range(42), 1_000)


@st.composite
def programs(draw) -> list[Instruction]:
    """Up to 8 instructions over every opcode, each after up to two PUSHes
    so that most find the stack words they need.  One jump in eight lands
    past the program's end, and about half of the INPUT indices past the
    input words."""
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        ops += [OP_PUSH] * draw(st.sampled_from((1, 0, 1, 2)))
        ops.append(draw(st.sampled_from(sorted(MNEMONICS))))
    program = []
    for op in ops:
        operand = None
        if op == OP_PUSH:
            operand = draw(WORD)
        elif op in (OP_JMP, OP_JMPIF):
            in_range = draw(st.integers(0, 7)) > 0
            operand = draw(st.integers(0, len(ops) - 1) if in_range
                           else st.integers(len(ops), 2**32 - 1))
        elif op == OP_INPUT:
            operand = draw(st.integers(0, 3) | st.integers(0, 2**32 - 1))
        program.append((op, operand))
    return program


def outcome(function, *args):
    """function's result, or the type and message of the error it raised."""
    try:
        return function(*args)
    except (AsmError, BytecodeError) as exc:
        return type(exc), str(exc)


def fields(result: ExecResult) -> tuple:
    return result.status, result.output, result.gas_used, result.storage_writes, result.reason


def assert_same_execution(code: bytes, inputs: tuple[int, ...], storage: dict[int, int]) -> None:
    for gas_limit in GAS_LIMITS:
        before = dict(storage)
        expected = execute(code, inputs, storage, gas_limit)
        assert storage == before
        got = contracts.execute(code, inputs, storage, gas_limit)
        assert storage == before
        assert fields(got) == fields(expected), (gas_limit, inputs, storage)


@settings(max_examples=400, deadline=None)
@given(programs(), st.lists(WORD, max_size=3).map(tuple), WORD)
# a LOAD of a key the call has stored reads the call's own write
@example([(OP_PUSH, 7), (OP_PUSH, 1), (OP_STORE, None), (OP_PUSH, 1), (OP_LOAD, None),
          (OP_EMIT, None)], (), 5)
def test_execution_matches_reference(program, inputs, salt):
    """Storage holds every pushed word and 0-3 as keys, each with a value
    salted apart from its key, or nothing."""
    code = encode_bytecode(program)
    assert contracts.encode_bytecode(program) == code
    keys = {0, 1, 2, 3} | {operand for op, operand in program if op == OP_PUSH}
    loaded = {key: (key + salt) & WORD_MASK for key in keys}
    for storage in (loaded, {}):
        assert_same_execution(code, inputs, storage)


@pytest.mark.parametrize("op", sorted(MNEMONICS), ids=MNEMONICS.get)
def test_each_opcode_at_each_stack_depth_matches_reference(op):
    """op after 0 to 3 PUSHes of 0, 1 or the largest word, with each
    operand it can take (a jump to the first instruction, the last, or one
    past it), then EMIT: every stack need, DIV by 0 and by 1, a LOAD of a
    key storage has and of one it lacks."""
    for depth in range(4):
        length = depth + 2
        operands = {
            OP_PUSH: (0, WORD_MASK),
            OP_JMP: (0, length - 1, length),
            OP_JMPIF: (0, length - 1, length),
            OP_INPUT: (0, 1, 2),
        }.get(op, (None,))
        for words in itertools.product((0, 1, WORD_MASK), repeat=depth):
            for operand in operands:
                program = [(OP_PUSH, word) for word in words] + [(op, operand), (OP_EMIT, None)]
                for storage in ({1: 7}, {}):
                    assert_same_execution(encode_bytecode(program), (5, 6), storage)


# opcode bytes around the table's range, raw bytes, and cut encodings
BLOB = st.one_of(
    st.lists(st.integers(0, 0x14) | st.integers(0, 255), max_size=30).map(bytes),
    st.tuples(programs(), st.integers(0, 60)).map(
        lambda cut: encode_bytecode(cut[0])[: cut[1]]),
)


@settings(max_examples=400, deadline=None)
@given(BLOB)
def test_decoding_matches_reference(blob):
    assert outcome(contracts.parse_bytecode, blob) == outcome(parse_bytecode, blob)
    assert fields(contracts.execute(blob, (), {}, 7)) == fields(execute(blob, (), {}, 7))


@st.composite
def source_lines(draw) -> str:
    """One line of source: an instruction in any letter case, with its
    operand in decimal or hex and perhaps a trailing comment; or a blank or
    comment line.  One instruction in five has a fault: an unknown mnemonic,
    an operand missing or one too many, or one that is not a number; or its
    operand is -1, or the largest its width holds, or one past that."""
    kind = draw(st.sampled_from(("op",) * 8 + ("blank", "comment")))
    if kind != "op":
        return draw(st.sampled_from(("", "   ", "; note", "# note")))
    op = draw(st.sampled_from(sorted(MNEMONICS)))
    mnemonic = draw(st.sampled_from((str.upper, str.lower, str.title)))(MNEMONICS[op])
    if op == OP_PUSH:
        operands = [draw(WORD)]
    elif op in (OP_JMP, OP_JMPIF, OP_INPUT):
        operands = [draw(st.integers(0, 12))]
    else:
        operands = []
    fault = draw(st.sampled_from((None,) * 16 + ("mnemonic", "count", "text", "range")))
    if fault == "mnemonic":
        mnemonic = "FROB"
    elif fault == "count":
        operands = [1] if not operands else draw(st.sampled_from(([], operands * 2)))
    elif fault == "text":
        operands = [draw(st.sampled_from(("zz", "1.5")))]
    elif fault == "range" and operands:
        largest = WORD_MASK if op == OP_PUSH else 2**32 - 1
        operands = [draw(st.sampled_from((-1, largest, largest + 1)))]
    tokens = [str(value) if isinstance(value, str) else draw(st.sampled_from((str, hex)))(value)
              for value in operands]
    note = draw(st.sampled_from(("", "  ; note", " # note")))
    return " ".join([mnemonic, *tokens]) + note


@settings(max_examples=600, deadline=None)
@given(st.lists(source_lines(), max_size=12).map("\n".join))
@example("PUSH 1\nJMP 5")
@example("PUSH 0xffffffffffffffff\nPUSH 0x10000000000000000")
@example("INPUT 4294967295\nINPUT 4294967296")
def test_assembler_matches_reference_except_for_jump_bounds(text):
    expected = outcome(assemble, text)
    got = outcome(contracts.assemble, text)
    if not (isinstance(expected, tuple) and expected[0] is BytecodeError):
        assert got == expected
        return
    # the one allowed difference: the reference's closing decode raised
    # "jump target N out of bounds"; now the error names the jump's line
    assert got[0] is AsmError
    named = re.fullmatch(r"line (\d+): (.*)", got[1])
    assert named and named[2] == expected[1]
    target = int(expected[1].split()[2])
    mnemonic, operand = text.splitlines()[int(named[1]) - 1].split(";")[0].split("#")[0].split()
    assert mnemonic.upper() in ("JMP", "JMPIF") and int(operand, 0) == target

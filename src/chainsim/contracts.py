"""Gas-metered stack virtual machine with per-contract key-value storage.

Words are 8-byte unsigned integers with wrapping arithmetic.  One table,
`_OPS`, gives each opcode's mnemonic, operand width, gas (1, or 3 for STORE
and LOAD: state touches are pricier) and the stack words it needs; finding
fewer traps with StackUnderflow.  Execution is a pure function of (code,
input, storage, gas_limit): a call reads storage through its own writes; on
OutOfGas or Trap the whole gas budget is consumed and no storage write
survives.
"""

from __future__ import annotations

import operator
import struct

from ._record import field, record
from .crypto import CONTRACT_ADDRESS_VERSION, Address, sha256

WORD_MASK = 2**64 - 1
GAS_PER_FEE_UNIT = 10

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

# opcode -> (mnemonic, operand bytes, gas, stack words needed); PUSH carries
# an 8-byte word, JMP, JMPIF and INPUT a 4-byte instruction or input index
_OPS = {
    OP_PUSH: ("PUSH", 8, 1, 0),
    OP_POP: ("POP", 0, 1, 1),
    OP_DUP: ("DUP", 0, 1, 1),
    OP_SWAP: ("SWAP", 0, 1, 2),
    OP_ADD: ("ADD", 0, 1, 2),
    OP_SUB: ("SUB", 0, 1, 2),
    OP_MUL: ("MUL", 0, 1, 2),
    OP_DIV: ("DIV", 0, 1, 2),
    OP_EQ: ("EQ", 0, 1, 2),
    OP_LT: ("LT", 0, 1, 2),
    OP_NOT: ("NOT", 0, 1, 1),
    OP_JMP: ("JMP", 4, 1, 0),
    OP_JMPIF: ("JMPIF", 4, 1, 1),
    OP_INPUT: ("INPUT", 4, 1, 0),
    OP_STORE: ("STORE", 0, 3, 2),
    OP_LOAD: ("LOAD", 0, 3, 1),
    OP_EMIT: ("EMIT", 0, 1, 1),
    OP_HALT: ("HALT", 0, 1, 0),
}
MNEMONICS = {op: mnemonic for op, (mnemonic, _, _, _) in _OPS.items()}
OPCODES = {mnemonic: op for op, mnemonic in MNEMONICS.items()}
GAS_COST = {op: gas for op, (_, _, gas, _) in _OPS.items()}

# the two-word operators: pop y, then x, push f(x, y) as a word
_BINARY = {
    OP_ADD: operator.add,
    OP_SUB: operator.sub,
    OP_MUL: operator.mul,
    OP_DIV: operator.floordiv,
    OP_EQ: operator.eq,
    OP_LT: operator.lt,
}

OK = "Ok"
OUT_OF_GAS = "OutOfGas"
TRAP = "Trap"


class BytecodeError(ValueError):
    """Malformed bytecode: truncation, unknown opcode, or jump out of bounds."""


Instruction = tuple[int, int | None]


def _bad_jump(instructions: list[Instruction]) -> int | None:
    """The index of the first jump whose target is not an instruction."""
    for index, (op, operand) in enumerate(instructions):
        if op in (OP_JMP, OP_JMPIF) and operand >= len(instructions):
            return index
    return None


def parse_bytecode(blob: bytes) -> list[Instruction]:
    """Decode a bytecode blob into (opcode, operand) pairs, checking that it
    parses completely and every jump target lands on an instruction."""
    instructions: list[Instruction] = []
    offset = 0
    while offset < len(blob):
        op = blob[offset]
        offset += 1
        if op not in _OPS:
            raise BytecodeError(f"unknown opcode 0x{op:02x} at byte {offset - 1}")
        width = _OPS[op][1]
        operand = None
        if width:
            if offset + width > len(blob):
                what = "PUSH operand" if op == OP_PUSH else "operand"
                raise BytecodeError(f"truncated {what} at byte {offset}")
            operand = int.from_bytes(blob[offset : offset + width], "big")
            offset += width
        instructions.append((op, operand))
    bad = _bad_jump(instructions)
    if bad is not None:
        raise BytecodeError(f"jump target {instructions[bad][1]} out of bounds")
    return instructions


def encode_bytecode(instructions: list[Instruction]) -> bytes:
    parts = []
    for op, operand in instructions:
        parts.append(bytes([op]))
        width = _OPS[op][1]
        if width:
            parts.append(operand.to_bytes(width, "big"))
    return b"".join(parts)


@record(frozen=True)
class ExecResult:
    status: str
    output: tuple[int, ...]
    gas_used: int
    storage_writes: dict[int, int]
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OK


def execute(
    code: bytes, input_words: tuple[int, ...], storage: dict[int, int], gas_limit: int
) -> ExecResult:
    """Run a program to completion, OutOfGas, or Trap.

    The caller's storage mapping is never mutated; surviving writes come back
    in storage_writes (empty unless status is Ok).  Falling off the end of the
    code halts normally.
    """

    def trap(reason: str) -> ExecResult:
        return ExecResult(TRAP, (), gas_limit, {}, reason)

    try:
        program = parse_bytecode(code)
    except BytecodeError as exc:
        return trap(f"BadBytecode: {exc}")
    writes: dict[int, int] = {}
    stack: list[int] = []
    output: list[int] = []
    gas = 0
    pc = 0
    while pc < len(program):
        op, operand = program[pc]
        _, _, cost, needs = _OPS[op]
        if gas + cost > gas_limit:
            return ExecResult(OUT_OF_GAS, (), gas_limit, {})
        gas += cost
        pc += 1
        if len(stack) < needs:
            return trap("StackUnderflow")
        if op in _BINARY:
            y = stack.pop()
            x = stack.pop()
            if op == OP_DIV and y == 0:
                return trap("DivZero")
            stack.append(_BINARY[op](x, y) & WORD_MASK)
        elif op == OP_PUSH:
            stack.append(operand)
        elif op == OP_POP:
            stack.pop()
        elif op == OP_DUP:
            stack.append(stack[-1])
        elif op == OP_SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op == OP_NOT:
            stack.append(0 if stack.pop() else 1)
        elif op == OP_JMP:
            pc = operand
        elif op == OP_JMPIF:
            if stack.pop():
                pc = operand
        elif op == OP_INPUT:
            if operand >= len(input_words):
                return trap(f"BadInput: index {operand}")
            stack.append(input_words[operand])
        elif op == OP_STORE:
            key = stack.pop()
            writes[key] = stack.pop()
        elif op == OP_LOAD:
            key = stack.pop()
            stack.append(writes[key] if key in writes else storage.get(key, 0))
        elif op == OP_EMIT:
            output.append(stack.pop())
        else:  # HALT
            break
    return ExecResult(OK, tuple(output), gas, writes)


# ---------------------------------------------------------------------------
# Assembly text
# ---------------------------------------------------------------------------


class AsmError(ValueError):
    pass


def assemble(text: str) -> bytes:
    """One instruction per line; ';' and '#' start comments; operands are
    decimal or 0x-hex.  Each operand must fit its width and each jump must
    land on an instruction; an error names its source line."""
    instructions: list[Instruction] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        mnemonic = parts[0].upper()
        op = OPCODES.get(mnemonic)
        if op is None:
            raise AsmError(f"line {lineno}: unknown mnemonic {parts[0]!r}")
        width = _OPS[op][1]
        operand = None
        if width:
            if len(parts) != 2:
                raise AsmError(f"line {lineno}: {mnemonic} takes exactly one operand")
            try:
                operand = int(parts[1], 0)
            except ValueError:
                raise AsmError(f"line {lineno}: bad operand {parts[1]!r}") from None
            if not 0 <= operand < 1 << 8 * width:
                raise AsmError(f"line {lineno}: operand out of range")
        elif len(parts) != 1:
            raise AsmError(f"line {lineno}: {mnemonic} takes no operand")
        instructions.append((op, operand))
        linenos.append(lineno)
    bad = _bad_jump(instructions)
    if bad is not None:
        raise AsmError(f"line {linenos[bad]}: jump target {instructions[bad][1]} out of bounds")
    return encode_bytecode(instructions)


# ---------------------------------------------------------------------------
# Contract accounts
# ---------------------------------------------------------------------------


@record
class ContractAccount:
    address: Address
    creator: Address
    code: bytes
    storage: dict[int, int] = field(default_factory=dict)

    def clone(self) -> "ContractAccount":
        return ContractAccount(self.address, self.creator, self.code, dict(self.storage))


ContractRegistry = dict[bytes, ContractAccount]


def derive_contract_address(creator: Address, deploy_index: int) -> Address:
    """Contract addresses are a pure function of (creator, deploy ordinal)."""
    payload = sha256(creator.to_bytes() + struct.pack(">I", deploy_index))[:20]
    return Address.make(CONTRACT_ADDRESS_VERSION, payload)


def clone_registry(registry: ContractRegistry) -> ContractRegistry:
    """A registry that shares registry's accounts: an account is copied
    before a block's call writes to it, so a stored one never changes."""
    return dict(registry)


def deploy_count(registry: ContractRegistry, creator: Address) -> int:
    """How many contracts creator has deployed in registry, which is the
    deploy index of its next one: only a revert removes an account."""
    return sum(account.creator == creator for account in registry.values())


def registry_deploy(registry: ContractRegistry, creator: Address, code: bytes) -> ContractAccount:
    """Install a contract account at creator's next deploy index; the code
    must already have parsed."""
    address = derive_contract_address(creator, deploy_count(registry, creator))
    account = ContractAccount(address, creator, bytes(code))
    registry[address.to_bytes()] = account
    return account


def encode_call_payload(words: list[int]) -> bytes:
    return struct.pack(">I", len(words)) + b"".join(struct.pack(">Q", w) for w in words)


def parse_call_payload(payload: bytes) -> tuple[int, ...]:
    if len(payload) < 4:
        raise ValueError("call payload too short")
    count = struct.unpack(">I", payload[:4])[0]
    if len(payload) != 4 + 8 * count:
        raise ValueError("call payload length mismatch")
    return tuple(
        struct.unpack(">Q", payload[4 + 8 * i : 12 + 8 * i])[0] for i in range(count)
    )


def registry_call(account: ContractAccount, input_words: tuple[int, ...], gas_limit: int) -> ExecResult:
    """Execute a call and commit storage writes only on Ok."""
    result = execute(account.code, input_words, account.storage, gas_limit)
    if result.ok:
        account.storage.update(result.storage_writes)
    return result

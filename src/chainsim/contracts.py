"""Gas-metered stack virtual machine with per-contract key-value storage.

Words are 8-byte unsigned integers with wrapping arithmetic.  Every opcode
costs 1 gas except STORE and LOAD (3 each: state touches are pricier).
Execution is a pure function of (code, input, storage, gas_limit); on OutOfGas
or Trap the whole gas budget is consumed and no storage write survives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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


class BytecodeError(ValueError):
    """Malformed bytecode: truncation, unknown opcode, or jump out of bounds."""


Instruction = tuple[int, int | None]


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


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# Assembly text
# ---------------------------------------------------------------------------


class AsmError(ValueError):
    pass


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
# Contract accounts
# ---------------------------------------------------------------------------


@dataclass
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

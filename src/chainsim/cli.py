"""Command-line operator surface.

One binary, subcommands for keys, balances, the hash puzzle, chain files,
scenario runs, and contracts against a local single-node chain.  Exit codes
are part of the contract: 0 success, 1 not found, 2 verification failure,
3 I/O or corruption, 4 configuration error.  stdout carries one
machine-parseable line per command; anything diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
import time

import yaml

from . import consensus as cons
from . import contracts
from .chain import (
    Block,
    ChainFileError,
    ChainParams,
    ChainStore,
    branch_pow_params,
    header_hash,
    load,
    make_genesis,
    persist,
    read_chain_file,
    verify_blocks,
)
from .crypto import (
    Address,
    KeystoreError,
    KeystoreRecord,
    USER_ADDRESS_VERSION,
    atomic_write,
    derive_address,
    keypair_generate,
    load_keystore,
    save_keystore,
    solve_string_puzzle,
)
from .ledger import (
    Mempool,
    TxBuildError,
    TxKind,
    UtxoSet,
    balance,
    build_transaction,
    spendable_outpoint,
)
from .netsim import run_scenario, summary_row, write_reports
from .scenario import MAX_SEED, ScenarioError, load_params, load_scenario

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_CONFIG = 4

CHAIN_FILE = "chain.dat"
KEYS_FILE = "keys.dat"
PARAMS_FILE = "params.yaml"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _say(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _chain_path(args) -> str:
    return os.path.join(args.data_dir, CHAIN_FILE)


def _keys_path(args) -> str:
    return os.path.join(args.data_dir, KEYS_FILE)


def _load_records(args) -> list[KeystoreRecord]:
    path = _keys_path(args)
    if not os.path.exists(path):
        return []
    try:
        return load_keystore(path)
    except KeystoreError as exc:
        raise CliError(EXIT_IO, f"key store: {exc}")


def _save_params(args, params: ChainParams) -> None:
    data = {
        "confirmation_depth": params.confirmation_depth,
        "block_subsidy": params.block_subsidy,
        "max_block_data_bytes": params.max_block_data_bytes,
        "allocation": [[addr.hex(), amount] for addr, amount in params.genesis_allocation],
    }
    if isinstance(params.consensus, cons.PowParams):
        data["pow"] = {
            "target_bits": params.consensus.target.bit_length() - 1,
            "retarget_interval": params.consensus.retarget_interval,
            "target_spacing": params.consensus.target_spacing,
        }
    atomic_write(
        os.path.join(args.data_dir, PARAMS_FILE),
        [yaml.safe_dump(data, sort_keys=True).encode()],
    )


def _read_config(load, path: str, what: str, *args):
    """load(path, *args) for a scenario or params file.  A missing file exits
    3; YAML that does not parse, or a config error, exits 4, and each config
    error goes to stderr on a line of its own."""
    try:
        return load(path, *args)
    except FileNotFoundError:
        raise CliError(EXIT_IO, f"{what} file not found: {path}")
    except yaml.YAMLError as exc:
        raise CliError(EXIT_CONFIG, f"{what} file: {exc}")
    except ScenarioError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        raise CliError(EXIT_CONFIG, f"{len(exc.errors)} {what} error(s)")


def _read_chain(args, read):
    """The stored params and read(path, params), load or read_chain_file."""
    path = _chain_path(args)
    if not os.path.exists(path):
        raise CliError(EXIT_IO, f"no chain file at {path}")
    params = _read_config(load_params, os.path.join(args.data_dir, PARAMS_FILE), "params")
    result = read(path, params)
    if result.truncated_at is not None:
        print(f"warning: trailing bytes at offset {result.truncated_at} ignored", file=sys.stderr)
    return params, result


def _load_store(args) -> ChainStore:
    return _read_chain(args, load)[1].store


# ---------------------------------------------------------------------------
# keys and balances
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    if args.seed is not None:
        try:
            entropy = bytes.fromhex(args.seed)
        except ValueError:
            raise CliError(EXIT_CONFIG, "seed must be hex")
        if len(entropy) != 32:
            raise CliError(EXIT_CONFIG, "seed must be 32 bytes of hex")
    else:
        entropy = secrets.token_bytes(32)
    records = _load_records(args)
    label = args.label or f"key{len(records)}"
    if any(rec.label == label for rec in records):
        raise CliError(EXIT_CONFIG, f"label {label!r} already exists")
    keypair = keypair_generate(entropy)
    records.append(KeystoreRecord(seed=entropy, address_version=USER_ADDRESS_VERSION, label=label))
    save_keystore(_keys_path(args), records)
    print(f"label={label} address={derive_address(keypair.public_key).hex()}")
    return EXIT_OK


def cmd_balance(args) -> int:
    try:
        address = Address.from_hex(args.address)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"bad address: {exc}")
    snapshot = _load_store(args).tip_state().utxo if os.path.exists(_chain_path(args)) else UtxoSet()
    b = balance(address, snapshot)
    print(f"{b.unlocked} {b.locked_stake}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# puzzle
# ---------------------------------------------------------------------------


def cmd_puzzle(args) -> int:
    started = time.perf_counter()
    try:
        result = solve_string_puzzle(args.prefix, args.zeros, args.start, args.end)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc))
    elapsed = time.perf_counter() - started
    if result is None:
        print("not found", file=sys.stderr)
        return EXIT_NOT_FOUND
    print(
        f"nonce={result.nonce} digest={result.digest.hex()}"
        f" attempts={result.attempts} elapsed={elapsed:.3f}s"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# chain file commands
# ---------------------------------------------------------------------------


def cmd_chain(args) -> int:
    if args.chain_cmd == "init":
        path = _chain_path(args)
        if os.path.exists(path):
            raise CliError(EXIT_CONFIG, f"chain file already exists at {path}")
        params = _read_config(load_params, args.params, "params")
        genesis = make_genesis(params)
        store = ChainStore(params, genesis, Mempool())
        _save_params(args, params)
        persist(store, _chain_path(args))
        print(f"height=0 tip={store.tip_hash.hex()}")
        return EXIT_OK

    if args.chain_cmd == "verify":
        params, chain_file = _read_chain(args, read_chain_file)
        result = verify_blocks(params, chain_file.blocks)
        if result.ok:
            print("Ok")
            return EXIT_OK
        print(f"broken at height {result.height}: {result.reason}", file=sys.stderr)
        print(f"Broken height={result.height} reason={result.reason}")
        return EXIT_VERIFY
    store = _load_store(args)
    if args.chain_cmd == "tip":
        print(f"height={store.tip_height} tip={store.tip_hash.hex()}")
        return EXIT_OK
    if args.chain_cmd == "inspect":
        for h in store.adopted_path():
            block = store.blocks[h]
            publisher = cons.proof_publisher(block.header)
            if publisher is None and block.transactions[0].outputs:
                publisher = block.transactions[0].outputs[0].recipient
            pub = publisher.hex() if publisher is not None else "-"
            print(
                f"height={block.header.height} hash={h.hex()}"
                f" txs={len(block.transactions)} publisher={pub}"
            )
        return EXIT_OK
    raise CliError(EXIT_CONFIG, f"unknown chain command {args.chain_cmd!r}")


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


def cmd_sim(args) -> int:
    if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
        raise CliError(EXIT_CONFIG, f"--seed must be between 0 and {MAX_SEED}")
    config = _read_config(load_scenario, args.scenario, "scenario", args.seed)
    result = run_scenario(config)
    write_reports(result, args.out)
    row = summary_row(result)
    print(" ".join(f"{k}={v}" for k, v in row.items()))
    _say(args, f"event log hash {result.event_log_digest().hex()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------


def cmd_asm(args) -> int:
    try:
        with open(args.source, "r") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CliError(EXIT_IO, f"assembly file not found: {args.source}")
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"assembly file: {exc}")
    try:
        code = contracts.assemble(text)
    except contracts.AsmError as exc:
        raise CliError(EXIT_CONFIG, str(exc))
    out = args.output or os.path.splitext(args.source)[0] + ".bin"
    atomic_write(out, [code])
    print(f"bytes={len(code)} out={out}")
    return EXIT_OK


def _pick_key(args, records: list[KeystoreRecord]):
    if not records:
        raise CliError(EXIT_NOT_FOUND, "key store is empty; run keygen first")
    if args.key is None:
        record = records[0]
    else:
        matches = [rec for rec in records if rec.label == args.key]
        if not matches:
            raise CliError(EXIT_NOT_FOUND, f"no key labelled {args.key!r}")
        record = matches[0]
    return keypair_generate(record.seed)


def _funding(store: ChainStore, address: Address, needed: int):
    """The tip's UTXO set and the outpoint that pays for a local transaction."""
    utxo = store.tip_state().utxo
    outpoint = spendable_outpoint(utxo, address, needed)
    if outpoint is None:
        raise CliError(
            EXIT_NOT_FOUND, f"no spendable output of at least {needed} for {address.hex()}"
        )
    return outpoint, utxo


def _append_local_block(args, store: ChainStore, txs, keypair) -> Block:
    """Mine or stamp one block on the tip of the local chain, published by
    keypair's address, and persist it."""
    candidate = store.make_candidate(
        derive_address(keypair.public_key), list(txs), timestamp=store.tip.header.timestamp + 1
    )
    block = candidate
    if store.params.consensus is not None:  # literal PoW, the one model a params file sets
        pow_params = branch_pow_params(
            store.params, store.tip_state(), candidate.header.height,
            store.branch_header_at(store.tip_hash),
        )
        block = cons.attach_proof(candidate, pow_params)
        if block is None:
            raise CliError(EXIT_VERIFY, "failed to produce a consensus proof")
    result = store.append_block(block)
    if result.status == "Rejected":
        raise CliError(
            EXIT_VERIFY, f"block rejected: {result.reason} {result.validity.detail}".strip()
        )
    persist(store, _chain_path(args))
    return block


def cmd_deploy(args) -> int:
    try:
        with open(args.bytecode, "rb") as fh:
            code = fh.read()
    except FileNotFoundError:
        raise CliError(EXIT_IO, f"bytecode file not found: {args.bytecode}")
    if not code:  # parses as no instructions, but a deploy needs a payload
        raise CliError(EXIT_CONFIG, "bytecode: file is empty")
    try:
        contracts.parse_bytecode(code)
    except contracts.BytecodeError as exc:
        raise CliError(EXIT_CONFIG, f"bytecode: {exc}")
    store = _load_store(args)
    keypair = _pick_key(args, _load_records(args))
    sender = derive_address(keypair.public_key)
    outpoint, utxo = _funding(store, sender, args.fee)
    try:
        tx = build_transaction(
            [outpoint], [], args.fee, [keypair], utxo, kind=TxKind.CONTRACT_DEPLOY, payload=code
        )
    except TxBuildError as exc:
        raise CliError(EXIT_CONFIG, f"cannot build deploy transaction: {exc}")
    deploy_index = store.tip_state().deploy_counts.get(sender.to_bytes(), 0)
    contract = contracts.derive_contract_address(sender, deploy_index)
    _append_local_block(args, store, [tx], keypair)
    print(f"contract={contract.hex()} height={store.tip_height}")
    return EXIT_OK


def cmd_call(args) -> int:
    try:
        contract = Address.from_hex(args.contract)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"bad contract address: {exc}")
    store = _load_store(args)
    account = store.tip_state().registry.get(contract.to_bytes())
    if account is None:
        raise CliError(EXIT_NOT_FOUND, f"unknown contract {contract.hex()}")
    keypair = _pick_key(args, _load_records(args))
    sender = derive_address(keypair.public_key)
    outpoint, utxo = _funding(store, sender, args.fee)
    words = [w & contracts.WORD_MASK for w in args.words]
    payload = contracts.encode_call_payload(words)
    try:
        tx = build_transaction(
            [outpoint],
            [(contract, 0)],
            args.fee,
            [keypair],
            utxo,
            kind=TxKind.CONTRACT_CALL,
            payload=payload,
        )
    except TxBuildError as exc:
        raise CliError(EXIT_CONFIG, f"cannot build call transaction: {exc}")
    # preview the execution on a copy so the result can be printed; the block
    # application below repeats it deterministically
    preview = account.clone()
    result = contracts.registry_call(
        preview, tuple(words), args.fee * contracts.GAS_PER_FEE_UNIT
    )
    _append_local_block(args, store, [tx], keypair)
    out = ",".join(str(w) for w in result.output)
    print(f"status={result.status} output={out} gas_used={result.gas_used}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="blockchain engine and deterministic network simulator",
    )
    parser.add_argument("--data-dir", default="chainsim-data", help="state directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="create a key and print its address")
    p.add_argument("--seed", help="32-byte hex seed for a deterministic key")
    p.add_argument("--label", help="name for the key store entry")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("balance", help="unlocked and staked balance of an address")
    p.add_argument("address")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("puzzle", help="solve the leading-zeros hash puzzle")
    p.add_argument("prefix")
    p.add_argument("zeros", type=int)
    p.add_argument("start", type=int, help="first nonce to try, below 2**63")
    p.add_argument("end", type=int, nargs="?", default=None,
                   help="stop before this nonce, at most 2**63 (default 2**63)")
    p.set_defaults(func=cmd_puzzle)

    p = sub.add_parser("chain", help="manage the local chain file")
    chain_sub = p.add_subparsers(dest="chain_cmd", required=True)
    pi = chain_sub.add_parser("init", help="create a genesis chain from a params file")
    pi.add_argument("--params", required=True, help="YAML chain parameters")
    pv = chain_sub.add_parser("verify", help="verify every stored block")
    pt = chain_sub.add_parser("tip", help="print tip height and hash")
    pp = chain_sub.add_parser("inspect", help="print a summary per adopted block")
    for sp in (pi, pv, pt, pp):
        sp.set_defaults(func=cmd_chain)

    p = sub.add_parser("sim", help="run a scenario and write reports")
    p.add_argument("scenario")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("asm", help="assemble contract source to bytecode")
    p.add_argument("source")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("deploy", help="deploy bytecode on the local chain")
    p.add_argument("bytecode")
    p.add_argument("--fee", type=int, required=True)
    p.add_argument("--key", default=None, help="key store label to sign with")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("call", help="call a contract on the local chain")
    p.add_argument("contract")
    p.add_argument("words", type=int, nargs="*")
    p.add_argument("--fee", type=int, required=True)
    p.add_argument("--key", default=None, help="key store label to sign with")
    p.set_defaults(func=cmd_call)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map to the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except ChainFileError as exc:
        print(f"error: chain file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

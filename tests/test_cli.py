"""Operator CLI: one line of machine-readable stdout per command, diagnostics
on stderr, and the documented exit codes (0 ok, 1 not found, 2 verification
failure, 3 I/O or corruption, 4 configuration error)."""

import argparse
import contextlib
import io
import importlib
import concurrent.futures
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from chainsim import chain, crypto
from chainsim.chain import (
    Block,
    BlockHeader,
    block_data_bytes,
    deserialize_block,
    header_hash,
    persist,
    transactions_merkle_root,
)
from chainsim.cli import EXIT_VERIFY, CliError, _append_local_block, _load_store, main
from chainsim.contracts import derive_contract_address
from chainsim.crypto import Address, derive_address, keypair_generate, sha256
from chainsim.ledger import Transaction, TxOutput, Validity
from chainsim.netsim import run_scenario
from chainsim.scenario import load_scenario

REPO = Path(__file__).resolve().parent.parent
SEED_HEX = "11" * 32
COUNTER_ASM = """\
# bump the counter in slot 0 and emit the new value
PUSH 0
LOAD
PUSH 1
ADD
DUP
PUSH 0
STORE
EMIT
"""


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_dir(tmp_path):
    return tmp_path / "state"


def keygen(capsys, data_dir, label: str, seed: str = SEED_HEX) -> str:
    code, out, _ = run_cli(
        capsys, "--data-dir", data_dir, "keygen", "--seed", seed, "--label", label
    )
    assert code == 0
    return out.split("address=")[1].strip()


def write_params(tmp_path, address_hex: str, amount: int = 500) -> str:
    path = tmp_path / "params.yaml"
    path.write_text(
        "confirmation_depth: 2\n"
        "block_subsidy: 50\n"
        f"allocation:\n  - [{address_hex}, {amount}]\n"
    )
    return str(path)


def init_funded_chain(capsys, tmp_path, data_dir) -> str:
    """keygen + chain init with the key's allocation; returns the address."""
    address = keygen(capsys, data_dir, "op")
    params = write_params(tmp_path, address)
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", params)
    assert code == 0
    assert out.startswith("height=0 tip=")
    return address


def scripts_table_by_text(text: str) -> dict:
    """The ``[project.scripts]`` table of a pyproject.toml, read as plain
    ``name = "module:attr"`` lines; for Python 3.10, which has no tomllib."""
    table = re.search(r"^\[project\.scripts\][ \t]*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    if table is None:
        return {}
    entry = r"^[ \t]*([\w.-]+)[ \t]*=[ \t]*[\"']([^\"']*)[\"']"
    return dict(re.findall(entry, table.group(1), re.M))


def project_scripts() -> dict:
    text = (REPO / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:
        return scripts_table_by_text(text)
    return tomllib.loads(text)["project"].get("scripts", {})


def test_installed_console_script():
    # The console script that `pip install` generates calls the
    # [project.scripts] target; run that target the same way, as a program in
    # a fresh interpreter, so the check needs no install. The generated
    # wrapper itself is checked by test_console_script_on_path.
    target = project_scripts().get("chainsim")
    assert target == "chainsim.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    src = str(REPO / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + pythonpath if pythonpath else src}
    proc = subprocess.run(
        [sys.executable, "-m", "chainsim", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "usage: chainsim" in proc.stdout


def test_scripts_table_text_fallback_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (REPO / "pyproject.toml").read_text()
    assert scripts_table_by_text(text) == tomllib.loads(text)["project"]["scripts"]


@pytest.mark.skipif(
    shutil.which("chainsim") is None,
    reason="the chainsim console script is not on PATH (pip install -e . puts it there)",
)
def test_console_script_on_path():
    proc = subprocess.run(["chainsim", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage: chainsim" in proc.stdout


# -- keygen ------------------------------------------------------------------------


def test_keygen_deterministic_from_seed(capsys, tmp_path):
    a = keygen(capsys, tmp_path / "one", "k")
    b = keygen(capsys, tmp_path / "two", "k")
    assert a == b
    assert re.fullmatch(r"[0-9a-f]+", a)
    expected = derive_address(keypair_generate(bytes.fromhex(SEED_HEX)).public_key)
    assert a == expected.hex()


def test_keygen_default_labels_count_up(capsys, data_dir):
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "keygen")
    assert code == 0 and out.startswith("label=key0 ")
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "keygen")
    assert code == 0 and out.startswith("label=key1 ")


def test_keygen_rejects_duplicate_label(capsys, data_dir):
    keygen(capsys, data_dir, "same")
    code, _, err = run_cli(
        capsys, "--data-dir", data_dir, "keygen", "--seed", "22" * 32, "--label", "same"
    )
    assert code == 4
    assert "already exists" in err


def test_keygen_rejects_bad_seed(capsys, data_dir):
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "keygen", "--seed", "zz")
    assert code == 4 and "hex" in err
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "keygen", "--seed", "ab" * 8)
    assert code == 4 and "32 bytes" in err


# -- balance -----------------------------------------------------------------------


def test_balance_without_chain_is_zero(capsys, data_dir):
    address = keygen(capsys, data_dir, "k")
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "balance", address)
    assert code == 0
    assert out == "0 0\n"


def test_balance_rejects_malformed_address(capsys, data_dir):
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "balance", "not-hex")
    assert code == 4
    assert "bad address" in err


def test_balance_sees_genesis_allocation(capsys, tmp_path, data_dir):
    address = init_funded_chain(capsys, tmp_path, data_dir)
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "balance", address)
    assert code == 0
    assert out == "500 0\n"


# -- puzzle ------------------------------------------------------------------------


def test_puzzle_solves_and_reports_attempts(capsys):
    code, out, _ = run_cli(capsys, "puzzle", "blockchain", 2, 0)
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    digest = bytes.fromhex(fields["digest"])
    assert digest == sha256(b"blockchain" + fields["nonce"].encode())
    assert digest.hex().startswith("00")
    assert int(fields["attempts"]) == int(fields["nonce"]) + 1


def test_puzzle_exhausted_range_exits_not_found(capsys):
    code, out, err = run_cli(capsys, "puzzle", "blockchain", 6, 0, 10)
    assert code == 1
    assert out == ""
    assert "not found" in err


def test_puzzle_rejects_impossible_difficulty(capsys):
    code, _, err = run_cli(capsys, "puzzle", "x", 65, 0)
    assert code == 4 and "error:" in err


def test_puzzle_rejects_a_start_at_the_nonce_bound(capsys):
    code, out, err = run_cli(capsys, "puzzle", "x", 0, 2**63)
    assert (code, out) == (4, "")
    assert "start_nonce must be below 2**63" in err
    code, out, _ = run_cli(capsys, "puzzle", "x", 0, 2**63 - 1)
    assert code == 0 and out.startswith(f"nonce={2**63 - 1} ")


def test_puzzle_answered_in_the_first_chunk_starts_no_pool(capsys, monkeypatch):
    """The benchmark's operator command: its answer lies inside the nonces
    scanned in-process, so no worker pool is ever constructed."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", no_pool)
    code, out, _ = run_cli(capsys, "puzzle", "blockchain", 5, 0)
    assert code == 0
    assert out.startswith("nonce=311895 digest=00000") and " attempts=311896 " in out


# -- chain management ----------------------------------------------------------------


def test_chain_init_tip_verify_inspect(capsys, tmp_path, data_dir):
    init_funded_chain(capsys, tmp_path, data_dir)
    assert (data_dir / "chain.dat").exists()
    assert (data_dir / "params.yaml").exists()

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert code == 0
    assert re.fullmatch(r"height=0 tip=[0-9a-f]{64}\n", out)

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert code == 0 and out == "Ok\n"

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "inspect")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("height=0 hash=")


def test_chain_commands_require_chain_file(capsys, data_dir):
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert code == 3
    assert "no chain file" in err


def test_chain_init_rejects_bad_params(capsys, tmp_path, data_dir):
    bad = tmp_path / "bad.yaml"
    bad.write_text("allocation:\n  - [xyz, 5]\n")
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", bad)
    assert code == 4
    assert "allocation[0]" in err


def _params_text(address_hex: str, overrides: dict[str, str]) -> str:
    """A params file with allocation and a pow section; overrides maps a key
    (``pow.`` prefixed for the pow section) to its YAML value."""
    top = {"confirmation_depth": "2", "block_subsidy": "50", "max_block_data_bytes": "65536"}
    pow_keys = {"target_bits": "252", "retarget_interval": "16", "target_spacing": "10"}
    for key, value in overrides.items():
        section, _, name = key.rpartition(".")
        (pow_keys if section == "pow" else top)[name] = value
    lines = [f"{k}: {v}" for k, v in top.items()]
    lines += [f"allocation:\n  - [{address_hex}, 500]", "pow:"]
    lines += [f"  {k}: {v}" for k, v in pow_keys.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("key, bad_values", [
    ("confirmation_depth", ["0", "-1", '"x"', "true", "1.5"]),
    ("block_subsidy", ["-1", "1.5", '"x"', "false"]),
    ("max_block_data_bytes", ["0", '"x"', "true", "2.0"]),
    ("pow.retarget_interval", ["0", '"x"', "true", "[16]"]),
    ("pow.target_spacing", ["0", "-10", '"x"', "{a: 1}"]),
])
def test_chain_init_rejects_bad_integer_param(capsys, tmp_path, data_dir, key, bad_values):
    address = keygen(capsys, tmp_path / "keys", "k")
    path = tmp_path / "params.yaml"
    for value in bad_values:
        path.write_text(_params_text(address, {key: value}))
        code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
        assert (code, out) == (4, ""), value
        assert re.fullmatch(rf"{re.escape(key)}: (expected an integer, got .+|must be .+)\n"
                            r"error: 1 params error\(s\)\n", err), value
        assert not data_dir.exists()


def test_chain_init_refuses_an_existing_chain(capsys, tmp_path, data_dir):
    """A second init replaced the chain with a fresh genesis, and exited 0."""
    address = init_funded_chain(capsys, tmp_path, data_dir)
    source = tmp_path / "counter.asm"
    source.write_text(COUNTER_ASM)
    binary = run_cli(capsys, "asm", source)[1].split("out=")[1].strip()
    code, _, _ = run_cli(capsys, "--data-dir", data_dir, "deploy", binary, "--fee", 1)
    assert code == 0
    chain_bytes = (data_dir / "chain.dat").read_bytes()
    params_bytes = (data_dir / "params.yaml").read_bytes()
    params = write_params(tmp_path, address, amount=900)
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", params)
    assert (code, out) == (4, "")
    assert err == f"error: chain file already exists at {data_dir / 'chain.dat'}\n"
    assert (data_dir / "chain.dat").read_bytes() == chain_bytes
    assert (data_dir / "params.yaml").read_bytes() == params_bytes
    assert run_cli(capsys, "--data-dir", data_dir, "chain", "tip")[1].startswith("height=1 ")


def test_chain_init_accepts_integer_params_at_their_bounds(capsys, tmp_path, data_dir):
    address = keygen(capsys, tmp_path / "keys", "k")
    path = tmp_path / "params.yaml"
    path.write_text(_params_text(address, {
        "confirmation_depth": "1", "block_subsidy": "0", "max_block_data_bytes": "1",
        "pow.retarget_interval": "1", "pow.target_spacing": "1",
    }))
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
    assert code == 0
    assert out.startswith("height=0 tip=")
    saved = yaml.safe_load((data_dir / "params.yaml").read_text())
    assert (saved["confirmation_depth"], saved["block_subsidy"],
            saved["max_block_data_bytes"]) == (1, 0, 1)
    assert (saved["pow"]["retarget_interval"], saved["pow"]["target_spacing"]) == (1, 1)


def test_chain_init_rejects_allocation_beyond_maximum_supply(capsys, tmp_path, data_dir):
    address = keygen(capsys, tmp_path / "keys", "k")
    path = tmp_path / "params.yaml"
    path.write_text(f"allocation:\n  - [{address}, {2**62}]\n  - [{address}, 1]\n")
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
    assert code == 4
    assert err == f"allocation: total exceeds the maximum supply {2**62}\nerror: 1 params error(s)\n"
    assert not data_dir.exists()


def test_chain_init_rejects_boolean_allocation(capsys, tmp_path, data_dir):
    """YAML's true is a Python int; it was allocated as an amount of 1."""
    address = keygen(capsys, tmp_path / "keys", "k")
    path = tmp_path / "params.yaml"
    path.write_text(f"allocation:\n  - [{address}, true]\n")
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
    assert (code, out) == (4, "")
    assert err == "allocation[0]: amount must be a positive integer\nerror: 1 params error(s)\n"
    assert not data_dir.exists()


@pytest.mark.parametrize("text, error", [
    ("confirmaton_depth: 3\n", "confirmaton_depth: unknown key"),
    ("pow: {target_bitz: 9, retarget_interval: 4}\n", "pow.target_bitz: unknown key"),
])
def test_chain_init_rejects_unknown_param_key(capsys, tmp_path, data_dir, text, error):
    """A misspelt key was dropped, and the chain took the key's default."""
    address = keygen(capsys, tmp_path / "keys", "k")
    path = tmp_path / "params.yaml"
    path.write_text(f"allocation:\n  - [{address}, 500]\n{text}")
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
    assert (code, out) == (4, "")
    assert err == f"{error}\nerror: 1 params error(s)\n"
    assert not data_dir.exists()


def test_chain_init_reports_every_params_error(capsys, tmp_path, data_dir):
    path = tmp_path / "params.yaml"
    path.write_text("confirmation_depth: 0\nallocation:\n  - [abcd, 5]\n  - 7\n"
                    "pow: {target_bits: 300, target_spacing: x}\nsubsidy: 5\n")
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
    assert (code, out) == (4, "")
    assert sorted(err.splitlines()) == sorted([
        "subsidy: unknown key",
        "confirmation_depth: must be at least 1",
        "allocation[0]: address must be 25 bytes",
        "allocation[1]: expected [address_hex, amount]",
        "pow.target_bits: must be between 8 and 255",
        "pow.target_spacing: expected an integer, got 'x'",
        "error: 6 params error(s)",
    ])
    assert not data_dir.exists()


def test_chain_commands_read_the_stored_params_file_with_the_same_checks(
        capsys, tmp_path, data_dir):
    init_funded_chain(capsys, tmp_path, data_dir)
    with open(data_dir / "params.yaml", "a") as fh:
        fh.write("confirmaton_depth: 3\n")
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert (code, out) == (4, "")
    assert err == "confirmaton_depth: unknown key\nerror: 1 params error(s)\n"
    (data_dir / "params.yaml").unlink()
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert code == 3 and "params file not found" in err


def test_unknown_flag_maps_to_config_error(capsys):
    code, _, _ = run_cli(capsys, "chain", "--bogus")
    assert code == 4


# -- contracts on the local chain ------------------------------------------------------


def deploy_counter(capsys, tmp_path, data_dir) -> str:
    init_funded_chain(capsys, tmp_path, data_dir)
    source = tmp_path / "counter.asm"
    source.write_text(COUNTER_ASM)
    code, out, _ = run_cli(capsys, "asm", source)
    assert code == 0
    assert out.startswith("bytes=") and "out=" in out
    binary = out.split("out=")[1].strip()
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "deploy", binary, "--fee", 2)
    assert code == 0
    match = re.fullmatch(r"contract=([0-9a-f]+) height=1\n", out)
    assert match
    return match.group(1)


def test_asm_deploy_call_roundtrip(capsys, tmp_path, data_dir):
    contract = deploy_counter(capsys, tmp_path, data_dir)

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)
    assert code == 0
    assert out == "status=Ok output=1 gas_used=12\n"

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)
    assert code == 0
    assert out == "status=Ok output=2 gas_used=12\n"

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert code == 0 and out == "Ok\n"
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert out.startswith("height=3 ")


def test_call_with_starved_fee_runs_out_of_gas(capsys, tmp_path, data_dir):
    contract = deploy_counter(capsys, tmp_path, data_dir)
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 1)
    assert code == 0
    assert out.startswith("status=OutOfGas output= gas_used=10")
    # the failed call burned its gas but left the counter untouched
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)
    assert out == "status=Ok output=1 gas_used=12\n"


def test_rejected_local_block_exits_verify_with_reason(capsys, tmp_path, data_dir):
    init_funded_chain(capsys, tmp_path, data_dir)
    chain_bytes = (data_dir / "chain.dat").read_bytes()
    args = argparse.Namespace(data_dir=str(data_dir), key=None, verbose=False)
    store = _load_store(args)
    store.policy = lambda block: Validity(False, "Policy", "every block refused")
    with pytest.raises(CliError) as err:
        _append_local_block(args, store, [], keypair_generate(bytes.fromhex(SEED_HEX)))
    assert err.value.code == EXIT_VERIFY == 2
    assert err.value.message == "block rejected: Policy every block refused"
    assert (data_dir / "chain.dat").read_bytes() == chain_bytes


def test_literal_pow_chain_grows_past_its_retarget_heights(capsys, tmp_path, data_dir):
    """A local PoW chain retargets every 16 blocks, and blocks stamped one
    tick apart against a spacing of 10 quarter the target each time.  Each
    block is mined against the target its own height must meet, so the
    chain keeps growing past the retarget heights 16, 32 and 48."""
    address = keygen(capsys, data_dir, "op")
    params = tmp_path / "params.yaml"
    params.write_text(f"allocation:\n  - [{address}, 500]\npow: {{target_bits: 252}}\n")
    code, _, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", params)
    assert code == 0
    source = tmp_path / "counter.asm"
    source.write_text(COUNTER_ASM)
    code, out, _ = run_cli(capsys, "asm", source)
    binary = out.split("out=")[1].strip()
    for height in range(1, 51):
        code, out, err = run_cli(capsys, "--data-dir", data_dir, "deploy", binary, "--fee", 1)
        assert (code, err) == (0, ""), height
        assert out.endswith(f" height={height}\n")
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert (code, out) == (0, "Ok\n")
    args = argparse.Namespace(data_dir=str(data_dir), key=None, verbose=False)
    assert _load_store(args).tip_state().pow_params.target == 1 << (252 - 2 * 3)


def test_call_unknown_contract_not_found(capsys, tmp_path, data_dir):
    address = init_funded_chain(capsys, tmp_path, data_dir)
    ghost = derive_contract_address(
        derive_address(keypair_generate(bytes.fromhex(SEED_HEX)).public_key), 9
    )
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "call", ghost.hex(), "--fee", 2)
    assert code == 1
    assert "unknown contract" in err


def test_asm_reports_source_line_on_error(capsys, tmp_path):
    source = tmp_path / "bad.asm"
    source.write_text("PUSH 1\nFROB\n")
    code, _, err = run_cli(capsys, "asm", source)
    assert code == 4
    assert "line 2" in err


def test_deploy_of_empty_bytecode_is_config_error(capsys, tmp_path, data_dir):
    """An empty file is refused as bytecode, before any block is built: it
    exits 4 like every other bad bytecode file, not 2 with a rejected block."""
    init_funded_chain(capsys, tmp_path, data_dir)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    chain_bytes = (data_dir / "chain.dat").read_bytes()
    files = sorted(os.listdir(data_dir))
    _, tip, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "deploy", empty, "--fee", 1)
    assert (code, out) == (4, "")
    assert err == "error: bytecode: file is empty\n"
    assert (data_dir / "chain.dat").read_bytes() == chain_bytes
    assert sorted(os.listdir(data_dir)) == files
    assert run_cli(capsys, "--data-dir", data_dir, "chain", "tip")[1] == tip


def test_deploy_without_keys_exits_not_found(capsys, tmp_path, data_dir):
    address = keygen(capsys, tmp_path / "elsewhere", "k")
    params = write_params(tmp_path, address)
    code, _, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", params)
    assert code == 0
    source = tmp_path / "c.asm"
    source.write_text(COUNTER_ASM)
    run_cli(capsys, "asm", source)
    code, _, err = run_cli(
        capsys, "--data-dir", data_dir, "deploy", tmp_path / "c.bin", "--fee", 1
    )
    assert code == 1
    assert "key store is empty" in err


# -- chain file damage ------------------------------------------------------------------


def test_framing_corruption_is_io_error(capsys, tmp_path, data_dir):
    init_funded_chain(capsys, tmp_path, data_dir)
    path = data_dir / "chain.dat"
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF
    path.write_bytes(bytes(raw))
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert code == 3
    assert "checksum mismatch" in err


def test_semantic_tamper_is_verification_failure(capsys, tmp_path, data_dir):
    contract = deploy_counter(capsys, tmp_path, data_dir)
    path = data_dir / "chain.dat"
    raw = path.read_bytes()
    offset = 6
    records = []
    while offset < len(raw):
        (length,) = struct.unpack_from(">I", raw, offset)
        records.append(raw[offset + 4 : offset + 4 + length])
        offset += 4 + length + 4
    block, _ = deserialize_block(records[1])
    coin = block.transactions[0]
    fattened = Transaction(
        coin.kind,
        coin.inputs,
        (TxOutput(coin.outputs[0].amount + 1, coin.outputs[0].recipient),) + coin.outputs[1:],
        coin.payload,
    )
    records[1] = Block(block.header, (fattened,) + block.transactions[1:]).serialize()
    framed = raw[:6] + b"".join(
        struct.pack(">I", len(r)) + r + sha256(r)[:4] for r in records
    )
    path.write_bytes(framed)

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert code == 2
    assert out == "Broken height=1 reason=DataHash\n"


def test_repeated_coinbase_in_chain_file_is_verification_failure(capsys, tmp_path, data_dir):
    init_funded_chain(capsys, tmp_path, data_dir)
    args = argparse.Namespace(data_dir=str(data_dir), key=None, verbose=False)
    store = _load_store(args)
    block1 = store.make_candidate(derive_address(keypair_generate(bytes(32)).public_key), [], 1)
    assert store.append_block(block1).status == "Extended"
    persist(store, str(data_dir / "chain.dat"))
    # block 2 carries block 1's coinbase verbatim
    txs = block1.transactions
    header = BlockHeader(2, header_hash(block1.header), transactions_merkle_root(txs), 2,
                         len(block_data_bytes(txs)), 0, 0)
    record = Block(header, txs).serialize()
    with open(data_dir / "chain.dat", "ab") as fh:
        fh.write(struct.pack(">I", len(record)) + record + sha256(record)[:4])

    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert (code, out) == (0, f"height=1 tip={header_hash(block1.header).hex()}\n")
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert code == 2
    assert out == "Broken height=2 reason=DuplicateTransaction\n"


def test_truncated_chain_file_loads_prefix_with_warning(capsys, tmp_path, data_dir):
    deploy_counter(capsys, tmp_path, data_dir)
    path = data_dir / "chain.dat"
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert code == 0
    assert "warning: trailing bytes" in err
    assert out.startswith("height=0 ")


def test_load_shares_decoded_addresses_and_a_bad_address_checksum_still_fails(
    capsys, tmp_path, data_dir
):
    """load keeps one Address object per distinct address, however many
    outputs pay it.  An output address with one checksum byte flipped, its
    record resealed, still fails to decode after the valid form of that
    address was decoded in this process."""
    contract = deploy_counter(capsys, tmp_path, data_dir)
    for _ in range(2):
        assert run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)[0] == 0
    path = data_dir / "chain.dat"
    store = _load_store(argparse.Namespace(data_dir=str(data_dir), key=None, verbose=False))
    recipients = [out.recipient for block in store.blocks.values()
                  for tx in block.transactions for out in tx.outputs]
    assert len(recipients) > len(set(recipients)) > 1
    assert len({id(a) for a in recipients}) == len(set(recipients))

    raw = bytearray(path.read_bytes())
    start, end = _record_spans(bytes(raw))[-1]
    address = store.tip.transactions[0].outputs[0].recipient.to_bytes()
    raw[raw.index(address, start, end) + len(address) - 1] ^= 0x01
    raw[end : end + 4] = sha256(bytes(raw[start:end]))[:4]
    path.write_bytes(bytes(raw))
    with pytest.raises(chain.ChainFileError, match="address checksum mismatch"):
        chain.read_chain_file(str(path), store.params)
    code, _, err = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert code == 3 and "address checksum mismatch" in err


# -- the checked-prefix record beside chain.dat ----------------------------------------


def _checks_of(capsys, monkeypatch, data_dir, *argv):
    """Exit code, stdout and real Ed25519 checks of one command, run on a
    cleared signature memo as in a fresh process."""
    checks = []
    uncached = crypto._verify_uncached

    def counted(*args):
        checks.append(args)
        return uncached(*args)

    crypto._verify_memo.clear()
    with monkeypatch.context() as patched:
        patched.setattr(crypto, "_verify_uncached", counted)
        code, out, _ = run_cli(capsys, "--data-dir", data_dir, *argv)
    return code, out, len(checks)


def test_commands_check_only_signatures_no_command_checked_before(
    capsys, tmp_path, data_dir, monkeypatch
):
    """Each command's load skips the signatures of the records an earlier
    command validated: chain tip checks none, and a call checks none, for
    its own input is one it signed.  With the checked-prefix record gone, a
    call's load checks every input on the chain, and chain verify always
    does."""
    contract = deploy_counter(capsys, tmp_path, data_dir)
    assert run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)[0] == 0

    code, out, checks = _checks_of(capsys, monkeypatch, data_dir, "chain", "tip")
    assert (code, out.startswith("height=2 "), checks) == (0, True, 0)
    code, out, checks = _checks_of(capsys, monkeypatch, data_dir, "call", contract, "--fee", 2)
    assert (code, out, checks) == (0, "status=Ok output=2 gas_used=12\n", 0)
    store = _load_store(argparse.Namespace(data_dir=str(data_dir)))
    inputs = sum(len(tx.inputs) for b in store.blocks.values() for tx in b.transactions)
    assert inputs == 3  # the deploy and two calls

    (data_dir / "chain.dat.checked").unlink()
    code, out, checks = _checks_of(capsys, monkeypatch, data_dir, "call", contract, "--fee", 2)
    assert (code, out, checks) == (0, "status=Ok output=3 gas_used=12\n", inputs)
    assert _checks_of(capsys, monkeypatch, data_dir, "chain", "verify") == (0, "Ok\n", inputs + 1)


def _record_spans(raw: bytes) -> list[tuple[int, int]]:
    """(start, end) of each block record's body in a chain file."""
    spans = []
    offset = 6
    while offset < len(raw):
        (length,) = struct.unpack_from(">I", raw, offset)
        spans.append((offset + 4, offset + 4 + length))
        offset += 4 + length + 4
    return spans


def test_tampered_signature_inside_the_checked_prefix_fails_as_without_the_record(
    capsys, tmp_path, data_dir
):
    """A signature byte flipped inside the checked prefix, its record
    resealed, loads and verifies exactly as it does with no record beside
    it, and so does the file beside each malformed record."""
    contract = deploy_counter(capsys, tmp_path, data_dir)
    assert run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)[0] == 0
    path = data_dir / "chain.dat"
    checked = data_dir / "chain.dat.checked"
    raw = path.read_bytes()
    stale = checked.read_bytes()
    assert stale == struct.pack(">Q", len(raw)) + sha256(raw)

    start, end = _record_spans(raw)[1]
    deploy = deserialize_block(raw[start:end])[0].transactions[1]
    at = raw.index(deploy.inputs[0].signature, start, end)
    data = bytearray(raw)
    data[at] ^= 0x01
    data[end : end + 4] = sha256(bytes(data[start:end]))[:4]
    data = bytes(data)
    path.write_bytes(data)

    def outcome():
        crypto._verify_memo.clear()
        store = _load_store(argparse.Namespace(data_dir=str(data_dir)))
        code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
        return list(store.blocks.items()), list(store.undo), store.tip_hash, code, out

    checked.unlink()
    alone = outcome()
    assert alone[3:] == (2, "Broken height=1 reason=BadSignature\n")
    assert not checked.exists()  # chain verify writes nothing
    for record in (
        stale,
        b"",
        stale[:39],
        struct.pack(">Q", len(data)) + sha256(data) + b"\x00",
        struct.pack(">Q", len(data) + 1) + sha256(data),
        struct.pack(">Q", len(data)) + bytes(32),
    ):
        checked.write_bytes(record)
        assert outcome() == alone, record

    # chain verify trusts nothing: even a record that vouches for the
    # tampered bytes leaves the bad signature to be found
    checked.write_bytes(struct.pack(">Q", len(data)) + sha256(data))
    assert outcome()[3:] == alone[3:]


# -- chain verify replays the file's own records --------------------------------------


def _append_resigned_block_1(path) -> None:
    """Append a record that repeats block 1's header with one byte of its
    deploy's input signature flipped, the record checksum resealed.  The
    signature lies outside tx_id, so the header hash is block 1's."""
    raw = path.read_bytes()
    start, end = _record_spans(raw)[1]
    body = bytearray(raw[start:end])
    deploy = deserialize_block(bytes(body))[0].transactions[1]
    body[body.index(deploy.inputs[0].signature)] ^= 0x01
    body = bytes(body)
    assert header_hash(deserialize_block(body)[0].header) == header_hash(
        deserialize_block(raw[start:end])[0].header)
    path.write_bytes(raw + struct.pack(">I", len(body)) + body + sha256(body)[:4])


def test_chain_verify_judges_a_record_that_repeats_a_header(capsys, tmp_path, data_dir):
    """load drops a record that repeats an earlier header, so chain tip is
    unchanged; chain verify judges it, and its signature fails."""
    deploy_counter(capsys, tmp_path, data_dir)
    _, tip, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    _append_resigned_block_1(data_dir / "chain.dat")
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert (code, out) == (2, "Broken height=1 reason=BadSignature\n")
    assert run_cli(capsys, "--data-dir", data_dir, "chain", "tip")[:2] == (0, tip)


def test_chain_verify_replays_each_record_once_and_reads_no_checked_record(
    capsys, tmp_path, data_dir, monkeypatch
):
    """One validate_and_apply per block after genesis, and the checked-prefix
    record beside the file is never read."""
    contract = deploy_counter(capsys, tmp_path, data_dir)
    for _ in range(2):
        assert run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)[0] == 0
    records = len(_record_spans((data_dir / "chain.dat").read_bytes()))
    calls = []
    validate_and_apply = chain.validate_and_apply

    def counted(*args, **kwargs):
        calls.append(args[0])
        return validate_and_apply(*args, **kwargs)

    def unread(*args):
        raise AssertionError("the checked-prefix record was read")

    monkeypatch.setattr(chain, "validate_and_apply", counted)
    monkeypatch.setattr(chain, "_checked_length", unread)
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
    assert (code, out) == (0, "Ok\n")
    assert len(calls) == records - 1 == 3


@pytest.mark.parametrize("fault, message", [
    ("prev_hash", "genesis must have height 0 and a zero previous hash"),
    ("data_hash", "invalid genesis: DataHash"),
    ("payload", "invalid genesis: Coinbase transaction 0: payload is not the height"),
])
def test_genesis_record_that_cannot_found_a_store_is_io_error(
    capsys, tmp_path, data_dir, fault, message
):
    """A height-0 first record that cannot found a store, for its shape, its
    data or its transactions, exits 3 with the offset of the record, from
    chain verify as from chain tip."""
    init_funded_chain(capsys, tmp_path, data_dir)
    path = data_dir / "chain.dat"
    raw = path.read_bytes()
    start, end = _record_spans(raw)[0]
    genesis = deserialize_block(raw[start:end])[0]
    txs, prev, root = genesis.transactions, genesis.header.prev_header_hash, None
    if fault == "prev_hash":
        prev = b"\x01" * 32
    elif fault == "data_hash":
        root = bytes(32)
    else:
        coin = txs[0]
        txs = (Transaction(coin.kind, coin.inputs, coin.outputs, b"x"),) + txs[1:]
    header = BlockHeader(0, prev, root or transactions_merkle_root(txs), genesis.header.timestamp,
                         len(block_data_bytes(txs)), 0, 0)
    record = Block(header, txs).serialize()
    path.write_bytes(raw[:6] + struct.pack(">I", len(record)) + record + sha256(record)[:4])
    for command in ("verify", "tip"):
        code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", command)
        assert (code, out, err) == (3, "", f"error: chain file: byte 6: {message}\n")


def test_genesis_is_walked_once_by_chain_tip_and_by_a_failing_verify(
    capsys, tmp_path, data_dir, monkeypatch
):
    """chain tip founds its store with one walk of the genesis transactions,
    and one validate_and_apply per later record; verify_blocks names a
    genesis that cannot found a store without walking it again."""
    contract = deploy_counter(capsys, tmp_path, data_dir)
    assert run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)[0] == 0
    records = len(_record_spans((data_dir / "chain.dat").read_bytes()))
    genesis_walks, applied = [], []
    walk, validate_and_apply = chain._walk_transactions, chain.validate_and_apply

    def counted_walk(txs, state, height, *args):
        if height == 0:
            genesis_walks.append(txs)
        return walk(txs, state, height, *args)

    def counted_apply(*args, **kwargs):
        applied.append(args[0])
        return validate_and_apply(*args, **kwargs)

    monkeypatch.setattr(chain, "_walk_transactions", counted_walk)
    monkeypatch.setattr(chain, "validate_and_apply", counted_apply)
    code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "tip")
    assert (code, out.split()[0]) == (0, "height=2")
    assert len(genesis_walks) == 1
    assert len(applied) == records - 1 == 2

    genesis_walks.clear()
    params = chain.ChainParams()
    coin = chain.make_genesis(params).transactions[0]
    txs = (Transaction(coin.kind, coin.inputs, coin.outputs, b"x"),)
    header = BlockHeader(0, chain.GENESIS_PREV_HASH, transactions_merkle_root(txs), 0,
                         len(block_data_bytes(txs)), 0, 0)
    result = chain.verify_blocks(params, [Block(header, txs)])
    assert result == chain.VerifyResult(False, 0, "Coinbase")
    assert genesis_walks == [txs]


def test_chain_verify_walks_the_genesis_once(capsys, tmp_path, data_dir, monkeypatch):
    """chain verify judges the later records on the store read_chain_file
    founded, so the genesis transactions are walked once, on a file that
    verifies and on one whose last record fails; stdout and the exit code
    are those of verify_blocks founding its own store."""
    contract = deploy_counter(capsys, tmp_path, data_dir)
    assert run_cli(capsys, "--data-dir", data_dir, "call", contract, "--fee", 2)[0] == 0
    path = data_dir / "chain.dat"
    block1 = deserialize_block(path.read_bytes()[slice(*_record_spans(path.read_bytes())[1])])[0]
    genesis_walks = []
    walk = chain._walk_transactions

    def counted_walk(txs, state, height, *args):
        if height == 0:
            genesis_walks.append(txs)
        return walk(txs, state, height, *args)

    monkeypatch.setattr(chain, "_walk_transactions", counted_walk)
    for broken in (False, True):
        if broken:  # a record at height 3 that repeats block 1's transactions
            tip = _load_store(argparse.Namespace(data_dir=str(data_dir))).tip
            txs = block1.transactions
            header = BlockHeader(3, header_hash(tip.header), transactions_merkle_root(txs), 3,
                                 len(block_data_bytes(txs)), 0, 0)
            record = Block(header, txs).serialize()
            with open(path, "ab") as fh:
                fh.write(struct.pack(">I", len(record)) + record + sha256(record)[:4])
        genesis_walks.clear()
        code, out, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "verify")
        assert len(genesis_walks) == 1
        params = _load_store(argparse.Namespace(data_dir=str(data_dir))).params
        want = chain.verify_blocks(params, chain.read_chain_file(str(path), params).blocks)
        assert (code, out) == ((2, f"Broken height=3 reason={want.reason}\n") if broken
                               else (0, "Ok\n"))
        assert want.ok != broken


# -- simulator --------------------------------------------------------------------------


def test_sim_writes_reports_and_summary(capsys, tmp_path):
    out_dir = tmp_path / "report"
    code, out, err = run_cli(
        capsys, "-v", "sim", REPO / "scenarios" / "round_robin.cfg", "--out", out_dir
    )
    assert code == 0
    assert re.fullmatch(
        r"seed=7 orphans=\d+ max_reorg_depth=\d+"
        r" mean_confirmation_latency=[\d.]+ fork_split=(true|false)\n",
        out,
    )
    assert re.search(r"event log hash [0-9a-f]{64}", err)
    for name in (
        "metrics_summary.csv",
        "agreement_timeseries.csv",
        "node_resources.csv",
        "events.log",
    ):
        assert (out_dir / name).exists()


def test_sim_is_repeatable_and_seed_overridable(capsys, tmp_path):
    _, first, err1 = run_cli(capsys, "-v", "sim", REPO / "scenarios" / "round_robin.cfg", "--out", tmp_path / "a")
    _, second, err2 = run_cli(capsys, "-v", "sim", REPO / "scenarios" / "round_robin.cfg", "--out", tmp_path / "b")
    assert first == second and err1 == err2
    _, other, _ = run_cli(
        capsys, "sim", REPO / "scenarios" / "round_robin.cfg", "--out", tmp_path / "c", "--seed", 9
    )
    assert other.startswith("seed=9 ")
    assert other != first


@pytest.mark.parametrize("name", ["round_robin.cfg", "poa.cfg", "poet.cfg"])
def test_sim_seed_override_equals_file_with_that_seed(capsys, tmp_path, name):
    """Publisher addresses and PoET's draw seed follow --seed: the run equals
    one of a copy of the file with that seed, and blocks are accepted."""
    source = (REPO / "scenarios" / name).read_text()
    copy = tmp_path / name
    copy.write_text(re.sub(r"(?m)^seed: \d+$", "seed: 9", source, count=1))
    assert copy.read_text() != source
    overridden = run_cli(capsys, "-v", "sim", REPO / "scenarios" / name, "--out", tmp_path / "a", "--seed", 9)
    from_file = run_cli(capsys, "-v", "sim", copy, "--out", tmp_path / "b")
    assert overridden[0] == 0 and overridden == from_file
    assert re.search(r"event log hash [0-9a-f]{64}", overridden[2])
    result = run_scenario(load_scenario(str(copy)))
    assert max(node.tip_height() for node in result.nodes.values()) > 0


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sim_seed_override_out_of_range_is_config_error(capsys, tmp_path, seed):
    code, out, err = run_cli(
        capsys, "sim", REPO / "scenarios" / "round_robin.cfg", "--out", tmp_path / "r",
        "--seed", seed,
    )
    assert code == 4 and out == ""
    assert err == "error: --seed must be between 0 and 18446744073709551615\n"
    assert not (tmp_path / "r").exists()


def test_sim_scenario_seed_out_of_range_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed: -1\nduration: 50\nnodes:\n  - {name: a, role: publishing, hash_share: 1.0}\nconsensus: {model: pow}\n")
    code, _, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 4
    assert "seed: must be between 0 and 18446744073709551615" in err
    assert "Traceback" not in err


def test_sim_reports_every_scenario_problem(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed: 1\nduration: -5\nbogus: 1\nnodes:\n  - {name: a, role: publishing, hash_share: 1.0}\nconsensus: {model: pow}\n")
    code, _, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 4
    assert "duration: must be positive" in err
    assert "bogus: unknown key" in err
    assert "error: 2 scenario error(s)" in err


def test_sim_reputation_beyond_r_max_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text((REPO / "scenarios" / "poa.cfg").read_text().replace("a0: 50", "a0: 150"))
    code, out, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 4 and out == ""
    assert "consensus.reputations.a0: must be between 0 and 100" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_sim_all_zero_reputations_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    text = (REPO / "scenarios" / "poa.cfg").read_text()
    for rep in ("a0: 50", "a1: 30", "a2: 20"):
        text = text.replace(rep, rep.split(":")[0] + ": 0")
    bad.write_text(text)
    code, out, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 4 and out == ""
    assert "consensus.reputations: needs at least one reputation above 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("old, new, error", [
    ("{model: pow}", "{model: pow}\nchain: {confirmation_depth: -1}",
     "chain.confirmation_depth: must be at least 1"),
    ("{model: pow}", "{model: pow}\nchain: {block_subsidy: -1}",
     "chain.block_subsidy: must be non-negative"),
    ("hash_share: 1.0", "hash_share: .nan", "nodes[0].hash_share: expected a finite number, got nan"),
    ("{model: pow}", "{model: poet, mean_wait: .inf}",
     "consensus.mean_wait: expected a finite number, got inf"),
], ids=["confirmation_depth", "block_subsidy", "hash_share", "mean_wait"])
def test_sim_bad_number_is_config_error(capsys, tmp_path, old, new, error):
    bad = tmp_path / "bad.cfg"
    text = "seed: 1\nduration: 50\nnodes:\n  - {name: a, role: publishing, hash_share: 1.0}\nconsensus: {model: pow}\n"
    bad.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 4 and out == ""
    assert error in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


ONE_NODE = "seed: 1\nduration: 200\nnodes:\n  - {name: a, role: publishing, hash_share: 1.0}\nconsensus: {model: pow}\n"


@pytest.mark.parametrize("extra, error", [
    ("chain: {max_block_data_bytes: -1}", "chain.max_block_data_bytes: must be at least 256"),
    ("fork: {kind: hard, activation_height: 2, adopters: [a], new_rule_version: 70000}",
     "fork.new_rule_version: must be between 0 and 65535"),
    ("nodes:\n  - {name: a, role: publishing, hash_share: 1.0, balance: 4611686018427387904}\n"
     "  - {name: b, balance: 5}",
     "nodes: balance plus stake totals 4611686018427387909, above the maximum supply 4611686018427387904"),
    ("workload: {tx_interval: 5}", "workload.tx_interval: payments need at least two nodes"),
    ("adversary: {kind: withholding, node: a, delay_ticks: -30}",
     "adversary.delay_ticks: must be non-negative"),
    (f"chain: {{block_subsidy: {2**64}}}", "chain.block_subsidy: must be at most 4611686018427387904"),
    (f"chain: {{block_subsidy: {2**63}}}", "chain.block_subsidy: must be at most 4611686018427387904"),
    ("nodes:\n  - {name: a, role: publishing, hash_share: 1.0, online: [[0, 150], [50, 200]]}",
     "nodes[0].online[1]: overlaps nodes[0].online[0]"),
], ids=["block-data-limit", "rule-version", "supply", "lone-payer", "past-delivery",
        "subsidy-2**64", "subsidy-2**63", "online-overlap"])
def test_sim_value_that_crashed_a_run_is_config_error(capsys, tmp_path, extra, error):
    """Each of these parsed (or, for the block data limit, crashed the
    parser) and then ended the run with a traceback."""
    bad = tmp_path / "bad.cfg"
    text = ONE_NODE
    if extra.startswith("nodes:"):
        text = text[: text.index("nodes:")] + text[text.index("consensus:"):]
    bad.write_text(text + extra + "\n")
    code, out, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 4 and out == ""
    assert error in err.splitlines()
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_chain_init_rejects_subsidy_beyond_maximum_supply(capsys, tmp_path, data_dir):
    address = keygen(capsys, tmp_path / "keys", "k")
    path = tmp_path / "params.yaml"
    for subsidy in (2**62 + 1, 2**64):
        path.write_text(_params_text(address, {"block_subsidy": str(subsidy)}))
        code, out, err = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
        assert (code, out) == (4, "")
        assert err == f"block_subsidy: must be at most {2**62}\nerror: 1 params error(s)\n"
        assert not data_dir.exists()
    path.write_text(_params_text(address, {"block_subsidy": str(2**62)}))
    code, _, _ = run_cli(capsys, "--data-dir", data_dir, "chain", "init", "--params", path)
    assert code == 0


@pytest.mark.parametrize("role", ["full", "lightweight", None])
def test_sim_hash_share_off_a_publisher_is_config_error(capsys, tmp_path, role):
    """A hash share drives only a publisher's PoW race; on any other node
    it was parsed and then ignored."""
    node = "{name: w, hash_share: 0.5}" if role is None else f"{{name: w, role: {role}, hash_share: 0.5}}"
    bad = tmp_path / "bad.cfg"
    bad.write_text(ONE_NODE.replace("consensus:", f"  - {node}\nconsensus:"))
    code, out, err = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert (code, out) == (4, "")
    assert "nodes[1].hash_share: must be 0 unless the role is publishing" in err.splitlines()
    assert not (tmp_path / "r").exists()
    bad.write_text(ONE_NODE.replace("consensus:", f"  - {node.replace('0.5', '0.0')}\nconsensus:"))
    code, _, _ = run_cli(capsys, "sim", bad, "--out", tmp_path / "r")
    assert code == 0


def test_sim_missing_scenario_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sim", tmp_path / "ghost.cfg", "--out", tmp_path / "r")
    assert code == 3
    assert "not found" in err


# -- hardening: fuzzed argv -------------------------------------------------------------


OPERATOR = derive_address(keypair_generate(bytes.fromhex(SEED_HEX)).public_key).hex()
CONTRACT = derive_contract_address(Address.from_hex(OPERATOR), 0).hex()


@pytest.fixture(scope="module")
def operator_files(tmp_path_factory):
    """A directory to copy for each fuzzed command: a funded chain with one
    contract in the default data directory, a copy under tampered/ whose
    deploy block no longer matches its data hash, one under torn/ with a
    record that fails its checksum and a truncated key store, contract
    source and bytecode, a params file and a short scenario."""
    root = tmp_path_factory.mktemp("operator")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["keygen", "--seed", SEED_HEX, "--label", "op"]) == 0
            (root / "params.yaml").write_text(f"allocation:\n  - [{OPERATOR}, 500]\n")
            (root / "counter.asm").write_text(COUNTER_ASM)
            (root / "one.cfg").write_text(ONE_NODE.replace("duration: 200", "duration: 40"))
            assert main(["chain", "init", "--params", "params.yaml"]) == 0
            assert main(["asm", "counter.asm", "-o", "counter.bin"]) == 0
            assert main(["deploy", "counter.bin", "--fee", "2"]) == 0
            assert f"contract={CONTRACT} " in out.getvalue()
    finally:
        os.chdir(cwd)
    chain = (root / "chainsim-data" / "chain.dat").read_bytes()
    (genesis_length,) = struct.unpack_from(">I", chain, 6)
    start = 6 + 4 + genesis_length + 4  # the deploy block's record
    (length,) = struct.unpack_from(">I", chain, start)
    record = bytearray(chain[start + 4 : start + 4 + length])
    record[50] ^= 0xFF  # in the data hash
    shutil.copytree(root / "chainsim-data", root / "tampered")
    (root / "tampered" / "chain.dat").write_bytes(
        chain[: start + 4] + bytes(record) + sha256(bytes(record))[:4])
    shutil.copytree(root / "chainsim-data", root / "torn")
    (root / "torn" / "chain.dat").write_bytes(chain[:start + 20] + b"\xff" + chain[start + 21 :])
    (root / "torn" / "keys.dat").write_bytes(b"\x01\x00\x00\x00\x05")
    return root


NAMES = ("chainsim-data", "tampered", "torn", "params.yaml", "counter.asm", "counter.bin",
         "one.cfg", "ghost", "chainsim-data/chain.dat", "out")
WORDS = st.sampled_from((
    "keygen", "balance", "chain", "init", "verify", "tip", "inspect", "sim", "asm", "deploy",
    "call", "--data-dir", "--seed", "--label", "--params", "--out", "--fee", "--key", "-o",
    "-v", "--help", "op", "", "-", "--", "0", "1", "-1", "18446744073709551616", "11" * 32, "zz",
    *NAMES,
))
TOKEN = WORDS | st.integers(-(2**70), 2**70).map(str) | st.text(max_size=6).filter(
    lambda t: t != "puzzle")
INT = st.sampled_from(("0", "1", "2", "5", "-1", "600")) | st.integers(-(2**70), 2**70).map(str)
NAME = st.sampled_from(NAMES)


def _argv(*parts):
    """Concatenate strategies that each give a list of tokens."""
    return st.tuples(*parts).map(lambda lists: [t for tokens in lists for t in tokens])


def _one(strategy):
    return strategy.map(lambda token: [token])


def _maybe(*parts):
    return st.just([]) | _argv(*parts)


def _commands():
    """Each subcommand with arguments of the right shape and values that
    are right, wrong or missing, sometimes followed by stray tokens."""
    account = st.sampled_from((OPERATOR, CONTRACT, OPERATOR[:-2] + "00", "zz")) | TOKEN
    key = _maybe(st.just(["--key"]), _one(st.sampled_from(("op", "ghost"))))
    fee = _argv(st.just(["--fee"]), _one(INT))
    commands = st.one_of(
        _argv(st.just(["keygen"]), _maybe(st.just(["--seed"]), _one(st.sampled_from(
            ("11" * 32, "22" * 32, "11" * 31, "zz")))), _maybe(st.just(["--label"]), _one(TOKEN))),
        _argv(st.just(["balance"]), _one(account)),
        _argv(st.just(["chain"]), _one(st.sampled_from(("init", "verify", "tip", "inspect", "x"))),
              _maybe(st.just(["--params"]), _one(NAME))),
        _argv(st.just(["sim"]), _one(NAME), _maybe(st.just(["--out"]), _one(NAME)),
              _maybe(st.just(["--seed"]), _one(INT))),
        _argv(st.just(["asm"]), _one(NAME), _maybe(st.just(["-o"]), _one(NAME))),
        _argv(st.just(["deploy"]), _one(st.just("counter.bin") | NAME), fee, key),
        _argv(st.just(["call"]), _one(account), st.lists(INT, max_size=3), fee, key),
    )
    return _argv(commands, st.just([]) | st.lists(TOKEN, max_size=2))


# The puzzle with at most 3 zeros, or with an end nonce at most 5,000 past
# its start, so that no draw can scan without bound.
PUZZLE = st.one_of(
    _argv(st.just(["puzzle"]), _one(st.text(max_size=6)), _one(st.integers(-2, 3).map(str)),
          _one(st.integers(-3, 2**64).map(str))),
    st.integers(-3, 2**64).flatmap(lambda start: _argv(
        st.just(["puzzle"]), _one(st.text(max_size=6)), _one(st.integers(-2, 70).map(str)),
        st.just([str(start)]), _one(st.integers(-3, 5_000).map(lambda n: str(start + n))))),
)
DATA_DIR = st.sampled_from(("tampered", "torn", "fresh")) | NAME
GLOBAL = _argv(_maybe(st.just(["--data-dir"]), _one(DATA_DIR)), _maybe(st.just(["-v"])))


ARGV = st.sampled_from(("tokens", "command", "command", "command", "puzzle")).flatmap(
    lambda shape: st.lists(TOKEN, max_size=8) if shape == "tokens"
    else _argv(GLOBAL, PUZZLE) if shape == "puzzle"
    else _argv(GLOBAL, _commands()))


def _run_in_copy(root, argv) -> tuple[int, str]:
    """main(argv) in a fresh copy of root: the exit code and stderr."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(root, tmp, dirs_exist_ok=True)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                return main(argv), err.getvalue()
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("argv, expected", [
    (["call", CONTRACT, "7", "--fee", "2"], 0),
    (["deploy", "counter.bin", "--fee", "600"], 1),  # no output that large
    (["--data-dir", "tampered", "chain", "verify"], 2),
    (["--data-dir", "torn", "call", CONTRACT, "--fee", "2"], 3),
    (["--data-dir", "torn", "keygen"], 3),
    (["asm", "chainsim-data/chain.dat"], 4),  # bytes that are not UTF-8
    (["sim", "chainsim-data/chain.dat", "--out", "r"], 4),
    (["chain", "init", "--params", "chainsim-data/chain.dat"], 4),
])
def test_operator_command_exit_code(operator_files, argv, expected):
    code, err = _run_in_copy(operator_files, argv)
    assert code == expected, err
    assert "Traceback" not in err


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=ARGV)
def test_fuzzed_argv_exits_with_a_documented_code(operator_files, argv):
    """Any argv ends in one of the exit codes 0-4, never in an exception,
    run in a fresh copy of the operator directory.  Puzzles are kept to at
    most 3 zeros or an end nonce, so none scans without bound."""
    code, err = _run_in_copy(operator_files, argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err

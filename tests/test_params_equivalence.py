"""Params-file parsing against the earlier hand-written reader.

load_params reads the params file through the scenario key tables.  The
reference below is the reader it replaced, which checked each key by hand,
stopped at its first error and ignored every key it did not know.  On every
valid params file the tests use, the one bench/child.py writes and the one
``chain init`` writes back, the two give equal ChainParams.  Over mutations of
those files the two both accept with equal ChainParams, or both reject with
the reference's error path among load_params's error lines.  The only
differences allowed are the ones _new_only_allowed and _reference_only_allowed
name.  Where the reference raises something other than its CliError (it
iterated an allocation that is a number), load_params must reject the file.
"""

import argparse
import copy
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsim import consensus as cons
from chainsim.chain import ChainParams
from chainsim.cli import EXIT_CONFIG, EXIT_IO, CliError, _save_params
from chainsim.crypto import Address
from chainsim.ledger import MAX_SUPPLY
from chainsim.scenario import ScenarioError, load_params

from test_cli import OPERATOR, _params_text

REPO = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Reference: the reader that checked each key by hand
# ---------------------------------------------------------------------------


def _params_ints(mapping: dict, prefix: str, bounds: dict) -> dict:
    """The keys of bounds that mapping gives, each an integer (not a bool)
    within its (minimum, maximum); a key left out keeps its dataclass
    default.  A maximum of None means no maximum."""
    values = {}
    for key, (minimum, maximum) in bounds.items():
        value = mapping.get(key)
        if value is None:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or value < minimum
            or maximum is not None and value > maximum
        ):
            limit = "" if maximum is None else f" and at most {maximum}"
            raise CliError(
                EXIT_CONFIG, f"{prefix}{key}: expected an integer of at least {minimum}{limit}"
            )
        values[key] = value
    return values


def _parse_params_file(path: str) -> ChainParams:
    try:
        with open(path, "rb") as fh:  # yaml decodes, and reports bytes that are not text
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError:
        raise CliError(EXIT_IO, f"params file not found: {path}")
    except yaml.YAMLError as exc:
        raise CliError(EXIT_CONFIG, f"params file: {exc}")
    if not isinstance(raw, dict):
        raise CliError(EXIT_CONFIG, "params file must be a mapping")
    allocation = []
    for i, pair in enumerate(raw.get("allocation", []) or []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliError(EXIT_CONFIG, f"allocation[{i}]: expected [address_hex, amount]")
        try:
            addr = Address.from_hex(str(pair[0]))
        except ValueError as exc:
            raise CliError(EXIT_CONFIG, f"allocation[{i}]: {exc}")
        if isinstance(pair[1], bool) or not isinstance(pair[1], int) or pair[1] <= 0:
            raise CliError(EXIT_CONFIG, f"allocation[{i}]: amount must be a positive integer")
        allocation.append((addr, pair[1]))
    if sum(amount for _, amount in allocation) > MAX_SUPPLY:
        raise CliError(EXIT_CONFIG, f"allocation: total exceeds the maximum supply {MAX_SUPPLY}")
    consensus = None
    if "pow" in raw and raw["pow"] is not None:
        pow_raw = raw["pow"]
        if not isinstance(pow_raw, dict):
            raise CliError(EXIT_CONFIG, "pow: expected a mapping")
        bits = pow_raw.get("target_bits", 252)
        if not isinstance(bits, int) or not 8 <= bits <= 255:
            raise CliError(EXIT_CONFIG, "pow.target_bits: expected an integer in [8, 255]")
        consensus = cons.PowParams(
            target=1 << bits,
            **_params_ints(
                pow_raw, "pow.", {"retarget_interval": (1, None), "target_spacing": (1, None)}
            ),
        )
    return ChainParams(
        genesis_allocation=tuple(allocation),
        consensus=consensus,
        **_params_ints(raw, "", {
            "confirmation_depth": (1, None),
            "block_subsidy": (0, MAX_SUPPLY),
            "max_block_data_bytes": (1, None),
        }),
    )

# ---------------------------------------------------------------------------
# Valid files
# ---------------------------------------------------------------------------

VALID = [
    f"confirmation_depth: 2\nblock_subsidy: 50\nallocation:\n  - [{OPERATOR}, 500]\n",
    _params_text(OPERATOR, {}),
    _params_text(OPERATOR, {
        "confirmation_depth": "1", "block_subsidy": "0", "max_block_data_bytes": "1",
        "pow.retarget_interval": "1", "pow.target_spacing": "1",
    }),
    _params_text(OPERATOR, {"block_subsidy": str(2**62), "pow.target_bits": "8"}),
    _params_text(OPERATOR, {"pow.target_bits": "255"}),
    f"allocation:\n  - [{OPERATOR}, 500]\npow: {{target_bits: 252}}\n",
    f"allocation:\n  - [{OPERATOR}, 500]\n",
    f"allocation:\n  - [{OPERATOR}, {2**61}]\n  - [{OPERATOR}, {2**61}]\npow: {{}}\n",
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each VALID text as a file, then the params file bench/child.py writes
    for the operator workload."""
    root = tmp_path_factory.mktemp("params")
    paths = []
    for i, text in enumerate(VALID):
        paths.append(root / f"valid{i}.yaml")
        paths[-1].write_text(text)
    subprocess.run([sys.executable, str(REPO / "bench" / "child.py"), "opsetup",
                    str(root / "operator"), "1"], check=True, capture_output=True)
    paths.append(root / "operator" / "params.yaml")
    return paths


def test_valid_files_parse_equal(files, tmp_path):
    """Each valid file, and the params file chain init writes back from it,
    which every later command reads, gives the reference's ChainParams."""
    assert len(files) == len(VALID) + 1
    for path in files:
        params = load_params(str(path))
        assert params == _parse_params_file(str(path)), path.name
        _save_params(argparse.Namespace(data_dir=str(tmp_path)), params)
        saved = str(tmp_path / "params.yaml")
        assert load_params(saved) == _parse_params_file(saved) == params, path.name
    assert load_params(str(files[-1])).genesis_allocation[0][1] == 10**9


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

DELETE = object()
KEYS = ("confirmation_depth", "block_subsidy", "max_block_data_bytes", "allocation", "pow",
        "confirmaton_depth")
POW_KEYS = ("target_bits", "retarget_interval", "target_spacing", "target_bitz")
INTS = st.sampled_from((0, 1, -1, 7, 8, 252, 255, 256, 2**62, 2**62 + 1)) | st.integers()
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
LEAVES = st.none() | st.booleans() | INTS | st.floats(allow_nan=False) | TEXT
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=5,
)
PAIR = st.tuples(st.sampled_from((OPERATOR, OPERATOR[:-2], "zz")) | VALUES, INTS | VALUES).map(list)
EDIT = st.one_of(
    st.tuples(st.just("top"), st.sampled_from(KEYS), VALUES | st.just(DELETE)),
    st.tuples(st.just("pow"), st.sampled_from(POW_KEYS), VALUES | st.just(DELETE)),
    st.tuples(st.just("top"), st.just("allocation"), st.lists(PAIR | VALUES, max_size=3)),
    st.tuples(st.just("document"), st.none(), VALUES),
)


def _mutate(raw, edits):
    for where, key, value in edits:
        if where == "document":
            raw = value
            continue
        if not isinstance(raw, dict):
            continue
        table = raw
        if where == "pow":
            if not isinstance(raw.get("pow"), dict):
                raw["pow"] = {}
            table = raw["pow"]
        if value is DELETE:
            table.pop(key, None)
        else:
            table[key] = value
    return raw


def _new_only_allowed(raw, line: str) -> bool:
    """An error load_params reports in a file the reference accepted: a key
    it ignored, or a document or allocation of the wrong type that is falsy,
    which the reference read as empty."""
    return (
        line.endswith(": unknown key")
        or line.startswith("top level: expected a mapping") and not raw
        or line.startswith("allocation: expected a list") and not raw.get("allocation")
    )


def _reference_only_allowed(raw, message: str) -> bool:
    """The reference's error for a file load_params accepts: a null
    target_bits, which every table reader counts as left out."""
    return (message == "pow.target_bits: expected an integer in [8, 255]"
            and raw["pow"]["target_bits"] is None)


def _paths_agree(reference: str, errors: list[str]) -> bool:
    """The key path of the reference's one error starts one of errors.  An
    allocation that is text or a mapping the reference iterated, and named
    its first item."""
    if reference == "params file must be a mapping":
        path = "top level"
    else:
        path = reference.split(": ", 1)[0]
    if path.startswith("allocation[") and any(
            line.startswith("allocation: expected a list") for line in errors):
        return True
    return any(line.startswith(path + ": ") for line in errors)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(VALID), edits=st.lists(EDIT, min_size=1, max_size=3))
def test_mutated_files_agree_with_reference(tmp_path_factory, base, edits):
    raw = _mutate(copy.deepcopy(yaml.safe_load(base)), edits)
    path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    path.write_text(yaml.safe_dump(raw))
    try:
        want, reference = _parse_params_file(str(path)), None
    except CliError as exc:
        want, reference = None, exc.message
    except TypeError:
        want, reference = None, TypeError
    try:
        got, errors = load_params(str(path)), None
    except ScenarioError as exc:
        got, errors = None, exc.errors
    if reference is TypeError:
        assert errors, raw
    elif reference is None and errors is None:
        assert got == want, raw
    elif reference is None:
        assert all(_new_only_allowed(raw, line) for line in errors), (raw, errors)
    elif errors is None:
        assert _reference_only_allowed(raw, reference), (raw, reference)
    else:
        assert (_paths_agree(reference, errors)
                or _reference_only_allowed(raw, reference)), (raw, reference, errors)

"""Tests for the benchmark's own code: tracer, metric table, output checks."""

from __future__ import annotations

import hashlib
import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from chainsim import crypto, ledger, netsim, scenario  # noqa: E402

TINY = {
    "seed": 5,
    "duration": 120,
    "production_stop": 100,
    "consensus": {"model": "pow", "target_bits": 250, "target_spacing": 10},
    "topology": {"latency": 1, "jitter": 1},
    "workload": {"tx_interval": 7, "tx_amount": 3, "tx_fee": 1},
    "nodes": [{"name": f"n{i}", "role": "publishing", "hash_share": 0.25, "balance": 100}
              for i in range(4)],
}


def _digest(raw: dict) -> str:
    config = scenario.parse_scenario(raw)
    return netsim.Simulation(netsim.prepare_config(config)).run().event_log_digest().hex()


@pytest.fixture
def traced():
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        yield t
    finally:
        uninstall()


def test_wrapper_keeps_return_value_and_exception():
    t = tracer.Tracer()

    def ok(a, b=2):
        return (a, b)

    def boom():
        raise KeyError("x")

    assert t.wrap("crypto", "crypto.ok", ok)(1, b=3) == (1, 3)
    with pytest.raises(KeyError):
        t.wrap("crypto", "crypto.boom", boom)()
    assert t.calls["crypto.ok"] == 1 and t.calls["crypto.boom"] == 1
    assert not t._stack


def test_self_time_excludes_nested_spans_of_other_layers():
    t = tracer.Tracer()
    inner = t.wrap("crypto", "crypto.inner", lambda: sum(range(20000)))
    same = t.wrap("chain", "chain.same", lambda: inner())
    outer = t.wrap("chain", "chain.outer", lambda: (same(), inner()))
    outer()
    assert t.self_s["chain"] == pytest.approx(
        t.time_s["chain.outer"] - t.time_s["crypto.inner"], abs=1e-9)
    assert t.self_s["crypto"] == pytest.approx(t.time_s["crypto.inner"], abs=1e-9)


def test_wrapped_generator_and_property(traced):
    utxo = ledger.UtxoSet()
    alice = crypto.keypair_generate(bytes(32))
    address = crypto.derive_address(alice.public_key)
    coinbase = ledger.make_coinbase([(address, 10), (address, 5)], 0)
    for i, out in enumerate(coinbase.outputs):
        utxo.add((coinbase.tx_id, i), out, False, 0)
    utxo.spend((coinbase.tx_id, 1), 1)
    live = list(utxo.live_entries())
    assert [op for op, _ in live] == [(coinbase.tx_id, 0)]
    assert traced.extra["ledger.UtxoSet.live_entries.entries"] == 1
    assert traced.calls["ledger.UtxoSet.live_entries"] == 1
    assert isinstance(ledger.Transaction.tx_id, property)
    assert coinbase.tx_id == crypto.sha256(coinbase.serialize(zero_signatures=True))
    assert traced.calls["ledger.Transaction.tx_id"] >= 3


def test_every_binding_is_patched_and_restored():
    original = crypto.verify
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        from chainsim import consensus

        assert ledger.verify is crypto.verify is consensus.verify is not original
    finally:
        uninstall()
    assert ledger.verify is crypto.verify is original


def test_a_missed_binding_fails_loudly(monkeypatch):
    stray = types.ModuleType("chainsim._stray")
    stray.sha256_alias = [crypto.sha256]  # hidden in a container, not patched
    monkeypatch.setitem(sys.modules, "chainsim._stray", stray)
    original = crypto.sha256
    with pytest.raises(RuntimeError, match="untraced bindings remain"):
        tracer.install(tracer.Tracer())
    assert crypto.sha256 is original


def test_tiny_config_gives_equal_digests_traced_and_untraced():
    untraced = _digest(TINY)
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        assert _digest(TINY) == untraced
    finally:
        uninstall()
    assert t.calls["chain.ChainStore.append_block"] > 0
    assert t.calls["netsim.Simulation.run"] == 1
    assert _digest(TINY) == untraced


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in run.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert name.fullmatch(metric["name"]), metric["name"]


def test_layer_metrics_report_explicit_zeros():
    values = run.layer_metrics(dict(run.merge_traces([]), overhead_s=0.0))
    assert set(values) == {n for n, _, _ in run.PER_LAYER}
    assert all(v == 0 for v in values.values())


def test_operator_output_checks():
    assert run.check_cli_output("verify", "Ok\n", 0, 0) == "Ok"
    assert run.check_cli_output("call", "status=Ok output=7 gas_used=12\n", 7, 0)
    with pytest.raises(ValueError):
        run.check_cli_output("call", "status=Ok output=8 gas_used=12\n", 7, 0)
    nonce = 311895
    digest = hashlib.sha256(f"{workloads.PUZZLE_PREFIX}{nonce}".encode()).hexdigest()
    line = f"nonce={nonce} digest={digest} attempts={nonce + 1} elapsed=0.4s\n"
    assert run.check_cli_output("puzzle", line, 0, nonce) == f"nonce={nonce} digest={digest}"
    with pytest.raises(ValueError):
        run.check_cli_output("puzzle", line.replace(digest, "0" * 64), 0, nonce)


def test_every_pass_seed_has_pins():
    golden = json.loads(run.GOLDEN.read_text())
    cycle = workloads.CYCLE
    for seed in (-5, 0, workloads.DEFAULT_SEED, 2, 10**30):
        inputs = [workloads.pass_seed(seed, i) for i in range(2 * cycle)]
        # whole cycles repeat the same inputs, so every run times the same mix
        assert inputs[:cycle] == inputs[cycle:] and len(set(inputs)) == cycle
        assert set(inputs) <= set(range(1, workloads.POOL + 1))
    assert workloads.pass_seed(workloads.DEFAULT_SEED, 0) == 1
    for workload in workloads.SIM_WORKLOADS:
        assert set(golden[workload]) == {str(k) for k in range(1, workloads.POOL + 1)}


def test_runs_make_whole_cycles_of_passes():
    for workload in workloads.WORKLOADS:
        for seconds in (1, 30, 60):
            count = run.pass_count(workload, seconds)
            assert count >= workloads.CYCLE and count % workloads.CYCLE == 0


def test_reference_runs_in_a_fresh_interpreter():
    assert 0 < run.reference_s() < run.CHILD_TIMEOUT_S


def test_every_payments_input_reaches_height_150():
    golden = json.loads(run.GOLDEN.read_text())
    heights = [runs["payments_pow_n10"]["tip_height"]
               for runs in golden["payments_pow_n10"].values()]
    assert len(heights) == workloads.POOL and min(heights) >= 150

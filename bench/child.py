"""One benchmark child process: set up, run one pass, report as JSON.

    python3 bench/child.py sim <workload> <seed> [--trace | --setup-only]
    python3 bench/child.py opsetup <data_dir> <seed>
    python3 bench/child.py cli <data_dir> [--trace] -- <chainsim argv...>

``sim`` and ``opsetup`` print one JSON object as the last stdout line;
``--setup-only`` stops ``sim`` after set-up, to sample set-up time alone.
``cli`` calls ``chainsim.cli.main`` and leaves stdout to the command, so that
its output can be checked byte for byte; its JSON report is the last stderr line,
after the marker ``BENCH``.  ``setup_done`` is ``time.monotonic()``, a clock
shared by every process on the machine, so the parent can measure set-up from
before the interpreter started.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.  VmHWM starts afresh at exec;
    ru_maxrss would also count the parent's pages shared before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tracer(enabled: bool):
    if not enabled:
        return None
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    return t


def run_sim(workload: str, seed: int, trace: bool, setup_only: bool) -> dict:
    from chainsim import netsim, scenario

    t = _tracer(trace)
    sims = []
    for name, raw in workloads.sim_inputs(workload, seed):
        config = scenario.parse_scenario(raw)
        sims.append((name, netsim.Simulation(netsim.prepare_config(config))))
    setup_done = time.monotonic()
    if setup_only:
        return {"setup_done": setup_done}

    outputs = {}
    wall = 0.0
    event_log_lines = 0
    states_retained = 0
    while sims:
        # drop each finished simulation so peak RSS is that of the largest
        name, sim = sims.pop(0)
        start = time.perf_counter()
        result = sim.run()
        wall += time.perf_counter() - start
        outputs[name] = {
            "digest": result.event_log_digest().hex(),
            "summary": netsim.summary_row(result),
            "tip_height": max(node.tip_height() for node in result.nodes.values()),
        }
        event_log_lines += len(result.event_log)
        states_retained += sum(
            len(node.store.states) for node in result.nodes.values() if node.store
        )
        del sim, result
    report = {
        "setup_done": setup_done,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": outputs,
    }
    if t is not None:
        report["trace"] = dict(
            t.raw(), event_log_lines=event_log_lines, states_retained=states_retained
        )
    return report


def build_operator_dir(data_dir: str, seed: int) -> dict:
    """Key store, params file and a chain of OPERATOR_HEIGHT blocks, built
    with library calls: block 1 deploys the counter contract, every later
    block calls it once and carries OPERATOR_PAYMENTS payments."""
    import yaml

    from chainsim import chain, contracts, crypto, ledger

    keys = [crypto.keypair_generate(s) for s in workloads.operator_key_seeds(seed)]
    addresses = [crypto.derive_address(k.public_key) for k in keys]
    operator, op_address = keys[0], addresses[0]
    params = chain.ChainParams(
        confirmation_depth=6,
        block_subsidy=50,
        max_block_data_bytes=65536,
        genesis_allocation=((op_address, 10**9),),
    )
    os.makedirs(data_dir, exist_ok=True)
    with open(os.path.join(data_dir, "params.yaml"), "w") as fh:
        yaml.safe_dump({
            "confirmation_depth": params.confirmation_depth,
            "block_subsidy": params.block_subsidy,
            "max_block_data_bytes": params.max_block_data_bytes,
            "allocation": [[op_address.hex(), 10**9]],
        }, fh)
    crypto.save_keystore(os.path.join(data_dir, "keys.dat"), [
        crypto.KeystoreRecord(seed=s, address_version=crypto.USER_ADDRESS_VERSION,
                              label=f"k{i}")
        for i, s in enumerate(workloads.operator_key_seeds(seed))
    ])

    store = chain.ChainStore(params, chain.make_genesis(params), ledger.Mempool())
    genesis_coinbase = store.tip.transactions[0]
    wallet = (genesis_coinbase.tx_id, 0)  # the operator's running change output
    code = contracts.assemble(workloads.COUNTER_ASM)
    contract = contracts.derive_contract_address(op_address, 0)
    fee = workloads.OPERATOR_FEE

    for height in range(1, workloads.OPERATOR_HEIGHT + 1):
        view = store.tip_state().utxo.copy()
        txs = []

        def spend(pay, **kw):
            nonlocal wallet
            tx = ledger.build_transaction([wallet], pay, fee, [operator], view, **kw)
            view.spend(wallet, height)
            for i, out in enumerate(tx.outputs):
                view.add((tx.tx_id, i), out, False, height)
            wallet = (tx.tx_id, len(tx.outputs) - 1)
            txs.append(tx)

        if height == 1:
            spend([], kind=ledger.TxKind.CONTRACT_DEPLOY, payload=code)
        else:
            spend([(contract, 0)], kind=ledger.TxKind.CONTRACT_CALL,
                  payload=contracts.encode_call_payload([]))
            for j in range(workloads.OPERATOR_PAYMENTS):
                recipient = addresses[1 + (height * workloads.OPERATOR_PAYMENTS + j)
                                      % workloads.OPERATOR_RECIPIENTS]
                spend([(recipient, 1 + (height + j) % 7)])
        block = store.make_candidate(op_address, txs, timestamp=store.tip.header.timestamp + 1)
        result = store.append_block(block)
        if result.status != chain.EXTENDED:
            raise RuntimeError(f"set-up block {height}: {result.status} {result.reason}")
    chain.persist(store, os.path.join(data_dir, "chain.dat"))
    counter = store.tip_state().registry[contract.to_bytes()].storage.get(0, 0)
    return {"contract": contract.hex(), "counter": counter}


def run_opsetup(data_dir: str, seed: int) -> dict:
    report = build_operator_dir(data_dir, seed)
    report["setup_done"] = time.monotonic()
    report["peak_rss_mb"] = _peak_rss_mb()
    return report


def run_cli(data_dir: str, argv: list[str], trace: bool) -> int:
    from chainsim import cli

    t = _tracer(trace)
    code = cli.main(["--data-dir", data_dir] + argv)
    sys.stdout.flush()
    report = {"code": code, "peak_rss_mb": _peak_rss_mb()}
    if t is not None:
        report["trace"] = dict(t.raw(), states_retained=t.states_retained())
    print("BENCH " + json.dumps(report), file=sys.stderr)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "sim":
        flags = argv[3:]
        report = run_sim(argv[1], int(argv[2]), "--trace" in flags, "--setup-only" in flags)
    elif mode == "opsetup":
        report = run_opsetup(argv[1], int(argv[2]))
    elif mode == "cli":
        split = argv.index("--")
        return run_cli(argv[1], argv[split + 1:], "--trace" in argv[2:split])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

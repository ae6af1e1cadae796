"""chainsim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  Every pass runs in fresh interpreters
(``bench/child.py``), so no cache survives between passes or workloads and
peak RSS is per pass.  Pass i times the input ``workloads.pass_seed(seed, i)``;
a run makes whole cycles of ``workloads.CYCLE`` inputs, a number of passes
fixed per workload (see ``pass_count``).  After each untraced pass,
EXTRA_SETUPS setup-only children sample set-up time.  Every pass is checked:
simulator event-log digests, summary rows and tip heights against the pins in
``bench/golden.json`` for its input; operator commands by exit code and exact
stdout.  A mismatch is a failed operation.

``--trace 0`` reports the end-to-end metrics, medians over the run's passes
(for ``setup_s``, over all its set-ups).  Times are scaled to a reference
speed of the machine: the runner times REFERENCE, a fixed computation, in a
fresh interpreter before the first pass and after each pass with its set-ups,
and multiplies that step's times by REFERENCE_S over the mean of the two
reference times around it.
``--trace 1`` alternates untraced and traced passes, requires each traced
pass to reproduce the untraced outputs, and reports the per-layer metrics.

The last stdout line is the result object; the line before it holds the
provenance, every pass's figures and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
WORK_DIR = HERE / "_work"
EXTRA_SETUPS = 2
# Seconds per untraced pass, set-up samples included, that size each
# workload's pass count (see ``pass_count``): about what a pass took on a
# 2-CPU virtual machine with Python 3.11.7 when the benchmark was defined.
PASS_S = {"payments_pow_n10": 10.0, "bundled_scenarios": 4.5, "operator_cli": 6.5}
CHILD_TIMEOUT_S = 150
# On a shared 2-CPU virtual machine, speed drifted by up to 1.7x over minutes,
# for every process alike (bench/README.md, Steadiness).  Timing this
# computation around each pass and scaling by it cancels most of that drift.
# It allocates dicts, tuples and strings, hashes with SHA-256 and sorts, as
# the simulator does, and it runs in a fresh interpreter, as every pass does.
REFERENCE = """
import hashlib
table = {}
for i in range(120000):
    table[(i, i * 7)] = [hashlib.sha256(b"%d" % i).digest(), str(i)]
total = 0
for key, value in table.items():
    total += key[0] + len(value[1])
sorted(table, key=lambda key: key[1] % 1013)
"""
REFERENCE_S = 0.5  # its wall time on that machine when the benchmark was defined
# no new pass starts after this, so a run ends well inside 180 s
LAST_START_S = 100

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("netsim", "chain", "ledger", "crypto", "consensus", "merkle", "contracts",
          "scenario", "cli")
CLI_KINDS = ("verify", "call", "puzzle")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer_table():
    """(name, unit, getter) for every per-layer metric; a getter reads the
    merged trace of one pass (see ``merge_traces``)."""
    table = [(f"{layer}.self_s", "s", lambda r, layer=layer: r["self_s"][layer])
             for layer in LAYERS]

    def calls(name, key):
        table.append((name, "count", lambda r: r["calls"][key]))

    def secs(name, key):
        table.append((name, "s", lambda r: r["time_s"][key]))

    def derived(name, getter, unit="count"):
        table.append((name, unit, getter))

    def extra(name):
        derived(name, lambda r: r["extra"][name])

    calls("netsim.peers_of.calls", "netsim.Simulation.peers_of")
    secs("netsim.peers_of.time_s", "netsim.Simulation.peers_of")
    secs("netsim.chain_agreement.time_s", "netsim.Simulation.chain_agreement")
    calls("netsim.submit_transaction.calls", "netsim.Simulation.submit_transaction")
    derived("netsim.event_log_lines", lambda r: r["event_log_lines"])

    calls("chain.append_block.calls", "chain.ChainStore.append_block")
    secs("chain.append_block.time_s", "chain.ChainStore.append_block")
    derived("chain.append_block.duplicate_ratio", lambda r: _ratio(
        r["extra"]["chain.append_block.duplicates"], r["calls"]["chain.ChainStore.append_block"]),
        "fraction")
    for status in ("Extended", "NewSideBranch", "Reorganized", "Rejected"):
        extra(f"chain.append_block.status.{status}")
    for name in ("header_hash", "validate_and_apply", "ChainState.clone"):
        calls(f"chain.{name}.calls", f"chain.{name}")
        secs(f"chain.{name}.time_s", f"chain.{name}")
    for name in ("ChainStore.make_candidate", "load", "persist", "verify_blocks"):
        secs(f"chain.{name}.time_s", f"chain.{name}")
    derived("chain.states_retained", lambda r: r["states_retained"])

    calls("ledger.validate_transaction.calls", "ledger.validate_transaction")
    secs("ledger.validate_transaction.time_s", "ledger.validate_transaction")
    calls("ledger.Transaction.tx_id.calls", "ledger.Transaction.tx_id")
    calls("ledger.Transaction.serialize.calls", "ledger.Transaction.serialize")
    calls("ledger.Mempool.add.calls", "ledger.Mempool.add")
    derived("ledger.Mempool.add.accept_ratio", lambda r: _ratio(
        r["extra"]["ledger.Mempool.add.accepted"], r["calls"]["ledger.Mempool.add"]), "fraction")
    secs("ledger.Mempool.take.time_s", "ledger.Mempool.take")
    secs("ledger.Mempool.drop_conflicting.time_s", "ledger.Mempool.drop_conflicting")
    calls("ledger.UtxoSet.copy.calls", "ledger.UtxoSet.copy")
    extra("ledger.UtxoSet.copy.entries")
    calls("ledger.UtxoSet.live_entries.calls", "ledger.UtxoSet.live_entries")
    extra("ledger.UtxoSet.live_entries.entries")
    calls("ledger.build_transaction.calls", "ledger.build_transaction")

    calls("crypto.sha256.calls", "crypto.sha256")
    calls("crypto.verify.calls", "crypto.verify")
    secs("crypto.verify.time_s", "crypto.verify")
    derived("crypto.verify.distinct_ratio", lambda r: _ratio(
        r["verify_distinct"], r["calls"]["crypto.verify"]), "fraction")
    calls("crypto.sign.calls", "crypto.sign")
    derived("crypto.HashStream.draws", lambda r: (
        r["calls"]["crypto.HashStream.u64"] + r["extra"]["crypto.HashStream.draws"]))
    secs("crypto.solve_string_puzzle.time_s", "crypto.solve_string_puzzle")
    derived("crypto.solve_string_puzzle.hashes_per_s", lambda r: _ratio(
        r["extra"]["crypto.solve_string_puzzle.attempts"],
        r["time_s"]["crypto.solve_string_puzzle"]), "1/s")

    for name in ("verify_header_proof", "stake_view"):
        calls(f"consensus.{name}.calls", f"consensus.{name}")
        secs(f"consensus.{name}.time_s", f"consensus.{name}")
    calls("consensus.pow_retarget.calls", "consensus.pow_retarget")

    calls("merkle.merkle_root.calls", "merkle.merkle_root")
    secs("merkle.merkle_root.time_s", "merkle.merkle_root")
    calls("merkle.merkle_proof.calls", "merkle.merkle_proof")
    calls("merkle.verify_proof.calls", "merkle.verify_proof")

    calls("contracts.execute.calls", "contracts.execute")
    secs("contracts.execute.time_s", "contracts.execute")
    derived("contracts.gas", lambda r: r["extra"]["contracts.gas"], "gas")
    calls("contracts.clone_registry.calls", "contracts.clone_registry")

    secs("scenario.parse_scenario.time_s", "scenario.parse_scenario")

    for kind in CLI_KINDS:
        derived(f"cli.main.{kind}.time_s", lambda r, kind=kind: r["cli_main_s"][kind], "s")
    derived("cli.process_overhead_s", lambda r: r["cli_overhead_s"], "s")
    derived("trace.overhead_s", lambda r: r["overhead_s"], "s")
    return table


PER_LAYER = _per_layer_table()


def layer_metrics(merged: dict) -> dict[str, float]:
    return {name: getter(merged) for name, _, getter in PER_LAYER}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the trace reports of the processes that made up one pass."""
    merged = {"calls": Counter(), "time_s": Counter(), "self_s": Counter(), "extra": Counter(),
              "verify_distinct": 0, "states_retained": 0, "event_log_lines": 0,
              "cli_main_s": Counter(), "cli_overhead_s": 0.0}
    for trace in traces:
        for key, value in trace.items():
            if isinstance(merged[key], Counter):
                merged[key].update(value)
            else:
                merged[key] += value
    return merged


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    attempted: int
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_s: float | None = None
    setup_s: list = field(default_factory=list)  # the pass's own, then setup-only samples
    peak_rss_mb: float | None = None
    outputs: dict = field(default_factory=dict)
    trace: dict | None = None  # merged trace, traced passes only
    scale: float = 1.0  # REFERENCE_S over the reference time around the pass

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def check_against(self, expected: dict) -> None:
        """Count every output that differs from ``expected`` as failed."""
        for name, value in self.outputs.items():
            if expected.get(name) != value:
                self.fail(f"{name}: output {value!r} != expected {expected.get(name)!r}")


def _spawn(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(CHILD)] + argv, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def _tail(text: str) -> str:
    return " | ".join(text.strip().splitlines()[-3:])


def _report(proc: subprocess.CompletedProcess, stream: str = "stdout", marker: str = ""):
    """The JSON object a child printed as the last line of ``stream``, after
    ``marker``; None if the child failed or printed no such line."""
    lines = getattr(proc, stream).strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(marker):
        return None
    try:
        return json.loads(lines[-1][len(marker):])
    except ValueError:
        return None


def sim_pass(workload: str, seed: int, trace: bool) -> Pass:
    runs = len(workloads.scenario_files()) if workload == "bundled_scenarios" else 1
    p = Pass(attempted=runs)
    started = time.monotonic()
    try:
        proc = _spawn(["sim", workload, str(seed)] + (["--trace"] if trace else []))
    except subprocess.TimeoutExpired:
        p.fail(f"{workload}: child timed out", runs)
        return p
    report = _report(proc)
    if report is None:
        p.fail(f"{workload}: exit {proc.returncode}: {_tail(proc.stderr)}", runs)
        return p
    p.setup_s.append(report["setup_done"] - started)
    p.wall_s = report["wall_s"]
    p.peak_rss_mb = report["peak_rss_mb"]
    p.outputs = report["outputs"]
    if len(p.outputs) < runs:
        p.fail(f"{workload}: {len(p.outputs)} runs reported, {runs} expected",
               runs - len(p.outputs))
    if trace:
        p.trace = merge_traces([report["trace"]])
    return p


_PUZZLE_LINE = re.compile(r"nonce=(\d+) digest=([0-9a-f]{64}) attempts=(\d+) elapsed=[0-9.]+s\n")


def check_cli_output(kind: str, stdout: str, expected_call_output: int, puzzle_nonce: int) -> str:
    """The output an operator command must print, normalised for comparison;
    raises ValueError if ``stdout`` is not that output."""
    if kind == "verify":
        expected = "Ok\n"
    elif kind == "call":
        expected = f"status=Ok output={expected_call_output} gas_used=12\n"
    else:
        match = _PUZZLE_LINE.fullmatch(stdout)
        if match is None:
            raise ValueError(f"puzzle: unparsable output {stdout!r}")
        nonce, digest, attempts = int(match[1]), match[2], int(match[3])
        text = f"{workloads.PUZZLE_PREFIX}{nonce}".encode()
        if hashlib.sha256(text).hexdigest() != digest:
            raise ValueError(f"puzzle: digest does not hash from nonce {nonce}")
        if not digest.startswith("0" * workloads.PUZZLE_ZEROS):
            raise ValueError(f"puzzle: digest {digest} lacks {workloads.PUZZLE_ZEROS} zeros")
        if nonce != puzzle_nonce or attempts != nonce + 1:
            raise ValueError(f"puzzle: nonce {nonce} attempts {attempts}, "
                             f"expected the lowest nonce {puzzle_nonce}")
        return f"nonce={nonce} digest={digest}"
    if stdout != expected:
        raise ValueError(f"{kind}: printed {stdout!r}, expected {expected!r}")
    return stdout.strip()


def operator_pass(seed: int, trace: bool, puzzle_nonce: int) -> Pass:
    p = Pass(attempted=1)
    WORK_DIR.mkdir(exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix="operator-", dir=WORK_DIR)
    try:
        started = time.monotonic()
        try:
            proc = _spawn(["opsetup", data_dir, str(seed)])
        except subprocess.TimeoutExpired:
            p.fail("set-up: child timed out")
            return p
        setup = _report(proc)
        if setup is None:
            p.fail(f"set-up: exit {proc.returncode}: {_tail(proc.stderr)}")
            return p
        p.setup_s.append(setup["setup_done"] - started)

        commands = workloads.operator_commands(setup["contract"])
        p.attempted += len(commands)
        traces, cli_main_s, overhead_s, peak = [], Counter(), 0.0, 0.0
        next_output = setup["counter"] + 1
        pass_start = time.monotonic()
        for index, (kind, argv) in enumerate(commands):
            child_start = time.monotonic()
            try:
                proc = _spawn(["cli", data_dir] + (["--trace"] if trace else []) + ["--"] + argv)
            except subprocess.TimeoutExpired:
                p.fail(f"{kind}: child timed out")
                continue
            child_wall = time.monotonic() - child_start
            report = _report(proc, "stderr", "BENCH ")
            if report is None:
                p.fail(f"{kind}: exit {proc.returncode}: {_tail(proc.stderr)}")
                continue
            peak = max(peak, report["peak_rss_mb"])
            try:
                p.outputs[f"{index}:{kind}"] = check_cli_output(
                    kind, proc.stdout, next_output, puzzle_nonce)
            except ValueError as exc:
                p.fail(str(exc))
            if kind == "call":
                next_output += 1
            if trace:
                main_s = report["trace"]["time_s"]["cli.main"]
                cli_main_s[kind] += main_s
                overhead_s += child_wall - main_s
                traces.append(report["trace"])
        p.wall_s = time.monotonic() - pass_start
        p.peak_rss_mb = peak
        if trace:
            p.trace = merge_traces(traces)
            p.trace["cli_main_s"] = cli_main_s
            p.trace["cli_overhead_s"] = overhead_s
        return p
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def sample_setup(p: Pass, workload: str, seed: int) -> None:
    """Add the set-up time of one setup-only child to ``p``."""
    p.attempted += 1
    data_dir = None
    if workload == "operator_cli":
        WORK_DIR.mkdir(exist_ok=True)
        data_dir = tempfile.mkdtemp(prefix="setup-", dir=WORK_DIR)
        argv = ["opsetup", data_dir, str(seed)]
    else:
        argv = ["sim", workload, str(seed), "--setup-only"]
    try:
        started = time.monotonic()
        proc = _spawn(argv)
    except subprocess.TimeoutExpired:
        p.fail("set-up sample: child timed out")
        return
    finally:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
    report = _report(proc)
    if report is None:
        p.fail(f"set-up sample: exit {proc.returncode}: {_tail(proc.stderr)}")
        return
    p.setup_s.append(report["setup_done"] - started)


def run_pass(workload: str, seed: int, trace: bool, golden: dict) -> Pass:
    if workload == "operator_cli":
        return operator_pass(seed, trace, golden["operator_cli"]["puzzle_nonce"])
    return sim_pass(workload, seed, trace)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run of ``seconds``: the whole cycles of inputs that took
    about that long at the commit that defined the benchmark, at least one.
    The count does not depend on the speed of the code under test, so a
    change is timed on the same inputs, as often, as its parent."""
    cycle = workloads.CYCLE
    return cycle * max(1, round(seconds / (cycle * PASS_S[workload])))


def reference_s() -> float:
    """Wall time of REFERENCE in a fresh interpreter."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE], check=True, timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - started


def timed_passes(workload: str, seed: int, seconds: float, golden: dict, traced: bool):
    """``pass_count`` untraced passes, or untraced/traced pairs.  Pass i runs
    the input ``workloads.pass_seed(seed, i)``; simulator outputs must equal
    its pins.  Returns (untraced, traced) passes."""
    pins = golden[workload] if workload in workloads.SIM_WORKLOADS else None
    plain, traced_passes = [], []
    started = time.monotonic()
    reference = None if traced else reference_s()
    for index in range(pass_count(workload, seconds)):
        input_seed = workloads.pass_seed(seed, index)
        p = run_pass(workload, input_seed, False, golden)
        if pins is not None:
            p.check_against(pins[str(input_seed)])
        if not traced:
            for _ in range(EXTRA_SETUPS):
                sample_setup(p, workload, input_seed)
            after = reference_s()
            p.scale = REFERENCE_S / ((reference + after) / 2)
            reference = after
        plain.append(p)
        if traced:
            t = run_pass(workload, input_seed, True, golden)
            if pins is not None:
                t.check_against(pins[str(input_seed)])
            if not t.failed and t.outputs != p.outputs:
                t.fail("traced pass did not reproduce the untraced outputs")
            traced_passes.append(t)
        if time.monotonic() - started > LAST_START_S:
            break
    return plain, traced_passes


def _median(values: list) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _quartiles(values: list) -> list:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return values * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def provenance() -> dict:
    try:
        crypto_version = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chainsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "baseline": "compare against this benchmark's own runs, not the ROADMAP table",
    }


def main(argv: list[str] | None = None) -> int:
    # exit through SystemExit on SIGTERM, so subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "chainsim" / "__init__.py", workloads.SCENARIO_DIR)
               if not p.exists()]
    if missing:
        print(f"error: not a chainsim source tree, missing {missing}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())

    info = dict(provenance(), loadavg_before=os.getloadavg())
    plain, traced = timed_passes(args.workload, args.seed, args.seconds, golden,
                                 bool(args.trace))
    info["loadavg_after"] = os.getloadavg()
    everything = plain + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)

    if args.trace:
        per_pass = []
        for u, t in zip(plain, traced):
            if t.trace is None:
                continue
            overhead = t.wall_s - u.wall_s if u.wall_s is not None else 0.0
            per_pass.append(layer_metrics(dict(t.trace, overhead_s=overhead)))
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": _median([m[name] for m in per_pass]), "unit": units[name]}
                   for name in units}
    else:
        samples = {"wall_s": [p.wall_s * p.scale for p in plain if p.wall_s is not None],
                   "setup_s": [x * p.scale for p in plain for x in p.setup_s],
                   "peak_rss_mb": [p.peak_rss_mb for p in plain]}
        metrics = {name: {"value": _median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": info,
        "error_rate": failed / attempted if attempted else 1.0,
        "wall_s_quartiles": _quartiles(
            [p.wall_s * p.scale for p in plain if p.wall_s is not None]),
        "unscaled_wall_s_median": _median([p.wall_s for p in plain]),
        "unscaled_setup_s_median": _median([x for p in plain for x in p.setup_s]),
        "passes": [{"traced": p.trace is not None, "wall_s": p.wall_s, "setup_s": p.setup_s,
                    "scale": p.scale, "peak_rss_mb": p.peak_rss_mb,
                    "attempted": p.attempted, "failed": p.failed} for p in everything],
        "errors": [e for p in everything for e in p.errors][:20],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

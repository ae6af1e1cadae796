"""Span tracer that wraps chainsim's public names from outside the package.

Each traced name is replaced, in every chainsim module that bound it (the
defining module and every ``from ... import`` of it), by a wrapper that
records a call count, inclusive time and the layer's self time.  A layer's
self time is the time spent in its spans minus the time covered by nested
spans of other layers; nested spans of the same layer stay in the outer span.

After patching, ``install`` asserts that no chainsim module still holds an
original object, so a missed binding fails loudly instead of under-counting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

# (module, qualified name, kind); the layer is the module's short name.
# kind: "func" module-level function, "method" plain method, "property"
# a property's getter, "iter" a method returning an iterator whose items
# are counted.
TRACED = (
    ("netsim", "Simulation.run", "method"),
    ("netsim", "Simulation.peers_of", "method"),
    ("netsim", "Simulation.chain_agreement", "method"),
    ("netsim", "Simulation.submit_transaction", "method"),
    ("chain", "ChainStore.append_block", "method"),
    ("chain", "header_hash", "func"),
    ("chain", "validate_and_apply", "func"),
    ("chain", "ChainState.clone", "method"),
    ("chain", "ChainStore.make_candidate", "method"),
    ("chain", "load", "func"),
    ("chain", "persist", "func"),
    ("chain", "verify_blocks", "func"),
    ("ledger", "validate_transaction", "func"),
    ("ledger", "Transaction.tx_id", "property"),
    ("ledger", "Transaction.serialize", "method"),
    ("ledger", "Mempool.add", "method"),
    ("ledger", "Mempool.take", "method"),
    ("ledger", "Mempool.drop_conflicting", "method"),
    ("ledger", "UtxoSet.copy", "method"),
    ("ledger", "UtxoSet.live_entries", "iter"),
    ("ledger", "build_transaction", "func"),
    ("crypto", "sha256", "func"),
    ("crypto", "verify", "func"),
    ("crypto", "sign", "func"),
    ("crypto", "HashStream.u64", "method"),
    ("crypto", "HashStream.bytes", "method"),
    ("crypto", "solve_string_puzzle", "func"),
    ("consensus", "verify_header_proof", "func"),
    ("consensus", "stake_view", "func"),
    ("consensus", "pow_retarget", "func"),
    ("merkle", "merkle_root", "func"),
    ("merkle", "merkle_proof", "func"),
    ("merkle", "verify_proof", "func"),
    ("contracts", "execute", "func"),
    ("contracts", "clone_registry", "func"),
    ("scenario", "parse_scenario", "func"),
    ("cli", "main", "func"),
)


class Tracer:
    """Counters and span times for one process; ``raw()`` is JSON-ready."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.time_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()  # item counts observed on results
        self.verify_seen: set = set()
        self.loaded_stores: list = []
        self._stack: list = []  # [layer, time of nested other-layer spans]
        self._observers = {
            "chain.ChainStore.append_block": self._on_append,
            "ledger.Mempool.add": self._on_mempool_add,
            "ledger.UtxoSet.copy": self._on_utxo_copy,
            "crypto.verify": self._on_verify,
            "crypto.HashStream.bytes": self._on_stream_bytes,
            "crypto.solve_string_puzzle": self._on_puzzle,
            "contracts.execute": self._on_execute,
            "chain.load": self._on_load,
        }

    # -- observers: derive counts from arguments and results ----------------

    def _on_append(self, args, result) -> None:
        self.extra[f"chain.append_block.status.{result.status}"] += 1
        if result.reason == "Duplicate":
            self.extra["chain.append_block.duplicates"] += 1

    def _on_mempool_add(self, args, result) -> None:
        if result:
            self.extra["ledger.Mempool.add.accepted"] += 1

    def _on_utxo_copy(self, args, result) -> None:
        self.extra["ledger.UtxoSet.copy.entries"] += len(result)

    def _on_verify(self, args, result) -> None:
        self.verify_seen.add(tuple(bytes(a) for a in args[:3]))

    def _on_stream_bytes(self, args, result) -> None:
        # bytes() advances the counter once per 32-byte block it hashes
        self.extra["crypto.HashStream.draws"] += -(-len(result) // 32)

    def _on_puzzle(self, args, result) -> None:
        if result is not None:
            self.extra["crypto.solve_string_puzzle.attempts"] += result.attempts

    def _on_execute(self, args, result) -> None:
        self.extra["contracts.gas"] += result.gas_used

    def _on_load(self, args, result) -> None:
        self.loaded_stores.append(result.store)

    def states_retained(self) -> int:
        """States held by every store loaded from disk, as they are now."""
        return sum(len(store.states) for store in self.loaded_stores)

    # -- spans ----------------------------------------------------------------

    def wrap(self, layer: str, key: str, fn):
        """Return ``fn`` wrapped in a span; return values and exceptions pass
        through unchanged."""
        stack = self._stack
        calls = self.calls
        time_s = self.time_s
        self_s = self.self_s
        observe = self._observers.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                time_s[key] += elapsed
                parent = stack[-1] if stack else None
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    self_s[layer] += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def wrap_iter(self, layer: str, key: str, fn):
        """Span around the call; items are counted as the caller consumes
        them (their iteration time is charged to the consumer's layer)."""
        extra = self.extra
        entries_key = key + ".entries"
        spanned = self.wrap(layer, key, fn)

        def counted(*args, **kwargs):
            for item in spanned(*args, **kwargs):
                extra[entries_key] += 1
                yield item

        return functools.wraps(fn)(counted)

    def raw(self) -> dict:
        return {
            "calls": dict(self.calls),
            "time_s": dict(self.time_s),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "verify_distinct": len(self.verify_seen),
        }


def _chainsim_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chainsim" or name.startswith("chainsim."))]


def _holders(originals: dict[int, str]):
    """Yield (where, key) for every place a chainsim module still holds an
    original: module globals, one level inside module-level containers,
    class attributes, and function defaults."""

    def check(obj, where):
        if id(obj) in originals:
            yield where, originals[id(obj)]
        if isinstance(obj, property) and id(obj.fget) in originals:
            yield where, originals[id(obj.fget)]

    for mod in _chainsim_modules():
        for name, value in list(vars(mod).items()):
            yield from check(value, f"{mod.__name__}.{name}")
            if isinstance(value, dict):
                for k, v in value.items():
                    yield from check(v, f"{mod.__name__}.{name}[{k!r}]")
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    yield from check(v, f"{mod.__name__}.{name}[...]")
            funcs = []
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    yield from check(member, f"{mod.__name__}.{name}.{attr}")
                    if isinstance(member, types.FunctionType):
                        funcs.append(member)
            elif isinstance(value, types.FunctionType):
                funcs.append(value)
            for fn in funcs:
                for default in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
                    yield from check(default, f"{fn.__module__}.{fn.__qualname__} default")


def install(tracer: Tracer):
    """Wrap every name in TRACED wherever chainsim bound it, and return a
    function that puts every original back.

    Raises RuntimeError, with nothing left patched, if any original object is
    still reachable from a chainsim module after patching.
    """
    importlib.import_module("chainsim.cli")  # imports every other module
    modules = _chainsim_modules()
    originals: dict[int, str] = {}
    patched: list[tuple[object, str, object]] = []

    def patch(owner, name, value):
        patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall():
        while patched:
            owner, name, value = patched.pop()
            setattr(owner, name, value)

    for short, qualname, kind in TRACED:
        mod = sys.modules[f"chainsim.{short}"]
        key = f"{short}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            member = vars(cls)[attr]
            if kind == "property":
                originals[id(member.fget)] = key
                wrapped = property(tracer.wrap(short, key, member.fget))
            elif kind == "iter":
                originals[id(member)] = key
                wrapped = tracer.wrap_iter(short, key, member)
            else:
                originals[id(member)] = key
                wrapped = tracer.wrap(short, key, member)
            patch(cls, attr, wrapped)
            continue
        original = getattr(mod, qualname)
        originals[id(original)] = key
        wrapped = tracer.wrap(short, key, original)
        for other in modules:
            for name, value in list(vars(other).items()):
                if value is original:
                    patch(other, name, wrapped)
    leftover = sorted(set(_holders(originals)))
    if leftover:
        uninstall()
        raise RuntimeError(f"untraced bindings remain: {leftover}")
    return uninstall

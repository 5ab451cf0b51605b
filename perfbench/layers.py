"""Outside-in per-layer tracing for the benchmark's traced run.

The program under test is not modified: :class:`LayerTrace` replaces the
public entry points of each ``repro`` layer on their classes with thin
wrappers for the duration of one traced batch and restores the
originals afterwards, so untraced batches run the exact original code.

Each wrapped call is a span whose parent is the span open when it
started (an explicit stack — the simulation is single-threaded).  A
layer's self time is the sum of its spans' durations minus the time of
their child spans, so the self times of all layers plus the time spent
outside any span add up to the traced wall time.

The wrappers must be installed *before* the workload is built: bound
methods are captured at construction (``host.bind(..., handler)``,
``offer = rib.offer`` in ``FullTableWorkload.load``), and only objects
built while the wrappers are in place see them.
"""

import functools
import importlib
import inspect
import time

#: layer -> ((module, class, entry points), ...).  A trailing ``*`` in an
#: entry point selects every public method with that prefix.  Layer
#: names are the ``repro`` module names.
LAYERS = {
    "sim.engine": (("repro.sim.engine", "Engine", ("run", "advance")),),
    "sim.process": (
        ("repro.sim.process", "Process", ("after", "every")),
        # ``restart`` is an alias bound at class creation, so it is
        # wrapped separately from ``start``.
        ("repro.sim.process", "Timer", ("start", "restart")),
    ),
    "sim.network": (
        ("repro.sim.network", "Network", ("transmit",)),
        ("repro.sim.network", "Host", ("deliver",)),
    ),
    "sim.rpc": (("repro.sim.rpc", "RpcClient", ("call",)),),
    "sim.parallel": (("repro.sim.parallel.runtime", "ParallelRunner", ("run",)),),
    "tcpsim": (
        ("repro.tcpsim.connection", "TcpConnection", ("on_segment", "send")),
        ("repro.tcpsim.stack", "TcpStack", ("emit",)),
    ),
    "netfilter": (
        ("repro.netfilter.hooks", "HookChain", ("evaluate",)),
        ("repro.netfilter.nfqueue", "NfQueue", ("enqueue",)),
    ),
    "bgp.codec": (
        ("repro.bgp.messages", "MessageDecoder", ("feed",)),
        ("repro.bgp.messages", "UpdateMessage", ("to_wire",)),
        ("repro.bgp.attributes", "PathAttributes", ("from_wire",)),
    ),
    "bgp.speaker": (
        ("repro.bgp.speaker", "BgpSpeaker",
         ("dispatch_received", "best_paths_changed",
          "advertise_routes_to_sessions")),
    ),
    "bgp.rib": (("repro.bgp.rib", "LocRib", ("offer", "retract", "lookup")),),
    "core.replication": (
        ("repro.core.replication", "ReplicationPipeline",
         ("replicate_message", "compact")),
        ("repro.core.replication", "WriteCoalescer", ("set",)),
        ("repro.core.ack_matching", "TcpQueueThread", ("note_replicated",)),
    ),
    "core.recovery": (
        ("repro.core.recovery", "BackupRecovery", ("load",)),
        ("repro.core.system", "TensorPair",
         ("activate_backup", "restart_application")),
    ),
    "kvstore": (
        ("repro.kvstore.client", "KvClient",
         ("get", "mget", "set", "mset", "scan", "delete")),
    ),
    "control": (
        ("repro.control.detector", "FailureDetector", ("note_*",)),
        ("repro.control.panel", "ControllerPanel",
         ("submit_report", "submit_db_verdict")),
    ),
    "bfd": (("repro.bfd.session", "BfdSession", ("on_packet",)),),
}

#: Extra per-layer counters and their units, reported beside
#: ``<layer>.self_s`` and ``<layer>.calls``.
COUNTERS = {
    "sim.engine.events": "count",
    "sim.network.packets": "count",
    "sim.network.packets_dropped": "count",
    "sim.rpc.timeouts": "count",
    "sim.parallel.windows": "count",
    "tcpsim.segments": "count",
    "tcpsim.retx_ratio": "ratio",
    "netfilter.acks_queued": "count",
    "bgp.codec.messages": "count",
    "bgp.rib.offers": "count",
    "bgp.rib.best_change_ratio": "ratio",
    "bgp.rib.lookups": "count",
    "core.replication.records_per_kv_write": "ratio",
    "kvstore.reads": "count",
    "kvstore.writes": "count",
    "kvstore.fenced_writes": "count",
    "control.reports": "count",
    "control.recoveries": "count",
    "bfd.packets": "count",
}


class _Layer:
    __slots__ = ("self_s", "calls")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0


class LayerTrace:
    """Span stack, per-layer self time and counters for one traced batch.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original attribute.
    """

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.counts = dict.fromkeys(
            ("events", "packets", "packets_dropped", "windows", "segments",
             "acks_queued", "messages", "offers", "best_changes", "lookups",
             "kv_reads", "kv_writes", "reports", "bfd_packets"), 0)
        # objects whose own public counters are summed at the end
        self._seen = {"rpc": {}, "conn": {}, "coalescer": {}, "kv": {},
                      "panel": {}}
        self._stack = []  # [layer, child_seconds, receiver]
        self._saved = []  # (class, attribute, original __dict__ value)

    # -- install / restore ---------------------------------------------

    def __enter__(self):
        hooks = self._hooks()
        for layer_name, entries in LAYERS.items():
            layer = self.layers[layer_name]
            for module, class_name, names in entries:
                base = getattr(importlib.import_module(module), class_name)
                for cls in _with_subclasses(base):
                    for attr in _entry_points(cls, names):
                        hook = hooks.get((class_name, attr))
                        self._wrap(cls, attr, layer, hook)
        return self

    def __exit__(self, *exc):
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
        self._stack.clear()
        return False

    def _wrap(self, cls, attr, layer, hook):
        raw = cls.__dict__[attr]
        self._saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span(raw.__func__, layer, hook))
        elif inspect.isgeneratorfunction(raw):
            wrapped = self._generator_span(raw, layer, hook)
        else:
            wrapped = self._span(raw, layer, hook)
        setattr(cls, attr, wrapped)

    # -- spans -------------------------------------------------------------

    def _span(self, fn, layer, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(receiver, *args, **kwargs):
            if stack and stack[-1][0] is layer and stack[-1][2] is receiver:
                # an override calling super() (or advance -> run) on the
                # same object: one span, counted once
                result = fn(receiver, *args, **kwargs)
            else:
                frame = [layer, 0.0, receiver]
                stack.append(frame)
                layer.calls += 1
                start = clock()
                try:
                    result = fn(receiver, *args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    layer.self_s += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if hook is not None:
                hook(receiver, args, result)
            return result

        return wrapper

    def _generator_span(self, fn, layer, hook):
        """Wrap a generator function: every resumption is one span, so
        the consumer's work between items is not charged to the layer."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(receiver, *args, **kwargs):
            inner = fn(receiver, *args, **kwargs)
            layer.calls += 1
            while True:
                frame = [layer, 0.0, receiver]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    layer.self_s += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                if hook is not None:
                    hook(receiver, args, item)
                yield item

        return wrapper

    # -- counters ------------------------------------------------------------

    def _hooks(self):
        counts = self.counts
        seen = self._seen

        def count(key):
            def hook(_receiver, _args, _result):
                counts[key] += 1
            return hook

        def remember(kind, extra=None):
            table = seen[kind]

            def hook(receiver, args, result):
                table[id(receiver)] = receiver
                if extra is not None:
                    extra(receiver, args, result)
            return hook

        def engine_run(_engine, _args, executed):
            counts["events"] += executed

        def transmit(_network, _args, delivered):
            counts["packets"] += 1
            if not delivered:
                counts["packets_dropped"] += 1

        def parallel_run(_runner, _args, result):
            counts["windows"] += result.windows

        def emit(_stack, args, _result):
            counts["segments"] += 1
            seen["conn"][id(args[0])] = args[0]

        def enqueue(_queue, _args, queued):
            if queued is not None:
                counts["acks_queued"] += 1

        def offer(_rib, _args, result):
            counts["offers"] += 1
            old, new = result
            if old is not new:
                counts["best_changes"] += 1

        kv_read = remember("kv", count("kv_reads"))
        kv_write = remember("kv", count("kv_writes"))
        report = remember("panel", count("reports"))
        return {
            ("Engine", "run"): engine_run,
            ("Network", "transmit"): transmit,
            ("RpcClient", "call"): remember("rpc"),
            ("ParallelRunner", "run"): parallel_run,
            ("TcpConnection", "on_segment"): remember("conn"),
            ("TcpConnection", "send"): remember("conn"),
            ("TcpStack", "emit"): emit,
            ("NfQueue", "enqueue"): enqueue,
            ("MessageDecoder", "feed"): count("messages"),
            ("LocRib", "offer"): offer,
            ("LocRib", "lookup"): count("lookups"),
            ("WriteCoalescer", "set"): remember("coalescer"),
            ("KvClient", "get"): kv_read,
            ("KvClient", "mget"): kv_read,
            ("KvClient", "scan"): kv_read,
            ("KvClient", "set"): kv_write,
            ("KvClient", "mset"): kv_write,
            ("KvClient", "delete"): kv_write,
            ("ControllerPanel", "submit_report"): report,
            ("ControllerPanel", "submit_db_verdict"): report,
            ("BfdSession", "on_packet"): count("bfd_packets"),
        }

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """``{name: (value, unit)}`` for every layer's self time and
        calls, and every counter of :data:`COUNTERS`."""
        counts = self.counts
        seen = self._seen
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.self_s"] = (layer.self_s, "s")
            out[f"{name}.calls"] = (layer.calls, "count")
        retransmissions = sum(c.retransmissions for c in seen["conn"].values())
        coalescers = seen["coalescer"].values()
        records = sum(c.records_written + c.records_deleted for c in coalescers)
        batches = sum(c.batches_flushed for c in coalescers)
        panels = seen["panel"].values()
        recoveries = sum(
            len(p.records)
            + sum(1 for _t, kind, _d in p.events if kind == "database-failover")
            for p in panels
        )
        values = {
            "sim.engine.events": counts["events"],
            "sim.network.packets": counts["packets"],
            "sim.network.packets_dropped": counts["packets_dropped"],
            "sim.rpc.timeouts": sum(c.timeouts for c in seen["rpc"].values()),
            "sim.parallel.windows": counts["windows"],
            "tcpsim.segments": counts["segments"],
            "tcpsim.retx_ratio": _ratio(retransmissions, counts["segments"]),
            "netfilter.acks_queued": counts["acks_queued"],
            "bgp.codec.messages": counts["messages"],
            "bgp.rib.offers": counts["offers"],
            "bgp.rib.best_change_ratio": _ratio(counts["best_changes"],
                                                counts["offers"]),
            "bgp.rib.lookups": counts["lookups"],
            "core.replication.records_per_kv_write": _ratio(records, batches),
            "kvstore.reads": counts["kv_reads"],
            "kvstore.writes": counts["kv_writes"],
            "kvstore.fenced_writes": sum(
                c.fenced_errors for c in seen["kv"].values()),
            "control.reports": counts["reports"],
            "control.recoveries": recoveries,
            "bfd.packets": counts["bfd_packets"],
        }
        out.update((name, (value, COUNTERS[name]))
                   for name, value in values.items())
        return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _with_subclasses(base):
    """``base`` and every subclass loaded so far (overrides such as
    ``TensorBgpSpeaker.dispatch_received`` are entry points too)."""
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


def _entry_points(cls, names):
    """The entry points of ``names`` that ``cls`` itself defines."""
    for name in names:
        if name.endswith("*"):
            prefix = name[:-1]
            for attr in sorted(cls.__dict__):
                if attr.startswith(prefix) and callable(cls.__dict__[attr]):
                    yield attr
        elif name in cls.__dict__:
            yield name

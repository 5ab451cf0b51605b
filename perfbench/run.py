#!/usr/bin/env python3
"""The repository benchmark: four in-process workloads of the TENSOR
simulation, end-to-end metrics from untraced runs and per-layer self
time and counts from a separate traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload recv --seed 1 --seconds 10 --trace 0

``--workload`` is one of recv, fleet, table, failover (see README.md in
this directory).  With ``--trace 0`` the workload's batch repeats while
another batch fits in ``--seconds``, and the end-to-end metrics are the
best times of the run.  With ``--trace 1`` a traced batch runs between
two untraced ones, and the per-layer metrics are reported.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Everything runs in this one process and thread: no worker processes,
no shared-memory or pipe transport, no servers, no helper threads.  A
clean-exit guard checks that before the result is printed.
"""

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHM_DIR = "/dev/shm"

#: layer -> workloads on which it must record calls (the benchmark's
#: mapping of which end-to-end metric each layer should move).
EXPECTED_LAYERS = {
    "sim.engine": ("recv", "fleet", "failover"),
    "sim.process": ("recv", "fleet", "failover"),
    "sim.network": ("recv", "fleet", "failover"),
    "sim.rpc": ("recv", "fleet", "failover"),
    "sim.parallel": ("fleet",),
    "tcpsim": ("recv", "fleet", "failover"),
    "netfilter": ("recv", "failover"),
    "bgp.codec": ("recv", "fleet", "failover"),
    "bgp.speaker": ("recv", "fleet", "failover"),
    "bgp.rib": ("recv", "table", "failover"),
    "core.replication": ("recv", "table", "failover"),
    "core.recovery": ("failover",),
    "kvstore": ("recv", "failover"),
    "control": ("fleet", "failover"),
    "bfd": ("fleet", "failover"),
}

#: virtual-clock receive-pipeline phases reported by the traced recv run
TRACE_PHASES = ("replicate", "ack_release", "apply")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("recv", "fleet", "table", "failover"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    shm_before = _shm_segments()
    start = time.perf_counter()
    sys.path.insert(1, str(SRC))
    import workloads  # the program's modules load here

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]
    tally = _Tally()
    if args.trace:
        metrics = traced_run(workload, args.seed, tally)
    else:
        metrics = measured_run(workload, args.seed, args.seconds, import_s,
                               tally)

    exit_checks = clean_exit_checks(shm_before)
    for ok, what in exit_checks:
        tally.check(ok, what)
    names = _declared_metric_names(args.trace)
    if names is not None:
        tally.check(set(metrics) == names,
                    "metrics differ from BENCHMARK.json: "
                    f"{sorted(set(metrics) ^ names)}")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if all(ok for ok, _what in exit_checks) else 1


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add(self, batch):
        self.attempted += batch.attempted
        self.failed += batch.failed
        self.failures.extend(batch.failures)


def _batch(workload, seed, **kwargs):
    """One batch on a freshly collected heap (garbage of the previous
    batch is not charged to this one)."""
    gc.collect()
    return workload.batch(seed, **kwargs)


def _same_results(reference, batch, tally, what):
    tally.check(batch.fingerprint == reference.fingerprint,
                f"{what}: results differ ({batch.fingerprint} vs"
                f" {reference.fingerprint})")
    tally.check(batch.virtual == reference.virtual,
                f"{what}: virtual-clock figures differ ({batch.virtual} vs"
                f" {reference.virtual})")


def measured_run(workload, seed, seconds, import_s, tally):
    """Repeat the workload while another batch fits in ``seconds``.

    Timings are best-of-run: on a shared host, contention only ever
    slows work down, and slow spells last several seconds, so the
    fastest time of each work phase (and the fastest set-up and import)
    over a run is far steadier from run to run than a median (README.md,
    "End-to-end metrics").  Every batch of a run does identical work,
    so ``work_per_s`` is one batch's work over the sum of the best
    times of its phases.  The import is timed again after every batch
    so that it is sampled across the whole run like the set-ups.
    """
    batches = []
    imports = [import_s]
    start = time.perf_counter()
    while True:
        batch = _batch(workload, seed)
        tally.add(batch)
        if batches:
            _same_results(batches[0], batch, tally,
                          f"batch {len(batches) + 1}")
        batches.append(batch)
        imports.append(_time_reimport())
        elapsed = time.perf_counter() - start
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            break

    setups = [s for batch in batches for s in batch.setup_s]
    best = sum(min(batch.parts[part] for batch in batches)
               for part in batches[0].parts)
    rate = batches[0].work / best
    rates = [batch.work / batch.work_s for batch in batches]
    print(f"{workload.name}: seed {seed}, {len(batches)} batches,"
          f" {sum(batch.work_s for batch in batches):.2f} s measured")
    print(f"  work_per_s best-of-run {rate:.1f} {workload.unit}"
          f" (batch median {statistics.median(rates):.1f},"
          f" slowest {min(rates):.1f})")
    print(f"  import_s best {min(imports):.4f} s, set-up best"
          f" {min(setups):.4f} s (median {statistics.median(setups):.4f})")
    for name in batches[0].named:
        values = [batch.named[name][0] for batch in batches]
        print(f"  {name} median {statistics.median(values):.6g}"
              f" {batches[0].named[name][1]}")
    return {
        "setup_s": (min(imports) + min(setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (rate, "work/s"),
    }


def _time_reimport():
    """Seconds to import the program's modules again from scratch.

    The loaded ``repro`` modules are set aside, imported afresh in their
    original load order, and then put back, so the workload keeps using
    the modules it was built from (lazy imports inside the program
    resolve to them as before).
    """
    names = [name for name in sys.modules
             if name == "repro" or name.startswith("repro.")]
    loaded = {name: sys.modules.pop(name) for name in names}
    try:
        start = time.perf_counter()
        for name in names:
            importlib.import_module(name)
        return time.perf_counter() - start
    finally:
        for name in [name for name in sys.modules
                     if name == "repro" or name.startswith("repro.")]:
            del sys.modules[name]
        sys.modules.update(loaded)


def traced_run(workload, seed, tally):
    """A traced batch between two untraced ones; per-layer metrics.

    The faster untraced batch is the baseline of the tracing overhead.
    """
    from layers import LayerTrace

    baseline = _batch(workload, seed)
    tally.add(baseline)
    gc.collect()
    trace = LayerTrace()
    with trace:
        traced = workload.batch(seed)
    tally.add(traced)
    _same_results(baseline, traced, tally, "traced batch")
    after = _batch(workload, seed)
    tally.add(after)
    _same_results(baseline, after, tally, "batch after tracing")

    metrics = trace.metrics()
    for layer, names in EXPECTED_LAYERS.items():
        if workload.name in names:
            tally.check(metrics[f"{layer}.calls"][0] > 0,
                        f"layer {layer} recorded no calls on {workload.name}")
    base_wall = min(sum(batch.setup_s) + batch.work_s
                    for batch in (baseline, after))
    traced_wall = sum(traced.setup_s) + traced.work_s
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in EXPECTED_LAYERS)
    metrics["unattributed_s"] = (traced_wall - self_total, "s")
    metrics["trace_overhead_ratio"] = (traced_wall / base_wall, "ratio")

    phases = {}
    if workload.name == "recv":
        phased = _batch(workload, seed, tracer=True)
        tally.add(phased)
        _same_results(baseline, phased, tally, "program-traced batch")
        phases = phased.named
    for phase in TRACE_PHASES:
        for stat in ("p50", "max"):
            name = f"trace.{phase}_ms.{stat}"
            if workload.name == "recv":
                tally.check(name in phases, f"no {phase} spans traced")
            metrics[name] = (phases.get(name, (0.0, "ms"))[0], "ms")

    print(f"{workload.name}: seed {seed}, traced wall {traced_wall:.2f} s,"
          f" untraced {base_wall:.2f} s")
    width = max(len(layer) for layer in EXPECTED_LAYERS)
    for layer in sorted(EXPECTED_LAYERS,
                        key=lambda name: -metrics[f"{name}.self_s"][0]):
        self_s = metrics[f"{layer}.self_s"][0]
        print(f"  {layer:<{width}} self {self_s:8.3f} s"
              f" ({self_s / traced_wall:6.1%})"
              f"  calls {metrics[f'{layer}.calls'][0]:>9}")
    print(f"  {'unattributed':<{width}} self"
          f" {metrics['unattributed_s'][0]:8.3f} s")
    return metrics


def _shm_segments():
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:  # no /dev/shm on this host: nothing can leak there
        return set()


def clean_exit_checks(shm_before):
    """(ok, description) for each thing this process could leave behind:
    child processes, threads, /dev/shm segments."""
    children = multiprocessing.active_children()
    threads = [t for t in threading.enumerate()
               if t is not threading.main_thread()]
    segments = sorted(_shm_segments() - shm_before)
    return [
        (not children, f"child processes alive at exit: {children}"),
        (not threads, f"threads alive at exit: {threads}"),
        (not segments, f"new {SHM_DIR} segments at exit: {segments}"),
    ]


def _declared_metric_names(trace):
    """The metric names BENCHMARK.json declares for this mode, if the
    file is present."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())

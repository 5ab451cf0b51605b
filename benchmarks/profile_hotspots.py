#!/usr/bin/env python
"""Hotspot profiler (``make profile``).

Profiles the two workloads that dominate wall-clock in this repository
and prints the top-25 cumulative-time functions for each:

1. the Fig. 6(a) receive path — a TENSOR gateway receiving and applying
   a 20K-update burst (codec, RIB reselect, replication pipeline);
2. the parallel fleet workload at workers=1 — the windowed runner over
   a 4-site fleet (engine dispatch, BFD/supervision cadence, boundary
   export/merge).

Deterministic workloads, so two profiles of the same tree are directly
comparable; use this to aim optimization work before touching code.

``--parallel`` (``make profile-parallel``) restricts the run to the
parallel fleet workload and prints the coordinator's timing split
(compute vs barrier-wait vs dispatch vs serialization, the last being
pickle + unpickle of the cross-shard batches) alongside the profile —
the same split ``make bench-parallel`` records under ``time_split`` in
BENCH_parallel.json — so window-protocol overhead can be attributed
before reading a single profiler row.  Because the serialization split
is all zeros at workers=1, ``--parallel`` follows the profiled run with
an unprofiled workers=2 run and prints its split too.

Usage:
    PYTHONPATH=src python benchmarks/profile_hotspots.py [--top N]
        [--parallel]
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

TOP_DEFAULT = 25


def profile_receive_path():
    from conftest import DaemonLab

    lab = DaemonLab("tensor")
    lab.receive_time(20_000)


def profile_parallel_fleet(workers=1):
    from repro.sim.parallel.runtime import ParallelRunner
    from repro.workloads.fleet import fleet_site_specs

    specs = fleet_site_specs(4, pairs=2, routes=20, border_routes=10,
                             churn_ticks=2)
    result = ParallelRunner(specs, workers=workers).run(25.0)
    return result


WORKLOADS = (
    ("fig6a receive path (TENSOR, 20K updates)", profile_receive_path),
    ("parallel fleet (4 sites, workers=1)", profile_parallel_fleet),
)


def _print_timing_split(result):
    timing = result.timing
    wall = timing.get("wall_s") or 1.0
    transport = result.transport
    print(f"\ncoordinator timing split"
          f" ({transport['kind']}, {result.windows} windows,"
          f" wall {wall:.2f}s):")
    for key in ("compute_s", "barrier_wait_s", "barrier_send_s",
                "serialize_s"):
        value = timing.get(key, 0.0)
        print(f"  {key:16s} {value:8.3f}s  ({value / wall:5.1%} of wall)")
    print(f"  transport        {transport['frames']} frames"
          f" / {transport['batches']} batches / {transport['bytes']} bytes")


def run_profile(title, workload, top):
    print(f"\n=== {title}: top {top} by cumulative time ===")
    profiler = cProfile.Profile()
    profiler.enable()
    result = workload()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=TOP_DEFAULT,
                        help=f"rows per workload (default {TOP_DEFAULT})")
    parser.add_argument("--parallel", action="store_true",
                        help="profile only the parallel fleet workload and"
                             " print the coordinator timing split")
    args = parser.parse_args(argv)
    if args.parallel:
        result = run_profile("parallel fleet (4 sites, workers=1)",
                             profile_parallel_fleet, args.top)
        _print_timing_split(result)
        # the serialization split only has content with real worker
        # processes; run workers=2 outside the profiler (child-process
        # time is invisible to cProfile anyway)
        _print_timing_split(profile_parallel_fleet(workers=2))
        return 0
    for title, workload in WORKLOADS:
        run_profile(title, workload, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())

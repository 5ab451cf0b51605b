"""The benchmark's four workloads, built only from ``repro``'s public API.

Every workload is a closed batch: the benchmark offers all of the input
itself and the batch ends when the simulation drains.  A batch returns a
:class:`Batch` holding its set-up and work wall times, the units of work
it completed, the outcome of every correctness check, a fingerprint of
its results (used by the determinism check) and the named figures the
benchmark prints beside its JSON result.

Inputs come only from the workload seed: the same seed gives the same
route sets, table, lookups and drill order, so every batch of one run
must produce the same fingerprint.
"""

import hashlib
import random
import statistics
import time

from repro.bgp import PeerConfig, SpeakerConfig
from repro.bgp.prefixes import Prefix
from repro.bgp.rib import LocRib
from repro.bgp.speaker import BgpSpeaker
from repro.core.replication import ReplicationPipeline
from repro.core.system import PeerNeighborSpec, TensorSystem
from repro.core.tensor_process import TensorBgpSpeaker
from repro.failures import FailureInjector
from repro.kvstore import KvClient, KvServer
from repro.sim import DeterministicRandom, Engine, Network
from repro.sim.parallel.runtime import ParallelRunner
from repro.tcpsim import TcpStack
from repro.trace import Tracer
from repro.workloads.fleet import fleet_site_specs
from repro.workloads.fulltable import FullTableWorkload
from repro.workloads.topology import DowntimeObserver, build_remote_peer
from repro.workloads.updates import RouteGenerator

clock = time.perf_counter


class Batch:
    """One completed batch of a workload."""

    def __init__(self):
        self.setup_s = []  # one entry per set-up the batch performed
        self.parts = {}  # work-phase name -> wall seconds
        self.work = 0.0  # units of work done by all the parts
        self.attempted = 0
        self.failed = 0
        self.failures = []  # descriptions of the first failed checks
        self.fingerprint = None
        self.virtual = {}  # deterministic virtual-clock figures
        self.named = {}  # name -> (value, unit) printed for people

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    @property
    def work_s(self):
        return sum(self.parts.values())


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run_until(engine, predicate, step=0.05, limit=600.0):
    deadline = engine.now + limit
    while not predicate():
        if engine.now > deadline:
            raise TimeoutError("simulation did not converge")
        engine.advance(step)


# ---------------------------------------------------------------------------
# recv: the Fig. 6(a) receive path
# ---------------------------------------------------------------------------

class Recv:
    """One TENSOR gateway with a replicating KV server (the two-router lab
    of ``benchmarks/conftest.py:DaemonLab("tensor")``); an FRR-profile
    peer sends an announce burst, then a withdraw burst over a quarter of
    it."""

    name = "recv"
    unit = "updates/s"
    ANNOUNCE = 20_000

    def batch(self, seed, tracer=False):
        out = Batch()
        start = clock()
        rng = random.Random(seed)
        count = self.ANNOUNCE + rng.randrange(self.ANNOUNCE // 20)
        engine = Engine()
        network = Network(engine, DeterministicRandom(seed))
        network.enable_fabric(latency=5e-5)
        gw_host = network.add_host("gw", "10.0.0.1")
        peer_host = network.add_host("peer", "10.0.0.2")
        network.connect(gw_host, peer_host, latency=100e-6, bandwidth=100e9)
        KvServer(engine, network.add_host("db", "10.0.0.3"))
        pipeline = ReplicationPipeline(
            "bench",
            KvClient(engine, gw_host, "10.0.0.3"),
            KvClient(engine, gw_host, "10.0.0.3"),
        )
        gateway = TensorBgpSpeaker(
            engine, TcpStack(engine, gw_host),
            SpeakerConfig("gw", 65001, "10.0.0.1", profile="tensor"),
            pipeline, "bench",
        )
        peer = BgpSpeaker(
            engine, TcpStack(engine, peer_host),
            SpeakerConfig("peer", 64512, "10.0.0.2", profile="frr"),
        )
        gateway.add_vrf("v1")
        peer.add_vrf("v1")
        gateway.add_peer(PeerConfig("10.0.0.2", 64512, vrf_name="v1",
                                    mode="passive"))
        session = peer.add_peer(PeerConfig("10.0.0.1", 65001, vrf_name="v1",
                                           mode="active"))
        gateway.start()
        peer.start()
        engine.advance(5.0)
        out.check(session.established, "warm-up session not established")
        routes = RouteGenerator(rng, 64512, next_hop="10.0.0.2").routes(count)
        withdrawn = sorted(rng.sample(range(count), count // 4))
        store = Tracer(engine).store if tracer else None
        out.setup_s.append(clock() - start)

        start = clock()
        peer.originate_many("v1", routes)
        began = engine.now
        peer.readvertise(session)
        _run_until(engine, lambda: gateway.total_updates_received >= count)
        receive_virtual = gateway.last_apply_time - began
        for index in withdrawn:
            peer.withdraw_originated("v1", routes[index][0])
        total = count + len(withdrawn)
        _run_until(engine, lambda: gateway.total_updates_received >= total)
        engine.advance(2.0)  # release the last held ACKs
        out.parts["burst"] = clock() - start
        out.work = total

        rib = gateway.vrfs["v1"].loc_rib
        gone = set(withdrawn)
        for index, (prefix, _attributes) in enumerate(routes):
            best = rib.best(prefix)
            if index in gone:
                out.check(best is None, f"withdrawn {prefix} still present")
            else:
                out.check(best is not None, f"announced {prefix} missing")
        out.check(len(rib) == count - len(withdrawn), "extra Loc-RIB routes")
        out.check(gateway.tcp_queue.held_count() == 0, "ACKs still held")
        out.check(session.established, "session dropped")
        out.fingerprint = _digest(rib.export_entries())
        out.virtual = {"receive_virtual_s": receive_virtual}
        out.named = {
            "updates_per_s": (total / out.work_s, "1/s"),
            "receive_virtual_s": (receive_virtual, "s"),
        }
        if store is not None:
            for phase, summary in store.phase_summary().items():
                out.named[f"trace.{phase}_ms.p50"] = (summary["median"] * 1e3, "ms")
                out.named[f"trace.{phase}_ms.max"] = (summary["max"] * 1e3, "ms")
        return out


# ---------------------------------------------------------------------------
# fleet: the sequential 4-site x 7-pair fleet
# ---------------------------------------------------------------------------

class Fleet:
    """``ParallelRunner(fleet_site_specs(4, pairs=7), workers=1)`` over
    25 virtual seconds: route origination at 12 s, border bring-up at
    15 s, churn announce at 18 s and withdraw at 23 s.  The shards are
    built inside ``ParallelRunner.run``, so their build time is work.

    Four sites rather than eight keep a batch near 5 s, so a 30 s run
    holds several batches; the per-pair timer, BFD and polling load the
    fleet measures does not depend on the number of sites."""

    name = "fleet"
    unit = "container-s/s"
    SITES = 4
    PAIRS = 7
    ROUTES = 50
    BORDER_ROUTES = 20
    DURATION = 25.0

    def batch(self, seed, tracer=False):
        out = Batch()
        start = clock()
        specs = fleet_site_specs(self.SITES, pairs=self.PAIRS,
                                 routes=self.ROUTES,
                                 border_routes=self.BORDER_ROUTES, seed=seed)
        runner = ParallelRunner(specs, workers=1)
        out.setup_s.append(clock() - start)

        start = clock()
        result = runner.run(self.DURATION)
        out.parts["run"] = clock() - start
        containers = sum(r["containers"] for r in result.shard_results.values())
        out.work = containers * self.DURATION

        prefixes = RouteGenerator(random.Random(0), 0).prefixes
        border_prefixes = {
            str(p)
            for site in range(self.SITES)
            for p in prefixes(self.BORDER_ROUTES,
                              base=f"10.{128 + site}.0.0")
        }
        neighbours = min(2, self.SITES - 1)  # border sessions on the ring
        for site in range(self.SITES):
            shard = result.shard_results[f"site{site}"]
            out.check(shard["border_established"] == neighbours,
                      f"site{site}: border sessions down")
            held = {str(entry[0]) for entry in shard["border_rib"]}
            out.check(border_prefixes <= held,
                      f"site{site}: border RIB misses WAN routes")
            out.check(shard["containers"] == 2 * self.PAIRS,
                      f"site{site}: containers missing")
            for pair in range(self.PAIRS):
                expected = {str(p) for p in prefixes(
                    self.ROUTES, base=f"10.{32 + pair}.0.0")}
                rib = shard["rib"].get((f"s{site}p{pair}", "v0"), ())
                out.check({str(entry[0]) for entry in rib} == expected,
                          f"site{site} pair{pair}: originated routes differ")
        out.fingerprint = _digest(sorted(result.shard_results.items()))
        out.named = {
            "container_s_per_s": (out.work / out.work_s, "container-s/s"),
            "events_per_s": (result.executed / out.work_s, "1/s"),
        }
        return out


# ---------------------------------------------------------------------------
# table: a full table with no network
# ---------------------------------------------------------------------------

class MemoryKv:
    """Synchronous in-memory stand-in for ``KvClient`` so that
    ``ReplicationPipeline.compact`` measures snapshot encoding and
    aggregation, not the simulated KV transport."""

    def __init__(self):
        self.store = {}

    def mset(self, items, on_done=None, on_error=None):
        self.store.update(items)
        if on_done is not None:
            on_done()

    def delete(self, keys, on_done=None, on_error=None):
        removed = 0
        for key in keys:
            removed += self.store.pop(key, None) is not None
        if on_done is not None:
            on_done(removed)


class Table:
    """``FullTableWorkload`` in four phases: load into a ``LocRib``,
    churn, longest-prefix lookups of seeded /32s, and an aggregated
    ``ReplicationPipeline.compact``.  Phase sizes are chosen so that each
    phase takes roughly a quarter of the batch: a 2x slowdown of any one
    of them costs about a fifth of the batch rate."""

    name = "table"
    unit = "table-ops/s"
    SIZE = 60_000
    CHURN = 150_000  # a multiple of 3: every competitor offer is retracted
    LOOKUPS = 50_000
    CHECKED = 3_000

    def batch(self, seed, tracer=False):
        out = Batch()
        start = clock()
        rng = random.Random(seed)
        table = FullTableWorkload(seed=seed, size=self.SIZE)
        queries = []
        for _ in range(self.LOOKUPS):
            if rng.random() < 0.1:
                queries.append(Prefix(rng.getrandbits(32), 32))
                continue
            covering = table.prefix_at(rng.randrange(table.total))
            host_bits = 32 - covering.length
            queries.append(Prefix(covering.value | rng.getrandbits(host_bits)
                                  if host_bits else covering.value, 32))
        rib = LocRib()
        kv = MemoryKv()
        pipeline = ReplicationPipeline("bench", kv, kv,
                                       aggregate_snapshots=True)
        out.setup_s.append(clock() - start)

        phases = out.parts
        start = clock()
        loaded = table.load(rib)
        phases["load"] = clock() - start
        start = clock()
        churned = table.churn(rib, self.CHURN, seed=seed)
        phases["churn"] = clock() - start
        start = clock()
        lookup = rib.lookup
        answers = [lookup(query) for query in queries]
        phases["lookup"] = clock() - start
        start = clock()
        pipeline.compact("v0", rib)
        phases["snapshot"] = clock() - start
        entries = pipeline.snapshot_entries_raw
        out.work = loaded + churned + len(answers) + entries

        generated = {(table.prefix_at(i).value, table.prefix_at(i).length)
                     for i in range(table.total)}
        out.check(loaded == table.total and len(rib) == table.total,
                  "table size after churn")
        for index in rng.sample(range(len(queries)), self.CHECKED):
            expected = _brute_force_match(generated, queries[index].value)
            want = rib.best(Prefix(*expected)) if expected else None
            out.check(answers[index] is want and want is not None,
                      f"lookup {queries[index]} differs from brute force")
        marker = kv.store.get("tensor:bench:rib:v0:marker")
        out.check(marker is not None and marker["chunks"] >= 1,
                  "snapshot marker missing")
        out.check(entries == table.total, "snapshot entry count")
        out.check(0 < pipeline.snapshot_entries_written <= entries,
                  "aggregation grew the snapshot")
        out.fingerprint = _digest(sorted(kv.store.items()))
        out.named = {
            "load_prefixes_per_s": (loaded / phases["load"], "1/s"),
            "churn_ops_per_s": (churned / phases["churn"], "1/s"),
            "lookups_per_s": (len(answers) / phases["lookup"], "1/s"),
            "snapshot_entries_per_s": (entries / phases["snapshot"], "1/s"),
        }
        return out


def _brute_force_match(generated, address):
    """Longest generated prefix covering ``address``, as (value, length),
    found by probing every length — independent of the radix trie."""
    for length in range(32, -1, -1):
        value = (address >> (32 - length)) << (32 - length) if length else 0
        if (value, length) in generated:
            return value, length
    return None


# ---------------------------------------------------------------------------
# failover: a cycle of failure drills
# ---------------------------------------------------------------------------

#: (failure class, controller replicas) — one drill each per batch.
DRILLS = (
    ("application", 1),        # E1
    ("container", 3),          # E2
    ("host_machine", 1),       # E3
    ("container_network", 3),  # E4
    ("host_network", 1),       # E5
    ("database_failover", 3),
    ("blip", 1),               # transient NIC loss: must not migrate
)


class Failover:
    """A cycle of drills, each on a fresh ``TensorSystem`` pair whose
    remote peer carries a few thousand routes and keeps an update stream
    running across the failure.  Built only from ``TensorSystem``,
    ``FailureInjector`` and ``repro.workloads.topology``."""

    name = "failover"
    unit = "drills/s"
    ROUTES = 2_000
    STREAM = 50  # routes the update stream flaps, ten per tick
    SETTLE = 15.0  # virtual seconds from injection to the final checks

    def batch(self, seed, tracer=False):
        out = Batch()
        digests = []
        recoveries = []
        for index, (kind, replicas) in enumerate(DRILLS):
            recovery, digest = self._drill(out, seed * 100 + index, kind,
                                           replicas)
            digests.append(digest)
            if recovery is not None:
                recoveries.append(recovery)
        out.work = len(DRILLS)
        recovery_virtual = statistics.median(recoveries)
        out.fingerprint = _digest(digests)
        out.virtual = {"recovery_virtual_s": recovery_virtual}
        out.named = {
            "drills_per_s": (out.work / out.work_s, "1/s"),
            "recovery_virtual_s": (recovery_virtual, "s"),
        }
        return out

    def _drill(self, out, seed, kind, replicas):
        start = clock()
        routes_count = self.ROUTES + random.Random(seed).randrange(200)
        system = TensorSystem(seed=seed, controller_replicas=replicas)
        m1 = system.add_machine("gw-1", "10.1.0.1")
        m2 = system.add_machine("gw-2", "10.2.0.1")
        pair = system.create_pair(
            "pair0", m1, m2, service_addr="10.10.0.1", local_as=65001,
            router_id="10.10.0.1",
            neighbors=[PeerNeighborSpec("192.0.2.1", 64512, vrf_name="v0",
                                        mode="passive")],
        )
        remote = build_remote_peer(system, "remote0", "192.0.2.1", 64512,
                                   link_machines=[m1, m2])
        session = remote.peer_with("10.10.0.1", 65001, vrf_name="v0",
                                   mode="active")
        pair.start()
        remote.start()
        system.run(10.0)
        generator = RouteGenerator(DeterministicRandom(seed).fork("routes"),
                                   64512, next_hop="192.0.2.1")
        routes = generator.routes(routes_count)
        remote.speaker.originate_many("v0", routes)
        remote.speaker.readvertise(session)
        system.run(5.0)
        out.check(session.established, f"{kind}: warm-up session down")
        observer = DowntimeObserver(system.engine, session,
                                    remote.speaker.vrfs["v0"],
                                    expect_routes=routes_count - self.STREAM)
        observer.start()
        out.setup_s.append(clock() - start)

        start = clock()
        engine = system.engine
        speaker = remote.speaker
        flapping = routes[-self.STREAM:]
        stream = {"tick": 0, "on": True}

        def tick():
            if not stream["on"]:
                return
            step = stream["tick"]
            stream["tick"] += 1
            block = flapping[(step % 5) * 10:(step % 5) * 10 + 10]
            for prefix, attributes in block:
                if (step // 5) % 2 == 0:
                    speaker.withdraw_originated("v0", prefix)
                else:
                    speaker.originate("v0", prefix, attributes)
            engine.schedule(0.1, tick)

        tick()
        system.run(1.0)
        injector = FailureInjector(system)
        injected_at = engine.now
        machine = system.machines["gw-1"]
        if kind == "application":
            injector.application_failure(pair)
        elif kind == "container":
            injector.container_failure(pair)
        elif kind == "host_machine":
            injector.host_machine_failure(machine)
        elif kind == "container_network":
            injector.container_network_failure(pair)
        elif kind == "host_network":
            injector.host_network_failure(machine)
        elif kind == "database_failover":
            injector.database_failover()
        else:
            injector.transient_host_network_failure(machine, 1.0)
        system.run(self.SETTLE)
        stream["on"] = False
        for prefix, attributes in flapping:
            speaker.originate("v0", prefix, attributes)
        system.run(3.0)
        out.parts[kind] = clock() - start

        injector.stamp_records()
        observer.stop()
        controller = system.controller
        recovery = None
        out.check(session.established, f"{kind}: session not held")
        out.check(observer.total_downtime == 0.0,
                  f"{kind}: remote saw {observer.total_downtime:.3f}s downtime")
        out.check(pair.speaker.tcp_queue.held_count() == 0,
                  f"{kind}: ACK queue did not drain")
        loc_rib = pair.speaker.vrfs["v0"].loc_rib
        out.check(len(loc_rib) == routes_count,
                  f"{kind}: gateway holds {len(loc_rib)} of {routes_count}")
        if kind == "blip":
            out.check(not controller.records, f"{kind}: migrated")
        elif kind == "database_failover":
            promoted = [when for when, event, _ in controller.events
                        if event == "database-failover"]
            out.check(len(promoted) == 1, f"{kind}: no single promotion")
            if promoted:
                recovery = promoted[0] - injected_at
        else:
            completed = controller.completed_records()
            out.check(len(completed) == 1 and not controller.abandoned_records,
                      f"{kind}: expected one completed recovery")
            if completed:
                recovery = completed[0].total_time
        return recovery, (_digest(system.rib_digest()), recovery)


WORKLOADS = {w.name: w for w in (Recv(), Fleet(), Table(), Failover())}

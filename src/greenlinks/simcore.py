"""Discrete-event core: engine, scenario runtime and experiment drivers.

Determinism contract: one seeded random.Random per engine, a heap keyed
by (time, insertion sequence) so ties break by scheduling order, and no
wall-clock anywhere.  Two runs with the same scenario and seed produce
identical traces, metrics and latency samples, byte for byte.

A periodic stream (Engine.every: the workload's SELLs and BUYs, the
failure draws) holds one event on the heap at a time, so the heap stays
as deep as the pending one-shot events, not the whole horizon's.  Each
of its events keeps the (time, sequence) key that scheduling the whole
stream up front would give it, so the dispatch order is the same.

A Simulation is one run of a loaded scenario (scenario.check_scenario):
it shares the scenario's sections and world Graph with every other run
and builds only per-run state, such as the Topology of its link states.

Each traffic interval draws its attempts at once; they are records,
not events, but each takes the heap sequence number scheduling it would
have taken, so they are released in heap order, ties included, without
passing through the heap (Engine.events_processed does not count them).
Each attempt is scored as it is released, against the component labels
the run's Topology keeps live (labelled once, then relabelled only on
the side of a link that a transition cuts off or joins), twice against
the same fault timeline:

* virtual-operator scoring: an attempt needs a live path from source to
  destination, whatever shape that path has (same node: none at all;
  same zone: the zone's links; cross zone: up through the cloud);
* conventional scoring: every attempt, even node-local, needs both ends
  to reach the cloud, because the core network is the only switch.

Any attempt the conventional architecture completes is an attempt the
virtual operator also completes (src-cloud plus cloud-dst is itself a
source-destination path), so per-attempt failure containment holds by
construction; the scorer still counts violations rather than assuming
them away.  The counts go into flat (interval, service) slots of the
run's RunCounts, which is the ledger the studies read their rates from.

The event tape (attempt and link-transition records, in order) is kept
only by a run that asks for it with ``trace=True``: simulate --trace
keeps run 0's, and tests keep theirs.  Scoring never reads it.

The identity bench, identity_latency_bench(cfg, seed), is no
Simulation: it reads one loaded identity_bench section, draws one
Poisson stream of lookups, hashes each IMSI once, and replays that
stream through the FIFO servers of every (model, servers) entry, so the
models differ only in routing (common random numbers).
Its results are columns that share one arrivals list.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import random
import statistics
from collections.abc import Iterator
from dataclasses import dataclass

from . import identity
from .apps import Workload, choose
from .errors import ScenarioError
from .identity import IdentityService, ResolverRing, resolver_for
from .sync import CloudStore, LatencyRecord, LocalServer, MessageBoard
from .topology import Role, Topology
from .topology import build_topology  # unused here; perfbench/tracing.py wraps it

SERVICES = ("call", "sms", "data")
SERVICE_INDEX = {service: i for i, service in enumerate(SERVICES)}
METRICS = {
    "vce": ("call", "vc"),
    "cce": ("call", "cell"),
    "vse": ("sms", "vc"),
    "cse": ("sms", "cell"),
    "vde": ("data", "vc"),
    "cde": ("data", "cell"),
}
# The cloud's service time for one sync request is uniform within this
# fraction either side of sync.service_s.
SERVICE_JITTER = 0.5


# ------------------------------------------------------------------ engine


class Engine:
    """Minimal event loop: schedule, dispatch, trace.

    Each heap entry is (at, seq, kind, payload, stream), stream None for
    a one-shot event; seq is unique, so the order never compares past
    it.  A periodic stream from every() is one entry whose stream is
    (period, until): dispatching it puts the stream's next event on the
    heap first, under the keys every() reserved.

    ``key`` is the (time, sequence) heap key of the event being
    dispatched.  Records kept in time order outside the heap, such as a
    Simulation's traffic attempts, take their sequence numbers from
    next_seq(), so they order against events exactly as scheduled events
    would; they are not events, and events_processed does not count them.
    ``trace`` is the event tape, a list with ``trace=True`` and None
    otherwise; log() does nothing without one.
    """

    def __init__(self, seed: int = 0, *, trace: bool = False):
        self.now = 0.0
        self.rng = random.Random(seed)
        self.handlers: dict[str, object] = {}
        self.trace: list[tuple] | None = [] if trace else None
        self.events_processed = 0
        self.key: tuple[float, int] = (0.0, 0)
        self._heap: list = []
        self._seq = 0

    def clock(self) -> float:
        return self.now

    def on(self, kind: str, handler) -> None:
        self.handlers[kind] = handler

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def schedule(self, at: float, kind: str, **payload) -> None:
        heapq.heappush(self._heap, (at, self.next_seq(), kind, payload, None))

    def every(
        self, first: float, period: float, until: float, kind: str, **payload
    ) -> None:
        """The events ``t = first; while t < until: schedule(t, kind,
        **payload); t += period`` gives, with the same heap keys, holding
        one on the heap at a time.  The stream's sequence numbers are
        reserved now, one per event, so what is scheduled after this call
        numbers as it would after that loop.  Counting them steps the
        clock as the loop would: a caller bounds until / period first.
        Every event of the stream hands its handler the same payload.
        The running sum stays: first + k * period differs from it in the
        last bit for a non-dyadic period, which reorders events against
        the one shared random stream (the hash gate's nondyadic cases)."""
        count = 0
        t = first
        while t < until:
            count += 1
            t += period
        if count:
            heapq.heappush(
                self._heap, (first, self._seq + 1, kind, payload, (period, until))
            )
            self._seq += count

    def log(self, record: tuple) -> None:
        if self.trace is not None:
            self.trace.append(record)

    def run_until(self, horizon: float | None) -> None:
        """Process events in time order; stop after ``horizon`` (inclusive)
        or, with horizon None, when the heap is empty."""
        heap = self._heap
        while heap:
            at, seq, kind, payload, stream = heap[0]
            if horizon is not None and at > horizon:
                break
            # A stream's next event goes on before the handler runs, so a
            # handler that on() replaced keeps the stream going.
            if stream is not None and at + stream[0] < stream[1]:
                heapq.heapreplace(heap, (at + stream[0], seq + 1, kind, payload, stream))
            else:
                heapq.heappop(heap)
            self.key = (at, seq)
            if at > self.now:
                self.now = at
            handler = self.handlers.get(kind)
            if handler is not None:
                handler(**payload)
            self.events_processed += 1


# ----------------------------------------------------------- run artifacts


def interval_means(ledgers: list[RunCounts]) -> tuple:
    """Per-interval drop rates averaged over replications, as columns:
    (range of interval indexes, *one list of means per metric in METRICS
    order)."""
    n = ledgers[0].intervals if ledgers else 0
    return (
        range(n),
        *(
            [statistics.fmean([lg.rate(metric, idx) for lg in ledgers]) for idx in range(n)]
            for metric in METRICS
        ),
    )


def interval_count(horizon: float, interval_s: float) -> int:
    """Whole traffic intervals in a horizon: run() schedules this many and
    RunCounts keeps this many buckets."""
    return int(horizon / interval_s)


@dataclass(init=False)
class RunCounts:
    """One run's ledger: its attempts and drops under both architectures,
    in flat slots, one per (interval, service): slot
    interval * len(SERVICES) + SERVICE_INDEX[service].  An attempt at or
    past the last interval's end counts in the last interval.  Ledgers
    compare by their counts."""

    interval_s: float
    intervals: int
    attempted: list[int]
    dropped_vc: list[int]
    dropped_cell: list[int]
    containment_violations: int

    def __init__(self, interval_s: float, horizon: float):
        self.interval_s = interval_s
        self.intervals = interval_count(horizon, interval_s)
        self.attempted = [0] * (self.intervals * len(SERVICES))
        self.dropped_vc = self.attempted.copy()
        self.dropped_cell = self.attempted.copy()
        self.containment_violations = 0

    def score(self, topology: Topology, records) -> None:
        """Count (at, seq, src, dst, service) attempt records against the
        component labels ``topology`` holds now."""
        labels = topology.labels
        cloud = labels[topology.graph.cloud_id]
        interval_s = self.interval_s
        last = self.intervals - 1
        width = len(SERVICES)
        attempted, dropped_vc, dropped_cell = (
            self.attempted, self.dropped_vc, self.dropped_cell
        )
        for at, _, src, dst, service in records:
            src_c = labels[src]
            dst_c = labels[dst]
            vc_ok = src_c == dst_c
            cell_ok = src_c == cloud and dst_c == cloud
            if cell_ok and not vc_ok:
                self.containment_violations += 1
            interval = int(at / interval_s)
            if interval > last:
                interval = last
            slot = interval * width + SERVICE_INDEX[service]
            attempted[slot] += 1
            if not vc_ok:
                dropped_vc[slot] += 1
            if not cell_ok:
                dropped_cell[slot] += 1

    def dropped(self, arch: str) -> list[int]:
        return self.dropped_vc if arch == "vc" else self.dropped_cell

    def rate(self, metric: str, interval: int) -> float:
        """One interval's drops over its attempts, 0.0 with none."""
        service, arch = METRICS[metric]
        slot = interval * len(SERVICES) + SERVICE_INDEX[service]
        n = self.attempted[slot]
        return self.dropped(arch)[slot] / n if n else 0.0

    def totals(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """(attempted per service, dropped per (service, arch)), no zeros."""
        width = len(SERVICES)
        attempted, dropped = {}, {}
        for i, service in enumerate(SERVICES):
            if n := sum(self.attempted[i::width]):
                attempted[service] = n
            for arch in ("vc", "cell"):
                if n := sum(self.dropped(arch)[i::width]):
                    dropped[(service, arch)] = n
        return attempted, dropped

    def overall(self, metric: str) -> float:
        service, arch = METRICS[metric]
        attempted, dropped = self.totals()
        n = attempted.get(service, 0)
        return dropped.get((service, arch), 0) / n if n else 0.0


def evaluate_dual(counts: RunCounts) -> RunCounts:
    """The run's ledger, which is its scored counts: returned as they are.
    Kept as a name because perfbench/tracing.py wraps it and counts a
    run's attempts from its totals()."""
    return counts


# -------------------------------------------------------------- simulation


@dataclass
class RunResult:
    """``ledger`` is None for a run that scored no attempt, and ``trace``
    is the event tape of a run made with trace=True, else None."""

    ledger: RunCounts | None
    latency: list[LatencyRecord]
    trace: list[tuple] | None


class Simulation:
    """One run of a loaded scenario, wired to an engine.

    Sections drive behavior: ``traffic`` and ``failures`` (if present in
    the scenario) feed the dual-architecture availability study; app
    workloads are scheduled from outside through the public surface
    (local(), identity, engine).  The draws index the graph's pools,
    which filtering the graph at draw time would give in the same order;
    link state is read when a draw lands.  ``trace=True`` keeps the
    run's event tape in engine.trace.
    """

    def __init__(
        self,
        scenario: dict,
        *,
        seed: int = 0,
        priority_queue: bool = False,
        trace: bool = False,
    ):
        if scenario["graph"] is None:
            raise ScenarioError("scenario defines no nodes")
        self.scenario = scenario
        self.graph = scenario["graph"]
        self.topology = Topology(self.graph)
        self.engine = Engine(seed, trace=trace)
        self.priority_queue = priority_queue
        self.store = CloudStore()
        self.board = MessageBoard()
        self.store.register_handler("__msg__", self.board.handler)
        self.identity = IdentityService(self.topology)
        self.locals: dict[int, LocalServer] = {}
        self._queue_gen: dict[int, int] = {}
        # Drawn attempts not yet scored, as (at, seq, src, dst, service)
        # sorted by heap key; see _log_attempts_before.
        self._attempts: list[tuple] = []
        # The run's attempt counts; run() makes them for a traffic section.
        self.counts: RunCounts | None = None
        e = self.engine
        e.on("traffic_interval", self._on_traffic_interval)
        e.on("failure_draw", self._on_failure_draw)
        e.on("link_restore", self._on_link_restore)
        e.on("queue_eta", self._on_queue_eta)

    # ------------------------------------------------------------ wiring

    def _service_time(self) -> float:
        jitter = SERVICE_JITTER * (2.0 * self.engine.rng.random() - 1.0)
        return self.scenario["sync"]["service_s"] * (1.0 + jitter)

    def local(self, node_id: int) -> LocalServer:
        """The node's sync endpoint (created on first use)."""
        server = self.locals.get(node_id)
        if server is None:
            cache = self.identity.caches[node_id]

            def resolve_local(name, _cache=cache, _nid=node_id):
                entry = _cache.get(name)
                if entry is not None and entry.address.node == _nid:
                    return _nid
                return None

            server = LocalServer(
                node_id,
                functools.partial(self.topology.cloud_route, node_id),
                self.store,
                self.engine.clock,
                fastget_timeout_s=self.scenario["sync"]["fastget_timeout_s"],
                service_time=self._service_time,
                wake=functools.partial(self.poke, node_id),
                board=self.board,
                resolve_local=resolve_local,
                priority_mode=self.priority_queue,
            )
            self.locals[node_id] = server
            self._queue_gen[node_id] = 0
        return server

    # -------------------------------------------------------- queue pokes

    def poke(self, node_id: int) -> None:
        """Re-drain a node's lazy queue on the route in force, put its
        current route in force and reschedule its completion wake-up.
        It runs as the node's LocalServer wake() when an enqueue finds
        the queue idle, when a link flip changes the node's route
        (set_link) and at each predicted completion (_on_queue_eta)."""
        server = self.locals[node_id]
        for comp in server.advance(self.engine.now):
            if comp.request.app_type == "__msg__":
                self._deliver_messages(comp.apply_at)
        self._queue_gen[node_id] += 1
        eta = server.eta(self.engine.now)
        if eta is not None:
            self.engine.schedule(
                eta, "queue_eta", node=node_id, gen=self._queue_gen[node_id]
            )

    def _on_queue_eta(self, node: int, gen: int) -> None:
        if gen != self._queue_gen[node]:
            return
        self.poke(node)

    # ----------------------------------------------------------- messages

    def _resolve_dest_node(self, name: str):
        found = self.identity.registry.find(name)
        return found[1].node if found else None

    def _deliver_messages(self, at: float) -> None:
        """Hand parked mailbox messages to destination nodes whose path to
        the cloud is live right now."""
        if not self.board.pending:
            return
        for node_id in sorted(self.locals):
            server = self.locals[node_id]
            route = server.route()
            if route is None:
                continue
            pulled = self.board.pull(node_id, self._resolve_dest_node, at)
            for env in pulled:
                server.records.append(
                    LatencyRecord(
                        request_id=env["id"],
                        klass="message",
                        app_type="__msg__",
                        size=len(env["body"]),
                        enqueued_at=env["created_at"],
                        delivered_at=at + route[1],
                    )
                )

    # ----------------------------------------------------------- failures

    def _failure_candidates(self, cloud_side: bool) -> tuple:
        return self.graph.failure_pool[cloud_side]

    def set_link(self, link_id: str, up: bool) -> None:
        """Bring a link up or down: score the attempts drawn before this
        event against the old state, flip it, trace it as "up" or "down",
        poke only the sites whose route() now differs from their route in
        force, and on restore run pending identity work and message
        delivery.  An unknown link id raises UnknownLink."""
        if self.topology.link_up(link_id) == up:
            return
        self._log_attempts_before(self.engine.key)
        self.topology.set_link_state(link_id, up)
        self.engine.log(("link", self.engine.now, link_id, "up" if up else "down"))
        for node_id in sorted(self.locals):
            server = self.locals[node_id]
            if server.route() != server.in_force:
                self.poke(node_id)
        if up:
            self.identity.flush_pending()
            for node_id in sorted(self.locals):
                self.identity.sync_node(node_id)
            self._deliver_messages(self.engine.now)

    def _on_failure_draw(self, outage_mean_s: float, cloud_share: float) -> None:
        rng = self.engine.rng
        cloud_side = rng.random() < cloud_share
        candidates = self._failure_candidates(cloud_side)
        if not candidates:
            candidates = self._failure_candidates(not cloud_side)
        link = candidates[rng.randrange(len(candidates))]
        duration = rng.expovariate(1.0 / outage_mean_s)
        if not self.topology.up[link.link_id]:
            return  # already down; this draw fizzles
        self.set_link(link.link_id, False)
        self.engine.schedule(
            self.engine.now + duration, "link_restore", link_id=link.link_id
        )

    def _on_link_restore(self, link_id: str) -> None:
        self.set_link(link_id, True)

    # ------------------------------------------------------------ traffic

    def _on_traffic_interval(self, config: dict) -> None:
        """Draw the interval's attempts.  They are records, not events:
        each takes the heap sequence number scheduling it would have
        taken, and waits in the sorted buffer until _log_attempts_before
        scores it."""
        self._log_attempts_before(self.engine.key)
        rng = self.engine.rng
        getrandbits, draw = rng.getrandbits, rng.random
        next_seq = self.engine.next_seq
        start = self.engine.now
        interval = config["interval_s"]
        level2 = self.graph.role_pool[Role.LEVEL2]
        level3 = self.graph.role_pool[Role.LEVEL3]
        share2 = config["level_share"]["level2"]
        mix = config["dest_mix"]
        local = mix["local"]
        near = mix["local"] + mix["zone"]
        pools = self.graph.dest_pools
        drawn = self._attempts
        for service in SERVICES:
            for _ in range(int(config["attempts"].get(service, 0))):
                pool = level2 if (draw() < share2 or not level3) else level3
                src = choose(getrandbits, pool)
                roll = draw()
                if roll < local:
                    dst = src
                else:
                    mates, outside = pools[src]
                    if roll < near and mates:
                        dst = choose(getrandbits, mates)
                    elif outside:
                        dst = choose(getrandbits, outside)
                    elif mates:
                        dst = choose(getrandbits, mates)
                    else:
                        dst = src
                drawn.append((start + interval * draw(), next_seq(), src, dst, service))
        drawn.sort()

    def _log_attempts_before(self, key: tuple) -> None:
        """Release the drawn attempts whose (at, seq) is below ``key``, in
        key order: the attempts the heap would have dispatched before the
        event with that key.  Each is scored against the link state of
        now, and logged when the engine keeps a trace."""
        drawn = self._attempts
        n = bisect.bisect_left(drawn, key)
        if n:
            released = drawn[:n]
            del drawn[:n]
            self.counts.score(self.topology, released)
            trace = self.engine.trace
            if trace is not None:
                trace.extend(
                    ("attempt", at, src, dst, service)
                    for at, _, src, dst, service in released
                )

    # --------------------------------------------------------------- run

    def run(self, horizon: float | None = None) -> RunResult:
        """Schedule the scenario's own sections up to the horizon and
        process events to quiescence: the backlog left at a finite
        horizon (queued transfers, restores and deliveries) runs to
        completion, but no new traffic or failure draw starts after it.
        horizon None needs a scenario without those sections, and any
        other must be finite and above 0.
        """
        check_horizon(self.scenario, horizon)
        tcfg, fcfg = self.scenario["traffic"], self.scenario["failures"]
        if tcfg:
            interval = tcfg["interval_s"]
            self.counts = RunCounts(interval, horizon)
            # Products, not every()'s running sum, which differs in the last
            # bit for a non-dyadic interval (see Engine.every).
            for i in range(interval_count(horizon, interval)):
                self.engine.schedule(i * interval, "traffic_interval", config=tcfg)
        if fcfg:
            self.engine.every(
                0.0,
                fcfg["interval_s"],
                horizon,
                "failure_draw",
                outage_mean_s=fcfg["outage_mean_s"],
                cloud_share=fcfg["target_mix"]["cloud"],
            )
        self.engine.run_until(None)
        self._log_attempts_before((math.inf,))
        counts = self.counts
        ledger = None
        if counts is not None and any(counts.attempted):
            ledger = evaluate_dual(counts)
        latency: list[LatencyRecord] = []
        for node_id in sorted(self.locals):
            latency.extend(self.locals[node_id].records)
        latency.sort(key=lambda r: (r.enqueued_at, r.request_id))
        return RunResult(ledger=ledger, latency=latency, trace=self.engine.trace)

    def close(self) -> None:
        """Drop the references that point back at this Simulation: the
        engine's handlers, and each LocalServer's wake and service_time.
        A finished run is then freed by reference counting, without
        waiting for the cyclic collector.  Nothing may run on it after."""
        self.engine.handlers.clear()
        for server in self.locals.values():
            server.wake = server.service_time = None


def check_horizon(scenario: dict, horizon: float | None) -> None:
    """The horizons Simulation.run takes: None, or finite and above 0,
    and not None for a scenario with traffic or failures."""
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise ScenarioError(f"horizon must be finite and above 0, got {horizon}")
    if (scenario["traffic"] or scenario["failures"]) and horizon is None:
        raise ScenarioError("traffic and failure sections need a finite horizon")


# ----------------------------------------------------------- monte carlo


def replicate(
    scenario: dict,
    runs: int,
    horizon: float | None,
    *,
    base_seed: int = 0,
    priority_queue: bool = False,
    trace: bool = False,
) -> Iterator[RunResult]:
    """Independent replications of a loaded scenario, made one at a time
    as the caller asks for them; run i uses seed base_seed + i.  All
    share the scenario's graph and sections.  A ``workload`` section is
    scheduled, up to the horizon, before the run schedules its traffic
    and failures.  ``trace=True`` keeps the event tape of run 0 only.
    Each run is closed when it returns, so it is freed as soon as the
    caller drops its result, and a caller that keeps only what it needs
    of each holds one Simulation at a time."""
    for i in range(runs):
        yield _run_once(
            scenario, horizon, base_seed + i, priority_queue, trace and i == 0
        )


def _run_once(
    scenario: dict, horizon: float | None, seed: int, priority_queue: bool, trace: bool
) -> RunResult:
    sim = Simulation(scenario, seed=seed, priority_queue=priority_queue, trace=trace)
    if scenario["workload"] is not None:
        Workload(sim).schedule(horizon)
    result = sim.run(horizon)
    sim.close()
    return result


@dataclass
class MonteCarloResult:
    per_run: dict[str, list[float]]
    containment_violations: int

    def mean(self, metric: str) -> float:
        return statistics.fmean(self.per_run[metric])

    def stdev(self, metric: str) -> float:
        vals = self.per_run[metric]
        return statistics.stdev(vals) if len(vals) > 1 else 0.0

    def ci95(self, metric: str) -> float:
        n = len(self.per_run[metric])
        return 1.96 * self.stdev(metric) / (n ** 0.5) if n > 1 else 0.0


def aggregate(ledgers: list[RunCounts]) -> MonteCarloResult:
    """Overall drop rates per run and the summed containment violations."""
    return MonteCarloResult(
        per_run={m: [lg.overall(m) for lg in ledgers] for m in METRICS},
        containment_violations=sum(lg.containment_violations for lg in ledgers),
    )


# ------------------------------------------------------- identity bench


@dataclass
class BenchResult:
    """One model's lookups as columns: ``arrivals`` is the stream every
    model of the bench shares (the same list object), ``routed`` and
    ``sojourns`` are this model's server and sojourn per arrival."""

    model: str
    servers: int
    arrivals: list[float]
    routed: list[int]
    sojourns: list[float]

    def mean(self) -> float:
        return statistics.fmean(self.sojourns) if self.sojourns else 0.0

    def quantiles(self, *qs: float) -> list[float]:
        """Nearest-rank sojourn quantiles, one per q, from one sort: the
        sample at rank round(q * (n - 1)); 0.0 each with no samples."""
        vals = sorted(self.sojourns)
        if not vals:
            return [0.0] * len(qs)
        top = len(vals) - 1
        return [vals[min(top, int(round(q * top)))] for q in qs]


def identity_latency_bench(cfg: dict, seed: int) -> list[BenchResult]:
    """Lookup latency under load, one BenchResult per entry of a loaded
    ``identity_bench`` section's ``models``, in order.

    One Poisson arrival stream with one IMSI per arrival is drawn from
    random.Random(seed), and every model replays that same stream
    (common random numbers): central queues each lookup on its single
    directory server, dht on the resolver ring member that owns the
    IMSI.  Each IMSI is hashed once, with the seed every bench ring has
    (ResolverRing's default), and each server is FIFO.  So dht with one
    server reproduces central sample for sample, and a model listed
    twice gives equal columns.
    """
    specs = [(spec["model"], spec["servers"]) for spec in cfg["models"]]
    load_rps, duration_s = cfg["load_rps"], cfg["duration_s"]
    service_s, latency_s = cfg["service_s"], cfg["latency_s"]
    hashed = any(model == "dht" for model, _ in specs)
    rng = random.Random(seed)
    arrivals: list[float] = []
    hashes: list[int] = []
    t = 0.0
    while True:
        t += rng.expovariate(load_rps)
        if t >= duration_s:
            break
        arrivals.append(t)
        imsi = rng.randrange(10 ** 15)
        if hashed:
            hashes.append(identity.hash32(f"{imsi:015d}", ResolverRing.seed))
    results = []
    for model, servers in specs:
        if model == "central":
            routed = [0] * len(arrivals)
        else:
            ring = ResolverRing(members=tuple(range(servers)))
            routed = [resolver_for(ring, h) for h in hashes]
        free_at = [0.0] * servers
        sojourns = []
        for t, server in zip(arrivals, routed):
            start = max(t + latency_s, free_at[server])
            done = start + service_s
            free_at[server] = done
            sojourns.append(done + latency_s - t)
        results.append(BenchResult(model, servers, arrivals, routed, sojourns))
    return results

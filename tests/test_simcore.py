"""Engine, dual-architecture scoring, uplinks, monte carlo, identity bench."""

import gc
import itertools
import math
import random
import statistics
import tracemalloc
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenlinks.identity as identity_mod
from greenlinks import simcore
from greenlinks.apps import Workload, choose
from greenlinks.errors import ScenarioError, UnknownLink
from greenlinks.identity import ResolverRing, hash32, resolver_for
from greenlinks.scenario import (
    WORK_BOUND,
    check_scenario,
    generate_tree,
    section,
    work_estimate,
)
from greenlinks.simcore import (
    METRICS,
    SERVICE_INDEX,
    SERVICES,
    Engine,
    MonteCarloResult,
    RunCounts,
    Simulation,
    aggregate,
    evaluate_dual,
    identity_latency_bench,
    interval_count,
    interval_means,
    replicate,
)
from greenlinks.topology import Role, Topology, build_topology


# ------------------------------------------------------------------ engine


def test_engine_orders_by_time_then_insertion():
    order = []
    e = Engine(seed=0)
    e.on("ev", lambda tag: order.append(tag))
    e.schedule(5.0, "ev", tag="a")
    e.schedule(5.0, "ev", tag="b")
    e.schedule(3.0, "ev", tag="c")
    e.run_until(None)
    assert order == ["c", "a", "b"]
    assert e.now == 5.0 and e.events_processed == 3


def test_engine_horizon_is_inclusive_and_resumable():
    seen = []
    e = Engine(seed=0)
    e.on("ev", lambda tag: seen.append(tag))
    for t, tag in [(1.0, "x"), (2.0, "y"), (2.5, "z")]:
        e.schedule(t, "ev", tag=tag)
    e.run_until(2.0)
    assert seen == ["x", "y"]
    e.run_until(None)
    assert seen == ["x", "y", "z"]


def stream_times(first, period, until):
    t, times = first, []
    while t < until:
        times.append(t)
        t += period
    return times


def dispatch_record(build, horizons):
    """(at, seq, kind, payload) of every event an Engine dispatches after
    build(engine), run to each horizon in turn.  A "one" event with
    follow=True schedules a "late" event 0.25 s on, and the first "tick"
    replaces the tick handler, which the stream must outlive."""
    e = Engine(seed=0)
    seen = []

    def handler(kind):
        def handle(**payload):
            seen.append((*e.key, kind, payload))
            if payload.get("follow"):
                e.schedule(e.now + 0.25, "late", tag=payload["tag"])
            if kind == "tick":
                e.on("tick", handler("tick"))

        return handle

    for kind in ("one", "late", "tick"):
        e.on(kind, handler(kind))
    build(e)
    for horizon in horizons:
        e.run_until(horizon)
    assert not e._heap
    return seen


stream_spec = st.floats(0.0, 50.0).flatmap(
    lambda first: st.tuples(
        st.just(first),
        st.floats(0.5, 20.0),
        st.one_of(st.just(first), st.floats(0.0, 80.0)),
    )
)


@settings(max_examples=150, deadline=None)
@given(streams=st.lists(stream_spec, min_size=1, max_size=3), data=st.data())
def test_every_dispatches_what_the_scheduling_loop_does(streams, data):
    times = [t for spec in streams for t in stream_times(*spec)]
    at = st.floats(0.0, 100.0)
    if times:
        at = st.one_of(st.sampled_from(times), at)
    before = data.draw(st.lists(at, max_size=5))
    after = data.draw(st.lists(at, max_size=5))
    stop = data.draw(at)

    def plan(periodic):
        def build(e):
            for k, t in enumerate(before):
                e.schedule(t, "one", tag=k, follow=k % 2 == 0)
            for n, spec in enumerate(streams):
                periodic(e, *spec, n)
            for k, t in enumerate(after):
                e.schedule(t, "one", tag=100 + k, follow=k % 2 == 1)

        return build

    def every(e, first, period, until, n):
        e.every(first, period, until, "tick", stream=n)

    def loop(e, first, period, until, n):
        for t in stream_times(first, period, until):
            e.schedule(t, "tick", stream=n)

    for horizons in ([None], [stop, None]):
        got = dispatch_record(plan(every), horizons)
        assert got == dispatch_record(plan(loop), horizons)
        assert sum(kind == "tick" for *_, kind, _ in got) == len(times)


# ----------------------------------------------------------- dual scoring


def hand_scored(cfg, events, horizon):
    """Score hand-written attempt and link records in order through a
    Topology, as a run scores its attempts: each against the link state
    of its time.  Intervals are 10 s."""
    topology = Topology(build_topology(cfg))
    counts = RunCounts(10.0, horizon)
    for ev in events:
        if ev[0] == "link":
            _, _, link_id, state = ev
            topology.set_link_state(link_id, state == "up")
        else:
            _, at, src, dst, service = ev
            counts.score(topology, [(at, 0, src, dst, service)])
    return evaluate_dual(counts)


def hand_trace():
    cfg = generate_tree(1, 1)  # cloud 0, level2 1, level3 2
    events = [
        ("attempt", 1.0, 1, 1, "call"),
        ("attempt", 2.0, 2, 1, "sms"),
        ("link", 5.0, "b0", "down"),
        ("attempt", 6.0, 1, 1, "call"),   # local call survives, cell drops
        ("attempt", 7.0, 2, 1, "data"),   # in-zone hop survives, cell drops
        ("link", 12.0, "z0n0", "down"),
        ("attempt", 13.0, 2, 1, "sms"),   # fully partitioned: both drop
        ("link", 15.0, "b0", "up"),
        ("attempt", 16.0, 1, 2, "call"),  # node 2 still cut off: both drop
        ("attempt", 17.0, 1, 1, "data"),
        ("link", 25.0, "z0n0", "up"),
        ("attempt", 26.0, 2, 2, "call"),
        ("attempt", 39.0, 1, 2, "sms"),
        ("attempt", 40.0, 1, 1, "call"),  # boundary: clamps to the last bucket
    ]
    return hand_scored(cfg, events, 40.0)


def test_dual_scoring_matches_the_hand_scored_trace():
    ledger = hand_trace()
    assert ledger.containment_violations == 0
    assert ledger.overall("vce") == pytest.approx(1 / 5)
    assert ledger.overall("cce") == pytest.approx(2 / 5)
    assert ledger.overall("vse") == pytest.approx(1 / 3)
    assert ledger.overall("cse") == pytest.approx(1 / 3)
    assert ledger.overall("vde") == 0.0
    assert ledger.overall("cde") == pytest.approx(1 / 2)
    rows = list(zip(*interval_means([ledger])))
    assert rows[0] == (0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0)
    assert rows[1] == (1, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    assert rows[2] == (2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert rows[3] == (3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_attempted_totals_are_conserved():
    ledger = hand_trace()
    attempted, dropped = ledger.totals()
    assert attempted == {"call": 5, "sms": 3, "data": 2}
    for (service, _arch), n in dropped.items():
        assert 0 <= n <= attempted[service]


# The ledger's earlier shape, kept as an oracle: one IntervalCounts pair
# of dicts per interval, converted from a run's flat slots.
@dataclass
class IntervalCounts:
    attempted: dict[str, int]
    dropped: dict[tuple[str, str], int]

    def rate(self, service: str, arch: str) -> float:
        n = self.attempted.get(service, 0)
        if n == 0:
            return 0.0
        return self.dropped.get((service, arch), 0) / n


@dataclass
class MetricsLedger:
    intervals: list[IntervalCounts]
    containment_violations: int = 0

    def totals(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        attempted: dict[str, int] = {}
        dropped: dict[tuple[str, str], int] = {}
        for iv in self.intervals:
            for svc, n in iv.attempted.items():
                attempted[svc] = attempted.get(svc, 0) + n
            for key, n in iv.dropped.items():
                dropped[key] = dropped.get(key, 0) + n
        return attempted, dropped

    def overall(self, metric: str) -> float:
        return IntervalCounts(*self.totals()).rate(*METRICS[metric])


def reference_ledger(counts: RunCounts) -> MetricsLedger:
    width = len(SERVICES)
    intervals = []
    for base in range(0, counts.intervals * width, width):
        iv = IntervalCounts(attempted={}, dropped={})
        for service, slot in zip(SERVICES, range(base, base + width)):
            if counts.attempted[slot]:
                iv.attempted[service] = counts.attempted[slot]
            if counts.dropped_vc[slot]:
                iv.dropped[(service, "vc")] = counts.dropped_vc[slot]
            if counts.dropped_cell[slot]:
                iv.dropped[(service, "cell")] = counts.dropped_cell[slot]
        intervals.append(iv)
    return MetricsLedger(intervals, counts.containment_violations)


def reference_interval_means(ledgers: list[MetricsLedger]) -> tuple:
    n = len(ledgers[0].intervals) if ledgers else 0
    return (
        range(n),
        *(
            [
                statistics.fmean([lg.intervals[idx].rate(*key) for lg in ledgers])
                for idx in range(n)
            ]
            for key in METRICS.values()
        ),
    )


@st.composite
def flat_table(draw, intervals):
    """A RunCounts over ``intervals`` intervals with drawn slots: zero
    attempts included, each drop count at most its slot's attempts."""
    counts = RunCounts(1.0, float(intervals))
    slots = intervals * len(SERVICES)
    counts.attempted = draw(
        st.lists(st.just(0) | st.integers(1, 40), min_size=slots, max_size=slots)
    )
    counts.dropped_vc = [draw(st.integers(0, n)) for n in counts.attempted]
    counts.dropped_cell = [draw(st.integers(0, n)) for n in counts.attempted]
    counts.containment_violations = draw(st.integers(0, 5))
    return counts


@settings(max_examples=100, deadline=None)
@given(
    ledgers=st.integers(1, 20).flatmap(
        lambda n: st.lists(flat_table(n), min_size=1, max_size=3)
    )
)
def test_the_ledger_reads_what_the_interval_dicts_read(ledgers):
    references = [reference_ledger(lg) for lg in ledgers]
    for lg, ref in zip(ledgers, references):
        for metric, key in METRICS.items():
            assert lg.overall(metric) == ref.overall(metric)
            for idx in range(lg.intervals):
                assert lg.rate(metric, idx) == ref.intervals[idx].rate(*key)
        assert lg.totals() == ref.totals()
    assert interval_means(ledgers) == reference_interval_means(references)


def test_scoring_starts_from_the_links_initial_state():
    cfg = generate_tree(1, 0)
    cfg["links"][0]["state"] = "down"
    events = [
        ("attempt", 1.0, 1, 1, "call"),  # local call survives, cell drops
        ("link", 2.0, "b0", "up"),
        ("attempt", 3.0, 1, 1, "call"),
    ]
    ledger = hand_scored(cfg, events, 10.0)
    assert ledger.overall("vce") == 0.0
    assert ledger.overall("cce") == pytest.approx(1 / 2)


# A causality check that never consults the scorer: times must not go
# backwards, link records must be real transitions, attempts must name
# community nodes and land inside the horizon.
def validate_trace(graph, events, horizon):
    state = {lid: link.up for lid, link in graph.links.items()}
    t_prev = 0.0
    for ev in events:
        assert ev[1] >= t_prev - 1e-9
        t_prev = ev[1]
        if ev[0] == "link":
            _, _, link_id, word = ev
            assert state[link_id] != (word == "up")
            state[link_id] = word == "up"
        else:
            _, at, src, dst, service = ev
            assert service in SERVICES
            assert src in graph.nodes and dst in graph.nodes
            cloud = graph.cloud_id
            assert src != cloud and dst != cloud
            assert 0.0 <= at <= horizon


def test_simulated_traces_pass_the_causality_check():
    scenario = generate_tree(3, 2)
    scenario["traffic"] = {"interval_s": 60.0}
    scenario["failures"] = {"interval_s": 120.0, "outage_mean_s": 90.0}
    scenario = check_scenario(scenario)
    for seed in range(5):
        result = Simulation(scenario, seed=seed, trace=True).run(600.0)
        validate_trace(scenario["graph"], result.trace, 600.0)
        assert result.ledger.containment_violations == 0


def test_interval_counts_match_the_traffic_section():
    # (horizon, interval, whole intervals); traffic and scoring agree on
    # the count even when the interval does not divide the horizon
    for horizon, interval, n in ((200.0, 50.0, 4), (100.0, 60.0, 1)):
        scenario = generate_tree(2, 1)
        scenario["traffic"] = {
            "interval_s": interval,
            "attempts": {"call": 4, "sms": 2, "data": 0},
        }
        result = Simulation(check_scenario(scenario), seed=1).run(horizon)
        attempted, dropped = result.ledger.totals()
        assert attempted == {"call": 4 * n, "sms": 2 * n}
        assert dropped == {}  # nothing ever failed
        assert result.ledger.intervals == n
        width = len(SERVICES)
        slots = result.ledger.attempted
        assert all(sum(slots[i * width:(i + 1) * width]) for i in range(n))


def test_traffic_needs_a_finite_horizon():
    scenario = generate_tree(1, 0)
    scenario["traffic"] = {}
    with pytest.raises(ScenarioError):
        Simulation(check_scenario(scenario), seed=0).run(None)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -5.0, 0.0])
def test_run_refuses_a_horizon_before_it_schedules_anything(horizon):
    # Failures alone: an infinite horizon would never leave the loop
    # that schedules failure draws, so scheduling fails the test.
    scenario = generate_tree(1, 1)
    scenario["failures"] = {"interval_s": 60.0}
    sim = Simulation(check_scenario(scenario), seed=0)

    def schedule(*args, **kwargs):
        raise AssertionError("run scheduled an event")

    sim.engine.schedule = sim.engine.every = schedule
    with pytest.raises(ScenarioError, match="horizon"):
        sim.run(horizon)


def test_runs_are_reproducible_per_seed():
    scenario = generate_tree(2, 2)
    scenario["traffic"] = {}
    scenario["failures"] = {}
    scenario = check_scenario(scenario)
    a = Simulation(scenario, seed=42, trace=True).run(900.0)
    b = Simulation(scenario, seed=42, trace=True).run(900.0)
    assert a.trace == b.trace
    assert interval_means([a.ledger]) == interval_means([b.ledger])
    c = Simulation(scenario, seed=43, trace=True).run(900.0)
    assert c.trace != a.trace


class ReferenceReplay:
    """The scorer as the simulator first ran it, after the run: replay
    the event tape with its own link-state sweep from the links' initial
    state, relabel on each link record, and score each attempt record
    against the replayed labels."""

    def __init__(self, graph, interval_s, horizon):
        self.graph = graph
        self.interval_s = interval_s
        self.horizon = horizon

    def ledger(self, events):
        graph = self.graph
        up = {lid: link.up for lid, link in graph.links.items()}
        interval_s = self.interval_s
        intervals = interval_count(self.horizon, interval_s)
        last = intervals - 1
        width = len(SERVICES)
        attempted = [0] * (intervals * width)
        dropped_vc = attempted.copy()
        dropped_cell = attempted.copy()
        violations = 0
        comp = graph.components(up)
        cloud = comp[graph.cloud_id]
        fresh = len(comp)
        for event in events:
            if event[0] == "link":
                _, _, link_id, state = event
                if up[link_id] != (state == "up"):
                    graph.relabel(comp, up, link_id, fresh)
                    fresh += 1
                    cloud = comp[graph.cloud_id]
            else:
                _, at, src, dst, service = event
                src_c = comp[src]
                dst_c = comp[dst]
                vc_ok = src_c == dst_c
                cell_ok = src_c == cloud and dst_c == cloud
                if cell_ok and not vc_ok:
                    violations += 1
                interval = int(at / interval_s)
                if interval > last:
                    interval = last
                slot = interval * width + SERVICE_INDEX[service]
                attempted[slot] += 1
                if not vc_ok:
                    dropped_vc[slot] += 1
                if not cell_ok:
                    dropped_cell[slot] += 1
        counts = RunCounts(interval_s, self.horizon)
        counts.attempted, counts.dropped_vc, counts.dropped_cell = (
            attempted, dropped_vc, dropped_cell
        )
        counts.containment_violations = violations
        return counts


@settings(max_examples=40, deadline=None)
@given(
    zones=st.integers(1, 3),
    per_zone=st.integers(0, 3),
    interval_s=st.sampled_from([30.0, 45.0, 60.0]),
    intervals=st.integers(1, 8),
    spill=st.floats(0.0, 0.99),
    attempts=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 12)),
    mix=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4)),
    fail_every=st.sampled_from([15.0, 40.0, 90.0]),
    outage=st.sampled_from([20.0, 120.0, 600.0]),
    start_down=st.none() | st.integers(0, 100),
    market=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_online_scoring_matches_the_replayed_tape(
    zones, per_zone, interval_s, intervals, spill, attempts, mix,
    fail_every, outage, start_down, market, seed,
):
    raw = generate_tree(zones, per_zone)
    if start_down is not None:
        raw["links"][start_down % len(raw["links"])]["state"] = "down"
    per_service = dict(zip(SERVICES, attempts))
    total = sum(mix)
    raw["traffic"] = {
        "interval_s": interval_s,
        "attempts": per_service,
        "dest_mix": dict(zip(("local", "zone", "cross"), (m / total for m in mix))),
    }
    raw["failures"] = {"interval_s": fail_every, "outage_mean_s": outage}
    horizon = interval_s * (intervals + spill)
    if market:
        # A workload node cut off from the cloud is rejected at load.
        graph = check_scenario(raw)["graph"]
        if Topology(graph).cloud_route(graph.community[0]) is not None:
            raw["workload"] = {"sellers": 2, "buyers": 2, "until_s": horizon}
    scenario = check_scenario(raw)
    market = scenario["workload"] is not None

    def run(trace):
        sim = Simulation(scenario, seed=seed, trace=trace)
        if market:
            Workload(sim).schedule(horizon)
        return sim.run(horizon)

    traced = run(True)
    ledger = traced.ledger
    replay = ReferenceReplay(scenario["graph"], interval_s, horizon)
    assert ledger == replay.ledger(traced.trace)
    assert ledger.containment_violations == 0
    attempted, _ = ledger.totals()
    assert attempted == {s: intervals * n for s, n in per_service.items() if n}

    assert run(True).trace == traced.trace
    untraced = run(False)
    assert untraced.trace is None
    assert untraced.ledger == ledger
    assert untraced.latency == traced.latency


def test_a_run_without_a_trace_builds_no_attempt_record():
    scenario = generate_tree(2, 2)
    scenario["traffic"] = {
        "interval_s": 60.0,
        "attempts": {"call": 100, "sms": 100, "data": 100},
    }
    scenario["failures"] = {"interval_s": 60.0, "outage_mean_s": 120.0}
    scenario = check_scenario(scenario)
    attempts = 300 * 60

    def run_peak(trace):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            result = Simulation(scenario, seed=3, trace=trace).run(3600.0)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()

    traced, traced_peak = run_peak(True)
    untraced, untraced_peak = run_peak(False)
    assert sum(1 for ev in traced.trace if ev[0] == "attempt") == attempts
    assert untraced.trace is None and untraced.ledger == traced.ledger
    # A 5-tuple alone takes 80 bytes on a 64-bit build: the untraced
    # run's whole heap never reaches what its attempt records would take.
    assert untraced_peak < attempts * 80 < traced_peak


class ReferenceDraws(Simulation):
    """The traffic and failure draws as the simulator first made them:
    every draw filters the graph again, and every attempt is an engine
    event whose handler scores and logs it.  The pooled draws, which
    keep attempts off the heap, must make the same RNG calls with the
    same pool lengths and give the same engine trace, ties included, and
    the same ledger."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, trace=True, **kwargs)
        self.engine.on("attempt", self.attempt)

    def attempt(self, src, dst, service):
        now = self.engine.now
        self.counts.score(self.topology, [(now, 0, src, dst, service)])
        self.engine.log(("attempt", now, src, dst, service))

    def nodes_by_role(self, role):
        return sorted(
            n.node_id for n in self.graph.nodes.values() if n.role is role
        )

    def _on_traffic_interval(self, config):
        rng = self.engine.rng
        start = self.engine.now
        interval = config["interval_s"]
        level2 = self.nodes_by_role(Role.LEVEL2)
        level3 = self.nodes_by_role(Role.LEVEL3)
        share2 = config["level_share"]["level2"]
        mix = config["dest_mix"]
        for service in SERVICES:
            for _ in range(int(config["attempts"].get(service, 0))):
                pool = level2 if (rng.random() < share2 or not level3) else level3
                src = pool[rng.randrange(len(pool))]
                dst = self.draw_dest(rng, src, mix)
                at = start + rng.uniform(0.0, interval)
                self.engine.schedule(at, "attempt", src=src, dst=dst, service=service)

    def _failure_candidates(self, cloud_side):
        cloud = self.graph.cloud_id
        links = []
        for lid in sorted(self.graph.links):
            link = self.graph.links[lid]
            touches_cloud = cloud in (link.a, link.b)
            if touches_cloud == cloud_side:
                links.append(link)
        return links

    def draw_dest(self, rng, src, mix):
        roll = rng.random()
        if roll < mix["local"]:
            return src
        zone = self.graph.nodes[src].zone
        mates = [n for n in self.graph.zones[zone].node_ids if n != src]
        if roll < mix["local"] + mix["zone"] and mates:
            return mates[rng.randrange(len(mates))]
        outside = [
            n
            for n in sorted(self.identity.caches)
            if self.graph.nodes[n].zone != zone
        ]
        if outside:
            return outside[rng.randrange(len(outside))]
        if mates:
            return mates[rng.randrange(len(mates))]
        return src


class CyclingRandom(random.Random):
    """random() cycles 0.0, 0.5, 0.25: attempts land on the same instants
    as each other, as traffic intervals and, through zero-length outages,
    as link flips, so every order among them is decided by heap sequence
    numbers.  getrandbits(k) takes the same cycle scaled to k bits, so
    randrange and the simulator's pool draws both go through it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.cycle = itertools.cycle((0.0, 0.5, 0.25))

    def random(self):
        return next(self.cycle)

    def getrandbits(self, k):
        return int(next(self.cycle) * (1 << k))


def with_draws(scenario):
    """Traffic that takes every destination branch, and failures."""
    scenario["traffic"] = {
        "interval_s": 60.0,
        "attempts": {"call": 6, "sms": 6, "data": 6},
        "dest_mix": {"local": 0.2, "zone": 0.3, "cross": 0.5},
    }
    scenario["failures"] = {"interval_s": 45.0, "outage_mean_s": 120.0}
    return scenario


def lone_gateway_zone():
    # z1 holds only its gateway 4, so node 4 has no zone mates.
    scenario = generate_tree(1, 2)
    scenario["nodes"].append({"id": 4, "role": "level2"})
    scenario["zones"].append({"id": "z1", "nodes": [4], "prefix": "10.1"})
    scenario["links"].append({"id": "b1", "a": 0, "b": 4, "profile": "hsdpa"})
    return scenario


def islanded_cloud():
    # No link touches the cloud, so cloud-side failure draws fall back.
    scenario = generate_tree(1, 2)
    scenario["links"] = [l for l in scenario["links"] if l["a"] != 0]
    return scenario


@pytest.mark.parametrize(
    "build",
    [
        lambda: generate_tree(4, 3),
        lambda: generate_tree(1, 3),  # one zone: nothing outside it
        lambda: generate_tree(1, 0),  # one node: no mates, nothing outside
        lone_gateway_zone,
        islanded_cloud,
    ],
    ids=["tree", "single_zone", "single_node", "lone_gateway", "islanded_cloud"],
)
def test_pooled_draws_match_the_filtering_reference(build):
    scenario = check_scenario(with_draws(build()))
    for seed in range(4):
        pooled = Simulation(scenario, seed=seed, trace=True)
        reference = ReferenceDraws(scenario, seed=seed)
        ledger = pooled.run(900.0).ledger
        assert reference.run(900.0).ledger == ledger
        assert pooled.engine.trace == reference.engine.trace


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_choose_draws_what_random_choice_draws(seed):
    kernel, stock = random.Random(seed), random.Random(seed)
    for _ in range(5):
        for n in range(1, 41):
            pool = tuple(range(100, 100 + n))
            assert choose(kernel.getrandbits, pool) == stock.choice(pool)
            assert kernel.getstate() == stock.getstate()
            # the workload's draws: a pool index, and a SELL quantity
            assert choose(kernel.getrandbits, range(n)) == stock.randrange(n)
            assert choose(kernel.getrandbits, range(1, 50)) == stock.randrange(1, 50)
            assert kernel.getstate() == stock.getstate()


def test_attempts_off_the_heap_keep_the_heap_order_of_ties():
    scenario = check_scenario(with_draws(generate_tree(3, 2)))
    pooled = Simulation(scenario, seed=0, trace=True)
    reference = ReferenceDraws(scenario, seed=0)
    ledgers = []
    for sim in (pooled, reference):
        sim.engine.rng = CyclingRandom(0)
        ledgers.append(sim.run(600.0).ledger)
    assert ledgers[0] == ledgers[1]
    trace = reference.engine.trace
    assert pooled.engine.trace == trace
    # The case has ties both ways: link records logged before and after
    # attempts of the same instant.
    tied = {(a[0], b[0]) for a, b in zip(trace, trace[1:]) if a[1] == b[1]}
    assert {("link", "attempt"), ("attempt", "link")} <= tied


# ------------------------------------------------------------------ uplink


def test_uplink_reports_bottleneck_rate_and_summed_latency():
    topo = Topology(build_topology(generate_tree(1, 1, backhaul_profile="edge")))
    rate, latency = topo.cloud_route(2)
    assert rate == 25000.0  # edge bottleneck: 200 kbps in bytes/s
    assert latency == pytest.approx(0.4)
    rate, latency = topo.cloud_route(1)
    assert rate == 25000.0
    assert latency == pytest.approx(0.3)

    topo.set_link_state("z0n0", False)
    assert topo.cloud_route(2) is None
    assert topo.cloud_route(1) is not None
    topo.set_link_state("z0n0", True)
    assert topo.cloud_route(2)[1] == pytest.approx(0.4)


def test_set_link_names_an_unknown_link():
    sim = Simulation(check_scenario(generate_tree(1, 0)), seed=0)
    for up in (False, True):
        with pytest.raises(UnknownLink):
            sim.set_link("nope", up)
    assert sim.topology.up == {"b0": True}


class CountingPokes(Simulation):
    """Records the node of every poke."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.poked = []

    def poke(self, node_id):
        self.poked.append(node_id)
        super().poke(node_id)


def test_a_flip_pokes_only_the_sites_it_reroutes():
    # Zones 0, 1, 2 hold sites 1-3, 4-6 and 7-9; each gateway's backhaul
    # is b<zone>, and z<zone>n<j> joins the gateway to its j-th leaf.
    sim = CountingPokes(check_scenario(generate_tree(3, 2)), seed=0)
    for node in sorted(sim.identity.caches):
        sim.local(node)
        sim.poke(node)  # every route in force
    for link, rerouted in (("z0n0", [2]), ("b0", [1, 2, 3]), ("b1", [4, 5, 6])):
        for up in (False, True):
            sim.poked.clear()
            sim.set_link(link, up)
            assert sim.poked == rerouted, (link, up)


class WakeEverySite(Simulation):
    """The flip policy that pokes every site after each flip, rerouted
    or not, so every site's drain window is split at every flip."""

    def set_link(self, link_id, up):
        if self.topology.link_up(link_id) == up:
            return
        self._log_attempts_before(self.engine.key)
        self.topology.set_link_state(link_id, up)
        self.engine.log(("link", self.engine.now, link_id, "up" if up else "down"))
        for node_id in sorted(self.locals):
            self.poke(node_id)
        if up:
            self.identity.flush_pending()
            for node_id in sorted(self.locals):
                self.identity.sync_node(node_id)
            self._deliver_messages(self.engine.now)


FLIP_TIMES = st.floats(0.0, 900.0)


@st.composite
def flip_cases(draw):
    zones, leaves = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    sites = zones * (1 + leaves)
    site = st.integers(1, sites)
    return {
        "tree": (zones, leaves, draw(st.sampled_from(["edge", "hsdpa"]))),
        "writes": draw(
            st.lists(st.tuples(site, st.integers(1, 400_000), FLIP_TIMES), max_size=30)
        ),
        "messages": draw(st.lists(st.tuples(site, site, FLIP_TIMES), max_size=4)),
        "priority_queue": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def run_flip_case(cls, case):
    zones, leaves, backhaul = case["tree"]
    scenario = generate_tree(zones, leaves, backhaul_profile=backhaul)
    scenario["failures"] = {"interval_s": 20.0, "outage_mean_s": 60.0}
    sim = cls(
        check_scenario(scenario),
        seed=case["seed"],
        priority_queue=case["priority_queue"],
        trace=True,
    )
    imsi = {}
    for node in sorted(sim.identity.caches):
        sim.local(node)
        imsi[node] = f"23324{node:010d}"
        sim.identity.issue_identity(node, imsi[node])

    def write(node, size, k):
        sim.locals[node].slowput("blob", b"%d" % k * size, key=f"s{node}")

    def send(node, dest):
        sim.locals[node].store_and_forward(imsi[node], imsi[dest], b"hi")

    sim.engine.on("write", write)
    sim.engine.on("send", send)
    for k, (node, size, at) in enumerate(case["writes"]):
        sim.engine.schedule(at, "write", node=node, size=size, k=k % 10)
    for node, dest, at in case["messages"]:
        sim.engine.schedule(at, "send", node=node, dest=dest)
    sim.run(900.0)
    return sim


def applied_by_site(sim):
    """Each site's applied request ids, in apply order, with the times."""
    out = {}
    for at, _, _, request_id in sim.store.handler_runs:
        site = int(request_id[1 : request_id.index("-")])
        out.setdefault(site, []).append((request_id, at))
    return out


@settings(max_examples=60, deadline=None)
@given(case=flip_cases())
def test_waking_only_rerouted_sites_matches_waking_every_site(case):
    got = run_flip_case(Simulation, case)
    want = run_flip_case(WakeEverySite, case)
    got_runs, want_runs = applied_by_site(got), applied_by_site(want)
    assert got_runs.keys() == want_runs.keys()
    for site, runs in want_runs.items():
        assert [rid for rid, _ in got_runs[site]] == [rid for rid, _ in runs]
        for (_, at), (_, ref_at) in zip(got_runs[site], runs):
            assert at == pytest.approx(ref_at, abs=1e-9)
    # delivered_at is not compared: a completion that ties another site's
    # may take its service-time draw in the other order.
    assert got.store.records == want.store.records
    assert got.engine.trace == want.engine.trace


# ----------------------------------------------------- exactly-once smoke


def test_a_write_made_without_a_poke_is_delivered():
    sim = Simulation(check_scenario(generate_tree(1, 0)), seed=5)
    server = sim.local(1)

    def write():
        server.slowput("kv", b"alpha", key="a")
        server.store_and_forward("1000", "2000", b"hello there")

    sim.engine.on("write", write)
    sim.engine.schedule(5.0, "write")
    sim.run(None)
    assert len(server.queue) == 0
    assert [(r.klass, r.enqueued_at) for r in server.records] == [
        ("slowput", 5.0),
        ("message", 5.0),
    ]
    assert all(r.delivered_at > 5.0 for r in server.records)
    assert sim.store.get("kv", "a").value == b"alpha"


def test_a_write_parked_in_an_outage_goes_out_at_the_restore():
    # Priority mode: a file-class write parked while the uplink is down
    # is on the line from the restore on, so an SMS-sized write that
    # arrives while it is sending waits behind it and costs it nothing.
    sim = Simulation(check_scenario(generate_tree(1, 0)), seed=5, priority_queue=True)
    server = sim.local(1)
    rate, latency = sim.topology.cloud_route(1)
    sim.set_link("b0", False)
    server.slowput("kv", b"x" * 5000, key="bulk")
    restore = 10.0
    bulk_end = restore + 5000 / rate
    sim.engine.schedule(restore, "link_restore", link_id="b0")
    sim.engine.on("small", lambda: server.slowput("kv", b"sms", key="small"))
    sim.engine.schedule((restore + bulk_end) / 2, "small")
    sim.engine.run_until(None)
    applied = {key: at for at, _, key, _ in sim.store.handler_runs}
    assert applied == {
        "bulk": bulk_end + latency,
        "small": bulk_end + 3 / rate + latency,
    }


def test_outage_replay_applies_and_delivers_once():
    sim = Simulation(check_scenario(generate_tree(1, 1)), seed=5)
    sim.identity.issue_identity(1, "1000")
    sim.identity.issue_identity(2, "2000")
    server = sim.local(1)
    sim.local(2)  # exists so deliveries can land there

    server.slowput("kv", b"alpha", key="a")
    sim.poke(1)
    sim.set_link("b0", False)
    server.slowput("kv", b"beta", key="b")  # parked during outage
    server.store_and_forward("1000", "2000", b"hello there")
    sim.poke(1)
    sim.engine.schedule(30.0, "link_restore", link_id="b0")
    sim.engine.run_until(None)

    store = sim.store
    assert store.applied_once()
    applied_ids = {rid for _, _, _, rid in store.handler_runs}
    assert len(applied_ids) == 3
    assert store.get("kv", "a").value == b"alpha"
    assert store.get("kv", "b").value == b"beta"
    assert list(sim.board.delivered) == ["m1-1"]
    assert sim.board.pending == {}
    # the recipient node recorded the delivery exactly once
    arrivals = [rec for rec in sim.locals[2].records if rec.klass == "message"]
    assert len(arrivals) == 1
    assert arrivals[0].delivered_at > 30.0


# ------------------------------------------------------------- monte carlo


def test_monte_carlo_runs_and_reseeds_independently():
    scenario = generate_tree(2, 1)
    scenario["traffic"] = {"interval_s": 60.0}
    scenario["failures"] = {"interval_s": 150.0, "outage_mean_s": 120.0}
    scenario = check_scenario(scenario)

    def summary(base_seed):
        runs = replicate(scenario, 3, 600.0, base_seed=base_seed)
        return aggregate([r.ledger for r in runs])

    mc = summary(0)
    assert all(len(vals) == 3 for vals in mc.per_run.values())
    again = summary(0)
    assert again.per_run == mc.per_run
    shifted = summary(100)
    assert shifted.per_run != mc.per_run
    assert mc.containment_violations == 0


def test_runs_do_not_leak_into_the_shared_world():
    # Runs share one loaded scenario: its sections and its graph.
    raw = generate_tree(2, 1)
    raw["traffic"] = {"interval_s": 60.0}
    raw["failures"] = {"interval_s": 60.0, "outage_mean_s": 90.0}
    raw["workload"] = {"sellers": 2, "buyers": 2, "until_s": 300.0, "file_count": 2}
    loaded = check_scenario(raw)

    def run(scenario, seed):
        result = next(replicate(scenario, 1, 600.0, base_seed=seed, trace=True))
        return result.trace, result.ledger, result.latency

    first, _, again = (run(loaded, seed) for seed in (5, 3, 5))
    fresh = run(check_scenario(raw), 5)
    assert first == fresh and again == fresh
    events, _, latency = fresh
    assert any(ev[0] == "link" for ev in events) and latency
    assert loaded == check_scenario(raw)
    assert all(link.up for link in loaded["graph"].links.values())
    assert loaded["workload"]["node"] == 1


def test_a_replicated_run_is_freed_without_the_cyclic_collector(monkeypatch):
    raw = generate_tree(2, 1)
    raw["traffic"] = {"interval_s": 60.0}
    raw["failures"] = {"interval_s": 60.0, "outage_mean_s": 90.0}
    raw["workload"] = {"sellers": 2, "buyers": 2, "until_s": 300.0, "file_count": 2}
    scenario = check_scenario(raw)
    made = []

    class Tracked(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(simcore, "Simulation", Tracked)
    gc.collect()
    gc.disable()
    try:
        results = list(replicate(scenario, 2, 600.0, trace=True))
        assert len(made) == 2
        assert [ref() for ref in made] == [None, None]
    finally:
        gc.enable()
    assert results[0].trace and results[1].trace is None
    assert all(r.ledger and r.latency for r in results)


def test_monte_carlo_needs_traffic():
    # Without a traffic section a run scores no attempt: it has no ledger.
    runs = list(replicate(check_scenario(generate_tree(1, 0)), 1, 60.0))
    assert [r.ledger for r in runs] == [None]


# ------------------------------------------------------------- work bound


@settings(max_examples=40, deadline=None)
@given(
    tree=st.tuples(st.integers(1, 3), st.integers(0, 2)),
    horizon=st.floats(20.0, 600.0),
    traffic=st.none() | st.fixed_dictionaries({
        "interval_s": st.floats(5.0, 120.0),
        "attempts": st.fixed_dictionaries({s: st.integers(0, 4) for s in SERVICES}),
    }),
    failures=st.none() | st.fixed_dictionaries({
        "interval_s": st.floats(5.0, 120.0),
        "outage_mean_s": st.floats(1.0, 300.0),
    }),
    workload=st.none() | st.fixed_dictionaries({
        "sellers": st.integers(0, 3),
        "buyers": st.integers(0, 3),
        "sell_period_s": st.floats(2.0, 60.0),
        "buy_period_s": st.floats(2.0, 60.0),
        "until_s": st.floats(0.0, 600.0),
        "file_count": st.integers(0, 3),
        "file_bytes": st.integers(1, 100_000),
        "file_period_s": st.floats(0.0, 100.0),
    }),
    seed=st.integers(0, 50),
    priority_queue=st.booleans(),
)
def test_the_work_estimate_bounds_the_work_a_run_does(
    tree, horizon, traffic, failures, workload, seed, priority_queue
):
    scenario = generate_tree(*tree, backhaul_profile="edge")
    for name, value in (("traffic", traffic), ("failures", failures), ("workload", workload)):
        if value is not None:
            scenario[name] = value
    loaded = check_scenario(scenario)
    sim = Simulation(loaded, seed=seed, priority_queue=priority_queue)
    if workload is not None:
        Workload(sim).schedule(horizon)
    sim.run(horizon)
    attempts = sum(sim.counts.attempted) if sim.counts else 0
    assert work_estimate(loaded, horizon) >= sim.engine.events_processed + attempts


def test_work_above_the_bound_names_the_section_and_the_bound():
    scenario = generate_tree(1, 1)
    scenario["failures"] = {"interval_s": 1e-6}
    loaded = check_scenario(scenario)
    with pytest.raises(ScenarioError, match=r"^failures .* 7\.2e\+09 .* 1e\+07$"):
        work_estimate(loaded, 3600.0)
    assert work_estimate(loaded, 1.0) <= WORK_BOUND


def test_confidence_interval_formula():
    vals = [0.1, 0.2, 0.4]
    mc = MonteCarloResult(per_run={"vce": vals}, containment_violations=0)
    mean = sum(vals) / 3
    var = sum((v - mean) ** 2 for v in vals) / 2
    assert mc.mean("vce") == pytest.approx(mean)
    assert mc.stdev("vce") == pytest.approx(math.sqrt(var))
    assert mc.ci95("vce") == pytest.approx(1.96 * math.sqrt(var) / math.sqrt(3))
    single = MonteCarloResult(per_run={"vce": [0.3]}, containment_violations=0)
    assert single.stdev("vce") == 0.0 and single.ci95("vce") == 0.0


# ---------------------------------------------------------- identity bench


def bench_section(specs, **keys):
    """A loaded identity_bench section of (model, servers) specs, with
    ``keys`` over the defaults."""
    models = [{"model": model, "servers": servers} for model, servers in specs]
    return section("identity_bench", {"models": models, **keys})


def test_dht_with_one_server_reproduces_central_exactly():
    central, dht1 = identity_latency_bench(
        bench_section([("central", 1), ("dht", 1)], duration_s=20.0), 2
    )
    assert central.routed == dht1.routed
    assert central.sojourns == dht1.sojourns


def test_sharding_absorbs_load_a_single_server_cannot():
    central, dht = identity_latency_bench(
        bench_section([("central", 1), ("dht", 10)], duration_s=30.0), 0
    )
    # arrivals are the identical stream either way: one shared column
    assert central.arrivals is dht.arrivals
    assert len(central.sojourns) == len(dht.sojourns) == len(dht.arrivals)
    assert set(central.routed) == {0}
    assert len(set(dht.routed)) == 10
    # 1.5x a single server's capacity: the central queue only grows
    assert central.quantiles(0.5)[0] > 1.0
    assert dht.quantiles(0.5)[0] < 0.5
    floor = 2 * 0.1 + 0.01
    assert all(s >= floor - 1e-9 for s in dht.sojourns)


def test_bench_quantiles_and_determinism():
    cfg = bench_section([("dht", 4)], load_rps=80.0, duration_s=10.0)
    (bench,) = identity_latency_bench(cfg, 7)
    (again,) = identity_latency_bench(cfg, 7)
    assert (bench.arrivals, bench.routed, bench.sojourns) == (
        again.arrivals,
        again.routed,
        again.sojourns,
    )
    sojourns = sorted(bench.sojourns)
    top = len(sojourns) - 1
    # nearest rank: the sample at rank round(q * (n - 1)), one per q
    assert bench.quantiles(0.0, 0.5, 0.95, 1.0) == [
        sojourns[0],
        sojourns[round(0.5 * top)],
        sojourns[round(0.95 * top)],
        sojourns[-1],
    ]
    (empty,) = identity_latency_bench({**cfg, "duration_s": 1e-9}, 7)
    assert empty.sojourns == [] and empty.quantiles(0.5, 0.95) == [0.0, 0.0]
    assert sojourns[0] >= 0.21 - 1e-9
    assert bench.mean() == pytest.approx(sum(sojourns) / len(sojourns))


def reference_bench(model, servers, load_rps, duration_s, service_s, latency_s, seed):
    """One model on its own, as (arrival, server, sojourn) rows: a fresh
    random.Random(seed) for the model and hash32 of the IMSI string per
    lookup."""
    rng = random.Random(seed)
    ring = ResolverRing(members=tuple(range(servers)))
    free_at = [0.0] * servers
    rows = []
    t = 0.0
    while True:
        t += rng.expovariate(load_rps)
        if t >= duration_s:
            break
        imsi = f"{rng.randrange(10 ** 15):015d}"
        server = 0 if model == "central" else resolver_for(ring, hash32(imsi, ring.seed))
        reach = t + latency_s
        start = max(reach, free_at[server])
        done = start + service_s
        free_at[server] = done
        rows.append((t, server, done + latency_s - t))
    return rows


BENCH_SPECS = st.lists(
    st.one_of(
        st.just(("central", 1)),
        st.tuples(st.just("dht"), st.integers(min_value=1, max_value=120)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(
    specs=BENCH_SPECS,
    seed=st.integers(min_value=0, max_value=2**32),
    load_rps=st.floats(min_value=1.0, max_value=300.0),
    duration_s=st.floats(min_value=0.0, max_value=4.0),
    service_s=st.floats(min_value=0.001, max_value=0.05),
    latency_s=st.floats(min_value=0.0, max_value=0.2),
)
def test_bench_replays_one_stream_as_each_model_alone(
    specs, seed, load_rps, duration_s, service_s, latency_s
):
    cfg = bench_section(
        specs,
        load_rps=load_rps,
        duration_s=duration_s,
        service_s=service_s,
        latency_s=latency_s,
    )
    benches = identity_latency_bench(cfg, seed)
    assert [(b.model, b.servers) for b in benches] == specs
    for bench, (model, servers) in zip(benches, specs):
        assert bench.arrivals is benches[0].arrivals
        expected = reference_bench(
            model, servers, load_rps, duration_s, service_s, latency_s, seed
        )
        assert list(zip(bench.arrivals, bench.routed, bench.sojourns)) == expected


def test_bench_hashes_each_imsi_once(monkeypatch):
    calls = []

    def counted(value, seed=0):
        calls.append(value)
        return hash32(value, seed)

    monkeypatch.setattr(identity_mod, "hash32", counted)
    benches = identity_latency_bench(
        bench_section([("central", 1), ("dht", 10), ("dht", 100)], duration_s=10.0), 3
    )
    # once per arrival of the shared stream, plus once per ring point
    assert len(calls) == len(benches[0].arrivals) + 10 + 100
    calls.clear()
    identity_latency_bench(bench_section([("central", 1)], duration_s=10.0), 3)
    assert calls == []  # no ring, no hashing


# Student's t quantile t(0.975) with 2 degrees of freedom: a 95% interval
# over three seeds.
T_975_2 = 4.303


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
def test_central_bench_matches_the_md1_mean_sojourn(rho):
    # One directory server with Poisson arrivals and a fixed service time
    # is an M/D/1 queue: Pollaczek-Khinchine gives the mean wait
    # rho * s / (2 (1 - rho)); a lookup also takes s and latency both ways.
    service_s, latency_s = 0.01, 0.1
    cfg = bench_section(
        [("central", 1)],
        load_rps=rho / service_s,
        duration_s=2000.0,
        service_s=service_s,
        latency_s=latency_s,
    )
    means = [identity_latency_bench(cfg, seed)[0].mean() for seed in range(3)]
    expected = 2 * latency_s + service_s + rho * service_s / (2 * (1 - rho))
    half_width = T_975_2 * statistics.stdev(means) / math.sqrt(len(means))
    assert abs(statistics.fmean(means) - expected) <= half_width

"""Outside-in per-layer tracing for the benchmark.

``install`` replaces public functions and methods of the greenlinks
modules with wrappers that record spans, and ``Installed.remove`` puts
the originals back.  No source under ``src/`` knows about it.  A name
imported by value (``from .identity import resolver_for``) is wrapped in
the module that looks it up, and engine handlers are caught by wrapping
``Engine.on`` at class level.

A span records its name, start, end, parent span and unit id.  Spans
stay in memory as flat arrays and ``Tracer.write`` saves them at the
end.  Self time (a span's duration minus its child spans) and call
counts are summed as spans close; ``Tracer.snapshot`` returns the sums
of one pass and ``layer_metrics`` turns them into the per-layer metrics
that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HANDLER_KINDS = (
    "attempt",
    "traffic_interval",
    "failure_draw",
    "link_restore",
    "queue_eta",
    "wl_sell",
    "wl_buy",
    "wl_file",
)
RING_SIZES = (10, 100)
FASTGET_ERRORS = ("BackhaulDown", "SyncTimeout")
BUY_ERRORS = ("BackhaulDown", "SyncTimeout", "SoldOut", "ListingNotFound")


class Tracer:
    """Span recorder shared by every wrapper of one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_unit = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.unit = 0
        # One [span index, child seconds, name id] frame per open span.
        self._stack: list[list] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.failures: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def reset(self) -> None:
        """Zero the sums (not the recorded spans) before a pass."""
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        self.failures.clear()
        self.counts.clear()
        self.maxima.clear()

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][2]] if self._stack else None

    def high_water(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    def span(self, name: str, fn):
        """Wrap fn so that every call records one span called name."""
        nid = self._id(name)
        tracer = self
        stack = self._stack
        calls, self_s, failures = self.calls, self.self_s, self.failures
        names, parents, units = self.span_name, self.span_parent, self.span_unit
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            units.append(tracer.unit)
            ends.append(0.0)
            frame = [idx, 0.0, nid]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                failures[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    def snapshot(self) -> "Snapshot":
        return Snapshot(
            calls={n: self.calls[i] for i, n in enumerate(self.names)},
            self_s={n: self.self_s[i] for i, n in enumerate(self.names)},
            failures=dict(self.failures),
            counts=dict(self.counts),
            maxima=dict(self.maxima),
        )

    def write(self, directory: Path) -> None:
        """Save every recorded span: span_names.json plus one raw
        native-endian array file per field (see perfbench/README.md)."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "span_names.json").write_text(json.dumps(self.names))
        for field, arr in (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("unit", self.span_unit),
            ("start", self.span_start),
            ("end", self.span_end),
        ):
            with open(directory / f"span_{field}.{arr.typecode}", "wb") as fh:
                arr.tofile(fh)


@dataclass
class Snapshot:
    calls: dict[str, int]
    self_s: dict[str, float]
    failures: dict[tuple[str, str], int]
    counts: dict[str, int]
    maxima: dict[str, int]

    def failed(self, name: str, errors: tuple[str, ...]) -> dict[str, int]:
        """Failures of span name by error class, the rest under 'other'."""
        out = dict.fromkeys(errors + ("other",), 0)
        for (span, cls), n in self.failures.items():
            if span == name:
                out[cls if cls in errors else "other"] += n
        return out


class Installed:
    """The wrappers put in place by install(); remove() restores."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Installed:
    """Wrap the public surface of every greenlinks module."""
    from greenlinks import apps, cli, identity, scenario, simcore, sync, topology, whitespace

    done = Installed()
    span = tracer.span

    def methods(cls, prefix: str, attrs: tuple[str, ...]) -> None:
        for attr in attrs:
            done.replace(cls, attr, span(f"{prefix}.{attr}", cls.__dict__[attr]))

    def function(name: str, fn, *owners) -> None:
        wrapped = span(name, fn)
        for owner in owners:
            done.replace(owner, fn.__name__, wrapped)

    # cli and scenario
    function("cli.main", cli.main, cli)
    for sub in ("simulate", "whitespace", "idbench"):
        function(f"cli.cmd_{sub}", getattr(cli, f"cmd_{sub}"), cli)
    function("cli.write_csv", cli.write_csv, cli)
    function("scenario.load_scenario", scenario.load_scenario, scenario, cli)

    # simcore
    run_until = span("simcore.engine", simcore.Engine.run_until)

    @functools.wraps(run_until)
    def counted_run_until(engine, horizon):
        before = engine.events_processed
        try:
            return run_until(engine, horizon)
        finally:
            tracer.counts["simcore.engine.events"] += engine.events_processed - before

    done.replace(simcore.Engine, "run_until", counted_run_until)

    handler_spans = {
        kind: f"simcore.handler.{kind}" for kind in HANDLER_KINDS
    }
    engine_on = simcore.Engine.on

    def on(engine, kind, handler):
        name = handler_spans.get(kind, "simcore.handler.other")
        return engine_on(engine, kind, span(name, handler))

    done.replace(simcore.Engine, "on", on)

    poke = span("simcore.sim.poke", simcore.Simulation.poke)

    @functools.wraps(poke)
    def counted_poke(sim, node_id):
        if tracer.parent_name() == "simcore.handler.queue_eta":
            tracer.counts["simcore.queue_eta.useful"] += 1
        return poke(sim, node_id)

    done.replace(simcore.Simulation, "poke", counted_poke)
    methods(simcore.Simulation, "simcore.sim", ("set_link",))

    evaluate = span("simcore.evaluate_dual", simcore.evaluate_dual)

    @functools.wraps(evaluate)
    def counted_evaluate(trace):
        ledger = evaluate(trace)
        attempted, _ = ledger.totals()
        tracer.counts["simcore.evaluate_dual.attempts"] += sum(attempted.values())
        return ledger

    done.replace(simcore, "evaluate_dual", counted_evaluate)
    function("simcore.idbench", simcore.identity_latency_bench, simcore, cli)

    # topology
    function("topology.build", topology.build_topology, topology, simcore)
    methods(topology.Topology, "topology", ("path", "set_link_state"))

    # sync
    methods(sync.LazyQueue, "sync.queue", ("advance", "eta"))
    enqueue = span("sync.queue.enqueue", sync.LazyQueue.enqueue)

    @functools.wraps(enqueue)
    def counted_enqueue(queue, req):
        enqueue(queue, req)
        tracer.high_water("sync.queue.depth_hwm", len(queue))

    done.replace(sync.LazyQueue, "enqueue", counted_enqueue)
    methods(sync.CloudStore, "sync.store", ("apply", "search"))
    methods(sync.LocalServer, "sync.local", ("slowput", "fastget"))
    methods(sync.MessageBoard, "sync.board", ("pull",))

    # apps
    methods(apps.Marketplace, "apps.market", ("sell", "buy"))
    function("apps.market_handler", apps.market_handler, apps)

    # identity
    resolver = identity.resolver_for
    ring_spans = {
        size: span(f"identity.resolver_for.m{size}", resolver) for size in RING_SIZES
    }
    other_ring = span("identity.resolver_for.other", resolver)

    @functools.wraps(resolver)
    def sized_resolver(ring, value):
        return ring_spans.get(len(ring.members), other_ring)(ring, value)

    done.replace(identity, "resolver_for", sized_resolver)
    done.replace(simcore, "resolver_for", sized_resolver)

    hash32 = identity.hash32

    @functools.wraps(hash32)
    def counted_hash32(value, seed=0):
        tracer.counts["identity.hash32"] += 1
        return hash32(value, seed)

    done.replace(identity, "hash32", counted_hash32)
    methods(
        identity.IdentityService,
        "identity.service",
        ("issue_identity", "sync_node", "flush_pending"),
    )

    # whitespace
    methods(
        whitespace.Detector,
        "whitespace",
        ("ingest_report", "plan_scan", "unknown_count", "maybe_switch_channel"),
    )
    detect = span("whitespace.run_detection", whitespace.run_detection)

    @functools.wraps(detect)
    def counted_detect(*args, **kwargs):
        run = detect(*args, **kwargs)
        tracer.counts["whitespace.batches"] += run.batches
        return run

    done.replace(whitespace, "run_detection", counted_detect)
    done.replace(cli, "run_detection", counted_detect)
    function("whitespace.compare_ngsm", whitespace.compare_ngsm, whitespace, cli)
    return done


# ------------------------------------------------------------ metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls_self(snap: Snapshot, span: str, metric: str | None = None) -> dict:
    metric = metric or span
    return {
        f"{metric}.calls": snap.calls.get(span, 0),
        f"{metric}.self_s": snap.self_s.get(span, 0.0),
    }


def layer_metrics(snap: Snapshot) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    m: dict[str, float] = {}
    calls, self_s, counts = snap.calls, snap.self_s, snap.counts

    # simcore
    m["simcore.engine.events"] = counts.get("simcore.engine.events", 0)
    m["simcore.engine.self_s"] = self_s.get("simcore.engine", 0.0)
    for kind in HANDLER_KINDS + ("other",):
        m.update(_calls_self(snap, f"simcore.handler.{kind}"))
    m.update(_calls_self(snap, "simcore.sim.poke"))
    m.update(_calls_self(snap, "simcore.sim.set_link"))
    m["simcore.queue_eta.useful_ratio"] = _ratio(
        counts.get("simcore.queue_eta.useful", 0),
        calls.get("simcore.handler.queue_eta", 0),
    )
    attempts = counts.get("simcore.evaluate_dual.attempts", 0)
    evaluate_s = self_s.get("simcore.evaluate_dual", 0.0)
    m["simcore.evaluate_dual.self_s"] = evaluate_s
    m["simcore.evaluate_dual.attempts"] = attempts
    m["simcore.evaluate_dual.attempts_per_s"] = _ratio(attempts, evaluate_s)
    m["simcore.idbench.self_s"] = self_s.get("simcore.idbench", 0.0)

    # topology
    m.update(_calls_self(snap, "topology.path"))
    m["topology.set_link_state.calls"] = calls.get("topology.set_link_state", 0)
    m["topology.build.self_s"] = self_s.get("topology.build", 0.0)

    # sync
    for op in ("advance", "eta", "enqueue"):
        m.update(_calls_self(snap, f"sync.queue.{op}"))
    m["sync.queue.depth_hwm"] = snap.maxima.get("sync.queue.depth_hwm", 0)
    m.update(_calls_self(snap, "sync.store.apply"))
    m.update(_calls_self(snap, "sync.store.search"))
    m["sync.local.slowput.calls"] = calls.get("sync.local.slowput", 0)
    m["sync.local.fastget.calls"] = calls.get("sync.local.fastget", 0)
    for cls, n in snap.failed("sync.local.fastget", FASTGET_ERRORS).items():
        m[f"sync.local.fastget.failed.{cls}"] = n
    m.update(_calls_self(snap, "sync.board.pull"))

    # apps
    m.update(_calls_self(snap, "apps.market.sell"))
    m.update(_calls_self(snap, "apps.market.buy"))
    m.update(_calls_self(snap, "apps.market_handler"))
    buy_failed = snap.failed("apps.market.buy", BUY_ERRORS)
    buys = calls.get("apps.market.buy", 0)
    m["apps.market.buy.ok_ratio"] = _ratio(buys - sum(buy_failed.values()), buys)
    for cls, n in buy_failed.items():
        m[f"apps.market.buy.failed.{cls}"] = n

    # identity
    lookups = 0
    for size in RING_SIZES:
        m.update(_calls_self(snap, f"identity.resolver_for.m{size}"))
        lookups += calls.get(f"identity.resolver_for.m{size}", 0)
    m.update(_calls_self(snap, "identity.resolver_for.other"))
    lookups += calls.get("identity.resolver_for.other", 0)
    m["identity.hash32.calls_per_lookup"] = _ratio(counts.get("identity.hash32", 0), lookups)
    for op in ("issue_identity", "sync_node", "flush_pending"):
        m.update(_calls_self(snap, f"identity.service.{op}"))

    # whitespace
    for op in (
        "ingest_report",
        "plan_scan",
        "unknown_count",
        "maybe_switch_channel",
        "run_detection",
        "compare_ngsm",
    ):
        m.update(_calls_self(snap, f"whitespace.{op}"))
    m["whitespace.reports"] = calls.get("whitespace.ingest_report", 0) - sum(
        n for (span, _), n in snap.failures.items() if span == "whitespace.ingest_report"
    )
    m["whitespace.batches"] = counts.get("whitespace.batches", 0)

    # cli and scenario
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    for sub in ("simulate", "whitespace", "idbench"):
        m[f"cli.cmd_{sub}.self_s"] = self_s.get(f"cli.cmd_{sub}", 0.0)
    m.update(_calls_self(snap, "cli.write_csv"))
    m["scenario.load_scenario.self_s"] = self_s.get("scenario.load_scenario", 0.0)
    return m


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from the shape of its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("calls_per_lookup"):
        return "calls/lookup"
    if name.endswith("_s"):
        return "s"
    return "count"


# Exact metrics must repeat to the digit when the same units run again;
# every other metric is a host time.
def is_exact(name: str) -> bool:
    return metric_unit(name) not in ("s", "1/s")

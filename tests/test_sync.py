"""Sync primitive tests: fluid queue timing, store semantics, mailbox."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlinks.errors import BackhaulDown, PayloadEmpty, SyncTimeout
from greenlinks.sync import (
    SMS_PRIORITY_MAX_BYTES,
    CloudStore,
    LazyQueue,
    LocalServer,
    MessageBoard,
    SyncRequest,
    encode_sorted,
    wire_size,
)
from greenlinks.topology import BYTES_PER_KBPS

EDGE_RATE = 25000.0  # 200 kbps in bytes/second


class StaticUplink:
    """Fixed-rate route() whose .up the tests flip by hand."""

    def __init__(self, rate_kbps: float, latency_ms: float, up: bool = True):
        self.rate = rate_kbps * BYTES_PER_KBPS
        self.latency = latency_ms / 1000.0
        self.up = up

    def __call__(self) -> tuple[float, float] | None:
        return (self.rate, self.latency) if self.up else None


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def edge_server(**kw):
    clock = Clock()
    uplink = StaticUplink(200.0, 300.0)
    server = LocalServer(
        1,
        uplink,
        kw.pop("store", CloudStore()),
        clock,
        fastget_timeout_s=30.0,
        service_time=kw.pop("service_time", lambda: 0.01),
        wake=lambda: None,
        board=kw.pop("board", MessageBoard()),
        resolve_local=kw.pop("resolve_local", lambda name: None),
        **kw,
    )
    return server, uplink, clock


def req(request_id, size, at=0.0):
    return SyncRequest(
        request_id=request_id,
        app_type="t",
        key=request_id,
        value=b"x" * size,
        size=size,
        klass="slowput",
        enqueued_at=at,
    )


# ------------------------------------------------------------ wire size


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_a_value_takes_its_encoded_bytes_on_the_wire(value):
    text = encode_sorted(value)
    assert text == json.dumps(value, sort_keys=True) and text.isascii()
    assert wire_size(value) == len(text.encode()) == len(text)


def test_a_value_that_fails_to_encode_leaves_the_encoder_as_it_was():
    circular = {"a": 1}
    circular["self"] = circular
    with pytest.raises(RecursionError):
        wire_size(circular)
    with pytest.raises(TypeError):
        wire_size({"a": [1, object()]})
    # Nothing of either failed encode is left behind to be read as a cycle.
    for value in ({"a": 1}, [circular["a"], {"self": {}}], "\x00\u00e9"):
        assert encode_sorted(value) == json.dumps(value, sort_keys=True)


# ------------------------------------------------------------ fluid timing


def test_one_megabyte_on_edge_takes_exactly_forty_seconds():
    server, _, _ = edge_server()
    ack = server.slowput("file", b"\0" * 1_000_000)
    assert ack.enqueued_at == 0.0
    server.advance(0.0)  # the owner's wake-up puts the route in force
    done = server.advance(100.0)
    assert len(done) == 1
    comp = done[0]
    assert comp.request.transmit_end == 40.0
    assert comp.apply_at == pytest.approx(40.3)
    rec = server.records[-1]
    assert rec.enqueued_at == 0.0
    assert rec.delivered_at == pytest.approx(40.61)  # +service +return leg


def test_back_to_back_transfers_complete_mid_interval():
    server, _, _ = edge_server()
    server.slowput("file", b"\0" * 500_000)
    server.slowput("file", b"\0" * 250_000)
    server.advance(0.0)
    done = server.advance(60.0)
    assert [c.request.transmit_end for c in done] == [20.0, 30.0]
    # apply order at the store matches enqueue order
    assert [entry[3] for entry in server.store.handler_runs] == [
        c.request.request_id for c in done
    ]


def test_partial_transfer_survives_an_outage_and_resumes():
    server, uplink, clock = edge_server()
    server.slowput("file", b"\0" * 1_000_000)
    server.advance(0.0)
    uplink.up = False
    assert server.advance(10.0) == []  # the outage starts at 10
    assert server.queue.in_flight.sent_bytes == pytest.approx(250_000)
    assert server.advance(70.0) == []  # outage: no progress
    assert server.queue.in_flight.sent_bytes == pytest.approx(250_000)
    uplink.up = True
    assert server.advance(70.0) == []  # the restore
    done = server.advance(200.0)
    assert done[0].request.transmit_end == 100.0  # 70 + 750k/25k


def test_completions_take_the_latency_of_the_route_they_drained_on():
    server, uplink, _ = edge_server()
    server.slowput("file", b"\0" * 1_000_000)
    server.advance(0.0)
    uplink.up = False
    done = server.advance(100.0)  # the window closes when the route goes
    assert done[0].apply_at == pytest.approx(40.3)
    assert server.records[-1].delivered_at == pytest.approx(40.61)


def test_advance_is_idempotent_at_a_fixed_time():
    server, _, _ = edge_server()
    server.slowput("file", b"\0" * 100_000)
    server.advance(0.0)
    first = server.advance(50.0)
    assert len(first) == 1
    assert server.advance(50.0) == []
    assert len(server.store.handler_runs) == 1


def test_eta_predicts_the_exact_completion():
    server, uplink, _ = edge_server()
    server.slowput("file", b"\0" * 1_000_000)
    server.advance(0.0)
    eta = server.eta(0.0)
    assert eta == 40.0
    done = server.advance(eta)
    assert done[0].request.transmit_end == eta
    assert server.eta(eta) is None
    uplink.up = False
    server.advance(41.0)
    assert server.eta(41.0) is None


def test_priority_mode_preempts_only_at_request_boundaries():
    timings = {}
    for priority in (False, True):
        server, _, clock = edge_server(priority_mode=priority)
        server.slowput("file", b"\0" * 200_000)  # 8 s on the wire
        server.advance(0.0)  # file now in flight
        server.advance(1.0)
        clock.t = 1.0
        server.slowput("file", b"\0" * 100_000)  # 4 s
        server.slowput("sms", b"\0" * 100)  # sms class
        done = server.advance(100.0)
        timings[priority] = [
            (c.request.app_type, c.request.transmit_end) for c in done
        ]
    # plain FIFO finishes the sms last; priority slots it after the
    # in-flight file but never preempts mid-transfer
    assert timings[False] == [("file", 8.0), ("file", 12.0), ("sms", 12.004)]
    assert timings[True] == [("file", 8.0), ("sms", 8.004), ("file", 12.004)]


def test_queue_capacity_and_empty_payload():
    # The lazy queue has no bound; only an empty payload is refused.
    server, _, _ = edge_server()
    for i in range(1000):
        server.slowput("t", b"%d" % i)
    assert len(server.queue) == 1000
    with pytest.raises(PayloadEmpty):
        server.slowput("t", b"")


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 1_000_000), min_size=1, max_size=8),
    cuts=st.lists(st.floats(0.01, 50.0), max_size=6),
)
def test_drain_conserves_bytes_and_order(sizes, cuts):
    queue = LazyQueue()
    for i, size in enumerate(sizes):
        queue.enqueue(req(f"r{i}", size))
    queue.advance(0.0, EDGE_RATE)
    done = []
    t = 0.0
    for step in sorted(cuts):
        t += step
        done.extend(queue.advance(t, EDGE_RATE))
    done.extend(queue.advance(t + sum(sizes) / EDGE_RATE + 1.0, EDGE_RATE))
    assert [r.request_id for r in done] == [f"r{i}" for i in range(len(sizes))]
    ends = [r.transmit_end for r in done]
    assert ends == sorted(ends)
    # busy the whole time: the last bit leaves exactly when the total
    # byte count has drained at the constant rate
    assert ends[-1] == pytest.approx(sum(sizes) / EDGE_RATE)
    assert len(queue) == 0


def test_a_window_drains_at_the_rate_given_before_it():
    queue = LazyQueue()
    queue.enqueue(req("r0", 1_000_000))
    assert queue.advance(2.0, EDGE_RATE) == []
    assert queue.in_flight.sent_bytes == 0.0
    assert queue.advance(12.0, 0.0) == []
    assert queue.in_flight.sent_bytes == (12.0 - 2.0) * EDGE_RATE
    assert queue.eta(12.0) is None


class ReferenceQueue:
    """The list-based lazy queue the class deques replaced: each take and
    peek scans the backlog with ``min`` over (class, enqueue number), and
    a take removes its pick with ``list.remove``."""

    def __init__(self, priority_mode):
        self.priority_mode = priority_mode
        self.pending = []
        self.order = {}
        self.in_flight = None
        self._cursor = None

    def __len__(self):
        return len(self.pending) + (1 if self.in_flight else 0)

    def enqueue(self, req):
        priority = 0 if req.size <= SMS_PRIORITY_MAX_BYTES else 1
        self.order[req.request_id] = (priority, len(self.order))
        self.pending.append(req)

    def _take_next(self):
        if not self.pending:
            return None
        if self.priority_mode:
            best = min(self.pending, key=lambda r: self.order[r.request_id])
        else:
            best = self.pending[0]
        self.pending.remove(best)
        return best

    def advance(self, now, rate_Bps, up):
        if self._cursor is None:
            self._cursor = now
            if self.pending:
                self._cursor = min(now, self.pending[0].enqueued_at)
        start = self._cursor
        if now < start:
            now = start
        self._cursor = now
        if not up or rate_Bps <= 0:
            return []
        completed = []
        t = start
        while True:
            if self.in_flight is None:
                self.in_flight = self._take_next()
                if self.in_flight is None:
                    break
            req = self.in_flight
            if req.enqueued_at > t:
                t = req.enqueued_at
            remaining = now - t
            need = (req.size - req.sent_bytes) / rate_Bps
            if need <= remaining + 1e-9:
                t += need
                req.sent_bytes = req.size
                req.transmit_end = t
                completed.append(req)
                self.in_flight = None
            else:
                req.sent_bytes += max(0.0, remaining) * rate_Bps
                break
        return completed

    def eta(self, now, rate_Bps, up):
        if not up or rate_Bps <= 0:
            return None
        req = self.in_flight
        if req is None:
            if not self.pending:
                return None
            if self.priority_mode:
                req = min(self.pending, key=lambda r: self.order[r.request_id])
            else:
                req = self.pending[0]
        return now + (req.size - req.sent_bytes) / rate_Bps


# Payload sizes on both sides of the SMS class bound, up to 8 s files.
QUEUE_SIZES = st.integers(1, 2 * SMS_PRIORITY_MAX_BYTES) | st.integers(1, 200_000)
GAPS = st.floats(0.0, 10.0)
ENQUEUE = st.tuples(st.just("enqueue"), GAPS, QUEUE_SIZES)
QUEUE_STEPS = st.lists(
    ENQUEUE
    | st.tuples(st.just("advance"), GAPS, st.booleans())
    | st.tuples(st.just("eta"), GAPS, st.none()),
    max_size=40,
)


@pytest.mark.parametrize("priority_mode", [False, True])
@settings(max_examples=300, deadline=None)
@given(first=st.lists(ENQUEUE, min_size=1, max_size=5), steps=QUEUE_STEPS)
def test_class_deques_match_the_backlog_scan(priority_mode, first, steps):
    # The reference takes the rate of the window it closes, so it is
    # driven as its owner drove it: a zero-length advance of its own
    # when the rate turns positive puts its head on the line.
    queue = LazyQueue(priority_mode=priority_mode)
    queue.advance(0.0, EDGE_RATE)
    ref = ReferenceQueue(priority_mode)
    t, up = 0.0, True
    for k, (op, gap, arg) in enumerate(first + steps):
        t += gap
        if op == "enqueue":
            queue.enqueue(req(f"r{k}", arg, at=t))
            ref.enqueue(req(f"r{k}", arg, at=t))
        elif op == "advance":
            was_up, up = up, up != arg  # the uplink toggles at this advance
            got = queue.advance(t, EDGE_RATE if up else 0.0)
            want = ref.advance(t, EDGE_RATE, was_up)
            if up and not was_up:
                want += ref.advance(t, EDGE_RATE, up)
            assert [(r.request_id, r.transmit_end) for r in got] == [
                (r.request_id, r.transmit_end) for r in want
            ]
        else:
            assert queue.eta(t) == ref.eta(t, EDGE_RATE, up)
        assert len(queue) == len(ref)


# ---------------------------------------------------------------- fastget


def test_fastget_round_trip_and_version_bump():
    server, _, clock = edge_server()
    resp = server.fastget("kv", "k", b"\0" * 64)
    assert resp.value == {"ok": True, "version": 1}
    assert resp.at == pytest.approx(64 / EDGE_RATE + 0.6 + 0.01)
    clock.t = 5.0
    resp = server.fastget("kv", "k", b"\0" * 64)
    assert resp.value["version"] == 2
    rec = server.store.get("kv", "k")
    assert rec.version == 2


def test_fastget_fails_fast_when_down_and_on_timeout():
    server, uplink, _ = edge_server()
    uplink.up = False
    with pytest.raises(BackhaulDown):
        server.fastget("kv", "k", b"x")
    assert server.counters["fastget"] == 0
    assert server.store.handler_runs == []
    uplink.up = True
    # a megabyte at edge rate predicts a 40.61 s sojourn, over the 30 s
    # deadline; the attempt is counted but nothing reaches the store
    with pytest.raises(SyncTimeout):
        server.fastget("kv", "k", b"\0" * 1_000_000)
    assert server.counters["fastget"] == 1
    assert server.store.handler_runs == []
    assert server.store.get("kv", "k") is None


def test_fastget_deadline_is_inclusive():
    # Exact binary numbers: 100 B at 100 B/s is 1.0 s of transfer, plus
    # two 0.5 s legs and 1.0 s of service, a 3.0 s sojourn.
    def server(service_s):
        return LocalServer(
            1,
            lambda: (100.0, 0.5),
            CloudStore(),
            Clock(),
            fastget_timeout_s=3.0,
            service_time=lambda: service_s,
            wake=lambda: None,
            board=MessageBoard(),
            resolve_local=lambda name: None,
        )

    at_deadline = server(1.0)
    assert at_deadline.fastget("kv", "k", b"x" * 100).at == 3.0
    assert len(at_deadline.store.handler_runs) == 1
    # One step above the deadline: 2.0 + service is the next double after 3.0.
    above = server(math.nextafter(3.0, math.inf) - 2.0)
    with pytest.raises(SyncTimeout, match="3.000s exceeds 3s"):
        above.fastget("kv", "k", b"x" * 100)
    assert above.store.handler_runs == []


def test_no_cloud_work_or_service_draw_while_the_route_is_none():
    # A draw ahead of the route check would shift every later draw of
    # the engine's seeded stream.
    draws = []

    def service_time():
        draws.append(1)
        return 0.01

    server, uplink, _ = edge_server(service_time=service_time)
    uplink.up = False
    with pytest.raises(BackhaulDown):
        server.fastget("kv", "k", b"x")
    with pytest.raises(BackhaulDown):
        server.fastsearch("kv", lambda k, r: True)
    assert server.counters["fastget"] == server.counters["fastsearch"] == 0
    assert server.store.handler_runs == []
    assert draws == []
    uplink.up = True
    server.fastget("kv", "k", b"x")
    assert len(draws) == 1
    server.fastsearch("kv", lambda k, r: True)
    assert len(draws) == 2
    assert server.counters["fastget"] == server.counters["fastsearch"] == 1
    assert len(server.store.handler_runs) == 1


def test_fastsearch_reads_committed_state():
    server, _, _ = edge_server()
    store = server.store
    store.apply("kv", "k", b"old", "r1", 1.0)
    resp = server.fastsearch("kv", lambda k, r: True)
    assert [(k, r.value) for k, r in resp.value] == [("k", b"old")]
    store.apply("kv", "k", b"new", "r2", 2.0)
    resp = server.fastsearch("kv", lambda k, r: True)
    assert resp.value[0][1].value == b"new"


# ------------------------------------------------------------- cloud store


def test_apply_is_idempotent_per_request_id():
    store = CloudStore()
    first = store.apply("kv", "k", b"v1", "r1", 1.0)
    store.apply("kv", "k", b"v2", "r2", 2.0)
    replay = store.apply("kv", "k", b"v1-retransmit", "r1", 3.0)
    assert replay is first
    assert len(store.handler_runs) == 2
    assert store.get("kv", "k").version == 2  # replay changed nothing
    assert store.applied_once()


# ----------------------------------------------------------------- mailbox


def envelope(mid, dest, created_at=0.0, ttl=None, body="hi"):
    return {
        "id": mid,
        "src": "alice",
        "dest": dest,
        "created_at": created_at,
        "ttl": ttl,
        "body": body,
    }


def test_local_messages_never_touch_the_queue():
    board = MessageBoard()
    server, _, _ = edge_server(board=board, resolve_local=lambda name: 1)
    mid = server.store_and_forward("alice", "bob", b"hello")
    assert len(server.queue) == 0
    assert server.counters["local_delivery"] == 1
    assert board.delivered == {mid: 0.0}
    rec = server.records[-1]
    assert rec.klass == "message" and rec.delivered_at == 0.0


def test_remote_messages_ride_the_lazy_queue_to_the_board():
    board = MessageBoard()
    store = CloudStore()
    store.register_handler("__msg__", board.handler)
    server, _, _ = edge_server(store=store, board=board)
    mid = server.store_and_forward("alice", "bob", b"hello", ttl=60.0)
    assert len(server.queue) == 1
    server.advance(0.0)
    server.advance(10.0)
    assert mid in board.pending
    env = board.pending[mid]
    assert env["dest"] == "bob" and env["body"] == "hello"
    pulled = board.pull(7, lambda name: 7, now=5.0)
    assert [e["id"] for e in pulled] == [mid]
    assert board.pending == {} and mid in board.delivered


def test_pull_checks_ttl_at_delivery_time():
    board = MessageBoard()
    board.deposit(envelope("m1", "bob", created_at=0.0, ttl=10.0))
    board.deposit(envelope("m2", "bob", created_at=0.0, ttl=None))
    pulled = board.pull(7, lambda name: 7, now=20.0)
    assert [e["id"] for e in pulled] == ["m2"]  # m1 aged out in the mailbox
    assert board.expired == ["m1"]
    assert "m1" not in board.delivered


def test_wire_duplicates_deliver_once():
    # a retransmitted message arrives under a fresh request id; the board
    # dedups on the message id, so the user sees it exactly once
    board = MessageBoard()
    store = CloudStore()
    store.register_handler("__msg__", board.handler)
    sent = envelope("m1", "bob")
    store.apply("__msg__", "m1", sent, "r1", 1.0)
    store.apply("__msg__", "m1", sent, "r2", 2.0)
    assert len(store.handler_runs) == 2
    assert list(board.pending) == ["m1"]
    board.pull(7, lambda name: 7, now=3.0)
    store.apply("__msg__", "m1", sent, "r3", 4.0)  # late straggler
    assert board.pending == {}  # already delivered, not resurrected


def test_pull_only_hands_out_matching_destinations():
    board = MessageBoard()
    board.deposit(envelope("m1", "bob"))
    board.deposit(envelope("m2", "carol"))
    homes = {"bob": 1, "carol": 2}
    assert [e["id"] for e in board.pull(1, homes.get, now=1.0)] == ["m1"]
    assert list(board.pending) == ["m2"]

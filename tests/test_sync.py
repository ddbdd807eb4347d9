"""Sync primitive tests: fluid queue timing, store semantics, mailbox."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlinks.errors import (
    BackhaulDown,
    PayloadEmpty,
    QueueFull,
    SyncTimeout,
)
from greenlinks.sync import (
    CloudStore,
    LazyQueue,
    LocalServer,
    MessageBoard,
    SyncConfig,
    SyncRequest,
)
from greenlinks.topology import BYTES_PER_KBPS

EDGE_RATE = 25000.0  # 200 kbps in bytes/second


class StaticUplink:
    """Fixed-rate uplink whose .up the tests flip by hand."""

    def __init__(self, rate_kbps: float, latency_ms: float, up: bool = True):
        self.rate = rate_kbps * BYTES_PER_KBPS
        self.latency = latency_ms / 1000.0
        self.up = up

    def is_up(self) -> bool:
        return self.up

    def rate_Bps(self) -> float:
        return self.rate

    def latency_s(self) -> float:
        return self.latency


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
        service_time=lambda: 0.01,
        **kw,
    )
    return server, uplink, clock


def req(request_id, size, seq, at=0.0):
    return SyncRequest(
        request_id=request_id,
        identity="u",
        app_type="t",
        key=request_id,
        payload=b"x" * size,
        klass="slowput",
        enqueued_at=at,
        seq=seq,
    )


# ------------------------------------------------------------ fluid timing


def test_one_megabyte_on_edge_takes_exactly_forty_seconds():
    server, _, _ = edge_server()
    ack = server.slowput("u", "file", b"\0" * 1_000_000)
    assert ack.enqueued_at == 0.0
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
    server.slowput("u", "file", b"\0" * 500_000)
    server.slowput("u", "file", b"\0" * 250_000)
    done = server.advance(60.0)
    assert [c.request.transmit_end for c in done] == [20.0, 30.0]
    # apply order at the store matches enqueue order
    assert [entry[3] for entry in server.store.apply_log] == [
        c.request.request_id for c in done
    ]


def test_partial_transfer_survives_an_outage_and_resumes():
    server, uplink, clock = edge_server()
    server.slowput("u", "file", b"\0" * 1_000_000)
    assert server.advance(10.0) == []
    assert server.queue.in_flight.sent_bytes == pytest.approx(250_000)
    uplink.up = False
    assert server.advance(70.0) == []  # outage: no progress
    assert server.queue.in_flight.sent_bytes == pytest.approx(250_000)
    uplink.up = True
    done = server.advance(200.0)
    assert done[0].request.transmit_end == 100.0  # 70 + 750k/25k


def test_advance_is_idempotent_at_a_fixed_time():
    server, _, _ = edge_server()
    server.slowput("u", "file", b"\0" * 100_000)
    first = server.advance(50.0)
    assert len(first) == 1
    assert server.advance(50.0) == []
    assert len(server.store.handler_runs) == 1


def test_eta_predicts_the_exact_completion():
    server, uplink, _ = edge_server()
    server.slowput("u", "file", b"\0" * 1_000_000)
    eta = server.eta(0.0)
    assert eta == 40.0
    done = server.advance(eta)
    assert done[0].request.transmit_end == eta
    assert server.eta(eta) is None
    uplink.up = False
    assert server.eta(41.0) is None


def test_priority_mode_preempts_only_at_request_boundaries():
    timings = {}
    for priority in (False, True):
        server, _, clock = edge_server(priority_mode=priority)
        server.slowput("u", "file", b"\0" * 200_000)  # 8 s on the wire
        server.advance(1.0)  # file now in flight
        clock.t = 1.0
        server.slowput("u", "file", b"\0" * 100_000)  # 4 s
        server.slowput("u", "sms", b"\0" * 100)  # sms class
        done = server.advance(100.0)
        timings[priority] = [
            (c.request.app_type, c.request.transmit_end) for c in done
        ]
    # plain FIFO finishes the sms last; priority slots it after the
    # in-flight file but never preempts mid-transfer
    assert timings[False] == [("file", 8.0), ("file", 12.0), ("sms", 12.004)]
    assert timings[True] == [("file", 8.0), ("sms", 8.004), ("file", 12.004)]


def test_queue_capacity_and_empty_payload():
    server, _, _ = edge_server(config=SyncConfig(queue_capacity=2))
    server.slowput("u", "t", b"a")
    server.slowput("u", "t", b"b")
    with pytest.raises(QueueFull):
        server.slowput("u", "t", b"c")
    with pytest.raises(PayloadEmpty):
        server.slowput("u", "t", b"")


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 1_000_000), min_size=1, max_size=8),
    cuts=st.lists(st.floats(0.01, 50.0), max_size=6),
)
def test_drain_conserves_bytes_and_order(sizes, cuts):
    queue = LazyQueue()
    for i, size in enumerate(sizes):
        queue.enqueue(req(f"r{i}", size, seq=i))
    done = []
    t = 0.0
    for step in sorted(cuts):
        t += step
        done.extend(queue.advance(t, EDGE_RATE, True))
    done.extend(queue.advance(t + sum(sizes) / EDGE_RATE + 1.0, EDGE_RATE, True))
    assert [r.request_id for r in done] == [f"r{i}" for i in range(len(sizes))]
    ends = [r.transmit_end for r in done]
    assert ends == sorted(ends)
    # busy the whole time: the last bit leaves exactly when the total
    # byte count has drained at the constant rate
    assert ends[-1] == pytest.approx(sum(sizes) / EDGE_RATE)
    assert len(queue) == 0


# ---------------------------------------------------------------- fastget


def test_fastget_round_trip_and_version_bump():
    server, _, clock = edge_server()
    resp = server.fastget("u", "kv", "k", b"\0" * 64)
    assert resp.value == {"ok": True, "version": 1}
    assert resp.at == pytest.approx(64 / EDGE_RATE + 0.6 + 0.01)
    clock.t = 5.0
    resp = server.fastget("u", "kv", "k", b"\0" * 64)
    assert resp.value["version"] == 2
    rec = server.store.get("kv", "k")
    assert rec.version == 2 and rec.updated_at > 5.0


def test_fastget_fails_fast_when_down_and_on_timeout():
    server, uplink, _ = edge_server()
    uplink.up = False
    with pytest.raises(BackhaulDown):
        server.fastget("u", "kv", "k", b"x")
    assert server.counters["fastget"] == 0
    assert server.store.handler_runs == []
    uplink.up = True
    # a megabyte at edge rate predicts a 40.61 s sojourn, over the 30 s
    # deadline; the attempt is counted but nothing reaches the store
    with pytest.raises(SyncTimeout):
        server.fastget("u", "kv", "k", b"\0" * 1_000_000)
    assert server.counters["fastget"] == 1
    assert server.store.handler_runs == []
    assert server.store.get("kv", "k") is None


def test_fastsearch_reads_committed_state():
    server, _, _ = edge_server()
    store = server.store
    store.apply("kv", "k", b"old", "r1", 1.0)
    resp = server.fastsearch("u", "kv", lambda k, r: True)
    assert [(k, r.payload) for k, r in resp.value] == [("k", b"old")]
    store.apply("kv", "k", b"new", "r2", 2.0)
    resp = server.fastsearch("u", "kv", lambda k, r: True)
    assert resp.value[0][1].payload == b"new"


# ------------------------------------------------------------- cloud store


def test_apply_is_idempotent_per_request_id():
    store = CloudStore()
    first = store.apply("kv", "k", b"v1", "r1", 1.0)
    store.apply("kv", "k", b"v2", "r2", 2.0)
    replay = store.apply("kv", "k", b"v1-retransmit", "r1", 3.0)
    assert replay is first
    assert store.apply_attempts == {"r1": 2, "r2": 1}
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
    payload = json.dumps(envelope("m1", "bob")).encode()
    store.apply("__msg__", "m1", payload, "r1", 1.0)
    store.apply("__msg__", "m1", payload, "r2", 2.0)
    assert len(store.handler_runs) == 2
    assert list(board.pending) == ["m1"]
    board.pull(7, lambda name: 7, now=3.0)
    store.apply("__msg__", "m1", payload, "r3", 4.0)  # late straggler
    assert board.pending == {}  # already delivered, not resurrected


def test_pull_only_hands_out_matching_destinations():
    board = MessageBoard()
    board.deposit(envelope("m1", "bob"))
    board.deposit(envelope("m2", "carol"))
    homes = {"bob": 1, "carol": 2}
    assert [e["id"] for e in board.pull(1, homes.get, now=1.0)] == ["m1"]
    assert list(board.pending) == ["m2"]

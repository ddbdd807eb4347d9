"""Synchronization primitives between community nodes and the cloud.

Three data operations with different urgency and consistency needs:

* slowput   -- lazy durable write.  The caller gets an ack immediately;
               the payload sits in the node's lazy queue, which has no
               bound, and trickles up whenever the backhaul has
               capacity.  Delivery is at-least-once on the wire and
               exactly-once at the store (idempotent apply keyed by
               request id).
* fastget   -- immediate read-modify-write round trip.  Fails fast with
               BackhaulDown when the uplink is down and SyncTimeout when
               the predicted sojourn exceeds the deadline; it never
               pretends a local result is a cloud result.
* fastsearch - immediate read-only query over committed state.  Every
               store write (a slowput's apply or a fastget's
               read-modify-write) lands whole at one simulated instant,
               so a search never sees a partial write.

None of them names a caller: the layer only moves data, and the apps
check who may act (the marketplace checks registration before every
SELL, BUY and SEARCH).

Every write carries a value, and the store applies that value: a JSON
app hands over the dict it would send, a raw write (a file, a kv blob)
its bytes.  Bytes matter only for time and size: wire_size() is what
the value takes on the wire, its sorted-key JSON text or the raw bytes
themselves, and that count sets the transfer time and fills the
``bytes`` column.  A JSON value is encoded only to count it, once per
write, by one encoder the module builds at import: json.dumps would
build a new one on each call.  Nothing on the store side parses JSON; a
stored value is never changed in place, and a write replaces it with a
new one.

Transmission is modeled as a fluid queue: the head request drains at the
uplink's byte rate, completions land mid-interval at exact times, and a
partially sent payload survives an outage and resumes afterwards.  A
queue drains each window at the rate it was given at the window's start
and keeps it until the next advance(), so the owner advances a site
after its route changes, never before, and at each head completion
that eta() predicts.  An enqueue asks nothing of its caller: one that
finds the queue idle calls the owner's wake(), and any other joins a
queue already waiting on a predicted completion or on a route change.

store_and_forward wraps slowput into a mailbox envelope for asynchronous
user-to-user messages; delivery happens when the destination node syncs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import BackhaulDown, PayloadEmpty, SyncTimeout

SMS_PRIORITY_MAX_BYTES = 1024

_EPS = 1e-9
# The encoder behind every sorted-key payload, built once: json.dumps and
# JSONEncoder.encode build a new C encoder on every call.  It checks no
# cycles, so a circular value raises RecursionError, not ValueError; a
# markers dict shared between calls would keep the entries of an encode
# that failed and report a later value as circular.
_SORTED = json.JSONEncoder(sort_keys=True, check_circular=False)
if json.encoder.c_make_encoder is None:
    encode_sorted = _SORTED.encode
else:
    _encode_chunks = json.encoder.c_make_encoder(
        None,
        _SORTED.default,
        json.encoder.encode_basestring_ascii,
        _SORTED.indent,
        _SORTED.key_separator,
        _SORTED.item_separator,
        _SORTED.sort_keys,
        _SORTED.skipkeys,
        _SORTED.allow_nan,
    )

    def encode_sorted(value) -> str:
        """``value``'s sorted-key JSON text, as json.dumps(value,
        sort_keys=True) writes it."""
        return "".join(_encode_chunks(value, 0))


def wire_size(value) -> int:
    """Bytes ``value`` takes on the wire: raw bytes travel as they are,
    any other value as its sorted-key JSON text, which is ASCII, so one
    byte per character."""
    if isinstance(value, bytes):
        return len(value)
    return len(encode_sorted(value))


@dataclass
class SyncRequest:
    request_id: str
    app_type: str
    key: str | None
    value: object
    size: int  # wire_size(value), taken once at construction
    klass: str  # "slowput" or "message"
    enqueued_at: float
    sent_bytes: float = 0.0
    transmit_end: float | None = None


@dataclass(frozen=True)
class Ack:
    request_id: str
    enqueued_at: float


@dataclass
class Record:
    value: object
    version: int


@dataclass
class Completion:
    request: SyncRequest
    apply_at: float


@dataclass(frozen=True)
class LatencyRecord:
    request_id: str
    klass: str
    app_type: str
    size: int
    enqueued_at: float
    delivered_at: float


@dataclass(frozen=True)
class FastResponse:
    value: object
    at: float


class LazyQueue:
    """Transmit queue with fluid drain and optional priority classes,
    FIFO within each class.

    With priority mode on, small payloads (<= 1 KB, the SMS class) are
    selected ahead of file-class requests, but only at request
    boundaries: a file already in flight finishes first.
    """

    def __init__(self, *, priority_mode: bool = False):
        # Class 0 holds SMS-sized payloads, class 1 the rest; FIFO mode
        # has a single class, so both indexes name the same deque.
        self._classes = (deque(), deque()) if priority_mode else (deque(),)
        self.in_flight: SyncRequest | None = None
        # Accounting starts at the start of the simulation, at rate 0.
        self._cursor = 0.0
        self._rate = 0.0

    def __len__(self) -> int:
        return sum(map(len, self._classes)) + (1 if self.in_flight else 0)

    def enqueue(self, req: SyncRequest) -> None:
        self._classes[0 if req.size <= SMS_PRIORITY_MAX_BYTES else -1].append(req)

    def _head(self) -> SyncRequest | None:
        for fifo in self._classes:
            if fifo:
                return fifo[0]
        return None

    def _take_next(self) -> SyncRequest | None:
        for fifo in self._classes:
            if fifo:
                return fifo.popleft()
        return None

    def advance(self, now: float, rate_Bps: float) -> list[SyncRequest]:
        """Drain from the last call up to ``now`` at the rate that call
        gave (0 before any), then put ``rate_Bps`` in force; a positive
        one puts the head on the line at once.  Returns requests whose
        final byte went out in the window, each stamped with its exact
        transmit_end."""
        start = self._cursor
        if now < start:
            now = start
        self._cursor = now
        rate, self._rate = self._rate, rate_Bps
        completed = []
        t = start
        while rate > 0:
            if self.in_flight is None:
                self.in_flight = self._take_next()
                if self.in_flight is None:
                    break
            req = self.in_flight
            if req.enqueued_at > t:
                t = req.enqueued_at  # the line sat idle until it arrived
            remaining = now - t
            need = (req.size - req.sent_bytes) / rate
            if need <= remaining + _EPS:
                t += need
                req.sent_bytes = req.size
                req.transmit_end = t
                completed.append(req)
                self.in_flight = None
            else:
                req.sent_bytes += max(0.0, remaining) * rate
                break
        if rate_Bps > 0 and self.in_flight is None:
            self.in_flight = self._take_next()
        return completed

    def eta(self, now: float) -> float | None:
        """Predicted transmit_end of the current head at the rate in
        force (None at rate 0).  Call advance(now) first."""
        if self._rate <= 0:
            return None
        req = self.in_flight or self._head()
        if req is None:
            return None
        return now + (req.size - req.sent_bytes) / self._rate


class CloudStore:
    """Cloud-side versioned store of values.

    apply() takes the value a request carries, never its wire bytes, and
    each Record holds one value: the dict a JSON app sent, or a raw
    write's bytes.  It is idempotent per request id: a duplicate
    transmission returns the recorded response without re-running the
    handler.  Handlers registered per app_type interpret values (the
    default is an upsert); they may raise, and the error is what the
    caller sees.  No handler changes a stored value in place.
    """

    def __init__(self):
        self.records: dict[tuple[str, str], Record] = {}
        self.handlers: dict[str, object] = {}
        # One entry per handler run, in execution order.
        self.handler_runs: list[tuple[float, str, str, str]] = []
        self._responses: dict[str, object] = {}

    def register_handler(self, app_type: str, handler) -> None:
        self.handlers[app_type] = handler

    # ----------------------------------------------------------- reading

    def get(self, app_type: str, key: str) -> Record | None:
        return self.records.get((app_type, key))

    def search(self, app_type: str, match) -> list[tuple[str, Record]]:
        """Committed snapshot query, sorted by key."""
        out = []
        for (t, key), rec in self.records.items():
            if t == app_type and match(key, rec):
                out.append((key, rec))
        out.sort(key=lambda kv: kv[0])
        return out

    # ----------------------------------------------------------- applying

    def apply(
        self,
        app_type: str,
        key: str | None,
        value,
        request_id: str,
        at: float,
    ):
        if request_id in self._responses:
            return self._responses[request_id]
        handler = self.handlers.get(app_type, CloudStore._upsert)
        self.handler_runs.append((at, app_type, key or "", request_id))
        response = handler(self, app_type, key, value, request_id, at)
        self._responses[request_id] = response
        return response

    def _upsert(self, app_type, key, value, request_id, at):
        slot = (app_type, key)
        old = self.records.get(slot)
        rec = Record(value=value, version=(old.version + 1) if old else 1)
        self.records[slot] = rec
        return {"ok": True, "version": rec.version}

    def applied_once(self) -> bool:
        """True when no request id ran its handler more than once (a
        request may be applied again; its effect must not be)."""
        seen = {}
        for _, _, _, request_id in self.handler_runs:
            seen[request_id] = seen.get(request_id, 0) + 1
        return all(c == 1 for c in seen.values())


class MessageBoard:
    """Cloud mailbox for store-and-forward messages.

    deposit() is idempotent per message id; pull() hands each message to
    its destination node exactly once, checking TTL at delivery time.
    """

    def __init__(self):
        self.pending: dict[str, dict] = {}
        self.delivered: dict[str, float] = {}
        self.expired: list[str] = []

    def handler(self, store, app_type, key, envelope, request_id, at):
        self.deposit(envelope)
        return {"ok": True, "message_id": envelope["id"]}

    def deposit(self, envelope: dict) -> None:
        mid = envelope["id"]
        if mid in self.delivered or mid in self.pending:
            return
        self.pending[mid] = envelope

    def deliver_local(self, envelope: dict, now: float) -> bool:
        mid = envelope["id"]
        if mid in self.delivered:
            return False
        self.delivered[mid] = now
        return True

    def pull(self, node_id: int, resolve_node, now: float) -> list[dict]:
        """Messages destined to identities homed on node_id.  resolve_node
        maps a destination name to its current node (or None)."""
        out = []
        for mid in sorted(self.pending):
            env = self.pending[mid]
            if resolve_node(env["dest"]) != node_id:
                continue
            del self.pending[mid]
            ttl = env.get("ttl")
            if ttl is not None and now - env["created_at"] > ttl:
                self.expired.append(mid)
                continue
            self.delivered[mid] = now
            out.append(env)
        return out


class LocalServer:
    """Per-node face of the sync layer.

    ``route()`` returns the site's current route to the cloud as
    (bottleneck bytes/s, one-way latency s), or None while the backhaul
    is down; each operation reads it once.  ``clock`` returns sim time;
    ``fastget_timeout_s`` is the fastget deadline; ``service_time`` draws
    the cloud's processing time for one request (inject the engine's
    seeded stream for jitter); ``wake()`` is called when an enqueue finds
    the lazy queue idle, so the owner drains it (advance, then eta) and
    no caller has to; ``board`` is the cloud mailbox and
    ``resolve_local`` maps a message destination to this node's id when
    it is homed here, else None.
    """

    def __init__(
        self,
        node_id: int,
        route,
        store: CloudStore,
        clock,
        *,
        fastget_timeout_s: float,
        service_time,
        wake,
        board: MessageBoard,
        resolve_local,
        priority_mode: bool = False,
    ):
        self.node_id = node_id
        self.route = route
        self.store = store
        self.clock = clock
        self.fastget_timeout_s = fastget_timeout_s
        self.service_time = service_time
        self.wake = wake
        self.board = board
        self.resolve_local = resolve_local
        self.queue = LazyQueue(priority_mode=priority_mode)
        self.in_force = None  # route() at the last advance(); the queue drains on it
        self.records: list[LatencyRecord] = []
        self.counters = {
            "slowput": 0,
            "fastget": 0,
            "fastsearch": 0,
            "message": 0,
            "local_delivery": 0,
        }
        self._seq = 0

    def _next_id(self) -> str:
        self._seq += 1
        return f"n{self.node_id}-q{self._seq}"

    # ------------------------------------------------------------- write

    def _enqueue(self, req: SyncRequest) -> None:
        self.queue.enqueue(req)
        if len(self.queue) == 1:
            self.wake()

    def slowput(self, app_type: str, value, key: str | None = None) -> Ack:
        """Queue a durable write of ``value`` and ack immediately,
        backhaul or not."""
        size = wire_size(value)
        if not size:
            raise PayloadEmpty("slowput payload must be non-empty")
        now = self.clock()
        req = SyncRequest(
            request_id=self._next_id(),
            app_type=app_type,
            key=key,
            value=value,
            size=size,
            klass="slowput",
            enqueued_at=now,
        )
        self._enqueue(req)
        self.counters["slowput"] += 1
        return Ack(request_id=req.request_id, enqueued_at=now)

    def advance(self, now: float) -> list[Completion]:
        """Drain the lazy queue up to ``now`` on the route in force (the
        one route() gave at the last call; none before it), apply the
        completions with its latency, then put route() in force."""
        latency = self.in_force[1] if self.in_force else 0.0
        self.in_force = route = self.route()
        out = []
        for req in self.queue.advance(now, route[0] if route else 0.0):
            apply_at = req.transmit_end + latency
            self.store.apply(
                req.app_type, req.key, req.value, req.request_id, apply_at
            )
            self.records.append(
                LatencyRecord(
                    request_id=req.request_id,
                    klass=req.klass,
                    app_type=req.app_type,
                    size=req.size,
                    enqueued_at=req.enqueued_at,
                    delivered_at=apply_at + self.service_time() + latency,
                )
            )
            out.append(Completion(request=req, apply_at=apply_at))
        return out

    def eta(self, now: float) -> float | None:
        """When the head's last byte goes out on the route in force."""
        return self.queue.eta(now)

    # -------------------------------------------------------------- read

    def _round_trip(self, size: int) -> tuple[float, float, float]:
        """(transfer, one-way latency, sojourn) of a request of ``size``
        bytes.  Raises BackhaulDown before the service time is drawn, so
        a failed attempt leaves the random stream untouched."""
        route = self.route()
        if route is None:
            raise BackhaulDown(f"node {self.node_id}: uplink is down")
        rate, latency = route
        transfer = size / rate if rate > 0 else 0.0
        return transfer, latency, transfer + 2 * latency + self.service_time()

    def fastget(self, app_type: str, key: str, value) -> FastResponse:
        """Immediate round trip of ``value``; raises instead of faking
        local success.  A predicted sojourn equal to the deadline still
        succeeds; SyncTimeout is raised only for one strictly above it."""
        size = wire_size(value)
        if not size:
            raise PayloadEmpty("fastget payload must be non-empty")
        transfer, latency, sojourn = self._round_trip(size)
        self.counters["fastget"] += 1
        now = self.clock()
        if sojourn > self.fastget_timeout_s:
            raise SyncTimeout(
                f"predicted sojourn {sojourn:.3f}s exceeds "
                f"{self.fastget_timeout_s:.0f}s deadline"
            )
        request_id = self._next_id()
        try:
            response = self.store.apply(
                app_type, key, value, request_id, now + transfer + latency
            )
        finally:
            self.records.append(
                LatencyRecord(
                    request_id=request_id,
                    klass="fastget",
                    app_type=app_type,
                    size=size,
                    enqueued_at=now,
                    delivered_at=now + sojourn,
                )
            )
        return FastResponse(value=response, at=now + sojourn)

    def fastsearch(self, app_type: str, match) -> FastResponse:
        """Immediate committed-snapshot query."""
        _, _, sojourn = self._round_trip(64)
        self.counters["fastsearch"] += 1
        now = self.clock()
        request_id = self._next_id()
        results = self.store.search(app_type, match)
        self.records.append(
            LatencyRecord(
                request_id=request_id,
                klass="fastsearch",
                app_type=app_type,
                size=64,
                enqueued_at=now,
                delivered_at=now + sojourn,
            )
        )
        return FastResponse(value=results, at=now + sojourn)

    # ---------------------------------------------------------- messages

    def store_and_forward(
        self,
        sender: str,
        dest: str,
        payload: bytes,
        ttl: float | None = None,
    ) -> str:
        """Queue a user-to-user message.  Destination on this very node is
        delivered straight from the local spool; everything else rides a
        slowput into the cloud mailbox."""
        if not payload:
            raise PayloadEmpty("message payload must be non-empty")
        now = self.clock()
        self.counters["message"] += 1
        message_id = f"m{self.node_id}-{self.counters['message']}"
        envelope = {
            "id": message_id,
            "src": sender,
            "dest": dest,
            "created_at": now,
            "ttl": ttl,
            "body": payload.decode("latin1"),
        }
        if self.resolve_local(dest) == self.node_id:
            self.board.deliver_local(envelope, now)
            self.counters["local_delivery"] += 1
            self.records.append(
                LatencyRecord(
                    request_id=message_id,
                    klass="message",
                    app_type="__msg__",
                    size=len(payload),
                    enqueued_at=now,
                    delivered_at=now,
                )
            )
            return message_id
        # A queued message uses up a request number too, so the
        # n<node>-q<k> ids issued after it count it.
        self._seq += 1
        req = SyncRequest(
            request_id=message_id,
            app_type="__msg__",
            key=message_id,
            value=envelope,
            size=wire_size(envelope),
            klass="message",
            enqueued_at=now,
        )
        self._enqueue(req)
        return message_id

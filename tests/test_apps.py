"""SMS marketplace and scripted workload."""

import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from greenlinks.apps import (
    SMS_LIMIT,
    Marketplace,
    Workload,
    chunk_sms,
    parse_command,
)
from greenlinks.errors import (
    BackhaulDown,
    GreenLinksError,
    InvalidListing,
    ListingNotFound,
    ScenarioError,
    SoldOut,
    UnknownIdentity,
)
from greenlinks.scenario import check_scenario, generate_tree
from greenlinks.simcore import Simulation, replicate
from greenlinks.sync import CloudStore, Record, encode_sorted

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# ----------------------------------------------------------------- grammar


def test_command_grammar():
    assert parse_command("SELL maize 10 2.5") == {
        "op": "sell",
        "item": "maize",
        "qty": 10,
        "price": 2.5,
    }
    assert parse_command("  buy L1-3  ") == {"op": "buy", "listing_id": "L1-3"}
    assert parse_command("Search cassava") == {"op": "search", "item": "cassava"}


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "GIVE maize 1 1",
        "SELL maize 10",
        "SELL maize ten 2.5",
        "SELL maize 10 cheap",
        "BUY",
        "BUY L1 L2",
        "SEARCH",
    ],
)
def test_bad_commands_are_rejected(bad):
    with pytest.raises(ScenarioError):
        parse_command(bad)


def test_chunking_prefers_line_boundaries():
    assert chunk_sms("") == []
    assert chunk_sms("x" * SMS_LIMIT) == ["x" * SMS_LIMIT]
    assert chunk_sms("x" * (SMS_LIMIT + 1)) == ["x" * SMS_LIMIT, "x"]
    a, b = "a" * 100, "b" * 100
    assert chunk_sms(a + "\n" + b) == [a, b]
    assert chunk_sms("one\ntwo\nthree") == ["one\ntwo\nthree"]


short_lines = st.lists(
    st.text(
        alphabet=st.characters(blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85  "),
        max_size=SMS_LIMIT,
    ),
    max_size=8,
)


@given(short_lines)
def test_chunking_is_lossless_when_no_line_overflows(lines):
    text = "\n".join(lines)
    chunks = chunk_sms(text)
    assert all(len(c) <= SMS_LIMIT for c in chunks)
    # trailing newline and leading blank lines are display noise
    assert "\n".join(chunks) == "\n".join(text.splitlines()).lstrip("\n")


# ------------------------------------------------------------- marketplace


@pytest.fixture
def market_sim():
    sim = Simulation(check_scenario(generate_tree(1, 1)), seed=3)
    sim.identity.issue_identity(1, "233200000001", chosen_name="ama")
    sim.identity.issue_identity(2, "233200000002", chosen_name="kofi")
    market = Marketplace(sim.local(1), sim.identity)
    return sim, market


def drain(sim):
    sim.poke(1)
    sim.engine.run_until(None)


def test_sell_acks_immediately_and_search_sees_it_after_sync(market_sim):
    sim, market = market_sim
    listing, ack = market.sell("233200000001", "maize", 10, 2.5)
    assert listing.listing_id == "L1-1"
    assert ack.enqueued_at == 0.0
    remote = Marketplace(sim.local(2), sim.identity)
    # nothing has drained yet: the catalog is still empty
    hits, chunks, _ = remote.search("233200000002", "maize")
    assert hits == [] and chunks == []
    drain(sim)
    hits, chunks, _ = remote.search("233200000002", "maize")
    assert [l.listing_id for l in hits] == ["L1-1"]
    number = listing.seller_number
    assert chunks == [f"L1-1 maize 10@2.5 {number}"]


def test_listing_validation(market_sim):
    _, market = market_sim
    with pytest.raises(InvalidListing):
        market.sell("233200000001", "sweet corn", 1, 1.0)
    with pytest.raises(InvalidListing):
        market.sell("233200000001", "maize", 0, 1.0)
    with pytest.raises(InvalidListing):
        market.sell("233200000001", "maize", 1, 0.0)
    with pytest.raises(UnknownIdentity):
        market.sell("233299999999", "maize", 1, 1.0)


@pytest.mark.parametrize("price", [float("nan"), float("inf"), float("-inf")])
def test_a_price_must_be_finite(market_sim, price):
    sim, market = market_sim
    with pytest.raises(InvalidListing, match="finite"):
        market.sell("233200000001", "maize", 1, price)
    assert len(sim.local(1).queue) == 0


@given(st.text())
def test_an_item_is_one_token_with_no_whitespace(item):
    sim = Simulation(check_scenario(generate_tree(1, 0)), seed=3)
    sim.identity.issue_identity(1, "233200000001")
    market = Marketplace(sim.local(1), sim.identity)
    single_token = bool(item) and not any(c.isspace() for c in item)
    try:
        market.sell("233200000001", item, 1, 1.0)
    except InvalidListing:
        assert not single_token
    else:
        assert single_token


def test_buy_closes_the_listing(market_sim):
    sim, market = market_sim
    listing, _ = market.sell("233200000001", "maize", 10, 2.5)
    drain(sim)
    value, at = market.buy("233200000001", listing.listing_id)
    assert value["ok"] and value["qty"] == 10
    assert value["seller_number"] == listing.seller_number
    assert at > 0.0
    with pytest.raises(SoldOut):
        market.buy("233200000001", listing.listing_id)
    with pytest.raises(ListingNotFound):
        market.buy("233200000001", "L9-99")
    # sold listings fall out of search results
    hits, _, _ = market.search("233200000001", "maize")
    assert hits == []


def test_sell_works_offline_buy_and_search_do_not(market_sim):
    sim, market = market_sim
    sim.set_link("b0", False)
    listing, ack = market.sell("233200000001", "maize", 5, 1.0)
    assert ack.request_id  # acked despite the outage
    with pytest.raises(BackhaulDown):
        market.buy("233200000001", listing.listing_id)
    with pytest.raises(BackhaulDown):
        market.search("233200000001", "maize")
    sim.set_link("b0", True)
    sim.engine.run_until(None)
    hits, _, _ = market.search("233200000001", "maize")
    assert [l.listing_id for l in hits] == [listing.listing_id]


def test_each_action_maps_to_one_primitive(market_sim):
    sim, market = market_sim
    server = sim.local(1)
    market.sell("233200000001", "maize", 2, 1.0)
    market.sell("233200000001", "yam", 1, 4.0)
    drain(sim)
    market.buy("233200000001", "L1-1")
    market.search("233200000001", "yam")
    market.search("233200000001", "rice")
    assert server.counters["slowput"] == 2
    assert server.counters["fastget"] == 1
    assert server.counters["fastsearch"] == 2


# ---------------------------------------------------------------- workload


def small_workload_config():
    return {
        "sellers": 2,
        "buyers": 2,
        "sell_period_s": 10.0,
        "buy_period_s": 10.0,
        "until_s": 40.0,
        "file_count": 2,
        "file_bytes": 50000,
        "file_period_s": 15.0,
    }


def workload_sim(seed, **changes):
    """A run of generate_tree(1, 0) with small_workload_config(), as
    changed, for its workload section."""
    scenario = generate_tree(1, 0)
    scenario["workload"] = {**small_workload_config(), **changes}
    return Simulation(check_scenario(scenario), seed=seed)


def test_workload_issues_the_scripted_load():
    sim = workload_sim(8)
    wl = Workload(sim)
    wl.schedule()
    sim.run(40.0)
    server = sim.local(wl.node)
    # 2 sellers x 4 rounds, plus 2 file pushes, all through the lazy queue
    assert server.counters["slowput"] == 10
    assert server.counters["fastget"] == 8
    assert len(wl.listings) == 8
    assert all(l.startswith("L1-") for l in wl.listings)
    assert wl.buy_errors <= 8
    files = [r for r in server.records if r.app_type == "file"]
    assert [f.size for f in files] == [50000, 50000]
    assert sim.store.applied_once()


def test_the_workload_holds_one_pending_event_per_stream():
    # market_backlog's load: 40 sellers and 30 buyers every 10 s, files
    # every 30 s, over 3600 s.
    sim = workload_sim(
        8, sellers=40, buyers=30, until_s=3600.0, file_count=120,
        file_bytes=1000, file_period_s=30.0,
    )
    Workload(sim).schedule(3600.0)
    pending = [kind for _, _, kind, _, _ in sim.engine._heap]
    assert pending.count("wl_sell") == 40 and pending.count("wl_buy") == 30
    assert pending.count("wl_file") == 120 and len(pending) == 190


def test_workload_is_deterministic_per_seed():
    def trace(seed):
        sim = workload_sim(seed)
        wl = Workload(sim)
        wl.schedule()
        sim.run(40.0)
        server = sim.local(wl.node)
        return [
            (r.klass, r.app_type, r.size, r.enqueued_at, r.delivered_at)
            for r in server.records
        ], wl.buy_errors

    assert trace(8) == trace(8)
    records_a, _ = trace(8)
    records_b, _ = trace(9)
    assert records_a != records_b


@pytest.mark.parametrize("file_bytes", [1, 5, 50000])
def test_every_file_is_exactly_file_bytes(file_bytes):
    sim = workload_sim(8, file_bytes=file_bytes)
    wl = Workload(sim)
    wl.schedule()
    sim.run(40.0)
    files = [r for r in sim.local(wl.node).records if r.app_type == "file"]
    assert [f.size for f in files] == [file_bytes, file_bytes]
    stored = [rec for (t, _), rec in sim.store.records.items() if t == "file"]
    assert [len(rec.value) for rec in stored] == [file_bytes, file_bytes]


@pytest.mark.parametrize("priority_queue", [False, True])
def test_every_queue_wake_up_completes_a_write(priority_queue):
    # A failure-free edge run: an enqueue wakes only an idle queue, so
    # each completion-time dispatch is current and lands one slowput.
    scenario = generate_tree(1, 0, backhaul_profile="edge")
    scenario["workload"] = {"file_count": 3, "file_bytes": 20000}
    sim = Simulation(check_scenario(scenario), seed=3, priority_queue=priority_queue)
    dispatch = sim.engine.handlers["queue_eta"]
    current = []

    def counted(node, gen):
        current.append(gen == sim._queue_gen[node])
        dispatch(node=node, gen=gen)

    sim.engine.on("queue_eta", counted)
    Workload(sim).schedule(300.0)
    rows = [r for r in sim.run(300.0).latency if r.klass == "slowput"]
    assert len(rows) == 123  # 4 sellers x 30 rounds, plus 3 files
    assert len(current) == len(rows)
    assert all(current)


def test_memory_does_not_grow_with_the_files_queued():
    scenario = json.loads((SCENARIOS / "market_edge.json").read_text())

    def peak(file_count):
        scenario["workload"]["file_count"] = file_count
        loaded = check_scenario(scenario)
        tracemalloc.start()
        try:
            next(replicate(loaded, 1, 1200.0, base_seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 40 files of 1 MB each are scheduled before the horizon.
    assert peak(40) - peak(10) < scenario["workload"]["file_bytes"]


# ------------------------------------------------- values, not wire bytes


class WireRoundTripStore(CloudStore):
    """The store as it was when it kept wire bytes: every value that
    arrives is encoded and parsed again before its handler runs, every
    value written is kept as it parses back from its encoding, and every
    record a handler or a search reads is parsed again."""

    def __init__(self):
        super().__init__()
        self.sent: dict[str, object] = {}

    @staticmethod
    def round_trip(value):
        return json.loads(encode_sorted(value))

    def parsed(self, rec):
        return Record(self.round_trip(rec.value), rec.version)

    def apply(self, app_type, key, value, request_id, at):
        self.sent[request_id] = value
        return super().apply(app_type, key, self.round_trip(value), request_id, at)

    def _upsert(self, app_type, key, value, request_id, at):
        return super()._upsert(app_type, key, self.round_trip(value), request_id, at)

    def get(self, app_type, key):
        rec = super().get(app_type, key)
        return rec and self.parsed(rec)

    def search(self, app_type, match):
        hits = super().search(app_type, lambda k, r: match(k, self.parsed(r)))
        return [(key, self.parsed(rec)) for key, rec in hits]


SELLERS = {1: "233200000001", 2: "233200000002"}
nodes = st.sampled_from(sorted(SELLERS))
items = st.sampled_from(["maize", "yam"])
market_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0),
        st.one_of(
            st.tuples(
                st.just("sell"),
                nodes,
                items,
                st.integers(min_value=1, max_value=10**6),
                st.floats(min_value=0.01, max_value=1e6),
            ),
            st.tuples(st.just("buy"), nodes, st.integers(0, 3)),
            st.tuples(st.just("search"), nodes, items),
            st.tuples(
                st.just("flip"),
                st.sampled_from(["b0", "z0n0"]),
                st.booleans(),
            ),
        ),
    ),
    max_size=24,
)


def run_market(ops, store):
    """Schedule ``ops`` as (time, action) and run them to quiescence;
    returns everything an outsider could see of the run.  The records
    held after each action are read again at the end, so a stored value
    changed in place later shows."""
    sim = Simulation(check_scenario(generate_tree(1, 1)), seed=11)
    sim.store = store
    store.register_handler("__msg__", sim.board.handler)
    markets = {}
    for node, imsi in SELLERS.items():
        sim.identity.issue_identity(node, imsi)
        markets[node] = Marketplace(sim.local(node), sim.identity)
    seen, listings, held = [], [], []

    def act(kind, *args):
        try:
            if kind == "sell":
                node, item, qty, price = args
                listing, ack = markets[node].sell(SELLERS[node], item, qty, price)
                listings.append(listing.listing_id)
                sim.poke(node)
                seen.append((kind, listing, ack))
            elif kind == "buy":
                node, index = args
                listing_id = listings[index % len(listings)] if listings else "L9-9"
                seen.append((kind, markets[node].buy(SELLERS[node], listing_id)))
            elif kind == "search":
                node, item = args
                seen.append((kind, markets[node].search(SELLERS[node], item)))
            else:
                sim.set_link(*args)
        except GreenLinksError as exc:
            seen.append((kind, type(exc).__name__, str(exc)))
        held.append(dict(store.records))

    sim.engine.on("act", lambda op: act(*op))
    for at, op in ops:
        sim.engine.schedule(at, "act", op=op)
    for link in ("b0", "z0n0"):
        sim.engine.schedule(50.0, "act", op=("flip", link, True))
    sim.engine.run_until(None)
    rows = [r for node in sorted(sim.locals) for r in sim.locals[node].records]
    stored = [
        {slot: (rec.value, rec.version) for slot, rec in records.items()}
        for records in held + [store.records]
    ]
    return seen, stored, rows, list(store.handler_runs)


@settings(max_examples=60, deadline=None)
@given(market_ops)
def test_the_store_applies_what_the_wire_round_trip_would(ops):
    shipped = run_market(ops, CloudStore())
    reference_store = WireRoundTripStore()
    reference = run_market(ops, reference_store)
    assert shipped == reference
    # Every write's bytes column is the length of its value's encoding.
    _, _, rows, _ = reference
    for row in rows:
        if row.klass == "fastsearch":
            continue
        sent = reference_store.sent[row.request_id]
        assert row.size == len(encode_sorted(sent).encode())

"""The SMS marketplace, an edge application riding the sync primitives,
and the scripted workload that drives it.

Each user action maps onto exactly one primitive, so its tolerance to
backhaul loss is the primitive's:

* marketplace SELL  -> slowput   (works offline, receipt arrives later)
* marketplace BUY   -> fastget   (needs the backhaul; fails honestly)
* marketplace SEARCH-> fastsearch

The SMS grammar is the whole UI: ``SELL <item> <qty> <price>``,
``BUY <listing id>``, ``SEARCH <item>``.  Search results are folded into
140-byte SMS chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    GreenLinksError,
    InvalidListing,
    ListingNotFound,
    ScenarioError,
    SoldOut,
    UnknownIdentity,
)
from .sync import LocalServer

SMS_LIMIT = 140
# A workload SELL offers a quantity drawn from this range.
QTY_RANGE = range(1, 50)


# ------------------------------------------------------------- sms grammar


def parse_command(text: str) -> dict:
    """Parse one marketplace SMS.  Raises ScenarioError on bad grammar."""
    parts = text.strip().split()
    if not parts:
        raise ScenarioError("empty command")
    op = parts[0].upper()
    if op == "SELL":
        if len(parts) != 4:
            raise ScenarioError("usage: SELL <item> <qty> <price>")
        item, qty, price = parts[1], parts[2], parts[3]
        try:
            qty = int(qty)
            price = float(price)
        except ValueError:
            raise ScenarioError("SELL qty must be an integer and price a number")
        return {"op": "sell", "item": item, "qty": qty, "price": price}
    if op == "BUY":
        if len(parts) != 2:
            raise ScenarioError("usage: BUY <listing_id>")
        return {"op": "buy", "listing_id": parts[1]}
    if op == "SEARCH":
        if len(parts) != 2:
            raise ScenarioError("usage: SEARCH <item>")
        return {"op": "search", "item": parts[1]}
    raise ScenarioError(f"unknown command {parts[0]!r}")


def chunk_sms(text: str) -> list[str]:
    """Split result text into SMS-sized chunks on line boundaries where
    possible, hard-wrapping lines longer than one SMS."""
    chunks: list[str] = []
    current = ""
    for line in text.splitlines():
        while len(line) > SMS_LIMIT:
            if current:
                chunks.append(current)
                current = ""
            chunks.append(line[:SMS_LIMIT])
            line = line[SMS_LIMIT:]
        candidate = line if not current else current + "\n" + line
        if len(candidate) <= SMS_LIMIT:
            current = candidate
        else:
            chunks.append(current)
            current = line
    if current:
        chunks.append(current)
    return chunks


# ------------------------------------------------------------ marketplace


@dataclass(frozen=True)
class Listing:
    listing_id: str
    item: str
    qty: int
    price: float
    seller_number: str


def market_handler(store, app_type, key, body, request_id, at):
    """Cloud-side marketplace logic; a buy reads the listing and writes
    its sold copy in one apply, so no other write interleaves."""
    op = body["op"]
    if op == "sell":
        return store._upsert(app_type, key, body, request_id, at)
    if op == "buy":
        listing_id = body["listing_id"]
        rec = store.get(app_type, listing_id)
        if rec is None:
            raise ListingNotFound(f"no listing {listing_id!r}")
        listing = rec.value
        if listing["qty"] <= 0:
            raise SoldOut(f"listing {listing_id!r} is sold out")
        sold = {**listing, "qty": 0, "sold_to": body["buyer"], "sold_at": at}
        store._upsert(app_type, listing_id, sold, request_id, at)
        return {
            "ok": True,
            "listing_id": listing_id,
            "item": listing["item"],
            "qty": listing["qty"],
            "price": listing["price"],
            "seller": listing["seller"],
            "seller_number": listing["seller_number"],
        }
    raise ScenarioError(f"unknown market op {op!r}")


class Marketplace:
    """Node-local face of the SMS marketplace."""

    def __init__(self, local: LocalServer, identity_service):
        self.local = local
        self.identity = identity_service
        self._seq = 0
        local.store.handlers.setdefault("market", market_handler)

    def _registered(self, imsi: str):
        entry = self.identity.caches[self.local.node_id].get(imsi)
        if entry is None:
            raise UnknownIdentity(
                f"imsi {imsi} is not registered on node {self.local.node_id}"
            )
        return entry

    def sell(self, seller: str, item: str, qty: int, price: float):
        """Queue a listing; the ack is immediate, the receipt lazy."""
        if item.split() != [item]:
            raise InvalidListing(f"item must be a single token, got {item!r}")
        if qty <= 0:
            raise InvalidListing("quantity must be positive")
        if not 0 < price < math.inf:  # nan fails both
            raise InvalidListing(f"price must be a finite number above 0, got {price}")
        entry = self._registered(seller)
        self._seq += 1
        listing_id = f"L{self.local.node_id}-{self._seq}"
        listing = Listing(
            listing_id=listing_id,
            item=item,
            qty=qty,
            price=price,
            seller_number=entry.identity.number,
        )
        body = {
            "op": "sell",
            "listing_id": listing_id,
            "item": item,
            "qty": qty,
            "price": price,
            "seller": seller,
            "seller_number": entry.identity.number,
        }
        ack = self.local.slowput("market", body, key=listing_id)
        return listing, ack

    def buy(self, buyer: str, listing_id: str):
        """Whole-listing purchase over fastget; the response carries the
        seller's contact so the deal closes over voice or SMS."""
        self._registered(buyer)
        body = {"op": "buy", "listing_id": listing_id, "buyer": buyer}
        response = self.local.fastget("market", listing_id, body)
        return response.value, response.at

    def search(self, imsi: str, item: str):
        """Live catalog query; results fold into SMS chunks."""
        self._registered(imsi)

        def match(key, rec):
            return rec.value["item"] == item and rec.value["qty"] > 0

        response = self.local.fastsearch("market", match)
        listings = []
        for key, rec in response.value:
            body = rec.value
            listings.append(
                Listing(
                    listing_id=body["listing_id"],
                    item=body["item"],
                    qty=body["qty"],
                    price=body["price"],
                    seller_number=body["seller_number"],
                )
            )
        lines = [
            f"{l.listing_id} {l.item} {l.qty}@{l.price:g} {l.seller_number}"
            for l in listings
        ]
        chunks = chunk_sms("\n".join(lines)) if lines else []
        return listings, chunks, response.at


# --------------------------------------------------------------- workload


def choose(getrandbits, pool):
    """``random.Random.choice(pool)`` for the generator whose getrandbits
    is given: CPython's own draw (``_randbelow_with_getrandbits``) without
    its two method calls, so the same element and the same generator
    state.  ``pool`` must be non-empty.  On ``range(a, b)`` it draws what
    ``randrange(a, b)`` draws.  The simulator's traffic draws use it too."""
    n = len(pool)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return pool[r]


class Workload:
    """Scripted marketplace load for latency experiments.

    Reads the scenario's loaded ``workload`` section.  Registers sellers
    and buyers on its community node (``node``, checked at load), then
    schedules periodic SELLs (slowput, sms-class), BUYs (fastget) and
    optional file-class slowputs that share the same lazy queue.  Each
    seller's SELLs and each buyer's BUYs are one Engine.every stream, so
    the engine holds one pending event per seller and buyer; the file
    events, at ``k * file_period_s``, are scheduled up front.  A file is
    ``file_bytes`` of filler whose content is not modelled: every file
    slowput passes the one immutable body built here, so the queue and
    the store hold it once, and files differ by request id and key
    (``file-<k>``).
    """

    def __init__(self, sim):
        self.sim = sim
        self.cfg = sim.scenario["workload"]
        self.node = self.cfg["node"]
        self.local = sim.local(self.node)
        self.market = Marketplace(self.local, sim.identity)
        self.sellers = []
        self.buyers = []
        self.listings: list[str] = []
        self.buy_errors = 0
        self._file_body = (
            b"\xa5" * self.cfg["file_bytes"] if self.cfg["file_count"] else b""
        )
        engine = sim.engine
        engine.on("wl_sell", self._on_sell)
        engine.on("wl_buy", self._on_buy)
        engine.on("wl_file", self._on_file)

    def schedule(self, horizon: float | None = None) -> None:
        """Queue SELLs and BUYs before until_s, and all events before horizon."""
        cfg = self.cfg
        for i in range(cfg["sellers"]):
            imsi = f"23320000000{i:04d}"
            self.sim.identity.issue_identity(self.node, imsi)
            self.sellers.append(imsi)
        for i in range(cfg["buyers"]):
            imsi = f"23321000000{i:04d}"
            self.sim.identity.issue_identity(self.node, imsi)
            self.buyers.append(imsi)
        engine = self.sim.engine
        until = cfg["until_s"] if horizon is None else min(cfg["until_s"], horizon)
        for i, seller in enumerate(self.sellers):
            first = cfg["sell_period_s"] * i / len(self.sellers)
            engine.every(first, cfg["sell_period_s"], until, "wl_sell", seller=seller)
        for i, buyer in enumerate(self.buyers):
            first = cfg["buy_period_s"] * (0.5 + i) / len(self.buyers)
            engine.every(first, cfg["buy_period_s"], until, "wl_buy", buyer=buyer)
        for k in range(cfg["file_count"]):
            if horizon is None or k * cfg["file_period_s"] < horizon:
                engine.schedule(k * cfg["file_period_s"], "wl_file", index=k)

    # ------------------------------------------------------------ events

    def _on_sell(self, seller: str) -> None:
        rng = self.sim.engine.rng
        item = choose(rng.getrandbits, self.cfg["items"])
        qty = choose(rng.getrandbits, QTY_RANGE)
        price = round(rng.uniform(0.5, 20.0), 2)
        listing, _ack = self.market.sell(seller, item, qty, price)
        self.listings.append(listing.listing_id)

    def _on_buy(self, buyer: str) -> None:
        rng = self.sim.engine.rng
        if not self.listings:
            return
        listing_id = choose(rng.getrandbits, self.listings)
        try:
            self.market.buy(buyer, listing_id)
        except GreenLinksError:
            self.buy_errors += 1

    def _on_file(self, index: int) -> None:
        self.local.slowput("file", self._file_body, key=f"file-{index}")

"""Identity layer tests: hashing, the resolver ring, registry and service."""

import bisect
import random

import pytest

import greenlinks.identity as identity_mod
from greenlinks.errors import (
    BackhaulDown,
    DuplicateName,
    EmptyRing,
    ExternalAllocFailed,
    UnknownIdentity,
)
from greenlinks.identity import (
    EGRESS_POOL,
    CloudRegistry,
    EgressAllocator,
    IdentityService,
    ResolverRing,
    hash32,
    resolver_for,
)
from greenlinks.scenario import generate_tree
from greenlinks.topology import Topology, build_topology


# ------------------------------------------------------------------- hash


def test_hash32_is_deterministic_and_seed_sensitive():
    assert hash32("hello") == hash32("hello")
    assert hash32("hello") == hash32(b"hello")
    assert hash32("hello") != hash32("hellp")
    assert hash32("hello", seed=1) != hash32("hello", seed=2)
    assert 0 <= hash32("x") <= 0xFFFFFFFF


def test_hash32_spreads_sequential_keys():
    n, buckets = 20000, [0] * 64
    for i in range(n):
        buckets[hash32(str(i)) >> 26] += 1
    exp = n / 64
    chi2 = sum((b - exp) ** 2 / exp for b in buckets)
    # 63 degrees of freedom; anything structured lands in the thousands.
    assert chi2 < 120


# ---------------------------------------------------------------- resolver


# Independent oracle: the owner of hx is the member whose hash is the
# rightmost one <= hx on the sorted ring, wrapping to the overall largest.
# Equal hashes resolve to the smaller member id.
def ring_oracle(members, seed, key):
    hx = hash32(key, seed)
    pairs = sorted((hash32(str(m), seed), m) for m in members)
    hashes = [h for h, _ in pairs]
    i = bisect.bisect_right(hashes, hx) - 1
    target = hashes[i] if i >= 0 else hashes[-1]
    return min(m for h, m in pairs if h == target)


def test_resolver_matches_predecessor_oracle():
    rng = random.Random(11)
    sizes = [rng.randrange(1, 17) for _ in range(2000)] + [100] * 20 + [1000] * 5
    for size in sizes:
        members = tuple(rng.sample(range(2000), size))
        seed = rng.randrange(2**16)
        ring = ResolverRing(members=members, seed=seed)
        for _ in range(3):  # later lookups reuse the ring's sorted points
            key = f"{rng.randrange(10 ** 15):015d}"
            key_hash = hash32(key, ring.seed)
            assert resolver_for(ring, key_hash) == ring_oracle(members, seed, key)


def test_resolver_tie_breaks_to_smaller_member(monkeypatch):
    # Natural 32-bit collisions are too rare to find cheaply; pin the
    # member hashes instead so both sit at the same ring position.
    fake = {"7": 100, "3": 100, "9": 50}

    def pinned(value, seed=0):
        return fake.get(value, hash32(value, seed))

    monkeypatch.setattr(identity_mod, "hash32", pinned)
    ring = ResolverRing(members=(9, 7, 3))
    assert resolver_for(ring, 100) == 3  # distance 0 to members 7 and 3
    assert resolver_for(ring, 30) == 3  # below everyone: wraps to the tied pair at 100


def test_resolver_edge_cases():
    with pytest.raises(EmptyRing):
        resolver_for(ResolverRing(members=()), hash32("x"))
    only = ResolverRing(members=(42,))
    assert resolver_for(only, hash32("anything")) == 42
    assert resolver_for(only, 0) == resolver_for(only, 0xFFFFFFFF) == 42


def test_resolver_load_is_roughly_balanced():
    ring = ResolverRing(members=tuple(range(10)))
    counts = [0] * 10
    for i in range(20000):
        counts[resolver_for(ring, hash32(f"{i:015d}", ring.seed))] += 1
    assert min(counts) > 400  # a broken ring starves members entirely


# ---------------------------------------------------------------- registry


def fresh_registry():
    return CloudRegistry({"z0": "10.0", "z1": "10.1"}, EgressAllocator())


def test_issue_assigns_numbers_addresses_and_external():
    reg = fresh_registry()
    ident, addr, created = reg.issue("111", "local", "z0", 5, chosen_name="ama")
    assert created and ident.number == "5000001"
    assert addr.local_addr == "10.0.5.1" and addr.zone == "z0"
    g, gaddr, _ = reg.issue("222", "global", "z1", 7)
    assert g.external_number == "+15552000000"
    assert gaddr.local_addr == "10.1.7.1"
    # same node gets a fresh host suffix
    _, addr2, _ = reg.issue("333", "local", "z0", 5)
    assert addr2.local_addr == "10.0.5.2"


def test_issue_rehomes_existing_imsi_without_new_identity():
    reg = fresh_registry()
    ident, addr, created = reg.issue("111", "local", "z0", 5)
    again, addr2, created2 = reg.issue("111", "local", "z1", 7)
    assert not created2 and again is ident
    assert addr2.node == 7 and addr2.zone == "z1"
    assert reg.bindings["111"] is addr2


def test_duplicate_name_and_pool_exhaustion():
    reg = fresh_registry()
    reg.issue("111", "local", "z0", 5, chosen_name="ama")
    with pytest.raises(DuplicateName):
        reg.issue("222", "local", "z0", 5, chosen_name="ama")
    for i in range(EGRESS_POOL):
        reg.issue(f"{300 + i}", "global", "z0", 5)
    with pytest.raises(ExternalAllocFailed):
        reg.issue("999", "global", "z0", 5)


def test_find_answers_to_every_name():
    reg = fresh_registry()
    ident, addr, _ = reg.issue("12345", "global", "z0", 5, chosen_name="kofi")
    for name in (ident.imsi, ident.number, "kofi", ident.external_number):
        found = reg.find(name)
        assert found is not None and found[0] is ident
    assert reg.find("nobody") is None


# ----------------------------------------------------------------- service


def service_on(cfg):
    topo = Topology(build_topology(cfg))
    return IdentityService(topo), topo


def test_issue_validates_inputs():
    svc, _ = service_on(generate_tree(1, 1))
    with pytest.raises(UnknownIdentity):
        svc.issue_identity(1, "not-digits")
    with pytest.raises(UnknownIdentity):
        svc.issue_identity(1, "123", kind="imaginary")
    with pytest.raises(DuplicateName):
        svc.issue_identity(1, "123", chosen_name="two words")


def test_deferred_issuance_queues_and_replays():
    svc, topo = service_on(generate_tree(1, 0))
    topo.set_link_state("b0", False)
    with pytest.raises(BackhaulDown):
        svc.issue_identity(1, "1234", chosen_name="ama")
    assert len(svc.pending) == 1
    assert svc.flush_pending() == 0  # still down
    topo.set_link_state("b0", True)
    assert svc.flush_pending() == 1
    assert svc.pending == []
    replayed = svc.caches[1].get("ama")
    assert replayed is not None and replayed.identity.imsi == "1234"
    # replayed issuance is indistinguishable from an always-up one
    control, _ = service_on(generate_tree(1, 0))
    control.issue_identity(1, "1234", chosen_name="ama")
    assert control.registry.identities == svc.registry.identities
    assert control.registry.bindings == svc.registry.bindings
    # and the number and address sequences carry on alike
    assert control.issue_identity(1, "5678") == svc.issue_identity(1, "5678")
    assert control.registry.bindings["5678"] == svc.registry.bindings["5678"]


def test_migration_costs_and_stale_cache_sync():
    svc, topo = service_on(generate_tree(2, 1))  # z0={1,2}, z1={3,4}
    svc.issue_identity(2, "1111")
    msgs = svc.counters["cloud_messages"]

    # issuing a known imsi at another node re-homes it: one directory
    # update each, within the zone and across zones alike
    svc.issue_identity(1, "1111")
    svc.issue_identity(3, "1111")
    assert svc.counters["cloud_messages"] == msgs + 2
    assert svc.registry.bindings["1111"].zone == "z1"

    # node 2 still holds the original binding until it syncs
    stale = svc.caches[2].get("1111")
    assert stale is not None and stale.address.node == 2
    assert svc.sync_node(2) >= 1
    assert svc.caches[2].get("1111") is None
    # invalidation is lazy: mate 1 keeps its own stale binding until
    # it syncs too, then only the directory answers, with the new home
    mate = svc.caches[1].get("1111")
    assert mate is not None and mate.address.node == 1
    svc.sync_node(1)
    assert svc.caches[1].get("1111") is None
    _, home = svc.registry.find("1111")
    assert home.node == 3


def test_sync_is_free_while_down_and_idempotent():
    svc, topo = service_on(generate_tree(1, 0))
    svc.issue_identity(1, "1111")
    msgs = svc.counters["cloud_messages"]
    topo.set_link_state("b0", False)
    assert svc.sync_node(1) == 0
    topo.set_link_state("b0", True)
    assert svc.sync_node(1) == 0  # nothing stale: no message spent
    assert svc.counters["cloud_messages"] == msgs


def test_random_ops_keep_identity_invariants():
    svc, topo = service_on(generate_tree(2, 2))
    rng = random.Random(3)
    community = sorted(svc.caches)
    imsis = []
    for step in range(300):
        roll = rng.random()
        if roll < 0.5 or not imsis:
            imsi = f"233{step:012d}"
            name = f"user{step}" if rng.random() < 0.5 else None
            svc.issue_identity(community[rng.randrange(len(community))], imsi,
                               chosen_name=name)
            imsis.append(imsi)
        elif roll < 0.8:
            imsi = rng.choice(imsis)
            svc.issue_identity(rng.choice(community), imsi)
        else:
            svc.sync_node(rng.choice(community))

    reg = svc.registry
    numbers = [i.number for i in reg.identities.values()]
    assert len(set(numbers)) == len(numbers)
    names = [i.chosen_name for i in reg.identities.values() if i.chosen_name]
    assert len(set(names)) == len(names)
    addrs = [b.local_addr for b in reg.bindings.values()]
    assert len(set(addrs)) == len(addrs)
    for imsi, binding in reg.bindings.items():
        node = topo.graph.nodes[binding.node]
        assert node.zone == binding.zone
        assert binding.local_addr.startswith(topo.graph.zones[binding.zone].prefix + ".")
    # every active cache entry mirrors a registry identity
    for nid in community:
        for entry in svc.caches[nid].entries():
            assert reg.identities[entry.identity.imsi] == entry.identity

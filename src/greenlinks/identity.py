"""Identity management: issuance, resolution, caching and re-homing.

The cloud registry is the single authority for user identities.  Every
community node keeps a local cache of the identities issued there.

Invalidation is lazy: issuing a known IMSI at another node re-homes it,
which updates the cloud binding immediately, and stale cache entries are
dropped the next time their node syncs.

A resolver ring distributes directory load across several cloud servers:
an identity x is served by the member m minimizing (H(x) - H(m)) mod 2^32,
with ties broken by the smaller member id.  The hash is seedable and
non-cryptographic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BackhaulDown,
    DuplicateName,
    EmptyRing,
    ExternalAllocFailed,
    UnknownIdentity,
)
from .topology import Topology

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_MASK = 0xFFFFFFFF


def hash32(value: str | bytes, seed: int = 0) -> int:
    """Seedable 32-bit FNV-1a with an avalanche finisher."""
    data = value.encode() if isinstance(value, str) else value
    h = (_FNV_OFFSET ^ (seed & _MASK)) & _MASK
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    # Final mix spreads sequential inputs across the whole range.
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK
    h ^= h >> 16
    return h


@dataclass(frozen=True)
class UserIdentity:
    imsi: str
    kind: str  # "local" or "global"
    number: str
    chosen_name: str | None = None
    external_number: str | None = None

    def names(self) -> list[str]:
        out = [self.imsi, self.number]
        if self.chosen_name:
            out.append(self.chosen_name)
        if self.external_number:
            out.append(self.external_number)
        return out


@dataclass
class NetworkAddress:
    zone: str
    node: int
    local_addr: str


@dataclass
class CacheEntry:
    identity: UserIdentity
    address: NetworkAddress


class IdentityCache:
    """Per-node identity cache, indexed by every name an identity answers to."""

    def __init__(self):
        self._by_imsi: dict[str, CacheEntry] = {}
        self._names: dict[str, str] = {}

    def put(self, entry: CacheEntry) -> None:
        self._by_imsi[entry.identity.imsi] = entry
        for name in entry.identity.names():
            self._names[name] = entry.identity.imsi

    def get(self, name: str) -> CacheEntry | None:
        imsi = self._names.get(name)
        return self._by_imsi.get(imsi) if imsi else None

    def drop(self, imsi: str) -> None:
        entry = self._by_imsi.pop(imsi, None)
        if entry:
            for name in entry.identity.names():
                self._names.pop(name, None)

    def entries(self) -> list[CacheEntry]:
        return list(self._by_imsi.values())


@dataclass(frozen=True)
class ResolverRing:
    members: tuple[int, ...]
    seed: int = 0

    @cached_property
    def points(self) -> tuple[list[int], list[int]]:
        """Sorted distinct member hashes and, for each, the smallest
        member at that hash."""
        hashes, owners = [], []
        for h, member in sorted((hash32(str(m), self.seed), m) for m in self.members):
            if not hashes or hashes[-1] != h:
                hashes.append(h)
                owners.append(member)
        return hashes, owners


def resolver_for(ring: ResolverRing, key_hash: int) -> int:
    """Ring member responsible for the key whose hash32 with the ring's
    seed is ``key_hash``; see the module docstring."""
    if not ring.members:
        raise EmptyRing("resolver ring has no members")
    hashes, owners = ring.points
    # The nearest point at or below the key; index -1 wraps to the
    # largest point when the key lies below every point.
    return owners[bisect_right(hashes, key_hash) - 1]


# External numbers the egress gateway can hand out.
EGRESS_POOL = 32


class EgressAllocator:
    """Pool of EGRESS_POOL external numbers handed to global identities."""

    def __init__(self):
        self._free = [f"+1555{2000000 + i:07d}" for i in range(EGRESS_POOL)]

    def allocate(self) -> str:
        if not self._free:
            raise ExternalAllocFailed("external number pool exhausted")
        return self._free.pop(0)


class CloudRegistry:
    """Authoritative identity directory living on the cloud controller."""

    def __init__(self, zones_prefix: dict[str, str], egress: EgressAllocator):
        self._prefixes = dict(zones_prefix)
        self._egress = egress
        self.identities: dict[str, UserIdentity] = {}
        self.bindings: dict[str, NetworkAddress] = {}
        self._names: dict[str, str] = {}
        self._next_number = 1
        self._addr_seq: dict[int, int] = {}

    def _address(self, zone: str, node: int) -> NetworkAddress:
        seq = self._addr_seq.get(node, 0) + 1
        self._addr_seq[node] = seq
        prefix = self._prefixes[zone]
        return NetworkAddress(zone=zone, node=node, local_addr=f"{prefix}.{node}.{seq}")

    def issue(
        self,
        imsi: str,
        kind: str,
        zone: str,
        node: int,
        chosen_name: str | None = None,
    ) -> tuple[UserIdentity, NetworkAddress, bool]:
        """Issue (or re-home) an identity.  Returns (identity, address, created)."""
        existing = self.identities.get(imsi)
        if existing is not None:
            binding = self.bindings[imsi]
            if binding.node != node:
                self.bindings[imsi] = self._address(zone, node)
            return existing, self.bindings[imsi], False
        if chosen_name is not None:
            owner = self._names.get(chosen_name)
            if owner is not None and owner != imsi:
                raise DuplicateName(f"name {chosen_name!r} is already registered")
        external = None
        if kind == "global":
            external = self._egress.allocate()
        number = f"{5000000 + self._next_number}"
        self._next_number += 1
        identity = UserIdentity(
            imsi=imsi,
            kind=kind,
            number=number,
            chosen_name=chosen_name,
            external_number=external,
        )
        self.identities[imsi] = identity
        for name in identity.names():
            self._names[name] = imsi
        self.bindings[imsi] = self._address(zone, node)
        return identity, self.bindings[imsi], True

    def find(self, name: str) -> tuple[UserIdentity, NetworkAddress] | None:
        imsi = self._names.get(name)
        if imsi is None:
            return None
        return self.identities[imsi], self.bindings[imsi]


@dataclass
class _Pending:
    node: int
    imsi: str
    kind: str
    chosen_name: str | None


class IdentityService:
    """Node-facing identity operations wired to a topology.

    ``counters`` tracks cloud-bound message counts so tests can assert
    which operations stay local.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        graph = topology.graph
        prefixes = {z.zone_id: z.prefix for z in graph.zones.values()}
        self.registry = CloudRegistry(prefixes, EgressAllocator())
        self.counters = {"cloud_messages": 0}
        self.pending: list[_Pending] = []
        self.caches = {nid: IdentityCache() for nid in graph.community}

    # ---------------------------------------------------------- issuance

    def issue_identity(
        self,
        node_id: int,
        imsi: str,
        kind: str = "local",
        chosen_name: str | None = None,
    ) -> UserIdentity:
        """Register imsi at node_id, or re-home it there if it is already
        registered at another node.  While the backhaul is down the request
        is queued and BackhaulDown raised; flush_pending completes it later."""
        if not imsi or not imsi.isdigit():
            raise UnknownIdentity(f"imsi must be a digit string, got {imsi!r}")
        if chosen_name is not None and (not chosen_name or " " in chosen_name):
            raise DuplicateName(f"invalid chosen name {chosen_name!r}")
        if kind not in ("local", "global"):
            raise UnknownIdentity(f"unknown identity kind {kind!r}")
        if self.topology.cloud_route(node_id) is None:
            self.pending.append(_Pending(node_id, imsi, kind, chosen_name))
            raise BackhaulDown(
                f"cloud unreachable from node {node_id}; issuance queued"
            )
        return self._issue_now(node_id, imsi, kind, chosen_name)

    def _issue_now(self, node_id, imsi, kind, chosen_name) -> UserIdentity:
        zone = self.topology.graph.nodes[node_id].zone
        identity, address, _created = self.registry.issue(
            imsi, kind, zone, node_id, chosen_name
        )
        self.counters["cloud_messages"] += 1
        self.caches[node_id].put(CacheEntry(identity=identity, address=address))
        return identity

    def flush_pending(self) -> int:
        """Complete queued issuance requests whose backhaul came back."""
        done = 0
        remaining = []
        for req in self.pending:
            if self.topology.cloud_route(req.node) is not None:
                self._issue_now(req.node, req.imsi, req.kind, req.chosen_name)
                done += 1
            else:
                remaining.append(req)
        self.pending = remaining
        return done

    # -------------------------------------------------------------- sync

    def sync_node(self, node_id: int) -> int:
        """Piggybacked cache refresh: drop entries whose binding moved.

        Returns the number of entries dropped.  Costs one cloud message
        when the backhaul is up and there was anything to reconcile.
        Queued issuance is not completed here; flush_pending does that.
        """
        if self.topology.cloud_route(node_id) is None:
            return 0
        cache = self.caches[node_id]
        dropped = 0
        for entry in cache.entries():
            current = self.registry.bindings.get(entry.identity.imsi)
            if current is None or current.local_addr != entry.address.local_addr:
                cache.drop(entry.identity.imsi)
                dropped += 1
        if dropped:
            self.counters["cloud_messages"] += 1
        return dropped

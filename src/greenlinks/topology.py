"""Network world model: the graph a scenario describes, and one run's
link state over it.

build_topology checks a scenario's world graph once per load and builds
a Graph, immutable and shared by every run: nodes, zones, links with
their initial state, adjacency, draw pools, and component labelling over
a link-state map the caller gives.  A Topology is one run's view of it:
the link-up map that failure injection toggles through set_link_state,
a live component label per node (labelled once, then relabelled on each
real link transition, so a run scores its attempts as they happen), and
each node's route to the cloud, cached until the next real link
transition.

Levels follow the deployment shape: one cloud controller, level-2 community
nodes with their own backhaul, and level-3 pico nodes that hang off a
level-2 parent.  Zones group the nodes that one operator runs; each zone
has a private address prefix.  Two links between the same pair of nodes
are a redundant backhaul: path search and component labelling use
whichever of them is up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DanglingLinkEndpoint,
    DuplicateNodeId,
    OverlappingPrefix,
    ScenarioError,
    UnknownLink,
)
from .scenario import world


class Role(str, Enum):
    CLOUD = "cloud"
    LEVEL2 = "level2"
    LEVEL3 = "level3"


# (bandwidth kbps, one-way latency ms) for the profiles used in experiments.
LINK_PROFILES = {
    "edge": (200.0, 300.0),
    "hsdpa": (2000.0, 100.0),
    "ethernet": (100000.0, 5.0),
}

# Decimal convention: 1 kbps = 125 bytes/second, 1 MB = 1_000_000 bytes.
BYTES_PER_KBPS = 125.0


@dataclass(frozen=True)
class Node:
    node_id: int
    role: Role
    zone: str | None


@dataclass(frozen=True)
class Zone:
    zone_id: str
    node_ids: tuple[int, ...]
    prefix: str


@dataclass(frozen=True)
class Link:
    link_id: str
    a: int
    b: int
    bandwidth_kbps: float
    latency_ms: float
    up: bool  # when a run starts


@dataclass(frozen=True)
class Graph:
    """A checked world graph, shared by every run of its scenario.

    ``community`` is the sorted non-cloud node ids and ``nbrs`` the
    (link id, far end) pairs of each node, in link order.  The draw
    pools: ``role_pool`` holds the sorted node ids of each role,
    ``failure_pool`` the links in id order that touch the cloud (True)
    or do not (False), and ``dest_pools`` each source's zone mates, in
    Zone.node_ids order, and the community nodes outside its zone.
    """

    nodes: dict[int, Node]
    zones: dict[str, Zone]
    links: dict[str, Link]
    cloud_id: int
    community: tuple[int, ...]
    nbrs: dict[int, list[tuple[str, int]]]
    role_pool: dict[Role, tuple[int, ...]]
    failure_pool: dict[bool, tuple[Link, ...]]
    dest_pools: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]

    def components(self, up: dict[str, bool]) -> dict[int, int]:
        """Connected-component label per node over ``up``, which maps every
        link id to whether it is up (a Topology passes its initial
        state).  Components are numbered in the order ``self.nodes``
        first reaches them; callers only compare labels for equality.
        """
        nbrs = self.nbrs
        label: dict[int, int] = {}
        mark = 0
        for start in self.nodes:
            if start in label:
                continue
            label[start] = mark
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for lid, nxt in nbrs[node]:
                    if up[lid] and nxt not in label:
                        label[nxt] = mark
                        frontier.append(nxt)
            mark += 1
        return label

    def relabel(
        self, label: dict[int, int], up: dict[str, bool], link_id: str, fresh: int
    ) -> None:
        """Flip ``up[link_id]`` and bring ``label``, a components()
        labelling of ``up``, up to date in place.

        A flip can only change the side of the link it cuts off or joins.
        Searches from both ends run in lockstep over the other live links
        and stop when one runs out (Even & Shiloach, JACM 1981), so the
        work is bounded by the smaller side.  The side that runs out takes
        ``fresh``, a label not in use, on a down flip and the other end's
        label on an up flip.  Searches that meet, and an up flip inside
        one component, change nothing.
        """
        link = self.links[link_id]
        now_up = not up[link_id]
        found = None
        if not (now_up and label[link.a] == label[link.b]):
            up[link_id] = False  # search as if the link were down
            found = self._lone_side(up, link.a, link.b)
        up[link_id] = now_up
        if found is not None:
            nodes, far = found
            new = label[far] if now_up else fresh
            for node in nodes:
                label[node] = new

    def _lone_side(
        self, up: dict[str, bool], a: int, b: int
    ) -> tuple[set[int], int] | None:
        """The nodes reachable over ``up`` from whichever of a and b runs
        out first in a lockstep search, with the other end; None when the
        two searches meet."""
        nbrs = self.nbrs
        seen = ({a}, {b})
        todo = ([a], [b])
        while True:
            for side in (0, 1):
                stack = todo[side]
                if not stack:
                    return seen[side], (b, a)[side]
                mine, theirs = seen[side], seen[1 - side]
                for lid, nxt in nbrs[stack.pop()]:
                    if up[lid] and nxt not in mine:
                        if nxt in theirs:
                            return None
                        mine.add(nxt)
                        stack.append(nxt)


class Topology:
    """One run's link state over a shared Graph, with reachability and
    path-metric queries.

    ``labels`` maps each node to its connected component over the live
    links; two nodes are connected exactly when their labels are equal.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.up = {lid: link.up for lid, link in graph.links.items()}
        self.labels = graph.components(self.up)
        self._fresh = len(self.labels)  # components() labels are below this
        # Node id -> cloud_route result, cleared on every link transition.
        self._cloud_routes: dict[int, tuple[float, float] | None] = {}

    # ------------------------------------------------------------ queries

    def link_up(self, link_id: str) -> bool:
        """Whether the link is up now; UnknownLink for an id not in the
        graph."""
        try:
            return self.up[link_id]
        except KeyError:
            raise UnknownLink(f"no link with id {link_id!r}") from None

    def set_link_state(self, link_id: str, up: bool) -> None:
        if self.link_up(link_id) != up:
            self.graph.relabel(self.labels, self.up, link_id, self._fresh)
            self._fresh += 1
            self._cloud_routes.clear()

    def path(self, a: int, b: int) -> list[Link] | None:
        """Shortest-hop path over live links, or None."""
        if a == b:
            return []
        graph = self.graph
        links, up = graph.links, self.up
        seen = {a}
        frontier: deque[tuple[int, list[Link]]] = deque([(a, [])])
        while frontier:
            node, trail = frontier.popleft()
            for lid, nxt in graph.nbrs[node]:
                if not up[lid] or nxt in seen:
                    continue
                hop = trail + [links[lid]]
                if nxt == b:
                    return hop
                seen.add(nxt)
                frontier.append((nxt, hop))
        return None

    def path_metrics(self, path: list[Link]) -> tuple[float, float]:
        """(bottleneck kbps, total one-way latency seconds) of a path."""
        if not path:
            return (float("inf"), 0.0)
        bw = min(link.bandwidth_kbps for link in path)
        latency = sum(link.latency_ms for link in path) / 1000.0
        return (bw, latency)

    def cloud_route(self, node_id: int) -> tuple[float, float] | None:
        """(bottleneck bytes/s, one-way latency s) of the node's path to
        the cloud, or None when there is no live path; cached until the
        next link transition.  Every reader of a site's uplink reads it
        here: a LocalServer's route() and the identity service."""
        if node_id not in self._cloud_routes:
            path = self.path(node_id, self.graph.cloud_id)
            route = None
            if path is not None:
                kbps, latency = self.path_metrics(path)
                route = (kbps * BYTES_PER_KBPS, latency)
            self._cloud_routes[node_id] = route
        return self._cloud_routes[node_id]


# -------------------------------------------------------------- building


def _prefixes_overlap(p: str, q: str) -> bool:
    pa, qa = p.split("."), q.split(".")
    shorter, longer = (pa, qa) if len(pa) <= len(qa) else (qa, pa)
    return longer[: len(shorter)] == shorter


def build_topology(config: dict) -> Graph:
    """Check a scenario mapping's world graph and build it.

    scenario.world checks each entry on its own and fills its defaults.
    The rules here span entries or name a member of a fixed set: unique
    ids, exactly one cloud node, every non-cloud node in exactly one zone,
    disjoint zone prefixes, link endpoints that exist, level-3 nodes
    attached through some level-2 parent, and known roles, profiles and
    link states.  scenario.check_scenario is the one caller.
    """
    graph = world(config)
    if not graph["nodes"]:
        raise ScenarioError("scenario defines no nodes")

    roles: dict[int, Role] = {}
    for entry in graph["nodes"]:
        nid = entry["id"]
        if nid in roles:
            raise DuplicateNodeId(f"node id {nid} appears twice")
        try:
            roles[nid] = Role(entry["role"])
        except ValueError:
            raise ScenarioError(f"node {nid}: unknown role {entry['role']!r}") from None

    clouds = [nid for nid, role in roles.items() if role is Role.CLOUD]
    if len(clouds) != 1:
        raise ScenarioError(
            f"scenario must define exactly one cloud node, found {len(clouds)}"
        )
    cloud_id = clouds[0]

    zones: dict[str, Zone] = {}
    zone_of: dict[int, str] = {}
    for entry in graph["zones"]:
        zid, members, prefix = entry["id"], entry["nodes"], entry["prefix"]
        if zid in zones:
            raise ScenarioError(f"zone id {zid!r} appears twice")
        for nid in members:
            if nid not in roles:
                raise ScenarioError(f"zone {zid!r} lists unknown node {nid}")
            if nid == cloud_id:
                raise ScenarioError(f"cloud node {nid} cannot belong to a zone")
            if nid in zone_of:
                raise ScenarioError(f"node {nid} belongs to more than one zone")
            zone_of[nid] = zid
        for other in zones.values():
            if _prefixes_overlap(prefix, other.prefix):
                raise OverlappingPrefix(
                    f"zone {zid!r} prefix {prefix} overlaps {other.zone_id!r}"
                )
        zones[zid] = Zone(zone_id=zid, node_ids=tuple(members), prefix=prefix)

    for nid in roles:
        if nid != cloud_id and nid not in zone_of:
            raise ScenarioError(f"node {nid} belongs to no zone")
    nodes = {nid: Node(nid, role, zone_of.get(nid)) for nid, role in roles.items()}

    links: dict[str, Link] = {}
    for i, entry in enumerate(graph["links"]):
        link_id = entry["id"] or f"l{i}"
        if link_id in links:
            raise ScenarioError(f"link id {link_id!r} appears twice")
        a, b, profile = entry["a"], entry["b"], entry["profile"]
        if a not in nodes or b not in nodes:
            raise DanglingLinkEndpoint(f"link {link_id!r} references a missing node")
        if a == b:
            raise ScenarioError(f"link {link_id!r} is a self-loop")
        if profile and profile not in LINK_PROFILES:
            raise ScenarioError(f"link {link_id!r}: unknown profile {profile!r}")
        # Explicit bandwidth and latency override the profile's.
        bw, lat = LINK_PROFILES[profile] if profile else (None, 0.0)
        if entry["bandwidth_kbps"] is not None:
            bw = entry["bandwidth_kbps"]
        if entry["latency_ms"] is not None:
            lat = entry["latency_ms"]
        if bw is None:
            raise ScenarioError(f"link {link_id!r} needs a profile or bandwidth_kbps")
        if entry["state"] not in ("up", "down"):
            raise ScenarioError(f"link {link_id!r}: unknown state {entry['state']!r}")
        links[link_id] = Link(link_id, a, b, bw, lat, entry["state"] == "up")

    nbrs: dict[int, list[tuple[str, int]]] = {nid: [] for nid in nodes}
    for link in links.values():
        nbrs[link.a].append((link.link_id, link.b))
        nbrs[link.b].append((link.link_id, link.a))
    for nid, role in roles.items():
        if role is Role.LEVEL3 and not any(
            roles[far] is Role.LEVEL2 for _, far in nbrs[nid]
        ):
            raise ScenarioError(f"level3 node {nid} has no link to a level2 parent")

    community = tuple(sorted(nid for nid in nodes if nid != cloud_id))
    by_id = [links[lid] for lid in sorted(links)]
    outside = {zid: tuple(n for n in community if zone_of[n] != zid) for zid in zones}
    role_pool = {
        role: tuple(sorted(n.node_id for n in nodes.values() if n.role is role))
        for role in Role
    }
    failure_pool = {
        side: tuple(l for l in by_id if (cloud_id in (l.a, l.b)) == side)
        for side in (True, False)
    }
    dest_pools = {
        src: (tuple(n for n in zone.node_ids if n != src), outside[zid])
        for zid, zone in zones.items()
        for src in zone.node_ids
    }
    return Graph(
        nodes, zones, links, cloud_id, community, nbrs, role_pool, failure_pool, dest_pools
    )

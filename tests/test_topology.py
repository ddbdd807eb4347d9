"""World-graph tests: validation, paths, components and their relabelling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlinks.errors import (
    DanglingLinkEndpoint,
    DuplicateNodeId,
    OverlappingPrefix,
    ScenarioError,
    UnknownLink,
)
from greenlinks.scenario import generate_tree
from greenlinks.topology import BYTES_PER_KBPS, Role, Topology, build_topology


def diamond():
    # cloud 0; zone z0 = {1,2,3}; a redundant triangle inside the zone.
    return {
        "nodes": [
            {"id": 0, "role": "cloud"},
            {"id": 1, "role": "level2"},
            {"id": 2, "role": "level3"},
            {"id": 3, "role": "level3"},
        ],
        "zones": [{"id": "z0", "nodes": [1, 2, 3], "prefix": "10.0"}],
        "links": [
            {"id": "b0", "a": 0, "b": 1, "bandwidth_kbps": 2000, "latency_ms": 100},
            {"id": "za", "a": 1, "b": 2, "bandwidth_kbps": 500, "latency_ms": 10},
            {"id": "zb", "a": 2, "b": 3, "bandwidth_kbps": 400, "latency_ms": 10},
            {"id": "zc", "a": 1, "b": 3, "bandwidth_kbps": 300, "latency_ms": 10},
        ],
    }


def view(cfg):
    """One run's view of cfg's graph, all links in their initial state."""
    return Topology(build_topology(cfg))


# Independent reachability oracle: boolean Floyd-Warshall closure over the
# live links (or over an explicit link-id -> up map), nothing shared with
# the graph search in the implementation.
def closure(topo, up=None):
    up = topo.up if up is None else up
    ids = sorted(topo.graph.nodes)
    idx = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for link in topo.graph.links.values():
        if up[link.link_id]:
            reach[idx[link.a]][idx[link.b]] = True
            reach[idx[link.b]][idx[link.a]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return ids, idx, reach


# ----------------------------------------------------------------- building


def test_build_rejects_duplicate_node_id():
    cfg = diamond()
    cfg["nodes"].append({"id": 1, "role": "level3"})
    with pytest.raises(DuplicateNodeId):
        build_topology(cfg)


def test_build_rejects_overlapping_prefixes():
    cfg = generate_tree(2, 0)
    cfg["zones"][1]["prefix"] = "10.0.1"
    with pytest.raises(OverlappingPrefix):
        build_topology(cfg)


def test_label_prefixes_compare_by_dot_label_not_by_string():
    # "10.1" vs "10.10" share a string prefix but not a label prefix.
    cfg = generate_tree(2, 0)
    cfg["zones"][0]["prefix"] = "10.1"
    cfg["zones"][1]["prefix"] = "10.10"
    build_topology(cfg)  # must not raise


def test_build_rejects_dangling_link():
    cfg = diamond()
    cfg["links"].append({"id": "bad", "a": 1, "b": 42, "bandwidth_kbps": 10})
    with pytest.raises(DanglingLinkEndpoint):
        build_topology(cfg)


def test_build_rejects_two_clouds_and_zoneless_nodes():
    cfg = diamond()
    cfg["nodes"].append({"id": 4, "role": "cloud"})
    with pytest.raises(ScenarioError):
        build_topology(cfg)
    cfg = diamond()
    cfg["nodes"].append({"id": 4, "role": "level2"})  # not in any zone
    with pytest.raises(ScenarioError):
        build_topology(cfg)


def test_build_rejects_orphan_level3():
    cfg = diamond()
    cfg["nodes"].append({"id": 4, "role": "level3"})
    cfg["zones"][0]["nodes"].append(4)
    cfg["links"].append({"id": "x", "a": 3, "b": 4, "bandwidth_kbps": 100})
    with pytest.raises(ScenarioError, match="level2 parent"):
        build_topology(cfg)


def test_build_accepts_level3_parent_link_in_either_direction():
    for a, b in ((1, 4), (4, 1)):
        cfg = diamond()
        cfg["nodes"].append({"id": 4, "role": "level3"})
        cfg["zones"][0]["nodes"].append(4)
        cfg["links"].append({"id": "x", "a": a, "b": b, "bandwidth_kbps": 100})
        build_topology(cfg)  # must not raise


def test_build_rejects_cloud_inside_zone_and_bad_link_params():
    cfg = diamond()
    cfg["zones"][0]["nodes"].append(0)
    with pytest.raises(ScenarioError):
        build_topology(cfg)
    cfg = diamond()
    cfg["links"][0]["bandwidth_kbps"] = 0
    with pytest.raises(ScenarioError):
        build_topology(cfg)


def test_explicit_bandwidth_and_latency_override_the_profile():
    cfg = generate_tree(1, 1, backhaul_profile="edge")
    cfg["links"][0]["bandwidth_kbps"] = 500
    cfg["links"][1]["latency_ms"] = 0
    topo = view(cfg)
    links = topo.graph.links
    assert topo.path_metrics([links["b0"]]) == (500, 0.3)  # edge latency
    assert topo.path_metrics([links["z0n0"]]) == (2000.0, 0.0)  # hsdpa rate
    del cfg["links"][0]["profile"]
    assert build_topology(cfg).links["b0"].latency_ms == 0.0
    del cfg["links"][0]["bandwidth_kbps"]
    with pytest.raises(ScenarioError, match="profile or bandwidth_kbps"):
        build_topology(cfg)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "up", "down", "level2", "edge", "b0", "10.1"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_any_one_topology_edit_builds_or_raises_scenario_error(data, value):
    # One value of generate_tree(2, 2) replaced, or one key added, with
    # arbitrary JSON: the build either succeeds or raises ScenarioError,
    # never anything else.
    cfg = generate_tree(2, 2)
    name = data.draw(st.sampled_from(["nodes", "zones", "links"]))
    entry = data.draw(st.sampled_from(cfg[name]))
    extra = ["extra", "gateway", "profile", "bandwidth_kbps", "latency_ms", "state"]
    entry[data.draw(st.sampled_from(sorted(entry) + extra))] = value
    try:
        build_topology(cfg)
    except ScenarioError:
        pass


@given(
    p=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    q=st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_prefix_disjointness_matches_string_oracle(p, q):
    ps, qs = ".".join(map(str, p)), ".".join(map(str, q))
    overlap = ps == qs or ps.startswith(qs + ".") or qs.startswith(ps + ".")
    cfg = generate_tree(2, 0)
    cfg["zones"][0]["prefix"] = ps
    cfg["zones"][1]["prefix"] = qs
    if overlap:
        with pytest.raises(OverlappingPrefix):
            build_topology(cfg)
    else:
        build_topology(cfg)


# ------------------------------------------------------------------- paths


def test_shortest_hop_path_and_metrics():
    topo = view(diamond())
    path = topo.path(1, 3)
    assert [l.link_id for l in path] == ["zc"]
    assert topo.path_metrics(path) == (300.0, 0.010)
    topo.set_link_state("zc", False)
    path = topo.path(1, 3)
    assert [l.link_id for l in path] == ["za", "zb"]
    bw, lat = topo.path_metrics(path)
    assert bw == 400.0 and lat == pytest.approx(0.020)
    assert topo.path_metrics([]) == (float("inf"), 0.0)


def test_a_link_can_start_down_and_runs_do_not_move_it():
    cfg = generate_tree(1, 1)
    cfg["links"][0]["state"] = "down"
    topo = view(cfg)
    assert topo.up == {"b0": False, "z0n0": True}
    assert topo.cloud_route(1) is None
    topo.set_link_state("b0", True)
    assert topo.cloud_route(2) is not None
    # The shared graph keeps the initial state for the next run.
    assert topo.graph.links["b0"].up is False
    assert Topology(topo.graph).up["b0"] is False


def test_parallel_backhauls_fail_over():
    # Two plain links between the same pair are a redundant backhaul.
    cfg = generate_tree(1, 0, backhaul_profile="edge")
    cfg["links"].append({"id": "b0x", "a": 0, "b": 1, "profile": "hsdpa"})
    topo = view(cfg)
    assert [l.link_id for l in topo.path(1, 0)] == ["b0"]
    topo.set_link_state("b0", False)
    assert [l.link_id for l in topo.path(1, 0)] == ["b0x"]
    comp = topo.graph.components(topo.up)
    assert comp[0] == comp[1]
    topo.set_link_state("b0x", False)
    assert topo.path(1, 0) is None
    comp = topo.graph.components(topo.up)
    assert comp[0] != comp[1]


def test_reachability_matches_closure_oracle_under_random_outages():
    topo = view(generate_tree(3, 2))
    graph = topo.graph
    rng = random.Random(7)
    link_ids = sorted(graph.links)
    for _ in range(60):
        # About half of these leave the link as it was: no-op transitions.
        for lid in link_ids:
            topo.set_link_state(lid, rng.random() < 0.6)
        ids, idx, reach = closure(topo)
        comp = graph.components(topo.up)
        for a in ids:
            for b in ids:
                expect = reach[idx[a]][idx[b]]
                assert (topo.path(a, b) is not None) is expect
                assert (comp[a] == comp[b]) is expect
                assert (topo.labels[a] == topo.labels[b]) is expect
        # Cloud routes, cached since the previous round's transitions,
        # follow path and path_metrics (in bytes/s); a no-op transition
        # keeps them.
        routes = {a: topo.cloud_route(a) for a in ids}
        for a in ids:
            path = topo.path(a, graph.cloud_id)
            if path is None:
                assert routes[a] is None
            else:
                kbps, latency = topo.path_metrics(path)
                assert routes[a] == (kbps * BYTES_PER_KBPS, latency)
            assert (routes[a] is not None) is reach[idx[a]][idx[graph.cloud_id]]
        lid = rng.choice(link_ids)
        topo.set_link_state(lid, topo.up[lid])
        assert all(topo.cloud_route(a) is routes[a] for a in ids)
        # A replayed state that differs from the live one: the labels
        # must follow the map alone.
        up = {lid: rng.random() < 0.6 for lid in link_ids}
        flip = rng.choice(link_ids)
        up[flip] = not topo.up[flip]
        _, _, replayed = closure(topo, up)
        comp = graph.components(up)
        for a in ids:
            for b in ids:
                assert (comp[a] == comp[b]) is replayed[idx[a]][idx[b]]
    with pytest.raises(UnknownLink):
        topo.set_link_state("nope", False)


def blocks(label):
    """The partition a node -> label map describes, label values aside."""
    groups = {}
    for node, mark in label.items():
        groups.setdefault(mark, []).append(node)
    return sorted(sorted(g) for g in groups.values())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_incremental_relabel_matches_a_full_labelling(data):
    cfg = generate_tree(data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3)))
    ids = [n["id"] for n in cfg["nodes"]]
    pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
    # Extra links close cycles, or run parallel to a tree link.
    for i, (a, b) in enumerate(data.draw(st.lists(pairs, max_size=6))):
        cfg["links"].append({"id": f"x{i}", "a": a, "b": b, "profile": "hsdpa"})
    graph = build_topology(cfg)
    link_ids = sorted(graph.links)
    up = {lid: data.draw(st.booleans()) for lid in link_ids}
    label = graph.components(up)
    fresh = len(label)
    for lid in data.draw(st.lists(st.sampled_from(link_ids), max_size=30)):
        was_up = up[lid]
        graph.relabel(label, up, lid, fresh)
        fresh += 1
        assert up[lid] is not was_up
        assert blocks(label) == blocks(graph.components(up))


# ---------------------------------------------------------------- generator


def test_tree_generator_shape():
    cfg = generate_tree(3, 2)
    graph = build_topology(cfg)
    assert len(graph.nodes) == 10
    assert len(graph.links) == 9
    assert len(graph.zones) == 3
    roles = [n.role for n in graph.nodes.values()]
    assert roles.count(Role.CLOUD) == 1
    assert roles.count(Role.LEVEL2) == 3
    assert roles.count(Role.LEVEL3) == 6
    for zone in graph.zones.values():
        # the zone's first node is its level2 node and carries the backhaul
        head = zone.node_ids[0]
        assert graph.nodes[head].role is Role.LEVEL2
        assert graph.links[f"b{zone.zone_id[1:]}"].b == head
    with pytest.raises(ScenarioError):
        generate_tree(0, 1)

"""Acceptance gate: ten system-level properties, one pass/fail line each.

Run with -s (or read the failure output) to see the per-criterion lines.
Every criterion states its tolerance inline; none depends on wall-clock
conditions other than criterion 1's runtime budget.
"""

import json
import math
import random
import statistics
import time
from bisect import bisect_right

from greenlinks import cli
from greenlinks.apps import Marketplace, Workload
from greenlinks.errors import GreenLinksError
from greenlinks.identity import ResolverRing, hash32, resolver_for
from greenlinks.scenario import check_scenario, generate_tree, section
from greenlinks.simcore import (
    Simulation,
    aggregate,
    identity_latency_bench,
    replicate,
)
from greenlinks.whitespace import SLOTS, compare_ngsm, detection_study, ngsm_config


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({detail})", flush=True)


# ------------------------------------------------------------- criterion 1


def test_criterion_01_availability_dominance():
    scenario = generate_tree(3, 2)
    scenario["traffic"] = {}
    scenario["failures"] = {}
    t0 = time.perf_counter()
    runs = replicate(check_scenario(scenario), 100, 3600.0, base_seed=0)
    mc = aggregate([r.ledger for r in runs])
    elapsed = time.perf_counter() - t0
    pairs = [("vce", "cce"), ("vse", "cse"), ("vde", "cde")]
    dominated = all(mc.mean(v) < mc.mean(c) for v, c in pairs)
    ok = dominated and mc.containment_violations == 0 and elapsed < 60.0
    report(
        1,
        "availability dominance",
        ok,
        f"vce {mc.mean('vce'):.4f} < cce {mc.mean('cce'):.4f}, "
        f"vse {mc.mean('vse'):.4f} < cse {mc.mean('cse'):.4f}, "
        f"vde {mc.mean('vde'):.4f} < cde {mc.mean('cde'):.4f}, "
        f"violations {mc.containment_violations}, {elapsed:.1f}s",
    )
    for v, c in pairs:
        assert mc.mean(v) < mc.mean(c)
    assert mc.containment_violations == 0
    assert elapsed < 60.0


# ------------------------------------------------------------- criterion 2


def test_criterion_02_scale_trend():
    means = []
    for level2 in (3, 9, 27):  # community size triples each step
        scenario = generate_tree(level2, 2)
        n = len(scenario["nodes"]) - 1
        # per-node demand: attempts grow with the community, failure
        # schedule (one outage draw per interval) stays fixed
        scenario["traffic"] = {"attempts": {"call": n, "sms": n, "data": n}}
        scenario["failures"] = {}
        mc = aggregate(
            [r.ledger for r in replicate(check_scenario(scenario), 40, 1800.0, base_seed=0)]
        )
        means.append(mc.mean("vce"))
    ok = means[0] > means[1] > means[2]
    report(
        2,
        "scale trend",
        ok,
        "vce " + " > ".join(f"{m:.4f}" for m in means) + " across 9/27/81 nodes",
    )
    assert means[0] > means[1] > means[2]


# ------------------------------------------------------- criteria 3 and 4


WORKLOAD = {
    "sellers": 4,
    "buyers": 3,
    "sell_period_s": 10.0,
    "buy_period_s": 10.0,
    "until_s": 600.0,
    "file_count": 20,
    "file_bytes": 1000000,
    "file_period_s": 30.0,
}


def run_workload(profile, *, priority=False, file_count=20, seed=11):
    scenario = generate_tree(1, 0, backhaul_profile=profile)
    scenario["workload"] = {**WORKLOAD, "file_count": file_count}
    sim = Simulation(check_scenario(scenario), seed=seed, priority_queue=priority)
    workload = Workload(sim)
    workload.schedule()
    sim.run(600.0)
    records = sim.local(workload.node).records
    sells = [
        r.delivered_at - r.enqueued_at
        for r in records
        if r.klass == "slowput" and r.app_type == "market"
    ]
    buys = [r.delivered_at - r.enqueued_at for r in records if r.klass == "fastget"]
    return sells, buys


def test_criterion_03_latency_cdf_separation():
    # one 1 MB file takes 40 s on the edge profile; the bound is two quanta
    sells, buys = run_workload("edge")
    edge_gap = statistics.median(sells) - statistics.median(buys)
    sells_e, buys_e = run_workload("ethernet")
    med_sell, med_buy = statistics.median(sells_e), statistics.median(buys_e)
    rel = abs(med_sell - med_buy) / med_buy
    ok = edge_gap >= 80.0 and rel < 0.10
    report(
        3,
        "latency separation",
        ok,
        f"edge sell-buy median gap {edge_gap:.1f}s >= 80s, "
        f"ethernet relative diff {rel:.2%} < 10%",
    )
    assert edge_gap >= 80.0
    assert rel < 0.10


def test_criterion_04_queue_interaction():
    sms_only, _ = run_workload("edge", file_count=0)
    common, _ = run_workload("edge")
    prioritized, _ = run_workload("edge", priority=True)
    mean_a = statistics.fmean(sms_only)
    mean_b = statistics.fmean(common)
    mean_c = statistics.fmean(prioritized)
    quantum = 1000000 / 25000.0  # one file transmission on the edge link
    # 0.5 s slack absorbs sms-vs-sms queueing differences between runs
    bound = mean_a + quantum + 0.5
    ok = mean_b > mean_a and mean_c <= bound and mean_c < mean_b
    report(
        4,
        "queue interaction",
        ok,
        f"sms mean {mean_a:.2f}s, with files {mean_b:.2f}s, "
        f"priority {mean_c:.2f}s <= {bound:.2f}s",
    )
    assert mean_b > mean_a
    assert mean_c <= bound
    assert mean_c < mean_b


# ------------------------------------------------------------- criterion 5


def test_criterion_05_whitespace_detection():
    cfg = check_scenario({})["whitespace"]
    truth = cfg["truth_occupied"]
    detector, run = detection_study(cfg, 0)
    rows = detector.occupancy_rows()
    occupied = sorted(a for a, verdict, _ in rows if verdict == "occupied")
    free = sum(1 for _, verdict, _ in rows if verdict == "free")
    ok = (
        occupied == sorted(truth)
        and free == 115
        and run.converged_at is not None
        and run.collisions == 0
    )
    report(
        5,
        "whitespace detection",
        ok,
        f"{len(occupied)}/124 occupied match truth, {free} free, "
        f"collisions {run.collisions}",
    )
    assert occupied == sorted(truth)
    assert free == 115
    assert run.converged_at is not None
    assert run.collisions == 0


# ------------------------------------------------------------- criterion 6


def test_criterion_06_volunteer_speedup():
    user_counts = list(range(10, 101, 10))
    worst_margin = float("inf")
    # How far the baseline stays above the scan-plan bound: each group of
    # SLOTS channels needs t_free_s of window.  Reported, not asserted.
    bound_margin = float("inf")
    monotone = True
    cfg = section("whitespace")
    for users in user_counts:
        t_ngsm, (t_vol_1, t_vol_2) = compare_ngsm(cfg, users, [0.1, 0.2], 0)
        t_alone, _ = compare_ngsm(cfg, users, [], 0)
        assert t_ngsm == t_alone  # the baseline ignores volunteers
        worst_margin = min(worst_margin, t_ngsm - t_vol_1, t_ngsm - t_vol_2)
        bound = ngsm_config(users).t_free_s * math.ceil(users / SLOTS)
        bound_margin = min(bound_margin, t_ngsm - bound)
        if t_vol_2 > t_vol_1:
            monotone = False
    ok = worst_margin > 0.0 and monotone
    report(
        6,
        "volunteer speedup",
        ok,
        f"min margin over NGSM {worst_margin:.0f}s across "
        f"{len(user_counts)} user counts, ratio 0.2 <= 0.1 pointwise, "
        f"NGSM min margin over the scan-plan bound {bound_margin:.0f}s",
    )
    assert worst_margin > 0.0
    assert monotone


# ------------------------------------------------------------- criterion 7


def test_criterion_07_identity_bench():
    # service_s 0.01 puts one server's capacity at 100 rps; 150 is 1.5x
    models = [("central", 1), ("dht", 10), ("dht", 1)]
    cfg = section(
        "identity_bench",
        {
            "models": [{"model": m, "servers": n} for m, n in models],
            "load_rps": 150.0,
            "duration_s": 60.0,
            "service_s": 0.01,
        },
    )
    central, dht, dht_single = identity_latency_bench(cfg, 0)
    d50, d95 = dht.quantiles(0.5, 0.95)
    c50, c95 = central.quantiles(0.5, 0.95)
    p50_ok = d50 < c50
    p95_ok = d95 < c95
    same = (dht_single.routed, dht_single.sojourns) == (central.routed, central.sojourns)
    ok = p50_ok and p95_ok and same
    report(
        7,
        "identity bench",
        ok,
        f"dht/10 p50 {d50:.3f}s p95 {d95:.3f}s vs "
        f"central p50 {c50:.3f}s p95 {c95:.3f}s; "
        f"dht/1 == central: {same}",
    )
    assert p50_ok and p95_ok
    assert same


# ------------------------------------------------------------- criterion 8


def test_criterion_08_resolver_oracle_equivalence():
    def oracle(ring, key):
        # predecessor walk on sorted ring positions, ties to the smaller id
        position = {}
        for member in ring.members:
            h = hash32(str(member), ring.seed)
            if h not in position or member < position[h]:
                position[h] = member
        points = sorted(position)
        idx = bisect_right(points, hash32(key, ring.seed)) - 1
        return position[points[idx]] if idx >= 0 else position[points[-1]]

    rng = random.Random(8)
    mismatches = 0
    for _ in range(10000):
        size = rng.randrange(1, 17)
        members = tuple(rng.sample(range(1, 1000000), size))
        ring = ResolverRing(members, seed=rng.randrange(1 << 16))
        key = str(rng.randrange(10**6, 10**15))
        if resolver_for(ring, hash32(key, ring.seed)) != oracle(ring, key):
            mismatches += 1
    report(8, "resolver oracle equivalence", mismatches == 0,
           f"{mismatches} mismatches in 10000 random ring/key pairs")
    assert mismatches == 0


# ------------------------------------------------------------- criterion 9


def run_fault_schedule(seed):
    rng = random.Random(seed)
    sim = Simulation(check_scenario(generate_tree(1, 1)), seed=seed)
    sim.identity.issue_identity(1, "233200000001")
    sim.identity.issue_identity(2, "233200000002")
    servers = {1: sim.local(1), 2: sim.local(2)}
    markets = {n: Marketplace(servers[n], sim.identity) for n in (1, 2)}
    listing, _ = markets[1].sell("233200000001", "maize", 3, 2.0)
    sim.poke(1)

    sent_messages = []
    purchases = []
    sim.engine.on("act", lambda fn: fn())

    def flip(link, state):
        sim.set_link(link, state == "up")

    def put(node, index):
        size = rng.randrange(1, 40000)
        servers[node].slowput("kv", b"\x5a" * size, key=f"k{node}-{index}")
        sim.poke(node)

    def send(src, dst):
        mid = servers[src].store_and_forward(
            f"23320000000{src}", f"23320000000{dst}", b"msg"
        )
        sent_messages.append(mid)
        sim.poke(src)

    def buy(node):
        try:
            value, _ = markets[node].buy(f"23320000000{node}", listing.listing_id)
            purchases.append(value["qty"])
        except GreenLinksError:
            pass

    for _ in range(rng.randrange(2, 6)):
        sim.engine.schedule(
            rng.uniform(0.0, 60.0),
            "act",
            fn=lambda l=rng.choice(["b0", "z0n0"]), s=rng.choice(["up", "down"]): flip(l, s),
        )
    for i in range(3):
        sim.engine.schedule(
            rng.uniform(0.0, 60.0), "act", fn=lambda n=rng.choice([1, 2]), i=i: put(n, i)
        )
    sim.engine.schedule(rng.uniform(0.0, 60.0), "act", fn=lambda: send(1, 2))
    sim.engine.schedule(rng.uniform(0.0, 60.0), "act", fn=lambda: send(2, 1))
    for node in (1, 2):
        sim.engine.schedule(rng.uniform(0.0, 80.0), "act", fn=lambda n=node: buy(n))
    for link in ("b0", "z0n0"):  # every schedule ends fully restored
        sim.engine.schedule(100.0, "act", fn=lambda l=link: flip(l, "up"))
    sim.engine.run_until(None)

    anomalies = []
    if not sim.store.applied_once():
        anomalies.append("handler reran a request id")
    for node, server in servers.items():
        if len(server.queue):
            anomalies.append(f"node {node} queue not drained")
    board = sim.board
    if board.pending or board.expired:
        anomalies.append("messages stranded or expired")
    if sorted(m for m in board.delivered if m in set(sent_messages)) != sorted(
        sent_messages
    ):
        anomalies.append("message delivered count mismatch")
    if len(purchases) > 1 or sum(purchases) > 3:
        anomalies.append(f"oversell: {purchases}")
    rec = sim.store.get("market", listing.listing_id)
    if rec is not None and rec.value["qty"] < 0:
        anomalies.append("negative quantity")
    return anomalies


def test_criterion_09_exactly_once_under_faults():
    bad = {}
    for seed in range(1000):
        anomalies = run_fault_schedule(seed)
        if anomalies:
            bad[seed] = anomalies
    report(
        9,
        "exactly-once under faults",
        not bad,
        f"{len(bad)} of 1000 randomized schedules with anomalies",
    )
    assert not bad, bad


# ------------------------------------------------------------ criterion 10


def artifact_bytes(outdir):
    return {
        p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()
    }


def test_criterion_10_cli_determinism(tmp_path, capsys):
    scenario = generate_tree(1, 1)
    scenario["traffic"] = {}
    scenario["failures"] = {}
    scenario["workload"] = {"sellers": 2, "buyers": 1, "until_s": 60.0}
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(json.dumps(scenario))
    ws_path = tmp_path / "ws.json"
    ws_path.write_text(
        json.dumps(
            {
                "whitespace": {
                    "users": 4,
                    "volunteers": 2,
                    "band": {"first": 1, "last": 12},
                    "truth_occupied": [2],
                    "n_free": 3,
                    "t_free_s": 30.0,
                    "ngsm": {"user_counts": [10], "ratios": [0.1]},
                }
            }
        )
    )
    idb_path = tmp_path / "idb.json"
    idb_path.write_text(
        json.dumps({"identity_bench": {"load_rps": 60.0, "duration_s": 10.0}})
    )

    invocations = [
        ["simulate", "--scenario", str(sim_path), "--horizon", "120", "--trace"],
        ["whitespace", "--scenario", str(ws_path)],
        ["idbench", "--scenario", str(idb_path)],
        ["apps", "SEARCH maize"],
    ]
    unstable = []
    for argv in invocations:
        outputs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{argv[0]}-{attempt}"
            # apps writes no file, so it takes no --out.
            out = ["--out", str(outdir)] if argv[0] != "apps" else []
            assert cli.main(argv + ["--seed", "3", *out]) == 0
            stdout = capsys.readouterr().out
            files = artifact_bytes(outdir) if outdir.exists() else {}
            outputs.append((files, stdout))
        if outputs[0] != outputs[1]:
            unstable.append(argv[0])
    report(
        10,
        "cli determinism",
        not unstable,
        "byte-identical artifacts for simulate, whitespace, idbench, apps"
        if not unstable
        else f"unstable: {unstable}",
    )
    assert not unstable

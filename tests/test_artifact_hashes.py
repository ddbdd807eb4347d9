"""Hash gate: study artifacts are pinned byte for byte.

A change that claims to keep behaviour (a refactor or a speed-up) must
leave these digests alone.  A change that alters the model on purpose
updates them and says which artifacts moved and why.

The generated tree runs every draw branch of the availability study:
node-local, zone-mate and cross-zone destinations, both failure sides,
and the marketplace workload's sync queue on node 1.  The single-run
`simulate` case covers the path that writes one ledger's rates, the
`tree_5_3_trace` case pins the first run's `trace.log`, the order in
which attempts and link flips reach the trace, the
`market_edge_priority` case runs the lazy queue with SMS-sized payloads
served ahead of files (`--priority-queue`), and the
`whitespace_small` and `idbench` cases cover the shipped scenarios of
those studies.  The `whitespace` case runs the built-in default: 124
channels and the full NGSM sweep.  The `whitespace_expiry` case
shortens the evidence lifetime to 300 s, so verdicts expire inside
multi-reading SMS folds and in the `plan_scan` sweep, and the band never
converges.  In the `whitespace_switch` case the serving channel moves:
six of thirty channels are occupied and two verified-free channels
suffice, so the first one claimed is soon reported occupied and
`maybe_switch_channel` moves off it.  In the `whitespace_quiesce` case
the serving channel turns occupied while no other channel is verified
free, so the station quiesces (`NoFreeChannel`) until one is.  The
`whitespace_silent` case has no interferer, so the study folds runs of
all-zero SMS (`Detector.fold_silent`) with the serving channel managed;
its evidence lives 300 s against one SMS per 150 s on average, so folds
stop at gaps that outlive it, and free channels expire while waiting in
the heap of re-verification candidates.  The `whitespace_rotation` case
is silent too, on ten channels, so once the first six turn free the plan
rotates free channels past the last four unknowns; two runs of SMS fold
with that rotation (`Detector.fold_silent`), and evidence living 1200 s
ends one of them where `plan_scan` could sweep the band.  A
whitespace case also pins its stdout summary line, which carries the
serving-collision count.  The library case drives the paths no CLI
study reaches: store-and-forward messages, marketplace searches
and issuance deferred by an outage, all under link failures.  The
multi-site cases write 200 B to 400 kB at every one of the twelve sites
of an edge tree under failures, in FIFO and priority mode, so link flips
land on long transfers at sites they do not reroute.  The restore cases
send an SMS-sized write to every site 1 s after each link restore, in
priority mode, while files parked in the outage are sending, so they pin
that a positive rate puts a queue's head on the line at once.  The
`edge_nondyadic` cases, FIFO and priority, give every periodic stream a
period that is no dyadic fraction (traffic every 0.7 s, failure draws
every 7.1 s, SELLs, BUYs and files every 3.3, 2.9 and 13.7 s), so they
pin which streams step a running sum (`Engine.every`) and which are
scheduled as products: stepping one the other way moves the last bit of
some event times and reorders events against the one random stream.
"""

import hashlib
import json
import random
from dataclasses import astuple
from pathlib import Path

import pytest

from greenlinks import cli
from greenlinks.apps import Marketplace
from greenlinks.errors import GreenLinksError
from greenlinks.scenario import check_scenario, generate_tree
from greenlinks.simcore import Simulation
from greenlinks.whitespace import detection_study

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def tree_scenario():
    scenario = generate_tree(5, 3)
    scenario["traffic"] = {
        "interval_s": 60.0,
        "attempts": {"call": 20, "sms": 20, "data": 20},
    }
    scenario["failures"] = {
        "interval_s": 30.0,
        "outage_mean_s": 300.0,
        "target_mix": {"cloud": 0.5, "zone": 0.5},
    }
    scenario["workload"] = {
        "node": 1,
        "sellers": 4,
        "buyers": 3,
        "file_count": 0,
        "until_s": 1800.0,
    }
    return scenario


def nondyadic_scenario():
    scenario = generate_tree(2, 1, backhaul_profile="edge")
    scenario["traffic"] = {
        "interval_s": 0.7,
        "attempts": {"call": 3, "sms": 2, "data": 1},
    }
    scenario["failures"] = {"interval_s": 7.1, "outage_mean_s": 20.0}
    scenario["workload"] = {
        "sellers": 3,
        "sell_period_s": 3.3,
        "buyers": 7,
        "buy_period_s": 2.9,
        "file_count": 5,
        "file_bytes": 5000,
        "file_period_s": 13.7,
        "until_s": 590.3,
    }
    return scenario


EXPECTED = {
    "village": {
        "metrics.csv": "cb942f11cbde16c5c65c3a378004309636bd55874eb36d88eccfa374c6075ad5",
        "latency.csv": "591b217ec16ef6bc5b9844e1d7311e3a575aaeaaaba2292702c6b61e9776b71c",
        "summary.csv": "5ba8616ac6965a0d5d27239f54b3081406f00458dd10093dd5713688faafed28",
    },
    "market_edge": {
        "metrics.csv": "90d8cca03b1beac708d254c1c9b5ccf7acbe5cfefcd49f526607400cb851f085",
        "latency.csv": "d0fcb60271f0f29b66c27873b08a3f4aeeec86bd3d14ffa50d091ea8dad38b64",
        "summary.csv": "195267f656394d2d87d331be9017441056fe4154168a976dec19042172b5a37d",
    },
    "market_edge_priority": {
        "metrics.csv": "90d8cca03b1beac708d254c1c9b5ccf7acbe5cfefcd49f526607400cb851f085",
        "latency.csv": "e98b590ce0a75ce06b6a6c72c76b1bf79f72913e6f901401b53a25d199076f20",
        "summary.csv": "195267f656394d2d87d331be9017441056fe4154168a976dec19042172b5a37d",
    },
    "tree_5_3": {
        "metrics.csv": "db699d2ce09997f4411db2941545b3043baf766b424996a487b4ff248ff4204a",
        "latency.csv": "89f4b26808d59286b6eb31bb85b14068998a60d2027f8bcb593c9fa8ad26648d",
        "summary.csv": "fb7f96b98fa4e7d04addc2ad702cc836d52827bd7aea59115c5ba75973b73231",
    },
    "tree_5_3_trace": {
        "trace.log": "d1d12df762edc4fe2c6c6a862d87402cc91d3d5a1e36ed2a25e3aefed113b34d",
    },
    "village_1run": {
        "metrics.csv": "69dadda72a700ad6f3ff9ab2a5a429688e1ad108fd54ecae88a67c6119070076",
        "latency.csv": "591b217ec16ef6bc5b9844e1d7311e3a575aaeaaaba2292702c6b61e9776b71c",
        "summary.csv": "f40f88b182589202e3ba69b8c72b7bda475268ebd2fa2cfdd0c1033dda543f5b",
    },
    "edge_nondyadic": {
        "metrics.csv": "85cde300479dc57e3c2509ab02c3e8bd2e4851b546966d15ac47a0095acf1242",
        "latency.csv": "8e5f9a5339a850e4979339e011890dd09af6f5c1bfa51909e0e6a329a0543409",
        "summary.csv": "3c425e41869db728c5b5916b0fcaae1c38baf25d7dbf61827f188a6db9846106",
        "trace.log": "23a30723ac911674b941964a23323681d2121a6ea2f44ea44774bfaa06c77c2f",
    },
    "edge_nondyadic_priority": {
        "metrics.csv": "afe662ac2c396dddd134d7b08dcd8e8b03d59c0f1760ffe5d47d18921b2103c3",
        "latency.csv": "5bfd9c811a6ed153bebea6fb87dec2f17bdb9fb3f49c6cda59397a73e3601cc2",
        "summary.csv": "710351b29881c9a2bb0122bdfc4f1d4869d9131e3ff4b8f466ac117958861722",
        "trace.log": "23a30723ac911674b941964a23323681d2121a6ea2f44ea44774bfaa06c77c2f",
    },
}

# Serving channel 2 is claimed at 30 s and left for 3 at about 31.8 s.
SWITCH_SCENARIO = {
    "whitespace": {
        "users": 4,
        "volunteers": 2,
        "band": {"first": 1, "last": 30},
        "truth_occupied": [1, 2, 3, 4, 5, 6],
        "n_free": 2,
        "t_free_s": 30.0,
        "radius": 0.3,
        "ngsm": None,
    }
}

# Serving channel 2, the only verified-free one, is reported occupied at
# about 31.8 s: the station quiesces until 7 is verified at 60 s.
QUIESCE_SCENARIO = {
    "whitespace": {
        "users": 4,
        "volunteers": 2,
        "band": {"first": 1, "last": 8},
        "truth_occupied": [1, 2, 3, 4, 5, 6],
        "n_free": 2,
        "t_free_s": 10.0,
        "radius": 0.3,
        "ngsm": None,
    }
}

# No interferer: every reading is 0.  Some gaps between SMS outlive the
# evidence, so the band never converges.
SILENT_SCENARIO = {
    "whitespace": {
        "users": 4,
        "volunteers": 0,
        "organic_period_s": 600.0,
        "band": {"first": 1, "last": 18},
        "truth_occupied": [],
        "n_free": 5,
        "t_free_s": 60.0,
        "evidence_ttl_s": 300.0,
        "ngsm": None,
    }
}

# No interferer, ten channels: the plan rotates free channels past the
# last four unknowns, and the band converges at about 3100.7 s.
ROTATION_SCENARIO = {
    "whitespace": {
        "users": 4,
        "volunteers": 0,
        "organic_period_s": 60.0,
        "band": {"first": 1, "last": 10},
        "truth_occupied": [],
        "n_free": 20,
        "t_free_s": 1500.0,
        "evidence_ttl_s": 1200.0,
        "ngsm": None,
    }
}

# "stdout" is the digest of what the command prints on stdout.
STUDY_EXPECTED = {
    "whitespace": (
        "whitespace",
        {
            "occupancy.csv": "45767f7b612b46ab171655540e4bccc7ee09d364335cf1c305a3c0e5f4b19c2f",
            "ngsm_compare.csv": "bfcad96f2c7e2fa9c96eeaf88d4847d538af5603a59588f485ec189f83bf129f",
            "stdout": "9e988ff33f4915a77673af36c81b0d8c477bd13ed6ad97cfe882aacaa0651809",
        },
    ),
    "whitespace_small": (
        "whitespace",
        {
            "occupancy.csv": "9cb74db6865eb7c37266e7cedcea691f03e89dd5d63a5d8dc9829fa4a90e0f46",
            "ngsm_compare.csv": "379f21894accdedfe3bcde6e3577682a246a57284ea038c72b614012430655b0",
            "stdout": "235adf8df58ebd93f039c04638a4b8e39e0ae8151533b694b2ae2a68577668f6",
        },
    ),
    "whitespace_expiry": (
        "whitespace",
        {
            "occupancy.csv": "2b11e0f228b91c5ff509ee65c49d8cd1413266aec24a53e423fcb8b38cf2f79c",
            "ngsm_compare.csv": "21ba5bd884f7bb123c28f7fac60b1e67f09b7d12de26ca7be0ddd2296a2f0f24",
            "stdout": "4afdc4ea7155464fd90539005494f5fc7610b5702a5f0f0f35ba291a658daa36",
        },
    ),
    "whitespace_switch": (
        "whitespace",
        {
            "occupancy.csv": "7d6551ab115351835d7356f957f7750177a5922fdd7f2dc0111a2455f1d5b45c",
            "ngsm_compare.csv": "63fb0f1d5bd4b03bbb154aff8328cac6d48515f5f20f6b1fde2d93edc81a354e",
            "stdout": "90763e5305e65d934737a95da2d828c082227b10cfeea99edccf1766f86eb94f",
        },
    ),
    "whitespace_quiesce": (
        "whitespace",
        {
            "occupancy.csv": "aa2336fa6e6ddd4486720e118ec8bf6efd4fcbb25c98d949ac2f61d73ff2cfad",
            "ngsm_compare.csv": "63fb0f1d5bd4b03bbb154aff8328cac6d48515f5f20f6b1fde2d93edc81a354e",
            "stdout": "01a61f423d32453ea44e5a880f925d399d990e87a56f061de916a415b6e9288d",
        },
    ),
    "whitespace_silent": (
        "whitespace",
        {
            "occupancy.csv": "564559cfcdac09dc15c3958ab57d63ad354b3ad8a22115e5cff101a8f74b7c6b",
            "ngsm_compare.csv": "63fb0f1d5bd4b03bbb154aff8328cac6d48515f5f20f6b1fde2d93edc81a354e",
            "stdout": "712b14e95465206c03fb5209bbcf32ccf8f25912d5b3669e938c1eb2ff6549a8",
        },
    ),
    "whitespace_rotation": (
        "whitespace",
        {
            "occupancy.csv": "a860d5275b7d36b3b438f55791aa36be8a850b84de22411583efcb4a708de939",
            "ngsm_compare.csv": "63fb0f1d5bd4b03bbb154aff8328cac6d48515f5f20f6b1fde2d93edc81a354e",
            "stdout": "2a2e7d01b47811fa3bb0c34f4071e69f61091cf772b5ed5102e50659310bbd68",
        },
    ),
    "idbench": (
        "idbench",
        {
            "idbench_samples.csv": "710a659585def44a04ca63c12ba49d13e0546313d4327177ce43e9e5c285706a",
            "idbench_summary.csv": "72f9245ca72e031de07aac89fd3241a705f0f4cef5eebc5545b2f2c138683142",
        },
    ),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(argv, out, artifacts):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return {name: sha256((out / name).read_bytes()) for name in artifacts}


def simulate_argv(case, tmp_path):
    """The ``simulate`` command line of an EXPECTED case, without --out."""
    if case.startswith("tree_5_3"):
        scenario = tmp_path / "tree.json"
        scenario.write_text(json.dumps(tree_scenario()))
        extra = ["--runs", "2", "--horizon", "1800", "--seed", "7"]
        if case == "tree_5_3_trace":
            extra.append("--trace")
    elif case.startswith("edge_nondyadic"):
        scenario = tmp_path / "nondyadic.json"
        scenario.write_text(json.dumps(nondyadic_scenario()))
        extra = ["--runs", "2", "--horizon", "600", "--trace", "--seed", "5"]
        if case == "edge_nondyadic_priority":
            extra.append("--priority-queue")
    elif case == "market_edge_priority":
        scenario = SCENARIOS / "market_edge.json"
        extra = ["--priority-queue", "--runs", "2", "--seed", "3"]
    elif case == "village_1run":
        scenario = SCENARIOS / "village.json"
        extra = ["--runs", "1", "--seed", "3"]
    else:
        scenario = SCENARIOS / f"{case}.json"
        extra = ["--runs", "2", "--seed", "3"]
    return ["simulate", "--scenario", str(scenario), *extra]


# The whitespace cases whose scenario is written out here, run at seed 0.
WRITTEN_SCENARIOS = {
    "whitespace_switch": SWITCH_SCENARIO,
    "whitespace_quiesce": QUIESCE_SCENARIO,
    "whitespace_silent": SILENT_SCENARIO,
    "whitespace_rotation": ROTATION_SCENARIO,
}


def expiry_scenario():
    """whitespace_small with evidence that lives 300 s."""
    data = json.loads((SCENARIOS / "whitespace_small.json").read_text())
    data["whitespace"]["evidence_ttl_s"] = 300
    return data


def study_argv(case, tmp_path):
    """The command line of a STUDY_EXPECTED case, without --out."""
    command = STUDY_EXPECTED[case][0]
    if case == "whitespace":
        return [command, "--seed", "3"]  # the built-in default band
    if case == "whitespace_expiry":
        scenario = tmp_path / "expiry.json"
        scenario.write_text(json.dumps(expiry_scenario()))
        seed = "4"
    elif case in WRITTEN_SCENARIOS:
        scenario = tmp_path / f"{case}.json"
        scenario.write_text(json.dumps(WRITTEN_SCENARIOS[case]))
        seed = "0"
    else:
        scenario = SCENARIOS / f"{case}.json"
        seed = "3"
    return [command, "--scenario", str(scenario), "--seed", seed]


def cli_cases(tmp_path):
    """(case, command line without --out) of every CLI case pinned here."""
    for case in sorted(EXPECTED):
        yield case, simulate_argv(case, tmp_path)
    for case in sorted(STUDY_EXPECTED):
        yield case, study_argv(case, tmp_path)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_simulate_artifacts_match_pinned_hashes(case, tmp_path, capsys):
    argv = simulate_argv(case, tmp_path)
    assert digests(argv, tmp_path / "out", EXPECTED[case]) == EXPECTED[case]


@pytest.mark.parametrize("case", sorted(STUDY_EXPECTED))
def test_study_artifacts_match_pinned_hashes(case, tmp_path, capsys):
    expected = STUDY_EXPECTED[case][1]
    files = [name for name in expected if name != "stdout"]
    got = digests(study_argv(case, tmp_path), tmp_path / "out", files)
    if "stdout" in expected:
        got["stdout"] = sha256(capsys.readouterr().out.encode())
    assert got == expected


EVIDENCE_EXPECTED = {
    "whitespace_expiry": "e1e7fb3ef4ee8821ae0c8548567d95f5036842bdb607da3d9e8fc59013154ab1",
    "whitespace_rotation": "424fa82c47d59f0ee98dfecfd013b7cf934af99fe57742204d9780556c5fe466",
    "whitespace_silent": "c7bb741e8a5ab0f32e078743a1d69b01f7443cf7acd069ef102034f2c87ba5bc",
}


def evidence_digest(case):
    """sha256 over the final evidence after detection_study(cfg, 0):
    every channel's arfcn, verdict, zero_count, window_start,
    last_report_at, last_planned_at and t_verdict, and the detector's
    evidence floor.  The study artifacts show verdicts and their times
    only, so a fold that gets the evidence behind them wrong shows here
    first.  At seed 0 a rotating fold run past the floor leaves every
    channel as it was, and only the floor shows it."""
    data = expiry_scenario() if case == "whitespace_expiry" else WRITTEN_SCENARIOS[case]
    detector, _ = detection_study(check_scenario(data)["whitespace"], 0)
    evidence = [
        (
            state.arfcn,
            state.verdict.value,
            state.zero_count,
            state.window_start,
            state.last_report_at,
            state.last_planned_at,
            state.t_verdict,
        )
        for _, state in sorted(detector.states.items())
    ]
    return sha256(repr((evidence, detector._evidence_floor)).encode())


@pytest.mark.parametrize("case", sorted(EVIDENCE_EXPECTED))
def test_detector_evidence_matches_pinned_hashes(case):
    assert evidence_digest(case) == EVIDENCE_EXPECTED[case]


LIBRARY_EXPECTED = {
    0: "911dec58859b0ad07e08fdb7044d3a68d06bfdc4d944373a67a39a26dae35268",
    1: "61d1e5a6d9e2801c554d904b685c782838903da525f185afe83f83ddc39238ec",
    2: "bbab6beae18b0d66ab13898f5449a5c47d8dcd5b0171d6069ef552c8898edbcd",
}


def library_digest(seed):
    """sha256 over latency records, board state, engine trace and the
    outcome of every scheduled call, for messages, searches and deferred
    issuance on a nine-node edge tree under failures."""
    scenario = generate_tree(3, 2, backhaul_profile="edge")
    scenario["failures"] = {"interval_s": 45.0, "outage_mean_s": 120.0}
    sim = Simulation(check_scenario(scenario), seed=seed, trace=True)
    nodes = sorted(sim.identity.caches)
    imsi = {n: f"23324{n:010d}" for n in nodes}
    markets = {n: Marketplace(sim.local(n), sim.identity) for n in nodes}
    outcomes = []

    def act(op, node, other=None):
        try:
            if op == "issue":
                sim.identity.issue_identity(node, imsi[node])
            elif op == "sell":
                markets[node].sell(imsi[node], "maize", 1 + node, 2.5)
                sim.poke(node)
            elif op == "send":
                sim.local(node).store_and_forward(
                    imsi[node], imsi[other], b"hello %d" % other, ttl=400.0
                )
                sim.poke(node)
            else:
                listings, chunks, at = markets[node].search(imsi[node], "maize")
                outcomes.append((op, node, len(listings), chunks, at))
                return
            outcomes.append((op, node, other, "ok"))
        except GreenLinksError as exc:
            outcomes.append((op, node, other, type(exc).__name__))

    sim.engine.on("act", act)
    plan = random.Random(seed)
    for k, node in enumerate(nodes):
        sim.engine.schedule(25.0 * k, "act", op="issue", node=node)
        sim.engine.schedule(300.0 + 25.0 * k, "act", op="sell", node=node)
    for _ in range(150):
        src, dst = plan.sample(nodes, 2)
        at = plan.uniform(0.0, 1200.0)
        sim.engine.schedule(at, "act", op="send", node=src, other=dst)
    for _ in range(40):
        at = plan.uniform(0.0, 1200.0)
        sim.engine.schedule(at, "act", op="search", node=plan.choice(nodes))
    sim.run(1200.0)
    sim.engine.run_until(None)  # nothing is left: run() drains

    latency = [r for n in sorted(sim.locals) for r in sim.locals[n].records]
    latency.sort(key=lambda r: (r.enqueued_at, r.request_id))
    board = sim.board
    state = (
        [astuple(r) for r in latency],
        sorted(board.delivered.items()),
        sorted(board.pending),
        board.expired,
        sim.engine.trace,
        outcomes,
    )
    return sha256(repr(state).encode())


@pytest.mark.parametrize("seed", sorted(LIBRARY_EXPECTED))
def test_library_paths_match_pinned_hashes(seed):
    assert library_digest(seed) == LIBRARY_EXPECTED[seed]


MULTI_SITE_EXPECTED = {
    (False, 0): "7afb948ccfa38754740d4cd24fcde105d90215bb4f0a8f6eb28de7f29404178a",
    (False, 1): "4b3d3790f259b021ea6656768104b7a110db3a28ae6d3c1bc34fd205dde75c0b",
    (False, 2): "6d072a40033155ebc67788bb1ab5aa448d0f43eea73752634f52a80d231aec71",
    (True, 0): "7afb948ccfa38754740d4cd24fcde105d90215bb4f0a8f6eb28de7f29404178a",
    (True, 1): "1001031e4ae1b91cb211752fbc0367af3805dfc05d8283a9852c1e6afcb0ffdf",
    (True, 2): "bd84d925e76a9a8b5fe77b292b8809c3c33c85fd9723764d72c4c930763b1352",
}
MULTI_SITE_SIZES = (200, 3_000, 150_000, 400_000)


def multi_site_digest(priority_queue, seed):
    """sha256 over the latency records and the store's handler runs of
    lazy writes at all twelve sites of an edge tree under failures, so
    flips land on long transfers at sites they do not reroute."""
    scenario = generate_tree(4, 2, backhaul_profile="edge")
    scenario["failures"] = {"interval_s": 30.0, "outage_mean_s": 120.0}
    sim = Simulation(
        check_scenario(scenario), seed=seed, priority_queue=priority_queue
    )
    servers = {n: sim.local(n) for n in sorted(sim.identity.caches)}

    def write(node, k):
        size = MULTI_SITE_SIZES[k % len(MULTI_SITE_SIZES)]
        servers[node].slowput("blob", b"\x5a" * size, key=f"{node}-{k}")

    sim.engine.on("write", write)
    for node in servers:
        for k, at in enumerate(range(37 * node, 1800, 290)):
            sim.engine.schedule(float(at), "write", node=node, k=k)
    result = sim.run(1800.0)
    state = ([astuple(r) for r in result.latency], sim.store.handler_runs)
    return sha256(repr(state).encode())


@pytest.mark.parametrize("priority_queue, seed", sorted(MULTI_SITE_EXPECTED))
def test_multi_site_lazy_writes_match_pinned_hashes(priority_queue, seed):
    got = multi_site_digest(priority_queue, seed)
    assert got == MULTI_SITE_EXPECTED[priority_queue, seed]


RESTORE_EXPECTED = {
    0: "c6c6ebcdab43f3d002c522fa973b17838b9edec9b022598df80acb061969f856",
    1: "adbb2ec11909398d8b9017a13d1030921db37f95c666979a442e6e8b69805e52",
    2: "7bb40f7eadc9204d575d0d51acb077e37318ceb0c32b20cc1b73bbca97dfed89",
}


def restore_digest(seed):
    """sha256 over the latency records and the store's handler runs of a
    priority-mode edge tree under failures, where every site gets an
    SMS-sized write 1 s after each link restore.  A file parked in the
    outage goes on the line at the restore, so the SMS waits behind it
    instead of jumping it."""
    scenario = generate_tree(3, 1, backhaul_profile="edge")
    scenario["failures"] = {"interval_s": 60.0, "outage_mean_s": 120.0}
    sim = Simulation(check_scenario(scenario), seed=seed, priority_queue=True)
    servers = {n: sim.local(n) for n in sorted(sim.identity.caches)}

    def restore(link_id):
        sim.set_link(link_id, True)
        for node in servers:
            sim.engine.schedule(sim.engine.now + 1.0, "write", node=node, size=160)

    def write(node, size):
        servers[node].slowput("blob", b"\x5a" * size)

    # Replaces the Simulation's own restore handler, which only flips.
    sim.engine.on("link_restore", restore)
    sim.engine.on("write", write)
    for node in servers:
        for at in range(11 * node, 1800, 97):
            sim.engine.schedule(float(at), "write", node=node, size=100_000)
    result = sim.run(1800.0)
    state = ([astuple(r) for r in result.latency], sim.store.handler_runs)
    return sha256(repr(state).encode())


@pytest.mark.parametrize("seed", sorted(RESTORE_EXPECTED))
def test_writes_after_a_restore_match_pinned_hashes(seed):
    assert restore_digest(seed) == RESTORE_EXPECTED[seed]

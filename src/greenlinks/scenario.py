"""Scenario files: loading, defaults, validation and a tree generator.

A scenario is a JSON mapping.  ``nodes``/``zones``/``links`` describe
the world graph (see topology.build_topology); the optional sections in
SECTIONS parameterize the runtime.  Missing keys fall back to the
section's defaults, and a missing key of a world-graph entry to its
TOPOLOGY template, so a scenario only states what it changes.  Both are
also the schema: an unknown section or key, a missing required key, or a
value whose JSON type differs from its default's, is a ScenarioError.

check_scenario loads a scenario once; every study and run reads the
mapping it returns.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .errors import ScenarioError
from .whitespace import detection_budget, ngsm_budget

SECTIONS = {
    "traffic": {
        "interval_s": 60.0,
        "attempts": {"call": 10, "sms": 10, "data": 10},
        "dest_mix": {"local": 0.3, "zone": 0.4, "cross": 0.3},
        "level_share": {"level2": 0.6, "level3": 0.4},
    },
    "failures": {
        "interval_s": 300.0,
        "outage_mean_s": 600.0,
        "target_mix": {"cloud": 0.5, "zone": 0.5},
    },
    "sync": {
        "fastget_timeout_s": 30.0,
        "service_s": 0.01,
    },
    "workload": {
        "sellers": 4,
        "buyers": 3,
        "sell_period_s": 10.0,
        "buy_period_s": 10.0,
        "until_s": 600.0,
        "file_bytes": 1000000,
        "file_count": 0,
        "file_period_s": 30.0,
        "items": ["maize", "cassava", "yam", "rice"],
        "node": None,
    },
    "whitespace": {
        "users": 25,
        "volunteers": 5,
        "volunteer_period_s": 60.0,
        "organic_period_s": 300.0,
        "band": {"first": 1, "last": 124},
        "truth_occupied": [3, 17, 29, 41, 58, 66, 82, 97, 110],
        "n_free": 40,
        "t_free_s": 600.0,
        "evidence_ttl_s": 86400.0,
        "radius": 0.25,
        "ngsm": {
            "user_counts": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            "ratios": [0.1, 0.2],
        },
    },
    "identity_bench": {
        "models": [
            {"model": "central", "servers": 1},
            {"model": "dht", "servers": 10},
        ],
        "load_rps": 150.0,
        "duration_s": 60.0,
        "service_s": 0.01,
        "latency_s": 0.1,
    },
}

# Range rules.  Every number in a scenario is finite and not negative, and
# these must also be nonzero: the runtime steps a clock by them (an
# unbounded loop at 0), divides by them, draws from that many phones or
# uploads that many bytes (an empty slowput is an error).
POSITIVE = {
    "traffic.interval_s",
    "failures.interval_s",
    "failures.outage_mean_s",
    "workload.sell_period_s",
    "workload.buy_period_s",
    "workload.file_bytes",
    "whitespace.organic_period_s",
    "whitespace.volunteer_period_s",
    "whitespace.ngsm.user_counts",
    "identity_bench.load_rps",
    "identity_bench.models.servers",
    "links.bandwidth_kbps",
}
# Lists a study iterates to build its rows: empty, it would write only a
# header.
NONEMPTY = {
    "workload.items",
    "whitespace.ngsm.user_counts",
    "whitespace.ngsm.ratios",
    "identity_bench.models",
}
# The directory models identity_bench.models may name.
IDENTITY_MODELS = ("central", "dht")
# Mapping-valued keys that null switches off.
NULLABLE = {"whitespace.ngsm"}
# Sections that load as None when the scenario leaves them out.
OPTIONAL = ("traffic", "failures", "workload")
# Shares of one whole: after the merge each must sum to 1.  The draws read
# all but the last key and take that one as the complement.
MIXES = {
    "traffic": ("dest_mix", "level_share"),
    "failures": ("target_mix",),
}
# The most work one simulate run or study may ask for (work_estimate):
# about ten times the largest shipped scenario or benchmark workload
# (market_backlog, 1.05e6, most of it its 1 MB file body).  A run at the
# bound takes minutes, not hours, and holds at most a few hundred MB.
WORK_BOUND = 10**7
# The sections whose work a simulate run's horizon bounds, and those of
# the studies, which need no horizon: check_scenario bounds these at load.
RUN_SECTIONS = ("traffic", "failures", "workload")
STUDY_SECTIONS = ("identity_bench", "whitespace")
# World-graph lists: the template each entry is checked against and merged
# over.  A key in REQUIRED must be given; the template's value only shows
# its type.  An empty link id or profile means none.
TOPOLOGY = {
    "nodes": [{"id": 0, "role": "cloud"}],
    "zones": [{"id": "", "nodes": [0], "prefix": ""}],
    "links": [
        {"id": "", "a": 0, "b": 0, "profile": "", "bandwidth_kbps": None,
         "latency_ms": None, "state": "up"}
    ],
}
REQUIRED = {
    "nodes.id", "nodes.role", "zones.id", "zones.nodes", "zones.prefix",
    "links.a", "links.b",
    "identity_bench.models.model", "identity_bench.models.servers",
}


def _check(path: str, default, value, where: str) -> None:
    """Raise ScenarioError unless value fits the shape of default.  path
    names the key in the rule sets; where adds list indices for messages."""
    if value is None and (default is None or path in NULLABLE):
        return
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ScenarioError(f"{where} must be an object")
        for key, item in value.items():
            if key not in default:
                raise ScenarioError(f"{where}: unknown key {key!r}")
            _check(f"{path}.{key}", default[key], item, f"{where}.{key}")
        for key in default:
            if key not in value and f"{path}.{key}" in REQUIRED:
                raise ScenarioError(f"{where} needs the key {key!r}")
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ScenarioError(f"{where} must be a list")
        if path in NONEMPTY and not value:
            raise ScenarioError(f"{where} is empty")
        for i, item in enumerate(value):
            _check(path, default[0], item, f"{where}[{i}]")
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ScenarioError(f"{where} must be a string")
    else:
        kind = int if isinstance(default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is int else "a number"
            raise ScenarioError(f"{where} must be {noun}")
        # An int too large for a float counts as not finite: the studies
        # and the work estimate compute with these numbers as floats.
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite or value < 0:
            raise ScenarioError(f"{where} must be a finite number >= 0")
        if path in POSITIVE and value == 0:
            raise ScenarioError(f"{where} must be > 0")


def section(name: str, override: dict | None = None) -> dict:
    """Section ``name``: its defaults with ``override`` (the scenario's
    section, None when absent) merged in, one level deep, after checking
    it against them."""
    override = {} if override is None else override
    _check(name, SECTIONS[name], override, name)
    out = copy.deepcopy(SECTIONS[name])
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out[key], dict):
            out[key].update(value)
        else:
            out[key] = value
    for key in MIXES.get(name, ()):
        total = sum(out[key].values())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ScenarioError(f"{name}.{key} must sum to 1, not {total:g}")
    if name == "workload":
        for i, item in enumerate(out["items"]):
            # The rule Marketplace.sell applies to every listing.
            if item.split() != [item]:
                raise ScenarioError(
                    f"workload.items[{i}] must be a single token, got {item!r}"
                )
    if name == "whitespace" and out["band"]["first"] > out["band"]["last"]:
        raise ScenarioError("whitespace.band is empty: first > last")
    if name == "identity_bench":
        for i, spec in enumerate(out["models"]):
            if spec["model"] not in IDENTITY_MODELS:
                raise ScenarioError(
                    f"identity_bench.models[{i}]: unknown model {spec['model']!r}"
                )
            if spec["model"] == "central" and spec["servers"] != 1:
                raise ScenarioError(
                    f"identity_bench.models[{i}]: central has one directory "
                    f"server, not {spec['servers']}"
                )
    return out


def world(scenario: dict) -> dict[str, list[dict]]:
    """The scenario's world-graph lists, checked against TOPOLOGY, with
    every entry merged over its template."""
    out = {}
    for key, template in TOPOLOGY.items():
        entries = scenario.get(key, [])
        _check(key, template, entries, key)
        out[key] = [{**template[0], **entry} for entry in entries]
    return out


def check_scenario(scenario: dict) -> dict:
    """The loaded scenario: every section of SECTIONS merged over its
    defaults (None for an OPTIONAL one left out), and "graph", the
    topology.build_topology Graph or None without a world-graph list.
    Raises ScenarioError for an unknown section, a section that does not
    fit its schema, a world graph build_topology rejects, and a section
    the graph cannot serve: traffic without a level2 node, failures
    without a link, a workload without a community node or whose node
    (by default the lowest community node id) is not one or starts cut
    off from the cloud: a link that starts down stays down, so the
    workload's t = 0 issuance would never go out.  It also raises for a
    STUDY_SECTIONS section that asks for more work than WORK_BOUND."""
    # Imported here because topology imports world() from this module.
    from .topology import Role, Topology, build_topology

    loaded = {name: None if name in OPTIONAL else section(name) for name in SECTIONS}
    for key, value in scenario.items():
        if key in SECTIONS:
            loaded[key] = section(key, value)
        elif key not in TOPOLOGY:
            raise ScenarioError(f"unknown section {key!r}")
    graph = build_topology(scenario) if TOPOLOGY.keys() & scenario.keys() else None
    loaded["graph"] = graph
    if loaded["traffic"] and not (graph and graph.role_pool[Role.LEVEL2]):
        raise ScenarioError("a traffic section needs a level2 node")
    if loaded["failures"] and not (graph and graph.links):
        raise ScenarioError("a failures section needs a link")
    workload = loaded["workload"]
    if workload:
        if not (graph and graph.community):
            raise ScenarioError("a workload section needs a community node")
        if workload["node"] is None:
            workload["node"] = graph.community[0]
        node = workload["node"]
        if not isinstance(node, int) or node not in graph.community:
            raise ScenarioError(f"workload.node {node} is not a community node")
        if Topology(graph).cloud_route(node) is None:
            raise ScenarioError(f"workload.node {node} has no route to the cloud")
    work_estimate(loaded, None, STUDY_SECTIONS)
    return loaded


def work_estimate(
    loaded: dict, horizon: float | None, sections: tuple = RUN_SECTIONS
) -> float:
    """An upper bound on the work that one run of ``sections`` of a loaded
    scenario asks for, the run going up to ``horizon`` (None, or finite
    and above 0).  It is worked out from the values alone, so a huge
    count costs nothing to find.  Per section:

    * traffic: each interval is an event, its attempts and the three
      counts per service that the run keeps for it;
    * failures: a draw every interval_s from 0, each with at most one
      restore and, at each of those two flips, one queue wake-up of the
      workload's site;
    * workload: each SELL and file is an event and at most two queue
      wake-ups (the enqueue that finds the queue idle, and the
      completion), each BUY one event, plus the bytes of the one file
      body it builds;
    * identity_bench: the expected arrivals, load_rps * duration_s, once
      as drawn and once per model that replays them, plus each model's
      servers;
    * whitespace: see whitespace_work.

    Raises ScenarioError naming the first section above WORK_BOUND."""
    parts = {}
    traffic, failures, workload = (
        loaded[name] if name in sections else None for name in RUN_SECTIONS
    )
    if traffic and horizon is not None:
        attempts = traffic["attempts"]
        per_interval = 1 + 3 * len(attempts) + sum(attempts.values())
        parts["traffic"] = horizon / traffic["interval_s"] * per_interval
    if failures and horizon is not None:
        wakeups = 2 if workload else 0
        parts["failures"] = (horizon / failures["interval_s"] + 1) * (2 + wakeups)
    if workload:
        until = workload["until_s"] if horizon is None else min(workload["until_s"], horizon)
        sells = workload["sellers"] * (until / workload["sell_period_s"] + 1)
        buys = workload["buyers"] * (until / workload["buy_period_s"] + 1)
        files = workload["file_count"]
        body = workload["file_bytes"] if files else 0
        parts["workload"] = 3 * (sells + files) + buys + body
    if "identity_bench" in sections:
        bench = loaded["identity_bench"]
        models = bench["models"]
        arrivals = bench["load_rps"] * bench["duration_s"]
        parts["identity_bench"] = arrivals * (1 + len(models)) + sum(
            spec["servers"] for spec in models
        )
    if "whitespace" in sections:
        parts["whitespace"] = whitespace_work(loaded["whitespace"])
    for name, work in parts.items():
        if not work <= WORK_BOUND:  # nan too
            raise ScenarioError(
                f"{name} asks for about {work:.3g} units of work in one run, "
                f"above the bound scenario.WORK_BOUND = {WORK_BOUND:.3g}"
            )
    return sum(parts.values())


def whitespace_work(cfg: dict) -> float:
    """The channels, phones and SMS that the studies of a loaded
    ``whitespace`` section build: detection_study's band, phones and
    organic SMS (whitespace.detection_budget), and, for each
    ngsm.user_counts entry, the band, phones and SMS of compare_ngsm's
    baseline (whitespace.ngsm_budget) and of each volunteer run.  The
    counts of channels, phones and organic SMS are exact.  The volunteer
    SMS run up to the last organic SMS, whose time is drawn, so they are
    estimated from its expected time, the organic SMS over their rate.
    A budget too large for a float is infinite work."""
    users, volunteers = cfg["users"], cfg["volunteers"]
    organic_s, volunteer_s = cfg["organic_period_s"], cfg["volunteer_period_s"]
    work = cfg["band"]["last"] - cfg["band"]["first"] + 1 + users + volunteers
    try:
        if users + volunteers:
            count, idle_horizon = detection_budget(cfg)
            horizon = count * organic_s / users if users else idle_horizon
            work += count + volunteers * (horizon / volunteer_s + 1)
        for n in cfg["ngsm"]["user_counts"] if cfg["ngsm"] else ():
            need = ngsm_budget(n, organic_s)
            until = need * organic_s / n
            work += 2 * n + need
            for ratio in cfg["ngsm"]["ratios"]:
                if extra := round(ratio * n):
                    work += 2 * n + extra + need + extra * (until / volunteer_s + 1)
    except (OverflowError, ValueError):
        return math.inf
    return work


def load_scenario(path: str | Path) -> dict:
    """Parse and load a scenario file (see check_scenario), raising
    ScenarioError with a file (and, for JSON syntax, line) anchor."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not text: {exc.reason}")
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError:
        # Python converts integers of at most sys.get_int_max_str_digits().
        raise ScenarioError(f"{path}: an integer has too many digits") from None
    except RecursionError:
        raise ScenarioError(f"{path}: nested too deeply") from None
    if not isinstance(scenario, dict):
        raise ScenarioError(f"{path}:1:1: scenario must be a JSON object")
    try:
        return check_scenario(scenario)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def generate_tree(
    level2: int,
    level3_per: int,
    *,
    backhaul_profile: str = "hsdpa",
) -> dict:
    """Three-level deployment: cloud 0, level2 gateways, level3 children.

    Each level-2 node anchors its own zone (prefix 10.<i>) and carries the
    zone's backhaul to the cloud; its level-3 children attach to it over
    hsdpa links.
    """
    if level2 < 1 or level3_per < 0:
        raise ScenarioError("tree needs at least one level2 node")
    nodes = [{"id": 0, "role": "cloud"}]
    zones = []
    links = []
    next_id = 1
    for i in range(level2):
        gw = next_id
        next_id += 1
        members = [gw]
        nodes.append({"id": gw, "role": "level2"})
        links.append({"id": f"b{i}", "a": 0, "b": gw, "profile": backhaul_profile})
        for j in range(level3_per):
            child = next_id
            next_id += 1
            members.append(child)
            nodes.append({"id": child, "role": "level3"})
            links.append(
                {"id": f"z{i}n{j}", "a": gw, "b": child, "profile": "hsdpa"}
            )
        zones.append({"id": f"z{i}", "nodes": members, "prefix": f"10.{i}"})
    return {"nodes": nodes, "zones": zones, "links": links}

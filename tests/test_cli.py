"""End-to-end CLI checks: artifacts, exit codes, seeding, reproducibility."""

import contextlib
import csv
import io
import json
import re
import resource
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenlinks import cli
from greenlinks.errors import GreenLinksError, ScenarioError
from greenlinks.scenario import SECTIONS, generate_tree, load_scenario, section
from greenlinks.simcore import identity_latency_bench
from greenlinks.whitespace import compare_ngsm


def write_scenario(tmp_path, name, scenario):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def sim_scenario(tmp_path):
    scenario = generate_tree(1, 1)
    scenario["traffic"] = {"interval_s": 30.0}
    scenario["failures"] = {"interval_s": 60.0, "outage_mean_s": 30.0}
    scenario["workload"] = {
        "sellers": 2,
        "buyers": 1,
        "sell_period_s": 20.0,
        "buy_period_s": 20.0,
        "until_s": 100.0,
    }
    return write_scenario(tmp_path, "sim.json", scenario)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------- simulate


def test_simulate_writes_the_artifact_set(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "simulate",
            "--scenario",
            sim_scenario(tmp_path),
            "--horizon",
            "300",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_rows(out / "metrics.csv")
    assert header == ["interval", "vce", "cce", "vse", "cse", "vde", "cde"]
    assert len(rows) == 10  # 300 s at 30 s intervals
    assert [r[0] for r in rows] == [str(i) for i in range(10)]
    header, rows = read_rows(out / "summary.csv")
    assert header == ["metric", "mean", "stdev", "ci95"]
    assert [r[0] for r in rows][-1] == "containment_violations"
    assert rows[-1][1] == "0"
    header, rows = read_rows(out / "latency.csv")
    assert len(rows) > 0
    assert {r[1] for r in rows} <= {"slowput", "fastget", "fastsearch", "message"}
    assert not (out / "trace.log").exists()
    stdout = capsys.readouterr().out
    assert len(re.findall(r"^run: vce=", stdout, re.M)) == 1


def test_simulate_trace_lines_are_well_formed(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "simulate",
            "--scenario",
            sim_scenario(tmp_path),
            "--horizon",
            "300",
            "--out",
            str(out),
            "--trace",
        ]
    )
    assert code == 0
    pattern = re.compile(
        r"^\d+\.\d{6} (LINK \S+ (up|down)|ATTEMPT \d+ \d+ (call|sms|data))$"
    )
    lines = (out / "trace.log").read_text().splitlines()
    assert lines
    for line in lines:
        assert pattern.match(line), line
    times = [float(line.split()[0]) for line in lines]
    assert times == sorted(times)


def test_simulate_multi_run_aggregates(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "simulate",
            "--scenario",
            sim_scenario(tmp_path),
            "--horizon",
            "300",
            "--runs",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(re.findall(r"^run: ", capsys.readouterr().out, re.M)) == 3
    _, rows = read_rows(out / "latency.csv")
    prefixes = {r[0].split("-")[0] for r in rows}
    assert prefixes == {"r0", "r1", "r2"}


def test_simulate_horizon_bounds_the_workload(tmp_path):
    out = tmp_path / "out"
    scenario = str(Path(__file__).parents[1] / "scenarios" / "market_edge.json")
    argv = ["simulate", "--scenario", scenario, "--horizon", "300", "--out", str(out)]
    assert cli.main(argv) == 0
    header, rows = read_rows(out / "latency.csv")
    enqueued = [float(r[header.index("enqueued_at")]) for r in rows]
    assert enqueued and max(enqueued) <= 300.0


def run_simulate(tmp_path, out_name, extra):
    out = tmp_path / out_name
    code = cli.main(
        [
            "simulate",
            "--scenario",
            sim_scenario(tmp_path),
            "--horizon",
            "300",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    return {
        name: (out / name).read_bytes()
        for name in ("metrics.csv", "latency.csv", "summary.csv")
    }


def test_reruns_are_byte_identical_and_seeds_matter(tmp_path):
    first = run_simulate(tmp_path, "a", ["--seed", "5"])
    second = run_simulate(tmp_path, "b", ["--seed", "5"])
    assert first == second
    other = run_simulate(tmp_path, "c", ["--seed", "6"])
    assert other["metrics.csv"] != first["metrics.csv"]


def test_seed_env_var_and_flag_precedence(tmp_path, monkeypatch):
    flagged = run_simulate(tmp_path, "a", ["--seed", "7"])
    monkeypatch.setenv("GREENLINKS_SEED", "7")
    from_env = run_simulate(tmp_path, "b", [])
    assert from_env == flagged
    monkeypatch.setenv("GREENLINKS_SEED", "99")
    overridden = run_simulate(tmp_path, "c", ["--seed", "7"])
    assert overridden == flagged


def test_bad_inputs_exit_2(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["simulate", "--scenario", missing]) == 2
    broken = tmp_path / "broken.json"
    # Not JSON, an integer longer than Python converts, not UTF-8, nested
    # deeper than the decoder recurses.
    for text in (
        b"{not json",
        b'{"seed": 1' + b"0" * 5000 + b"}",
        b'{"seed": "\xff"}',
        b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ):
        broken.write_bytes(text)
        assert cli.main(["simulate", "--scenario", str(broken)]) == 2
    monkeypatch.setenv("GREENLINKS_SEED", "twelve")
    assert (
        cli.main(
            ["simulate", "--scenario", sim_scenario(tmp_path), "--out", str(tmp_path / "o")]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("horizon", ["nan", "inf", "-5", "0"])
def test_a_horizon_not_finite_and_above_zero_exits_2(horizon, tmp_path, capsys):
    village = str(Path(__file__).parents[1] / "scenarios" / "village.json")
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", village, "--horizon", horizon, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon must be") and "Traceback" not in err
    assert not out.exists()


def test_a_failures_section_alone_defaults_the_horizon(tmp_path):
    # Simulation.run needs a horizon for traffic or failures; without
    # --horizon, simulate runs 3600 s.  The trace's link flips show it.
    scenario = generate_tree(1, 0)
    scenario["failures"] = {"interval_s": 30.0}
    path = write_scenario(tmp_path, "failures.json", scenario)
    written = []
    for extra in ([], ["--horizon", "3600"]):
        out = tmp_path / f"out{len(written)}"
        argv = ["simulate", "--scenario", path, "--trace", "--out", str(out), *extra]
        assert cli.main(argv) == 0
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert written[0] == written[1]
    # Outages start only up to the horizon; a restore may come after it.
    downs = [
        float(line.split()[0])
        for line in written[0]["trace.log"].decode().splitlines()
        if line.endswith(" down")
    ]
    assert 1800.0 < downs[-1] <= 3600.0


def _set(path, value):
    """An edit that sets scenario[a][b]... = value for path "a.b...";
    a numeric label indexes a list."""
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]

    def edit(scenario):
        node = scenario
        for key in parents:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[last] = value

    return edit


def _drop_role(scenario):
    del scenario["nodes"][1]["role"]


def _only(nodes, *sections):
    """An edit that keeps the first ``nodes`` nodes of generate_tree(1, 1)
    (the cloud, then level2 node 1 alone in zone z0), no links, and only
    the given runtime sections."""

    def edit(scenario):
        del scenario["nodes"][nodes:]
        scenario["zones"] = [{**scenario["zones"][0], "nodes": [1]}] if nodes > 1 else []
        scenario["links"] = []
        for name in ("traffic", "failures", "workload"):
            if name not in sections:
                del scenario[name]

    return edit


MALFORMED = [
    ("node-without-role", "simulate", _drop_role),
    ("nodes-not-a-list", "simulate", _set("nodes", 5)),
    ("traffic-interval-0", "simulate", _set("traffic.interval_s", 0)),
    ("failures-interval-0", "simulate", _set("failures.interval_s", 0)),
    ("outage-mean-0", "simulate", _set("failures.outage_mean_s", 0)),
    ("outage-mean-negative", "simulate", _set("failures.outage_mean_s", -600.0)),
    ("sell-period-0", "simulate", _set("workload.sell_period_s", 0)),
    ("buy-period-0", "simulate", _set("workload.buy_period_s", 0)),
    ("file-bytes-0", "simulate", _set("workload.file_bytes", 0)),
    ("workload-on-missing-node", "simulate", _set("workload.node", 99)),
    # Node ids are integers: node 1.0 ran as node "1.0".
    ("workload-node-a-float", "simulate", _set("workload.node", 1.0)),
    # A link that starts down never comes up: the workload could never
    # issue its identities.
    ("workload-node-cut-off", "simulate", _set("links.0.state", "down")),
    ("load-rps-0", "idbench", _set("identity_bench.load_rps", 0)),
    ("idbench-model-unknown", "idbench", _set(
        "identity_bench.models",
        [{"model": "central", "servers": 1}, {"model": "ring", "servers": 2}],
    )),
    ("idbench-servers-0", "idbench", _set(
        "identity_bench.models",
        [{"model": "central", "servers": 1}, {"model": "dht", "servers": 0}],
    )),
    # central is one directory server: more queued every lookup on server 0.
    ("idbench-central-servers", "idbench", _set(
        "identity_bench.models",
        [{"model": "central", "servers": 3}, {"model": "dht", "servers": 10}],
    )),
    # The lazy queue has no bound to set.
    ("queue-capacity", "simulate", _set("sync.queue_capacity", 5)),
    # Failure draws start at 0 and the service jitter is a constant.
    ("failures-start-s", "simulate", _set("failures.start_s", 120.0)),
    ("sync-service-jitter", "simulate", _set("sync.service_jitter", 0.0)),
    # No study reads a message TTL from the scenario.
    ("sync-message-ttl", "simulate", _set("sync.message_ttl_s", 400.0)),
    ("key-typo", "simulate", _set("traffic.attemps", {"call": 1})),
    ("unknown-section", "simulate", _set("failure", {"interval_s": 60.0})),
    ("nested-unknown-key", "simulate", _set("traffic.dest_mix.remote", 0.1)),
    ("wrong-json-type", "simulate", _set("traffic.attempts.call", "ten")),
    # The world graph, on generate_tree(1, 1): nodes 0-2, links b0 and z0n0.
    ("zone-nodes-not-a-list", "simulate", _set("zones.0.nodes", 5)),
    ("link-state-unknown", "simulate", _set("links.0.state", "sideways")),
    ("node-id-a-list", "simulate", _set("nodes.0.id", [1])),
    ("link-end-a-list", "simulate", _set("links.0.a", [0])),
    ("bandwidth-a-string", "simulate", _set("links.0.bandwidth_kbps", "x")),
    ("tx-power-a-string", "simulate", _set("nodes.1.tx_power_dbm", "x")),
    # `bonded` is no scenario key, so this is an unknown section.
    ("bonded-members-not-a-list", "simulate", _set("bonded", [{"members": 5}])),
    ("link-key-typo", "simulate", _set("links.0.bandwith_kbps", 100.0)),
    ("bandwidth-nan", "simulate", _set("links.0.bandwidth_kbps", float("nan"))),
    ("latency-infinite", "simulate", _set("links.0.latency_ms", float("inf"))),
    ("zone-prefix-a-number", "simulate", _set("zones.0.prefix", 5)),
    ("link-id-a-list", "simulate", _set("links.0.id", [])),
    # No code reads a zone gateway.
    ("zone-gateway", "simulate", _set("zones.0.gateway", 1)),
    # The rules that span entries hold for every subcommand, not only the
    # one that builds the graph.
    ("whitespace-dangling-link", "whitespace", _set("links.1.b", 99)),
    ("idbench-duplicate-node-id", "idbench", _set("nodes.2.id", 1)),
    ("whitespace-band-empty", "whitespace", _set("whitespace.band", {"first": 10, "last": 2})),
    # Shares of one whole: the draws take the last key as the complement.
    ("target-mix-short", "simulate", _set("failures.target_mix", {"cloud": 0.5, "zone": 0.0})),
    ("dest-mix-over", "simulate", _set("traffic.dest_mix", {"local": 0.5})),
    ("level-share-over", "simulate", _set("traffic.level_share", {"level3": 0.6})),
    # Draws from an empty pool.
    ("traffic-without-level2", "simulate", _only(1, "traffic")),
    ("failures-without-links", "simulate", _only(2, "traffic", "failures")),
    ("workload-without-community-node", "simulate", _only(1, "workload")),
    # The rules a section sets the graph hold for every subcommand too.
    ("whitespace-traffic-without-level2", "whitespace", _only(1, "traffic")),
    ("idbench-workload-on-cloud", "idbench", _set("workload.node", 0)),
    ("workload-items-empty", "simulate", _set("workload.items", [])),
    # Marketplace.sell takes one non-empty token per item: either would
    # fail a SELL mid-run.
    ("workload-item-two-words", "simulate", _set("workload.items", ["maize cob"])),
    ("workload-item-empty", "simulate", _set("workload.items", [""])),
    ("ngsm-user-count-0", "whitespace", _set("whitespace.ngsm.user_counts", [0])),
    # Nothing to iterate: each wrote a header-only CSV.
    ("ngsm-user-counts-empty", "whitespace", _set("whitespace.ngsm.user_counts", [])),
    ("ngsm-ratios-empty", "whitespace", _set("whitespace.ngsm.ratios", [])),
    ("idbench-models-empty", "idbench", _set("identity_bench.models", [])),
    # More work than one run may ask for (scenario.WORK_BOUND): refused
    # before a stream's events are counted or a file body is built.
    ("traffic-interval-tiny", "simulate", _set("traffic.interval_s", 1e-6)),
    ("failures-interval-tiny", "simulate", _set("failures.interval_s", 1e-6)),
    ("sell-period-tiny", "simulate", _set("workload.sell_period_s", 1e-9)),
    ("file-body-huge", "simulate", _set("workload", {"file_count": 1, "file_bytes": 10**12})),
    # The studies need no horizon: their work is bounded at load, before
    # an arrival, phone, channel or SMS is made.
    ("idbench-duration-huge", "idbench", _set("identity_bench.duration_s", 1e12)),
    ("idbench-servers-huge", "idbench", _set(
        "identity_bench.models", [{"model": "dht", "servers": 10**9}]
    )),
    ("organic-period-tiny", "whitespace", _set("whitespace.organic_period_s", 1e-9)),
    ("ngsm-users-huge", "whitespace", _set("whitespace.ngsm.user_counts", [10**9])),
    ("band-huge", "whitespace", _set("whitespace.band.last", 10**9)),
    ("whitespace-users-huge", "whitespace", _set("whitespace.users", 10**9)),
    # Integers too large for a float (400 digits).
    ("whitespace-users-overflow", "whitespace", _set("whitespace.users", 10**400)),
    ("call-attempts-overflow", "simulate", _set("traffic.attempts.call", 10**400)),
    ("idbench-load-overflow", "idbench", _set("identity_bench.load_rps", 10**400)),
]


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at 1 GiB above its current size,
    so that an input the checks let through into an unbounded loop (a
    zero failure interval did, before validation) ends in MemoryError
    instead of exhausting the host."""
    status = Path("/proc/self/status")
    if not status.exists():
        yield
        return
    vm_kb = next(
        int(line.split()[1])
        for line in status.read_text().splitlines()
        if line.startswith("VmSize:")
    )
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = vm_kb * 1024 + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "command, edit", [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_scenarios_exit_2_without_traceback(
    tmp_path, capsys, address_space_cap, command, edit
):
    scenario = json.loads(Path(sim_scenario(tmp_path)).read_text())
    edit(scenario)
    path = write_scenario(tmp_path, "bad.json", scenario)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    # Rejected at load, which names the file.
    assert path in captured.err
    # Rejected before any study ran.
    assert captured.out == "" and not out.exists()


def test_readme_example_scenario_runs_every_study(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(example)
    load_scenario(path)
    for argv in (["simulate", "--horizon", "300"], ["whitespace"], ["idbench"]):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_runtime_invariant_failures_exit_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise GreenLinksError("store diverged")

    monkeypatch.setattr(cli, "identity_latency_bench", boom)
    assert cli.main(["idbench", "--out", str(tmp_path / "o")]) == 3


# --------------------------------------------------------------- whitespace


def whitespace_scenario(tmp_path):
    return write_scenario(
        tmp_path,
        "ws.json",
        {
            "whitespace": {
                "users": 4,
                "volunteers": 2,
                "band": {"first": 1, "last": 12},
                "truth_occupied": [3],
                "n_free": 3,
                "t_free_s": 30.0,
                "ngsm": {"user_counts": [10, 20], "ratios": [0.1, 0.2]},
            }
        },
    )


def test_whitespace_artifacts_and_stdout(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "whitespace",
            "--scenario",
            whitespace_scenario(tmp_path),
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    match = re.search(
        r"occupancy: (\d+) occupied, (\d+) free, (\d+) unknown; "
        r"converged at (\S+) s; serving collisions (\d+)",
        stdout,
    )
    assert match, stdout
    header, rows = read_rows(out / "occupancy.csv")
    assert header == ["arfcn", "verdict", "t_verdict"]
    assert len(rows) == 12
    occupied = [int(r[0]) for r in rows if r[1] == "occupied"]
    assert occupied == [3]
    assert int(match.group(1)) == 1
    assert int(match.group(3)) == 0  # fully classified

    header, rows = read_rows(out / "ngsm_compare.csv")
    assert header == ["users", "ratio", "t_ngsm", "t_volunteer"]
    assert len(rows) == 4
    by_key = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows}
    for (users, _ratio), (t_ngsm, t_vol) in by_key.items():
        assert 0.0 < t_vol < t_ngsm
    # more volunteers per user only speeds the survey up
    assert by_key[("10", "0.2")][1] <= by_key[("10", "0.1")][1]
    # artifact values are minutes; cross-check one cell against the library
    t_ngsm_s, (t_vol_s,) = compare_ngsm(section("whitespace"), 10, [0.1], 0)
    assert by_key[("10", "0.1")] == (
        pytest.approx(t_ngsm_s / 60.0),
        pytest.approx(t_vol_s / 60.0),
    )


def test_whitespace_defaults_need_no_scenario(tmp_path, capsys):
    # the full-band study is slow; shrink it through a scenario but keep
    # every default knob untouched to prove the bare command still works
    out = tmp_path / "out"
    code = cli.main(
        [
            "whitespace",
            "--scenario",
            write_scenario(
                tmp_path,
                "tiny.json",
                {
                    "whitespace": {
                        "users": 2,
                        "volunteers": 1,
                        "band": {"first": 1, "last": 6},
                        "truth_occupied": [2],
                        "n_free": 2,
                        "t_free_s": 20.0,
                        "ngsm": None,
                    }
                },
            ),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "occupancy.csv").exists()
    _, rows = read_rows(out / "ngsm_compare.csv")
    assert rows == []


@pytest.mark.parametrize(
    "case, warning, summary",
    [
        (
            {"users": 0, "volunteers": 0},
            "warning: no reporting traffic; the whole band stays unknown",
            "0 occupied, 0 free, 8 unknown; converged at never",
        ),
        (
            {"evidence_ttl_s": 0.5},
            "warning: band not fully classified before traffic ran out",
            "converged at never",
        ),
    ],
    ids=["no-reporter", "never-converged"],
)
def test_whitespace_warns_when_the_band_stays_unclassified(
    tmp_path, capsys, case, warning, summary
):
    section = {
        "users": 4,
        "volunteers": 2,
        "band": {"first": 1, "last": 8},
        "n_free": 2,
        "t_free_s": 10.0,
        "ngsm": None,
        **case,
    }
    path = write_scenario(tmp_path, "ws.json", {"whitespace": section})
    out = tmp_path / "out"
    assert cli.main(["whitespace", "--scenario", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning + "\n"
    assert summary in captured.out
    _, rows = read_rows(out / "occupancy.csv")
    assert len(rows) == 8


# ------------------------------------------------------------------ idbench


def idbench_scenario(tmp_path):
    return write_scenario(
        tmp_path,
        "idb.json",
        {
            "identity_bench": {
                "models": [
                    {"model": "central", "servers": 1},
                    {"model": "dht", "servers": 4},
                ],
                "load_rps": 60.0,
                "duration_s": 10.0,
            }
        },
    )


def test_idbench_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "idbench",
            "--scenario",
            idbench_scenario(tmp_path),
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"^central/1: n=\d+ p50=\S+s p95=\S+s$", stdout, re.M)
    assert re.search(r"^dht/4: n=\d+ p50=\S+s p95=\S+s$", stdout, re.M)
    header, srows = read_rows(out / "idbench_summary.csv")
    assert header == ["model", "servers", "count", "p50", "p95", "mean"]
    assert [(r[0], r[1]) for r in srows] == [("central", "1"), ("dht", "4")]
    _, samples = read_rows(out / "idbench_samples.csv")
    assert len(samples) == sum(int(r[2]) for r in srows)

    again = tmp_path / "again"
    assert (
        cli.main(
            [
                "idbench",
                "--scenario",
                idbench_scenario(tmp_path),
                "--seed",
                "2",
                "--out",
                str(again),
            ]
        )
        == 0
    )
    assert (again / "idbench_samples.csv").read_bytes() == (
        out / "idbench_samples.csv"
    ).read_bytes()


# -------------------------------------------------------------- write_csv


def write_csv_three_way(path, header, rows):
    """write_csv as it was: every cell converted to a string first."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [
                f"{c:.6g}" if isinstance(c, float) else "" if c is None else str(c)
                for c in row
            ]
            for row in rows
        )


CELLS = st.one_of(st.floats(), st.integers(), st.text(), st.none(), st.booleans())
CONSTANTS = st.one_of(st.floats(), st.integers(), st.text(), st.booleans())


def is_constant(column):
    return isinstance(column, (str, int, float))


def expand(blocks):
    """The rows a table of column blocks stands for, one at a time."""
    rows = []
    for block in blocks:
        n = next(len(c) for c in block if not is_constant(c))
        rows.extend(zip(*([c] * n if is_constant(c) else list(c) for c in block)))
    return rows


@st.composite
def tables(draw):
    """(width, blocks): each block is 0-5 rows of cell lists, ranges,
    constants and lists shared with other blocks of the same length."""
    width = draw(st.integers(1, 4))
    shared = {}
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        block = []
        for _ in range(width):
            kind = draw(st.sampled_from(["cells", "shared", "range", "constant"]))
            if kind == "constant":
                block.append(draw(CONSTANTS))
            elif kind == "range":
                start = draw(st.integers(-3, 3))
                block.append(range(start, start + n))
            else:
                cells = draw(st.lists(CELLS, min_size=n, max_size=n))
                block.append(shared.setdefault(n, cells) if kind == "shared" else cells)
        if all(map(is_constant, block)):
            block[0] = draw(st.lists(CELLS, min_size=n, max_size=n))
        blocks.append(tuple(block))
    return width, blocks


SHARED = [0.5, None, 2.0]


@settings(max_examples=200, deadline=None)
@example(table=(1, [([None],), ([""],), ([1.0],), ([True],), ([None, None],)]))
@example(table=(2, []))  # a header-only table
@example(table=(3, [(["x"] * 3, SHARED, 1.5), ("dht", SHARED, [1, 2, 3])]))
@example(table=(4, [("central", 1, range(3), SHARED), ("dht", 10, range(3), SHARED)]))
@example(table=(2, [(range(0), []), ([None, None, None], 7)]))
@example(table=(2, [(SHARED, SHARED)]))  # one column object twice in a block
@given(table=tables())
def test_write_csv_converts_only_floats_and_writes_the_same_bytes(table):
    width, blocks = table
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        with mock.patch.object(cli, "_cells", wraps=cli._cells) as cells:
            cli.write_csv(new, header, iter(blocks))
        write_csv_three_way(old, header, expand(blocks))
        assert new.read_bytes() == old.read_bytes()
    # every column object is formatted once, however many blocks hold it
    columns = {id(c) for block in blocks for c in block if not is_constant(c)}
    assert cells.call_count == len(columns)


@pytest.mark.parametrize(
    "block", [([1, 2], [3]), ("a", 2.0), (None, [1])], ids=["ragged", "constants", "none"]
)
def test_write_csv_rejects_a_block_without_one_length(tmp_path, block):
    with pytest.raises((ValueError, TypeError)):
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], [block])


def write_samples_row_by_row(path, benches):
    """idbench_samples.csv one row at a time through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "servers", "index", "arrival", "server", "sojourn"])
        for bench in benches:
            for i, (arrival, server, sojourn) in enumerate(
                zip(bench.arrivals, bench.routed, bench.sojourns)
            ):
                writer.writerow(
                    [bench.model, bench.servers, i, f"{arrival:.6g}", server, f"{sojourn:.6g}"]
                )


SPECS = st.lists(
    st.one_of(
        st.just({"model": "central", "servers": 1}),
        st.builds(lambda n: {"model": "dht", "servers": n}, st.integers(1, 30)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(
    models=SPECS,
    load_rps=st.floats(1.0, 200.0),
    duration_s=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**32),
)
def test_idbench_samples_match_a_row_by_row_writer(models, load_rps, duration_s, seed):
    bench = {"models": models, "load_rps": load_rps, "duration_s": duration_s}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario = write_scenario(tmp, "idb.json", {"identity_bench": bench})
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["idbench", "--scenario", scenario, "--seed", str(seed), "--out", str(out)])
        assert code == 0
        benches = identity_latency_bench(section("identity_bench", bench), seed)
        write_samples_row_by_row(tmp / "ref.csv", benches)
        assert (out / "idbench_samples.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


# ------------------------------------------------------ integer-valued floats


INTEGER_FLOATS = [
    (
        "whitespace",
        {
            "users": 4,
            "volunteers": 2,
            "volunteer_period_s": 30,
            "organic_period_s": 120,
            "band": {"first": 1, "last": 12},
            "truth_occupied": [3, 9],
            "n_free": 6,
            "t_free_s": 120,
            "evidence_ttl_s": 86400,
            "radius": 1,
            "ngsm": {"user_counts": [10], "ratios": [0.1]},
        },
        ("occupancy.csv", "ngsm_compare.csv"),
    ),
    (
        "identity_bench",
        {"load_rps": 150, "duration_s": 10, "service_s": 0, "latency_s": 1},
        ("idbench_samples.csv", "idbench_summary.csv"),
    ),
]


@pytest.mark.parametrize(
    "name, values, artifacts", INTEGER_FLOATS, ids=[c[0] for c in INTEGER_FLOATS]
)
def test_floats_spelled_as_integers_write_the_same_bytes(
    tmp_path, capsys, name, values, artifacts
):
    # section() has typed these values; the study uses them as given, so
    # 150 and 150.0 must give byte-identical artifacts.
    defaults = SECTIONS[name]
    floats = {
        k: float(v) if isinstance(defaults[k], float) else v for k, v in values.items()
    }
    assert json.dumps(floats) != json.dumps(values)
    command = "idbench" if name == "identity_bench" else name
    written = {}
    for label, cfg in (("int", values), ("float", floats)):
        path = write_scenario(tmp_path, f"{label}.json", {name: cfg})
        out = tmp_path / label
        assert cli.main([command, "--scenario", path, "--seed", "4", "--out", str(out)]) == 0
        written[label] = [(out / a).read_bytes() for a in artifacts]
    assert written["int"] == written["float"]


# --------------------------------------------------------------------- apps


def test_apps_search_buy_sell_round_trip(capsys):
    assert cli.main(["apps", "SEARCH maize"]) == 0
    stdout = capsys.readouterr().out
    assert re.search(r"^L1-1 maize 10@2\.5 \d+$", stdout, re.M)
    assert re.search(r"^L1-2 maize 4@3 \d+$", stdout, re.M)
    assert "answered at" in stdout

    assert cli.main(["apps", "BUY L1-1"]) == 0
    stdout = capsys.readouterr().out
    assert "bought L1-1: 10x maize at 2.5" in stdout
    assert "confirmed at" in stdout

    assert cli.main(["apps", "SELL beans 3 1.5"]) == 0
    stdout = capsys.readouterr().out
    assert "queued L1-4: beans 3@1.5" in stdout
    assert "receipt at" in stdout


def test_apps_reports_domain_errors_without_failing(capsys):
    assert cli.main(["apps", "BUY L9-99"]) == 0
    assert "ListingNotFound" in capsys.readouterr().out
    assert cli.main(["apps", "SEARCH nothing"]) == 0
    assert "no listings for nothing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenario",
    [
        {"nodes": [{"id": 0, "role": "cloud"}]},
        {
            "nodes": [{"id": 0, "role": "cloud"}, {"id": 1, "role": "level2"}],
            "zones": [{"id": "z0", "nodes": [1], "prefix": "10.0"}],
        },
    ],
    ids=["no-community-node", "site-cut-off"],
)
def test_apps_on_a_scenario_it_cannot_serve_exits_2(tmp_path, capsys, scenario):
    path = write_scenario(tmp_path, "apps.json", scenario)
    assert cli.main(["apps", "--scenario", path, "SEARCH maize"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_apps_grammar_errors_exit_2(capsys):
    assert cli.main(["apps", "LEND maize"]) == 2
    assert "error:" in capsys.readouterr().err


def test_apps_takes_no_out_flag(capsys):
    # apps prints to stdout and writes no file.
    with pytest.raises(SystemExit) as exc:
        cli.main(["apps", "--out", "x", "SEARCH maize"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


@pytest.mark.parametrize("price", ["nan", "inf"])
def test_apps_rejects_a_price_that_is_not_finite(capsys, price):
    assert cli.main(["apps", f"SELL maize 3 {price}"]) == 0
    assert capsys.readouterr().out.startswith("InvalidListing: price must be")

"""The four benchmark workloads.

Each workload knows its scenario file, the CLI command line of one unit,
the oracle that checks a unit's artifacts and the model statistics read
from them.  Scenarios are built only through the public
``greenlinks.scenario.generate_tree`` and spell only keys the code reads.

A unit is one ``greenlinks.cli.main`` invocation.  Unit ``k`` of pass
``p`` gets the simulator seed ``base + (p * units_per_pass + k) * runs``,
with ``base = seed * SEED_STRIDE``, so no replication repeats within a
run or between runs with different workload seeds.

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the
self-test, which runs the same code paths on small inputs.
"""

from __future__ import annotations

import csv
import re
import statistics
from pathlib import Path

SEED_STRIDE = 100_000

# Relative slack for comparisons between two values that the CLI wrote
# with 6 significant digits.
_ROUNDING = 1e-5


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close_le(a: float, b: float) -> bool:
    """a <= b, allowing for both having been rounded to 6 digits."""
    return a <= b + _ROUNDING * max(1.0, abs(a), abs(b))


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _latency_p50(rows: list[dict[str, str]], app_type: str, klass: str) -> float:
    return _p50(
        [
            float(r["delivered_at"]) - float(r["enqueued_at"])
            for r in rows
            if r["app_type"] == app_type and r["class"] == klass
        ]
    )


def scheduled_sells(workload: dict) -> int:
    """SELL events apps.Workload.schedule() puts on the calendar."""
    sellers = workload["sellers"]
    period = workload["sell_period_s"]
    count = 0
    for i in range(sellers):
        t = period * i / max(1, sellers)
        while t < workload["until_s"]:
            count += 1
            t += period
    return count


class _Workload:
    name = ""
    units_per_pass = 1
    runs_per_unit = 1

    def __init__(self, size: str):
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.size = size

    def seeds(self, seed: int, pass_index: int) -> list[int]:
        base = seed * SEED_STRIDE
        first = pass_index * self.units_per_pass
        return [
            base + (first + k) * self.runs_per_unit
            for k in range(self.units_per_pass)
        ]

    def scenario(self) -> dict:
        raise NotImplementedError

    def argv(self, scenario_path: Path, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, stdout: str, scenario: dict) -> list[str]:
        """Oracle: a list of problems, empty when the unit is correct."""
        raise NotImplementedError

    def model(self, out: Path, stdout: str, scenario: dict) -> dict[str, float]:
        raise NotImplementedError


class AvailTree(_Workload):
    """Headline availability study at deployment scale.

    551-node ``generate_tree(50, 10)`` on hsdpa, 200 attempts per service
    per 60 s, a failure draw every 30 s with a 600 s mean outage, over a
    7200 s horizon; node 1 also runs the light marketplace (4 sellers,
    3 buyers, FIFO, SMS only).

    Exercises the O(N) cross-zone pool in ``_draw_dest``, per-flip
    component labelling in ``evaluate_dual`` and the repeated
    ``flush_pending`` on every link restore.  Does not exercise the
    shared-backhaul defect (only node 1 queues) nor the interval-count
    mismatch (7200 / 60 is a whole number).
    """

    name = "avail_tree"
    units_per_pass = 2
    runs_per_unit = 2

    def __init__(self, size: str):
        super().__init__(size)
        full = size == "full"
        self.horizon = 7200.0 if full else 600.0
        self.tree = (50, 10) if full else (3, 2)
        self.attempts = 200 if full else 5

    def scenario(self) -> dict:
        from greenlinks.scenario import generate_tree

        scenario = generate_tree(*self.tree, backhaul_profile="hsdpa")
        scenario["traffic"] = {
            "interval_s": 60.0,
            "attempts": {s: self.attempts for s in ("call", "sms", "data")},
        }
        scenario["failures"] = {
            "interval_s": 30.0,
            "outage_mean_s": 600.0,
            "target_mix": {"cloud": 0.5, "zone": 0.5},
        }
        scenario["workload"] = {
            "node": 1,
            "sellers": 4,
            "buyers": 3,
            "file_count": 0,
            "until_s": self.horizon,
        }
        return scenario

    def argv(self, scenario_path, seed, out):
        return [
            "simulate",
            "--scenario", str(scenario_path),
            "--runs", str(self.runs_per_unit),
            "--horizon", f"{self.horizon:g}",
            "--seed", str(seed),
            "--out", str(out),
        ]

    def check(self, out, stdout, scenario):
        problems = []
        summary = {r["metric"]: float(r["mean"]) for r in _rows(out / "summary.csv")}
        if summary.get("containment_violations") != 0.0:
            problems.append(
                f"containment_violations = {summary.get('containment_violations')}"
            )
        for vc, cell in (("vce", "cce"), ("vse", "cse"), ("vde", "cde")):
            if vc not in summary or cell not in summary:
                problems.append(f"summary.csv lacks {vc}/{cell}")
            elif not summary[vc] <= summary[cell]:
                problems.append(f"{vc} {summary[vc]} > {cell} {summary[cell]}")
        run_lines = [l for l in stdout.splitlines() if l.startswith("run: ")]
        if len(run_lines) != self.runs_per_unit:
            problems.append(f"{len(run_lines)} 'run:' lines for {self.runs_per_unit} runs")
        return problems

    def model(self, out, stdout, scenario):
        summary = {r["metric"]: float(r["mean"]) for r in _rows(out / "summary.csv")}
        latency = _rows(out / "latency.csv")
        stats = {}
        for service, vc, cell in (
            ("call", "vce", "cce"),
            ("sms", "vse", "cse"),
            ("data", "vde", "cde"),
        ):
            stats[f"model.vc_drop.{service}"] = summary[vc]
            stats[f"model.cell_drop.{service}"] = summary[cell]
            stats[f"model.gap.{service}"] = summary[cell] - summary[vc]
        stats["model.sell_p50_s"] = _latency_p50(latency, "market", "slowput")
        stats["model.buy_p50_s"] = _latency_p50(latency, "market", "fastget")
        return stats


class MarketBacklog(_Workload):
    """Deep priority queue on one 200 kbps / 300 ms edge site.

    40 sellers and 30 buyers every 10 s for 3600 s, 120 x 1 MB files every
    30 s, backhaul failure draws every 300 s with a 120 s mean outage;
    the run drains to completion.  No ``traffic`` section, so attempt
    drawing and ``evaluate_dual`` are bypassed.

    Exercises the O(n) priority take (``min`` plus ``list.remove``) and
    eta scans, per-completion store apply, and fastget failures while
    the backhaul is down.  Does not exercise the shared-backhaul defect
    (one site), ``CloudStore.search``, the message board or
    ``depth_bytes``.
    """

    name = "market_backlog"
    units_per_pass = 2

    def __init__(self, size: str):
        super().__init__(size)
        full = size == "full"
        self.horizon = 3600.0 if full else 300.0
        self.workload = {
            "sellers": 40 if full else 4,
            "buyers": 30 if full else 3,
            "sell_period_s": 10.0,
            "buy_period_s": 10.0,
            "until_s": self.horizon,
            "file_count": 120 if full else 5,
            "file_bytes": 1_000_000 if full else 100_000,
            "file_period_s": 30.0,
        }

    def scenario(self) -> dict:
        from greenlinks.scenario import generate_tree

        scenario = generate_tree(1, 0, backhaul_profile="edge")
        scenario["failures"] = {
            "interval_s": 300.0,
            "outage_mean_s": 120.0,
            "target_mix": {"cloud": 1.0, "zone": 0.0},
        }
        scenario["sync"] = {"fastget_timeout_s": 30.0}
        scenario["workload"] = dict(self.workload)
        return scenario

    def argv(self, scenario_path, seed, out):
        return [
            "simulate",
            "--scenario", str(scenario_path),
            "--priority-queue",
            "--horizon", f"{self.horizon:g}",
            "--seed", str(seed),
            "--out", str(out),
        ]

    def check(self, out, stdout, scenario):
        problems = []
        rows = _rows(out / "latency.csv")
        ids = [r["request_id"] for r in rows]
        if len(set(ids)) != len(ids):
            problems.append(f"{len(ids) - len(set(ids))} duplicate request ids")
        sells = [r for r in rows if r["app_type"] == "market" and r["class"] == "slowput"]
        files = [r for r in rows if r["app_type"] == "file" and r["class"] == "slowput"]
        wl = scenario["workload"]
        want_sells = scheduled_sells(wl)
        if len(sells) != want_sells:
            problems.append(f"{len(sells)} SELL rows for {want_sells} scheduled")
        if len(files) != wl["file_count"]:
            problems.append(f"{len(files)} file rows for {wl['file_count']} scheduled")
        if any(int(r["bytes"]) != wl["file_bytes"] for r in files):
            problems.append("a file row has the wrong size")
        late = [
            r["request_id"]
            for r in rows
            if not _close_le(float(r["enqueued_at"]), float(r["delivered_at"]))
        ]
        if late:
            problems.append(f"delivered before enqueued: {late[:3]}")
        timeout = scenario["sync"]["fastget_timeout_s"]
        slow = [
            r["request_id"]
            for r in rows
            if r["class"] == "fastget"
            and not _close_le(
                float(r["delivered_at"]) - float(r["enqueued_at"]), timeout
            )
        ]
        if slow:
            problems.append(f"fastget sojourn over {timeout:g} s: {slow[:3]}")
        return problems

    def model(self, out, stdout, scenario):
        rows = _rows(out / "latency.csv")
        return {
            "model.sell_p50_s": _latency_p50(rows, "market", "slowput"),
            "model.buy_p50_s": _latency_p50(rows, "market", "fastget"),
            "model.file_p50_s": _latency_p50(rows, "file", "slowput"),
            "model.buys_answered": float(
                sum(1 for r in rows if r["class"] == "fastget")
            ),
        }


_CONVERGED = re.compile(r"converged at (\S+)")


class WhitespaceBand(_Workload):
    """The default whitespace study, spelled out as a scenario.

    124 ARFCNs, 25 users and 5 volunteers, 9 occupied channels, plus the
    10 x 2 NGSM sweep.  The detector's ingest, plan and unknown-count
    scans are nearly all of the time; there is no engine, sync or
    identity work.

    Exercises the per-batch ``unknown_count`` scan and the per-batch
    sorts in ``plan_scan`` and ``maybe_switch_channel``.  Exercises none
    of the simulator defects.
    """

    name = "whitespace_band"
    units_per_pass = 2

    def scenario(self) -> dict:
        if self.size == "full":
            section = {
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
            }
        else:
            section = {
                "users": 10,
                "volunteers": 4,
                "band": {"first": 1, "last": 24},
                "truth_occupied": [3, 11, 17],
                "n_free": 10,
                "t_free_s": 120.0,
                "radius": 0.3,
                "ngsm": {"user_counts": [10, 20], "ratios": [0.1, 0.2]},
            }
        return {"whitespace": section}

    def argv(self, scenario_path, seed, out):
        return [
            "whitespace",
            "--scenario", str(scenario_path),
            "--seed", str(seed),
            "--out", str(out),
        ]

    def check(self, out, stdout, scenario):
        problems = []
        cfg = scenario["whitespace"]
        band = list(range(cfg["band"]["first"], cfg["band"]["last"] + 1))
        rows = _rows(out / "occupancy.csv")
        arfcns = [int(r["arfcn"]) for r in rows]
        if sorted(arfcns) != band:
            problems.append("occupancy.csv does not list every ARFCN exactly once")
        occupied = {int(r["arfcn"]) for r in rows if r["verdict"] == "occupied"}
        if not occupied <= set(cfg["truth_occupied"]):
            problems.append(
                f"occupied outside truth: {sorted(occupied - set(cfg['truth_occupied']))}"
            )
        match = _CONVERGED.search(stdout)
        if match is None:
            problems.append("no occupancy summary line")
        elif match.group(1) != "never":
            unknown = sum(1 for r in rows if r["verdict"] == "unknown")
            if unknown:
                problems.append(f"converged with {unknown} unknown channels")
        compare = _rows(out / "ngsm_compare.csv")
        want = len(cfg["ngsm"]["user_counts"]) * len(cfg["ngsm"]["ratios"])
        if len(compare) != want:
            problems.append(f"{len(compare)} ngsm rows for {want}")
        for r in compare:
            if not _close_le(float(r["t_volunteer"]), float(r["t_ngsm"])):
                problems.append(
                    f"t_volunteer > t_ngsm at users={r['users']} ratio={r['ratio']}"
                )
        return problems

    def model(self, out, stdout, scenario):
        rows = _rows(out / "occupancy.csv")
        truth = set(scenario["whitespace"]["truth_occupied"])
        occupied = {int(r["arfcn"]) for r in rows if r["verdict"] == "occupied"}
        match = _CONVERGED.search(stdout)
        converged = match.group(1) if match else "never"
        compare = _rows(out / "ngsm_compare.csv")
        speedups = [
            float(r["t_ngsm"]) / float(r["t_volunteer"])
            for r in compare
            if float(r["t_volunteer"]) > 0
        ]
        return {
            "model.converged_s": float(converged) if converged != "never" else -1.0,
            "model.missed_truth": float(len(truth - occupied)),
            "model.ngsm_speedup_p50": _p50(speedups),
        }


class IdbenchRing(_Workload):
    """Identity lookups at 150 rps (1.5x one server's capacity) against
    ``central/1``, ``dht/10`` and ``dht/100``.

    Exercises ``resolver_for`` rehashing every ring member per lookup;
    ``central`` never calls the resolver, so the bypass sits inside the
    same study.  Writing the sample CSV is a visible ``cli`` share.
    Exercises none of the simulator defects.
    """

    name = "idbench_ring"
    units_per_pass = 3

    def scenario(self) -> dict:
        return {
            "identity_bench": {
                "models": [
                    {"model": "central", "servers": 1},
                    {"model": "dht", "servers": 10},
                    {"model": "dht", "servers": 100},
                ],
                "load_rps": 150.0,
                "duration_s": 60.0 if self.size == "full" else 5.0,
                "service_s": 0.01,
                "latency_s": 0.1,
            }
        }

    def argv(self, scenario_path, seed, out):
        return [
            "idbench",
            "--scenario", str(scenario_path),
            "--seed", str(seed),
            "--out", str(out),
        ]

    def check(self, out, stdout, scenario):
        problems = []
        cfg = scenario["identity_bench"]
        summary = _rows(out / "idbench_summary.csv")
        if len(summary) != len(cfg["models"]):
            problems.append(f"{len(summary)} summary rows for {len(cfg['models'])} models")
        counts = {int(r["count"]) for r in summary}
        if len(counts) > 1:
            problems.append(f"sample counts differ across models: {sorted(counts)}")
        floor = 2 * cfg["latency_s"] + cfg["service_s"]
        per_model: dict[tuple[str, str], int] = {}
        bad_server = bad_sojourn = 0
        for r in _rows(out / "idbench_samples.csv"):
            key = (r["model"], r["servers"])
            per_model[key] = per_model.get(key, 0) + 1
            if not 0 <= int(r["server"]) < int(r["servers"]):
                bad_server += 1
            if not _close_le(floor, float(r["sojourn"])):
                bad_sojourn += 1
        if bad_server:
            problems.append(f"{bad_server} samples outside 0 <= server < servers")
        if bad_sojourn:
            problems.append(f"{bad_sojourn} sojourns below 2*latency + service")
        for r in summary:
            got = per_model.get((r["model"], r["servers"]), 0)
            if got != int(r["count"]):
                problems.append(
                    f"{r['model']}/{r['servers']}: {got} samples, summary says {r['count']}"
                )
        return problems

    def model(self, out, stdout, scenario):
        stats = {}
        for r in _rows(out / "idbench_summary.csv"):
            tag = f"{r['model']}_{r['servers']}"
            stats[f"model.idbench.{tag}.p50_s"] = float(r["p50"])
            stats[f"model.idbench.{tag}.p95_s"] = float(r["p95"])
        return stats


WORKLOADS = {
    cls.name: cls for cls in (AvailTree, MarketBacklog, WhitespaceBand, IdbenchRing)
}

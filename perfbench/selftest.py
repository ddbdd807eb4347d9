"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it runs the benchmark in both modes on tiny inputs
and checks that:

* each mode prints every metric of BENCHMARK.json with its unit and
  reports the run correct;
* the same seed gives the same pass-0 digest twice untraced and once
  traced, and the traced run repeats its exact counts;
* the traced self times plus the remainder account for the traced time;
* every oracle condition fires on a deliberately corrupted artifact.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SEED = 7
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, seconds: float) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(
            ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
             "--trace", str(trace)],
            size="tiny",
        )
    text = out.getvalue()
    check(code == 0, f"{workload} trace={trace}: exit code {code}")
    return text, json.loads(text.strip().splitlines()[-1])


def pass0_digest(text: str) -> str:
    return re.search(r"^digest pass0 (\w+)$", text, re.M).group(1)


def check_printed(workload: str, text: str, result: dict, expected: list[dict]) -> None:
    printed = dict(re.findall(r"^metric (\S+) \S+ (\S+)$", text, re.M))
    want = {m["name"]: m["unit"] for m in expected}
    check(printed == want, f"{workload}: {len(want)} metrics printed with their units")
    check(set(result["metrics"]) == set(want), f"{workload}: result line has every metric")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: correct, {result['attempted']} attempted, {result['failed']} failed")


# ------------------------------------------------------------ corruption


def edit_csv(path: Path, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    rows = change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def set_field(match, field, value):
    def change(rows):
        for r in rows:
            if match(r):
                r[field] = value(r)
                break
        return rows
    return change


def drop_first(match):
    def change(rows):
        for i, r in enumerate(rows):
            if match(r):
                return rows[:i] + rows[i + 1:]
        return rows
    return change


def duplicate_first(rows):
    return rows[:1] + rows


def anything(_row):
    return True


CORRUPTIONS = {
    "avail_tree": [
        ("containment violation", "summary.csv", set_field(
            lambda r: r["metric"] == "containment_violations", "mean", lambda r: "1")),
        ("vc drop above cell drop", "summary.csv", set_field(
            lambda r: r["metric"] == "vce", "mean", lambda r: "2")),
        ("missing run line", None, lambda stdout: stdout.split("\n", 1)[1]),
    ],
    "market_backlog": [
        ("duplicate request id", "latency.csv", duplicate_first),
        ("missing SELL", "latency.csv", drop_first(
            lambda r: r["app_type"] == "market" and r["class"] == "slowput")),
        ("missing file", "latency.csv", drop_first(lambda r: r["app_type"] == "file")),
        ("delivered before enqueued", "latency.csv", set_field(
            anything, "delivered_at", lambda r: str(float(r["enqueued_at"]) - 1))),
        ("fastget over its timeout", "latency.csv", set_field(
            lambda r: r["class"] == "fastget", "delivered_at",
            lambda r: str(float(r["enqueued_at"]) + 31))),
    ],
    "whitespace_band": [
        ("missing ARFCN", "occupancy.csv", drop_first(anything)),
        ("occupied outside truth", "occupancy.csv", set_field(
            lambda r: r["arfcn"] == "1", "verdict", lambda r: "occupied")),
        ("unknown after convergence", "occupancy.csv", set_field(
            lambda r: r["verdict"] == "free", "verdict", lambda r: "unknown")),
        ("volunteers slower than NGSM", "ngsm_compare.csv", set_field(
            anything, "t_volunteer", lambda r: str(float(r["t_ngsm"]) + 1))),
    ],
    "idbench_ring": [
        ("server out of range", "idbench_samples.csv", set_field(
            anything, "server", lambda r: r["servers"])),
        ("sojourn below 2*latency + service", "idbench_samples.csv", set_field(
            anything, "sojourn", lambda r: "0.1")),
        ("unequal counts across models", "idbench_summary.csv", set_field(
            lambda r: r["model"] == "dht", "count", lambda r: str(int(r["count"]) - 1))),
    ],
}


def check_oracles(name: str, cli) -> None:
    wl = WORKLOADS[name]("tiny")
    work = run.ROOT / run.WORK_DIR / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = wl.scenario()
    scenario_path = work / f"{name}.json"
    scenario_path.write_text(json.dumps(scenario))
    clean = work / "clean"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(wl.argv(scenario_path, SEED, clean))
    stdout = stdout.getvalue()
    check(code == 0 and wl.check(clean, stdout, scenario) == [],
          f"{name}: oracle passes the clean artifacts")
    for label, target, change in CORRUPTIONS[name]:
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(clean, bad)
        bad_stdout = stdout
        if target is None:
            bad_stdout = change(stdout)
        else:
            edit_csv(bad / target, change)
        problems = wl.check(bad, bad_stdout, scenario)
        check(bool(problems), f"{name}: oracle fires on {label}: {problems[:1]}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        text, result = bench(name, 0, 0.1)
        check_printed(name, text, result, spec["end_to_end"])
        again, _ = bench(name, 0, 0.1)
        check(pass0_digest(text) == pass0_digest(again), f"{name}: same seed, same digest")

        traced_text, traced = bench(name, 1, 2.0)
        check_printed(name, traced_text, traced, spec["per_layer"])
        check(pass0_digest(traced_text) == pass0_digest(text),
              f"{name}: traced digest equals untraced digest")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        pairs = len(re.findall(r"^unit .* traced=1 ", traced_text, re.M))
        pairs //= WORKLOADS[name].units_per_pass
        check(pairs >= 2 and "problem " not in traced_text,
              f"{name}: exact counts repeat over {pairs} traced passes")
        # Each is a median over traced passes, so the sum is close, not exact.
        check(abs(m["trace.self_sum_s"] + m["trace.remainder_s"] - m["trace.run_s"])
              <= 0.01 * m["trace.run_s"]
              and 0 <= m["trace.remainder_s"] < 0.05 * m["trace.run_s"],
              f"{name}: self times {m['trace.self_sum_s']:.4f} s + remainder "
              f"{m['trace.remainder_s']:.6f} s account for {m['trace.run_s']:.4f} s")
    cli = run.import_cli()
    for name in WORKLOADS:
        check_oracles(name, cli)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

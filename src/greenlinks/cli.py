"""Command line front end.

Subcommands:

* simulate   -- run a scenario (availability study and/or app workload);
                writes metrics.csv, latency.csv, summary.csv and, with
                --trace, trace.log.
* whitespace -- run the channel-detection study; writes occupancy.csv
                and ngsm_compare.csv.
* idbench    -- identity lookup latency under load; writes
                idbench_samples.csv and idbench_summary.csv.
* apps       -- one-shot marketplace command against a seeded demo
                catalog, e.g. 'SEARCH maize'.

Seed precedence: --seed beats GREENLINKS_SEED beats 0.  Exit codes:
0 success, 2 configuration error (bad flags or scenario), 3 runtime
invariant violation.  All floats in artifacts use 6 significant digits,
and a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from itertools import repeat
from pathlib import Path

from . import apps as apps_mod
from .errors import GreenLinksError, ScenarioError
from .scenario import check_scenario, generate_tree, load_scenario
from .simcore import (
    METRICS,
    Simulation,
    aggregate,
    identity_latency_bench,
    interval_means,
    replicate,
)
from .whitespace import compare_ngsm, detection_study
from .whitespace import run_detection  # unused here; perfbench/tracing.py wraps it

DEFAULT_HORIZON = 3600.0
# A column of one of these types is a constant repeated down its block.
CONSTANT = (str, int, float)


def write_csv(path: Path, header: list[str], blocks) -> None:
    """Write a table given as blocks of columns.

    ``blocks`` is an iterable of blocks, each a tuple with one column per
    header field.  A column is a sequence (a list, tuple or range) or a
    str, int or float constant repeated down its block; every sequence of
    a block has the block's length, and a block has at least one.  An
    empty list writes the header alone.

    Cells: floats as 6 significant digits; csv.writer writes None as an
    empty cell and the rest through str().  Each column object is
    formatted once per call.  A column held by one block is formatted
    lazily as its rows are written; one held more often (every idbench
    model's block holds the one arrivals list) is formatted into a list
    that is dropped after the last block that holds it.
    """
    blocks = list(blocks)
    uses: dict[int, int] = {}
    for block in blocks:
        for column in block:
            if not isinstance(column, CONSTANT):
                uses[id(column)] = uses.get(id(column), 0) + 1
    # id(column) -> its cells.  The blocks list holds every column, and
    # so its id, for the whole call.
    formatted: dict[int, object] = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for block in blocks:
            lengths = {len(c) for c in block if not isinstance(c, CONSTANT)}
            if len(lengths) != 1:
                raise ValueError(f"block sequence lengths {sorted(lengths)}; need one")
            (n,) = lengths
            cells = []
            for column in block:
                if isinstance(column, CONSTANT):
                    if isinstance(column, float):
                        column = f"{column:.6g}"
                    cells.append(repeat(column, n))
                    continue
                key = id(column)
                if key not in formatted:
                    once = _cells(column)
                    formatted[key] = once if uses[key] == 1 else list(once)
                cells.append(formatted[key])
                uses[key] -= 1
                if not uses[key]:
                    del formatted[key]
            writer.writerows(zip(*cells))


def _cells(column):
    """A column's cells for csv.writer, lazily: floats formatted, the rest
    as they are.  A column without floats is returned unchanged."""
    if any(issubclass(t, float) for t in set(map(type, column))):
        return (f"{c:.6g}" if isinstance(c, float) else c for c in column)
    return column


def resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GREENLINKS_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ScenarioError(f"GREENLINKS_SEED must be an integer, got {env!r}")
    return 0


def loaded_scenario(args, default: dict) -> dict:
    """The --scenario file, loaded, or else ``default`` loaded."""
    return load_scenario(args.scenario) if args.scenario else check_scenario(default)


def out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = resolve_seed(args)
    runs = args.runs
    if runs < 1:
        raise ScenarioError("--runs must be at least 1")
    horizon = args.horizon
    if horizon is None:
        horizon = DEFAULT_HORIZON if scenario["traffic"] is not None else None

    # Keep only each run's ledger and latency columns, and run 0's trace
    # events under --trace: no finished run stays alive while the next
    # one runs.
    ledgers = []
    latency_blocks = []
    trace_events = None
    i = 0
    for result in replicate(
        scenario,
        runs,
        horizon,
        base_seed=seed,
        priority_queue=args.priority_queue,
        trace=args.trace,
    ):
        if result.ledger is not None:
            ledgers.append(result.ledger)
        prefix = f"r{i}-" if runs > 1 else ""
        latency_blocks.append(
            (
                [prefix + rec.request_id for rec in result.latency],
                [rec.klass for rec in result.latency],
                [rec.app_type for rec in result.latency],
                [rec.size for rec in result.latency],
                [rec.enqueued_at for rec in result.latency],
                [rec.delivered_at for rec in result.latency],
            )
        )
        if i == 0:
            trace_events = result.trace
        del result  # the loop name would hold this run through the next one
        i += 1

    outdir = out_dir(args)
    write_csv(
        outdir / "metrics.csv",
        ["interval", *METRICS.keys()],
        [interval_means(ledgers)],
    )
    write_csv(
        outdir / "latency.csv",
        ["request_id", "class", "app_type", "bytes", "enqueued_at", "delivered_at"],
        latency_blocks,
    )

    mc = aggregate(ledgers)
    violations = mc.containment_violations
    metrics = list(METRICS) if ledgers else []
    summary = (
        [*metrics, "containment_violations"],
        [*map(mc.mean, metrics), float(violations)],
        [*map(mc.stdev, metrics), 0.0],
        [*map(mc.ci95, metrics), 0.0],
    )
    write_csv(outdir / "summary.csv", ["metric", "mean", "stdev", "ci95"], [summary])

    if args.trace:
        with open(outdir / "trace.log", "w") as fh:
            for event in trace_events:
                if event[0] == "link":
                    _, at, link_id, state = event
                    fh.write(f"{at:.6f} LINK {link_id} {state}\n")
                else:
                    _, at, src, dst, service = event
                    fh.write(f"{at:.6f} ATTEMPT {src} {dst} {service}\n")

    for lg in ledgers:
        print("run: " + " ".join(f"{m}={lg.overall(m):.6g}" for m in METRICS))
    if violations:
        print(
            f"containment violated on {violations} attempts", file=sys.stderr
        )
        return 3
    return 0


# ------------------------------------------------------------- whitespace


def cmd_whitespace(args) -> int:
    cfg = loaded_scenario(args, {})["whitespace"]
    seed = resolve_seed(args)

    detector, run = detection_study(cfg, seed)
    if cfg["users"] + cfg["volunteers"] == 0:
        print("warning: no reporting traffic; the whole band stays unknown", file=sys.stderr)
    elif run.converged_at is None:
        print("warning: band not fully classified before traffic ran out", file=sys.stderr)

    rows = detector.occupancy_rows()
    occupied = sum(1 for _, v, _ in rows if v == "occupied")
    free = sum(1 for _, v, _ in rows if v == "free")
    unknown = sum(1 for _, v, _ in rows if v == "unknown")
    when = f"{run.converged_at:.6g} s" if run.converged_at is not None else "never"
    print(
        f"occupancy: {occupied} occupied, {free} free, {unknown} unknown; "
        f"converged at {when}; serving collisions {run.collisions}"
    )

    compare_blocks = []
    ngsm = cfg.get("ngsm")
    if ngsm:
        for users_n in ngsm["user_counts"]:
            t_ngsm, t_vols = compare_ngsm(
                users_n,
                ngsm["ratios"],
                seed=seed,
                organic_period_s=cfg["organic_period_s"],
                volunteer_period_s=cfg["volunteer_period_s"],
            )
            compare_blocks.append(
                (users_n, ngsm["ratios"], t_ngsm / 60.0, [t / 60.0 for t in t_vols])
            )
    outdir = out_dir(args)
    write_csv(
        outdir / "occupancy.csv", ["arfcn", "verdict", "t_verdict"], [tuple(zip(*rows))]
    )
    write_csv(
        outdir / "ngsm_compare.csv",
        ["users", "ratio", "t_ngsm", "t_volunteer"],
        compare_blocks,
    )
    return 0


# ---------------------------------------------------------------- idbench


def cmd_idbench(args) -> int:
    cfg = loaded_scenario(args, {})["identity_bench"]
    seed = resolve_seed(args)
    benches = identity_latency_bench(
        [(spec["model"], spec["servers"]) for spec in cfg["models"]],
        cfg["load_rps"],
        duration_s=cfg["duration_s"],
        service_s=cfg["service_s"],
        latency_s=cfg["latency_s"],
        seed=seed,
    )
    p50s, p95s = [], []
    for bench in benches:
        p50, p95 = bench.quantiles(0.5, 0.95)
        p50s.append(p50)
        p95s.append(p95)
        print(
            f"{bench.model}/{bench.servers}: n={len(bench.sojourns)} "
            f"p50={p50:.6g}s p95={p95:.6g}s"
        )
    outdir = out_dir(args)
    # One block per model; they share one arrivals list, formatted once.
    write_csv(
        outdir / "idbench_samples.csv",
        ["model", "servers", "index", "arrival", "server", "sojourn"],
        [
            (b.model, b.servers, range(len(b.arrivals)), b.arrivals, b.routed,
             b.sojourns)
            for b in benches
        ],
    )
    summary = (
        [b.model for b in benches],
        [b.servers for b in benches],
        [len(b.sojourns) for b in benches],
        p50s,
        p95s,
        [b.mean() for b in benches],
    )
    write_csv(
        outdir / "idbench_summary.csv",
        ["model", "servers", "count", "p50", "p95", "mean"],
        [summary],
    )
    return 0


# ------------------------------------------------------------------- apps


def cmd_apps(args) -> int:
    command = apps_mod.parse_command(args.command)
    scenario = loaded_scenario(args, generate_tree(1, 0))
    seed = resolve_seed(args)
    sim = Simulation(scenario, seed=seed)
    if not sim.graph.community:
        raise ScenarioError("apps needs a community node")
    node = sim.graph.community[0]
    if sim.topology.cloud_route(node) is None:
        raise ScenarioError(f"apps: community node {node} has no route to the cloud")
    local = sim.local(node)
    market = apps_mod.Marketplace(local, sim.identity)
    me = "233299990000"
    sim.identity.issue_identity(node, me)
    # A small deterministic catalog so one-shot commands have something
    # to hit.
    demo = [("maize", 10, 2.5), ("maize", 4, 3.0), ("cassava", 7, 1.75)]
    for i, (item, qty, price) in enumerate(demo):
        imsi = f"23329000000{i:02d}"
        sim.identity.issue_identity(node, imsi)
        market.sell(imsi, item, qty, price)
    sim.engine.run_until(None)

    try:
        if command["op"] == "sell":
            listing, ack = market.sell(
                me, command["item"], command["qty"], command["price"]
            )
            sim.engine.run_until(None)
            receipt = next(
                r for r in local.records if r.request_id == ack.request_id
            )
            print(f"queued {listing.listing_id}: {listing.item} "
                  f"{listing.qty}@{listing.price:g}")
            print(f"receipt at {receipt.delivered_at:.6g}s")
        elif command["op"] == "buy":
            value, at = market.buy(me, command["listing_id"])
            print(
                f"bought {value['listing_id']}: {value['qty']}x {value['item']} "
                f"at {value['price']:g} from {value['seller_number']}"
            )
            print(f"confirmed at {at:.6g}s")
        else:
            listings, chunks, at = market.search(me, command["item"])
            if not listings:
                print(f"no listings for {command['item']}")
            for chunk in chunks:
                print(chunk)
            print(f"answered at {at:.6g}s")
    except GreenLinksError as exc:
        print(f"{type(exc).__name__}: {exc}")
    return 0


# ------------------------------------------------------------------ entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenlinks",
        description="Rural cellular edge simulator: availability, sync latency, "
        "whitespace detection and identity benchmarks.",
    )
    sub = parser.add_subparsers(dest="command_name", required=True)

    def common(p, scenario_required):
        p.add_argument(
            "--scenario", required=scenario_required, help="scenario JSON file"
        )
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("simulate", help="dual-architecture availability run")
    common(p, True)
    p.add_argument("--runs", type=int, default=1, help="independent replications")
    p.add_argument("--horizon", type=float, default=None, help="sim seconds")
    p.add_argument("--trace", action="store_true", help="write trace.log")
    p.add_argument(
        "--priority-queue",
        action="store_true",
        help="sms-class requests jump file-class ones at request boundaries",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("whitespace", help="channel detection study")
    common(p, False)
    p.set_defaults(func=cmd_whitespace)

    p = sub.add_parser("idbench", help="identity lookup latency bench")
    common(p, False)
    p.set_defaults(func=cmd_idbench)

    p = sub.add_parser("apps", help="one-shot marketplace command")
    common(p, False)
    p.add_argument("command", help="e.g. 'SELL maize 10 2.5' or 'SEARCH maize'")
    p.set_defaults(func=cmd_apps)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GreenLinksError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""greenlinks benchmark: four studies through the CLI, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload avail_tree --seed 1 --seconds 30 --trace 0

One run is one process and one closed-loop client.  It runs the
workload's units (``greenlinks.cli.main`` calls, in process, one after
another) in passes until ``--seconds`` is spent, checks every unit with
the workload's oracle and prints the metrics.  Set-up is timed in a
fresh interpreter before the first unit and, with ``--trace 0``, again
after every unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Pass
``p`` runs the seeds of pass ``p`` (see workloads.py), so a run samples
as many replications as fit in its time.  The host's speed is measured
before the first unit and after every unit (hostspeed.py), and every
end-to-end time is scaled to the reference host speed; the raw wall
times are printed as ``info`` lines.

``--trace 1`` reports the per-layer metrics.  It alternates an untraced
and a traced pass over the seeds of pass 0, so both kinds of pass do the
same work: traced and untraced digests must agree, exact counts must
repeat in every traced pass, and the time ratio of the pairs is the
tracing overhead.

Set-up failures, a missing ``src/greenlinks`` or a metric list that does
not match BENCHMARK.json end the run with exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Unit:
    index: int
    seed: int
    seconds: float
    code: int
    digest: str
    problems: list[str] = field(default_factory=list)
    model: dict[str, float] = field(default_factory=dict)
    # REFERENCE_S over the mean of the host references either side of
    # the unit; 1.0 when the host speed is not sampled (--trace 1).
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    index: int
    traced: bool
    units: list[Unit]

    @property
    def seconds(self) -> float:
        return sum(u.seconds for u in self.units)

    @property
    def scaled_s(self) -> float:
        return sum(u.scaled_s for u in self.units)


# ---------------------------------------------------------------- set-up


class Setup:
    """Timed set-ups, each in a fresh interpreter (setup_child.py).

    The first writes the scenario file the run uses.  Every later one
    must write the same bytes.
    """

    def __init__(self, wl, work: Path):
        if not (ROOT / "src" / "greenlinks" / "__init__.py").is_file():
            raise BenchError(f"no greenlinks sources under {ROOT / 'src'}")
        self.wl = wl
        self.work = work
        self.times: list[float] = []
        self.scenario_path = self.sample()

    def sample(self) -> Path:
        directory = self.work / "setup" / str(len(self.times))
        directory.mkdir(parents=True)
        try:
            proc = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "setup_child.py"),
                    str(ROOT),
                    self.wl.name,
                    self.wl.size,
                    str(directory),
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("set-up took more than 60 s")
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        elapsed, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"set-up imported greenlinks from {module_file}")
        path = directory / f"{self.wl.name}.json"
        if self.times:
            if path.read_bytes() != self.scenario_path.read_bytes():
                raise BenchError("set-up wrote a different scenario file")
            shutil.rmtree(directory)
        self.times.append(float(elapsed))
        return path


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import greenlinks.cli

    if not Path(greenlinks.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported greenlinks from {greenlinks.cli.__file__}")
    return greenlinks.cli


# ----------------------------------------------------------------- units


def digest(out: Path, stdout: str) -> str:
    """sha256 over every artifact (sorted by name) and the unit's stdout."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(stdout.encode())
    return h.hexdigest()


@dataclass
class Bench:
    """One workload wired to the imported CLI and its scenario file."""

    cli: object
    wl: object
    scenario_path: Path
    scenario: dict
    work: Path
    # Set-up and host speed are sampled after every unit, so that their
    # medians cover the whole run and not only the seconds before the
    # first unit.  references[i] is taken just before set-up i + 1.
    setup: Setup | None
    references: list[float] = field(default_factory=list)

    def run_unit(self, index: int, seed: int) -> Unit:
        out = self.work / "out" / str(index)
        shutil.rmtree(out, ignore_errors=True)
        argv = self.wl.argv(self.scenario_path, seed, out)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = 1
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        text = stdout.getvalue()
        unit = Unit(index, seed, seconds, code,
                    digest(out, text) if out.is_dir() else "no-artifacts")
        if error:
            unit.problems.append(f"raised:\n{error}")
        elif code != 0:
            unit.problems.append(f"exit code {code}: {stderr.getvalue().strip()[:300]}")
        else:
            try:
                unit.problems += self.wl.check(out, text, self.scenario)
                unit.model = self.wl.model(out, text, self.scenario)
            except (OSError, KeyError, ValueError) as exc:
                unit.problems.append(f"unreadable artifacts: {exc!r}")
        return unit

    def run_pass(self, index: int, seeds: list[int], tracer=None) -> Pass:
        units = []
        for k, seed in enumerate(seeds):
            if tracer is not None:
                tracer.unit += 1
            unit = self.run_unit(k, seed)
            if self.setup is not None:
                before = self.references[-1]
                self.references.append(hostspeed.reference())
                unit.scale = hostspeed.REFERENCE_S / ((before + self.references[-1]) / 2)
                self.setup.sample()
            units.append(unit)
        return Pass(index, tracer is not None, units)

    def measure(self, seed: int, seconds: float) -> list[Pass]:
        """End-to-end mode: passes over fresh seeds until the time is spent."""
        passes: list[Pass] = []
        durations: list[float] = []
        self.references.append(hostspeed.reference())
        start = time.perf_counter()
        while True:
            p = len(passes)
            began = time.perf_counter()
            passes.append(self.run_pass(p, self.wl.seeds(seed, p)))
            durations.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
                return passes

    def measure_traced(self, seed: int, seconds: float):
        """Per-layer mode: untraced/traced pairs over the seeds of pass 0.

        Runs at least two pairs, so that exact counts can be compared.
        """
        tracer = tracing.Tracer()
        passes: list[Pass] = []
        snapshots: list[tracing.Snapshot] = []
        seeds = self.wl.seeds(seed, 0)
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(len(passes), seeds))
            tracer.reset()
            installed = tracing.install(tracer)
            try:
                passes.append(self.run_pass(len(passes), seeds, tracer))
            finally:
                installed.remove()
            snapshots.append(tracer.snapshot())
            pair = statistics.median(
                a.seconds + b.seconds for a, b in zip(passes[::2], passes[1::2])
            )
            if len(snapshots) >= 2 and time.perf_counter() - start + pair / 2 > seconds:
                break
        tracer.write(self.work / "spans")
        return passes, snapshots, len(tracer.span_start) // len(snapshots)


# ---------------------------------------------------------------- metrics


def end_to_end(passes: list[Pass], setup_times: list[float],
               references: list[float]) -> dict[str, float]:
    """Times scaled to the reference host speed; set-up i by reference i."""
    setups = [t * hostspeed.REFERENCE_S / r for t, r in zip(setup_times, references)]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.scaled_s for p in passes),
        "unit_p50_s": statistics.median(u.scaled_s for p in passes for u in p.units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_times(passes: list[Pass], setup_times: list[float]) -> str:
    """The unscaled medians behind the end-to-end times."""
    return (f"setup_s {statistics.median(setup_times):.6f} "
            f"run_s {statistics.median(p.seconds for p in passes):.6f} "
            f"unit_p50_s {statistics.median(u.seconds for p in passes for u in p.units):.6f}")


def per_layer(passes: list[Pass], snapshots, spans_per_pass: int) -> tuple[dict, list[str]]:
    problems = []
    per_pass = [tracing.layer_metrics(s) for s in snapshots]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if tracing.is_exact(name) and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = statistics.median(values)
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    self_sums = [sum(s.self_s.values()) for s in snapshots]
    metrics["trace.run_s"] = statistics.median(p.seconds for p in traced)
    metrics["trace.self_sum_s"] = statistics.median(self_sums)
    metrics["trace.remainder_s"] = statistics.median(
        p.seconds - s for p, s in zip(traced, self_sums)
    )
    metrics["trace.overhead_ratio"] = statistics.median(
        t.seconds / u.seconds - 1.0 for u, t in zip(plain, traced)
    )
    metrics["trace.spans"] = spans_per_pass
    return metrics, problems


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 units beyond it ({n} units)"
    ordered = sorted(values)
    pct = 100 * (n - 10) // n
    return f"p{pct} {ordered[n - 11]:.6f} s over {n} units"


def check_names(metrics: dict, expected: list[dict], kind: str) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise BenchError(f"{kind} metrics disagree with BENCHMARK.json: "
                         f"missing {missing}, unlisted {extra}")
    if kind == "per_layer":
        for name, unit in want.items():
            if not name.startswith("trace.") and tracing.metric_unit(name) != unit:
                raise BenchError(f"{name}: unit {unit} in BENCHMARK.json")


# ------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv=None, size: str = "full") -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](size)
    work = ROOT / WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = Setup(wl, work)
    scenario = json.loads(setup.scenario_path.read_text())
    cli = import_cli()
    print(
        f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} size={size} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} platform={platform.platform()}"
    )

    bench = Bench(cli, wl, setup.scenario_path, scenario, work,
                  None if args.trace else setup)
    problems: list[str] = []
    if args.trace:
        passes, snapshots, spans = bench.measure_traced(args.seed, args.seconds)
        metrics, problems = per_layer(passes, snapshots, spans)
        reference = {u.index: u.digest for u in passes[0].units}
        for p in passes:
            for u in p.units:
                if u.digest != reference[u.index]:
                    u.problems.append("digest differs from the first untraced pass")
        expected = spec["per_layer"]
    else:
        passes = bench.measure(args.seed, args.seconds)
        metrics = end_to_end(passes, setup.times, bench.references)
        expected = spec["end_to_end"]
    check_names(metrics, expected, "per_layer" if args.trace else "end_to_end")

    units = [u for p in passes for u in p.units]
    for p in passes:
        for u in p.units:
            status = "ok" if not u.problems else "FAILED: " + "; ".join(u.problems)
            print(f"unit pass={p.index} index={u.index} seed={u.seed} "
                  f"traced={int(p.traced)} {u.seconds:.6f} s scale={u.scale:.4f} exit={u.code} "
                  f"sha256={u.digest[:16]} {status}")
    pass0 = hashlib.sha256("".join(u.digest for u in passes[0].units).encode())
    print(f"digest pass0 {pass0.hexdigest()}")
    for u in passes[0].units:
        for name, value in sorted(u.model.items()):
            print(f"model unit={u.index} {name} {value:.6g}")
    failed = sum(1 for u in units if u.problems)
    print(f"info setup_s_all {' '.join(f'{t:.6f}' for t in setup.times)}")
    if not args.trace:
        print(f"info reference_s_all {' '.join(f'{t:.6f}' for t in bench.references)}")
        print(f"info wall {wall_times(passes, setup.times)}")
    print(f"info passes {len(passes)} units {len(units)}")
    print(f"info unit_tail {tail([u.scaled_s for u in units if not u.problems])}")
    print(f"info units_failed_ratio {failed / len(units):.6g} fraction")
    for problem in problems:
        print(f"problem {problem}")
    units_of = {m["name"]: m["unit"] for m in expected}
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]:.6g} {units_of[name]}")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }))
    shutil.rmtree(work / "out", ignore_errors=True)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

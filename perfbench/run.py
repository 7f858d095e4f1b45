"""End-to-end benchmark of the erdoslab CLI, with an outside-in layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload equiv-1e7 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` runs each workload's commands as child processes, one at a
time, against a warm benchmark-owned prime cache, repeating the command
list until ``--seconds`` have passed, and reports the median iteration:

* ``wall_s``      wall time of the commands, spawn to exit, summed
* ``cpu_s``       user + system CPU of those children (``os.wait4``)
* ``peak_rss_mb`` largest child ``ru_maxrss``
* ``setup_s``     median time to take an empty cache to the warm state
                  (``erdoslab sieve`` per table), set up afresh before
                  every command

``fail_frac`` (failed / attempted commands) is printed with them; the
single-workload JSON result carries it as ``failed`` and ``attempted``.

``--trace 1`` repeats the same commands through ``erdoslab.cli.main``
inside a fresh traced process each (traced_child.py), with the public
functions of each module wrapped (tracer.py), and reports per-layer self
times, work counts and the layer cases of layers.py. Every artifact is checked (workloads.py); the
last stdout line is one JSON object, and the exit code is 1 when a check
failed. All files go to a temporary directory inside the checkout, which
is removed at the end.
"""

from __future__ import annotations

import os

# Single-threaded children and in-process numpy; numpy reads these at import.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import Stat  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckContext, load_fixture  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"

STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 90.0  # a hung command is killed and counted as failed

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Outcome:
    """Commands attempted and the problems found, across one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


class Runner:
    """Spawns erdoslab CLI children in the run's directories."""

    def __init__(self, work: Path):
        self.work = work
        self.out = work / "out"
        self.tmp = work / "tmp"
        for d in (self.out, self.tmp):
            d.mkdir(parents=True, exist_ok=True)

    def env(self, cache: Path) -> dict[str, str]:
        return {
            **os.environ, **THREAD_ENV,
            "PYTHONPATH": str(SRC), "ERDOS_CACHE_DIR": str(cache), "TMPDIR": str(self.tmp),
        }

    def run(self, argv: list[str], cache: Path, trace_to: Path | None = None,
            peak_mem: bool = False) -> Child:
        """Run ``erdoslab <argv>``; traced in-process when ``trace_to`` names a spans file."""
        if trace_to is None:
            prog = [sys.executable, "-m", "erdoslab.cli"]
        else:
            prog = [sys.executable, str(Path(__file__).with_name("traced_child.py")),
                    *(["--peak-mem"] if peak_mem else []), str(trace_to)]
        err_path = self.tmp / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [*prog, *argv], cwd=self.out,
                env=self.env(cache), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        return Child(
            rc=proc.returncode, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
            rss_mb=ru.ru_maxrss / 1024.0, stderr=err_path.read_text(errors="replace")[-2000:],
        )


def _child_problems(label: str, child: Child) -> list[str]:
    if child.rc == 0:
        return []
    return [f"{label}: exit code {child.rc}: {child.stderr.strip()[-300:]}"]


def _cache_listing(cache: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in sorted(cache.iterdir())} if cache.exists() else {}


def setup(runner: Runner, wl, outcome: Outcome, k: int) -> tuple[Path, float]:
    """Take the empty cache ``cache<k>`` to the warm state the commands need."""
    cache = runner.work / f"cache{k}"
    cache.mkdir()
    total = 0.0
    for limit in wl.setup_limits:
        child = runner.run(["sieve", f"--limit={limit}", f"--out=sieve-{limit}.csv"], cache)
        outcome.record(_child_problems(f"sieve {limit}", child))
        total += child.wall_s
    return cache, total


def check_artifact(wl, ctx: CheckContext, name: str, path: Path, first: dict[str, bytes],
                   outcome: Outcome, child_problems: list[str]) -> None:
    """Record one command: its exit, its checks, and byte-identity with earlier runs."""
    problems = list(child_problems)
    if not problems:
        if not path.is_file():
            problems.append(f"{name}: no artifact at {path.name}")
        else:
            data = path.read_bytes()
            if name not in first:
                first[name] = data
                try:
                    problems += wl.check(ctx, name, path)
                except (KeyError, ValueError, IndexError) as exc:
                    problems.append(f"{name}: unreadable artifact: {exc!r}")
            elif data != first[name]:
                problems.append(f"{name}: artifact differs from the first run's")
            path.unlink()
    outcome.record(problems)


def measure(runner: Runner, wl, ctx: CheckContext, seconds: float,
            outcome: Outcome) -> tuple[list[dict[str, float]], list[float]]:
    """Repeat the workload's commands until ``seconds`` have passed.

    Each command runs against a cache that a fresh set-up has just filled,
    so the set-up times are sampled across the whole run, not only at its
    start. A command that adds a table to its cache means set-up missed
    one, and counts as failed.
    """
    iters, setup_times = [], []
    first: dict[str, bytes] = {}
    t_start = time.perf_counter()
    while not iters or time.perf_counter() - t_start < seconds:
        wall = cpu = rss = 0.0
        for cmd in wl.commands(ctx.seed):
            cache, setup_s = setup(runner, wl, outcome, len(setup_times))
            setup_times.append(setup_s)
            warm = _cache_listing(cache)
            out = runner.out / f"{cmd.name}.csv"
            child = runner.run([*cmd.argv, f"--out={out.name}"], cache)
            problems = _child_problems(cmd.name, child)
            built = sorted(set(_cache_listing(cache)) - set(warm))
            if built:
                problems.append(f"{cmd.name}: built {built}, which set-up did not")
            check_artifact(wl, ctx, cmd.name, out, first, outcome, problems)
            shutil.rmtree(cache)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
        iters.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
    return iters, setup_times


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(), "numpy": np.__version__, "seed": seed,
    }


def run_end_to_end(wl, seed: int, seconds: float, work: Path) -> tuple[Outcome, dict, dict]:
    outcome = Outcome()
    ctx = CheckContext(seed=seed, fixture=load_fixture(ROOT))
    iters, setup_times = measure(Runner(work), wl, ctx, seconds, outcome)
    metrics = {k: statistics.median(it[k] for it in iters) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup_times)
    extra = {
        "iterations": iters, "setup_times_s": setup_times,
        "fail_frac": outcome.failed / outcome.attempted,
    }
    return outcome, metrics, extra


def run_traced(wl, seed: int, work: Path) -> tuple[Outcome, dict, dict]:
    runner = Runner(work)
    outcome = Outcome()
    ctx = CheckContext(seed=seed, fixture=load_fixture(ROOT))
    cache = work / "cache"
    cache.mkdir()
    missing: set[str] = set()

    def traced(argv: list[str], into: dict[str, Stat], peak_mem: bool = False) -> tuple[list[str], float]:
        """One command in a fresh traced process; (problems, seconds in main)."""
        stats_path = runner.tmp / "spans.json"
        stats_path.unlink(missing_ok=True)
        child = runner.run(argv, cache, trace_to=stats_path, peak_mem=peak_mem)
        problems = _child_problems(argv[0], child)
        if problems or not stats_path.is_file():
            return problems or [f"{argv[0]}: traced run wrote no spans"], 0.0
        spans = json.loads(stats_path.read_text())
        layers.merge_stats(into, spans["stats"])
        missing.update(spans["missing"])
        if spans["rc"] != 0:
            problems.append(f"{argv[0]}: exit code {spans['rc']} {spans['error'] or ''}")
        return problems, spans["main_s"]

    # 1. set-up, traced: empty cache -> warm cache
    setup_stats: dict[str, Stat] = {}
    for limit in wl.setup_limits:
        problems, _ = traced(["sieve", f"--limit={limit}", f"--out=sieve-{limit}.csv"], setup_stats)
        outcome.record(problems)
    warm = _cache_listing(cache)

    # 2. the same commands untraced, for the overhead and the reference artifacts
    untraced: dict[str, bytes] = {}
    ref_wall = 0.0
    commands = wl.commands(seed)
    for cmd in commands:
        out = runner.out / f"{cmd.name}.csv"
        child = runner.run([*cmd.argv, f"--out={out.name}"], cache)
        check_artifact(wl, ctx, cmd.name, out, untraced, outcome, _child_problems(cmd.name, child))
        ref_wall += child.wall_s
    startups = []
    for _ in range(STARTUP_REPEATS):
        child = runner.run(["--version"], cache)
        outcome.record(_child_problems("--version", child))
        startups.append(child.wall_s)
    startup = statistics.median(startups)

    # 3. traced; artifacts must match the untraced ones byte for byte. A
    # command that calls a peak-memory target runs once more with
    # tracemalloc on, untimed, so its allocation hooks stay out of the times.
    run_stats: dict[str, Stat] = {}
    mem_stats: dict[str, Stat] = {}
    traced_main = 0.0
    for cmd in commands:
        argv = [*cmd.argv, f"--out={cmd.name}.csv"]
        out = runner.out / f"{cmd.name}.csv"
        before = {m: run_stats.get(m, Stat()).calls for m in layers.PEAK_MEM_METRICS}
        problems, main_s = traced(argv, run_stats)
        traced_main += main_s
        check_artifact(wl, ctx, cmd.name, out, untraced, outcome, problems)
        if any(run_stats.get(m, Stat()).calls > n for m, n in before.items()):
            problems, _ = traced(argv, mem_stats, peak_mem=True)
            check_artifact(wl, ctx, cmd.name, out, untraced, outcome, problems)
    built = sorted(set(_cache_listing(cache)) - set(warm))
    outcome.record([f"commands built {built}, which set-up did not"] if built else [])

    # 4. layer cases outside the workloads, untraced, in this process
    extras = dict.fromkeys(layers.LAYER_CASES, 0.0)
    if wl.layer_cases:
        layers.import_cli(SRC)
        cases, extras_missing = layers.layer_cases(outcome, seed)
        extras.update(cases)
        missing.update(extras_missing)

    metrics = layers.per_layer_metrics(setup_stats, run_stats, mem_stats)
    metrics.update(extras)
    metrics["primes.cache_mb"] = sum(warm.values()) / 1e6
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = traced_main - (ref_wall - len(commands) * startup)
    extra = {
        "missing": sorted(missing),
        "untraced_wall_s": ref_wall, "traced_main_s": traced_main,
        "spans": layers.span_table(setup_stats, run_stats),
        "fail_frac": outcome.failed / outcome.attempted,
    }
    return outcome, metrics, extra


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, dict, dict]:
    wl = WORKLOADS[name]
    WORK_PARENT.mkdir(exist_ok=True)
    work = WORK_PARENT / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        if trace:
            return run_traced(wl, seed, work)
        return run_end_to_end(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()


def _result(outcome: Outcome, metrics: dict, units: dict) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "erdoslab" / "cli.py").is_file():
        print(f"error: no erdoslab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    results = {}
    for name in names:
        print(f"[perfbench] {name} seed={args.seed} trace={args.trace}", file=sys.stderr)
        outcome, metrics, extra = run_one(name, args.seed, args.seconds, bool(args.trace))
        for p in outcome.problems:
            print(f"[perfbench] CHECK FAILED {name}: {p}", file=sys.stderr)
        record = {"workload": name, "machine": machine_record(args.seed), **extra}
        print("record " + json.dumps(record, sort_keys=True))
        results[name] = (outcome, _result(outcome, metrics, units))

    if args.workload == "all":
        print_table(results, units)
        total = Outcome(
            attempted=sum(o.attempted for o, _ in results.values()),
            failed=sum(o.failed for o, _ in results.values()),
        )
        merged = {f"{n}.{k}": v for n, (_, r) in results.items() for k, v in r["metrics"].items()}
        final = {**_result(total, {}, {}), "metrics": merged}
    else:
        final = next(iter(results.values()))[1]
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


def print_table(results: dict, units: dict) -> None:
    """One row per metric with its unit, one column per workload."""
    print("metric (unit)".ljust(40) + "".join(n.rjust(16) for n in results))
    for k, unit in [*units.items(), ("fail_frac", "ratio")]:
        vals = [o.failed / o.attempted if k == "fail_frac" else r["metrics"][k]["value"]
                for o, r in results.values()]
        print(f"{k} ({unit})".ljust(40) + "".join(f"{v:16.6g}" for v in vals))


if __name__ == "__main__":
    sys.exit(main())

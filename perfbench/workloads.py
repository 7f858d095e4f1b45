"""The three benchmark workloads: erdoslab CLI commands and their checks.

Each workload is a fixed list of real ``erdoslab`` commands. Its only
variable input is the seed, passed to the commands that draw random
numbers. ``setup_limits`` names the prime tables the commands load; set-up
builds them with ``erdoslab sieve`` into the benchmark's own cache.

A check reads a command's CSV artifact and returns a list of problems
(empty when the artifact is correct).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 42

EQUIV_LIMIT = 181_000_000  # covers p_(1e7 + 1) and M = 1e7 log 1e7
CENSUS_LIMIT = 120_000_000
MODEL_LIMIT = 4775  # the table `bias --x=1e6` picks (cli._model_table)

ERDOS_ANCHOR = -0.052161
EQUIV_X = (100_000, 300_000, 1_000_000, 3_000_000, 10_000_000)
# diff_re of `equiv` at EQUIV_X from the seed code; a reordered sum must stay
# within DIFF_TOL of them.
EQUIV_DIFF_RE = (
    0.08991655189194564, 0.0866830951082282, 0.08372766109212738,
    0.08143782214927411, 0.07929218362152986,
)
DIFF_TOL = 1e-9

CENSUS_X = 100_000_000
CENSUS_TUPLES = (
    (0, 2), (0, 4), (0, 6), (0, 2, 6), (0, 4, 6), (0, 2, 6, 8), (0, 4, 6, 10),
    (0, 2, 6, 8, 12), (0, 4, 6, 10, 12), (0, 4, 6, 10, 12, 16),
)
# Published counts below 1e8; the oracle must reproduce them before the
# program's counts are compared with it.
CENSUS_COUNTS = (440312, 440258, 879908, 55600, 55556, 4768, 9267, 697, 686, 82)

# Estimates of the seed code at DEFAULT_SEED. Both are multiples of
# 2 / samples, so 1e-12 separates any two different counts.
BIAS_AT_DEFAULT = {1.0: 0.0378, 5.0: 0.0014}
PARITY_AT_DEFAULT = 0.069016
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]  # without --out


@dataclass(frozen=True)
class Workload:
    name: str
    setup_limits: tuple[int, ...]
    commands: Callable[[int], list[Command]]
    check: Callable[["CheckContext", str, Path], list[str]]
    layer_cases: bool = False  # the traced run also times layers.LAYER_CASES


@dataclass
class CheckContext:
    seed: int
    fixture: dict
    census_oracle: tuple[int, ...] | None = None


# -- artifacts -------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def load_fixture(root: Path) -> dict:
    return json.loads((root / "src" / "erdoslab" / "data" / "model_calibration.json").read_text())


# -- equiv-1e7 ---------------------------------------------------------------


def _equiv_commands(seed: int) -> list[Command]:
    return [
        Command("series", (
            "series", "--kind=erdos", "--nmax=10000001", "--dense=10000000:10000001",
            "--average", f"--limit={EQUIV_LIMIT}",
        )),
        Command("equiv", ("equiv", "--x=1e5,3e5,1e6,3e6,1e7", f"--limit={EQUIV_LIMIT}")),
    ]


def _equiv_check(ctx: CheckContext, name: str, path: Path) -> list[str]:
    rows = read_csv(path)
    if name == "series":
        tol = ctx.fixture["series"]["erdos_avg_tol_1e7"]
        vals = [float(r["value_re"]) for r in rows if r["index"] == "10000000"]
        if len(vals) != 1:
            return ["series: no averaged value at index 1e7"]
        if not abs(vals[0] - ERDOS_ANCHOR) < tol:
            return [f"series: averaged value {vals[0]!r} not within {tol} of {ERDOS_ANCHOR}"]
        return []
    errs = []
    xs = [int(r["x"]) for r in rows]
    if tuple(xs) != EQUIV_X:
        return [f"equiv: x column {xs} != {list(EQUIV_X)}"]
    diffs = [float(r["diff_re"]) for r in rows]
    for x, d, want in zip(xs, diffs, EQUIV_DIFF_RE):
        if not abs(d - want) <= DIFF_TOL:
            errs.append(f"equiv: diff_re at x={x} is {d!r}, want {want!r} +- {DIFF_TOL}")
    low = [d for x, d in zip(xs, diffs) if x <= 1_000_000]
    if not max(low) - min(low) < 0.1:
        errs.append(f"equiv: spread {max(low) - min(low)} at x <= 1e6 is not < 0.1")
    steps = np.abs(np.diff(diffs))
    if not np.all(np.diff(steps) < 0):
        errs.append(f"equiv: consecutive spreads {steps.tolist()} do not strictly decrease")
    return errs


# -- model-bias-1e6 ----------------------------------------------------------


def _model_commands(seed: int) -> list[Command]:
    return [Command("bias", (
        "bias", "--x=1e6", "--lambdas=1,5", "--samples=100000", f"--seed={seed}", "--workers=1",
    ))]


def _model_check(ctx: CheckContext, name: str, path: Path) -> list[str]:
    est = {float(r["lambda"]): float(r["estimate"]) for r in read_csv(path)}
    if sorted(est) != [1.0, 5.0]:
        return [f"bias: lambdas {sorted(est)} != [1.0, 5.0]"]
    errs = []
    lo, hi = ctx.fixture["model"]["bias_lambda1_band"]
    if not lo <= est[1.0] <= hi:
        errs.append(f"bias: lambda=1 estimate {est[1.0]} outside fixture band [{lo}, {hi}]")
    if ctx.seed == DEFAULT_SEED:
        for lam, want in BIAS_AT_DEFAULT.items():
            if not abs(est[lam] - want) < EXACT_TOL:
                errs.append(f"bias: lambda={lam} estimate {est[lam]!r} != seed-code {want}")
    return errs


# -- census-1e8 ----------------------------------------------------------------


def _census_commands(seed: int) -> list[Command]:
    tuples = [f"--tuple={','.join(map(str, t))}" for t in CENSUS_TUPLES]
    return [
        Command("tuples", ("tuples", f"--x={CENSUS_X}", f"--limit={CENSUS_LIMIT}", *tuples)),
        Command("parity", (
            "parity", f"--x={CENSUS_X}", "--lambda=1", "--points=1000000", f"--seed={seed}",
            f"--limit={CENSUS_LIMIT}",
        )),
    ]


def census_oracle(x: int = CENSUS_X, tuples=CENSUS_TUPLES) -> tuple[int, ...]:
    """Tuple counts from a separate odd-only sieve, sharing no erdoslab code.

    Every tuple here has even offsets and starts at 0, so n = 2 never
    qualifies and only odd n count: n = 2i + 1 with n + h prime for all h.
    """
    top = x + max(t[-1] for t in tuples)
    n_odd = top // 2 + 1  # index i <-> 2i + 1
    composite = np.zeros(n_odd, dtype=bool)
    composite[0] = True  # 1
    for i in range(1, (math.isqrt(top) - 1) // 2 + 1):
        if not composite[i]:
            p = 2 * i + 1
            composite[p * p // 2 :: p] = True
    prime = ~composite
    del composite
    m = (x + 1) // 2  # odd n <= x
    counts = []
    for t in tuples:
        acc = prime[t[0] // 2 : t[0] // 2 + m].copy()
        for h in t[1:]:
            acc &= prime[h // 2 : h // 2 + m]
        counts.append(int(np.count_nonzero(acc)))
    return tuple(counts)


def _census_check(ctx: CheckContext, name: str, path: Path) -> list[str]:
    rows = read_csv(path)
    if name == "tuples":
        if ctx.census_oracle is None:  # untimed: runs between commands, once per run
            ctx.census_oracle = census_oracle()
        got = tuple(int(r["count"]) for r in rows)
        if ctx.census_oracle != CENSUS_COUNTS:
            return [f"tuples: oracle counts {ctx.census_oracle} != published {CENSUS_COUNTS}"]
        if got != ctx.census_oracle:
            return [f"tuples: counts {got} != oracle {ctx.census_oracle}"]
        return []
    if len(rows) != 1:
        return [f"parity: {len(rows)} rows, want 1"]
    est = float(rows[0]["estimate"])
    lo, hi = ctx.fixture["gaps"]["parity_lambda1_band"]
    errs = []
    if not lo <= est <= hi:
        errs.append(f"parity: estimate {est} outside fixture band [{lo}, {hi}]")
    if ctx.seed == DEFAULT_SEED and not abs(est - PARITY_AT_DEFAULT) < EXACT_TOL:
        errs.append(f"parity: estimate {est!r} != seed-code {PARITY_AT_DEFAULT}")
    return errs


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("equiv-1e7", (EQUIV_LIMIT,), _equiv_commands, _equiv_check),
        Workload("model-bias-1e6", (MODEL_LIMIT,), _model_commands, _model_check, layer_cases=True),
        Workload("census-1e8", (CENSUS_LIMIT,), _census_commands, _census_check),
    )
}

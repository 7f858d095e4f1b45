"""Command-line front door.

One subcommand per capability, CSV primary output with a JSON mirror,
and a header line on every artifact embedding the tool version, the
fully-resolved configuration, and the seed. Outputs are deterministic:
re-running with the same config and seed produces byte-identical files.
The sifted-set model runs serially; the --workers option of model and
bias is accepted and ignored.

Importing this module loads only primes and errors of erdoslab. Each
runner imports the modules it runs, and gaps series imports gaps, which
spells the series kinds, when it parses --kind; so sieve and --version
compile and load nothing else.

model and gaps take their action first (gaps blocks --limit=1e6). A
subcommand or action takes only the options it reads, by full name only,
and singular takes --tuple or --hmax, not both. --format and --out
choose the artifact of every subcommand but calibrate, which writes its
fixture. --cache-dir names the prime cache of every subcommand that reads
a table (all but singular and paircorr); of those, all but sieve, which
always writes the cache, take --no-cache. --limit, at least 2 and below
2^32, overrides the table limit of sieve, series, equiv, tuples, gaps and
parity; model, bias and calibrate derive theirs from x. calibrate takes
--samples and --seed for the model and gaps suites only. Any other
option exits 2.

Exit codes: 0 success, 2 invalid configuration, 3 "range" errors (a table
too short, a derived table limit of 2^32 or more) or "resource" errors (a
MemoryError or any OSError, such as an unwritable --out or cache directory).
A run that exits 2 or 3 removes the cache file, and the directories, that
its table read created.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import BoundsError
from .primes import LIMIT_CAP, PrimeTable, build_table, cache_path, load_or_build

if TYPE_CHECKING:
    from .singular import OffsetTuple


def _parse_phase(text: str) -> complex:
    from .series import _as_phase

    return _as_phase(complex(text.strip().replace("i", "j")))


def _parse_positive(text: str) -> float:
    """A finite float > 0; anything else raises ArgumentTypeError, whose message argparse prints."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return v


def _parse_positives(text: str) -> list[float]:
    return [_parse_positive(s) for s in text.split(",")]


def _parse_int(text: str) -> int:
    """Exact integer from a literal such as 10000000000000001 or 1e6.

    Scientific notation is accepted only when its value is an integer.
    Anything else, including inf, nan and values outside the signed
    64-bit range the array code works in, raises ArgumentTypeError, whose
    message argparse prints and main reports as an invalid configuration.
    """
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    # compare before converting: int() of 1e999999999 would build a huge number
    if not (d.is_finite() and -(2**63) < d < 2**63 and d == d.to_integral_value()):
        raise argparse.ArgumentTypeError(f"expected an integer in (-2^63, 2^63), got {text!r}")
    return int(d)


def _parse_limit(text: str) -> int:
    """A prime-table limit: an exact integer >= 2, the smallest table with a prime, below 2^32."""
    v = _parse_int(text)
    if v < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {text!r}")
    if v >= LIMIT_CAP:
        raise argparse.ArgumentTypeError(f"must be below 2^32 (uint32 primes), got {text!r}")
    return v


def _parse_kind(text: str) -> str:
    """A gap-series kind; gaps, which spells them, is imported only when gaps series parses one."""
    from .gaps import KINDS

    if text not in KINDS:
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, KINDS))})")
    return text


def _parse_offsets(text: str) -> OffsetTuple:
    from .singular import OffsetTuple

    return OffsetTuple(_parse_int(s) for s in text.split(",") if s.strip() != "")


def _emit(out: str, fmt: str, cmd: str, config: dict, columns: list[str], rows: list[tuple]) -> None:
    """Write rows as CSV, each value's str(), or as their JSON mirror; numpy scalars become Python ones."""
    rows = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
    cfg = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    header = f"erdoslab={__version__} cmd={cmd} config={cfg}"
    if fmt == "csv":
        lines = [f"# {header}", ",".join(columns)]
        lines += [",".join(map(str, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"header": {"erdoslab": __version__, "cmd": cmd, "config": config},
               "columns": columns, "rows": rows}
        text = json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        print(f"wrote {out}")


def _get_table(limit: int, args) -> PrimeTable:
    """The table to limit, sieved under --no-cache, else from the cache.

    A cache miss records in ``args.cache_made`` the file and the directories
    it creates, which main removes when the run fails.
    """
    if args.no_cache:
        return build_table(limit)
    path = cache_path(limit, args.cache_dir)
    if not path.exists():
        args.cache_made += [path, *(d for d in path.parents if not d.exists())]
    return load_or_build(limit, args.cache_dir)


def _nth_prime_upper(n: int) -> int:
    if n < 6:
        return 14
    return int(n * (math.log(n) + math.log(math.log(n)))) + 10


def _model_table(x: float, args) -> PrimeTable:
    """The model's table at scale x; its limit L holds sieve_cutoff(x).

    By Rosser and Schoenfeld (Illinois J. Math. 1962, Thm 7),
    prod_{p<=L} (1 - 1/p) < e^-gamma (1 + 1/(2 log^2 L)) / log L, which is
    at most 1/log x once log L >= log 2 + e^-gamma log x and L >= 1000;
    L = max(1000, 2 x^(e^-gamma) + 100) meets both.
    """
    return _get_table(max(1000, int(2.0 * x ** (1.0 / math.exp(np.euler_gamma))) + 100), args)


# -- subcommand runners ---------------------------------------------------


def _run_sieve(args) -> None:
    if args.limit is None:
        raise ValueError("sieve requires --limit")
    table = build_table(args.limit)
    path = cache_path(args.limit, args.cache_dir)
    table.save(path)
    config = {"limit": args.limit, "cache_file": str(path)}
    rows = [(args.limit, table.count, table.nth_prime(table.count))]
    _emit(args.out, args.format, "sieve", config, ["limit", "pi", "largest_prime"], rows)


def _run_series(args) -> None:
    from . import series as series_mod

    phase = _parse_phase(args.phase)
    dense = tuple(tuple(_parse_int(s) for s in w.split(":")) for w in args.dense)
    for w, d in zip(args.dense, dense):
        if len(d) != 2 or d[0] > d[1]:
            raise ValueError(f"--dense expects LO:HI with LO <= HI, got {w!r}")
    series_mod._check_bound(args.kind, args.nmax)  # before a table is built and cached
    erdos = args.kind == "erdos"
    table = _get_table(args.limit or (_nth_prime_upper(args.nmax) if erdos else args.nmax), args)
    partial = series_mod.erdos_partial if erdos else series_mod.parity_partial
    trace = partial(table, args.nmax, phase, dense_windows=dense, ratio=args.ratio)
    if args.average:
        trace = series_mod.average_consecutive(trace)
    config = {
        "kind": args.kind, "nmax": args.nmax, "phase": str(phase),
        "ratio": args.ratio, "dense": [list(w) for w in dense], "average": args.average,
        "table_limit": table.limit,
    }
    rows = list(trace._rows())
    _emit(args.out, args.format, "series", config,
          ["index", "value_re", "value_im", "compensation"], rows)


def _run_equiv(args) -> None:
    from . import series as series_mod

    phase = _parse_phase(args.phase)
    xs = [_parse_int(s) for s in args.x.split(",")]
    if min(xs) < 3:  # before log(x) below
        raise ValueError(series_mod._X_VALUES)
    need = max(int(x * math.log(x)) for x in xs) + 10
    table = _get_table(args.limit or max(need, _nth_prime_upper(max(xs))), args)
    rep = series_mod.verify_equivalence(table, xs, phase)
    config = {"x": xs, "phase": str(phase), "table_limit": table.limit,
              "max_pairwise_spread_top_half": rep.max_pairwise_spread()}
    rows = [
        (int(x), l.real, l.imag, r.real, r.imag, d.real, d.imag)
        for x, l, r, d in zip(rep.x_values, rep.lhs, rep.rhs, rep.differences)
    ]
    _emit(args.out, args.format, "equiv", config,
          ["x", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "diff_re", "diff_im"], rows)


def _run_singular(args) -> None:
    from . import singular as singular_mod

    if args.tuple is not None:
        tup = _parse_offsets(args.tuple)
        sv = singular_mod.singular_series(tup, args.truncation)
        config = {"tuple": list(tup.offsets), "truncation": sv.truncation_prime}
        rows = [("_".join(map(str, tup.offsets)), sv.value, sv.tail_bound, sv.admissible)]
        _emit(args.out, args.format, "singular", config,
              ["offsets", "value", "tail_bound", "admissible"], rows)
        return
    hmax = 100 if args.hmax is None else args.hmax
    if hmax < 1:
        raise ValueError(f"--hmax must be >= 1, got {hmax}")
    truncation = singular_mod.DEFAULT_TRUNCATION if args.truncation is None else args.truncation
    vals = singular_mod.pair_singular_table(hmax, truncation)
    config = {"hmax": hmax, "truncation": truncation}
    rows = [(d, vals[d]) for d in range(1, hmax + 1)]
    _emit(args.out, args.format, "singular", config, ["d", "singular_value"], rows)


def _run_paircorr(args) -> None:
    from . import singular as singular_mod

    if args.step < 1:
        raise ValueError(f"--step must be >= 1, got {args.step}")
    if args.hmin > args.hmax:
        raise ValueError(f"--hmin must be <= --hmax, got {args.hmin} > {args.hmax}")
    hs = np.arange(args.hmin, args.hmax + 1, args.step, dtype=np.int64)
    curve = singular_mod.pair_correlation_curve(hs)
    # empirical first H from which the square bound holds through hmax
    all_h = np.arange(2, args.hmax + 1, dtype=np.int64)
    full = singular_mod.pair_correlation_curve(all_h)
    ok = full <= all_h.astype(np.float64) ** 2
    h0 = int(all_h[np.flatnonzero(~ok)[-1] + 1]) if (~ok).any() else 2
    config = {"hmin": args.hmin, "hmax": args.hmax, "step": args.step,
              "square_bound_holds_from": h0}
    rows = [
        (int(h), s, singular_mod.pair_correlation_asymptotic(int(h)), float(h) ** 2)
        for h, s in zip(hs, curve)
    ]
    _emit(args.out, args.format, "paircorr", config,
          ["H", "pair_sum", "asymptotic_prediction", "H_squared"], rows)


def _run_tuples(args) -> None:
    from . import census as census_mod

    tups = [_parse_offsets(t) for t in args.tuple]
    if not all(t.offsets for t in tups):
        raise ValueError("--tuple needs at least one offset")
    x = args.x
    table = _get_table(args.limit or (x + max(t.offsets[-1] for t in tups) + 10), args)
    rows = [
        ("_".join(map(str, rep.tup.offsets)), x, rep.count, rep.prediction,
         rep.abs_error, rep.normalized_error, rep.epsilon)
        for rep in census_mod.check_tuples(table, tups, x, args.eps, args.strict)
    ]
    config = {"tuples": [list(t.offsets) for t in tups], "x": x, "eps": args.eps,
              "strict": args.strict, "table_limit": table.limit}
    _emit(args.out, args.format, "tuples", config,
          ["tuple", "x", "count", "prediction", "abs_error", "normalized_error", "epsilon"], rows)


def _run_model(args) -> None:
    from . import model as model_mod

    table = _model_table(args.x, args)
    cfg = model_mod.ModelConfig.from_scale(args.x, args.lam, table, seed=args.seed)
    base = {"x": args.x, "lambda": args.lam, "window_len": cfg.window_len,
            "cutoff_z": cfg.cutoff_z, "seed": args.seed}
    if args.action == "bias":
        _emit_bias(args, "model", {**base, "action": "bias", "samples": args.samples}, [cfg], table)
        return
    w = cfg.cutoff_z if args.w is None else args.w
    if w < 1:
        raise ValueError(f"--w must be >= 1, got {w}")
    if args.action == "sample":
        sets = model_mod.sifted_sets(cfg, args.samples, w, table=table)
        rows = [(args.seed, i, s.size, ";".join(map(str, s.tolist()))) for i, s in enumerate(sets)]
        config = {**base, "action": "sample", "samples": args.samples, "w": w}
        _emit(args.out, args.format, "model", config,
              ["seed", "sample_index", "size", "survivors"], rows)
    else:  # moments
        if not cfg.window_len <= w <= cfg.cutoff_z:
            raise ValueError(
                f"--w must lie in [{cfg.window_len}, {cfg.cutoff_z}], the window to the cutoff, got {w}")
        rep = model_mod.moments(cfg, w, args.samples, table)
        config = {**base, "action": "moments", "w": w, "samples": args.samples}
        rows = [(rep.w, rep.sample_count, rep.mean, rep.variance,
                 rep.predicted_mean, rep.predicted_variance_bound, True)]
        _emit(args.out, args.format, "model", config,
              ["w", "samples", "mean", "variance", "predicted_mean",
               "predicted_variance_bound", "in_lemma_range"], rows)


def _emit_bias(args, cmd: str, config: dict, cfgs, table: PrimeTable) -> None:
    """One row of parity bias, its stderr and exp(-2 lambda) per config, from one sift."""
    from . import model as model_mod

    ests = model_mod.parity_biases(cfgs, args.samples, table)
    rows = [(c.lam, est, model_mod.parity_bias_stderr(est, args.samples), math.exp(-2.0 * c.lam))
            for c, est in zip(cfgs, ests)]
    _emit(args.out, args.format, cmd, config, ["lambda", "estimate", "stderr", "exp_minus_2lambda"], rows)


def _run_bias(args) -> None:
    from . import model as model_mod

    table = _model_table(args.x, args)
    cfgs = [model_mod.ModelConfig.from_scale(args.x, lam, table, seed=args.seed)
            for lam in args.lambdas]
    config = {"x": args.x, "lambdas": args.lambdas, "samples": args.samples, "seed": args.seed}
    _emit_bias(args, "bias", config, cfgs, table)


def _run_gaps(args) -> None:
    from . import gaps as gaps_mod

    if args.action == "series":
        if args.c is not None and args.kind != "reciprocal_weighted":
            raise ValueError(f"gaps series --kind={args.kind} does not read --c")
        if args.theta is not None and args.kind != "theta_family":
            raise ValueError(f"gaps series --kind={args.kind} does not read --theta")
        given = {"c": args.c, "theta": args.theta}
        cfg = gaps_mod.GapSeriesConfig(args.kind, **{k: v for k, v in given.items() if v is not None})
        table = _get_table(args.limit or _nth_prime_upper(args.nmax + 1), args)
        trace = gaps_mod.gap_series_partial(table, cfg, args.nmax)
        config = {"action": "series", "kind": args.kind, "c": cfg.c,
                  "theta": cfg.theta, "nmax": args.nmax, "table_limit": table.limit}
        _emit(args.out, args.format, "gaps", config,
              ["index", "value_re", "value_im", "compensation"], list(trace._rows()))
    elif args.action == "smallgap":
        table = _get_table(args.limit or (2 * args.X + 1000), args)
        rows = []
        for lam in args.lambdas:
            rep = gaps_mod.small_gap_count(table, args.X, lam)
            rows.append((rep.X, rep.lam, rep.count, rep.gallagher_main,
                         rep.density_ratio, rep.in_lambda_range))
        config = {"action": "smallgap", "X": args.X, "lambdas": args.lambdas, "table_limit": table.limit}
        _emit(args.out, args.format, "gaps", config,
              ["X", "lambda", "count", "gallagher_main", "density_ratio",
               "in_lambda_range"], rows)
    else:  # blocks
        table = _get_table(args.limit or 10**6, args)
        stats = gaps_mod.dyadic_gap_stats(table)
        config = {"action": "blocks", "table_limit": table.limit}
        rows = [(s.n_lo, s.n_hi, s.min_gap, s.max_gap, s.has_gap_two) for s in stats]
        _emit(args.out, args.format, "gaps", config,
              ["n_lo", "n_hi", "min_gap", "max_gap", "has_gap_two"], rows)


def _run_parity(args) -> None:
    from . import gaps as gaps_mod

    window = gaps_mod._parity_window(args.x, args.lam)  # before the table
    table = _get_table(args.limit or (args.x + int(args.x**0.9) + window + 10), args)
    rep = gaps_mod.empirical_parity_statistic(table, args.x, args.lam, args.points, args.seed)
    config = {"x": args.x, "lambda": args.lam, "points": args.points,
              "seed": args.seed, "table_limit": table.limit}
    rows = [(rep.x, rep.lam, rep.window, rep.base_points, rep.estimate, rep.stderr,
             math.exp(-2.0 * args.lam))]
    _emit(args.out, args.format, "parity", config,
          ["x", "lambda", "window", "base_points", "estimate", "stderr",
           "exp_minus_2lambda"], rows)


def _run_calibrate(args) -> None:
    from . import calibration

    if args.suite == "series" and (args.samples is not None or args.seed is not None):
        raise ValueError("calibrate --suite=series reads neither --samples nor --seed")
    samples = 100_000 if args.samples is None else args.samples
    seed = 20260808 if args.seed is None else args.seed
    try:
        fixture = calibration.load_fixture(args.fixture)
    except FileNotFoundError:
        fixture = {}
    if args.suite in ("model", "all"):
        fixture["model"] = calibration.calibrate_model(_model_table(1e6, args), samples, seed)
    if args.suite != "model":
        table = _get_table(181_000_000, args)
        if args.suite in ("series", "all"):
            fixture["series"] = calibration.calibrate_series(table)
        if args.suite in ("gaps", "all"):
            fixture["gaps"] = calibration.calibrate_gaps(table, samples, seed)
    path = calibration.save_fixture(fixture, args.fixture)
    print(f"wrote {path}")


# -- parser ----------------------------------------------------------------

# full option names only: a prefix such as --w would otherwise mean --workers
_Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path, '-' for stdout")


def _add_table(p: argparse.ArgumentParser, *, no_cache: bool = True, limit: bool = True) -> None:
    p.add_argument("--cache-dir", default=None, help="prime cache directory (or ERDOS_CACHE_DIR)")
    if no_cache:
        p.add_argument("--no-cache", action="store_true", help="always sieve, never touch the cache")
    if limit:
        p.add_argument("--limit", type=_parse_limit, default=None, help="explicit prime-table limit")


def _add_model(p: argparse.ArgumentParser, samples: int) -> None:
    """The options of model sample, moments and bias and of bias, which derive their table from --x."""
    _add_output(p)
    _add_table(p, limit=False)
    p.add_argument("--x", type=_parse_positive, required=True)
    p.add_argument("--samples", type=_parse_int, default=samples)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--workers", type=_parse_int, default=1,
                   help="accepted and ignored: the model sifts serially")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="erdoslab", description=__doc__)
    ap.add_argument("--version", action="version", version=f"erdoslab {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("sieve", help="build a prime table and write its cache file")
    _add_output(p)
    _add_table(p, no_cache=False)
    p.set_defaults(run=_run_sieve)

    p = sub.add_parser("series", help="partial-sum trace of a prime series")
    _add_output(p)
    _add_table(p)
    p.add_argument("--kind", choices=("erdos", "parity"), default="erdos")
    p.add_argument("--nmax", type=_parse_int, required=True)
    p.add_argument("--phase", default="-1")
    p.add_argument("--ratio", type=_parse_positive, default=1.25)
    p.add_argument("--dense", action="append", default=[], metavar="LO:HI")
    p.add_argument("--average", action="store_true", help="emit pairwise-averaged trace")
    p.set_defaults(run=_run_series)

    p = sub.add_parser("equiv", help="compare the two series at matched scales")
    _add_output(p)
    _add_table(p)
    p.add_argument("--x", required=True, help="comma-separated x values")
    p.add_argument("--phase", default="-1")
    p.set_defaults(run=_run_equiv)

    p = sub.add_parser("singular", help="singular-series values")
    _add_output(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--tuple", default=None, help="comma-separated offsets")
    mode.add_argument("--hmax", type=_parse_int, default=None, help="pair table for d <= hmax (default 100)")
    p.add_argument("--truncation", type=_parse_int, default=None)
    p.set_defaults(run=_run_singular)

    p = sub.add_parser("paircorr", help="pair-correlation sums vs the asymptotic")
    _add_output(p)
    p.add_argument("--hmin", type=_parse_int, default=50)
    p.add_argument("--hmax", type=_parse_int, default=5000)
    p.add_argument("--step", type=_parse_int, default=1)
    p.set_defaults(run=_run_paircorr)

    p = sub.add_parser("tuples", help="exact tuple counts vs predictions")
    _add_output(p)
    _add_table(p)
    p.add_argument("--tuple", action="append", required=True, help="comma-separated offsets")
    p.add_argument("--x", type=_parse_int, required=True)
    p.add_argument("--eps", type=_parse_positive, default=0.05)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(run=_run_tuples)

    p = sub.add_parser("model", help="random sifted-set model")
    p.set_defaults(run=_run_model)
    actions = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    for action, text in (("sample", "survivor sets"), ("moments", "survivor-count moments"),
                         ("bias", "parity bias")):
        p = actions.add_parser(action, help=text)
        _add_model(p, 10_000)
        p.add_argument("--lambda", dest="lam", type=_parse_positive, default=1.0)
        if action != "bias":
            p.add_argument("--w", type=_parse_int, default=None)

    p = sub.add_parser("bias", help="model parity-bias curve over lambda")
    _add_model(p, 100_000)
    p.add_argument("--lambdas", type=_parse_positives, default="1,2,4")
    p.set_defaults(run=_run_bias)

    p = sub.add_parser("gaps", help="gap series, small-gap counts, dyadic blocks")
    p.set_defaults(run=_run_gaps)
    actions = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    series = actions.add_parser("series", help="partial sums of a gap series")
    series.add_argument("--kind", type=_parse_kind, default="alternating_gap", metavar="KIND",
                        help="one of erdoslab.gaps.KINDS (default alternating_gap)")
    series.add_argument("--c", type=_parse_positive, default=None,
                        help="reciprocal_weighted only (default 3)")
    series.add_argument("--theta", type=_parse_positive, default=None,
                        help="theta_family only (default 1)")
    series.add_argument("--nmax", type=_parse_int, default=10_000)
    smallgap = actions.add_parser("smallgap", help="small-gap counts vs Gallagher")
    smallgap.add_argument("--X", type=_parse_int, default=100_000)
    smallgap.add_argument("--lambdas", type=_parse_positives, default="0.5")
    blocks = actions.add_parser("blocks", help="gap extremes over dyadic blocks")
    for p in (series, smallgap, blocks):
        _add_output(p)
        _add_table(p)

    p = sub.add_parser("parity", help="parity statistic over real primes")
    _add_output(p)
    _add_table(p)
    p.add_argument("--x", type=_parse_int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_positive, default=1.0)
    p.add_argument("--points", type=_parse_int, default=100_000)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.set_defaults(run=_run_parity)

    p = sub.add_parser("calibrate", help="run oracle calibrations and write the fixture")
    _add_table(p, limit=False)
    p.add_argument("--suite", choices=("model", "series", "gaps", "all"), required=True)
    p.add_argument("--samples", type=_parse_int, default=None, help="model and gaps suites only")
    p.add_argument("--seed", type=_parse_int, default=None, help="model and gaps suites only")
    p.add_argument("--fixture", default=None, help="fixture path override")
    p.set_defaults(run=_run_calibrate)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "format") and args.out is None:
        args.out = f"erdoslab-{args.cmd}.{args.format}"
    args.cache_made, code = [], 0
    try:
        args.run(args)
    except (BoundsError, MemoryError, OSError) as exc:
        label = "range" if isinstance(exc, BoundsError) else "resource"
        print(f"error: {label}: {exc}", file=sys.stderr)
        code = 3
    except (ValueError, argparse.ArgumentTypeError) as exc:  # the latter from _parse_int
        print(f"error: invalid: {exc}", file=sys.stderr)
        code = 2
    if code:  # a failed run leaves no cache behind: each path goes before its parent
        for path in sorted(args.cache_made, key=lambda p: len(p.parts), reverse=True):
            with contextlib.suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink(missing_ok=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

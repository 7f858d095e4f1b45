import argparse
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import erdoslab
from erdoslab import calibration, cli
from erdoslab import primes as primes_mod
from erdoslab.cli import _model_table, _parse_int, build_parser, main
from erdoslab.model import sieve_cutoff
from conftest import dense_sieve
from erdoslab.primes import MAGIC, build_table, cache_path, load_table
from erdoslab.series import checkpoint_indices


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ERDOS_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _read(path):
    return path.read_text().splitlines()


def test_series_csv(workdir):
    assert main(["series", "--kind=erdos", "--nmax=1000", "--format=csv"]) == 0
    lines = _read(workdir / "erdoslab-series.csv")
    assert lines[0].startswith("# erdoslab=")
    assert "cmd=series" in lines[0]
    assert lines[1] == "index,value_re,value_im,compensation"
    assert lines[-1].split(",")[0] == "1000"
    # one row per checkpoint of the default grid
    assert len(lines) == 2 + checkpoint_indices(1, 1000).size


def test_series_json_mirror(workdir):
    assert main(["series", "--kind=erdos", "--nmax=200", "--format=json"]) == 0
    doc = json.loads((workdir / "erdoslab-series.json").read_text())
    assert doc["header"]["cmd"] == "series"
    assert doc["columns"] == ["index", "value_re", "value_im", "compensation"]
    assert doc["rows"][-1][0] == 200

    assert main(["series", "--kind=erdos", "--nmax=200", "--format=csv"]) == 0
    csv_rows = [l.split(",") for l in _read(workdir / "erdoslab-series.csv")[2:]]
    assert len(csv_rows) == len(doc["rows"])
    assert float(csv_rows[-1][1]) == doc["rows"][-1][1]


def test_parity_series_subcommand(workdir):
    assert main(["series", "--kind=parity", "--nmax=5000", "--average"]) == 0
    assert (workdir / "erdoslab-series.csv").exists()


def test_equiv(workdir):
    assert main(["equiv", "--x=1000,10000", "--out=eq.csv"]) == 0
    lines = _read(workdir / "eq.csv")
    assert "max_pairwise_spread_top_half" in lines[0]
    assert len(lines) == 4


def test_singular_modes(workdir):
    assert main(["singular", "--tuple=0,2", "--out=tw.csv"]) == 0
    row = _read(workdir / "tw.csv")[2].split(",")
    assert row[0] == "0_2"
    assert abs(float(row[1]) - 1.3203) < 1e-3
    assert main(["singular", "--hmax=50", "--out=tab.csv"]) == 0
    assert len(_read(workdir / "tab.csv")) == 52


def test_paircorr(workdir):
    assert main(["paircorr", "--hmin=50", "--hmax=200", "--step=50", "--out=pc.csv"]) == 0
    lines = _read(workdir / "pc.csv")
    assert "square_bound_holds_from" in lines[0]
    assert len(lines) == 2 + 4


def test_tuples(workdir):
    assert main(["tuples", "--tuple=0,2", "--tuple=0,1", "--x=10000", "--out=t.csv"]) == 0
    lines = _read(workdir / "t.csv")
    assert lines[1].startswith("tuple,x,count,")
    assert len(lines) == 4


def test_model_sample_and_moments(workdir):
    assert main([
        "model", "sample", "--x=1e6", "--lambda=1", "--samples=3", "--seed=9", "--out=s.csv",
    ]) == 0
    lines = _read(workdir / "s.csv")
    assert len(lines) == 5
    assert main([
        "model", "moments", "--x=1e6", "--lambda=1", "--samples=2000", "--seed=9", "--out=m.csv",
    ]) == 0
    assert _read(workdir / "m.csv")[1].startswith("w,samples,mean,")


def test_model_bias_determinism_across_workers(workdir):
    base = ["model", "bias", "--x=1e6", "--lambda=1", "--samples=20000", "--seed=42"]
    assert main(base + ["--out=a.csv"]) == 0
    assert main(base + ["--out=b.csv"]) == 0
    assert main(base + ["--out=c.csv", "--workers=4"]) == 0
    a = (workdir / "a.csv").read_bytes()
    assert a == (workdir / "b.csv").read_bytes()
    assert a == (workdir / "c.csv").read_bytes()


@pytest.mark.parametrize("w", ["0", "-7"])
def test_model_w_below_one_exits_2(workdir, capsys, w):
    # --w=0 used to sift nothing under a header naming the cutoff
    assert main(["model", "sample", "--x=1e4", "--samples=3", f"--w={w}"]) == 2
    assert main(["model", "moments", "--x=1e4", "--samples=1000", f"--w={w}"]) == 2
    assert capsys.readouterr().err.count("--w must be >= 1") == 2
    assert not any(workdir.glob("erdoslab-*"))
    # w = 1 sifts no prime, and the header says so
    assert main(["model", "sample", "--x=1e4", "--samples=1", "--w=1", "--out=one.csv"]) == 0
    header, _, row = _read(workdir / "one.csv")
    assert '"w":1,' in header and row == "0,0,9,1;2;3;4;5;6;7;8;9"


def test_model_sample_negative_samples_exits_2(workdir, capsys):
    assert main(["model", "sample", "--x=1e4", "--samples=-3"]) == 2
    assert "samples must be >= 0" in capsys.readouterr().err
    assert not any(workdir.glob("erdoslab-*"))


@pytest.mark.parametrize("truncation", ["-5", "0", "1", "2"])
def test_singular_truncation_below_3_exits_2(workdir, capsys, truncation):
    assert main(["singular", "--hmax=10", f"--truncation={truncation}"]) == 2
    assert "truncation prime" in capsys.readouterr().err
    assert not any(workdir.glob("erdoslab-*"))


@pytest.mark.parametrize("step", ["0", "-2"])
def test_paircorr_step_below_one_exits_2(workdir, capsys, step):
    assert main(["paircorr", f"--step={step}"]) == 2
    assert "--step must be >= 1" in capsys.readouterr().err
    assert not any(workdir.glob("erdoslab-*"))


@pytest.mark.parametrize("hmax", ["0", "-4"])
def test_singular_hmax_below_one_exits_2(workdir, capsys, hmax):
    assert main(["singular", f"--hmax={hmax}"]) == 2
    assert "--hmax must be >= 1" in capsys.readouterr().err
    assert not any(workdir.glob("erdoslab-*"))


@pytest.mark.parametrize("offsets", ["", ","])
def test_tuples_empty_tuple_exits_2(workdir, capsys, offsets):
    assert main(["tuples", f"--tuple={offsets}", "--x=100"]) == 2
    assert "--tuple needs at least one offset" in capsys.readouterr().err
    assert not any(workdir.glob("erdoslab-*"))
    # for singular the empty tuple is the k = 0 case, with value 1
    assert main(["singular", f"--tuple={offsets}", "--out=s.csv"]) == 0


def test_tuples_bound_error_before_later_strict_error(workdir, capsys):
    # tuple 2 overruns --limit, tuple 3 is outside the strict range (log^2 x ~ 84.8):
    # the first bad tuple decides, as when each tuple was checked and counted in turn
    argv = ["tuples", "--tuple=0,2", "--tuple=0,60", "--tuple=0,100", "--x=10000",
            "--limit=10050", "--strict"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: range: need primality up to 10060 > table limit 10050\n"
    )
    assert not any(workdir.glob("erdoslab-*"))
    assert main(argv[:3] + argv[4:]) == 3
    assert main([*argv[:2], argv[3], *argv[4:]]) == 2
    assert "outside strict ranges" in capsys.readouterr().err
    assert not any(workdir.glob("erdoslab-*"))


def test_singular_empty_tuple_is_k0(workdir):
    # --tuple= is the empty tuple, like --tuple=,, not a missing option
    assert main(["singular", "--tuple=", "--out=a.csv"]) == 0
    assert main(["singular", "--tuple=,", "--out=b.csv"]) == 0
    a = _read(workdir / "a.csv")
    assert a == _read(workdir / "b.csv")
    assert a[1:] == ["offsets,value,tail_bound,admissible", ",1.0,0.0,True"]


def test_bias_curve(workdir):
    assert main([
        "bias", "--x=1e6", "--lambdas=1,2", "--samples=10000", "--seed=1", "--out=bias.csv",
    ]) == 0
    lines = _read(workdir / "bias.csv")
    assert lines[1] == "lambda,estimate,stderr,exp_minus_2lambda"
    assert len(lines) == 4


def test_bias_rows_match_single_lambda_runs(workdir):
    # one shared sift for 5 and 1, in that order, gives the rows of two separate runs
    base = ["bias", "--x=1e6", "--samples=10000", "--seed=3"]
    assert main([*base, "--lambdas=5,1", "--out=both.csv"]) == 0
    assert main([*base, "--lambdas=5", "--out=five.csv"]) == 0
    assert main([*base, "--lambdas=1", "--out=one.csv"]) == 0
    rows = _read(workdir / "both.csv")[2:]
    assert rows == _read(workdir / "five.csv")[2:] + _read(workdir / "one.csv")[2:]
    assert [r.split(",")[0] for r in rows] == ["5.0", "1.0"]


def test_gaps_actions(workdir):
    assert main(["gaps", "series", "--kind=alternating_gap", "--nmax=1000", "--out=g.csv"]) == 0
    assert main(["gaps", "smallgap", "--X=10000", "--lambdas=0.5,1.0", "--out=sg.csv"]) == 0
    assert len(_read(workdir / "sg.csv")) == 4
    assert main(["gaps", "blocks", "--limit=100000", "--out=b.csv"]) == 0
    rows = [l.split(",") for l in _read(workdir / "b.csv")[2:]]
    assert all(r[4] == "True" for r in rows)


def test_parity_cmd(workdir):
    assert main(["parity", "--x=100000", "--lambda=1", "--points=2000", "--seed=3", "--out=p.csv"]) == 0
    lines = _read(workdir / "p.csv")
    assert lines[1].startswith("x,lambda,window,")


def test_sieve_cmd(workdir):
    assert main(["sieve", "--limit=100000", "--out=sv.csv"]) == 0
    assert (workdir / "cache" / "primes-100000.bin").exists()
    row = _read(workdir / "sv.csv")[2].split(",")
    assert row[1] == "9592"


def test_calibrate_fixture_roundtrip(workdir):
    fix = workdir / "fix.json"
    assert main([
        "calibrate", "--suite=model", "--samples=20000", "--seed=5", f"--fixture={fix}",
    ]) == 0
    doc = json.loads(fix.read_text())
    assert "c_var" in doc["model"]
    lo, hi = doc["model"]["bias_lambda1_band"]
    assert lo < 0.1353 < hi  # band brackets the asymptotic heuristic


def test_exit_code_invalid(workdir):
    assert main(["series", "--kind=erdos", "--nmax=0"]) == 2
    assert main(["singular", "--tuple=0,0"]) == 2


def test_exit_code_range(workdir):
    assert main(["series", "--kind=erdos", "--nmax=1000", "--limit=100"]) == 3


def test_parse_int_exact():
    assert _parse_int("10000000000000001") == 10000000000000001  # float would round it
    assert _parse_int("1e6") == 1_000_000


@pytest.mark.parametrize("value", ["1.5", "inf", "nan", "1e400"])
def test_inexact_int_option_exits_2(workdir, value):
    with pytest.raises(SystemExit) as exc:
        main(["tuples", "--tuple=0,2", f"--x={value}"])
    assert exc.value.code == 2


def test_nan_phase_exits_2(workdir):
    assert main(["series", "--nmax=100", "--phase=nan"]) == 2
    assert not (workdir / "erdoslab-series.csv").exists()


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["model", "bias", "--x=inf", "--samples=100"], "--x", "inf"),
        (["model", "bias", "--x=nan", "--samples=100"], "--x", "nan"),
        (["model", "bias", "--x=1e6", "--lambda=0", "--samples=100"], "--lambda", "0"),
        (["bias", "--x=1e6", "--lambdas=1,inf", "--samples=100"], "--lambdas", "inf"),
        (["parity", "--x=100000", "--lambda=inf"], "--lambda", "inf"),
        (["gaps", "smallgap", "--lambdas=inf"], "--lambdas", "inf"),
        (["gaps", "smallgap", "--lambdas=0.5,nan"], "--lambdas", "nan"),
        (["series", "--nmax=100", "--ratio=inf"], "--ratio", "inf"),
        (["gaps", "series", "--kind=reciprocal_weighted", "--c=nan"], "--c", "nan"),
        (["gaps", "series", "--kind=theta_family", "--theta=inf"], "--theta", "inf"),
        (["tuples", "--tuple=0,2", "--x=1000", "--eps=nan"], "--eps", "nan"),
        (["series", "--nmax=100", "--ratio=abc"], "--ratio", "abc"),
    ],
    ids=["x=inf", "x=nan", "lambda=0", "lambdas=1,inf", "parity lambda=inf",
         "smallgap lambdas=inf", "smallgap lambdas=0.5,nan", "series ratio=inf",
         "gaps c=nan", "gaps theta=inf", "tuples eps=nan", "series ratio=abc"],
)
def test_non_finite_float_option_exits_2(workdir, capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # rejected by the option's own parser, which names the option and the bad value
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: expected a finite number > 0, got {value!r}"
    )
    assert not any(workdir.glob("erdoslab-*"))


def _put(raw: bytes, at: int, new: bytes) -> bytes:
    return raw[:at] + new + raw[at + len(new) :]


def _resealed(raw: bytes) -> bytes:
    """``raw`` with a fresh CRC-32, so that only the checks behind it can fail."""
    body = raw[len(MAGIC) + 4 :]
    return raw[: len(MAGIC)] + zlib.crc32(body).to_bytes(4, "little") + body


def _old_format(limit: int) -> bytes:
    """A PRIMECACHE1 file: limit, then the packed odd-composite bitset."""
    odd = np.arange(3, limit + 1, 2)
    bits = np.packbits(~np.isin(odd, dense_sieve(limit)), bitorder="little")
    return b"PRIMECACHE1" + limit.to_bytes(8, "little") + bits.tobytes()


_LIMIT_AT = len(MAGIC) + 4


def _wrapping(raw: bytes) -> bytes:
    """A valid-looking file of 8421505 half-gaps of 255, whose last prime is 2^32 + 257.

    Summed in uint32, that last prime wraps to 257, below the limit of
    1000, so only a check made before decoding can refuse the file.
    """
    n = 8_421_505
    assert (3 + 510 * n) % 2**32 == 257
    return _resealed(raw[: _LIMIT_AT + 8] + (n + 2).to_bytes(8, "little") + b"\xff" * n)
_CORRUPTIONS = {  # id: (corruption of a limit-1000 file, what load_table says)
    "3-byte file": (lambda raw: raw[:3], "bad magic"),
    "cut inside header": (lambda raw: raw[: len(MAGIC) + 3], "bad magic"),
    "short payload": (lambda raw: _resealed(raw[:-5]), "inconsistent"),
    "flipped payload bit": (lambda raw: _put(raw, 100, bytes([raw[100] ^ 4])), "checksum"),
    "flipped limit bit": (lambda raw: _put(raw, _LIMIT_AT, bytes([raw[_LIMIT_AT] ^ 1])), "checksum"),
    "count mismatch": (lambda raw: _resealed(_put(raw, _LIMIT_AT + 8, (169).to_bytes(8, "little"))), "inconsistent"),
    "zero half-gap": (lambda raw: _resealed(_put(raw, len(raw) - 50, b"\0")), "zero half-gap"),
    "last prime above limit": (lambda raw: _resealed(_put(raw, len(raw) - 1, bytes([raw[-1] + 10]))), "exceeds limit"),
    "half-gaps past 2^32": (_wrapping, "exceeds limit"),
    "limit 2^32": (lambda raw: _resealed(_put(raw, _LIMIT_AT, (2**32).to_bytes(8, "little"))), "not below 2\\^32"),
    "PRIMECACHE1 file": (lambda raw: _old_format(1000), "bad magic"),
}


@pytest.mark.parametrize("corrupt, reason", _CORRUPTIONS.values(), ids=_CORRUPTIONS.keys())
def test_corrupt_cache_is_rebuilt(workdir, corrupt, reason):
    path = build_table(1000).save(cache_path(1000))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=reason):
        load_table(path)
    assert main(["gaps", "blocks", "--limit=1000", "--out=cached.csv"]) == 0
    assert main(["gaps", "blocks", "--limit=1000", "--no-cache", "--out=fresh.csv"]) == 0
    assert (workdir / "cached.csv").read_bytes() == (workdir / "fresh.csv").read_bytes()
    assert load_table(path).primes.tolist() == build_table(1000).primes.tolist()
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left


@pytest.mark.parametrize("argv", [
    ["series", "--kind=erdos", "--nmax=30000"],
    ["series", "--kind=parity", "--nmax=400000"],
    ["equiv", "--x=1000,30000"],
    ["tuples", "--tuple=0,2", "--tuple=0,2,6", "--x=300000"],
    ["gaps", "series", "--nmax=30000"],
    ["gaps", "smallgap", "--X=150000", "--lambdas=0.5"],
    ["gaps", "blocks"],
    ["parity", "--x=100000", "--points=10000", "--seed=1"],
], ids=lambda argv: " ".join(argv[:2]))
def test_loaded_table_writes_the_sieved_artifacts(workdir, monkeypatch, argv):
    # 33860 primes to 400000: 34 skip blocks and 9 CRC blocks of a loaded table
    assert main(["sieve", "--limit=400000", "--out=sieve.csv"]) == 0
    loaded, checked = [], primes_mod.load_table

    def load(path):
        loaded.append(checked(path))
        return loaded[-1]

    monkeypatch.setattr(primes_mod, "load_table", load)
    assert main([*argv, "--limit=400000", "--out=cached.csv"]) == 0
    assert [t.limit for t in loaded] == [400_000]  # the file sieve wrote, not a rebuild
    assert main([*argv, "--limit=400000", "--no-cache", "--out=fresh.csv"]) == 0
    assert (workdir / "cached.csv").read_bytes() == (workdir / "fresh.csv").read_bytes()


def test_cache_changed_after_its_load_exits_3(workdir, monkeypatch, capsys):
    # a half-gap rewritten in place between the load's checks and the reads
    # (an atomic save never does that; another writer or a faulty disk might)
    # stops the command with exit 3, and it writes no artifact
    path = build_table(100_000).save(cache_path(100_000))
    checked = primes_mod.load_table

    def load_then_change(p):
        table = checked(p)
        with open(p, "r+b") as fh:
            fh.seek(len(MAGIC) + 20 + 5000)  # half-gap 5000, which p_5002 needs
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 2]))
        return table

    monkeypatch.setattr(primes_mod, "load_table", load_then_change)
    assert main(["series", "--kind=erdos", "--nmax=6000", "--limit=100000", "--out=s.csv"]) == 3
    assert "changed after it was checked" in capsys.readouterr().err
    assert not (workdir / "s.csv").exists()
    assert path.exists()


def test_unknown_flag_exits_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--bogus=1"])
    assert exc.value.code == 2


def test_console_entry_point(workdir):
    # The child runs from workdir, where a relative PYTHONPATH (say "src")
    # resolves to nothing; put the directory holding the erdoslab under test
    # first, as an absolute path, so the child imports that same copy.
    src = str(Path(erdoslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "erdoslab.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines() == [f"erdoslab {erdoslab.__version__}"]


def test_sieve_requires_limit(workdir):
    assert main(["sieve"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [(["sieve", "--limit=1000"], "--no-cache")]
    + [(["singular", "--hmax=10"], f) for f in ("--cache-dir=c", "--no-cache", "--limit=1000")]
    + [(["paircorr", "--hmax=100"], f) for f in ("--cache-dir=c", "--no-cache", "--limit=1000")]
    + [(["model", "bias", "--x=1e4", "--samples=10000"], "--limit=10000"),
       (["bias", "--x=1e4", "--samples=10000"], "--limit=10000")]
    + [(["calibrate", "--suite=model", "--samples=10000", "--fixture=fix.json"], f)
       for f in ("--format=json", "--out=cal.csv", "--limit=10000")],
    ids=lambda v: v[0] if isinstance(v, list) else v.split("=")[0],
)
def test_unread_common_option_exits_2(workdir, capsys, argv, flag):
    # each subcommand takes only the common options its runner reads
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(workdir.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [(["gaps", "series", "--nmax=100"], f) for f in ("--X=1000", "--lambdas=1")]
    + [(["gaps", "smallgap", "--X=1000"], f)
       for f in ("--kind=theta_family", "--c=2", "--theta=2", "--nmax=100")]
    + [(["gaps", "blocks", "--limit=1000"], f)
       for f in ("--kind=theta_family", "--c=2", "--theta=2", "--nmax=100", "--X=1000", "--lambdas=1")]
    + [(["model", "bias", "--x=1e4", "--samples=10000"], "--w=50"),
       (["singular", "--tuple=0,2"], "--hmax=100")],
    ids=lambda v: "-".join(a for a in v if not a.startswith("--")) if isinstance(v, list) else v.split("=")[0],
)
def test_unread_action_option_exits_2(workdir, capsys, argv, flag):
    # each action takes only the options its branch of the runner reads
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "erdoslab singular: error: argument --hmax: not allowed with argument --tuple"
        if argv[0] == "singular" else f"erdoslab: error: unrecognized arguments: {flag}"
    )
    assert not any(workdir.iterdir())


@pytest.mark.parametrize(
    "kind, flag",
    [(k, "--c=2") for k in ("alternating_gap", "alternating_weighted_gap", "theta_family")]
    + [(k, "--theta=0.5") for k in ("reciprocal_weighted", "alternating_gap", "alternating_weighted_gap")],
)
def test_gap_series_option_its_kind_does_not_read_exits_2(workdir, capsys, kind, flag):
    # --c weights reciprocal_weighted only and --theta is theta_family's exponent
    assert main(["gaps", "series", f"--kind={kind}", "--nmax=100", flag]) == 2
    name = flag.split("=")[0]
    assert capsys.readouterr().err == f"error: invalid: gaps series --kind={kind} does not read {name}\n"
    assert not any(workdir.iterdir())


def test_gap_series_header_keeps_default_c_and_theta(workdir):
    assert main(["gaps", "series", "--kind=alternating_gap", "--nmax=100", "--out=g.csv"]) == 0
    assert (workdir / "g.csv").read_bytes().split(b"\n")[0] == (
        f"# erdoslab={erdoslab.__version__} cmd=gaps config="
        '{"action":"series","c":3.0,"kind":"alternating_gap","nmax":100,"table_limit":630,"theta":1.0}'
    ).encode()


@pytest.mark.parametrize(
    "argv",
    [["series", "--nm=100"], ["bias", "--x=1e4", "--samples=10000", "--lambda=1"],
     ["model", "bias", "--x=1e4", "--samples=10000", "--w=5"],
     ["series", "--nmax=100", "--lim=1000"], ["tuples", "--tup=0,2", "--x=100"]],
    ids=["series --nm", "bias --lambda", "model bias --w", "series --lim", "tuples --tup"],
)
def test_abbreviated_option_exits_2(workdir, argv):
    # --lambda is not --lambdas, nor --w --workers: options take their full names only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(workdir.iterdir())


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("erdoslab ")]
    assert len(lines) == 9
    parser = build_parser()
    for line in lines:
        assert parser.parse_args(line[1:]).cmd == line[1]


@pytest.mark.parametrize(
    "flags",
    [["--cache-dir=file"], [], ["--no-cache", "--out=out"]],
    ids=["cache dir is a file", "cache file is a directory", "out is a directory"],
)
def test_os_error_exits_3(workdir, capsys, flags):
    (workdir / "file").write_text("")
    (workdir / "cache" / "primes-1000.bin").mkdir(parents=True)
    (workdir / "out").mkdir()
    assert main(["gaps", "blocks", "--limit=1000", *flags]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: resource: [Errno ")
    assert not any(workdir.glob("erdoslab-*"))


@pytest.mark.parametrize("limit", ["0", "1", "-7"])
@pytest.mark.parametrize(
    "argv",
    [["sieve"], ["series", "--nmax=100"], ["equiv", "--x=100"], ["tuples", "--tuple=0,2", "--x=100"],
     ["gaps", "series"], ["gaps", "smallgap"], ["gaps", "blocks"], ["parity", "--x=1000"]],
    ids=lambda v: "-".join(a for a in v if not a.startswith("--")),
)
def test_limit_below_two_exits_2(workdir, capsys, argv, limit):
    # a limit of 0 used to fall back to the default table silently
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--limit={limit}"])
    assert exc.value.code == 2
    assert "argument --limit: must be >= 2" in capsys.readouterr().err
    assert not any(workdir.iterdir())


@pytest.mark.parametrize("limit", ["4294967296", "1e10", "9223372036854775807"])
@pytest.mark.parametrize(
    "argv",
    [["sieve"], ["series", "--nmax=100"], ["equiv", "--x=100"], ["tuples", "--tuple=0,2", "--x=100"],
     ["gaps", "series"], ["gaps", "smallgap"], ["gaps", "blocks"], ["parity", "--x=1000"]],
    ids=lambda v: "-".join(a for a in v if not a.startswith("--")),
)
def test_limit_of_2_to_32_exits_2(workdir, capsys, argv, limit):
    # the table holds uint32 primes
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--limit={limit}"])
    assert exc.value.code == 2
    assert "argument --limit: must be below 2^32" in capsys.readouterr().err
    assert not any(workdir.iterdir())


@pytest.mark.parametrize("no_cache", [[], ["--no-cache"]], ids=["cache", "no-cache"])
@pytest.mark.parametrize(
    "argv", [["equiv", "--x=1e9"], ["series", "--nmax=3e8"]], ids=["equiv x=1e9", "series nmax=3e8"]
)
def test_derived_limit_of_2_to_32_exits_3(workdir, capsys, argv, no_cache):
    # x log x = 2.07e10 and the bound on p_(3e8), 6.7e9: refused before any sieving
    assert main([*argv, *no_cache]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: range: table limit ") and "2^32" in err[0]
    assert not any(workdir.iterdir())


@pytest.mark.parametrize("flags", [["--samples=10000"], ["--seed=1"], ["--samples=10000", "--seed=1"]])
def test_calibrate_series_rejects_samples_and_seed(workdir, capsys, flags):
    # calibrate_series reads only the table, so these options would change nothing
    assert main(["calibrate", "--suite=series", *flags, "--fixture=fix.json"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid: calibrate --suite=series reads neither --samples nor --seed\n"
    )
    assert not any(workdir.iterdir())


@pytest.mark.parametrize(
    "argv, want",
    [(["--suite=all"], {"model": (100_000, 20260808), "series": (), "gaps": (100_000, 20260808)}),
     (["--suite=all", "--samples=7", "--seed=3"], {"model": (7, 3), "series": (), "gaps": (7, 3)}),
     (["--suite=model", "--seed=3"], {"model": (100_000, 3)}),
     (["--suite=gaps", "--samples=7"], {"gaps": (7, 20260808)}),
     (["--suite=series"], {"series": ()})],
    ids=["all", "all samples seed", "model seed", "gaps samples", "series"],
)
def test_calibrate_suites_read_samples_and_seed(workdir, monkeypatch, argv, want):
    calls = {}

    def fake(suite):
        def run(table, *rest):
            calls[suite] = rest
            return {}
        return run

    for suite in ("model", "series", "gaps"):
        monkeypatch.setattr(calibration, f"calibrate_{suite}", fake(suite))
    monkeypatch.setattr(cli, "_get_table", lambda limit, args: build_table(1000))
    assert main(["calibrate", *argv, "--fixture=fix.json"]) == 0
    assert calls == want


def test_model_table_covers_the_cutoff():
    # the model's table limit holds the sieve cutoff, so no caller needs a larger table
    args = argparse.Namespace(no_cache=True, cache_dir=None)
    for x in np.geomspace(10, 1e10, 200):
        table = _model_table(float(x), args)
        assert sieve_cutoff(float(x), table) <= table.limit


_NOT_INT = "expected an integer in (-2^63, 2^63), got '1.5'"
_NOT_WINDOW = "error: invalid: --dense expects LO:HI with LO <= HI, got"
_X_VALUES = "error: invalid: x_values must be integers >= 3, so that M = floor(x log x) >= 2"
_W_RANGE = "error: invalid: --w must lie in [14, 2293], the window to the cutoff, got"


@pytest.mark.parametrize(
    "argv, err",
    [(["series", "--nmax=1.5"], f"erdoslab series: error: argument --nmax: {_NOT_INT}"),
     (["series", "--nmax=ten"], "erdoslab series: error: argument --nmax: expected an integer, got 'ten'"),
     # parsed by the runners, not by argparse
     (["equiv", "--x=100,1.5"], f"error: invalid: {_NOT_INT}"),
     (["series", "--nmax=100", "--dense=1.5:3"], f"error: invalid: {_NOT_INT}"),
     (["tuples", "--tuple=0,2", "--x=100", "--eps=2"], "error: invalid: epsilon must be in (0,1), got 2.0"),
     (["series", "--nmax=1000", "--dense=10:5", "--average"], f"{_NOT_WINDOW} '10:5'"),
     (["series", "--nmax=1000", "--dense=5"], f"{_NOT_WINDOW} '5'"),
     (["series", "--nmax=1000", "--dense=1:2:3"], f"{_NOT_WINDOW} '1:2:3'"),
     (["equiv", "--x=0"], _X_VALUES),
     (["equiv", "--x=2,3,10"], _X_VALUES),
     (["parity", "--x=0"], "error: invalid: x must be >= 10, got 0"),
     (["parity", "--x=-5"], "error: invalid: x must be >= 10, got -5"),
     (["paircorr", "--hmin=100", "--hmax=50"], "error: invalid: --hmin must be <= --hmax, got 100 > 50"),
     # the lemma range of the moments is [window_len, cutoff_z] = [14, 2293] at 1e6
     (["model", "moments", "--x=1e6", "--w=5"], f"{_W_RANGE} 5"),
     (["model", "moments", "--x=1e6", "--w=3000"], f"{_W_RANGE} 3000")],
    ids=["nmax 1.5", "nmax ten", "equiv x", "dense", "eps 2",
         "dense reversed", "dense one value", "dense three values", "equiv x 0", "equiv x 2",
         "parity x 0", "parity x negative", "paircorr hmin above hmax",
         "moments w below window", "moments w above cutoff"],
)
def test_invalid_option_message_exits_2(workdir, capsys, argv, err):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports its own errors
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == err
    assert not any(workdir.glob("erdoslab-*"))


def test_short_table_exits_3(workdir, capsys):
    # 168 primes up to 1000: the series stops, where a slice would return 168 terms
    assert main(["series", "--limit=1000", "--nmax=100000"]) == 3
    assert capsys.readouterr().err == "error: range: need p_100000 but table holds only 168 primes\n"
    assert not any(workdir.glob("erdoslab-*"))

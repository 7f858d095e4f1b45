"""Run one erdoslab command in this process with every layer traced.

    python3 perfbench/traced_child.py [--peak-mem] STATS_JSON CLI_ARG...

run.py starts this in a fresh process per command, with PYTHONPATH set to
the checkout's ``src/``, so spans see the same cold process a CLI user
gets. It writes the exit code, the seconds spent in ``erdoslab.cli.main``
and the span statistics to STATS_JSON. ``--peak-mem`` turns on the
tracemalloc peak of the targets that ask for it (tracer.Target.peak_mem).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    peak_mem = argv[0] == "--peak-mem"
    if peak_mem:
        argv = argv[1:]
    out, cli_argv = Path(argv[0]), argv[1:]
    cli = layers.import_cli(Path(__file__).resolve().parent.parent / "src")
    error = None
    with Tracer(layers.TARGETS, peak_mem=peak_mem) as tr:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(cli_argv)
        except Exception as exc:  # reported as a failed command by run.py
            rc, error = -1, repr(exc)
        main_s = time.perf_counter() - t0
    out.write_text(json.dumps({
        "rc": rc, "error": error, "main_s": main_s, "missing": tr.missing,
        "stats": {k: dataclasses.asdict(s) for k, s in tr.stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

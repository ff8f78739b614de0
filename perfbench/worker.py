"""One benchmark pass of one workload, in a fresh interpreter.

Started by run.py, never imported by it: every pass pays the interpreter
start, the package import and the cold word-count tables, as a script or a
single `henonshift` call does.  Prints one JSON object on its last stdout
line:

  setup_s   from the parent's spawn (--t0, CLOCK_MONOTONIC) until the
            package is imported and the seeded inputs are written
  wall_s    the library steps, from the first analysis call to the last
            checked result
  cli_s     the sum of the CLI verbs' main() calls
  rss_mb    ru_maxrss of this process at exit
  checks, failed, messages, counts
  spans, self   (modes spans and alloc) total time per span name and self
            time per layer
  alloc     (mode alloc) tracemalloc peak per layer; tracemalloc slows
            allocation-heavy layers several-fold, so mode spans, which runs
            without it, is the one whose times are reported
  env       interpreter and library versions, thread caps, input sizes

Usage: worker.py --workload NAME --seed N --size full|small
                 --mode plain|spans|alloc --t0 MONOTONIC --work DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy

import henonshift
from henonshift import cli
from run import THREAD_VARS
from workloads import SIZES, WORKLOADS


class Recorder:
    """Checks, counts and (unless mode is plain) layer spans of one pass."""

    def __init__(self, mode: str, work: str):
        self.traced = mode != "plain"
        self.alloc = mode == "alloc"
        self.work = work
        self.checks = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.cli_s = 0.0
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.alloc_mb: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span

    @contextmanager
    def span(self, name: str):
        """Time a call into layer name.split('.')[0]; a no-op untraced."""
        if not self.traced:
            yield
            return
        top = not self._open
        if top and self.alloc:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            child = self._open.pop()
            layer = name.split(".", 1)[0]
            self.span_s[name] += dur
            self.self_s[layer] += dur - child
            if self._open:
                self._open[-1] += dur
            elif self.alloc:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.alloc_mb[layer] = max(self.alloc_mb[layer], peak)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def cli(self, argv: list[str]) -> dict:
        """Run one verb through henonshift.cli.main; return its "result"."""
        name = "cli." + "_".join(argv[:2]).replace("-", "_")
        out = os.path.join(self.work, name + ".json")
        with self.span(name):
            start = time.perf_counter()
            try:
                code = cli.main(argv + ["--out", out, "--no-timestamp"])
            except SystemExit as e:  # argparse usage errors exit 1
                code = e.code
            self.cli_s += time.perf_counter() - start
        if code != 0:
            self.count("cli.exit_nonzero")
        self.check(code == 0, f"{' '.join(argv[:2])} exited with code {code}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)["result"]

    def run_steps(self, steps, inputs: dict, state: dict) -> None:
        for step in steps:
            try:
                step(inputs, self, state)
            except Exception as e:  # a raising call is one failed check
                self.checks += 1
                self.failed += 1
                self.messages.append(f"{step.__name__} raised {type(e).__name__}: {e}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "small"), required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "alloc"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    setup, library, cli_steps = WORKLOADS[args.workload]
    inputs = setup(
        np.random.default_rng(args.seed), SIZES[args.workload][args.size], args.work
    )
    setup_s = time.monotonic() - args.t0

    rec = Recorder(args.mode, args.work)
    if rec.alloc:
        tracemalloc.start()
    state: dict = {}
    start = time.perf_counter()
    rec.run_steps(library, inputs, state)
    wall_s = time.perf_counter() - start
    rec.run_steps(cli_steps, inputs, state)
    if rec.alloc:
        tracemalloc.stop()

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cli_s": rec.cli_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": rec.checks,
        "failed": rec.failed,
        "messages": rec.messages,
        "counts": rec.counts,
        "spans": rec.span_s,
        "self": rec.self_s,
        "alloc": rec.alloc_mb,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "henonshift": henonshift.__version__,
            "pythonpath": os.environ.get("PYTHONPATH"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "sizes": SIZES[args.workload][args.size],
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

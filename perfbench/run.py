"""Oracle-checked benchmark of every henonshift layer.

    python3 perfbench/run.py --workload census|symbolic|dynamics --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; the package is imported from src/
(PYTHONPATH=src), as the tier-1 test command does.  Each workload is a closed
loop with one caller: passes run back to back, each in a fresh interpreter
(worker.py), until S seconds have gone by.  A pass draws its inputs from the
seed, so every pass of a run repeats the same work from a cold start.

--trace 0 reports the end-to-end metrics, as medians over the passes:
  wall_s       library phase, first analysis call to last checked result
  cli_s        the workload's CLI verbs, run in-process via henonshift.cli.main
  setup_s      interpreter start, import henonshift, seeded inputs and files
  peak_rss_mb  ru_maxrss of the pass process
--trace 1 reports, per layer (markov, words, henon, orbits, stats, cli), self
time, named spans, counts and tracemalloc peaks, plus the tracing overhead:
span-timed wall_s minus untraced wall_s.  Its first pass runs under
tracemalloc for the peaks only, since tracemalloc slows allocation-heavy
layers several-fold; the passes after it alternate span-timed and untraced.
Spans are recorded in the benchmark's own files around each call into the
package, never inside it.

Every result is checked against an exact oracle.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}, where attempted counts the
oracle checks (checks_total) and failed those that failed, a raising call or
a nonzero CLI exit included; the lines above it give the run context, each
pass, and every metric by name and unit with fail_ratio = failed/attempted.

--selftest runs each workload once on reduced inputs, in both modes, and
fails unless every metric named in BENCHMARK.json is emitted with its unit
and fail_ratio is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("census", "symbolic", "dynamics")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# Start no pass after LAST_START_S and stop any pass after PASS_TIMEOUT_S, so
# a run ends inside 180 s.
LAST_START_S = 60.0
PASS_TIMEOUT_S = 110.0

LAYERS = ("markov", "words", "henon", "orbits", "stats", "cli")
# Every span a workload records; each is reported as "<span>_s".
SPANS = (
    "orbits.census2d", "orbits.census2d_custom", "orbits.fixed_points_1d",
    "orbits.equidist", "orbits.entropy_fit",
    "words.count_sweep", "words.enumerate", "words.divides",
    "words.synthetic_census", "words.dimension_bound",
    "markov.perron_large", "markov.perron_small", "markov.build_mme",
    "markov.count_loops", "markov.spr", "markov.chain_entropy", "markov.fix_count",
    "henon.lyapunov", "henon.lyapunov_custom", "henon.checks",
    "stats.box_dimension", "stats.sample", "stats.mixing_clt", "stats.return_decay",
    "cli.orbits_census", "cli.orbits_entropy", "cli.orbits_equidist",
    "cli.shift_entropy", "cli.shift_mme",
    "cli.shift_spr", "cli.stats_return_decay", "cli.stats_mixing", "cli.stats_clt",
    "cli.stats_boxdim",
)
# Work counts: 2-D census seeds (the doubled refine_check grid included) and
# fixed points found, censuses with stable False, word-count values requested
# by the sweep, words enumerated, map steps in lyapunov, points box-counted,
# and CLI verbs that exited nonzero.
COUNTS = (
    "orbits.seeds", "orbits.fix_points", "orbits.unstable_censuses",
    "words.table_entries", "words.words_enumerated", "henon.steps",
    "stats.points_boxed", "cli.exit_nonzero",
)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # BLAS/OpenMP pools are sized when numpy loads, so cap them here.
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    return env


def run_pass(workload: str, seed: int, size: str, mode: str) -> dict:
    """One worker process; returns its JSON record or raises RuntimeError."""
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--size", size, "--mode", mode,
             "--t0", repr(t0), "--work", work],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise RuntimeError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} pass exited with code {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _mode(trace: int, i: int) -> str:
    """Worker mode of pass i: traced runs start with one tracemalloc pass,
    then alternate span-timed and untraced passes."""
    if not trace:
        return "plain"
    if i == 0:
        return "alloc"
    return "spans" if i % 2 else "plain"


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
            min_passes: int = 3) -> tuple[dict, list[dict]]:
    """Run passes for `seconds` (and at least min_passes); aggregate them."""
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        if passes and time.monotonic() - start > LAST_START_S:
            break
        mode = _mode(trace, len(passes))
        record = run_pass(workload, seed, size, mode)
        record["mode"] = mode
        passes.append(record)

    attempted = sum(p["checks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if p["mode"] == "plain"]
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics["wall_s"] = (_median(p["wall_s"] for p in plain), "s")
        metrics["cli_s"] = (_median(p["cli_s"] for p in plain), "s")
        metrics["setup_s"] = (_median(p["setup_s"] for p in plain), "s")
        metrics["peak_rss_mb"] = (_median(p["rss_mb"] for p in plain), "MB")
    else:
        traced = [p for p in passes if p["mode"] == "spans"]
        alloc = [p for p in passes if p["mode"] == "alloc"]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (_median(p["self"].get(layer, 0.0) for p in traced), "s")
            metrics[f"{layer}.peak_alloc_mb"] = (
                _median(p["alloc"].get(layer, 0.0) for p in alloc), "MB")
        for span in SPANS:
            metrics[f"{span}_s"] = (_median(p["spans"].get(span, 0.0) for p in traced), "s")
        for name in COUNTS:
            values = {p["counts"].get(name, 0) for p in passes}
            attempted += 1
            if len(values) != 1:
                failed += 1
                print(f"count {name} differs between passes: {sorted(values)}", file=sys.stderr)
            metrics[name] = (max(values), "count")
        seeds, points = metrics["orbits.seeds"][0], metrics["orbits.fix_points"][0]
        metrics["orbits.yield"] = (points / seeds if seeds else 0.0, "ratio")
        metrics["trace.overhead_s"] = (
            _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in plain), "s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, passes


def report(workload: str, seed: int, seconds: float, trace: int, result: dict,
           passes: list[dict]) -> None:
    """Print the run context, each pass, each metric, then the result line."""
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "nproc": NPROC, "platform": platform.platform(),
        "passes": len(passes), "closed_loop_clients": 1, **passes[0]["env"],
    }
    print("context " + json.dumps(context, sort_keys=True))
    for i, p in enumerate(passes):
        print(f"pass {i} mode={p['mode']} setup_s={p['setup_s']:.4f} "
              f"wall_s={p['wall_s']:.4f} cli_s={p['cli_s']:.4f} rss_mb={p['rss_mb']:.1f} "
              f"checks={p['checks']} failed={p['failed']}")
        for message in p["messages"]:
            print(f"pass {i} check failed: {message}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload} fail_ratio {ratio:.6g} ratio "
          f"(failed {result['failed']} of checks_total {result['attempted']})")
    print(json.dumps(result))


def selftest() -> int:
    """Each workload once on reduced inputs, in both modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOAD_NAMES:
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result, passes = measure(workload, 1, 0.0, trace, "small", 1 + 2 * trace)
            except RuntimeError as e:
                problems.append(str(e))
                continue
            report(workload, 1, 0.0, trace, result, passes)
            emitted = result["metrics"]
            for m in spec[key]:
                if emitted.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{workload}: {m['name']} [{m['unit']}] not emitted")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: fail_ratio is not 0")
            for p in passes:
                unknown = (set(p["spans"]) - set(SPANS)) | (set(p["counts"]) - set(COUNTS))
                if unknown:
                    problems.append(f"{workload}: unreported spans/counts {sorted(unknown)}")
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    # exit through SystemExit on SIGTERM, so subprocess.run kills the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "henonshift", "__init__.py")):
        print(f"no henonshift sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, passes = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.seconds, args.trace, result, passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())

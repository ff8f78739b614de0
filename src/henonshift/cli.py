"""Command-line front end: one executable, verb-noun subcommands.

Exit codes: 0 success, 1 usage error (bad flags, malformed input files),
2 analysis-level failure (check did not pass, escape/overflow, horizon
too short).  Outputs are JSON by default (CSV where a table is natural),
embed the resolved configuration and library version, and are written
atomically when --out is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from typing import Callable

import numpy as np

from . import __version__
from .henon import HenonMap
from .markov import (
    ConvergenceError,
    CylinderWord,
    NotStronglyConnectedError,
    build_mme,
    chain_entropy,
    count_loops,
    equidistribution_cylinder,
    gurevich_entropy,
    is_spr,
    load_graph,
    perron,
    radii,
    shift_periodic_census,
)
from .orbits import (
    census_to_csv,
    entropy_from_census,
    equidistribution_test,
    fixed_points_1d,
    periodic_orbits_2d,
)
from .stats import (
    _box_slope,
    box_count_table,
    cantor_sample,
    chebyshev_polynomial,
    clt_test,
    coboundary,
    coordinate,
    covariance_decay,
    lipschitz_bump,
    return_decay_check,
    sample_mme_1d,
    segment_sample,
    smoothed_indicator,
    square_sample,
)
from .words import model_from_dict, synthetic_census


class UsageError(Exception):
    """Bad flag values or unreadable inputs: exit code 1."""


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for analysis failures; argparse would default to 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# helpers


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    if isinstance(o, float) and (math.isinf(o) or math.isnan(o)):
        return str(o)
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _sanitize(x):
    """JSON has no inf/nan literals; stringify them."""
    if isinstance(x, dict):
        return {k: _sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sanitize(v) for v in x]
    if isinstance(x, float) and (math.isinf(x) or math.isnan(x)):
        return str(x)
    return x


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args: argparse.Namespace, result: dict, csv_rows=None, csv_header=None) -> None:
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "config") and not k.startswith("_")
    }
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        w = csv.writer(buf)
        if csv_header:
            w.writerow(csv_header)
        for row in csv_rows:
            w.writerow(row)
        text = buf.getvalue()
    else:
        payload = {
            "command": getattr(args, "_command", ""),
            "version": __version__,
            "config": _sanitize(cfg),
            "result": _sanitize(result),
        }
        if not args.no_timestamp:
            payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e


def _graph(args):
    try:
        return load_graph(args.graph)
    except FileNotFoundError as e:
        raise UsageError(f"cannot read {args.graph}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(
            f"malformed JSON in {args.graph}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e


def _map_from_args(args) -> HenonMap:
    return HenonMap(a=args.a, b=args.b, perturbation=args.perturbation)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        return (int(nx), int(ny))
    except Exception as e:
        raise UsageError(f"--grid expects NXxNY, got {text!r}") from e


_OBSERVABLES = "x | cheb:k | bump:center,width | ind:lo,hi,ramp"


def _observable(spec: str) -> Callable[[np.ndarray], np.ndarray]:
    if spec == "x":
        return coordinate()
    if spec.startswith("cheb:"):
        return chebyshev_polynomial(int(spec.split(":", 1)[1]))
    if spec.startswith("bump:"):
        c, w = (float(t) for t in spec.split(":", 1)[1].split(","))
        return lipschitz_bump(c, w)
    if spec.startswith("ind:"):
        lo, hi, ramp = (float(t) for t in spec.split(":", 1)[1].split(","))
        return smoothed_indicator(lo, hi, ramp)
    raise UsageError(f"unknown observable {spec!r}; use {_OBSERVABLES}")


# ---------------------------------------------------------------------------
# shift handlers


def _cmd_shift_entropy(args) -> int:
    g = _graph(args)
    h = gurevich_entropy(g)
    spec = perron(g, tol=args.tol)
    _emit(args, {"entropy": h, "lambda": spec.lam, "residual": spec.residual,
                 "tol": args.tol})
    return 0


def _cmd_shift_mme(args) -> int:
    g = _graph(args)
    spec = perron(g, tol=args.tol)
    chain = build_mme(spec, g)
    idx = {v: i for i, v in enumerate(chain.vertices)}
    p = {
        u: {v: chain.p[idx[u]][idx[v]] for v in chain.vertices if chain.p[idx[u]][idx[v]] > 0}
        for u in chain.vertices
    }
    _emit(
        args,
        {
            "vertices": list(chain.vertices),
            "h_top": chain.h_top,
            "chain_entropy": chain_entropy(chain),
            "pi": {v: chain.pi[idx[v]] for v in chain.vertices},
            "p": p,
            "residual": spec.residual,
            "tol": args.tol,
        },
    )
    return 0


def _cmd_shift_spr(args) -> int:
    g = _graph(args)
    census = count_loops(g, args.horizon)
    report = is_spr(census, margin=args.margin)
    _emit(
        args,
        {
            "is_spr": report.spr,
            "R": report.R,
            "R_star": report.R_star,
            "margin": report.margin,
            "horizon": args.horizon,
            "warnings": list(report.warnings),
        },
    )
    return 0 if report.spr else 2


def _cmd_shift_fix_count(args) -> int:
    g = _graph(args)
    count = shift_periodic_census(g, args.p)
    _emit(args, {"p": args.p, "count": count})
    return 0


def _cmd_shift_equidist(args) -> int:
    g = _graph(args)
    cyl = CylinderWord(tuple(args.cylinder.split(",")))
    chain = build_mme(perron(g), g)
    comp = equidistribution_cylinder(g, args.p, cyl, chain)
    diff = abs(comp.empirical - comp.mme)
    _emit(
        args,
        {
            "p": args.p,
            "cylinder": list(cyl.word),
            "empirical": comp.empirical,
            "mme": comp.mme,
            "diff": diff,
            "threshold": args.threshold,
        },
    )
    if args.threshold is not None and diff > args.threshold:
        return 2
    return 0


# ---------------------------------------------------------------------------
# orbit handlers


def _cmd_orbits_census(args) -> int:
    m = _map_from_args(args)
    c = periodic_orbits_2d(
        m, args.p, grid=_parse_grid(args.grid), tol=args.tol,
        refine_check=args.refine_check,
    )
    def cfmt(z: complex) -> str:
        if z.imag == 0.0:
            return f"{z.real:.17g}"
        return f"{z.real:.17g}{z.imag:+.17g}j"

    rows = [
        (
            c.p,
            o.least_period,
            f"{o.representative[0]:.17g}",
            f"{o.representative[1]:.17g}",
            cfmt(o.multipliers[0]),
            cfmt(o.multipliers[1]),
            f"{o.residual:.3e}",
        )
        for o in c.orbits
    ]
    result = {
        "p": c.p,
        "count_fix": c.count_fix,
        "n_orbits": len(c.orbits),
        "stable": c.stable,
        "tol": c.tol,
        "orbits": [
            {
                "representative": list(o.representative),
                "least_period": o.least_period,
                "multipliers": [
                    {"re": mm.real, "im": mm.imag} for mm in o.multipliers
                ],
                "residual": o.residual,
                "non_hyperbolic": o.non_hyperbolic,
            }
            for o in c.orbits
        ],
    }
    _emit(args, result, csv_rows=rows,
          csv_header=["p", "least_period", "x", "y", "mult1", "mult2", "residual"])
    return 0


def _cmd_orbits_entropy(args) -> int:
    m = _map_from_args(args)
    censuses = [
        periodic_orbits_2d(m, p, grid=_parse_grid(args.grid), tol=args.tol)
        for p in range(args.p_min, args.p_max + 1)
    ]
    est = entropy_from_census(censuses)
    _emit(args, est.to_dict())
    return 0


def _cmd_orbits_equidist(args) -> int:
    m = _map_from_args(args)
    if args.b == 0.0 and args.perturbation == "zero":
        points = fixed_points_1d(args.a, args.p, tol=args.tol)
    else:
        points = periodic_orbits_2d(m, args.p, grid=_parse_grid(args.grid), tol=args.tol)
    if args.reference != "arcsine":
        raise UsageError("only the arcsine reference is built in")
    rep = equidistribution_test(points, "arcsine", statistic=args.statistic)
    _emit(args, rep.to_dict() | {"threshold": args.threshold})
    if args.threshold is not None and rep.distance > args.threshold:
        return 2
    return 0


# ---------------------------------------------------------------------------
# stats handlers


def _cmd_stats_mixing(args) -> int:
    mu = sample_mme_1d(args.kind, args.n, args.seed)
    m = HenonMap(a=args.a, b=0.0, perturbation="zero")
    fit = covariance_decay(m, mu, _observable(args.g), _observable(args.obs_h), args.n_max)
    scale = None
    if fit.used:
        first = fit.used[0]
        scale = abs(fit.values[first - 1])
    rows = []
    for lag, v in zip(fit.lags, fit.values):
        fitted = (
            "" if (fit.degenerate or scale is None)
            else scale * fit.kappa ** (lag - fit.used[0])
        )
        rows.append((lag, v, fitted))
    _emit(args, fit.to_dict(), csv_rows=rows, csv_header=["lag", "cov", "fit"])
    return 0


def _cmd_stats_clt(args) -> int:
    mu = sample_mme_1d(args.kind, args.sample_n, args.seed)
    m = HenonMap(a=args.a, b=0.0, perturbation="zero")
    if args.psi == "coboundary":
        a = args.a
        psi = coboundary(lambda x: np.sin(x), lambda x: x * x + a)
    else:
        psi = _observable(args.psi)
    rep = clt_test(m, mu, psi, n=args.n, trials=args.trials, alpha=args.alpha,
                   seed=args.seed)
    _emit(args, rep.to_dict())
    if rep.degenerate:
        return 0
    return 0 if rep.passed else 2


def _cmd_stats_boxdim(args) -> int:
    if args.points:
        try:
            pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read points from {args.points}: {e}") from e
        if not np.isfinite(pts).all():
            raise UsageError(
                f"cannot read points from {args.points}: non-finite coordinate")
    else:
        if args.seed is None:
            raise UsageError("--seed is required with --set")
        maker = {"segment": segment_sample, "square": square_sample,
                 "cantor": cantor_sample}.get(args.set)
        if maker is None:
            raise UsageError(f"unknown --set {args.set!r}")
        pts = maker(args.n, args.seed)
    if args.scales:
        scales = [float(t) for t in args.scales.split(",")]
    elif args.set == "cantor":
        scales = [3.0**-k for k in range(1, 11)]
    else:
        scales = [2.0**-k for k in range(2, 10)]
    table = box_count_table(pts, scales)
    dim = _box_slope(table, len(pts))
    _emit(
        args,
        {"dimension": dim, "counts": [{"eps": e, "boxes": c} for e, c in table],
         "n_points": int(len(pts))},
        csv_rows=[(e, c) for e, c in table],
        csv_header=["eps", "boxes"],
    )
    return 0


def _cmd_stats_return_decay(args) -> int:
    if (args.graph is None) == (args.model is None):
        raise UsageError("exactly one of --graph or --model is required")
    if args.graph:
        g = _graph(args)
        census = count_loops(g, args.horizon)
        chain = build_mme(perron(g), g)
        h_top = args.h_top if args.h_top is not None else gurevich_entropy(g)
    else:
        model, _params = model_from_dict(_load_json_file(args.model))
        census = synthetic_census(model, args.horizon)
        chain = None
        if args.h_top is not None:
            h_top = args.h_top
        else:
            r = radii(census)
            if not (0 < r.R < math.inf):
                raise RuntimeError("cannot infer h_top from census radii; pass --h-top")
            h_top = -math.log(r.R)
    fit = return_decay_check(chain, census, h_top)
    rows = list(zip(fit.lags, fit.values))
    _emit(args, fit.to_dict() | {"h_top": h_top},
          csv_rows=rows, csv_header=["n", "tail"])
    return 0 if fit.exponential else 2


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="write output here (atomic); default stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit timestamp for byte-identical reruns")
    sp.add_argument("--config", help="JSON file of flag defaults (dest: value)")


def _add_map_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--perturbation", choices=("zero", "classical"), default=None)


def build_parser() -> _Parser:
    ap = _Parser(prog="henonshift", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    top = ap.add_subparsers(dest="group", required=True)

    shift = top.add_parser("shift", help="countable Markov shift analyses")
    shift_sub = shift.add_subparsers(dest="verb", required=True)

    sp = shift_sub.add_parser("entropy")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tol", type=float, default=1e-13)
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_entropy, _command="shift entropy")

    sp = shift_sub.add_parser("mme")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tol", type=float, default=1e-13)
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_mme, _command="shift mme")

    sp = shift_sub.add_parser("spr")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--margin", type=float, default=0.05)
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_spr, _command="shift spr")

    sp = shift_sub.add_parser("fix-count")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_fix_count, _command="shift fix-count")

    sp = shift_sub.add_parser("equidist")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--cylinder", required=True,
                    help="comma-separated vertex names, e.g. g0,g0")
    sp.add_argument("--threshold", type=float, default=None,
                    help="exit 2 if |empirical - mme| exceeds this")
    _add_common(sp)
    sp.set_defaults(func=_cmd_shift_equidist, _command="shift equidist")

    orbits = top.add_parser("orbits", help="periodic-orbit censuses")
    orbits_sub = orbits.add_subparsers(dest="verb", required=True)

    sp = orbits_sub.add_parser("census")
    _add_map_flags(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--grid", default="256x8")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--refine-check", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_orbits_census, _command="orbits census")

    sp = orbits_sub.add_parser("entropy")
    _add_map_flags(sp)
    sp.add_argument("--p-min", type=int, default=1)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--grid", default="256x8")
    sp.add_argument("--tol", type=float, default=1e-12)
    _add_common(sp)
    sp.set_defaults(func=_cmd_orbits_entropy, _command="orbits entropy")

    sp = orbits_sub.add_parser("equidist")
    _add_map_flags(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--reference", default="arcsine")
    sp.add_argument("--statistic", choices=("KS", "cylinder"), default="KS")
    sp.add_argument("--grid", default="256x8")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--threshold", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_orbits_equidist, _command="orbits equidist")

    stats = top.add_parser("stats", help="statistical verification")
    stats_sub = stats.add_subparsers(dest="verb", required=True)

    sp = stats_sub.add_parser("mixing")
    sp.add_argument("--kind", choices=("arcsine", "chain"), default="arcsine")
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--a", type=float, default=-2.0)
    sp.add_argument("--n-max", type=int, default=10)
    sp.add_argument("--g", default="x", help=_OBSERVABLES)
    sp.add_argument("--h", dest="obs_h", default="x", help=_OBSERVABLES)
    _add_common(sp)
    sp.set_defaults(func=_cmd_stats_mixing, _command="stats mixing")

    sp = stats_sub.add_parser("clt")
    sp.add_argument("--kind", choices=("arcsine", "chain"), default="arcsine")
    sp.add_argument("--sample-n", type=int, default=50_000)
    sp.add_argument("--n", type=int, default=4096)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--alpha", type=float, default=0.01)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--a", type=float, default=-2.0)
    sp.add_argument("--psi", default="x", help=_OBSERVABLES + " | coboundary")
    _add_common(sp)
    sp.set_defaults(func=_cmd_stats_clt, _command="stats clt")

    sp = stats_sub.add_parser("boxdim")
    sp.add_argument("--points", help="CSV file of coordinates")
    sp.add_argument("--set", choices=("segment", "square", "cantor"))
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--scales", help="comma-separated box sizes")
    _add_common(sp)
    sp.set_defaults(func=_cmd_stats_boxdim, _command="stats boxdim")

    sp = stats_sub.add_parser("return-decay")
    sp.add_argument("--graph", help="Markov graph JSON")
    sp.add_argument("--model", help="suitability-model JSON")
    sp.add_argument("--horizon", type=int, default=120)
    sp.add_argument("--h-top", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_stats_return_decay, _command="stats return-decay")

    return ap


def _apply_config(ap: _Parser, argv: list[str]) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        cfg = _load_json_file(args.config)
        if not isinstance(cfg, dict):
            raise UsageError("--config file must hold a JSON object")
        unknown = [k for k in cfg if not hasattr(args, k)]
        if unknown:
            raise UsageError(f"--config has unknown keys: {', '.join(sorted(unknown))}")
        # config overrides defaults; explicit flags override config
        explicit = _explicit_dests(argv)
        for k, v in cfg.items():
            if k not in explicit:
                setattr(args, k, v)
    return args


def _explicit_dests(argv: list[str]) -> set[str]:
    """Dests that argv sets itself, however argparse matched the flag: a
    full name, a unique abbreviation, --flag=value, or a dest unlike it.

    Parses argv again with every default suppressed, so only what the
    command line sets is left in the namespace.
    """
    bare = build_parser()
    parsers = [bare]
    for parser in parsers:
        for action in parser._actions:
            action.default = argparse.SUPPRESS
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return set(vars(bare.parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _apply_config(ap, argv)
        if getattr(args, "perturbation", "unset") is None:
            args.perturbation = "classical" if args.b != 0.0 else "zero"
        return args.func(args)
    except UsageError as e:
        print(f"henonshift: error: {e}", file=sys.stderr)
        return 1
    except (NotStronglyConnectedError, ConvergenceError, RuntimeError, OverflowError) as e:
        print(f"henonshift: analysis failed: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"henonshift: analysis failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

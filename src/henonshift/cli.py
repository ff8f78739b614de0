"""Command-line front end: one executable, verb-noun subcommands.

Exit codes: 0 success; 2 when the input is valid but the analysis cannot
produce a result or its check fails (AnalysisError, numpy's LinAlgError,
a RuntimeError such as ConvergenceError, OverflowError); 1 for any other
refused input, whether argparse, the CLI or a library argument check
refuses it.
Outputs are JSON, except that the four verbs whose result is a table
(orbits census, stats mixing, stats boxdim, stats return-decay) write
CSV under --format csv.  JSON outputs embed the resolved configuration
and library version; every output is written atomically when --out is
given.
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
from dataclasses import fields, is_dataclass
from typing import Callable

import numpy as np

from . import __version__
from .henon import HenonMap
from .markov import (
    AnalysisError,
    CylinderWord,
    _check_cylinder,
    build_mme,
    chain_entropy,
    count_loops,
    equidistribution_cylinder,
    graph_from_dict,
    is_spr,
    perron,
    radii,
    shift_periodic_census,
)
from .orbits import (
    _CENSUS_CSV_HEADER,
    _census_csv_rows,
    _check_fit_periods,
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


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for analysis failures; argparse would default to 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# helpers


_SCALARS = frozenset({int, str, bool, type(None)})


def _sanitize(x):
    """JSON has no inf/nan literals, complex numbers, numpy values or
    dataclasses: stringify the first, split the second into {"re", "im"},
    turn the third into Python scalars and lists, and read the last field
    by field.  One pass; a plain scalar takes one type check."""
    cls = type(x)
    if cls is float:
        return x if math.isfinite(x) else str(x)
    if cls in _SCALARS:
        return x
    if isinstance(x, complex):
        return {"re": _sanitize(x.real), "im": _sanitize(x.imag)}
    if isinstance(x, dict):
        return {k: _sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sanitize(v) for v in x]
    if isinstance(x, (np.generic, np.ndarray)):
        return _sanitize(x.tolist())
    if is_dataclass(x):
        return {f.name: _sanitize(getattr(x, f.name)) for f in fields(x)}
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


def _emit(args: argparse.Namespace, result, csv_rows=None, csv_header=None) -> None:
    """Write the result (a dict or a dataclass), as JSON with the resolved
    configuration, or the csv_rows under --format csv."""
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "config") and not k.startswith("_")
    }
    # only the verbs that pass csv_rows take --format
    if csv_rows is not None and args.format == "csv":
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
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e


def _load_document(path: str, build: Callable[[dict], object]):
    """A JSON file turned into a library object by `build`; the builder's
    refusal is reported with the file's name."""
    data = _load_json_file(path)
    try:
        return build(data)
    except (TypeError, ValueError) as e:
        raise ValueError(f"invalid document {path}: {e}") from e


def _graph(args):
    return _load_document(args.graph, graph_from_dict)


def _map_from_args(args) -> HenonMap:
    return HenonMap(a=args.a, b=args.b, perturbation=args.perturbation)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        grid = (int(nx), int(ny))
    except Exception as e:
        raise ValueError(f"--grid expects NXxNY, got {text!r}") from e
    if min(grid) < 1:
        raise ValueError(f"--grid sizes must be >= 1, got {text!r}")
    return grid


_OBSERVABLES = "x | cheb:k | bump:center,width | ind:lo,hi,ramp"


def _observable(spec: str) -> Callable[[np.ndarray], np.ndarray]:
    try:
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
    except ValueError as e:
        raise ValueError(f"bad observable {spec!r} ({e}); use {_OBSERVABLES}") from e
    raise ValueError(f"unknown observable {spec!r}; use {_OBSERVABLES}")


# ---------------------------------------------------------------------------
# shift handlers


def _cmd_shift_entropy(args) -> int:
    g = _graph(args)
    spec = perron(g, tol=args.tol)
    _emit(args, {"entropy": math.log(spec.lam), "lambda": spec.lam,
                 "residual": spec.residual, "tol": args.tol})
    return 0


def _cmd_shift_mme(args) -> int:
    g = _graph(args)
    spec = perron(g, tol=args.tol)
    chain = build_mme(spec, g)
    V = chain.vertices
    p: dict[str, dict[str, float]] = {u: {} for u in V}
    for i, j, q in zip(g._src.tolist(), g._dst.tolist(), chain.p[g._src, g._dst].tolist()):
        p[V[i]][V[j]] = q
    _emit(
        args,
        {
            "vertices": list(V),
            "h_top": chain.h_top,
            "chain_entropy": chain_entropy(chain),
            "pi": dict(zip(V, chain.pi.tolist())),
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
    _check_cylinder(g, args.p, cyl)
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
    result = {
        "p": c.p,
        "count_fix": c.count_fix,
        "n_orbits": len(c.orbits),
        "stable": c.stable,
        "tol": c.tol,
        "orbits": c.orbits,
    }
    _emit(args, result, csv_rows=_census_csv_rows(c), csv_header=_CENSUS_CSV_HEADER)
    return 0


def _cmd_orbits_entropy(args) -> int:
    _check_fit_periods(args.p_max - args.p_min + 1)
    m = _map_from_args(args)
    censuses = [
        periodic_orbits_2d(m, p, grid=_parse_grid(args.grid), tol=args.tol)
        for p in range(args.p_min, args.p_max + 1)
    ]
    est = entropy_from_census(censuses)
    _emit(args, est)
    return 0


def _cmd_orbits_equidist(args) -> int:
    m = _map_from_args(args)
    if args.b == 0.0 and args.perturbation == "zero":
        points = fixed_points_1d(args.a, args.p)
    else:
        points = periodic_orbits_2d(m, args.p, grid=_parse_grid(args.grid), tol=args.tol)
    rep = equidistribution_test(points, statistic=args.statistic)
    _emit(args, vars(rep) | {"threshold": args.threshold})
    if args.threshold is not None and rep.distance > args.threshold:
        return 2
    return 0


# ---------------------------------------------------------------------------
# stats handlers


def _cmd_stats_mixing(args) -> int:
    mu = sample_mme_1d("arcsine", args.n, args.seed)
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
    _emit(args, fit, csv_rows=rows, csv_header=["lag", "cov", "fit"])
    return 0


def _cmd_stats_clt(args) -> int:
    mu = sample_mme_1d("arcsine", args.sample_n, args.seed)
    m = HenonMap(a=args.a, b=0.0, perturbation="zero")
    if args.psi == "coboundary":
        a = args.a
        psi = coboundary(lambda x: np.sin(x), lambda x: x * x + a)
    else:
        psi = _observable(args.psi)
    rep = clt_test(m, mu, psi, n=args.n, trials=args.trials, alpha=args.alpha,
                   seed=args.seed)
    _emit(args, rep)
    if rep.degenerate:
        return 0
    return 0 if rep.passed else 2


def _cmd_stats_boxdim(args) -> int:
    if (args.points is None) == (args.set is None):
        raise ValueError("exactly one of --points or --set is required")
    if args.points is not None:
        try:
            pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
        except (OSError, ValueError) as e:
            raise ValueError(f"cannot read points from {args.points}: {e}") from e
        if not np.isfinite(pts).all():
            raise ValueError(
                f"cannot read points from {args.points}: non-finite coordinate")
    else:
        if args.seed is None:
            raise ValueError("--seed is required with --set")
        if args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
        maker = {"segment": segment_sample, "square": square_sample,
                 "cantor": cantor_sample}[args.set]
        pts = maker(args.n, args.seed)
    if args.scales:
        try:
            scales = [float(t) for t in args.scales.split(",")]
        except ValueError as e:
            raise ValueError(f"--scales expects comma-separated numbers: {e}") from e
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
        raise ValueError("exactly one of --graph or --model is required")
    if args.graph:
        g = _graph(args)
        census = count_loops(g, args.horizon)
        spec = perron(g, tol=1e-13)
        chain = build_mme(spec, g)
        h_top = args.h_top if args.h_top is not None else math.log(spec.lam)
    else:
        model, _params = _load_document(args.model, model_from_dict)
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
    _emit(args, vars(fit) | {"h_top": h_top},
          csv_rows=rows, csv_header=["n", "tail"])
    return 0 if fit.exponential else 2


# ---------------------------------------------------------------------------
# parser assembly: one table of verbs; a run builds the parser of the verb
# it names, not the whole tree


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="write output here (atomic); default stdout")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit timestamp for byte-identical reruns")
    sp.add_argument("--config", help="JSON file of flag defaults (dest: value)")


def _add_map_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--perturbation", choices=("zero", "classical"), default=None)


def _graph_tol_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tol", type=float, default=1e-13)


def _shift_spr_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", required=True)
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--margin", type=float, default=0.05)


def _graph_p_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=int, required=True)


def _shift_equidist_flags(sp: argparse.ArgumentParser) -> None:
    _graph_p_flags(sp)
    sp.add_argument("--cylinder", required=True,
                    help="comma-separated vertex names, e.g. g0,g0")
    sp.add_argument("--threshold", type=float, default=None,
                    help="exit 2 if |empirical - mme| exceeds this")


def _orbits_census_flags(sp: argparse.ArgumentParser) -> None:
    _add_map_flags(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--grid", default="256x8")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--refine-check", action="store_true")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _orbits_entropy_flags(sp: argparse.ArgumentParser) -> None:
    _add_map_flags(sp)
    sp.add_argument("--p-min", type=int, default=1)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--grid", default="256x8")
    sp.add_argument("--tol", type=float, default=1e-12)


def _orbits_equidist_flags(sp: argparse.ArgumentParser) -> None:
    _add_map_flags(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--statistic", choices=("KS", "cylinder"), default="KS")
    sp.add_argument("--grid", default="256x8")
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="Newton tolerance of the 2-D census; the 1-D census (b = 0) "
                    "reads none: it sweeps to convergence for a <= -2, bisects above")
    sp.add_argument("--threshold", type=float, default=None)


def _stats_mixing_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--a", type=float, default=-2.0)
    sp.add_argument("--n-max", type=int, default=10)
    sp.add_argument("--g", default="x", help=_OBSERVABLES)
    sp.add_argument("--h", dest="obs_h", default="x", help=_OBSERVABLES)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _stats_clt_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sample-n", type=int, default=50_000)
    sp.add_argument("--n", type=int, default=4096)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--alpha", type=float, default=0.01)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--a", type=float, default=-2.0)
    sp.add_argument("--psi", default="x", help=_OBSERVABLES + " | coboundary")


def _stats_boxdim_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--points", help="CSV file of coordinates")
    sp.add_argument("--set", choices=("segment", "square", "cantor"))
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--scales", help="comma-separated box sizes")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _stats_return_decay_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", help="Markov graph JSON")
    sp.add_argument("--model", help="suitability-model JSON")
    sp.add_argument("--horizon", type=int, default=120)
    sp.add_argument("--h-top", type=float, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


_GROUPS = {
    "shift": "countable Markov shift analyses",
    "orbits": "periodic-orbit censuses",
    "stats": "statistical verification",
}


def _verbs() -> dict[str, tuple[Callable, Callable]]:
    """The verb table: "<group> <verb>" -> (handler, function adding the
    verb's own flags), in the order the help lists them; _add_common adds
    the flags every verb takes.  Built per call, so the handlers are the
    module's attributes at that time."""
    return {
        "shift entropy": (_cmd_shift_entropy, _graph_tol_flags),
        "shift mme": (_cmd_shift_mme, _graph_tol_flags),
        "shift spr": (_cmd_shift_spr, _shift_spr_flags),
        "shift fix-count": (_cmd_shift_fix_count, _graph_p_flags),
        "shift equidist": (_cmd_shift_equidist, _shift_equidist_flags),
        "orbits census": (_cmd_orbits_census, _orbits_census_flags),
        "orbits entropy": (_cmd_orbits_entropy, _orbits_entropy_flags),
        "orbits equidist": (_cmd_orbits_equidist, _orbits_equidist_flags),
        "stats mixing": (_cmd_stats_mixing, _stats_mixing_flags),
        "stats clt": (_cmd_stats_clt, _stats_clt_flags),
        "stats boxdim": (_cmd_stats_boxdim, _stats_boxdim_flags),
        "stats return-decay": (_cmd_stats_return_decay, _stats_return_decay_flags),
    }


def _tree_parser() -> _Parser:
    """The group/verb tree without verb flags: it serves --help, --version,
    a bare group and an unknown group or verb."""
    ap = _Parser(prog="henonshift", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    top = ap.add_subparsers(dest="group", required=True)
    groups = {
        group: top.add_parser(group, help=text).add_subparsers(dest="verb", required=True)
        for group, text in _GROUPS.items()
    }
    for command in _verbs():
        group, verb = command.split()
        groups[group].add_parser(verb)
    return ap


def _config_flags(sp: argparse.ArgumentParser, path: str) -> list[str]:
    """The flags a --config file of `dest: value` entries stands for:
    `--flag=value`, or the bare flag for a true store_true entry.  False
    store_true entries and null entries are left out."""
    cfg = _load_json_file(path)
    if not isinstance(cfg, dict):
        raise ValueError("--config file must hold a JSON object")
    actions = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
    unknown = sorted(k for k in cfg if k not in actions)
    if unknown:
        raise ValueError(f"--config has unknown keys: {', '.join(unknown)}")
    flags = []
    for k, v in cfg.items():
        if v is None:
            continue
        flag = actions[k].option_strings[0]
        if actions[k].nargs != 0:
            flags.append(f"{flag}={v}")
        elif not isinstance(v, bool):
            raise ValueError(f"--config key {k} must be true or false, got {v!r}")
        elif v:
            flags.append(flag)
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the parser of the verb that argv[:2] names, with
    the --config entries as flags ahead of argv[2:]: they pass the same
    type and choices checks as typed flags and may supply required ones,
    and the command line's own flags win because argparse keeps the last
    value given.  Without a verb, the tree parser prints help, the version
    or a usage error, and exits."""
    verbs = _verbs()
    command = " ".join(argv[:2])
    if len(argv) < 2 or command not in verbs:
        _tree_parser().parse_args(argv)
    func, add_flags = verbs[command]
    sp = _Parser(prog=f"henonshift {command}")  # the prog the tree would give it
    add_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=func, _command=command, group=argv[0], verb=argv[1])
    pre = _Parser(prog=sp.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[2:])[0].config
    flags = _config_flags(sp, path) if path else []
    return sp.parse_args(flags + argv[2:])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if getattr(args, "perturbation", "unset") is None:
            args.perturbation = "classical" if args.b != 0.0 else "zero"
        return args.func(args)
    # LinAlgError is a ValueError that numpy raises inside an analysis
    except (AnalysisError, np.linalg.LinAlgError, RuntimeError, OverflowError) as e:
        print(f"henonshift: analysis failed: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"henonshift: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: exit-code contract, JSON/CSV emission,
atomic --out writes, and config-file precedence."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from henonshift import cli, markov, orbits
from henonshift.cli import main
from henonshift.henon import HenonMap
from henonshift.markov import graph_from_dict, gurevich_entropy
from henonshift.orbits import (
    EntropyEstimate,
    EquidistReport,
    census_to_csv,
    periodic_orbits_2d,
)
from henonshift.stats import CltReport, DecayFit


GOLDEN = {
    "vertices": ["0", "1"],
    "base": "0",
    "arrows": [["0", "0"], ["0", "1"], ["1", "0"]],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# shift commands


def test_shift_entropy_golden_mean(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(capsys, ["shift", "entropy", "--graph", g])
    assert code == 0
    assert doc["command"] == "shift entropy"
    assert doc["result"]["entropy"] == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
    assert doc["config"]["graph"] == g
    assert "version" in doc and "timestamp" in doc


def test_shift_mme_stationary(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(capsys, ["shift", "mme", "--graph", g])
    assert code == 0
    pi = doc["result"]["pi"]
    assert sum(pi.values()) == pytest.approx(1.0, abs=1e-12)
    phi = (1 + math.sqrt(5)) / 2
    assert pi["0"] == pytest.approx(phi**2 / (1 + phi**2), abs=1e-9)


def test_shift_spr_verdict_and_exit(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(capsys, ["shift", "spr", "--graph", g])
    assert code == 0
    assert doc["result"]["is_spr"] is True
    # full shift: R = 1/2, R* = 1; margin 0.7 eats the log-2 gap and
    # flips the verdict along with the exit code
    full2 = {
        "vertices": ["0", "1"],
        "base": "0",
        "arrows": [[a, b] for a in "01" for b in "01"],
    }
    g2 = _write(tmp_path, "g2.json", full2)
    code2, doc2 = _run_json(
        capsys, ["shift", "spr", "--graph", g2, "--margin", "0.7"]
    )
    assert code2 == 2
    assert doc2["result"]["is_spr"] is False


def test_shift_fix_count(tmp_path, capsys):
    full2 = {
        "vertices": ["0", "1"],
        "base": "0",
        "arrows": [[a, b] for a in "01" for b in "01"],
    }
    g = _write(tmp_path, "g.json", full2)
    code, doc = _run_json(capsys, ["shift", "fix-count", "--graph", g, "--p", "10"])
    assert code == 0
    assert doc["result"]["count"] == 1024


def test_shift_equidist_threshold(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(
        capsys,
        ["shift", "equidist", "--graph", g, "--p", "10", "--cylinder", "0,0"],
    )
    assert code == 0
    gap = abs(doc["result"]["empirical"] - doc["result"]["mme"])
    assert gap < 0.05
    code2, _ = _run_json(
        capsys,
        [
            "shift", "equidist", "--graph", g, "--p", "10",
            "--cylinder", "0,0", "--threshold", "1e-12",
        ],
    )
    assert code2 == 2


def test_shift_malformed_graph_reports_location(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", '{"vertices": ["0"],\n  "base" "0"}')
    code = main(["shift", "entropy", "--graph", bad])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err and "column" in err


_BAD_DOCS = {
    "golden": GOLDEN,
    "no_base": {"vertices": ["0", "1"], "arrows": [["0", "1"], ["1", "0"]]},
    "undeclared": {"vertices": ["0", "1"], "base": "0", "arrows": [["0", "1"], ["1", "2"]]},
    "model_bad_m": {"M": "x"},
    "model_bad_name": {"M": 60, "model": "nope"},
    "model_ok": {"M": 60},
    "points": "0.1,0.2\n0.3,0.4\n",
}
_BOXDIM = ["stats", "boxdim", "--set", "square", "--n", "1000", "--seed", "1", "--scales"]


@pytest.mark.parametrize(
    "argv",
    [
        _BOXDIM + ["abc"],
        _BOXDIM + ["nan"],
        _BOXDIM + ["0.1,0,0.01"],
        ["shift", "entropy", "--graph", "{no_base}"],
        ["shift", "entropy", "--graph", "{undeclared}"],
        ["stats", "return-decay", "--model", "{model_bad_m}"],
        ["stats", "return-decay", "--model", "{model_bad_name}"],
        ["stats", "mixing", "--seed", "1", "--n", "1000", "--g", "cheb:x"],
        ["stats", "mixing", "--seed", "1", "--n", "1000", "--g", "bump:1"],
        ["shift", "equidist", "--graph", "{golden}", "--p", "8", "--cylinder", "zz"],
        ["shift", "equidist", "--graph", "{golden}", "--p", "8", "--cylinder", "0,zz"],
        ["shift", "equidist", "--graph", "{golden}", "--p", "1", "--cylinder", "0,1"],
        ["shift", "fix-count", "--graph", "{golden}", "--p", "0"],
        ["shift", "spr", "--graph", "{golden}", "--horizon", "5"],
        ["shift", "spr", "--graph", "{golden}", "--horizon", "0"],
        ["stats", "clt", "--seed", "1", "--trials", "100"],
        ["stats", "return-decay", "--model", "{model_ok}", "--horizon", "5"],
        ["stats", "return-decay", "--model", "{model_ok}", "--h-top", "0.5", "--horizon", "1"],
        ["stats", "return-decay", "--graph", "{golden}", "--horizon", "0"],
        ["orbits", "equidist", "--a", "-2", "--p", "17"],
        ["orbits", "census", "--a", "-2", "--p", "0"],
        ["orbits", "equidist", "--a", "-1.9", "--b", "0.01", "--p", "0"],
        ["orbits", "entropy", "--a", "-2", "--p-min", "0", "--p-max", "3"],
        ["orbits", "entropy", "--a", "-2", "--p-min", "4", "--p-max", "3"],
        ["orbits", "entropy", "--a", "-2", "--p-min", "2", "--p-max", "3"],
        ["stats", "mixing", "--seed", "1", "--n", "0"],
        ["stats", "mixing", "--seed", "1", "--n-max", "0"],
        ["stats", "boxdim", "--set", "cantor", "--seed", "1", "--n", "0"],
        ["stats", "clt", "--seed", "1", "--n", "0"],
        ["stats", "clt", "--seed", "1", "--sample-n", "0"],
        ["orbits", "census", "--a", "-2", "--p", "2", "--grid", "0x4"],
        ["stats", "boxdim", "--set", "cantor", "--seed", "1", "--points", "{points}"],
        ["stats", "boxdim", "--seed", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2] + argv[-2:]),
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv):
    paths = {name: _write(tmp_path, f"{name}.json", doc) for name, doc in _BAD_DOCS.items()}
    code, out = _run(capsys, [a.format(**paths) for a in argv])
    assert code == 1
    assert out == ""


_CENSUS = ["orbits", "census", "--a", "-2", "--p", "3"]
_CLT = ["stats", "clt", "--seed", "1", "--sample-n", "1000", "--n", "16", "--alpha"]


@pytest.mark.parametrize(
    "argv",
    [
        _CENSUS + ["--b", "-0.1"],
        ["orbits", "entropy", "--a", "-2", "--p-max", "3", "--b", "-0.1"],
        ["orbits", "equidist", "--a", "-2", "--p", "3", "--b", "-0.1"],
        *(
            head + ["--tol", tol]
            for head in (["shift", "entropy", "--graph", "{golden}"],
                         ["shift", "mme", "--graph", "{golden}"], _CENSUS)
            for tol in ("0", "-1", "nan")
        ),
        ["orbits", "census", "--a", "nan", "--p", "2"],
        ["orbits", "census", "--a", "inf", "--p", "2"],
        ["orbits", "census", "--a", "-2", "--b", "inf", "--p", "2"],
        _CLT + ["0"],
        _CLT + ["2"],
        _CLT + ["nan"],
    ],
    ids=" ".join,
)
def test_library_refusal_is_a_usage_error(tmp_path, capsys, argv):
    # the CLI holds no copy of these checks: the library's ValueError exits 1
    golden = _write(tmp_path, "golden.json", GOLDEN)
    code = main([a.format(golden=golden) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("henonshift: error: ")


@pytest.mark.parametrize(
    ("exc", "code"), [("AnalysisError", 2), ("LinAlgError", 2), ("ValueError", 1)]
)
def test_main_maps_exceptions_to_exit_codes(tmp_path, capsys, monkeypatch, exc, code):
    def verb(args):
        raise {"AnalysisError": markov.AnalysisError, "LinAlgError": np.linalg.LinAlgError,
               "ValueError": ValueError}[exc]("refused")

    monkeypatch.setattr(cli, "_cmd_shift_fix_count", verb)
    g = _write(tmp_path, "g.json", GOLDEN)
    assert main(["shift", "fix-count", "--graph", g, "--p", "3"]) == code
    kind = "analysis failed" if code == 2 else "error"
    assert capsys.readouterr().err == f"henonshift: {kind}: refused\n"


@pytest.mark.parametrize(
    "argv",
    [["shift", "entropy"], ["stats", "return-decay", "--horizon", "40"]],
    ids=["shift entropy", "stats return-decay"],
)
def test_graph_verbs_solve_perron_once(tmp_path, capsys, monkeypatch, argv):
    solves = []
    real = markov._power_iteration

    def counting(*a, **kw):
        solves.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(markov, "_power_iteration", counting)
    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(capsys, argv + ["--graph", g])
    assert code == 0
    assert len(solves) == 2  # one perron: the right and the left vector
    h = gurevich_entropy(graph_from_dict(GOLDEN))
    assert doc["result"].get("entropy", doc["result"].get("h_top")) == h


def test_shift_disconnected_graph_analysis_error(tmp_path, capsys):
    g = _write(
        tmp_path,
        "g.json",
        {"vertices": ["0", "1"], "base": "0", "arrows": [["0", "1"]]},
    )
    code = main(["shift", "entropy", "--graph", g])
    assert code == 2


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["orbits", "equidist", "--a", "0.3", "--p", "3"], "census holds no points"),
        (["orbits", "equidist", "--a=-1e6", "--p", "8"], "only 50 of 256 roots"),
        (_BOXDIM + ["0.5"], "only 1 usable scales"),
        (["orbits", "census", "--a", "-3", "--b", "0.3", "--p", "7",
          "--perturbation", "classical"], "census counts 134 fixed points of f^7, more than the 128"),
    ],
    ids=["orbits equidist", "orbits equidist coinciding roots", "stats boxdim",
         "orbits census above 2^p"],
)
def test_valid_input_without_a_result_is_an_analysis_error(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"henonshift: analysis failed: {message}")


def _never_called(*args, **kwargs):
    raise AssertionError("the analysis ran before the argument check")


@pytest.mark.parametrize(
    ("argv", "analysis", "message"),
    [
        # "b" cannot reach "a", so perron would fail first as an analysis
        pytest.param(
            ["shift", "equidist", "--graph", "{graph}", "--p", "3", "--cylinder", "zz"],
            "perron", "cylinder vertex 'zz'", id="shift equidist",
        ),
        pytest.param(
            ["orbits", "entropy", "--a", "-1.9", "--b", "0.01", "--p-min", "12", "--p-max", "13"],
            "periodic_orbits_2d", "need censuses for at least 3 periods", id="orbits entropy",
        ),
    ],
)
def test_argument_refusal_precedes_the_analysis(tmp_path, capsys, monkeypatch,
                                                argv, analysis, message):
    graph = _write(tmp_path, "graph.json",
                   {"vertices": ["a", "b"], "arrows": [["a", "b"], ["b", "b"]], "base": "a"})
    monkeypatch.setattr(cli, analysis, _never_called)
    code = main([a.format(graph=graph) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"henonshift: error: {message}")


# ---------------------------------------------------------------------------
# orbit commands


def test_orbits_census_json(capsys):
    code, doc = _run_json(
        capsys, ["orbits", "census", "--a", "-2.0", "--p", "3", "--no-timestamp"]
    )
    assert code == 0
    assert doc["result"]["count_fix"] == 8
    assert doc["result"]["p"] == 3
    assert "timestamp" not in doc


def test_orbits_census_csv(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code = main(
        [
            "orbits", "census", "--a", "-2.0", "--p", "3",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "least_period", "x", "y", "mult1", "mult2", "residual"]
    assert sum(int(r[1]) for r in rows[1:]) == 8
    # the library writer formats the same census identically
    lib = tmp_path / "lib.csv"
    census_to_csv(periodic_orbits_2d(HenonMap(a=-2.0, b=0.0), 3, grid=(256, 8)), str(lib))
    assert lib.read_bytes() == out.read_bytes()


def test_orbits_census_refine_flag(capsys):
    code, doc = _run_json(
        capsys,
        [
            "orbits", "census", "--a", "-1.99", "--b", "1e-6", "--p", "4",
            "--grid", "128x4", "--refine-check",
        ],
    )
    assert code == 0
    assert doc["result"]["stable"] is True
    assert doc["config"]["refine_check"] is True


def test_orbits_entropy_fit(capsys):
    code, doc = _run_json(
        capsys,
        ["orbits", "entropy", "--a", "-2.0", "--p-min", "1", "--p-max", "6"],
    )
    assert code == 0
    assert doc["result"]["slope"] == pytest.approx(math.log(2.0), abs=1e-9)


def test_orbits_equidist_threshold_exit(capsys):
    code, doc = _run_json(
        capsys,
        [
            "orbits", "equidist", "--a", "-2.0", "--p", "10",
            "--statistic", "KS", "--threshold", "0.05",
        ],
    )
    assert code == 0
    assert doc["result"]["distance"] < 0.05
    code2, _ = _run_json(
        capsys,
        [
            "orbits", "equidist", "--a", "-2.0", "--p", "10",
            "--statistic", "KS", "--threshold", "1e-9",
        ],
    )
    assert code2 == 2


def test_orbits_equidist_counts_every_itinerary_below_minus_two(capsys):
    code, doc = _run_json(capsys, ["orbits", "equidist", "--a", "-3", "--p", "10"])
    assert code == 0
    assert doc["result"]["n_points"] == 1024


def test_orbits_equidist_unsettled_sweep_is_an_analysis_error(capsys, monkeypatch):
    monkeypatch.setattr(orbits, "_SWEEP_CAP", 1)
    code = main(["orbits", "equidist", "--a", "-2", "--p", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("henonshift: analysis failed: 8 of 8 itineraries did not settle")


def test_orbits_equidist_rejects_unknown_reference(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "equidist", "--a", "-2.0", "--p", "8", "--reference", "uniform"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# stats commands


def test_stats_mixing_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "mixing", "--n", "1000"])
    assert exc.value.code == 1


def test_stats_mixing_csv_fit_column(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    code = main(
        [
            "stats", "mixing", "--seed", "3", "--n", "200000",
            "--g", "bump:0,1", "--h", "bump:0,1", "--n-max", "6",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lag", "cov", "fit"]
    assert len(rows) == 7


def test_stats_boxdim_csv(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code = main(
        [
            "stats", "boxdim", "--set", "cantor", "--n", "5000", "--seed", "1",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "boxes"]
    assert len(rows) == 11  # one row per scale 3^-1 .. 3^-10


def test_stats_return_decay_csv(tmp_path, capsys):
    model = _write(tmp_path, "m.json", {"M": 100, "b": 1e-8, "model": "full"})
    out = tmp_path / "tail.csv"
    code = main(
        [
            "stats", "return-decay", "--model", model, "--horizon", "60",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "tail"]
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 61))


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "entropy", "--graph", "{graph}"],
        ["shift", "mme", "--graph", "{graph}"],
        ["shift", "spr", "--graph", "{graph}"],
        ["shift", "fix-count", "--graph", "{graph}", "--p", "3"],
        ["shift", "equidist", "--graph", "{graph}", "--p", "4", "--cylinder", "0"],
        ["orbits", "entropy", "--a", "-2.0", "--p-max", "3"],
        ["orbits", "equidist", "--a", "-2.0", "--p", "8"],
        ["stats", "clt", "--seed", "1"],
    ],
)
def test_json_only_verbs_reject_format(argv, tmp_path, capsys):
    # only verbs whose result is a table take --format
    g = _write(tmp_path, "g.json", GOLDEN)
    with pytest.raises(SystemExit) as exc:
        main([a.format(graph=g) for a in argv] + ["--format", "csv"])
    assert exc.value.code == 1


def test_stats_clt_json(capsys):
    code, doc = _run_json(
        capsys,
        [
            "stats", "clt", "--seed", "42", "--sample-n", "100000",
            "--n", "1024", "--trials", "600",
        ],
    )
    assert code == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["sigma_hat"] == pytest.approx(math.sqrt(2.0), abs=0.15)


def test_stats_clt_coboundary_degenerate_exit_zero(capsys):
    code, doc = _run_json(
        capsys,
        [
            "stats", "clt", "--seed", "7", "--sample-n", "60000",
            "--n", "1024", "--trials", "600", "--psi", "coboundary",
        ],
    )
    assert code == 0
    assert doc["result"]["degenerate"] is True


def test_stats_boxdim_cantor(capsys):
    code, doc = _run_json(
        capsys,
        ["stats", "boxdim", "--set", "cantor", "--n", "200000", "--seed", "5"],
    )
    assert code == 0
    assert doc["result"]["dimension"] == pytest.approx(
        math.log(2) / math.log(3), abs=0.05
    )


def test_stats_boxdim_points_file(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(0)
    pts = rng.random((20000, 2))
    path = tmp_path / "pts.csv"
    np.savetxt(path, pts, delimiter=",")
    code, doc = _run_json(capsys, ["stats", "boxdim", "--points", str(path)])
    assert code == 0
    assert doc["result"]["dimension"] == pytest.approx(2.0, abs=0.1)


def test_stats_boxdim_needs_exactly_one_source(capsys):
    code = main(["stats", "boxdim"])
    assert code == 1


def test_numpy_values_reach_strict_json(capsys):
    import numpy as np

    def refuse(name):
        raise ValueError(f"{name} is not a JSON literal")

    args = argparse.Namespace(format="json", out=None, no_timestamp=True, _command="t")
    cli._emit(args, {"n": np.int64(7), "v": np.array([np.inf, 1.0])})
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["result"] == {"n": 7, "v": ["inf", 1.0]}


def test_stats_return_decay_model_route(tmp_path, capsys):
    model = _write(tmp_path, "m.json", {"M": 100, "b": 1e-8, "model": "full"})
    code, doc = _run_json(
        capsys, ["stats", "return-decay", "--model", model, "--horizon", "60"]
    )
    assert code == 0
    assert doc["result"]["exponential"] is True


# ---------------------------------------------------------------------------
# plumbing: output files, config files, idempotence


def test_out_is_atomic_and_idempotent(tmp_path):
    g = _write(tmp_path, "g.json", GOLDEN)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            ["shift", "entropy", "--graph", g, "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert not list(tmp_path.glob("*.tmp*"))


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GOLDEN)
    cfg = _write(tmp_path, "cfg.json", {"horizon": 32, "margin": 0.01})
    code, doc = _run_json(capsys, ["shift", "spr", "--graph", g, "--config", cfg])
    assert code == 0
    assert doc["config"]["horizon"] == 32
    assert doc["config"]["margin"] == 0.01
    # explicit flag beats the config value
    code2, doc2 = _run_json(
        capsys,
        ["shift", "spr", "--graph", g, "--config", cfg, "--horizon", "48"],
    )
    assert code2 == 0
    assert doc2["config"]["horizon"] == 48
    assert doc2["config"]["margin"] == 0.01


@pytest.mark.parametrize("flag", [["--hor", "48"], ["--hor=48"], ["--horizon=48"]])
def test_config_file_loses_to_abbreviated_flags(tmp_path, capsys, flag):
    g = _write(tmp_path, "g.json", GOLDEN)
    cfg = _write(tmp_path, "cfg.json", {"horizon": 32, "margin": 0.01})
    code, doc = _run_json(capsys, ["shift", "spr", "--graph", g, "--config", cfg, *flag])
    assert code == 0
    assert doc["config"]["horizon"] == 48
    assert doc["config"]["margin"] == 0.01


def test_config_file_loses_to_flags_with_other_dests(tmp_path, capsys):
    # --se abbreviates --seed; --h stores into obs_h
    cfg = _write(tmp_path, "cfg.json", {"seed": 3, "obs_h": "cheb:2", "n_max": 4})
    code, doc = _run_json(
        capsys,
        ["stats", "mixing", "--config", cfg, "--se", "5", "--h", "cheb:3", "--n", "2000"],
    )
    assert code == 0
    assert doc["config"]["seed"] == 5
    assert doc["config"]["obs_h"] == "cheb:3"
    assert doc["config"]["n_max"] == 4


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    g = _write(tmp_path, "g.json", GOLDEN)
    cfg = _write(tmp_path, "cfg.json", {"no_such_flag": 1})
    code = main(["shift", "entropy", "--graph", g, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "no_such_flag" in err


def test_config_values_pass_argparse_checks(tmp_path, capsys):
    # a config entry is read as its flag: type= and choices= apply to it
    g = _write(tmp_path, "g.json", GOLDEN)
    cfg = _write(tmp_path, "cfg.json", {"horizon": "abc"})
    with pytest.raises(SystemExit) as exc:
        main(["shift", "spr", "--graph", g, "--config", cfg])
    assert exc.value.code == 1
    assert "--horizon" in capsys.readouterr().err
    cfg = _write(tmp_path, "cfg2.json", {"perturbation": "custom"})
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "census", "--a", "-2", "--p", "1", "--config", cfg])
    assert exc.value.code == 1
    assert "--perturbation" in capsys.readouterr().err


def test_config_file_supplies_required_flags_and_switches(tmp_path, capsys):
    cfg = _write(
        tmp_path, "cfg.json",
        {"seed": 3, "n": 2000, "n_max": 4, "no_timestamp": True, "out": None},
    )
    code, doc = _run_json(capsys, ["stats", "mixing", "--config", cfg])
    assert code == 0
    assert doc["config"]["seed"] == 3
    assert doc["config"]["no_timestamp"] is True
    assert "timestamp" not in doc
    cfg = _write(tmp_path, "bad.json", {"seed": 3, "no_timestamp": "yes"})
    assert main(["stats", "mixing", "--config", cfg]) == 1
    assert "no_timestamp" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, record",
    [
        (["orbits", "entropy", "--a", "-2", "--p-max", "4"], EntropyEstimate),
        (["orbits", "equidist", "--a", "-2", "--p", "6"], EquidistReport),
        (["stats", "mixing", "--seed", "3", "--n", "2000", "--n-max", "4"], DecayFit),
        (
            ["stats", "clt", "--seed", "2", "--sample-n", "2000", "--n", "64",
             "--trials", "500"],
            CltReport,
        ),
        (["stats", "return-decay", "--graph", "{graph}", "--horizon", "20"], DecayFit),
    ],
)
def test_result_holds_every_record_field(tmp_path, capsys, argv, record):
    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(capsys, [t.format(graph=g) for t in argv])
    assert code == 0
    assert {f.name for f in dataclasses.fields(record)} <= set(doc["result"])


def test_version_embedded_matches_package(tmp_path, capsys):
    import henonshift

    g = _write(tmp_path, "g.json", GOLDEN)
    code, doc = _run_json(capsys, ["shift", "entropy", "--graph", g])
    assert code == 0
    assert doc["version"] == henonshift.__version__


def test_console_script_installed(tmp_path):
    # The executable an install would put on PATH, built from this checkout
    # rather than looked up on PATH: pip's launcher for the declared entry
    # point, run against the same source tree this test imported.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    import henonshift

    project = tomllib.loads(
        (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    )["project"]
    # an installed script reports the version from the distribution metadata
    assert project["version"] == henonshift.__version__
    module, func = project["scripts"]["henonshift"].split(":")
    launcher = tmp_path / "henonshift"
    launcher.write_text(
        f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    )
    src = str(Path(henonshift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(launcher), "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stderr
    assert henonshift.__version__ in r.stdout


def test_module_entry_point(tmp_path):
    g = _write(tmp_path, "g.json", GOLDEN)
    r = subprocess.run(
        [sys.executable, "-m", "henonshift.cli", "shift", "entropy", "--graph", g],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["entropy"] == pytest.approx(0.4812118250596, abs=1e-9)


def test_orbits_census_above_p_10_keeps_stderr_empty():
    # escaping Newton seeds overflow; the census drops them without a warning
    src = str(Path(markov.__file__).resolve().parents[1])  # the tree under test
    r = subprocess.run(
        [sys.executable, "-m", "henonshift.cli", "orbits", "census", "--a", "-2", "--p", "12"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert r.returncode == 0 and r.stderr == ""
    assert 0 < json.loads(r.stdout)["result"]["count_fix"] <= 2**12


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from henonshift.cli import main
for argv in (
    ["orbits", "census", "--a", "-1.99", "--b", "1e-6", "--p", "3", "--refine-check"],
    ["stats", "clt", "--seed", "3", "--sample-n", "20000", "--n", "256", "--trials", "600"],
    ["stats", "boxdim", "--set", "cantor", "--n", "20000", "--seed", "3"],
):
    code = main(argv)
    assert code == 0, (argv, code)
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_cli_runs_without_scipy():
    # scipy is a test-only dependency: the package, the orbit dedup behind
    # `orbits census` and the KS test behind `stats clt` run without it
    src = str(Path(markov.__file__).resolve().parents[1])  # the tree under test
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True, env=env, timeout=300
    )
    assert r.returncode == 0, r.stderr

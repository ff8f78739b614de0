"""The three benchmark workloads: census, symbolic and dynamics.

Each workload is a setup function and two lists of steps.  setup draws
every random input from the workload seed and writes the JSON files the
CLI verbs read.  The library steps call the package and check each result
against an exact oracle; the cli steps run the workload's verbs in-process
through henonshift.cli.main.  Steps share results through a state dict, and
a step that raises counts as one failed check without stopping the others.

Every call into the package sits inside rec.span("<layer>.<what>"), the
layer being the package module that owns the called function, so a traced
pass can attribute time and allocations to layers.  Oracles computed by the
benchmark itself (matrix powers, closed forms, bisection) stay outside spans.

The word-count tables are process-wide caches, so the CLI verbs read inputs
that the library steps never build (the M=60 word model); a verb then times
the same cold work a separate `henonshift` process would do.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import henonshift as hs
from henonshift import stats as hs_stats

LOG2 = math.log(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Input sizes per workload.  "full" is what a benchmark run measures; "small"
# is the harness self-test.
SIZES = {
    "census": {
        "full": {"periods": 6, "grid": (256, 4), "p1d": 14, "cli_p": 6},
        "small": {"periods": 3, "grid": (64, 4), "p1d": 6, "cli_p": 3},
    },
    "symbolic": {
        "full": {
            "graphs": 50, "loop_horizon": 15, "renewal": (200, 2000),
            "renewal_horizon": 300, "sweep_n": 160, "sweep_M": (10, 50, 100),
            "enum_n": 16, "prime_n": 25, "divides_order": 8, "cli_renewal": 2000,
        },
        "small": {
            "graphs": 5, "loop_horizon": 10, "renewal": (50, 200),
            "renewal_horizon": 80, "sweep_n": 40, "sweep_M": (10, 50, 100),
            "enum_n": 10, "prime_n": 15, "divides_order": 6, "cli_renewal": 200,
        },
    },
    "dynamics": {
        "full": {
            "zero_steps": 200_000, "classical_steps": 100_000, "custom_steps": 20_000,
            "u_points": 1000, "g4_points": 100, "g4_ns": 20, "census_p": 4,
            "census_grid": (64, 2), "arcsine_n": 200_000, "chain_n": 100_000,
            "clt_n": 2048, "clt_trials": 1000, "box_n": 100_000, "cli_n": 100_000,
            "cli_box_n": 50_000,
        },
        "small": {
            "zero_steps": 20_000, "classical_steps": 10_000, "custom_steps": 2_000,
            "u_points": 100, "g4_points": 10, "g4_ns": 10, "census_p": 2,
            "census_grid": (32, 2), "arcsine_n": 20_000, "chain_n": 10_000,
            "clt_n": 1024, "clt_trials": 500, "box_n": 20_000, "cli_n": 20_000,
            "cli_box_n": 20_000,
        },
    },
}

# A statistical test fails by chance with probability alpha; keep that far
# below one in the few thousand runs a benchmark campaign makes.
CLT_ALPHA = 1e-4


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


# ---------------------------------------------------------------------------
# census: the perturbed classical map, criterion 06 inputs


def census_setup(rng: np.random.Generator, size: dict, work: str) -> dict:
    # a and b move by at most 10% around the criterion-06 values, which keeps
    # every census stable and the work per run the same across seeds.
    return {
        **size,
        "a": -2.0 + 1e-3 * rng.uniform(0.9, 1.1),
        "b": 1e-6 * rng.uniform(0.9, 1.1),
    }


def _census_2d(inp, rec, state):
    m = hs.HenonMap(a=inp["a"], b=inp["b"], perturbation="classical")
    nx, ny = inp["grid"]
    censuses = []
    for p in range(1, inp["periods"] + 1):
        with rec.span("orbits.census2d"):
            c = hs.periodic_orbits_2d(m, p, grid=inp["grid"], refine_check=True)
        rec.count("orbits.seeds", nx * ny + (2 * nx) * (2 * ny))
        rec.count("orbits.fix_points", c.count_fix)
        if c.stable is not True:
            rec.count("orbits.unstable_censuses")
        rec.check(c.count_fix <= 2**p, f"census p={p}: count_fix {c.count_fix} > 2^p")
        rec.check(c.stable is True, f"census p={p}: stable is {c.stable}")
        censuses.append(c)
    state["count_fix"] = {c.p: c.count_fix for c in censuses}
    with rec.span("orbits.entropy_fit"):
        est = hs.entropy_from_census(censuses)
    rec.check(abs(est.slope - LOG2) <= 0.1, f"2-D entropy slope {est.slope}")


def _census_1d(inp, rec, state):
    counts = []
    x = None
    for p in range(1, inp["p1d"] + 1):
        with rec.span("orbits.fixed_points_1d"):
            x = hs.fixed_points_1d(-2.0, p)
        oracle = hs.chebyshev_fixed_points(p)
        rec.check(
            len(x) == len(oracle) == 2**p
            and float(np.max(np.abs(np.sort(x) - oracle))) <= 1e-9,
            f"fixed_points_1d(-2, {p}) differs from the angle oracle",
        )
        counts.append((p, len(x)))
    with rec.span("orbits.entropy_fit"):
        est = hs.entropy_from_census(counts)
    rec.check(abs(est.slope - LOG2) <= 0.02, f"1-D entropy slope {est.slope}")
    with rec.span("orbits.equidist"):
        rep = hs.equidistribution_test(x, reference="arcsine", statistic="KS")
    rec.check(
        rep.n_points == 2 ** inp["p1d"] and rep.distance <= 0.02,
        f"arcsine KS distance {rep.distance} over {rep.n_points} points",
    )


def _census_cli_census(inp, rec, state):
    p = inp["cli_p"]
    nx, ny = inp["grid"]
    out = rec.cli([
        "orbits", "census", "--a", repr(inp["a"]), "--b", repr(inp["b"]),
        "--perturbation", "classical", "--p", str(p), "--grid", f"{nx}x{ny}",
        "--refine-check",
    ])
    rec.check(
        out["stable"] is True and out["count_fix"] == state["count_fix"][p],
        f"orbits census p={p}: {out['count_fix']} (stable {out['stable']}) "
        f"vs library {state['count_fix'][p]}",
    )


def _census_cli_entropy(inp, rec, state):
    nx, ny = inp["grid"]
    p_max = inp["cli_p"]
    out = rec.cli([
        "orbits", "entropy", "--a", repr(inp["a"]), "--b", repr(inp["b"]),
        "--perturbation", "classical", "--p-max", str(p_max), "--grid", f"{nx}x{ny}",
    ])
    counts = {p: n for p, n in out["per_p"]}
    rec.check(
        abs(out["slope"] - LOG2) <= 0.1
        and all(counts[p] == state["count_fix"][p] for p in range(1, p_max + 1)),
        f"orbits entropy: slope {out['slope']}, counts {counts}",
    )


def _census_cli_equidist(inp, rec, state):
    p = inp["p1d"]
    out = rec.cli(["orbits", "equidist", "--a", "-2", "--p", str(p), "--threshold", "0.02"])
    rec.check(
        out["n_points"] == 2**p and out["distance"] <= 0.02,
        f"orbits equidist: distance {out['distance']} over {out['n_points']} points",
    )


# ---------------------------------------------------------------------------
# symbolic: word models and truncated countable Markov shifts


def random_strong_graph(rng: np.random.Generator) -> hs.MarkovGraph:
    """A cycle through every vertex plus up to two random arrows."""
    k = int(rng.integers(3, 9))
    names = tuple(f"v{i}" for i in range(k))
    arrows = {(names[i], names[(i + 1) % k]) for i in range(k)}
    for _ in range(int(rng.integers(0, 3))):
        arrows.add((names[int(rng.integers(k))], names[int(rng.integers(k))]))
    return hs.MarkovGraph(names, frozenset(arrows), names[0])


def renewal_shift(n: int) -> hs.MarkovGraph:
    """Truncated renewal shift on n vertices: 0 -> j for every j, j -> j-1.

    The base 0 has exactly one first-return loop of each length 1..n.
    """
    vs = tuple(str(i) for i in range(n))
    arrows = {("0", v) for v in vs} | {(vs[j], vs[j - 1]) for j in range(1, n)}
    return hs.MarkovGraph(vs, frozenset(arrows), "0")


def renewal_root(n: int) -> float:
    """lambda_n: the root in (1, 2] of sum_{k<=n} lambda^-k = 1, by bisection."""

    def excess(lam: float) -> float:
        x = 1.0 / lam
        return x * (1.0 - x**n) / (1.0 - x) - 1.0

    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def symbolic_setup(rng: np.random.Generator, size: dict, work: str) -> dict:
    small, large = size["renewal"]
    sizes = sorted({small, large, size["cli_renewal"]})
    shifts = {n: renewal_shift(n) for n in sizes}
    return {
        **size,
        "graphs": [random_strong_graph(rng) for _ in range(size["graphs"])],
        "shifts": shifts,
        "roots": {n: renewal_root(n) for n in sizes},
        "cli_graph": _write_json(
            os.path.join(work, "renewal_cli.json"),
            hs.graph_to_dict(shifts[size["cli_renewal"]]),
        ),
        "mme_graph": _write_json(
            os.path.join(work, "renewal_small.json"), hs.graph_to_dict(shifts[small])
        ),
        "model": _write_json(
            os.path.join(work, "model.json"), {"M": 60, "b": 0.0, "model": "full"}
        ),
    }


def _loop_oracle(g: hs.MarkovGraph, N: int) -> list[int]:
    """Z_n = (A^n)[base, base] by exact integer matrix powers."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    A = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.arrows:
        A[idx[u], idx[v]] = 1
    b = idx[g.base]
    P = np.eye(g.n, dtype=np.int64)
    out = []
    for _ in range(N):
        P = P @ A
        out.append(int(P[b, b]))
    return out


def _check_chain(rec, chain, lam: float, what: str) -> None:
    pi, P = np.asarray(chain.pi), np.asarray(chain.p)
    rec.check(
        float(np.abs(pi @ P - pi).sum()) <= 1e-9
        and float(np.max(np.abs(P.sum(axis=1) - 1.0))) <= 1e-12
        and abs(chain.h_top - math.log(lam)) <= 1e-9,
        f"{what}: maximal-entropy chain is not stationary or h_top is off",
    )


def _symbolic_small_graphs(inp, rec, state):
    H = inp["loop_horizon"]
    for g in inp["graphs"]:
        with rec.span("markov.count_loops"):
            census = hs.count_loops(g, H)
        rec.check(
            list(census.Z) == _loop_oracle(g, H)
            and all(d == 0 for d in census.renewal_defect()),
            "count_loops differs from matrix powers or breaks the renewal identity",
        )
        with rec.span("markov.perron_small"):
            spec = hs.perron(g)
        rho = float(np.max(np.abs(np.linalg.eigvals(g.adjacency_array()))))
        rec.check(abs(spec.lam - rho) <= 1e-9, f"perron {spec.lam} vs spectral radius {rho}")
        with rec.span("markov.build_mme"):
            chain = hs.build_mme(spec, g)
        _check_chain(rec, chain, rho, "random graph")


def _symbolic_closed_forms(inp, rec, state):
    golden = hs.golden_mean_graph()
    with rec.span("markov.perron_small"):
        spec = hs.perron(golden)
    with rec.span("markov.build_mme"):
        chain = hs.build_mme(spec, golden)
    with rec.span("markov.chain_entropy"):
        h = hs.chain_entropy(chain)
    rec.check(
        abs(spec.lam - PHI) <= 1e-9 and abs(h - math.log(PHI)) <= 1e-9,
        f"golden mean: lambda {spec.lam}, chain entropy {h}",
    )
    _check_chain(rec, chain, PHI, "golden mean")
    full = hs.full_shift_graph(2)
    for p in range(1, 21):
        with rec.span("markov.fix_count"):
            n = hs.shift_periodic_census(full, p)
        rec.check(n == 2**p, f"full 2-shift: Card Fix sigma^{p} = {n}")
    with rec.span("markov.perron_small"):
        spec3 = hs.perron(hs.full_shift_graph(3))
    rec.check(abs(spec3.lam - 3.0) <= 1e-9, f"full 3-shift: lambda {spec3.lam}")


def _symbolic_renewal(inp, rec, state):
    small, large = inp["renewal"]
    H = inp["renewal_horizon"]
    for n in (small, large):
        g, root = inp["shifts"][n], inp["roots"][n]
        with rec.span("markov.perron_large"):
            spec = hs.perron(g)
        rec.check(abs(spec.lam - root) <= 1e-9, f"renewal n={n}: lambda {spec.lam} vs {root}")
        with rec.span("markov.build_mme"):
            chain = hs.build_mme(spec, g)
        _check_chain(rec, chain, root, f"renewal n={n}")
        with rec.span("markov.count_loops"):
            census = hs.count_loops(g, H)
        expect = tuple(1 if k <= n else 0 for k in range(1, H + 1))
        rec.check(
            census.Zstar == expect and all(d == 0 for d in census.renewal_defect()),
            f"renewal n={n}: Z*_k is not 1 exactly for k <= n",
        )
        if n == small:
            with rec.span("stats.return_decay"):
                fit = hs.return_decay_check(chain, census, chain.h_top)
            rec.check(
                fit.exponential and abs(fit.kappa - 1.0 / root) <= 1e-6,
                f"return decay of renewal n={n}: kappa {fit.kappa} vs {1.0 / root}",
            )


def _symbolic_model_bounds(inp, rec, state):
    model = hs.full_model(100)
    params = hs.Params(M=100)
    with rec.span("words.synthetic_census"):
        census = hs.synthetic_census(model, 80)
    with rec.span("markov.spr"):
        rad = hs.radii(census)
        rep = hs.is_spr(census, margin=0.3)
    rec.check(
        rad.R <= 0.6 and rad.R_star >= math.exp(-2.0 * params.epsilon) - 0.02 and rep.spr,
        f"synthetic census M=100: R {rad.R}, R* {rad.R_star}, spr {rep.spr}",
    )
    s = 1.0 / math.sqrt(100)
    with rec.span("words.dimension_bound"):
        values = [
            hs.covering_sum(N, s, model, params, weight="cardinality").value
            for N in range(0, 11)
        ]
        bound = hs.dimension_upper_bound(model, params, [k / 100.0 for k in range(1, 101)])
    ratios = [b / a for a, b in zip(values[1:], values[2:])]
    rec.check(all(r < 0.1 for r in ratios), f"covering sums do not decay: {ratios}")
    rec.check(
        bound.certified and bound.bound <= 3.0 / math.sqrt(100) + 1e-12,
        f"dimension bound {bound.bound} certified={bound.certified}",
    )


def _symbolic_sweep(inp, rec, state):
    N = inp["sweep_n"]
    for M in inp["sweep_M"]:
        model = hs.full_model(M)
        with rec.span("words.count_sweep"):
            sharp = [hs.count_sharp(n, model) for n in range(0, N + 1)]
            prime = [hs.count_prime_words(n, model) for n in range(0, N + 1)]
            zstar = [0, 0] + [hs.zstar_from_model(n, model) for n in range(2, N + 1)]
        rec.count("words.table_entries", len(sharp) + len(prime) + len(zstar) - 2)
        eps = 1.0 / math.sqrt(M)
        # every order >= 2 carries two symbols, so w_n = (2^n + 2 (-1)^n) / 3
        rec.check(
            all(w == (2**n + 2 * (-1) ** n) // 3 for n, w in enumerate(sharp)),
            f"count_sharp at M={M} breaks the closed form",
        )
        rec.check(
            all(prime[n] == 2 and zstar[n] == 2 for n in range(2, min(M, N) + 1)),
            f"P_n or Z*_n is not 2 for n <= M={M}",
        )
        rec.check(
            all(
                prime[n] <= 2.0 * math.exp(eps * n) + 1e-9
                and zstar[n] <= 2.0 * math.exp(2.0 * eps * n) + 1e-9
                for n in range(2, N + 1)
            ),
            f"word growth bounds fail at M={M}",
        )
        if M == 10:
            state["sharp10"] = sharp
            state["prime10"] = prime


def _symbolic_enumerate(inp, rec, state):
    m10 = hs.full_model(10)
    with rec.span("words.synthetic_census"):
        census = hs.synthetic_census(m10, 25)
    rec.check(all(d == 0 for d in census.renewal_defect()), "synthetic census M=10 renewal")
    with rec.span("words.enumerate"):
        counts = [sum(1 for _ in hs.enumerate_words(m10, n)) for n in range(inp["enum_n"] + 1)]
        primes = [
            sum(1 for _ in hs.enumerate_words(m10, n, prime=True))
            for n in range(2, inp["prime_n"] + 1)
        ]
    rec.count("words.words_enumerated", sum(counts) + sum(primes))
    rec.check(
        counts == state["sharp10"][: inp["enum_n"] + 1],
        "enumerated words differ from count_sharp at M=10",
    )
    rec.check(
        primes == state["prime10"][2 : inp["prime_n"] + 1],
        "enumerated prime words differ from count_prime_words at M=10",
    )


def _symbolic_divides(inp, rec, state):
    model = hs.full_model(4)
    with rec.span("words.enumerate"):
        words = [hs.UNIT_WORD] + [
            w for n in range(2, inp["divides_order"] + 1) for w in hs.enumerate_words(model, n)
        ]
    rec.count("words.words_enumerated", len(words) - 1)
    with rec.span("words.divides"):
        spelling = hs.canonical_spellings(model, 64)
        memo: dict = {}
        rel = {(a, b): hs.divides(a, b, spelling, memo) for a in words for b in words}
    rec.check(
        all(rel[(w, w)] and rel[(w, hs.UNIT_WORD)] for w in words),
        "divides is not reflexive or the unit word does not divide everything",
    )
    rec.check(
        all(a.order > b.order or a == b for (a, b), holds in rel.items() if holds),
        "divides does not strictly decrease the order",
    )
    divisors = {a: [b for b in words if rel[(a, b)]] for a in words}
    rec.check(
        all(rel[(a, c)] for a in words for b in divisors[a] for c in divisors[b]),
        "divides is not transitive",
    )


def _symbolic_cli_entropy(inp, rec, state):
    n = inp["cli_renewal"]
    out = rec.cli(["shift", "entropy", "--graph", inp["cli_graph"]])
    root = inp["roots"][n]
    rec.check(
        abs(out["entropy"] - math.log(root)) <= 1e-9,
        f"shift entropy n={n}: {out['entropy']} vs {math.log(root)}",
    )


def _symbolic_cli_mme(inp, rec, state):
    n = inp["renewal"][0]
    out = rec.cli(["shift", "mme", "--graph", inp["mme_graph"]])
    rec.check(
        abs(out["h_top"] - math.log(inp["roots"][n])) <= 1e-9
        and abs(sum(out["pi"].values()) - 1.0) <= 1e-9,
        f"shift mme n={n}: h_top {out['h_top']}",
    )


def _symbolic_cli_spr(inp, rec, state):
    out = rec.cli(["shift", "spr", "--graph", inp["mme_graph"], "--horizon", "150"])
    rec.check(out["is_spr"] is True, f"shift spr: {out['is_spr']}")


def _symbolic_cli_return_decay(inp, rec, state):
    out = rec.cli(["stats", "return-decay", "--model", inp["model"]])
    rec.check(out["exponential"] is True, f"stats return-decay: kappa {out['kappa']}")


# ---------------------------------------------------------------------------
# dynamics: one-point-at-a-time maps and the statistics layer


def custom_twin(m: hs.HenonMap) -> hs.HenonMap:
    """The classical map m written as a callable perturbation B = (0, b x).

    The twin computes the same map through the general custom path, so every
    classical result is an exact oracle for it.
    """
    b = m.b
    return hs.HenonMap(
        a=m.a, b=b, perturbation="custom",
        custom_B=lambda x, y: (0.0, b * x),
        custom_dB=lambda x, y: np.array([[0.0, 0.0], [b, 0.0]]),
    )


def dynamics_setup(rng: np.random.Generator, size: dict, work: str) -> dict:
    seeds = [int(s) for s in rng.integers(0, 2**31, size=8)]
    b = 1e-3 * rng.uniform(0.9, 1.1)
    chaotic = hs.HenonMap(a=-1.4, b=b, perturbation="classical")
    horseshoe = hs.HenonMap(a=-2.0 + 1e-3 * rng.uniform(0.9, 1.1), b=b, perturbation="classical")
    params = hs.Params(M=100, b=b)
    U = hs.region_sample_U(horseshoe, params, size["u_points"], seeds[0])
    angles = rng.uniform(0.0, 2.0 * math.pi, size["g4_points"])
    starts = hs.region_sample_U(chaotic, params, size["g4_points"], seeds[1])
    return {
        **size,
        "x0": float(2.0 * math.cos(math.pi * rng.random())),
        "chaotic": chaotic,
        "horseshoe": horseshoe,
        "params": params,
        "U": U,
        "g4_sample": [((float(z[0]), float(z[1])), (math.cos(t), math.sin(t)))
                      for z, t in zip(starts, angles)],
        "seeds": seeds,
    }


def _dynamics_lyapunov(inp, rec, state):
    zero = hs.HenonMap(a=-2.0, b=0.0)
    with rec.span("henon.lyapunov"):
        l1, l2 = hs.lyapunov(zero, (inp["x0"], 0.0), inp["zero_steps"])
    rec.count("henon.steps", inp["zero_steps"])
    rec.check(abs(l1 - LOG2) <= 0.01 and l2 == -math.inf, f"zero map: lambda {l1}, {l2}")
    m = inp["chaotic"]
    with rec.span("henon.lyapunov"):
        l1, l2 = hs.lyapunov(m, (0.0, 0.0), inp["classical_steps"])
    rec.count("henon.steps", inp["classical_steps"])
    # det Tf = -b everywhere, so lambda_1 + lambda_2 = log b exactly
    rec.check(abs(l1 + l2 - math.log(m.b)) <= 1e-8, f"classical determinant identity {l1 + l2}")


def _dynamics_custom(inp, rec, state):
    m, twin = inp["chaotic"], custom_twin(inp["chaotic"])
    n = inp["custom_steps"]
    with rec.span("henon.lyapunov_custom"):
        c1, c2 = hs.lyapunov(twin, (0.0, 0.0), n)
    rec.count("henon.steps", n)
    l1, _ = hs.lyapunov(m, (0.0, 0.0), n)  # oracle: the classical map
    rec.check(
        abs(c1 - l1) <= 1e-9 and abs(c1 + c2 - math.log(m.b)) <= 1e-8,
        f"custom lyapunov {c1}, {c2} vs classical {l1}",
    )

    params = inp["params"]
    hm, htwin = inp["horseshoe"], custom_twin(inp["horseshoe"])
    with rec.span("henon.checks"):
        g6 = hs.check_G6(htwin, inp["U"], params)
        g4 = hs.check_expansion_G4(twin, inp["g4_sample"], inp["g4_ns"], params)
        tp = hs.tangent_cocycle(twin, (0.0, 0.0), (1.0, 0.0), 2 * inp["g4_ns"])
        times = [hs.h_times_check(tp, k, params) for k in range(1, tp.n + 1)]
        pce = hs.pce_check(tp, tp.n, params)
    # oracle: the classical map through its closed-form derivative path
    ref6 = hs.check_G6(hm, inp["U"], params)
    ref4 = hs.check_expansion_G4(m, inp["g4_sample"], inp["g4_ns"], params)
    rtp = hs.tangent_cocycle(m, (0.0, 0.0), (1.0, 0.0), 2 * inp["g4_ns"])
    rec.check(
        abs(g6.sup_Tf - ref6.sup_Tf) <= 1e-12 and abs(g6.sup_T2f - 2.0) <= 1e-3,
        f"check_G6 custom {g6.sup_Tf}, {g6.sup_T2f} vs classical {ref6.sup_Tf}",
    )
    rec.check(
        g4.expansion_ok == ref4.expansion_ok and g4.cone_ok == ref4.cone_ok,
        "check_expansion_G4 differs between the custom twin and the classical map",
    )
    rec.check(
        times == [hs.h_times_check(rtp, k, params) for k in range(1, rtp.n + 1)]
        and pce == hs.pce_check(rtp, rtp.n, params),
        "h_times_check/pce_check differ between the custom twin and the classical map",
    )


def _dynamics_census(inp, rec, state):
    m, twin = inp["horseshoe"], custom_twin(inp["horseshoe"])
    grid = inp["census_grid"]
    for p in range(1, inp["census_p"] + 1):
        with rec.span("orbits.census2d_custom"):
            c = hs.periodic_orbits_2d(twin, p, grid=grid, refine_check=True)
        ref = hs.periodic_orbits_2d(m, p, grid=grid, refine_check=True)  # oracle
        nx, ny = grid
        rec.count("orbits.seeds", nx * ny + (2 * nx) * (2 * ny))
        rec.count("orbits.fix_points", c.count_fix)
        if c.stable is not True:
            rec.count("orbits.unstable_censuses")
        if c.stable and ref.stable:
            rec.check(
                c.count_fix == ref.count_fix,
                f"custom census p={p}: {c.count_fix} vs classical {ref.count_fix}",
            )


def _dynamics_stats(inp, rec, state):
    s = inp["seeds"]
    with rec.span("stats.sample"):
        mu = hs.sample_mme_1d("arcsine", inp["arcsine_n"], s[2])
        chain_mu = hs.sample_mme_1d("chain", inp["chain_n"], s[3])
    # arcsine law: E x = 0, E x^2 = 2, Var x = 2, Var x^2 = 2
    for sample in (mu, chain_mu):
        x = sample.points
        tol = 5.0 * math.sqrt(2.0 / len(x))
        rec.check(
            abs(float(x.mean())) <= tol and abs(float((x * x).mean()) - 2.0) <= tol,
            f"{sample.provenance} sample moments off the arcsine law",
        )
    F = lambda v: v * v - 2.0  # noqa: E731
    with rec.span("stats.mixing_clt"):
        fit = hs.covariance_decay(F, mu, hs_stats.coordinate(), hs_stats.coordinate(), n_max=10)
        rep = hs.clt_test(F, mu, hs_stats.coordinate(), n=inp["clt_n"],
                          trials=inp["clt_trials"], alpha=CLT_ALPHA, seed=s[4])
        cob = hs.clt_test(F, mu, hs.coboundary(lambda v: np.sin(v), F), n=inp["clt_n"],
                          trials=inp["clt_trials"], alpha=CLT_ALPHA, seed=s[4])
    rec.check(fit.kappa <= 0.6 and fit.r2 >= 0.9, f"covariance decay kappa {fit.kappa}")
    rec.check(rep.passed is True and not rep.degenerate, f"CLT p-value {rep.p_value}")
    rec.check(cob.degenerate is True, "coboundary CLT is not degenerate")

    n = inp["box_n"]
    square = hs_stats.square_sample(n, s[5])
    cantor = hs_stats.cantor_sample(n, s[6])
    with rec.span("stats.box_dimension"):
        d_sq = hs.box_dimension(square, [2.0**-k for k in range(2, 10)])
        d_ca = hs.box_dimension(cantor, [3.0**-k for k in range(1, 11)])
    rec.count("stats.points_boxed", 2 * n)
    rec.check(abs(d_sq - 2.0) <= 0.05, f"square box dimension {d_sq}")
    rec.check(abs(d_ca - LOG2 / math.log(3.0)) <= 0.05, f"Cantor box dimension {d_ca}")


def _dynamics_cli_mixing(inp, rec, state):
    out = rec.cli(["stats", "mixing", "--seed", str(inp["seeds"][7]), "--n", str(inp["cli_n"])])
    rec.check(out["kappa"] <= 0.6, f"stats mixing: kappa {out['kappa']}")


def _dynamics_cli_clt(inp, rec, state):
    out = rec.cli([
        "stats", "clt", "--seed", str(inp["seeds"][7]), "--sample-n", str(inp["cli_n"]),
        "--n", str(inp["clt_n"]), "--trials", str(inp["clt_trials"]),
        "--alpha", repr(CLT_ALPHA),
    ])
    rec.check(out["passed"] is True, f"stats clt: p-value {out['p_value']}")


def _dynamics_cli_boxdim(inp, rec, state):
    n = inp["cli_box_n"]
    out = rec.cli(["stats", "boxdim", "--set", "cantor", "--n", str(n),
                   "--seed", str(inp["seeds"][7])])
    rec.check(
        out["n_points"] == n and abs(out["dimension"] - LOG2 / math.log(3.0)) <= 0.05,
        f"stats boxdim: {out['dimension']}",
    )


WORKLOADS = {
    "census": (
        census_setup,
        [_census_2d, _census_1d],
        [_census_cli_census, _census_cli_entropy, _census_cli_equidist],
    ),
    "symbolic": (
        symbolic_setup,
        [_symbolic_small_graphs, _symbolic_closed_forms, _symbolic_renewal,
         _symbolic_model_bounds, _symbolic_sweep, _symbolic_enumerate, _symbolic_divides],
        [_symbolic_cli_entropy, _symbolic_cli_mme, _symbolic_cli_spr,
         _symbolic_cli_return_decay],
    ),
    "dynamics": (
        dynamics_setup,
        [_dynamics_lyapunov, _dynamics_custom, _dynamics_census, _dynamics_stats],
        [_dynamics_cli_mixing, _dynamics_cli_clt, _dynamics_cli_boxdim],
    ),
}

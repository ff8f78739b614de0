"""Loop censuses, spectral data, and the entropy-maximizing chain,
checked against exact small-instance oracles."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonshift
from henonshift import markov
from henonshift.markov import (
    CylinderWord,
    LoopCensus,
    MarkovGraph,
    NotStronglyConnectedError,
    build_mme,
    chain_entropy,
    count_loops,
    cycle_graph,
    equidistribution_cylinder,
    full_shift_graph,
    golden_mean_graph,
    graph_from_dict,
    graph_to_dict,
    graph_period,
    gurevich_entropy,
    is_mixing,
    is_spr,
    load_graph,
    perron,
    radii,
    return_time_tail,
    self_loop_graph,
    shift_periodic_census,
    strongly_connected_defect,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def renewal_shift(n: int) -> MarkovGraph:
    """Truncated renewal shift: 0 -> j for every j, j -> j-1."""
    vs = tuple(str(i) for i in range(n))
    arrows = {("0", v) for v in vs} | {(vs[j], vs[j - 1]) for j in range(1, n)}
    return MarkovGraph(vs, frozenset(arrows), "0")


def _graph_from_matrix(A: np.ndarray) -> MarkovGraph:
    n = len(A)
    return MarkovGraph(
        vertices=tuple(f"v{i}" for i in range(n)),
        arrows=frozenset((f"v{i}", f"v{j}") for i in range(n) for j in range(n) if A[i, j]),
        base="v0",
    )


# ---------------------------------------------------------------------------
# loop censuses


def test_golden_mean_census_fibonacci():
    census = count_loops(golden_mean_graph(), 10)
    assert census.Z == (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    assert census.Zstar == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert census.z(0) == 1
    assert all(d == 0 for d in census.renewal_defect())


def test_full_shift_census():
    census = count_loops(full_shift_graph(2), 12)
    # loops AT the base: (M^n)_00 = 2^(n-1)
    assert census.Z == tuple(2 ** (n - 1) for n in range(1, 13))
    # first returns 0 1^(n-1) 0: exactly one loop per length
    assert census.Zstar == tuple(1 for _ in range(12))
    assert all(d == 0 for d in census.renewal_defect())


def _renewal_defect_reference(census: LoopCensus) -> list[int]:
    """Z_n - sum_k Z*_k Z_{n-k}, term by term through z() and zstar()."""
    out = []
    for n in range(1, census.horizon + 1):
        conv = sum(census.zstar(k) * census.z(n - k) for k in range(1, n + 1))
        out.append(census.z(n) - conv)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**40), st.integers(0, 10**40)), min_size=1, max_size=60))
def test_renewal_defect_matches_termwise_sum(terms):
    census = LoopCensus(
        base="0",
        horizon=len(terms),
        Z=tuple(zs + extra for zs, extra in terms),
        Zstar=tuple(zs for zs, _ in terms),
    )
    defect = census.renewal_defect()
    assert defect == _renewal_defect_reference(census)
    assert all(type(d) is int for d in defect)


def test_cycle_census_period_three():
    census = count_loops(cycle_graph(3), 9)
    assert census.Z == (0, 0, 1, 0, 0, 1, 0, 0, 1)
    assert census.Zstar == (0, 0, 1, 0, 0, 0, 0, 0, 0)


def _brute_force_census(graph: MarkovGraph, N: int) -> tuple[list[int], list[int]]:
    """Path enumeration oracle: all walks of length <= N from the base."""
    adj = {u: [v for (x, v) in graph.arrows if x == u] for u in graph.vertices}
    Z = [0] * (N + 1)
    Zstar = [0] * (N + 1)

    def walk(v: str, steps: int, touched_base: bool) -> None:
        if steps > 0 and v == graph.base:
            Z[steps] += 1
            if not touched_base:
                Zstar[steps] += 1
        if steps == N:
            return
        for w in adj[v]:
            walk(w, steps + 1, touched_base or (steps > 0 and v == graph.base))

    walk(graph.base, 0, False)
    return Z[1:], Zstar[1:]


def test_count_loops_matches_enumeration_golden():
    g = golden_mean_graph()
    census = count_loops(g, 12)
    Z, Zstar = _brute_force_census(g, 12)
    assert list(census.Z) == Z
    assert list(census.Zstar) == Zstar


def _count_loops_reference(graph: MarkovGraph, N: int) -> LoopCensus:
    """The per-vertex Python loop that count_loops replaced: Z and Z*
    advanced over successor lists in exact Python ints."""
    idx = {v: i for i, v in enumerate(graph.vertices)}
    out: list[list[int]] = [[] for _ in graph.vertices]
    for u, v in sorted(graph.arrows):
        out[idx[u]].append(idx[v])
    b = idx[graph.base]
    Z, Zstar = [], []
    vec = [0] * graph.n
    vec[b] = 1
    vstar = vec[:]
    for _ in range(N):
        nxt = [0] * graph.n
        nstar = [0] * graph.n
        for u in range(graph.n):
            if vec[u]:
                for v in out[u]:
                    nxt[v] += vec[u]
                    nstar[v] += vstar[u]
        Z.append(nxt[b])
        Zstar.append(nstar[b])
        nstar[b] = 0
        vec, vstar = nxt, nstar
    return LoopCensus(base=graph.base, horizon=N, Z=tuple(Z), Zstar=tuple(Zstar))


def _random_strong_graph(rng: np.random.Generator) -> MarkovGraph:
    """A cycle through 3-8 vertices plus up to two random arrows."""
    k = int(rng.integers(3, 9))
    names = tuple(f"v{i}" for i in range(k))
    arrows = {(names[i], names[(i + 1) % k]) for i in range(k)}
    for _ in range(int(rng.integers(0, 3))):
        arrows.add((names[int(rng.integers(k))], names[int(rng.integers(k))]))
    return MarkovGraph(names, frozenset(arrows), names[0])


def test_count_loops_equals_python_loop_reference():
    rng = np.random.default_rng(71)
    cases = [(renewal_shift(2000), 300), (golden_mean_graph(), 64)]
    cases += [(_random_strong_graph(rng), 15) for _ in range(50)]
    # "c" has no in-arrows; the second graph has no arrows at all
    cases.append((MarkovGraph(("a", "b", "c"),
                              frozenset({("a", "b"), ("b", "a"), ("c", "a")}), "a"), 20))
    cases.append((MarkovGraph(("a", "b"), frozenset(), "a"), 5))
    for g, H in cases:
        census = count_loops(g, H)
        assert census == _count_loops_reference(g, H)
        assert all(type(z) is int for z in census.Z + census.Zstar)


def test_pruned_count_loops_equals_python_loop_reference():
    # the census walks only the vertices within reach of the base: horizons
    # shorter than the farthest return, vertices that never reach the base,
    # a census of zeros, base self-loops and a graph with no arrows
    ring = tuple(str(i) for i in range(5))
    tail = ("t0", "t1", "t2")
    with_tail = MarkovGraph(
        ring + tail,
        frozenset({(ring[i], ring[(i + 1) % 5]) for i in range(5)}
                  | {("2", "t0"), ("t0", "t1"), ("t1", "t2"), ("t2", "t0")}),
        "0",
    )
    looped = MarkovGraph(("a", "b", "c"),
                         frozenset({("a", "a"), ("a", "b"), ("b", "c"), ("c", "a")}), "a")
    cases = [
        (renewal_shift(2000), 10),
        (renewal_shift(2000), 64),
        (with_tail, 40),
        (cycle_graph(500), 100),
        (looped, 30),
        (self_loop_graph(), 12),
        (MarkovGraph(("a", "b"), frozenset(), "a"), 5),
    ]
    for g, H in cases:
        census = count_loops(g, H)
        assert census == _count_loops_reference(g, H)
        assert all(type(z) is int for z in census.Z + census.Zstar)
    assert count_loops(cycle_graph(500), 100).Z == (0,) * 100


def test_count_loops_on_a_hundred_thousand_vertices():
    # closed form while the horizon stays below n: one first return of
    # each length, so Z_k = 2^(k-1)
    H = 300
    census = count_loops(renewal_shift(100_000), H)
    assert census.Zstar == (1,) * H
    assert census.Z == tuple(2 ** (k - 1) for k in range(1, H + 1))
    assert all(d == 0 for d in census.renewal_defect())


def renewal_root(n: int) -> float:
    """lambda_n: the root in (1, 2] of sum_{k<=n} lambda^-k = 1, by bisection."""
    lo, hi = 1.0 + 1e-12, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = 1.0 / mid
        if x * (1.0 - x**n) / (1.0 - x) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [50, 200, 2000])
def test_renewal_shift_exact_lambda_and_first_returns(n):
    g = renewal_shift(n)
    assert abs(perron(g).lam - renewal_root(n)) <= 1e-9
    H = 300  # Z_H is about lambda_n^H > 2^63, so the census leaves int64
    census = count_loops(g, H)
    assert census.Z[-1] > 2**63
    assert census.Zstar == tuple(int(k <= n) for k in range(1, H + 1))
    assert all(d == 0 for d in census.renewal_defect())


def test_census_validates_zstar_bounded_by_z():
    with pytest.raises(ValueError):
        LoopCensus(base="e", horizon=2, Z=(1, 1), Zstar=(2, 0))


# ---------------------------------------------------------------------------
# radii and SPR


def test_golden_mean_radii_and_spr():
    census = count_loops(golden_mean_graph(), 64)
    r = radii(census)
    assert abs(r.R - 1.0 / PHI) < 1e-2
    assert math.isinf(r.R_star)  # finite first-return support
    report = is_spr(census, margin=0.05)
    assert report.spr and not report.degenerate


def test_spr_margin_can_flip_verdict():
    census = count_loops(full_shift_graph(2), 64)
    r = radii(census)
    assert abs(r.R - 0.5) < 1e-2
    assert abs(r.R_star - 1.0) < 1e-2
    assert is_spr(census, margin=0.05).spr
    assert not is_spr(census, margin=0.7).spr


def test_short_horizon_warns():
    census = count_loops(golden_mean_graph(), 10)
    report = is_spr(census)
    assert any("horizon" in w for w in report.warnings)


# ---------------------------------------------------------------------------
# structure predicates


def test_strong_connectivity_defect_names_pair():
    g = MarkovGraph(
        vertices=("a", "b"), arrows=frozenset({("a", "b")}), base="a"
    )
    defect = strongly_connected_defect(g)
    assert defect is not None
    with pytest.raises(NotStronglyConnectedError):
        perron(g)


def test_analysis_errors_are_value_errors():
    # callers that catch ValueError keep catching every analysis failure
    assert issubclass(markov.AnalysisError, ValueError)
    assert issubclass(NotStronglyConnectedError, markov.AnalysisError)
    assert henonshift.AnalysisError is markov.AnalysisError


def test_perron_searches_connectivity_once(monkeypatch):
    calls = []
    real = markov._bfs_depths

    def counting(graph, reverse=False):
        calls.append(reverse)
        return real(graph, reverse)

    monkeypatch.setattr(markov, "_bfs_depths", counting)
    perron(golden_mean_graph())
    assert sorted(calls) == [False, True]  # one forward, one reverse search
    g = MarkovGraph(vertices=("a", "b"), arrows=frozenset({("a", "b")}), base="a")
    with pytest.raises(NotStronglyConnectedError) as err:
        perron(g)
    assert err.value.pair == ("b", "a")
    assert not is_mixing(g)
    # neither direction connected: the forward defect is the one raised
    g = MarkovGraph(("a", "b", "c"), frozenset({("a", "b"), ("c", "a")}), "a")
    calls.clear()
    with pytest.raises(NotStronglyConnectedError) as err:
        graph_period(g)
    assert err.value.pair == ("a", "c") and calls == [False]
    assert strongly_connected_defect(g) == ("a", "c")


def test_adjacency_array_matches_exact_adjacency():
    for g in (golden_mean_graph(), cycle_graph(5), full_shift_graph(3), self_loop_graph()):
        ref = np.zeros((g.n, g.n))
        for u, v in g.arrows:
            ref[g.vertices.index(u), g.vertices.index(v)] = 1.0
        assert np.array_equal(g.adjacency_array(), ref)
    empty = MarkovGraph(vertices=("a", "b"), arrows=frozenset(), base="a")
    assert np.array_equal(empty.adjacency_array(), np.zeros((2, 2)))


def test_period_and_mixing():
    assert graph_period(cycle_graph(4)) == 4
    assert not is_mixing(cycle_graph(4))
    assert graph_period(golden_mean_graph()) == 1
    assert is_mixing(golden_mean_graph())


# ---------------------------------------------------------------------------
# spectral data and the chain


def test_golden_mean_entropy():
    assert abs(gurevich_entropy(golden_mean_graph()) - math.log(PHI)) < 1e-12


def test_perron_matches_dense_eigensolver_on_samples():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = (rng.random((n, n)) < 0.5).astype(int)
        A[np.arange(n), (np.arange(n) + 1) % n] = 1  # force a covering cycle
        spec = perron(_graph_from_matrix(A))
        lam_oracle = max(abs(np.linalg.eigvals(A.astype(float))))
        assert abs(spec.lam - lam_oracle) < 1e-8 * max(1.0, lam_oracle)


def _power_iteration_reference(matvec, n, tol, max_iter=500_000):
    """The power iteration that Krylov restarts replaced: a positive
    nudge after 200 steps without progress."""
    v = np.full(n, 1.0 / n)
    w = matvec(v)
    lam = 0.0
    residual = math.inf
    stall = 0
    last_res = math.inf
    for _ in range(max_iter):
        norm = float(np.abs(w).sum())
        v_next = w / norm
        lam = float(v @ w) / float(v @ v)
        w = matvec(v_next)
        residual = float(np.max(np.abs(w - lam * v_next)))
        v = v_next
        if residual <= tol * max(1.0, abs(lam)):
            return lam, v, residual
        if residual >= last_res * 0.999999:
            stall += 1
            if stall >= 200:
                v = v + np.linspace(1.0, 2.0, n) * (1.0 / (10.0 * n))
                v = v / v.sum()
                w = matvec(v)
                stall = 0
        else:
            stall = 0
        last_res = residual
    raise markov.ConvergenceError(residual, max_iter)


def _perron_reference(graph: MarkovGraph, tol: float, monkeypatch) -> markov.SpectralData:
    with monkeypatch.context() as m:
        m.setattr(markov, "_power_iteration", _power_iteration_reference)
        return perron(graph, tol=tol)


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_perron_equals_reference_where_no_restart_fires(tol, monkeypatch):
    graphs = [renewal_shift(n) for n in (50, 200, 2000)]
    graphs += [full_shift_graph(3), cycle_graph(5)]
    for g in graphs:
        got, ref = perron(g, tol=tol), _perron_reference(g, tol, monkeypatch)
        assert got.lam == ref.lam and got.residual == ref.residual
        assert np.array_equal(got.alpha, ref.alpha) and np.array_equal(got.beta, ref.beta)
    # the golden mean's spectral gap is too narrow for its 2-step window: a
    # restart lands on the exact Perron pair, and lambda moves by one ulp
    g = golden_mean_graph()
    got, ref = perron(g, tol=tol), _perron_reference(g, tol, monkeypatch)
    assert abs(got.lam - ref.lam) <= math.ulp(PHI)
    exact = np.array([PHI, 1.0]) / (PHI + 1.0)
    assert np.allclose(got.alpha, exact, rtol=4e-16, atol=0)
    assert np.allclose(got.beta, exact / (exact @ exact), rtol=4e-16, atol=0)
    assert got.residual <= 1e-15 < ref.residual


def _cycle_with_chord(n: int, c: int) -> MarkovGraph:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord c -> 0."""
    vs = tuple(str(i) for i in range(n))
    arrows = {(vs[i], vs[(i + 1) % n]) for i in range(n)} | {(vs[c], vs[0])}
    return MarkovGraph(vs, frozenset(arrows), "0")


@pytest.mark.parametrize("n, c", [(12, 10), (20, 18), (30, 28), (60, 58), (30, 15)])
def test_perron_solves_small_gap_graphs(n, c, monkeypatch):
    # loops of lengths n and c + 1: aperiodic for c = n - 2, period 2 for
    # (30, 15).  Power iteration alone needs ~2e5 products at n = 30 and
    # does not converge in 5e5 at n = 60; the restarts need < 5e3.
    products = []
    real = markov._matvec

    def counting(rows, cols, size):
        f = real(rows, cols, size)

        def g(v):
            products.append(1)
            return f(v)

        return g

    monkeypatch.setattr(markov, "_matvec", counting)
    g = _cycle_with_chord(n, c)
    tol = 1e-13
    spec = perron(g, tol=tol)
    assert len(products) <= 10_000
    lam = max(np.linalg.eigvals(g.adjacency_array()).real)
    assert abs(spec.lam - lam) <= 1e-12 * lam
    assert spec.delta == (1.0 if c == 15 else 0.0)
    assert spec.alpha.min() > 0 and spec.beta.min() > 0
    assert abs(spec.alpha @ spec.beta - 1.0) <= 1e-14
    # each side met tol * max(1, lambda) at unit 1-norm; beta was then
    # scaled by 1 / <alpha, beta>, which is beta's new 1-norm
    assert spec.residual <= 2 * tol * max(1.0, lam) * spec.beta.sum()


def test_perron_handles_periodic_graph():
    spec = perron(cycle_graph(5))
    assert abs(spec.lam - 1.0) < 1e-10


def test_mme_stationarity_and_entropy():
    g = golden_mean_graph()
    spec = perron(g)
    chain = build_mme(spec, g)
    pi = np.array(chain.pi)
    P = np.array(chain.p)
    assert np.all(P >= 0)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(pi @ P - pi)) < 1e-10
    assert abs(chain_entropy(chain) - chain.h_top) < 1e-9


def test_mme_uniform_on_full_shift():
    g = full_shift_graph(3)
    chain = build_mme(perron(g), g)
    assert np.allclose(chain.p, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(chain.pi, 1.0 / 3.0, atol=1e-10)
    assert abs(chain.h_top - math.log(3.0)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_mme_is_stationary_on_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    A = (rng.random((n, n)) < 0.6).astype(int)
    A[np.arange(n), (np.arange(n) + 1) % n] = 1
    g = _graph_from_matrix(A)
    chain = build_mme(perron(g), g)
    pi = np.array(chain.pi)
    P = np.array(chain.p)
    assert np.max(np.abs(pi @ P - pi)) < 1e-8
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# periodic censuses of the shift


def test_shift_fix_counts():
    g = golden_mean_graph()
    assert shift_periodic_census(g, 10) == 123  # trace of the 10th power
    g2 = full_shift_graph(2)
    assert all(shift_periodic_census(g2, p) == 2**p for p in range(1, 21))


def test_cylinder_equidistribution_golden():
    g = golden_mean_graph()
    chain = build_mme(perron(g), g)
    comp = equidistribution_cylinder(g, 10, CylinderWord(("0", "0")), chain)
    assert abs(comp.empirical - 55.0 / 123.0) < 1e-12
    assert abs(comp.mme - chain.pi_of("0") / PHI) < 1e-10
    assert abs(comp.empirical - comp.mme) < 0.01


def test_cylinder_convergence_in_p():
    g = golden_mean_graph()
    chain = build_mme(perron(g), g)
    cyl = CylinderWord(("0", "1"))
    diffs = [
        abs(
            equidistribution_cylinder(g, p, cyl, chain).empirical
            - equidistribution_cylinder(g, p, cyl, chain).mme
        )
        for p in (6, 12, 24)
    ]
    assert diffs[2] < diffs[0]


def test_missing_arrow_cylinder_has_zero_mass():
    g = golden_mean_graph()
    chain = build_mme(perron(g), g)
    comp = equidistribution_cylinder(g, 8, CylinderWord(("1", "1")), chain)
    assert comp.empirical == 0.0 and comp.mme == 0.0


def test_cylinder_rejects_unknown_vertex():
    g = golden_mean_graph()
    chain = build_mme(perron(g), g)
    for word in (("zz",), ("0", "zz")):
        with pytest.raises(ValueError, match="'zz'"):
            equidistribution_cylinder(g, 8, CylinderWord(word), chain)


def _exact_adjacency(g: MarkovGraph) -> np.ndarray:
    """Integer adjacency as Python ints (object dtype), from the arrows."""
    A = np.zeros((g.n, g.n), dtype=object)
    for u, v in g.arrows:
        A[g.vertices.index(u), g.vertices.index(v)] = 1
    return A


def _check_counts_against_matrix_powers(g: MarkovGraph, p_max: int) -> None:
    A = _exact_adjacency(g)
    vs = g.vertices[:4]
    words = [(v,) for v in vs] + [(u, v) for u in vs for v in vs]
    words += [(u, v, u) for u in vs for v in vs]
    chain = build_mme(perron(g), g)
    for p in range(1, p_max + 1):
        total = int(np.trace(np.linalg.matrix_power(A, p)))
        assert shift_periodic_census(g, p) == total
        for w in words:
            k = len(w) - 1
            if p < len(w):
                continue
            if total == 0:
                with pytest.raises(ValueError, match="empty"):
                    equidistribution_cylinder(g, p, CylinderWord(w), chain)
                continue
            comp = equidistribution_cylinder(g, p, CylinderWord(w), chain)
            i = [g.vertices.index(v) for v in w]
            if all(A[a, b] for a, b in zip(i, i[1:])):
                count = np.linalg.matrix_power(A, p - k)[i[-1], i[0]]
                assert comp.empirical == count / total
            else:
                assert comp.empirical == 0.0


@pytest.mark.parametrize(
    "graph",
    [golden_mean_graph(), cycle_graph(5), full_shift_graph(2), full_shift_graph(3),
     renewal_shift(9), self_loop_graph()],
    ids=["golden", "cycle5", "full2", "full3", "renewal9", "self_loop"],
)
def test_exact_counts_match_integer_matrix_powers(graph):
    _check_counts_against_matrix_powers(graph, 20)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_exact_counts_match_integer_matrix_powers_on_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    A = (rng.random((n, n)) < 0.5).astype(int)
    A[np.arange(n), (np.arange(n) + 1) % n] = 1
    _check_counts_against_matrix_powers(_graph_from_matrix(A), 20)


@pytest.mark.parametrize("p", [39, 40, 41, 45])
def test_fix_count_is_exact_past_int64(p):
    # 3^40 is the first power of 3 past 2^63
    assert shift_periodic_census(full_shift_graph(3), p) == 3**p


def test_cylinder_masses_are_exact_past_int64():
    g = full_shift_graph(3)
    chain = build_mme(perron(g), g)
    for w in ((u, v) for u in g.vertices for v in g.vertices):
        # 3^43 / 3^45, both past 2^63, as one correctly rounded division
        assert equidistribution_cylinder(g, 45, CylinderWord(w), chain).empirical == 1 / 3**2


def test_fix_count_and_cylinder_memory_is_linear_in_the_vertices():
    g = renewal_shift(2000)
    chain = build_mme(perron(g), g)  # the dense chain stays out of the peak
    shift_periodic_census(golden_mean_graph(), 3)  # and so do first-call caches
    tracemalloc.start()
    try:
        total = shift_periodic_census(g, 3)
        comp = equidistribution_cylinder(g, 3, CylinderWord(("1", "0")), chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 7  # 000, three rotations each of 001 and 021
    assert comp.empirical == 2 / 7
    assert peak < 1e6


def test_perron_and_mme_memory_is_linear_in_the_arrows():
    g = renewal_shift(2000)
    perron(golden_mean_graph())  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        chain = build_mme(perron(g), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense output p alone is 2000^2 floats = 32 MB
    assert chain.p.nbytes == 32_000_000
    assert peak < 40e6


_HASH_SCRIPT = """
import numpy as np
from henonshift.markov import MarkovGraph, build_mme, perron
rng = np.random.default_rng(3)
n = 40
names = tuple(f"w{i}" for i in range(n))
arrows = {(names[i], names[(i + 1) % n]) for i in range(n)}
arrows |= {(names[i], names[j]) for i, j in rng.integers(0, n, (120, 2))}
g = MarkovGraph(names, frozenset(arrows), names[0])
spec = perron(g)
chain = build_mme(spec, g)
for a in (spec.lam, spec.alpha, spec.beta, spec.residual, chain.pi, chain.p):
    print(np.asarray(a).tobytes().hex())
"""


def test_perron_output_does_not_depend_on_hash_seed():
    src = str(Path(markov.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# i/o and misc


def test_graph_json_roundtrip(tmp_path):
    g = golden_mean_graph()
    data = graph_to_dict(g)
    assert graph_from_dict(data) == g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert load_graph(str(path)) == g


def test_load_graph_malformed_raises_with_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [}')
    with pytest.raises(json.JSONDecodeError) as err:
        load_graph(str(path))
    assert err.value.lineno == 1


def test_return_time_tail_golden():
    g = golden_mean_graph()
    census = count_loops(g, 20)
    chain = build_mme(perron(g), g)
    # pi_e Z*_n e^{-n h}: n=1 -> pi_e / phi, n >= 3 -> 0
    assert abs(return_time_tail(chain, census, 1) - chain.pi_of("0") / PHI) < 1e-10
    assert return_time_tail(chain, census, 5) == 0.0


def test_self_loop_degenerate():
    census = count_loops(self_loop_graph(), 12)
    assert census.Z == tuple(1 for _ in range(12))
    assert gurevich_entropy(self_loop_graph()) == pytest.approx(0.0, abs=1e-12)

"""Acceptance suite: one test per headline criterion, each pinned to an
exact small-instance oracle or a frozen tolerance.  Run with -v to get a
single pass/fail line per criterion."""

from __future__ import annotations

import math
import random
import time
import warnings

import numpy as np

from henonshift.henon import HenonMap, lyapunov
from henonshift.markov import (
    CylinderWord,
    MarkovGraph,
    build_mme,
    chain_entropy,
    count_loops,
    equidistribution_cylinder,
    full_shift_graph,
    golden_mean_graph,
    is_spr,
    perron,
    radii,
    shift_periodic_census,
)
from henonshift.orbits import (
    chebyshev_fixed_points,
    entropy_from_census,
    equidistribution_test,
    exceptional_bound,
    fixed_points_1d,
    periodic_orbits_2d,
)
from henonshift.params import Params
from henonshift.stats import (
    box_dimension,
    cantor_sample,
    clt_test,
    coboundary,
    coordinate,
    covariance_decay,
    sample_mme_1d,
    segment_sample,
    square_sample,
)
from henonshift.words import (
    UNIT_WORD,
    Word,
    canonical_spellings,
    count_prime_words,
    count_sharp,
    covering_sum,
    dimension_upper_bound,
    divides,
    enumerate_words,
    full_model,
    synthetic_census,
    zstar_from_model,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LOG2 = math.log(2.0)


def test_criterion_01_golden_mean_entropy_and_mme():
    t0 = time.monotonic()
    g = golden_mean_graph()
    spec = perron(g)
    chain = build_mme(spec, g)
    assert abs(chain.h_top - math.log(PHI)) <= 1e-9
    pi, P = np.array(chain.pi), np.array(chain.p)
    assert np.abs(pi @ P - pi).sum() <= 1e-10
    assert abs(chain_entropy(chain) - chain.h_top) <= 1e-9
    assert time.monotonic() - t0 < 1.0


def _brute_loop_counts(g: MarkovGraph, n_max: int) -> tuple[list[int], list[int]]:
    """Exhaustive walk enumeration: loops at the base and first returns."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, v in g.arrows:
        adj[u].append(v)
    Z = [0] * (n_max + 1)
    Zs = [0] * (n_max + 1)
    stack = [(g.base, 0, False)]
    while stack:
        v, length, touched_mid = stack.pop()
        if length == n_max:
            continue
        for w in adj[v]:
            L = length + 1
            if w == g.base:
                Z[L] += 1
                if not touched_mid:
                    Zs[L] += 1
                stack.append((w, L, True))
            else:
                stack.append((w, L, touched_mid))
    return Z[1:], Zs[1:]


def test_criterion_02_renewal_identity_on_random_graphs():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    n_max = 15
    for _ in range(50):
        k = int(rng.integers(3, 9))
        names = tuple(f"v{i}" for i in range(k))
        arrows = {(names[i], names[(i + 1) % k]) for i in range(k)}
        for _ in range(int(rng.integers(0, 3))):
            arrows.add((names[int(rng.integers(k))], names[int(rng.integers(k))]))
        g = MarkovGraph(names, frozenset(arrows), names[0])
        census = count_loops(g, n_max)
        bz, bzs = _brute_loop_counts(g, n_max)
        assert list(census.Z) == bz
        assert list(census.Zstar) == bzs
        assert all(d == 0 for d in census.renewal_defect())
        # renewal identity on the independent walk counts, in exact integers
        full = [1] + bz
        for n in range(1, n_max + 1):
            assert full[n] == sum(bzs[j - 1] * full[n - j] for j in range(1, n + 1))
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_full_shift_counts_and_cylinders():
    g = full_shift_graph(2)
    chain = build_mme(perron(g), g)
    cyl = CylinderWord(("0",))
    for p in range(1, 21):
        assert shift_periodic_census(g, p) == 2**p
        cmp = equidistribution_cylinder(g, p, cyl, chain)
        assert abs(cmp.mme - 0.5) <= 1e-12
        assert abs(cmp.empirical - 0.5) <= 2.0 ** (-p + 2)


def test_criterion_04_chebyshev_census_against_angle_oracle():
    t0 = time.monotonic()
    counts = []
    for p in range(1, 13):
        oracle = np.sort(chebyshev_fixed_points(p))
        found = np.sort(fixed_points_1d(-2.0, p))
        assert len(found) == len(oracle) == 2**p
        assert np.max(np.abs(found - oracle)) <= 1e-9
        counts.append((p, len(found)))
    est = entropy_from_census(counts)
    assert abs(est.slope - LOG2) <= 0.02
    assert time.monotonic() - t0 < 120.0


def test_criterion_05_equidistribution_of_period_14_points():
    x = chebyshev_fixed_points(14)
    rep = equidistribution_test(x, reference="arcsine", statistic="KS")
    assert rep.n_points == 2**14
    assert rep.distance <= 0.02
    mass = float(np.mean((x >= 1.0) & (x <= 2.0)))
    assert abs(mass - 1.0 / 3.0) <= 0.02


def test_criterion_06_perturbed_census_stable_counts():
    m = HenonMap(a=-2.0 + 1e-3, b=1e-6, perturbation="classical")
    for p in range(1, 9):
        census = periodic_orbits_2d(m, p, grid=(1024, 4), refine_check=True)
        assert census.stable is True
        assert abs(math.log(census.count_fix) / p - LOG2) <= 0.1


def _walk_word_count(model, order: int) -> int:
    """Exhaustive backtracking walk: visits every word of the exact order."""
    if order == 0:
        return 1
    pools = {k: len(model.symbols_of_order(k)) for k in range(2, order + 1)}
    count = 0
    stack = [(order, k, i) for k in range(2, order + 1) for i in range(pools[k])]
    while stack:
        remaining, k, _ = stack.pop()
        rem = remaining - k
        if rem == 0:
            count += 1
            continue
        for k2 in range(2, rem + 1):
            for i2 in range(pools[k2]):
                stack.append((rem, k2, i2))
    return count


def test_criterion_07_word_bounds_and_enumeration():
    t0 = time.monotonic()
    for M in (10, 50, 100):
        model = full_model(M)
        eps = Params(M=M).epsilon
        for n in range(0, 301):
            assert count_sharp(n, model) <= 2**n
        for n in range(2, min(M, 300) + 1):
            assert count_prime_words(n, model) == 2
        for n in range(2, 301):
            assert count_prime_words(n, model) <= 2.0 * math.exp(eps * n) + 1e-9
            assert zstar_from_model(n, model) <= 2.0 * math.exp(2.0 * eps * n) + 1e-9
    # exhaustive enumeration vs the closed recursions at M = 10
    m10 = full_model(10)
    for N in range(0, 26):
        assert _walk_word_count(m10, N) == count_sharp(N, m10)
    for N in range(0, 19):
        assert sum(1 for _ in enumerate_words(m10, N)) == count_sharp(N, m10)
    for n in range(2, 26):
        assert sum(1 for _ in enumerate_words(m10, n, prime=True)) == count_prime_words(n, m10)
    assert all(d == 0 for d in synthetic_census(m10, 25).renewal_defect())
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_synthetic_shift_is_spr():
    census = synthetic_census(full_model(100), 80)
    eps = Params(M=100).epsilon
    rad = radii(census)
    assert rad.R <= 0.6
    assert rad.R_star >= math.exp(-2.0 * eps) - 0.02
    rep = is_spr(census, margin=0.3)
    assert rep.spr is True


def test_criterion_09_divisibility_partial_order():
    # exhaustive on every word of order <= 9, sampled up to order 30
    model = full_model(4)
    spelling = canonical_spellings(model, 64)
    words = [UNIT_WORD] + [w for n in range(2, 10) for w in enumerate_words(model, n)]
    memo: dict = {}
    rel = {(a, b): divides(a, b, spelling, memo) for a in words for b in words}

    model10 = full_model(10)
    spelling10 = canonical_spellings(model10, 64)
    rng = random.Random(20260814)

    def rand_word(max_order: int) -> Word:
        syms = []
        budget = rng.randint(2, max_order)
        while budget >= 2:
            o = rng.randint(2, min(budget, 16))
            pool = model10.symbols_of_order(o)
            syms.append(rng.choice(pool))
            budget -= o
        return Word(tuple(syms)) if syms else UNIT_WORD

    sample = sorted({UNIT_WORD} | {rand_word(30) for _ in range(60)}, key=repr)
    assert max(w.order for w in sample) >= 25
    memo10: dict = {}
    rel10 = {(a, b): divides(a, b, spelling10, memo10) for a in sample for b in sample}

    for universe, relation in ((words, rel), (sample, rel10)):
        for w in universe:
            assert relation[(w, w)]
            assert relation[(w, UNIT_WORD)]
        for (a, b), holds in relation.items():
            if not holds:
                continue
            # order decrease, strict except on the diagonal
            assert a.order >= b.order
            if a.order == b.order:
                assert a == b
            if relation[(b, a)]:
                assert a == b
        divisors = {a: [b for b in universe if relation[(a, b)]] for a in universe}
        for a in universe:
            for b in divisors[a]:
                for c in divisors[b]:
                    assert relation[(a, c)]


def test_criterion_10_covering_sums_and_dimension_bound():
    model = full_model(100)
    params = Params(M=100)
    s = 1.0 / math.sqrt(100)
    values = [
        covering_sum(N, s, model, params, weight="cardinality").value
        for N in range(0, 11)
    ]
    ratios = [b / a for a, b in zip(values[1:], values[2:])]
    assert all(r < 0.1 for r in ratios)  # geometric decay in the block count
    bound = dimension_upper_bound(model, params, [k / 100.0 for k in range(1, 101)])
    assert bound.certified
    assert bound.bound <= 3.0 / math.sqrt(100) + 1e-12
    # reported, not asserted: the contraction-weight sum vs its lambda^N target
    cs = covering_sum(6, s, model, params, weight="hausdorff")
    warnings.warn(
        "hausdorff-weight covering sum at N=6: value="
        f"{cs.value:.3e}, lambda^N={cs.lam_bound:.3e}, passes={cs.passes_bound}"
    )


def test_criterion_11_lyapunov_exponents_and_determinant_identity():
    x0 = float(sample_mme_1d("arcsine", 1, seed=2026).points[0])
    l1, l2 = lyapunov(HenonMap(a=-2.0, b=0.0), (x0, 0.0), 1_000_000)
    assert abs(l1 - LOG2) <= 0.01
    assert l2 == -math.inf

    # dissipative case: independent QR accumulation, then the pair identity
    m = HenonMap(a=-1.4, b=1e-3, perturbation="classical")
    n = 200_000
    x, y = 0.0, 0.0
    Q = np.eye(2)
    s1 = s2 = sd = 0.0
    for _ in range(n):
        J = m.jacobian(x, y)
        Q, R = np.linalg.qr(J @ Q)
        s1 += math.log(abs(R[0, 0]))
        s2 += math.log(abs(R[1, 1]))
        sd += math.log(abs(np.linalg.det(J)))
        x, y = m.apply(x, y)
    assert abs((s1 + s2) / n - sd / n) <= 1e-8
    pl1, pl2 = lyapunov(m, (0.0, 0.0), n)
    assert abs(pl1 - s1 / n) <= 1e-9
    assert abs((pl1 + pl2) - sd / n) <= 1e-8


def test_criterion_12_mixing_fit_and_clt():
    F = lambda v: v * v - 2.0
    mu = sample_mme_1d("arcsine", 400_000, seed=31)
    fit = covariance_decay(F, mu, coordinate(), coordinate(), n_max=10)
    assert fit.kappa <= 0.6
    assert fit.r2 >= 0.9
    rep = clt_test(F, mu, coordinate(), n=4096, trials=2000, alpha=0.01, seed=17)
    assert rep.passed is True
    assert not rep.degenerate
    cob = clt_test(
        F, mu, coboundary(lambda v: np.sin(v), F), n=4096, trials=2000, alpha=0.01, seed=17
    )
    assert cob.degenerate is True


def test_criterion_13_square_subsystem_entropy_and_exceptional_bound():
    # at M = 3 the square subsystem's return map at time M + 1 = 4 is a full
    # 2-shift, so Card Fix f^{4n} = 2^n
    est = entropy_from_census([(4 * n, 2**n) for n in range(1, 9)])
    assert abs(est.slope - LOG2 / 4.0) <= 1e-6
    bounds = [exceptional_bound(p, 1000) for p in range(50, 10_001, 50)]
    logs = [b.log_ratio for b in bounds]
    assert all(b2 < b1 for b1, b2 in zip(logs, logs[1:]))
    assert bounds[-1].ratio < 1e-300


def test_criterion_14_calibration_box_dimensions():
    seg = segment_sample(200_000, seed=41)
    dyadic = [2.0**-k for k in range(2, 10)]
    assert abs(box_dimension(seg, dyadic) - 1.0) <= 0.05
    sq = square_sample(400_000, seed=42)
    assert abs(box_dimension(sq, dyadic) - 2.0) <= 0.05
    cantor = cantor_sample(300_000, seed=43)
    triadic = [3.0**-k for k in range(1, 11)]
    assert abs(box_dimension(cantor, triadic) - LOG2 / math.log(3.0)) <= 0.05

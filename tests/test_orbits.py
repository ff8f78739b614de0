"""Root censuses for the one-dimensional family, the two-dimensional
Newton census, entropy fits, equidistribution statistics, and the
exceptional-parameter counting bound."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonshift import orbits
from henonshift.henon import HenonMap, _orbit_batch
from henonshift.orbits import (
    arcsine_cdf,
    census_to_csv,
    chebyshev_fixed_points,
    entropy_from_census,
    equidistribution_test,
    exceptional_bound,
    fixed_points_1d,
    k_square_entropy,
    periodic_orbits_2d,
    square_horseshoe_censuses,
)
from henonshift.orbits import _default_seed_grid, _newton_batch


# ---------------------------------------------------------------------------
# angle-parametrized oracle at a = -2


def test_oracle_counts_are_powers_of_two():
    for p in range(1, 15):
        assert len(chebyshev_fixed_points(p)) == 2**p


def test_oracle_points_are_roots():
    # residuals of f^p amplify like the derivative ~ 4^p eps
    for p in (1, 2, 5, 8, 11, 14):
        x = chebyshev_fixed_points(p)
        y = x.copy()
        for _ in range(p):
            y = y * y - 2.0
        assert np.max(np.abs(y - x)) <= 4.0**p * 1e-13


def test_oracle_fixed_points_p1():
    assert np.allclose(np.sort(chebyshev_fixed_points(1)), [-1.0, 2.0])


def test_oracle_nested():
    # Fix(f^p) is contained in Fix(f^{2p})
    small = set(np.round(chebyshev_fixed_points(3), 12))
    big = set(np.round(chebyshev_fixed_points(6), 12))
    assert small <= big


def test_oracle_min_gap_survives():
    # the two point families interleave with gaps down to ~4 pi^2 / N^3;
    # construction must keep such near-coincident pairs distinct
    x = chebyshev_fixed_points(14)
    gaps = np.diff(np.sort(x))
    assert gaps.min() > 0
    assert gaps.min() < 1e-10


# ---------------------------------------------------------------------------
# bracketing + bisection census on the line


def test_census_1d_matches_oracle_exactly():
    for p in range(1, 17):
        found = np.sort(fixed_points_1d(-2.0, p))
        want = np.sort(chebyshev_fixed_points(p))
        assert len(found) == len(want)
        assert np.max(np.abs(found - want)) < 1e-9


def test_census_1d_interior_parameter():
    # ground truth from sign changes of f^8(x) - x on a 4-million point grid
    roots = fixed_points_1d(-1.9, 8)
    assert len(roots) == 112


def test_census_1d_resolves_tangent_pairs():
    # at a = -1.9, p = 8 three root pairs sit closer than 1e-3
    roots = np.sort(fixed_points_1d(-1.9, 8))
    gaps = np.diff(roots)
    assert (gaps < 1e-3).sum() >= 3
    assert gaps.min() > 0


def test_census_1d_roots_satisfy_equation():
    for a, p in ((-2.0, 6), (-1.9, 8), (-1.5, 5)):
        roots = fixed_points_1d(a, p)
        y = roots.copy()
        dy = np.ones_like(roots)
        for _ in range(p):
            dy = 2.0 * y * dy
            y = y * y + a
        scale = np.maximum(1.0, np.abs(dy - 1.0))
        assert np.all(np.abs(y - roots) <= 1e-9 * scale)


def test_census_1d_small_parameter_single_pair():
    # |a| small: the interval map is a contraction towards the
    # attracting fixed point; only the two genuine fixed points remain
    roots = fixed_points_1d(-0.5, 1)
    assert len(roots) == 2


def test_census_1d_counts_monotone_in_p():
    counts = [len(fixed_points_1d(-2.0, p)) for p in (1, 2, 3, 4)]
    assert counts == [2, 4, 8, 16]


def test_census_1d_closed_forms_keep_the_boundary_fixed_point():
    # Fix f_a = (1 +- sqrt(1 - 4a))/2 and, for a < -3/4, the 2-cycle
    # (-1 +- sqrt(-3 - 4a))/2; the boundary point beta = (1 + sqrt(1 - 4a))/2
    # sits on the end of the bracketing grid
    for a in np.linspace(-2.0, -1.3, 141):
        r1, r2 = math.sqrt(1.0 - 4.0 * a), math.sqrt(-3.0 - 4.0 * a)
        fix = [(1.0 - r1) / 2.0, (1.0 + r1) / 2.0]
        for p, want in ((1, fix), (2, fix + [(-1.0 - r2) / 2.0, (-1.0 + r2) / 2.0])):
            roots = fixed_points_1d(float(a), p)
            assert len(roots) == len(want), (a, p, roots)
            assert np.max(np.abs(roots - np.sort(want))) <= 1e-12, (a, p)


def _fixed_points_1d_reference(a, p, tol=1e-12):
    """The 1-D census with 8 clipped Newton steps after the bisection, a
    dedup radius of min(tol, 1e-13) and a derivative-scaled residual
    filter, and with overlapping 8,193-point rescue windows."""

    def poly_and_derivative(x):
        d = np.ones_like(x)
        for _ in range(p):
            d = d * 2.0 * x
            x = x * x + a
        return x, d

    def F(x):
        return poly_and_derivative(x)[0] - x

    disc = 1.0 - 4.0 * a
    beta = (1.0 + math.sqrt(disc)) / 2.0 if disc >= 0 else 2.0
    lo, hi = -beta - 1e-9, beta + 1e-9
    theta = np.linspace(0.0, np.pi, 32 * 2**p + 1)
    grid = np.append(np.clip(beta * np.cos(theta)[::-1], lo, hi), hi)
    vals = F(grid)
    sign = np.sign(vals)
    exact = grid[vals == 0.0]
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    brackets = [(grid[idx], grid[idx + 1], vals[idx])]
    absv = np.abs(vals)
    interior = (
        (absv[1:-1] <= absv[:-2])
        & (absv[1:-1] <= absv[2:])
        & (sign[:-2] == sign[1:-1])
        & (sign[1:-1] == sign[2:])
        & (absv[1:-1] < 1.0)
    )
    for i in np.nonzero(interior)[0] + 1:
        sub = np.linspace(grid[i - 1], grid[i + 1], 8193)
        sv = F(sub)
        ss = np.sign(sv)
        j = np.nonzero(ss[:-1] * ss[1:] < 0)[0]
        if j.size:
            brackets.append((sub[j], sub[j + 1], sv[j]))
    left, right, fleft = (np.concatenate(b) for b in zip(*brackets))
    for _ in range(60):
        mid = 0.5 * (left + right)
        fmid = F(mid)
        take = fleft * fmid <= 0
        right = np.where(take, mid, right)
        left = np.where(take, left, mid)
        fleft = np.where(take, fleft, fmid)
    roots = 0.5 * (left + right)
    for _ in range(8):
        fx, dfx = poly_and_derivative(roots)
        dg = dfx - 1.0
        safe = np.abs(dg) > 1e-9
        step = np.where(safe, (fx - roots) / np.where(safe, dg, 1.0), 0.0)
        roots = roots - np.clip(step, -1e-3, 1e-3)
    roots = np.sort(np.concatenate([roots, exact]))
    keep = roots[:1].tolist()
    for v in roots[1:]:
        if v - keep[-1] > min(tol, 1e-13):
            keep.append(v)
    roots = np.array(keep)
    fx, dfx = poly_and_derivative(roots)
    scale = np.maximum(1.0, np.abs(dfx - 1.0))
    return roots[np.abs(fx - roots) <= max(100 * tol, 1e-10) * scale]


@pytest.mark.parametrize("p", range(1, 11))
def test_census_1d_bisection_matches_polished_reference(p):
    # bisection alone, on disjoint brackets, gives the counts of the census
    # with Newton polish, dedup and residual filter, and moves no root by
    # more than 1e-8 (the largest moves sit at tangent pairs)
    for a in list(np.linspace(-2.0, -1.3, 30)) + [-1.75, -1.7549, -1.768]:
        roots = fixed_points_1d(float(a), p)
        want = _fixed_points_1d_reference(float(a), p)
        assert roots.size == want.size, (a, p)
        assert np.max(np.abs(roots - want)) <= 1e-8, (a, p)
        assert np.all(np.diff(roots) > 0), (a, p)


def test_census_1d_adjacent_rescue_windows_merge():
    # at a = 1/4 the double root 1/2 leaves adjacent interior minima of
    # |f^11(x) - x|; their cells form one window, counted once
    roots = fixed_points_1d(0.25, 11)
    want = _fixed_points_1d_reference(0.25, 11)
    assert roots.size == want.size
    assert np.max(np.abs(roots - want)) <= 1e-8


def test_census_1d_empty_above_one_quarter():
    # f(x) - x = x^2 - x + a > 0 for a > 1/4: no periodic point, and no
    # grid iterated to overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, p in ((0.3, 10), (1.0, 1), (5.0, 16)):
            assert fixed_points_1d(a, p).size == 0


def _assert_complete_invariant_census(roots, a, p):
    # deg(f^p - id) = 2^p, so 2^p distinct roots are all of them; f maps
    # Fix f^p onto itself
    assert roots.size == 2**p, (a, p)
    assert np.all(np.diff(roots) > 0), (a, p)
    assert np.max(np.abs(np.sort(roots * roots + a) - roots)) <= 1e-12, (a, p)


@pytest.mark.parametrize("a, p", [(-2.001, 14), (-3.0, 10), (-2.0000001, 1)])
def test_census_1d_solves_below_minus_two(a, p):
    # every one of the 2^p itineraries is realized below -2, one root each
    roots = fixed_points_1d(a, p)
    _assert_complete_invariant_census(roots, a, p)
    beta = (1.0 + math.sqrt(1.0 - 4.0 * a)) / 2.0
    assert -beta <= roots[0] and roots[-1] <= beta
    if p == 1:
        assert np.max(np.abs(roots - [1.0 - beta, beta])) <= 1e-12


def test_census_1d_closed_forms_below_minus_two():
    # Fix f_a = (1 +- sqrt(1 - 4a))/2 and the 2-cycle (-1 +- sqrt(-3 - 4a))/2
    for a in np.linspace(-3.0, -2.0, 41):
        r1, r2 = math.sqrt(1.0 - 4.0 * a), math.sqrt(-3.0 - 4.0 * a)
        fix = [(1.0 - r1) / 2.0, (1.0 + r1) / 2.0]
        for p, want in ((1, fix), (2, fix + [(-1.0 - r2) / 2.0, (-1.0 + r2) / 2.0])):
            roots = fixed_points_1d(float(a), p)
            assert roots.size == len(want), (a, p)
            assert np.max(np.abs(roots - np.sort(want))) <= 1e-12, (a, p)


@pytest.mark.parametrize("a", [-2.0, -2.5, -3.0])
def test_census_1d_sweep_is_complete_and_invariant(a):
    for p in range(1, 17):
        roots = fixed_points_1d(a, p)
        _assert_complete_invariant_census(roots, a, p)
        if a == -2.0:
            assert np.max(np.abs(roots - chebyshev_fixed_points(p))) <= 1e-11, p


def in_proven_horseshoe(a, b):
    """With x = a u and y = a v (a < 0) the classical map is the standard
    Henon map (1 - A u^2 + v, B u), A = -a, B = b.  Its nonwandering set is
    a hyperbolic horseshoe, conjugate to the full 2-shift, once A > (5 +
    2 sqrt 5)(1 + B)^2 / 4 (Devaney & Nitecki, CMP 67, 1979)."""
    return -a > (5.0 + 2.0 * math.sqrt(5.0)) * (1.0 + b) ** 2 / 4.0


@pytest.mark.parametrize(
    ("a", "b", "inside"),
    [
        (-2.5, 0.01, True),
        (-3.0, 0.1, True),
        (-4.5, 0.3, True),
        (-6.0, 0.5, True),
        (-2.0, 0.0, False),
        (-1.4, 0.3, False),
        (-2.0 + 1e-3, 1e-6, False),  # the census benchmark's map
    ],
)
def test_in_proven_horseshoe(a, b, inside):
    assert in_proven_horseshoe(a, b) is inside


@pytest.mark.parametrize("a", [-2.4, -3.0, -5.0])
def test_census_1d_counts_every_itinerary_in_the_proven_horseshoe(a):
    # in the horseshoe Card Fix f^p = 2^p exactly, one point per itinerary
    assert in_proven_horseshoe(a, 0.0)
    for p in range(1, 13):
        assert fixed_points_1d(a, p).size == 2**p, (a, p)


def test_census_1d_sweep_reports_words_that_did_not_settle(monkeypatch):
    monkeypatch.setattr(orbits, "_SWEEP_CAP", 1)
    with pytest.raises(orbits.AnalysisError, match=r"^8 of 8 itineraries did not settle"):
        fixed_points_1d(-2.0, 3)


@pytest.mark.parametrize(("a", "p", "distinct"), [(-50.0, 16, 35_156), (-1e6, 8, 50)])
def test_census_1d_sweep_refuses_coinciding_roots(a, p, distinct):
    # far below -2 the roots of one cylinder lie closer than float spacing
    with pytest.raises(orbits.AnalysisError, match=rf"^only {distinct} of {2**p} roots"):
        fixed_points_1d(a, p)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_census_1d_refuses_non_finite_parameter(a):
    with pytest.raises(ValueError, match="finite"):
        fixed_points_1d(a, 3)


@pytest.mark.parametrize("a", [-2.0 + 1e-9, -1.9999, -1.999])
def test_census_1d_grid_matches_reference_beside_the_sweep(a):
    # just above -2 the grid and bisection still run, and still find every
    # root the polished reference finds
    for p in range(1, 11):
        roots = fixed_points_1d(a, p)
        want = _fixed_points_1d_reference(a, p)
        assert roots.size == want.size, (a, p)
        assert np.max(np.abs(roots - want)) <= 1e-12, (a, p)


# ---------------------------------------------------------------------------
# two-dimensional Newton census


def test_census_2d_b_zero_matches_line():
    m = HenonMap(a=-2.0, b=0.0)
    for p in (1, 2, 3, 5):
        census = periodic_orbits_2d(m, p)
        assert census.count_fix == 2**p
        xs = np.sort(census.points[:, 0])
        assert np.allclose(xs, np.sort(chebyshev_fixed_points(p)), atol=1e-9)
        assert np.allclose(census.points[:, 1], 0.0)


def test_census_2d_refuses_more_points_than_2_to_the_p():
    # f^7 has at most 2^7 = 128 fixed points; the grid census finds 134
    m = HenonMap(a=-3.0, b=0.3, perturbation="classical")
    with pytest.raises(orbits.AnalysisError, match=r"134 fixed points of f\^7, more than the 128"):
        periodic_orbits_2d(m, 7)


def test_census_2d_interior_parameter_matches_line():
    m = HenonMap(a=-1.9, b=0.0)
    census = periodic_orbits_2d(m, 8)
    assert census.count_fix == 112


def test_census_2d_least_periods_partition():
    m = HenonMap(a=-2.0, b=0.0)
    census = periodic_orbits_2d(m, 6)
    assert census.count_fix == 64
    by_q: dict[int, int] = {}
    for orb in census.orbits:
        assert 6 % orb.least_period == 0
        by_q[orb.least_period] = by_q.get(orb.least_period, 0) + orb.least_period
    # 2 fixed, 2 of period 2, 6 of period 3, 54 of genuine period 6
    assert by_q == {1: 2, 2: 2, 3: 6, 6: 54}


def test_census_2d_perturbed_continuation():
    b = 1e-6
    m = HenonMap(a=-2.0 + 1e-3, b=b, perturbation="classical")
    for p in (1, 2, 4, 6):
        census = periodic_orbits_2d(m, p, refine_check=True)
        assert census.count_fix == 2**p
        assert census.stable
        for orb in census.orbits:
            # multipliers belong to the full-period Jacobian
            prod = np.prod(orb.multipliers)
            assert abs(prod - (-b) ** p) <= 1e-6 * max(1.0, abs(prod))


def test_census_2d_multipliers_split_at_b_zero():
    m = HenonMap(a=-2.0, b=0.0)
    census = periodic_orbits_2d(m, 1)
    for orb in census.orbits:
        mults = sorted(abs(z) for z in orb.multipliers)
        assert mults[0] == 0.0  # rank-one Jacobian
        x = orb.representative[0]
        assert mults[1] == pytest.approx(abs(2 * x), rel=1e-9)
        assert not orb.non_hyperbolic


def test_census_2d_residual_is_backward_error():
    m = HenonMap(a=-1.9, b=0.0)
    census = periodic_orbits_2d(m, 8)
    for orb in census.orbits:
        assert orb.residual <= 1e-10


def test_census_2d_refine_flag_default_none():
    m = HenonMap(a=-2.0, b=0.0)
    census = periodic_orbits_2d(m, 3)
    assert census.stable is None
    refined = periodic_orbits_2d(m, 3, refine_check=True)
    assert refined.stable is True


def test_census_2d_seed_array_refuses_refine_check():
    # an explicit seed array has no doubled grid to check the count against
    m = HenonMap(a=-2.0, b=0.0)
    seeds = _default_seed_grid(m, (64, 1))
    assert periodic_orbits_2d(m, 3, grid=seeds).count_fix == 8
    with pytest.raises(ValueError, match="refine_check"):
        periodic_orbits_2d(m, 3, grid=seeds, refine_check=True)


def test_census_2d_custom_perturbation_broadcasting_callables():
    eps = 1e-7
    m = HenonMap(
        a=-2.0,
        b=0.0,
        perturbation="custom",
        custom_B=lambda x, y: (eps * np.sin(x), eps * x),
        custom_dB=lambda x, y: ((eps * np.cos(x), 0.0), (eps, 0.0)),
    )
    census = periodic_orbits_2d(m, 4)
    assert census.count_fix == 16


@pytest.mark.parametrize(
    "a, b, p, grid",
    [
        (-2.0, 0.0, 11, (256, 8)),
        (-2.0, 0.0, 12, (256, 8)),
        (-2.0, 0.0, 12, (1024, 8)),
        (-1.9, 0.01, 11, (256, 8)),
        (-1.999, 1e-6, 13, (256, 8)),
    ],
)
def test_census_2d_drops_escaped_candidates(a, b, p, grid):
    # above p = 10 some Newton candidates escape on the way round: their
    # closing residual and Tf^p norm are both inf, and they must not count
    m = HenonMap(a=a, b=b, perturbation="classical" if b else "zero")
    census = periodic_orbits_2d(m, p, grid=grid)
    assert 0 < census.count_fix <= 2**p
    assert np.isfinite(census.points).all()
    assert all(np.isfinite(o.multipliers).all() for o in census.orbits)
    if a == -2.0:  # every point is one of the angle oracle's
        oracle = chebyshev_fixed_points(p)
        assert np.abs(census.points[:, None, 0] - oracle).min(axis=1).max() < 1e-9
        assert not census.points[:, 1].any()


def test_census_2d_explicit_seed_array():
    m = HenonMap(a=-2.0, b=0.0)
    seeds = np.column_stack([np.linspace(-2.2, 2.2, 3000), np.zeros(3000)])
    census = periodic_orbits_2d(m, 3, grid=seeds)
    assert census.count_fix == 8


def _greedy_reference(m, p, seeds, tol=1e-12):
    """The census written one candidate at a time: scalar acceptance, then
    the quadratic greedy dedup of every candidate against every accepted
    orbit.  Returns the accepted candidate count and (representative,
    least period) per orbit, in seed order."""

    def walk(z):
        """Orbit points z, ..., f^{p-1} z and, after every divisor q of p
        steps, the raw closing residual and the max-row-sum norm of
        Tf^q, one point at a time."""
        pts = np.empty((p, 2))
        diags = {}
        x, y = float(z[0]), float(z[1])
        A = np.eye(2)
        for k in range(1, p + 1):
            pts[k - 1] = (x, y)
            A = m.jacobian(x, y) @ A
            x, y = m.apply(x, y)
            if p % k == 0:
                raw = max(abs(x - z[0]), abs(y - z[1]))
                diags[k] = (raw, float(np.max(np.sum(np.abs(A), axis=1))))
        return pts, diags

    accepted = 0
    reps, orbit_sets = [], []
    for z in _newton_batch(m, seeds, p, tol):
        if np.max(np.abs(z)) > 8.0 or not np.all(np.isfinite(z)):
            continue
        orb, diags = walk(z)
        raw, nrm = diags[p]
        if raw > tol * max(1.0, nrm):
            continue
        accepted += 1
        if any(
            np.abs(known[None, :, :] - orb[:, None, :]).max(axis=2).min() <= 10 * tol
            for known in orbit_sets
        ):
            continue
        reps.append((z, diags))
        orbit_sets.append(orb)
    out = []
    for z, diags in reps:
        least = next(
            (q for q in sorted(diags) if diags[q][0] <= 10 * tol * max(1.0, diags[q][1])), p
        )
        out.append(((float(z[0]), float(z[1])), least))
    return accepted, out


def _assert_matches_reference(census, m, p, seeds):
    accepted, ref = _greedy_reference(m, p, seeds)
    assert [(o.representative, o.least_period) for o in census.orbits] == ref
    assert census.count_fix == sum(q for _, q in ref)
    return accepted, ref


@pytest.mark.parametrize("a,b", [(-2.0 + 1e-3, 1e-6), (-1.4, 0.3)])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_census_2d_dedup_matches_greedy_reference(a, b, p):
    m = HenonMap(a=a, b=b, perturbation="classical")
    census = periodic_orbits_2d(m, p, grid=(64, 2))
    accepted, ref = _assert_matches_reference(census, m, p, _default_seed_grid(m, (64, 2)))
    assert ref
    # many seeds converge onto each orbit, so the dedup does real work
    assert accepted > len(ref)


def test_census_2d_dedup_merges_phases_of_one_orbit():
    m = HenonMap(a=-2.0 + 1e-3, b=1e-6, perturbation="classical")
    census = periodic_orbits_2d(m, 3, grid=(64, 2))
    orbit = next(o for o in census.orbits if o.least_period == 3)
    # all three points of that orbit, starting at its second phase
    pts = [np.array(orbit.representative)]
    for _ in range(2):
        pts.append(np.array(m.apply(*pts[-1])))
    seeds = np.array([pts[1], pts[2], pts[0], pts[1]]) + 1e-9
    phased = periodic_orbits_2d(m, 3, grid=seeds)
    accepted, ref = _assert_matches_reference(phased, m, 3, seeds)
    assert accepted == 4
    assert phased.count_fix == 3 and len(phased.orbits) == 1
    assert np.allclose(phased.orbits[0].representative, pts[1], atol=1e-8)


def _kdtree_representatives(orbs, radius):
    """The greedy dedup through a KD-tree of all candidate orbit points:
    each representative claims the candidates that own a tree point
    within radius (max norm) of one of its own points."""
    from scipy.spatial import cKDTree

    p = orbs.shape[1]
    untaken = np.ones(len(orbs), dtype=bool)
    reps = []
    if len(orbs):
        tree = cKDTree(orbs.reshape(-1, 2))
        while untaken.any():
            i = int(untaken.argmax())
            reps.append(i)
            untaken[i] = False
            hits = tree.query_ball_point(orbs[i], r=radius, p=np.inf)
            untaken[np.concatenate(hits).astype(np.intp) // p] = False
    return reps


# the custom path calls Python per point, so its twin runs the benchmark's
# census grid rather than criterion 06's
@pytest.mark.parametrize(
    "perturbation,grid", [("classical", (1024, 4)), ("custom", (256, 4))], ids=["classical", "custom"]
)
def test_census_2d_dedup_matches_kdtree_reference(perturbation, grid, monkeypatch):
    pytest.importorskip("scipy.spatial")
    b = 1e-6
    m = HenonMap(a=-2.0 + 1e-3, b=b, perturbation="classical")
    if perturbation == "custom":
        m = HenonMap(
            a=m.a,
            b=b,
            perturbation="custom",
            custom_B=lambda x, y: (0.0, b * x),
            custom_dB=lambda x, y: np.array([[0.0, 0.0], [b, 0.0]]),
        )
    dedup = orbits._orbit_representatives
    calls = []

    def both(orbs, radius):
        reps = dedup(orbs, radius)
        assert reps == _kdtree_representatives(orbs, radius)
        calls.append(len(orbs) - len(reps))
        return reps

    monkeypatch.setattr(orbits, "_orbit_representatives", both)
    # the criterion-06 censuses: each grid and its doubled check
    for p in range(1, 7):
        assert periodic_orbits_2d(m, p, grid=grid, refine_check=True).stable
    assert len(calls) == 12 and min(calls) > 0  # every census merged candidates


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_census_2d_custom_twin_matches_classical(p):
    b = 1e-6
    m = HenonMap(a=-2.0 + 1e-3, b=b, perturbation="classical")
    twin = HenonMap(
        a=m.a,
        b=b,
        perturbation="custom",
        custom_B=lambda x, y: (0.0, b * x),
        custom_dB=lambda x, y: np.array([[0.0, 0.0], [b, 0.0]]),
    )
    grid = (32, 2)
    census = periodic_orbits_2d(twin, p, grid=grid)
    _assert_matches_reference(census, twin, p, _default_seed_grid(twin, grid))
    ref = periodic_orbits_2d(m, p, grid=grid)
    assert census.count_fix == ref.count_fix == 2**p
    # the twin runs the same chain rule and Newton as the classical map
    assert [(o.representative, o.least_period, o.multipliers) for o in census.orbits] == [
        (o.representative, o.least_period, o.multipliers) for o in ref.orbits
    ]


def _reference_newton_batch(m, seeds, p, tol, max_iter=100):
    """The Newton loop with an unscaled stop rule: it gathers and scatters
    the active rows of Z on every pass, stores each pass's whole orbit and
    stops a seed only once |f^p(z) - z| <= 0.1 tol, which float noise keeps
    an expanding orbit from meeting before max_iter."""
    Z = seeds.astype(float).copy()
    active = np.ones(len(Z), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        za = Z[active]
        orb, jacs = _orbit_batch(m, za, p)
        F = orb[:, p] - za
        J = jacs[p]  # G = J - Id
        g00, g01, g10, g11 = J[:, 0, 0] - 1.0, J[:, 0, 1], J[:, 1, 0], J[:, 1, 1] - 1.0
        det = g00 * g11 - g01 * g10
        ok = np.abs(det) > 1e-14
        delta = np.zeros_like(F)
        inv_det = np.where(ok, det, 1.0)
        delta[:, 0] = -(g11 * F[:, 0] - g01 * F[:, 1]) / inv_det
        delta[:, 1] = -(-g10 * F[:, 0] + g00 * F[:, 1]) / inv_det
        delta[~ok] = 0.0
        norms = np.linalg.norm(delta, axis=1)
        big = norms > 0.1
        delta[big] *= (0.1 / norms[big])[:, None]
        za = za + delta
        Z[active] = za
        resid = np.linalg.norm(F, axis=1)
        moved = np.linalg.norm(delta, axis=1)
        escaped = np.max(np.abs(za), axis=1) > 8.0
        still = (resid > 0.1 * tol) & (moved > 1e-17) & ~escaped & ok
        idx = np.nonzero(active)[0]
        active[idx] = still
    return Z


def _twin(m):
    """The classical map m through the general custom path."""
    b = m.b
    return HenonMap(
        a=m.a,
        b=b,
        perturbation="custom",
        custom_B=lambda x, y: (0.0, b * x),
        custom_dB=lambda x, y: np.array([[0.0, 0.0], [b, 0.0]]),
    )


_HORSESHOE = HenonMap(a=-2.0 + 1e-3, b=1e-6, perturbation="classical")
_DIFFERENTIAL_MAPS = {
    "horseshoe": _HORSESHOE,
    "a-1.9": HenonMap(a=-1.9, b=0.01, perturbation="classical"),
    "a-1.8": HenonMap(a=-1.8, b=0.03, perturbation="classical"),
    "a-1.4": HenonMap(a=-1.4, b=0.3, perturbation="classical"),
    "zero": HenonMap(a=-1.9),
    "custom": _twin(_HORSESHOE),
}


@pytest.mark.parametrize("grid", [(256, 4), (64, 2), (32, 1)], ids=str)
@pytest.mark.parametrize("name", list(_DIFFERENTIAL_MAPS))
def test_census_2d_matches_reference_newton(name, grid, monkeypatch):
    """The census, refine check included, against one with the reference
    Newton, whose refine check is a separate census on the doubled grid."""
    m = _DIFFERENTIAL_MAPS[name]
    nx, ny = grid
    for p in range(1, 8):
        census = periodic_orbits_2d(m, p, grid=grid, refine_check=True)
        with monkeypatch.context() as patch:
            patch.setattr(orbits, "_newton_batch", _reference_newton_batch)
            ref = periodic_orbits_2d(m, p, grid=grid)
            doubled = periodic_orbits_2d(m, p, grid=(2 * nx, 2 * ny if ny > 1 else 1))
        assert census.count_fix == ref.count_fix
        assert census.stable == (doubled.count_fix == ref.count_fix)
        assert len(census.orbits) == len(ref.orbits)
        for o, r in zip(census.orbits, ref.orbits):
            assert (o.least_period, o.non_hyperbolic) == (r.least_period, r.non_hyperbolic)
            assert np.max(np.abs(np.subtract(o.representative, r.representative))) <= 1e-14


def test_newton_stops_at_the_acceptance_scale(monkeypatch):
    # at p = 6 the orbits expand by about 4^6, so float noise in f^p(z) - z
    # exceeds 0.1 tol: an unscaled stop rule runs all max_iter passes here
    census = periodic_orbits_2d(_HORSESHOE, 6, grid=(256, 4))
    assert census.count_fix == 64
    chain_rule, passes = orbits._chain_rule, []

    def counted(*args):
        passes.append(len(args[1]))
        return chain_rule(*args)

    monkeypatch.setattr(orbits, "_chain_rule", counted)
    Z = _newton_batch(_HORSESHOE, census.points, 6, census.tol)
    assert passes == [64]
    assert np.max(np.abs(Z - census.points)) <= 1e-12


@pytest.mark.parametrize("p", range(1, 7))
def test_census_2d_refine_check_is_one_newton_batch(p, monkeypatch):
    calls = []

    def counted(m, seeds, *args):
        calls.append(len(seeds))
        return _newton_batch(m, seeds, *args)

    monkeypatch.setattr(orbits, "_newton_batch", counted)
    census = periodic_orbits_2d(_HORSESHOE, p, grid=(256, 4), refine_check=True)
    assert calls == [256 * 4 + 512 * 8]
    base = periodic_orbits_2d(_HORSESHOE, p, grid=(256, 4))
    doubled = periodic_orbits_2d(_HORSESHOE, p, grid=(512, 8))
    assert census.count_fix == base.count_fix
    assert census.stable == (doubled.count_fix == base.count_fix)


# ---------------------------------------------------------------------------
# entropy estimates


def test_entropy_from_full_horseshoe():
    data = [(p, 2**p) for p in range(1, 13)]
    est = entropy_from_census(data)
    assert est.slope == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.residual < 1e-12


def test_entropy_from_census_objects():
    m = HenonMap(a=-2.0, b=0.0)
    censuses = [periodic_orbits_2d(m, p) for p in range(1, 7)]
    est = entropy_from_census(censuses)
    assert est.slope == pytest.approx(math.log(2.0), abs=1e-9)
    assert est.per_p[3] == (4, 16)
    p4, n4 = est.per_p[3]
    assert math.log(n4) / p4 == pytest.approx(math.log(2.0), abs=1e-9)


def test_entropy_rejects_short_input():
    with pytest.raises(ValueError):
        entropy_from_census([(1, 2), (2, 4)])


def test_entropy_rejects_zero_counts():
    with pytest.raises(ValueError):
        entropy_from_census([(1, 2), (2, 0), (3, 8)])


def test_entropy_rejects_supergrowth():
    with pytest.raises(ValueError):
        entropy_from_census([(p, 3**p) for p in range(1, 7)])


# ---------------------------------------------------------------------------
# equidistribution


def test_arcsine_cdf_values():
    assert arcsine_cdf(np.array([-2.0]))[0] == pytest.approx(0.0)
    assert arcsine_cdf(np.array([0.0]))[0] == pytest.approx(0.5)
    assert arcsine_cdf(np.array([2.0]))[0] == pytest.approx(1.0)
    assert arcsine_cdf(np.array([1.0]))[0] == pytest.approx(2.0 / 3.0)


def test_equidistribution_ks_full_parameter():
    x = chebyshev_fixed_points(12)
    rep = equidistribution_test(x, reference="arcsine", statistic="KS")
    assert rep.statistic == "KS"
    assert rep.n_points == 4096
    assert rep.distance < 1e-3


def test_equidistribution_self_reference_tiny():
    # identical samples: sup ECDF gap is one step height
    x = chebyshev_fixed_points(8)
    rep = equidistribution_test(x, reference=x, statistic="KS")
    assert rep.distance <= 1.0 / len(x) + 1e-15


def test_equidistribution_cylinder_mass():
    x = chebyshev_fixed_points(14)
    rep = equidistribution_test(x, statistic="cylinder")
    assert rep.distance == pytest.approx(0.0, abs=1e-3)


def test_equidistribution_cylinder_counts_every_census_point():
    # at a = -3 about 40% of the census lies beyond +-2, in the outer cells
    x = fixed_points_1d(-3.0, 10)
    assert np.count_nonzero(np.abs(x) > 2.0) > 0.3 * x.size
    inner = np.linspace(-1.5, 1.5, 7)
    emp = np.bincount(np.searchsorted(inner, x, side="right"), minlength=8) / x.size
    assert emp.sum() == pytest.approx(1.0)
    ref = np.diff(arcsine_cdf(np.linspace(-2.0, 2.0, 9)))
    rep = equidistribution_test(x, statistic="cylinder")
    assert rep.distance == pytest.approx(np.max(np.abs(emp - ref)), abs=1e-15)


def test_equidistribution_accepts_census():
    m = HenonMap(a=-2.0, b=0.0)
    census = periodic_orbits_2d(m, 8)
    rep = equidistribution_test(census)
    assert rep.n_points == 256
    assert rep.distance < 0.05


def test_equidistribution_callable_reference():
    x = chebyshev_fixed_points(10)
    rep = equidistribution_test(x, reference=arcsine_cdf)
    want = equidistribution_test(x, reference="arcsine")
    assert rep.distance == pytest.approx(want.distance, abs=1e-15)


# ---------------------------------------------------------------------------
# counting bound for exceptional parameters


def test_exceptional_bound_values_log_space():
    b = exceptional_bound(100, 1000)
    # log terms: t1 = log p + p / sqrt(M), t2 = log(M+1) + p log2 / (M+1)
    t1 = math.log(100) + 100 / math.sqrt(1000)
    t2 = math.log(1001) + 100 * math.log(2) / 1001
    assert math.log(b.value) == pytest.approx(np.logaddexp(t1, t2), rel=1e-12)


def test_exceptional_bound_ratio_decreases():
    bounds = [exceptional_bound(p, 1000) for p in range(50, 2000, 50)]
    ratios = [b.log_ratio for b in bounds]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert bounds[-1].ratio < bounds[0].ratio


def test_exceptional_bound_huge_p_overflow_to_inf():
    b = exceptional_bound(10**6, 100)
    assert b.value == math.inf
    assert math.isfinite(b.log_ratio)


def test_exceptional_bound_ratio_below_one_eventually():
    # 2^p dwarfs the polynomial-exponential bound once p >> M^{1/2} log 2
    b = exceptional_bound(10_000, 1000)
    assert b.ratio < 1e-300 or b.ratio == 0.0


# ---------------------------------------------------------------------------
# square-symbol subsystem


def test_k_square_entropy_value():
    assert k_square_entropy(3) == pytest.approx(math.log(2.0) / 4.0, abs=1e-15)
    assert k_square_entropy(1000) == pytest.approx(math.log(2.0) / 1001.0, abs=1e-18)


def test_square_horseshoe_census_counts():
    data = square_horseshoe_censuses(3, 5)
    assert data == [(4 * n, 2**n) for n in range(1, 6)]
    est = entropy_from_census(data)
    assert est.slope == pytest.approx(math.log(2.0) / 4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# export


def test_census_csv_roundtrip(tmp_path):
    m = HenonMap(a=-2.0, b=0.0)
    census = periodic_orbits_2d(m, 3)
    path = tmp_path / "census.csv"
    census_to_csv(census, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "least_period", "x", "y", "mult1", "mult2", "residual"]
    # one row per orbit; least periods add back up to the full census
    assert len(rows) - 1 == len(census.orbits)
    assert sum(int(r[1]) for r in rows[1:]) == census.count_fix
    assert all(row[0] == "3" for row in rows[1:])
    xs = sorted(float(r[2]) for r in rows[1:])
    want = sorted(orb.representative[0] for orb in census.orbits)
    assert np.allclose(xs, want)
    # multipliers serialize without parentheses
    assert not any("(" in r[4] or "(" in r[5] for r in rows[1:])


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, -1.2), st.integers(1, 6))
def test_found_roots_always_verify(a, p):
    roots = fixed_points_1d(a, p)
    y = roots.copy()
    for _ in range(p):
        y = y * y + a
    assert np.all(np.abs(y - roots) < 1e-6)
    assert len(np.unique(np.round(roots, 10))) == len(roots)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 10))
def test_oracle_symmetric_pairing(p):
    # x -> x^2 - 2 maps the census onto itself
    x = chebyshev_fixed_points(p)
    images = np.sort(x * x - 2.0)
    assert np.allclose(np.sort(x), images, atol=1e-12)

"""Periodic-orbit censuses and entropy/equidistribution estimates.

The 1-D branch (b = 0) finds all fixed points of the p-th iterate: for
a <= -2 by backward sweeps of the inverse branches over all 2^p
itineraries, above -2 by bisecting the sign changes of a
cosine-parametrized grid (roots cluster quadratically near the interval
ends, uniformly in the angle), refined where a tangent root pair hides in
one cell.  The 2-D branch runs one batched damped Newton per census from
grid seeds (a refine check's doubled grid in the same batch), stops each
seed at the scale of acceptance's backward error, accepts candidates in
one array pass and deduplicates orbits over their points sorted by
abscissa.  Entropy comes from the slope of log Card Fix f^p;
equidistribution is tested against an analytic or sampled reference law.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .henon import HenonMap, _chain_rule, _orbit_batch
from .markov import AnalysisError
from .stats import _ks_distance

__all__ = [
    "PeriodicOrbit",
    "PeriodicCensus",
    "fixed_points_1d",
    "chebyshev_fixed_points",
    "periodic_orbits_2d",
    "EntropyEstimate",
    "entropy_from_census",
    "EquidistReport",
    "equidistribution_test",
    "arcsine_cdf",
    "ExceptionalBound",
    "exceptional_bound",
    "k_square_entropy",
    "census_to_csv",
]


# ---------------------------------------------------------------------------
# 1-D fixed points


def chebyshev_fixed_points(p: int) -> np.ndarray:
    """Exact fixed points of the p-th iterate at a = -2.

    The map doubles the angle of x = 2 cos(theta), so period-p points have
    2^p theta = +-theta modulo 2 pi.  Both families together give exactly
    2^p distinct abscissas.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    # The families share only theta = 0 (x = 2); all other roots are
    # distinct reals, some separated by mere 1e-11 at p = 14, so the
    # union is formed exactly instead of by numeric dedup.
    N, Np = 2**p - 1, 2**p + 1
    fam1 = 2.0 * np.cos(2.0 * np.pi * np.arange(0, (N - 1) // 2 + 1) / N)
    fam2 = 2.0 * np.cos(2.0 * np.pi * np.arange(1, (Np - 1) // 2 + 1) / Np)
    out = np.sort(np.concatenate([fam1, fam2]))
    if out.size != 2**p:
        raise AssertionError(f"angle families gave {out.size} points, expected {2**p}")
    return out


def _iterate_poly(a: float, x: np.ndarray, p: int) -> np.ndarray:
    x = x * x
    x += a
    for _ in range(p - 1):
        np.multiply(x, x, out=x)
        x += a
    return x


def _sign_changes(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brackets (left, right, value at left) of the sign changes of v on x."""
    j = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
    return x[j], x[j + 1], v[j]


def fixed_points_1d(a: float, p: int) -> np.ndarray:
    """All real roots of f_a^p(x) - x, sorted, for finite a.

    For a <= -2 (the Chebyshev map at -2, a horseshoe below) each of the
    2^p itineraries gives one root (_inverse_branch_census); far below -2,
    where roots coincide in float, AnalysisError is raised.  Above -2 this
    brackets sign changes on a cosine grid x = beta cos(theta) (fine enough
    to separate the quadratically clustered roots near +-beta) and bisects
    each bracket to the end; a grid point where f^p(x) - x is exactly 0 is
    a root as it stands.  Above a = 1/4 no point is periodic.
    """
    if not math.isfinite(a):
        raise ValueError(f"1-D census needs a finite a, got a = {a}")
    if p < 1:
        raise ValueError("period must be >= 1")
    if p > 16:
        raise ValueError("1-D census capped at p = 16 (degree 2^p)")
    if a > 0.25:
        # f(x) - x = x^2 - x + a > 0 everywhere
        return np.empty(0)
    beta = (1.0 + math.sqrt(1.0 - 4.0 * a)) / 2.0  # every root lies in [-beta, beta]
    if a <= -2.0:
        return _inverse_branch_census(a, p, beta)
    lo, hi = -beta - 1e-9, beta + 1e-9

    K = 32 * 2**p + 1
    theta = np.linspace(0.0, np.pi, K)
    # f^p(x) > x beyond beta, so the extra end point brackets the root beta
    # whatever sign rounding gives f^p - x at the grid point beta itself
    grid = np.append(np.clip(beta * np.cos(theta)[::-1], lo, hi), hi)
    vals = _iterate_poly(a, grid, p) - grid
    sign = np.sign(vals)
    exact = grid[vals == 0.0]
    brackets = [_sign_changes(grid, vals)]

    # Root pairs born at a tangency can share one cell without a sign
    # change; rescue them by refining the cells beside an interior local
    # minimum of |F| that dips close to zero.  Adjacent such cells form one
    # window, so no two windows overlap and no root is found twice.
    absv = np.abs(vals)
    interior = (
        (absv[1:-1] <= absv[:-2])
        & (absv[1:-1] <= absv[2:])
        & (sign[:-2] == sign[1:-1])
        & (sign[1:-1] == sign[2:])
        & (absv[1:-1] < 1.0)
    )
    cells = np.r_[interior, False] | np.r_[False, interior]  # beside a minimum
    # bool diff marks where runs of cells start and stop
    for s, e in np.flatnonzero(np.diff(cells, prepend=False, append=False)).reshape(-1, 2):
        sub = np.linspace(grid[s], grid[e], 4096 * (e - s) + 1)
        brackets.append(_sign_changes(sub, _iterate_poly(a, sub, p) - sub))

    left, right, fleft = (np.concatenate(b) for b in zip(*brackets))
    # vectorized bisection on all brackets at once
    for _ in range(60):
        mid = 0.5 * (left + right)
        fmid = _iterate_poly(a, mid, p) - mid
        take = fleft * fmid <= 0
        right = np.where(take, mid, right)
        left = np.where(take, left, mid)
        fleft = np.where(take, fleft, fmid)
    return np.sort(np.concatenate([0.5 * (left + right), exact]))


_SWEEP_CAP = 100


def _inverse_branch_census(a: float, p: int, beta: float) -> np.ndarray:
    """One root per word w in 0..2^p-1, sorted: the fixed point of the
    inverse branches x <- s_k sqrt(x - a), k = p-1, ..., 0, s_k = -1 where
    bit k of w is set, swept on all words until none moves by more than
    5e-14 beta.  From x = 0 every iterate keeps |x| <= -a, so x - a is
    never negative.  Far below -2 the roots of one long cylinder can lie
    closer than float spacing and coincide; such a census is refused.
    """
    tol = 5e-14 * beta  # 1e-13 at a = -2; absolute would stall on ulp(beta)
    x = np.zeros(2**p)
    for _ in range(_SWEEP_CAP):
        prev = x.copy()
        for k in range(p - 1, -1, -1):
            np.subtract(x, a, out=x)
            np.sqrt(x, out=x)
            neg = x.reshape(-1, 2, 2**k)[:, 1]  # the words with bit k set, as a view
            np.negative(neg, out=neg)
        unsettled = np.count_nonzero(np.abs(x - prev) > tol)
        if not unsettled:
            x.sort()
            distinct = 1 + np.count_nonzero(x[1:] > x[:-1])
            if distinct < x.size:
                raise AnalysisError(
                    f"only {distinct} of {x.size} roots are distinct in float at "
                    f"a = {a}, p = {p}: the roots of one cylinder coincide"
                )
            return x
    raise AnalysisError(
        f"{unsettled} of {2**p} itineraries did not settle in {_SWEEP_CAP} "
        f"inverse-branch sweeps at a = {a}, p = {p}"
    )


# ---------------------------------------------------------------------------
# 2-D census


@dataclass(frozen=True)
class PeriodicOrbit:
    """One orbit of Fix f^p.

    residual is the backward error |f^p(z) - z| / max(1, |Tf^p|): the
    distance to an exactly periodic point of a nearby map, which stays
    comparable to tol even when the orbit is strongly expanding.
    """

    representative: tuple[float, float]
    least_period: int
    multipliers: tuple[complex, complex]
    residual: float
    non_hyperbolic: bool = False


@dataclass(frozen=True)
class PeriodicCensus:
    """Fixed points of f^p grouped into orbits.

    count_fix counts points of Fix f^p (each orbit contributes its least
    period); points holds all of them.  stable records whether a doubled
    seed grid found the same count: a completeness heuristic that only
    compares two grids, so nothing certifies count_fix.
    """

    p: int
    orbits: tuple[PeriodicOrbit, ...]
    count_fix: int
    points: np.ndarray
    tol: float
    stable: bool | None = None


_NEWTON_STEPS = 100


def _newton_batch(m: HenonMap, seeds: np.ndarray, p: int, tol: float) -> np.ndarray:
    """Damped Newton for f^p(z) = z on all seeds at once; returns the
    converged points (unfiltered for duplicates).

    A seed stops once |f^p(z) - z| <= 0.1 tol max(1, |Tf^p|), the scale of
    acceptance's backward error: on an expanding orbit float noise in
    f^p(z) - z alone exceeds 0.1 tol.  Only the active seeds are carried.
    """
    Z = np.array(seeds, dtype=float)
    rows, z = np.arange(len(Z)), Z.T.copy()  # z holds the active seeds' x and y
    for _ in range(_NEWTON_STEPS):
        if not len(rows):
            break
        x, y = z
        for _, fx, fy, r0, r1 in _chain_rule(m, x, y, p):
            pass
        F0, F1 = fx - x, fy - y
        g00, g01, g10, g11 = r0[0] - 1.0, r0[1], r1[0], r1[1] - 1.0  # Tf^p - Id
        det = g00 * g11 - g01 * g10
        ok = np.abs(det) > 1e-14
        den = np.where(ok, det, 1.0)
        d = np.where(ok, -np.array([g11 * F0 - g01 * F1, -g10 * F0 + g00 * F1]) / den, 0.0)
        norms = np.sqrt(d[0] * d[0] + d[1] * d[1])
        big = norms > 0.1
        d[:, big] *= 0.1 / norms[big]
        z = z + d
        nrm = np.maximum(np.sum(np.abs(r0), axis=0), np.sum(np.abs(r1), axis=0))
        still = (
            (np.sqrt(F0 * F0 + F1 * F1) > 0.1 * tol * np.fmax(1.0, nrm))
            & (np.sqrt(d[0] * d[0] + d[1] * d[1]) > 1e-17)
            & (np.max(np.abs(z), axis=0) <= 8.0)
            & ok
        )
        Z[rows[~still]] = z[:, ~still].T
        rows, z = rows[still], z[:, still]
    Z[rows] = z.T
    return Z


def _default_seed_grid(m: HenonMap, grid: tuple[int, int]) -> np.ndarray:
    disc = 1.0 - 4.0 * m.a
    beta = (1.0 + math.sqrt(disc)) / 2.0 if disc >= 0 else 2.0
    L = beta + 0.4
    nx, ny = grid
    xs = np.linspace(-L, L, nx)
    if ny <= 1:
        ys = np.array([0.0])
    else:
        yb = max(m.b * L * 1.5, 1e-3)
        ys = np.linspace(-yb, yb, ny)
    XX, YY = np.meshgrid(xs, ys)
    return np.column_stack([XX.ravel(), YY.ravel()])


def _orbit_representatives(orbs: np.ndarray, radius: float) -> list[int]:
    """Greedy dedup into orbits with phase alignment.

    orbs is (N, p, 2): the p orbit points of each candidate.  In candidate
    order, each candidate not yet claimed becomes a representative and
    claims every candidate with an orbit point within radius (max norm) of
    one of its own points.  All N p points are sorted once by x; the
    neighbours of a point lie in a window of that order found by binary
    search, and each is then tested exactly.
    """
    p = orbs.shape[1]
    pts = orbs.reshape(-1, 2)
    order = np.argsort(pts[:, 0])
    xs = pts[order, 0]
    untaken = np.ones(len(orbs), dtype=bool)
    reps: list[int] = []
    while untaken.any():
        i = int(untaken.argmax())
        reps.append(i)
        untaken[i] = False
        # the window is widened so rounding in x +- radius loses no point
        lo = np.searchsorted(xs, orbs[i, :, 0] - 2 * radius, side="left")
        hi = np.searchsorted(xs, orbs[i, :, 0] + 2 * radius, side="right")
        near = np.concatenate([order[a:b] for a, b in zip(lo, hi)])
        own = np.repeat(orbs[i], hi - lo, axis=0)
        hit = np.max(np.abs(pts[near] - own), axis=1) <= radius
        untaken[near[hit] // p] = False
    return reps


def periodic_orbits_2d(
    m: HenonMap,
    p: int,
    grid: tuple[int, int] | np.ndarray = (256, 8),
    tol: float = 1e-12,
    refine_check: bool = False,
) -> PeriodicCensus:
    """Newton census of Fix f^p from a seed grid.

    Converged points are grouped into orbits (phase-aligned dedup within
    10 tol); every orbit records its least period, the eigenvalues of the
    p-step Jacobian, and the final residual.  Orbits where Tf^p - Id is
    singular are flagged non-hyperbolic but kept.  refine_check doubles
    the grid and reports whether the count was stable; both grids run in
    one Newton batch, since every seed's iteration is its own.  An explicit
    seed array has no doubled grid, so it cannot take refine_check.  tol
    must be finite and > 0.  A zero or classical census (either grid) that
    counts more than 2^p points raises AnalysisError.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    if isinstance(grid, np.ndarray):
        if refine_check:
            raise ValueError("refine_check needs a (nx, ny) grid, not a seed array")
        seeds = [grid]
    else:
        seeds = [_default_seed_grid(m, grid)]
        if refine_check:
            nx, ny = grid
            seeds.append(_default_seed_grid(m, (2 * nx, 2 * ny if ny > 1 else 1)))
    # seeds that escape overflow on the way; acceptance drops them
    with np.errstate(over="ignore", invalid="ignore"):
        cands = np.split(_newton_batch(m, np.vstack(seeds), p, tol), [len(seeds[0])])
        censuses = [_accept(m, p, c, tol) for c in cands[: len(seeds)]]
    # f^p of a degree-2 polynomial Henon map has at most 2^p fixed points
    # (Friedland & Milnor 1989); a census above that holds duplicates
    most = max(c.count_fix for c in censuses)
    if m.perturbation != "custom" and most > 2**p:
        raise AnalysisError(
            f"census counts {most} fixed points of f^{p}, more than "
            f"the {2**p} = 2^{p} a degree-2 Henon map can have"
        )
    census = censuses[0]
    if len(censuses) > 1:
        census = replace(census, stable=censuses[1].count_fix == census.count_fix)
    return census


def _accept(m: HenonMap, p: int, cands: np.ndarray, tol: float) -> PeriodicCensus:
    """The census of the Newton output cands: acceptance, orbit dedup, least
    periods and multipliers."""
    # accept the converged candidates whose backward error is within tol
    finite = np.all(np.isfinite(cands), axis=1)
    cands = cands[finite & (np.max(np.abs(cands), axis=1) <= 8.0)]
    orbs, jacs = _orbit_batch(m, cands, p)
    # raw closing residual and max-row-sum norm of Tf^q after each divisor
    # q of p; the norm scales float noise in the closing condition, so all
    # residual acceptance uses the backward error raw / max(1, norm)
    raw = {q: np.max(np.abs(orbs[:, q] - orbs[:, 0]), axis=1) for q in jacs}
    nrm = {q: np.max(np.sum(np.abs(J), axis=2), axis=1) for q, J in jacs.items()}
    # an escaped candidate has raw = nrm = inf, which the comparison alone keeps
    keep = np.nonzero(np.isfinite(nrm[p]) & (raw[p] <= tol * np.fmax(1.0, nrm[p])))[0]
    cands, orbs = cands[keep], orbs[keep, :p]

    reps = _orbit_representatives(orbs, 10 * tol)
    r = keep[reps]  # the representatives' rows of the chain-rule output
    # least period: the smallest divisor q whose orbit closes within 10 tol
    least = np.full(len(r), p)
    for q in sorted(jacs, reverse=True):
        least[raw[q][r] <= 10 * tol * np.fmax(1.0, nrm[q][r])] = q
    eigs = np.linalg.eigvals(jacs[p][r])
    nh = np.abs(np.linalg.det(jacs[p][r] - np.eye(2))) < 1e-12
    residual = raw[p][r] / np.fmax(1.0, nrm[p][r])
    orbits: list[PeriodicOrbit] = []
    all_points: list[np.ndarray] = []
    for j, i in enumerate(reps):
        orbits.append(
            PeriodicOrbit(
                representative=(float(cands[i, 0]), float(cands[i, 1])),
                least_period=int(least[j]),
                multipliers=(complex(eigs[j, 0]), complex(eigs[j, 1])),
                residual=float(residual[j]),
                non_hyperbolic=bool(nh[j]),
            )
        )
        all_points.append(orbs[i, : least[j]])

    return PeriodicCensus(
        p=p,
        orbits=tuple(orbits),
        count_fix=sum(o.least_period for o in orbits),
        points=np.vstack(all_points) if all_points else np.empty((0, 2)),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# entropy and equidistribution


@dataclass(frozen=True)
class EntropyEstimate:
    slope: float
    per_p: tuple[tuple[int, int], ...]
    residual: float  # rms of the linear fit


def _check_fit_periods(count: int) -> None:
    """Refuse an entropy fit over fewer than 3 periods."""
    if count < 3:
        raise ValueError("need censuses for at least 3 periods")


def entropy_from_census(
    censuses: Sequence[PeriodicCensus | tuple[int, int]],
) -> EntropyEstimate:
    """Least-squares slope of log Card Fix f^p against p.

    Accepts census objects or bare (p, count) pairs.  Counts must be
    positive; a slope exceeding log 2 + 0.05 is rejected outright
    (more periodic points than the quadratic family can have signals a
    census defect).
    """
    pairs: list[tuple[int, int]] = []
    for c in censuses:
        if isinstance(c, PeriodicCensus):
            pairs.append((c.p, c.count_fix))
        else:
            pairs.append((int(c[0]), int(c[1])))
    _check_fit_periods(len(pairs))
    if any(n <= 0 for _, n in pairs):
        raise AnalysisError("empty census (zero count) cannot enter the entropy fit")
    pairs.sort()
    ps = np.array([p for p, _ in pairs], dtype=float)
    logs = np.array([math.log(n) for _, n in pairs])
    slope, intercept = np.polyfit(ps, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * ps + intercept)) ** 2)))
    if slope > math.log(2.0) + 0.05:
        raise AnalysisError(
            f"fitted growth rate {slope:.4f} exceeds log 2 + 0.05; "
            "census is overcounting"
        )
    return EntropyEstimate(slope=float(slope), per_p=tuple(pairs), residual=resid)


def arcsine_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """CDF of the arcsine law on [-2, 2]: 1/2 + arcsin(x/2)/pi."""
    xx = np.clip(np.asarray(x, dtype=float) / 2.0, -1.0, 1.0)
    out = 0.5 + np.arcsin(xx) / np.pi
    return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class EquidistReport:
    statistic: str
    distance: float
    n_points: int


def _census_abscissas(census: PeriodicCensus | np.ndarray) -> np.ndarray:
    if isinstance(census, PeriodicCensus):
        return np.sort(census.points[:, 0])
    return np.sort(np.asarray(census, dtype=float))


def equidistribution_test(
    census: PeriodicCensus | np.ndarray,
    reference: str | np.ndarray | Callable[[np.ndarray], np.ndarray] = "arcsine",
    statistic: str = "KS",
) -> EquidistReport:
    """Distance between the census abscissas and a reference law.

    reference: "arcsine" (analytic CDF), an array of samples (empirical
    CDF), or a callable CDF.  statistic "KS" is the sup CDF distance;
    "cylinder" is the max discrepancy of cell masses over the 8 dyadic
    cells of [-2, 2], the two outer cells widened to take in every census
    point beyond +-2 (as at a < -2), so the census masses sum to 1.
    """
    xs = _census_abscissas(census)
    if xs.size == 0:
        raise AnalysisError("census holds no points")

    if callable(reference):
        cdf = reference
    elif isinstance(reference, str):
        if reference != "arcsine":
            raise ValueError(f"unknown reference {reference!r}")
        cdf = arcsine_cdf
    else:
        ref_samples = np.sort(np.asarray(reference, dtype=float))

        def cdf(t: np.ndarray) -> np.ndarray:
            return np.searchsorted(ref_samples, np.asarray(t), side="right") / len(
                ref_samples
            )

    n = xs.size
    if statistic == "KS":
        dist = _ks_distance(np.asarray(cdf(xs), dtype=float))
    elif statistic == "cylinder":
        edges = np.linspace(-2.0, 2.0, 9)
        edges[0], edges[-1] = min(-2.0, xs[0]), max(2.0, xs[-1])
        emp, _ = np.histogram(xs, bins=edges)
        emp = emp / n
        Fe = np.asarray(cdf(edges), dtype=float)
        ref_mass = np.diff(Fe)
        dist = float(np.max(np.abs(emp - ref_mass)))
    else:
        raise ValueError(f"unknown statistic {statistic!r}")

    return EquidistReport(statistic=statistic, distance=dist, n_points=int(n))


# ---------------------------------------------------------------------------
# analytic bounds


@dataclass(frozen=True)
class ExceptionalBound:
    p: int
    M: int
    value: float
    ratio: float      # value / 2^p
    log_ratio: float  # exact in log space even when 2^p overflows


def exceptional_bound(p: int, M: int) -> ExceptionalBound:
    """p e^{p/sqrt M} + (M+1) 2^{p/(M+1)}, and its ratio to 2^p.

    The ratio is formed in log space so it stays meaningful long after
    2^p overflows; it tends to 0 as p grows at fixed M >= 2.
    """
    if p < 1 or M < 1:
        raise ValueError("p and M must be >= 1")
    t1 = math.log(p) + p / math.sqrt(M)
    t2 = math.log(M + 1) + (p / (M + 1)) * math.log(2.0)
    log_val = np.logaddexp(t1, t2)
    log_ratio = float(log_val - p * math.log(2.0))
    value = float(math.exp(log_val)) if log_val < 700 else math.inf
    ratio = float(math.exp(log_ratio)) if log_ratio > -700 else 0.0
    return ExceptionalBound(p=p, M=M, value=value, ratio=ratio, log_ratio=log_ratio)


def k_square_entropy(M: int) -> float:
    """Topological entropy log 2 / (M+1) of the square-symbol subsystem."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return math.log(2.0) / (M + 1)


def square_horseshoe_censuses(M: int, n_max: int) -> list[tuple[int, int]]:
    """Synthetic censuses of the square subsystem: the return map at time
    M+1 is a full 2-shift, so Card Fix f^{n(M+1)} = 2^n."""
    return [(n * (M + 1), 2**n) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# export


_CENSUS_CSV_HEADER = ("p", "least_period", "x", "y", "mult1", "mult2", "residual")


def _census_csv_rows(census: PeriodicCensus) -> list[tuple]:
    """One CSV row per orbit, in the columns of _CENSUS_CSV_HEADER."""

    def cfmt(z: complex) -> str:
        if z.imag == 0.0:
            return f"{z.real:.17g}"
        return f"{z.real:.17g}{z.imag:+.17g}j"

    return [
        (
            census.p,
            o.least_period,
            f"{o.representative[0]:.17g}",
            f"{o.representative[1]:.17g}",
            cfmt(o.multipliers[0]),
            cfmt(o.multipliers[1]),
            f"{o.residual:.3e}",
        )
        for o in census.orbits
    ]


def census_to_csv(census: PeriodicCensus, path: str) -> None:
    """Write one row per orbit: p,least_period,x,y,mult1,mult2,residual."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(_CENSUS_CSV_HEADER)
        w.writerows(_census_csv_rows(census))

"""Periodic-orbit censuses and entropy/equidistribution estimates.

The 1-D branch (b = 0) finds all fixed points of the p-th iterate by a
cosine-parametrized bracketing grid (roots cluster quadratically near the
interval ends, uniformly in the angle), polished by Newton, and at a = -2
cross-checked against the exact angle family.  The 2-D branch runs a
batched damped Newton from grid seeds, accepts candidates in one array
pass and deduplicates orbits over their points sorted by abscissa.  Entropy
comes from the slope of log Card Fix f^p; equidistribution is tested
against an analytic or sampled reference law.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .henon import HenonMap, _orbit_batch
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
    "arcsine_mean",
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
    for _ in range(p):
        x = x * x + a
    return x


def _poly_and_derivative(a: float, x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    d = np.ones_like(x)
    for _ in range(p):
        d = d * 2.0 * x
        x = x * x + a
    return x, d


def fixed_points_1d(a: float, p: int, tol: float = 1e-12) -> np.ndarray:
    """All real roots of f_a^p(x) - x, sorted.

    Brackets sign changes on a cosine grid x = beta cos(theta) (fine enough
    to separate the quadratically clustered roots near +-beta), bisects,
    then polishes with Newton using the exact derivative product.  At
    a = -2 the count must match the angle oracle, otherwise this raises.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    if p > 16:
        raise ValueError("1-D census capped at p = 16 (degree 2^p)")
    disc = 1.0 - 4.0 * a
    beta = (1.0 + math.sqrt(disc)) / 2.0 if disc >= 0 else 2.0
    lo, hi = -beta - 1e-9, beta + 1e-9

    K = 32 * 2**p + 1
    theta = np.linspace(0.0, np.pi, K)
    # f^p(x) > x beyond beta, so the extra end point brackets the root beta
    # whatever sign rounding gives f^p - x at the grid point beta itself
    grid = np.append(np.clip(beta * np.cos(theta)[::-1], lo, hi), hi)
    vals = _iterate_poly(a, grid, p) - grid
    sign = np.sign(vals)
    # a grid point may sit on a root
    exact = grid[vals == 0.0]
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]

    brackets = [(grid[idx], grid[idx + 1], vals[idx])]

    # Root pairs born at a tangency can share one cell without a sign
    # change; rescue them by refining cells holding an interior local
    # minimum of |F| that dips close to zero.
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
        sv = _iterate_poly(a, sub, p) - sub
        ss = np.sign(sv)
        j = np.nonzero(ss[:-1] * ss[1:] < 0)[0]
        if j.size:
            brackets.append((sub[j], sub[j + 1], sv[j]))

    left = np.concatenate([b[0] for b in brackets])
    right = np.concatenate([b[1] for b in brackets])
    fleft = np.concatenate([b[2] for b in brackets])

    # vectorized bisection on all brackets at once
    for _ in range(60):
        mid = 0.5 * (left + right)
        fmid = _iterate_poly(a, mid, p) - mid
        take = fleft * fmid <= 0
        right = np.where(take, mid, right)
        left = np.where(take, left, mid)
        fleft = np.where(take, fleft, fmid)
    roots = 0.5 * (left + right)

    # Newton polish
    for _ in range(8):
        fx, dfx = _poly_and_derivative(a, roots, p)
        g = fx - roots
        dg = dfx - 1.0
        safe = np.abs(dg) > 1e-9
        step = np.where(safe, g / np.where(safe, dg, 1.0), 0.0)
        roots = roots - np.clip(step, -1e-3, 1e-3)
    roots = np.concatenate([roots, exact])
    roots.sort()

    # Dedup radius stays below the least genuine root separation, which
    # shrinks like 2^{-3p} near the interval ends (1e-11 already at
    # p = 14); bisection localizes far more finely than that.
    radius = min(tol, 1e-13)
    if roots.size:
        keep = [roots[0]]
        for v in roots[1:]:
            if v - keep[-1] > radius:
                keep.append(v)
        roots = np.array(keep)

    # Residual acceptance must scale with the local derivative: float
    # noise in f^p near a root is amplified by |(f^p)'|, so an absolute
    # cutoff would discard strongly expanding true roots.
    fx, dfx = _poly_and_derivative(a, roots, p)
    resid = np.abs(fx - roots)
    scale = np.maximum(1.0, np.abs(dfx - 1.0))
    roots = roots[resid <= max(100 * tol, 1e-10) * scale]

    if a == -2.0:
        expected = 2**p
        if roots.size != expected:
            raise RuntimeError(
                f"root census found {roots.size} points at a=-2, p={p}; "
                f"angle oracle expects {expected}"
            )
    return roots


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
    seed grid found the same count (completeness heuristic: the census is
    a certified lower bound, never an upper one).
    """

    p: int
    orbits: tuple[PeriodicOrbit, ...]
    count_fix: int
    points: np.ndarray
    tol: float
    stable: bool | None = None


def _newton_batch(
    m: HenonMap, seeds: np.ndarray, p: int, tol: float, max_iter: int = 100
) -> np.ndarray:
    """Damped Newton for f^p(z) = z on all seeds at once; returns the
    converged points (unfiltered for duplicates)."""
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
    the grid and reports whether the count was stable.
    """
    if p < 1:
        raise ValueError("period must be >= 1")

    if isinstance(grid, np.ndarray):
        seeds = grid
        grid_shape = (len(grid), 1)
    else:
        seeds = _default_seed_grid(m, grid)
        grid_shape = grid

    # accept the converged candidates whose backward error is within tol
    cands = _newton_batch(m, seeds, p, tol)
    finite = np.all(np.isfinite(cands), axis=1)
    cands = cands[finite & (np.max(np.abs(cands), axis=1) <= 8.0)]
    orbs, jacs = _orbit_batch(m, cands, p)
    # raw closing residual and max-row-sum norm of Tf^q after each divisor
    # q of p; the norm scales float noise in the closing condition, so all
    # residual acceptance uses the backward error raw / max(1, norm)
    raw = {q: np.max(np.abs(orbs[:, q] - orbs[:, 0]), axis=1) for q in jacs}
    nrm = {q: np.max(np.sum(np.abs(J), axis=2), axis=1) for q, J in jacs.items()}
    keep = np.nonzero(raw[p] <= tol * np.fmax(1.0, nrm[p]))[0]
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

    count_fix = sum(o.least_period for o in orbits)
    points = np.vstack(all_points) if all_points else np.empty((0, 2))

    stable = None
    if refine_check and not isinstance(grid, np.ndarray):
        doubled = (grid_shape[0] * 2, max(grid_shape[1], 1) * 2 if grid_shape[1] > 1 else 1)
        again = periodic_orbits_2d(m, p, doubled, tol, refine_check=False)
        stable = bool(again.count_fix == count_fix)

    return PeriodicCensus(
        p=p,
        orbits=tuple(orbits),
        count_fix=count_fix,
        points=points,
        tol=tol,
        stable=stable,
    )


# ---------------------------------------------------------------------------
# entropy and equidistribution


@dataclass(frozen=True)
class EntropyEstimate:
    slope: float
    per_p: tuple[tuple[int, int], ...]
    residual: float  # rms of the linear fit


def entropy_from_census(
    censuses: Sequence[PeriodicCensus | tuple[int, int]],
    log2_tol: float = 0.05,
) -> EntropyEstimate:
    """Least-squares slope of log Card Fix f^p against p.

    Accepts census objects or bare (p, count) pairs.  Counts must be
    positive; a slope exceeding log 2 + log2_tol is rejected outright
    (more periodic points than the quadratic family can have signals a
    census defect).
    """
    pairs: list[tuple[int, int]] = []
    for c in censuses:
        if isinstance(c, PeriodicCensus):
            pairs.append((c.p, c.count_fix))
        else:
            pairs.append((int(c[0]), int(c[1])))
    if len(pairs) < 3:
        raise ValueError("need censuses for at least 3 periods")
    if any(n <= 0 for _, n in pairs):
        raise ValueError("empty census (zero count) cannot enter the entropy fit")
    pairs.sort()
    ps = np.array([p for p, _ in pairs], dtype=float)
    logs = np.array([math.log(n) for _, n in pairs])
    slope, intercept = np.polyfit(ps, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * ps + intercept)) ** 2)))
    if slope > math.log(2.0) + log2_tol:
        raise ValueError(
            f"fitted growth rate {slope:.4f} exceeds log 2 + {log2_tol}; "
            "census is overcounting"
        )
    return EntropyEstimate(slope=float(slope), per_p=tuple(pairs), residual=resid)


def arcsine_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """CDF of the arcsine law on [-2, 2]: 1/2 + arcsin(x/2)/pi."""
    xx = np.clip(np.asarray(x, dtype=float) / 2.0, -1.0, 1.0)
    out = 0.5 + np.arcsin(xx) / np.pi
    return float(out) if np.isscalar(x) else out


def arcsine_mean(g: Callable[[np.ndarray], np.ndarray], n_quad: int = 20001) -> float:
    """Integral of g against the arcsine density, via the angle substitution
    x = 2 cos(theta) which flattens the law to uniform in theta."""
    theta = np.linspace(0.0, np.pi, n_quad)
    return float(np.trapezoid(g(2.0 * np.cos(theta)), theta) / np.pi)


@dataclass(frozen=True)
class EquidistReport:
    statistic: str
    distance: float
    n_points: int
    observables: tuple[tuple[str, float, float], ...] = ()


def _census_abscissas(census: PeriodicCensus | np.ndarray) -> np.ndarray:
    if isinstance(census, PeriodicCensus):
        return np.sort(census.points[:, 0])
    return np.sort(np.asarray(census, dtype=float))


def equidistribution_test(
    census: PeriodicCensus | np.ndarray,
    reference: str | np.ndarray | Callable[[np.ndarray], np.ndarray] = "arcsine",
    statistic: str = "KS",
    observables: Sequence[tuple[str, Callable[[np.ndarray], np.ndarray]]] = (),
    cells: Sequence[float] | None = None,
) -> EquidistReport:
    """Distance between the census abscissas and a reference law.

    reference: "arcsine" (analytic CDF), an array of samples (empirical
    CDF), or a callable CDF.  statistic "KS" is the sup CDF distance;
    "cylinder" is the max discrepancy over an interval partition (default
    8 dyadic cells of [-2, 2]).  Observable means under both laws are
    appended to the report.
    """
    xs = _census_abscissas(census)
    if xs.size == 0:
        raise ValueError("census holds no points")

    if callable(reference):
        cdf = reference
        ref_samples = None
    elif isinstance(reference, str):
        if reference != "arcsine":
            raise ValueError(f"unknown reference {reference!r}")
        cdf = arcsine_cdf
        ref_samples = None
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
        edges = (
            np.asarray(cells, dtype=float)
            if cells is not None
            else np.linspace(-2.0, 2.0, 9)
        )
        emp, _ = np.histogram(xs, bins=edges)
        emp = emp / n
        Fe = np.asarray(cdf(edges), dtype=float)
        ref_mass = np.diff(Fe)
        dist = float(np.max(np.abs(emp - ref_mass)))
    else:
        raise ValueError(f"unknown statistic {statistic!r}")

    obs_rows = []
    for name, g in observables:
        emp_mean = float(np.mean(g(xs)))
        if ref_samples is not None:
            ref_mean = float(np.mean(g(ref_samples)))
        else:
            ref_mean = arcsine_mean(g)
        obs_rows.append((name, emp_mean, ref_mean))

    return EquidistReport(
        statistic=statistic,
        distance=dist,
        n_points=int(n),
        observables=tuple(obs_rows),
    )


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

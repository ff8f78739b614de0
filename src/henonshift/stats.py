"""Statistical verification of the maximal-entropy measure's properties.

Samplers for the 1-D invariant law (inverse-CDF and chain-simulation
routes), covariance-decay fits with an explicit noise floor, a CLT test
with a degenerate (coboundary) branch, Young's dimension formula, a
box-counting estimator, and the return-time decay check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .henon import HenonMap
from .markov import (
    AnalysisError,
    LoopCensus,
    MaxEntropyChain,
    build_mme,
    full_shift_graph,
    perron,
)

__all__ = [
    "EmpiricalMeasure",
    "sample_mme_1d",
    "DecayFit",
    "covariance_decay",
    "CltReport",
    "clt_test",
    "coboundary",
    "coordinate",
    "lipschitz_bump",
    "smoothed_indicator",
    "chebyshev_polynomial",
    "young_dimension",
    "box_dimension",
    "box_count_table",
    "return_decay_check",
    "segment_sample",
    "square_sample",
    "cantor_sample",
]


# ---------------------------------------------------------------------------
# uniform samples


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform sample set with a provenance tag: each point has mass 1/n.

    provenance is one of "periodic-census", "chain-simulation",
    "inverse-CDF" (or a free-form tag for synthetic inputs).
    """

    points: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def n(self) -> int:
        return len(self.points)


def sample_mme_1d(kind: str, n: int, seed: int) -> EmpiricalMeasure:
    """Sample of the 1-D maximal-entropy law (arcsine on [-2, 2]).

    kind "arcsine" draws x = 2 cos(pi U) directly.  kind "chain" asserts
    that the maximal-entropy kernel of the full 2-shift is 1/2 on every
    arrow, then draws 53 fair bits as one integer k in [0, 2^53) and
    returns x = 2 cos(2 pi k 2^-53); it simulates no chain.  Both kinds
    draw the same law.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "arcsine":
        u = rng.random(n)
        return EmpiricalMeasure(2.0 * np.cos(np.pi * u), "inverse-CDF")
    if kind == "chain":
        g2 = full_shift_graph(2)
        chain = build_mme(perron(g2), g2)
        p = np.array(chain.p)
        if not np.allclose(p, 0.5, atol=1e-12):
            raise AssertionError("full 2-shift chain must be uniform Bernoulli")
        # 53 fair bits saturate double precision of the binary angle; one
        # integer in [0, 2^53) is the same law, and k 2^-53 is exact
        angle = rng.integers(0, 2**53, size=n) * 2.0**-53
        return EmpiricalMeasure(2.0 * np.cos(2.0 * np.pi * angle), "chain-simulation")
    raise ValueError(f"unknown sampler kind {kind!r}")


# ---------------------------------------------------------------------------
# observable library (fixed so Hoelder hypotheses hold by construction)


def coordinate() -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: np.asarray(x, dtype=float)


def lipschitz_bump(center: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    if width <= 0:
        raise ValueError("width must be positive")

    def g(x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x) - center) / width)

    return g


def smoothed_indicator(
    lo: float, hi: float, ramp: float
) -> Callable[[np.ndarray], np.ndarray]:
    """1 on [lo, hi], 0 outside [lo - ramp, hi + ramp], linear in between."""
    if ramp <= 0 or hi < lo:
        raise ValueError("need hi >= lo and ramp > 0")

    def g(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        left = np.clip((x - (lo - ramp)) / ramp, 0.0, 1.0)
        right = np.clip(((hi + ramp) - x) / ramp, 0.0, 1.0)
        return np.minimum(left, right)

    return g


def chebyshev_polynomial(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """2 cos(k theta) as a function of x = 2 cos(theta) on [-2, 2]."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def g(x: np.ndarray) -> np.ndarray:
        t = np.arccos(np.clip(np.asarray(x, dtype=float) / 2.0, -1.0, 1.0))
        return 2.0 * np.cos(k * t)

    return g


def coboundary(
    phi: Callable[[np.ndarray], np.ndarray], f: Callable[[np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """psi = phi - phi o f; its Birkhoff sums telescope, so the CLT
    variance degenerates."""
    return lambda x: phi(x) - phi(f(x))


def _as_1d_map(m: HenonMap | Callable[[np.ndarray], np.ndarray]):
    if isinstance(m, HenonMap):
        if m.b != 0.0:
            raise ValueError("1-D statistics need the b = 0 reduction")
        if m.perturbation == "custom":
            raise ValueError(
                "1-D statistics reduce the map to x^2 + a, which drops a custom perturbation"
            )
        a = m.a
        return lambda x: x * x + a
    return m


# ---------------------------------------------------------------------------
# covariance decay


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of |Cov_n| (or a return-time tail) over usable lags.

    kappa = exp(slope) of the regression restricted to lags whose value
    exceeds noise_floor.  When fewer than 2 lags survive, every measured
    covariance is consistent with zero and the fit degenerates: kappa = 0,
    r2 = 1 by convention (decay faster than the sample can resolve).
    exponential is the verdict kappa < 1; a degenerate covariance fit used
    no lag and gives no verdict (None), while return_decay_check passes its
    finite-support tails (True).
    """

    lags: tuple[int, ...]
    values: tuple[float, ...]
    kappa: float
    r2: float
    noise_floor: float
    used: tuple[int, ...]
    degenerate: bool
    exponential: bool | None


def _fit_decay(
    lags: np.ndarray, vals: np.ndarray, floor: float
) -> tuple[float, float, tuple[int, ...], bool]:
    usable = np.abs(vals) > floor
    used = lags[usable]
    if used.size < 2:
        return 0.0, 1.0, tuple(int(v) for v in used), True
    y = np.log(np.abs(vals[usable]))
    slope, intercept = np.polyfit(used, y, 1)
    pred = slope * used + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(math.exp(slope)), r2, tuple(int(v) for v in used), False


def covariance_decay(
    m: HenonMap | Callable[[np.ndarray], np.ndarray],
    measure: EmpiricalMeasure,
    g: Callable[[np.ndarray], np.ndarray],
    h: Callable[[np.ndarray], np.ndarray],
    n_max: int,
) -> DecayFit:
    """Cov_n = E[g (h o f^n)] - E[g] E[h o f^n] over the pushed sample.

    Lags whose |Cov_n| sits below 3 sd(g) sd(h) / sqrt(N) over the N
    sample points carry no signal and are excluded from the kappa regression.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    f = _as_1d_map(m)
    x = measure.points.astype(float)
    if x.ndim != 1:
        raise ValueError("covariance decay works on 1-D samples")
    if measure.n < 10 * n_max:
        new_max = max(1, measure.n // 10)
        warnings.warn(
            f"sample of {measure.n} too small for n_max={n_max}; "
            f"truncating to {new_max}",
            stacklevel=2,
        )
        n_max = new_max

    gvals = np.asarray(g(x), dtype=float)
    mg = float(gvals.mean())
    sd_g = float(gvals.std())
    sd_h = float(np.asarray(h(x), dtype=float).std())
    floor = 3.0 * sd_g * sd_h / math.sqrt(measure.n)

    covs = []
    cur = x.copy()
    for _n in range(1, n_max + 1):
        cur = f(cur)
        if not np.all(np.isfinite(cur)) or np.max(np.abs(cur)) > 1e6:
            raise RuntimeError(f"sample escaped after {_n} steps")
        hn = np.asarray(h(cur), dtype=float)
        covs.append(float(np.mean(gvals * hn)) - mg * float(hn.mean()))
    lags = np.arange(1, n_max + 1)
    vals = np.array(covs)
    kappa, r2, used, degen = _fit_decay(lags, vals, floor)
    kappa = min(kappa, 1.0)
    return DecayFit(
        lags=tuple(int(v) for v in lags),
        values=tuple(float(v) for v in vals),
        kappa=kappa,
        r2=r2,
        noise_floor=floor,
        used=used,
        degenerate=degen,
        exponential=None if degen else bool(kappa < 1.0),
    )


# ---------------------------------------------------------------------------
# CLT


def _ks_distance(F: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - F| of a sample of n points.

    F holds the reference CDF at the sorted sample; the empirical CDF F_n
    steps from (i - 1)/n to i/n at the i-th point.
    """
    n = F.size
    return float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n)))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d) for 0 < d < 1, by the exact sum of Birnbaum & Tingey
    (1951): d sum_{j <= n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1).
    Every term is positive, so the sum is formed in log space."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    with np.errstate(divide="ignore"):
        logs = (
            log_fact[n] - log_fact[j] - log_fact[n - j]
            + (n - j) * np.log(1.0 - d - j / n)
            + (j - 1) * np.log(d + j / n)
        )
    top = float(np.max(logs))
    return d * math.exp(top) * float(np.sum(np.exp(logs - top)))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) by the Durbin matrix, as evaluated by Marsaglia, Tsang &
    Wang, "Evaluating Kolmogorov's distribution", J. Stat. Softw. 8(18), 2003.

    With n d = k - h (k an integer, 0 <= h < 1) the probability is n!/n^n
    times the (k, k) entry of H^n for a nonnegative m x m matrix H,
    m = 2k - 1.  The powers are renormalised by powers of two, whose
    exponents are summed apart, and n!/n^n enters in log space.  Cost
    O(m^3 log n).
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, m + 1))))
    i = np.arange(m)
    # H[r, c] = 1/(r - c + 1)! (0 above the subdiagonal), with corrected
    # first column and last row
    diff = i[:, None] - i[None, :] + 1
    H = np.where(diff >= 0, inv_fact[np.maximum(diff, 0)], 0.0)
    v = (1.0 - h ** (i + 1)) * inv_fact[i + 1]
    v[-1] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
    H[:, 0] = v
    H[-1, :] = v[::-1]

    def renorm(A: np.ndarray) -> tuple[np.ndarray, int]:
        e = math.frexp(float(A.max()))[1]
        return np.ldexp(A, -e), e

    # square and multiply; the true matrices are P 2^p_exp and H 2^h_exp
    P, p_exp, h_exp, e = np.eye(m), 0, 0, n
    while e:
        if e & 1:
            P, s = renorm(P @ H)
            p_exp += h_exp + s
        e >>= 1
        if e:
            H, s = renorm(H @ H)
            h_exp = 2 * h_exp + s
    entry = float(P[k - 1, k - 1])
    if entry <= 0.0:
        return 0.0
    log_cdf = math.log(entry) + p_exp * math.log(2.0) + math.lgamma(n + 1.0) - n * math.log(n)
    return math.exp(min(log_cdf, 0.0))


def _ks_pvalue(n: int, d: float) -> float:
    """Two-sided p-value P(D_n >= d) of a KS distance d over n points.

    Exact by the Durbin matrix while n d^2 < 2.2.  Beyond that, where the
    matrix grows, it is twice the exact one-sided tail: both one-sided
    excursions together have negligible probability there (scipy.stats
    splits at the same point).
    """
    if n * d <= 0.5:  # D_n >= 1/(2n) always
        return 1.0
    if d >= 1.0:
        return 0.0
    if n * d * d >= 2.2:
        return min(1.0, 2.0 * _smirnov_sf(n, d))
    return 1.0 - _durbin_cdf(n, d)


def _normal_ks(S: np.ndarray, sigma: float) -> tuple[float, float]:
    """KS distance of the sample S from Normal(0, sigma), and its p-value."""
    z = np.sort(S) / (sigma * math.sqrt(2.0))
    F = 0.5 * np.array([math.erfc(-v) for v in z.tolist()])
    d = _ks_distance(F)
    return d, _ks_pvalue(S.size, d)


@dataclass(frozen=True)
class CltReport:
    statistic: float
    p_value: float
    sigma_hat: float
    static_sd: float
    degenerate: bool
    passed: bool | None
    trials: int
    n: int
    alpha: float
    seed: int


def clt_test(
    m: HenonMap | Callable[[np.ndarray], np.ndarray],
    measure: EmpiricalMeasure,
    psi: Callable[[np.ndarray], np.ndarray],
    n: int,
    trials: int,
    alpha: float,
    seed: int = 0,
) -> CltReport:
    """Distributional normality of normalized Birkhoff sums.

    Each trial draws a start from the measure, iterates n steps, and
    forms S = (sum psi(x_k) - n mean) / sqrt(n); psi is centered by the
    grand mean over all visited points.  The trial sample is KS-tested
    against Normal(0, sigma_hat).  A near-zero sigma_hat (coboundary
    psi = phi - phi o f, or psi = 0) yields degenerate = True and no
    normality verdict.
    """
    if trials < 500:
        raise ValueError("need at least 500 trials")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    f = _as_1d_map(m)
    rng = np.random.default_rng(seed)
    x = measure.points[rng.integers(measure.n, size=trials)]

    sums = np.zeros(trials)
    # one shared pass: Birkhoff sums plus running moments of psi over all
    # visited points (for centering and the static scale)
    acc1 = 0.0
    acc2 = 0.0
    for _k in range(n):
        x = f(x)
        v = np.asarray(psi(x), dtype=float)
        sums += v
        acc1 += float(v.sum())
        acc2 += float(np.sum(v * v))
    total = n * trials
    grand = acc1 / total
    static_sd = math.sqrt(max(acc2 / total - grand * grand, 0.0))

    S = (sums - n * grand) / math.sqrt(n)
    sigma_hat = float(np.std(S))

    if static_sd == 0.0 or sigma_hat < 0.05 * static_sd:
        return CltReport(
            statistic=math.nan,
            p_value=math.nan,
            sigma_hat=sigma_hat,
            static_sd=static_sd,
            degenerate=True,
            passed=None,
            trials=trials,
            n=n,
            alpha=alpha,
            seed=seed,
        )

    statistic, p_value = _normal_ks(S, sigma_hat)
    return CltReport(
        statistic=statistic,
        p_value=p_value,
        sigma_hat=sigma_hat,
        static_sd=static_sd,
        degenerate=False,
        passed=bool(p_value >= alpha),
        trials=trials,
        n=n,
        alpha=alpha,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# dimensions


def young_dimension(h: float, lambda1: float, lambda2: float) -> float:
    """h (1/lambda1 - 1/lambda2); lambda2 = -inf contributes 0."""
    if h < 0:
        raise ValueError("entropy must be nonnegative")
    if not lambda1 > 0:
        raise ValueError("lambda1 must be positive")
    if not lambda2 < 0:
        raise ValueError("lambda2 must be negative")
    inv2 = 0.0 if math.isinf(lambda2) else 1.0 / lambda2
    return h * (1.0 / lambda1 - inv2)


def _dense_rank(v: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each entry of v among the distinct values of v, and the
    number of distinct values."""
    distinct, rank = np.unique(v, return_inverse=True)
    return rank, len(distinct)


def box_count_table(
    points: np.ndarray, scales: Sequence[float]
) -> list[tuple[float, int]]:
    """Occupied-box counts N(eps) per scale.

    A point p lies in the box floor(p / eps).  Each scale gives every point
    one int64 key, its box's column offsets floor(p / eps) - min in mixed
    radix, sorts the keys and counts 1 plus the adjacent sorted keys that
    differ.  A column, or a partial key, too wide for the int64 range is
    first replaced by its dense rank, which keeps the order and the
    distinct values.  Points must be an (n,) or (n, d) array of finite
    values, scales finite and positive, and every p / eps finite: a value
    box counting cannot place is an error.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError("points must be an (n,) or (n, d) array with d >= 1")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    scales = [float(eps) for eps in scales]
    if not all(math.isfinite(eps) and eps > 0 for eps in scales):
        raise ValueError("scales must be finite and positive")
    out = []
    for eps in scales:
        key, width = 0, 1  # every key lies in [0, width)
        for col in pts.T:
            with np.errstate(over="ignore"):
                box = np.floor(col / eps)
            lo, hi = (float(box.min()), float(box.max())) if len(box) else (0.0, 0.0)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"points / eps overflows at eps = {eps!r}")
            if -(2.0**62) <= lo and hi < 2.0**62:  # box - lo is exact in int64
                off, radix = box.astype(np.int64) - int(lo), int(hi) - int(lo) + 1
            else:
                off, radix = _dense_rank(box)
            if width * radix > 2**63:
                key, width = _dense_rank(key)
            if width * radix > 2**63:
                off, radix = _dense_rank(off)
            key, width = key * radix + off, width * radix
        key = np.sort(key)
        out.append((eps, min(len(key), 1) + int(np.count_nonzero(key[1:] != key[:-1]))))
    return out


def _box_slope(table: list[tuple[float, int]], n: int) -> float:
    """box_dimension's slope fit on a box_count_table of n points."""
    usable = [(e, c) for e, c in table if 2 <= c <= max(4, n // 2)]
    if len(usable) < 3:
        raise AnalysisError(
            f"only {len(usable)} usable scales (need >= 3); "
            "widen the scale range or add points"
        )
    xs = np.log(1.0 / np.array([e for e, _ in usable]))
    ys = np.log(np.array([c for _, c in usable], dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def box_dimension(points: np.ndarray, scales: Sequence[float]) -> float:
    """Least-squares slope of log N(eps) against log 1/eps.

    Scales outside the scaling window (N(eps) < 2, or saturated at more
    than half the sample) are dropped; fewer than 3 usable scales is an
    error.
    """
    pts = np.asarray(points, dtype=float)
    return _box_slope(box_count_table(pts, scales), len(pts))


def segment_sample(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    return np.column_stack([x, np.zeros(n)])


def square_sample(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


_CANTOR_BLOCK = 4096  # rows of ternary digits drawn at a time


def cantor_sample(n: int, seed: int) -> np.ndarray:
    """Uniform (Hausdorff-measure) sample of the middle-thirds Cantor set,
    to 26 ternary digits.

    The digits are 2 t_i with t_i in {0, 1}, drawn in blocks of at most
    4,096 rows; the generator's stream does not depend on the split, so
    the blocks do not show.  Each point's digit sum K = sum 2 t_i 3^(26-i) is exact in
    int64 (K < 3^26 < 2^53), and x = K / 3^26 is the double nearest the
    26-digit value.  Memory is the (n, 2) output plus one block: O(n).
    """
    rng = np.random.default_rng(seed)
    weights = 2 * 3 ** np.arange(25, -1, -1, dtype=np.int64)
    out = np.zeros((n, 2))
    for start in range(0, n, _CANTOR_BLOCK):
        rows = min(_CANTOR_BLOCK, n - start)
        out[start : start + rows, 0] = rng.integers(0, 2, size=(rows, 26)) @ weights
    out[:, 0] /= 3**26
    return out


# ---------------------------------------------------------------------------
# return-time decay


def return_decay_check(
    chain: MaxEntropyChain | None,
    census: LoopCensus,
    h_top: float,
) -> DecayFit:
    """Decay of pi_e Z*_n e^{-n h_top}.

    chain = None uses pi_e = 1 (synthetic censuses carry no stationary
    law).  A tail with at most 2 positive entries is the finite-support
    degenerate case and passes.  Otherwise kappa = exp(fit slope); the
    exponential verdict is kappa < 1.  kappa is not clipped here: a
    non-recurrent tail legitimately fits above 1.
    """
    pi_e = 1.0 if chain is None else chain.pi_of(census.base)
    lags = np.arange(1, census.horizon + 1)
    vals = np.array(
        [pi_e * census.zstar(int(nn)) * math.exp(-h_top * int(nn)) for nn in lags]
    )
    kappa, r2, used, _ = _fit_decay(lags, vals, 0.0)
    degenerate = len(used) <= 2
    if degenerate:
        kappa, r2 = 0.0, 1.0
    return DecayFit(
        lags=tuple(int(v) for v in lags),
        values=tuple(float(v) for v in vals),
        kappa=kappa,
        r2=r2,
        noise_floor=0.0,
        used=used,
        degenerate=degenerate,
        exponential=bool(degenerate or kappa < 1.0),
    )

"""Measure statistics: stationary sampling, correlation-decay fits, the
central-limit check, dimension formulas, and box-counting."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonshift import stats
from henonshift.henon import HenonMap
from henonshift.markov import MarkovGraph, build_mme, full_shift_graph, perron
from henonshift.orbits import arcsine_cdf
from henonshift.stats import (
    box_count_table,
    box_dimension,
    cantor_sample,
    chebyshev_polynomial,
    clt_test,
    coboundary,
    EmpiricalMeasure,
    coordinate,
    covariance_decay,
    lipschitz_bump,
    return_decay_check,
    sample_mme_1d,
    segment_sample,
    smoothed_indicator,
    square_sample,
    young_dimension,
)
from henonshift.words import full_model, synthetic_census


F = lambda x: x * x - 2.0


# ---------------------------------------------------------------------------
# stationary sampling


def test_sample_arcsine_route_ks():
    mu = sample_mme_1d("arcsine", 40_000, seed=5)
    xs = np.sort(mu.points)
    ecdf = np.arange(1, len(xs) + 1) / len(xs)
    d = np.max(np.abs(ecdf - arcsine_cdf(xs)))
    assert d < 1.63 / math.sqrt(len(xs))  # KS 1% band


def test_sample_chain_route_ks():
    mu = sample_mme_1d("chain", 40_000, seed=5)
    xs = np.sort(mu.points)
    ecdf = np.arange(1, len(xs) + 1) / len(xs)
    d = np.max(np.abs(ecdf - arcsine_cdf(xs)))
    assert d < 1.63 / math.sqrt(len(xs))


def test_sample_deterministic_and_invariant_in_distribution():
    a = sample_mme_1d("arcsine", 2000, seed=9)
    b = sample_mme_1d("arcsine", 2000, seed=9)
    assert np.array_equal(a.points, b.points)
    # push-forward under the map keeps the arcsine law
    pushed = np.sort(F(a.points))
    ecdf = np.arange(1, 2001) / 2000
    assert np.max(np.abs(ecdf - arcsine_cdf(pushed))) < 1.63 / math.sqrt(2000)


def test_sample_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sample_mme_1d("gaussian", 100, seed=0)


def test_measure_from_points_moments():
    mu = EmpiricalMeasure(np.array([0.0, 1.0, 2.0, 3.0]), "manual")
    assert np.mean(mu.points) == pytest.approx(1.5)
    assert np.count_nonzero((mu.points >= 0.5) & (mu.points <= 2.5)) / mu.n == 0.5


# ---------------------------------------------------------------------------
# observables


def test_observable_shapes_and_ranges():
    x = np.linspace(-2, 2, 101)
    assert np.array_equal(coordinate()(x), x)
    bump = lipschitz_bump(0.0, 1.0)(x)
    assert bump.max() == pytest.approx(1.0)
    assert bump[0] == 0.0 and bump[-1] == 0.0
    ind = smoothed_indicator(0.0, 1.0, 0.25)(x)
    assert np.all((0.0 <= ind) & (ind <= 1.0))
    assert ind[np.abs(x - 0.5) < 0.2].min() == 1.0
    t2 = chebyshev_polynomial(2)(x)
    assert np.allclose(t2, x * x - 2.0)


def test_chebyshev_polynomial_semigroup():
    x = np.linspace(-2, 2, 257)
    t1, t2, t4 = (chebyshev_polynomial(k) for k in (1, 2, 4))
    assert np.allclose(t2(t2(x)), t4(x))
    assert np.allclose(t1(x), x)


def test_coboundary_telescopes():
    phi = lambda x: np.sin(x)
    psi = coboundary(phi, F)
    x = np.linspace(-1.9, 1.9, 100)
    total = np.zeros_like(x)
    y = x.copy()
    for _ in range(50):
        total += psi(y)
        y = F(y)
    assert np.allclose(total, phi(x) - phi(y), atol=1e-10)


# ---------------------------------------------------------------------------
# correlation decay


def test_covariance_coordinate_degenerate_convention():
    mu = sample_mme_1d("arcsine", 200_000, seed=1)
    fit = covariance_decay(F, mu, coordinate(), coordinate(), n_max=8)
    assert fit.degenerate
    assert fit.exponential is None
    assert fit.kappa == 0.0
    assert fit.r2 == 1.0
    # every positive lag vanishes up to sampling noise
    assert fit.lags == tuple(range(1, 9))
    assert np.all(np.abs(fit.values) <= fit.noise_floor)


def test_covariance_chebyshev_oracle():
    # E[T_2 . (T_1 o f^n)] = 2 when 2 = 2^n, zero otherwise
    mu = sample_mme_1d("arcsine", 400_000, seed=3)
    fit = covariance_decay(
        F, mu, chebyshev_polynomial(2), chebyshev_polynomial(1), n_max=3
    )
    lag = dict(zip(fit.lags, fit.values))
    assert lag[1] == pytest.approx(2.0, abs=0.05)
    assert abs(lag[2]) <= fit.noise_floor
    assert abs(lag[3]) <= fit.noise_floor


def test_covariance_bump_genuine_exponential_fit():
    # even harmonics dominate: Fourier-Chebyshev weights ~ 1/k^2 give
    # covariances shrinking by ~1/4 per lag
    mu = sample_mme_1d("arcsine", 400_000, seed=7)
    bump = lipschitz_bump(0.0, 1.0)
    fit = covariance_decay(F, mu, bump, bump, n_max=9)
    assert not fit.degenerate
    assert fit.exponential
    assert 0.05 < fit.kappa < 0.6
    assert fit.r2 > 0.9
    assert len(fit.used) >= 3


def test_covariance_small_sample_truncates_lags():
    mu = sample_mme_1d("arcsine", 50, seed=2)
    with pytest.warns(UserWarning):
        fit = covariance_decay(F, mu, coordinate(), coordinate(), n_max=30)
    assert fit.lags[-1] < 30


def test_covariance_escaping_orbits_raise():
    mu = EmpiricalMeasure(np.full(100, 5.0), "outside")
    with pytest.raises(RuntimeError):
        covariance_decay(F, mu, coordinate(), coordinate(), n_max=4)


def test_covariance_henon_map_b_zero_accepted():
    mu = sample_mme_1d("arcsine", 100_000, seed=4)
    m = HenonMap(a=-2.0, b=0.0)
    fit = covariance_decay(m, mu, coordinate(), coordinate(), n_max=4)
    assert fit.degenerate
    m2 = HenonMap(a=-2.0, b=0.3, perturbation="classical")
    with pytest.raises(ValueError):
        covariance_decay(m2, mu, coordinate(), coordinate(), n_max=4)


def test_one_d_statistics_refuse_a_custom_perturbation():
    # at b = 0 the 1-D reduction x^2 + a would drop B = (0.05, 0) unseen
    m = HenonMap(
        a=-2.0,
        b=0.0,
        perturbation="custom",
        custom_B=lambda x, y: (0.05, 0.0),
        custom_dB=lambda x, y: np.zeros((2, 2)),
    )
    mu = sample_mme_1d("arcsine", 10_000, seed=4)
    with pytest.raises(ValueError, match="custom"):
        covariance_decay(m, mu, coordinate(), coordinate(), n_max=4)
    with pytest.raises(ValueError, match="custom"):
        clt_test(m, mu, coordinate(), n=64, trials=500, alpha=0.01, seed=1)


# ---------------------------------------------------------------------------
# central limit check


def test_clt_coordinate_passes():
    mu = sample_mme_1d("arcsine", 200_000, seed=11)
    rep = clt_test(F, mu, coordinate(), n=4096, trials=2000, alpha=0.01, seed=42)
    assert not rep.degenerate
    assert rep.passed
    assert rep.sigma_hat == pytest.approx(math.sqrt(2.0), abs=0.1)
    assert rep.p_value > 0.01


def test_clt_coboundary_degenerate():
    mu = sample_mme_1d("arcsine", 100_000, seed=12)
    psi = coboundary(lambda x: np.sin(x), F)
    rep = clt_test(F, mu, psi, n=4096, trials=600, alpha=0.01, seed=1)
    assert rep.degenerate
    assert rep.passed is None  # no verdict when the variance collapses
    assert rep.sigma_hat < 0.05 * rep.static_sd


def test_clt_zero_observable_degenerate():
    mu = sample_mme_1d("arcsine", 10_000, seed=13)
    rep = clt_test(F, mu, lambda x: np.zeros_like(x), n=256, trials=600, alpha=0.01, seed=2)
    assert rep.degenerate and rep.passed is None
    assert rep.static_sd == 0.0


def test_clt_requires_enough_trials():
    mu = sample_mme_1d("arcsine", 10_000, seed=14)
    with pytest.raises(ValueError):
        clt_test(F, mu, coordinate(), n=256, trials=100, alpha=0.01)


@pytest.mark.parametrize("n", [500, 1000, 2000, 10000])
def test_ks_pvalue_matches_scipy(n):
    sps = pytest.importorskip("scipy.stats")
    for lam in np.linspace(0.3, 4.0, 38):
        d = lam / math.sqrt(n)
        assert stats._ks_pvalue(n, d) == pytest.approx(sps.kstwo.sf(d, n), rel=0, abs=1e-6)


@pytest.mark.parametrize("n", [500, 1000, 2000, 10000])
def test_normal_ks_matches_scipy_kstest(n):
    sps = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(n)
    base = rng.standard_normal(n)
    lams = []
    # shifting the sample by c moves sqrt(n) D by about sqrt(n) c / sqrt(2 pi)
    for lam in np.linspace(0.3, 4.0, 12):
        sigma = rng.uniform(0.5, 2.0)
        S = sigma * (base + lam * math.sqrt(2.0 * math.pi / n))
        d, pval = stats._normal_ks(S, sigma)
        ref = sps.kstest(S, "norm", args=(0.0, sigma))
        assert d == pytest.approx(ref.statistic, rel=0, abs=1e-12)
        assert pval == pytest.approx(ref.pvalue, rel=0, abs=1e-6)
        lams.append(math.sqrt(n) * d)
    assert min(lams) < 1.0 and max(lams) > 3.5


def test_clt_ks_matches_scipy_kstest(monkeypatch):
    sps = pytest.importorskip("scipy.stats")
    normal_ks = stats._normal_ks
    seen = []

    def spy(S, sigma):
        seen.append((S.copy(), sigma))
        return normal_ks(S, sigma)

    monkeypatch.setattr(stats, "_normal_ks", spy)
    mu = sample_mme_1d("arcsine", 50_000, seed=16)
    rep = clt_test(F, mu, coordinate(), n=512, trials=600, alpha=0.01, seed=6)
    (S, sigma), = seen
    assert sigma == rep.sigma_hat and S.size == rep.trials
    ref = sps.kstest(S, "norm", args=(0.0, sigma))
    assert rep.statistic == pytest.approx(ref.statistic, rel=0, abs=1e-12)
    assert rep.p_value == pytest.approx(ref.pvalue, rel=0, abs=1e-6)
    assert rep.passed is bool(ref.pvalue >= 0.01)


def test_clt_deterministic_in_seed():
    mu = sample_mme_1d("arcsine", 50_000, seed=15)
    r1 = clt_test(F, mu, coordinate(), n=512, trials=600, alpha=0.01, seed=5)
    r2 = clt_test(F, mu, coordinate(), n=512, trials=600, alpha=0.01, seed=5)
    assert r1.statistic == r2.statistic and r1.p_value == r2.p_value


# ---------------------------------------------------------------------------
# dimension formulas


def test_young_dimension_values():
    # h (1/l1 - 1/l2), the two-exponent dimension count
    assert young_dimension(math.log(2), math.log(2), -math.log(2)) == pytest.approx(2.0)
    assert young_dimension(0.5, 1.0, -2.0) == pytest.approx(0.5 + 0.25)
    assert young_dimension(0.7, 0.7, -math.inf) == pytest.approx(1.0)
    assert young_dimension(0.0, 1.0, -1.0) == 0.0


def test_young_dimension_homogeneous():
    for c in (0.5, 2.0, 7.3):
        assert young_dimension(0.3 * c, 0.9 * c, -1.7 * c) == pytest.approx(
            young_dimension(0.3, 0.9, -1.7)
        )


def test_young_dimension_sign_errors():
    with pytest.raises(ValueError):
        young_dimension(-0.1, 1.0, -1.0)
    with pytest.raises(ValueError):
        young_dimension(0.1, -1.0, -1.0)
    with pytest.raises(ValueError):
        young_dimension(0.1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# box counting


def test_box_dimension_segment():
    pts = segment_sample(200_000, seed=21)
    scales = [2.0**-k for k in range(2, 10)]
    assert box_dimension(pts, scales) == pytest.approx(1.0, abs=0.05)


def test_box_dimension_square():
    pts = square_sample(400_000, seed=22)
    scales = [2.0**-k for k in range(2, 10)]
    assert box_dimension(pts, scales) == pytest.approx(2.0, abs=0.05)


def test_box_dimension_cantor_triadic_scales():
    pts = cantor_sample(300_000, seed=23)
    scales = [3.0**-k for k in range(1, 11)]
    assert box_dimension(pts, scales) == pytest.approx(math.log(2) / math.log(3), abs=0.05)


def test_box_count_table_monotone():
    pts = segment_sample(50_000, seed=24)
    table = box_count_table(pts, [0.1, 0.01, 0.001])
    eps, counts = zip(*table)
    assert counts == tuple(sorted(counts))  # finer scales count more boxes
    assert counts[0] >= 10


def test_box_dimension_needs_three_usable_scales():
    pts = segment_sample(100, seed=25)
    with pytest.raises(ValueError):
        box_dimension(pts, [0.5, 0.4])
    # scales so coarse everything lands in one box are unusable too
    with pytest.raises(ValueError):
        box_dimension(np.zeros((100, 2)), [0.5, 0.1, 0.01, 0.001])


def _reference_box_count(pts, eps):
    """Occupied boxes as distinct rows of the floored coordinates."""
    return len(np.unique(np.floor(np.asarray(pts, dtype=float) / eps), axis=0))


def _wide_sample(seed, d, far_scale):
    """A unit cluster, far points times far_scale and repeated rows: at
    eps = 1e-4 the box indices of every column span more than 2^32."""
    rng = np.random.default_rng(seed)
    near = rng.normal(size=(1500, d))
    far = rng.normal(size=(500, d)) * far_scale
    return np.concatenate([near, far, near[:100], far[:100]])


@pytest.mark.parametrize(
    "pts",
    [
        np.random.default_rng(31).normal(size=500),  # 1-D
        np.random.default_rng(32).normal(size=(500, 1)),
        np.random.default_rng(33).normal(scale=3.0, size=(2000, 2)),
        np.random.default_rng(34).normal(size=(2000, 3)),
        np.repeat(np.random.default_rng(35).random((50, 2)) - 0.5, 7, axis=0),
        cantor_sample(3000, seed=36),
        np.empty((0, 2)),
        np.array([[-0.25, 0.75]]),
        # wider than int64 in mixed radix: the partial key is ranked first
        _wide_sample(37, 2, 1e6),
        _wide_sample(38, 3, 1e6),
        # box indices up to 1e28, past int64: the columns are ranked too
        _wide_sample(39, 3, 10.0 ** np.random.default_rng(40).integers(0, 25, size=(500, 3))),
        # at eps = 1 the radices are 2^61 + 1 and 8: unless the partial key
        # is ranked, the key 2^61 * 8 wraps to 0 and merges two boxes
        np.array([[0.0, 0.0], [2.0**61, 0.0]] + [[0.0, float(j)] for j in range(1, 8)]),
        # radices 4 and R = 2^62 + 1537228672809129217: 4 R passes 2^63 even
        # after ranking the first column, and 3 R + 253 = 2^64 would merge
        # the last two rows unless the second column is ranked too
        np.array([
            [0.0, -(2.0**62)], [1.0, 1537228672809129216.0], [2.0, 0.0],
            [3.0, 1000.0], [0.0, 747.0],
        ]),
    ],
    ids=[
        "1d", "n_by_1", "2d_negative", "3d", "repeated", "cantor", "empty", "single",
        "wide_2d", "wide_3d", "huge_3d", "wrap_key", "wrap_column",
    ],
)
def test_box_count_table_matches_unique_rows(pts):
    # non-nested scales, finest first, including ones past the finest spacing
    scales = [1e-4, 0.3, 0.05, 1.0, 0.07, 2.5, 1.0 / 3.0, 0.011]
    table = box_count_table(pts, scales)
    assert [e for e, _ in table] == scales
    assert [c for _, c in table] == [_reference_box_count(pts, e) for e in scales]


def test_box_count_table_signed_zero_is_one_box():
    assert box_count_table(np.array([[0.0, 0.1], [-0.0, 0.1]]), [0.5]) == [(0.5, 1)]


@pytest.mark.parametrize(
    "pts, scales",
    [
        ([[0.1, 0.2], [math.nan, 0.3], [math.nan, 0.3], [math.inf, 0.0]], [0.1]),
        ([[0.1, 0.2], [0.3, -math.inf]], [0.1]),
        ([[1e300, 0.0], [0.0, 0.0]], [1e-10]),  # points / eps overflows
        ([[0.1, 0.2]], [math.nan]),
        ([[0.1, 0.2]], [math.inf]),
        ([[0.1, 0.2]], [0.1, 0.0]),
        ([[0.1, 0.2]], [-0.1]),
        (np.zeros((3, 0)), [0.1]),
        (np.zeros((3, 2, 2)), [0.1]),
    ],
)
def test_box_count_table_rejects_what_it_cannot_count(pts, scales):
    with pytest.raises(ValueError):
        box_count_table(np.asarray(pts, dtype=float), scales)


def test_cli_boxdim_counts_boxes_once(monkeypatch, capsys):
    from henonshift import cli

    calls = []
    real = cli.box_count_table

    def counting(points, scales):
        calls.append(len(points))
        return real(points, scales)

    monkeypatch.setattr(cli, "box_count_table", counting)
    args = ["stats", "boxdim", "--set", "cantor", "--n", "20000", "--seed", "5"]
    assert cli.main(args) == 0
    assert calls == [20000]
    out = json.loads(capsys.readouterr().out)["result"]
    pts = cantor_sample(20000, 5)
    scales = [3.0**-k for k in range(1, 11)]
    assert out["dimension"] == box_dimension(pts, scales)
    assert [(c["eps"], c["boxes"]) for c in out["counts"]] == box_count_table(pts, scales)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_boxdim_rejects_non_finite_points(tmp_path, capsys, bad):
    from henonshift import cli

    path = tmp_path / "pts.csv"
    path.write_text(f"0.1,0.2\n{bad},0.3\n0.5,0.5\n")
    assert cli.main(["stats", "boxdim", "--points", str(path)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_cantor_sample_in_middle_thirds_set():
    pts = cantor_sample(5000, seed=26)
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    # no point lies in the first deleted gap (1/3, 2/3)
    assert not np.any((pts > 1.0 / 3.0 + 1e-9) & (pts < 2.0 / 3.0 - 1e-9))


def _ternary_digits(k: np.ndarray) -> np.ndarray:
    digits = np.empty((len(k), 26), dtype=np.int64)
    for i in range(25, -1, -1):
        k, digits[:, i] = np.divmod(k, 3)
    return digits


def test_cantor_sample_is_the_exact_digit_sum_of_the_drawn_digits():
    n, seed = 10_000, 31
    pts = cantor_sample(n, seed)
    assert not pts[:, 1].any()
    k = np.rint(pts[:, 0] * 3.0**26).astype(np.int64)
    # x is the double nearest K / 3^26, bit for bit
    assert np.array_equal(k / 3.0**26, pts[:, 0])
    digits = _ternary_digits(k)
    assert np.isin(digits, (0, 2)).all()
    # the digits are those of one (n, 26) draw, whatever the blocks
    assert np.array_equal(digits, 2 * np.random.default_rng(seed).integers(0, 2, size=(n, 26)))


@pytest.mark.parametrize("m", [1, 4095, 4096, 4097, 9999])
def test_cantor_sample_blocks_do_not_show(m):
    assert np.array_equal(cantor_sample(10_000, 17)[:m], cantor_sample(m, 17))


def test_cantor_sample_memory_is_bounded():
    # warm up: keeps one-time allocations out of the peak
    cantor_sample(5_000, 8)
    tracemalloc.start()
    try:
        cantor_sample(200_000, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000  # bytes: the output is 3.2 MB; all 26 n digits would be 42 MB


# ---------------------------------------------------------------------------
# return-time decay


def test_return_decay_full_shift_exponential():
    # one first-return word per length: tail terms decay like e^{-n h}
    from henonshift.markov import count_loops

    g = full_shift_graph(2)
    chain = build_mme(perron(g), g)
    census = count_loops(g, 40)
    fit = return_decay_check(chain, census, chain.h_top)
    assert fit.exponential
    assert not fit.degenerate
    assert fit.kappa == pytest.approx(0.5, abs=1e-9)


def test_return_decay_golden_mean_finite_returns_degenerate():
    # only two first-return words exist (lengths 1 and 2): nothing to fit
    from henonshift.markov import count_loops, golden_mean_graph

    g = golden_mean_graph()
    chain = build_mme(perron(g), g)
    census = count_loops(g, 40)
    fit = return_decay_check(chain, census, chain.h_top)
    assert fit.degenerate
    assert fit.exponential


def test_return_decay_self_loop_degenerate():
    from henonshift.markov import count_loops

    g = MarkovGraph(("e",), frozenset({("e", "e")}), "e")
    chain = build_mme(perron(g), g)
    census = count_loops(g, 20)
    fit = return_decay_check(chain, census, 0.0)
    assert fit.degenerate
    assert fit.exponential


def test_return_decay_synthetic_word_census():
    model = full_model(100)
    census = synthetic_census(model, 60)
    from henonshift.markov import radii

    h_top = -math.log(radii(census).R)
    fit = return_decay_check(None, census, h_top)
    assert fit.exponential
    eps = 1.0 / math.sqrt(100)
    # tail terms Z*_n e^{-n h} stay under the prime-word envelope 2 e^{2 eps n} e^{-n h}
    for lag, val in zip(fit.lags, fit.values):
        assert val <= 2.0 * math.exp(2.0 * eps * lag) * math.exp(-lag * h_top) + 1e-12


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_sample_mean_bounded(seed):
    mu = sample_mme_1d("arcsine", 500, seed=seed)
    assert np.all(np.abs(mu.points) <= 2.0)
    assert abs(np.mean(mu.points)) < 0.5


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.1, 3.0))
def test_young_dimension_monotone_in_entropy(h, l1):
    d1 = young_dimension(h, l1, -1.0)
    d2 = young_dimension(h * 0.5, l1, -1.0)
    assert d2 <= d1 + 1e-12

"""Map family: iteration, tangent products, Lyapunov exponents, and the
sampled expansion / norm-bound / collapse condition checks."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonshift.henon import (
    _BLOCK,
    ConeField,
    HenonMap,
    check_G6,
    check_expansion_G4,
    h_times_check,
    iterate,
    lyapunov,
    most_contracted_direction,
    pce_check,
    region_sample_U,
    tangent_cocycle,
)
from henonshift.params import Params


# ---------------------------------------------------------------------------
# the map itself


def test_apply_classical():
    m = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    x, y = m.apply(0.5, 0.1)
    assert x == pytest.approx(0.5**2 - 1.4 + 0.1)
    assert y == pytest.approx(0.3 * 0.5)


def test_apply_zero_perturbation_keeps_second_coordinate_trivial():
    m = HenonMap(a=-2.0, b=0.0, perturbation="zero")
    x, y = m.apply(0.7, 123.0)  # y feeds in, nothing comes back out
    assert x == pytest.approx(0.7**2 - 2.0 + 123.0)
    assert y == 0.0


def test_jacobian_classical():
    m = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    J = m.jacobian(0.5, 0.1)
    assert np.allclose(J, [[1.0, 1.0], [0.3, 0.0]])
    assert np.linalg.det(J) == pytest.approx(-0.3)


def test_custom_perturbation_requires_derivative():
    with pytest.raises(ValueError):
        HenonMap(a=-2.0, b=1e-3, perturbation="custom", custom_B=lambda x, y: (0.0, 0.0))


def test_custom_perturbation_applies():
    m = HenonMap(
        a=-2.0,
        b=0.0,
        perturbation="custom",
        custom_B=lambda x, y: (0.1 * y, 0.0),
        custom_dB=lambda x, y: np.array([[0.0, 0.1], [0.0, 0.0]]),
    )
    # custom term adds on top of the unperturbed (x^2 + a + y, .)
    x, y = m.apply(0.0, 1.0)
    assert x == pytest.approx(-2.0 + 1.0 + 0.1)
    assert y == 0.0
    assert np.allclose(m.jacobian(0.0, 1.0), [[0.0, 1.1], [0.0, 0.0]])


def _classical_twin(m):
    """The classical map m written as a custom perturbation B = (0, b x)."""
    b = m.b
    return HenonMap(
        a=m.a,
        b=b,
        perturbation="custom",
        custom_B=lambda x, y: (0.0, b * x),
        custom_dB=lambda x, y: np.array([[0.0, 0.0], [b, 0.0]]),
    )


def _step(m: HenonMap, Z: np.ndarray) -> np.ndarray:
    """f at every row of an (n, 2) array, from one apply on its columns."""
    return np.column_stack(np.broadcast_arrays(*m.apply(Z[:, 0], Z[:, 1])))


@pytest.mark.parametrize("kind", ["zero", "classical", "custom"])
def test_step_and_jac_are_the_scalar_map_on_every_row(kind):
    classical = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    twin = _classical_twin(classical)
    m = {"zero": HenonMap(a=-1.4, b=0.3), "classical": classical, "custom": twin}[kind]
    Z = np.random.default_rng(1).uniform(-2.0, 2.0, (7, 2))
    assert _step(m, Z).shape == (7, 2) and m.jac(Z).shape == (7, 2, 2)
    assert np.array_equal(_step(m, Z), [m.apply(x, y) for x, y in Z])
    assert np.array_equal(m.jac(Z), [m.jacobian(x, y) for x, y in Z])
    assert _step(m, Z[:0]).shape == (0, 2) and m.jac(Z[:0]).shape == (0, 2, 2)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_custom_twin_step_and_jac_equal_classical_to_the_bit(n):
    classical = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    twin = _classical_twin(classical)
    Z = np.random.default_rng(2).uniform(-2.0, 2.0, (n, 2))
    assert _step(twin, Z).tobytes() == _step(classical, Z).tobytes()
    assert twin.jac(Z).tobytes() == classical.jac(Z).tobytes()


def test_apply_on_arrays_gives_a_float_for_a_constant_coordinate():
    m = HenonMap(a=-1.4)
    x, y = m.apply(np.array([0.5, 1.0]), np.array([0.0, 0.1]))
    assert np.array_equal(x, [m.apply(0.5, 0.0)[0], m.apply(1.0, 0.1)[0]])
    assert type(y) is float and y == 0.0


@pytest.mark.parametrize(
    "dB",
    [
        lambda x, y: ((0.0, 0.0), (-0.01 * math.sin(x), 0.0)),  # math on an array
        lambda x, y: np.array([[0.0, 0.0], [-0.01 * np.sin(x), 0.0]]),  # ragged
    ],
)
def test_custom_callable_that_does_not_broadcast_is_refused(dB):
    m = HenonMap(
        a=-1.4,
        b=0.01,
        perturbation="custom",
        custom_B=lambda x, y: (0.0, 0.01 * math.cos(x)),
        custom_dB=dB,
    )
    Z = np.full((3, 2), 0.5)
    for call in (lambda Z: _step(m, Z), m.jac, lambda Z: check_G6(m, Z, Params(M=100))):
        with pytest.raises(ValueError, match="numpy broadcasting"):
            call(Z)


def test_iterate_period_two_orbit():
    # x^2 - 1 swaps 0 and -1
    m = HenonMap(a=-1.0, b=0.0)
    seg = iterate(m, (0.0, 0.0), 6)
    assert not seg.escaped
    xs = seg.points[:, 0]
    assert np.allclose(xs, [0, -1, 0, -1, 0, -1, 0])


def test_iterate_reports_escape_time():
    m = HenonMap(a=3.0, b=0.0)
    seg = iterate(m, (3.0, 0.0), 50)
    assert seg.escaped
    assert seg.escape_time is not None and seg.escape_time < 5
    assert len(seg.points) == seg.escape_time  # only in-radius points kept


def _iterate_peak(m, z, n):
    iterate(m, z, 10)  # keeps one-time caches out of the peak
    tracemalloc.start()
    try:
        seg = iterate(m, z, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return seg, peak


def test_iterate_memory_follows_the_orbit_returned():
    # the orbit escapes at step 1, so a horizon of 10^7 must not cost
    # 10^7 points
    seg, peak = _iterate_peak(HenonMap(a=3.0), (3.0, 0.0), 10**7)
    assert seg.escape_time == 1
    assert peak < 1_000_000  # bytes: 160 MB would hold all 10^7 + 1 points
    # an orbit that runs its whole horizon holds its points about once, not
    # once in blocks and again in the array returned
    n = 200_000
    seg, peak = _iterate_peak(HenonMap(a=-2.0), (0.3, 0.0), n)
    assert not seg.escaped and len(seg) == n + 1
    assert peak < 1.75 * seg.points.nbytes


_FROM_A_POINT = {
    "iterate": iterate,
    "tangent_cocycle": lambda m, z, n: tangent_cocycle(m, z, (1.0, 0.0), n),
    "lyapunov": lyapunov,
}


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan), (-math.inf, 0.0)])
@pytest.mark.parametrize("call", sorted(_FROM_A_POINT))
def test_non_finite_start_point_is_refused(call, point):
    # abs(nan) > r is false, so a NaN orbit would never escape
    with pytest.raises(ValueError, match=re.escape(f"got ({point[0]}, {point[1]})")):
        _FROM_A_POINT[call](HenonMap(a=-2.0), point, 100)


# ---------------------------------------------------------------------------
# Lyapunov exponents


def test_lyapunov_chebyshev_log2():
    m = HenonMap(a=-2.0, b=0.0)
    l1, l2 = lyapunov(m, (0.13817, 0.0), 200_000)
    assert l1 == pytest.approx(math.log(2.0), abs=5e-3)
    assert l2 == -math.inf


def test_lyapunov_classical_attractor_benchmark():
    m = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    l1, l2 = lyapunov(m, (0.0, 0.0), 300_000)
    assert l1 == pytest.approx(0.419, abs=0.01)
    # constant-determinant identity: l1 + l2 = log |det Df| = log b
    assert l1 + l2 == pytest.approx(math.log(0.3), abs=1e-9)


def test_lyapunov_escaping_orbit_raises():
    m = HenonMap(a=3.0, b=0.0)
    with pytest.raises(RuntimeError):
        lyapunov(m, (3.0, 0.0), 1000)


def test_lyapunov_memory_is_bounded():
    m = HenonMap(a=-2.0, b=0.0)
    # warm up: keeps one-time caches out of the peak, and a cold first call
    # runs about four times slower under tracemalloc
    lyapunov(m, (0.13817, 0.0), 2_000)
    tracemalloc.start()
    try:
        lyapunov(m, (0.13817, 0.0), 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # bytes: the ladder would take 32 per step


def test_custom_twin_cocycle_and_lyapunov_equal_classical_exactly():
    m = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    twin = _classical_twin(m)
    n = 3000  # several blocks of the recurrence
    tp = tangent_cocycle(m, (0.1, 0.05), (0.6, 0.8), n)
    tt = tangent_cocycle(twin, (0.1, 0.05), (0.6, 0.8), n)
    assert np.array_equal(tt.ell, tp.ell)
    assert np.array_equal(tt.logdets, tp.logdets)
    assert np.array_equal(tt.directions, tp.directions)
    assert lyapunov(twin, (0.0, 0.0), n) == lyapunov(m, (0.0, 0.0), n)
    # the ladder carries across blocks: a plain loop over the scalar map
    x, y, u, ell = 0.1, 0.05, np.array([0.6, 0.8]), 0.0
    for _ in range(n):
        v = m.jacobian(x, y) @ u
        ell += math.log(np.linalg.norm(v))
        u = v / np.linalg.norm(v)
        x, y = m.apply(x, y)
    assert tp.ell[n] == pytest.approx(ell, rel=1e-12)


def test_tangent_cocycle_logdets_match_jacobians():
    m = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    tp = tangent_cocycle(m, (0.1, 0.05), (1.0, 0.0), 20)
    assert not tp.escaped
    assert tp.logdets.shape == (20,)
    assert np.allclose(tp.logdets, math.log(0.3))
    # ladder is the log norm of the running product applied to u
    seg = iterate(m, (0.1, 0.05), 20)
    J = np.eye(2)
    for x, y in seg.points[:-1]:
        J = m.jacobian(x, y) @ J
    assert tp.ell[-1] == pytest.approx(math.log(np.linalg.norm(J @ np.array([1.0, 0.0]))))


def test_tangent_cocycle_directions_unit():
    m = HenonMap(a=-1.31, b=0.2, perturbation="classical")
    tp = tangent_cocycle(m, (0.2, 0.0), (0.6, 0.8), 30)
    norms = np.linalg.norm(tp.directions, axis=1)
    assert np.allclose(norms[~np.isinf(tp.ell)], 1.0)


# ---------------------------------------------------------------------------
# condition checks


def test_g6_norm_bounds_on_sampled_region():
    params = Params(M=100)
    m = HenonMap(a=-2.0 + 1e-4, b=params.b, perturbation="classical")
    sample = region_sample_U(m, params, 4000, seed=7)
    rep = check_G6(m, sample, params)
    assert rep.ok
    assert rep.bound == pytest.approx(5.0)
    assert 4.0 < rep.sup_Tf < 5.0
    assert rep.sup_T2f <= rep.bound


def test_g6_flags_violation_outside_region():
    params = Params(M=100)
    m = HenonMap(a=-2.0, b=0.0)
    rep = check_G6(m, [(4.0, 0.0)], params)  # |2x| = 8 > 5
    assert not rep.ok
    assert rep.argmax == (4.0, 0.0)


def test_g6_second_derivative_of_a_custom_map_over_the_whole_sample():
    params = Params(M=100)
    m = _square_kernel_map(-1.4)
    sample = region_sample_U(m, params, 2000, seed=5)
    rep = check_G6(m, sample, params)
    # B = (0, 0.05 x^2) has |D^2 B| = 0.1 in the direction (1, 0)
    assert rep.sup_T2f == max(m.second_derivative_norm(x, y) for x, y in sample.tolist())
    assert rep.sup_T2f == pytest.approx(2.1, abs=1e-4)


def test_g4_expansion_near_right_end():
    params = Params(M=100)
    m = HenonMap(a=-2.0, b=0.0)
    xs = np.linspace(1.7, 1.99, 40)
    sample = [((x, 0.0), (1.0, 0.0)) for x in xs]
    rep = check_expansion_G4(m, sample, n_s=2, params=params)
    assert rep.pass_fraction == 1.0
    assert rep.worst_margin > 0.2
    assert rep.count == 40


def test_g4_detects_contraction_near_turning_point():
    params = Params(M=100)
    m = HenonMap(a=-2.0, b=0.0)
    sample = [((0.01, 0.0), (1.0, 0.0))]  # |2x| = 0.02 << e^c
    rep = check_expansion_G4(m, sample, n_s=1, params=params)
    assert rep.pass_fraction == 0.0
    assert not rep.expansion_ok[0]


def test_g4_cone_invariance_flagged():
    params = Params(M=100)
    m = HenonMap(a=-1.4, b=0.3, perturbation="classical")
    # at x = 0 the tangent map sends (1, 0) to (0, b), out of the horizontal cone
    sample = [((0.0, 0.1), (1.0, 0.0))]
    rep = check_expansion_G4(m, sample, n_s=1, params=params)
    assert not rep.cone_ok[0]


def test_hyperbolic_times_at_expanding_fixed_point():
    params = Params(M=100)
    m = HenonMap(a=-2.0, b=0.0)
    tp = tangent_cocycle(m, (-1.0, 0.0), (1.0, 0.0), 40)  # |2x| = 2 every step
    assert all(h_times_check(tp, n, params) for n in range(1, 41))


def test_hyperbolic_times_fail_after_contraction():
    params = Params(M=100)
    m = HenonMap(a=-2.0, b=0.0)
    # 1.8 -> 1.24 -> -0.4624: third step multiplies by |2x| ~ 0.92
    tp = tangent_cocycle(m, (1.8, 0.0), (1.0, 0.0), 6)
    assert not h_times_check(tp, 3, params)


def test_pce_holds_for_generic_vector():
    params = Params(M=9)
    m = HenonMap(a=-2.0, b=0.0)
    tp = tangent_cocycle(m, (0.3, 0.0), (1.0, 0.0), 30)
    assert all(pce_check(tp, k, params) for k in range(1, 31))


def test_pce_fails_only_on_exact_collapse():
    params = Params(M=9)
    m = HenonMap(a=-2.0, b=0.0)
    x0 = 0.3
    tp = tangent_cocycle(m, (x0, 0.0), (1.0, -2.0 * x0), 5)  # kernel direction
    assert tp.ell[1] == -math.inf
    assert not pce_check(tp, 1, params)


def _square_kernel_map(a):
    """B = (0, 0.05 x^2): Tf is singular on the line x = 0."""
    return HenonMap(
        a=a,
        b=0.05,
        perturbation="custom",
        custom_B=lambda x, y: (0.0, 0.05 * x * x),
        custom_dB=lambda x, y: ((0.0, 0.0), (0.1 * x, 0.0)),
    )


def test_tangent_cocycle_follows_the_orbit_past_a_kernel():
    # u = (1, 0) lies in the kernel of Tf(0, 0); the orbit goes on
    m = _square_kernel_map(-1.4)
    tp = tangent_cocycle(m, (0.0, 0.0), (1.0, 0.0), 6)
    assert tp.ell[0] == 0.0 and np.all(tp.ell[1:] == -math.inf)
    assert np.isnan(tp.directions[1:]).all()
    seg = iterate(m, (0.0, 0.0), 6)
    expected = [math.log(abs(np.linalg.det(m.jacobian(x, y)))) for x, y in seg.points[1:-1]]
    assert tp.logdets[0] == -math.inf
    assert tp.logdets[1] == pytest.approx(-1.97, abs=0.005)
    assert tp.logdets[1:] == pytest.approx(expected, rel=1e-12)
    assert not tp.escaped and tp.escape_time is None and tp.n == 6


def test_tangent_cocycle_reports_escape_after_a_kernel():
    # at a = 3 the orbit of (0, 0) leaves radius 10 at step 2
    tp = tangent_cocycle(_square_kernel_map(3.0), (0.0, 0.0), (1.0, 0.0), 6)
    assert tp.escaped and tp.escape_time == 2 and tp.n == 2
    assert len(tp.ell) == 3 and len(tp.logdets) == 2
    assert tp.logdets[1] == pytest.approx(math.log(0.3))


def _reference_cocycle(m, point, u, n, escape_radius=10.0):
    """The scalar tangent recurrence, one Jacobian and one renormalisation
    per step: (ell, directions, logdets, escape_time) as tangent_cocycle
    defines them."""
    x, y = float(point[0]), float(point[1])
    ux, uy = np.array(u, dtype=float) / math.hypot(*u)
    s = 0.0
    ell, dirs, logdets = [0.0], [(ux, uy)], []
    for k in range(1, n + 1):
        (j00, j01), (j10, j11) = m.jacobian(x, y)
        det = abs(j00 * j11 - j01 * j10)
        logdets.append(math.log(det) if det else -math.inf)
        vx, vy = j00 * ux + j01 * uy, j10 * ux + j11 * uy
        vnorm = math.hypot(vx, vy)
        if vnorm == 0.0:  # an exact kernel: the vector stays zero
            ux = uy = 0.0
            ell.append(-math.inf)
            dirs.append((math.nan, math.nan))
        else:
            s += math.log(vnorm)
            ux, uy = vx / vnorm, vy / vnorm
            ell.append(s)
            dirs.append((ux, uy))
        x, y = m.apply(x, y)
        if abs(x) > escape_radius or abs(y) > escape_radius:
            return np.array(ell), np.array(dirs), np.array(logdets), k
    return np.array(ell), np.array(dirs), np.array(logdets), None


_CLASSICAL = HenonMap(a=-1.4, b=0.3, perturbation="classical")
_COCYCLE_CASES = {
    "zero": (HenonMap(a=-2.0), (0.13817, 0.0), (0.6, 0.8)),
    "zero_kernel_u": (HenonMap(a=-2.0), (0.3, 0.0), (1.0, -0.6)),
    "zero_escapes": (HenonMap(a=-2.0), (2.0001, 0.0), (0.6, 0.8)),
    "classical": (_CLASSICAL, (0.1, 0.05), (0.6, 0.8)),
    "classical_small_b": (
        HenonMap(a=-1.9, b=1e-3, perturbation="classical"), (0.2, 0.0), (1.0, 0.0)
    ),
    "custom_twin": (_classical_twin(_CLASSICAL), (0.1, 0.05), (0.6, 0.8)),
    "square_kernel": (_square_kernel_map(-1.4), (0.1, 0.0), (0.6, 0.8)),
    "square_kernel_u": (_square_kernel_map(-1.4), (0.0, 0.0), (1.0, 0.0)),
    "square_escapes": (_square_kernel_map(3.0), (0.0, 0.0), (1.0, 0.0)),
    # step 1 lands at (2.61, 11.4): the orbit leaves on y, not on x
    "classical_escapes_on_y": (
        HenonMap(a=-1.0, b=6.0, perturbation="classical"), (1.9, 0.0), (0.6, 0.8)
    ),
}
# block seams and a partial last block
_SEAM_NS = [1, 20, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17]


@pytest.mark.parametrize("n", _SEAM_NS)
@pytest.mark.parametrize("case", sorted(_COCYCLE_CASES))
def test_tangent_cocycle_matches_the_scalar_recurrence(case, n):
    # the prefix products reorder the arithmetic, so the ladder (a log) and
    # the unit directions agree to a few hundred ulps, while the logdets
    # and every exact event are equal
    m, point, u = _COCYCLE_CASES[case]
    ell, dirs, logdets, escape_time = _reference_cocycle(m, point, u, n)
    tp = tangent_cocycle(m, point, u, n)
    assert (tp.escaped, tp.escape_time) == (escape_time is not None, escape_time)
    assert tp.n == (n if escape_time is None else escape_time)
    assert np.array_equal(tp.ell == -math.inf, ell == -math.inf)
    assert np.array_equal(np.isnan(tp.directions), np.isnan(dirs))
    np.testing.assert_allclose(tp.ell, ell, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tp.directions, dirs, rtol=0.0, atol=1e-12)
    assert np.array_equal(tp.logdets, logdets)


@pytest.mark.parametrize("n", _SEAM_NS)
@pytest.mark.parametrize("case", sorted(_COCYCLE_CASES))
def test_lyapunov_is_the_last_rung_of_the_ladder(case, n):
    # lyapunov forms only each block's last product, by a pairwise tree;
    # it must give the prefix scan's last entry to the bit
    m, point, _ = _COCYCLE_CASES[case]
    tp = tangent_cocycle(m, point, (1.0, 0.0), n)
    if tp.escaped:
        with pytest.raises(RuntimeError, match=f"escaped at step {tp.escape_time}$"):
            lyapunov(m, point, n)
    else:
        assert lyapunov(m, point, n)[0] == tp.ell[n] / n


def _reference_orbit(m, point, n, escape_radius=10.0):
    """The orbit by one apply call per step: (points, escape_time) as
    iterate defines them."""
    x, y = float(point[0]), float(point[1])
    pts = [(x, y)]
    for k in range(1, n + 1):
        x, y = m.apply(x, y)
        if abs(x) > escape_radius or abs(y) > escape_radius:
            return np.array(pts), k
        pts.append((x, y))
    return np.array(pts), None


@pytest.mark.parametrize("n", [0] + _SEAM_NS)
@pytest.mark.parametrize("case", sorted(_COCYCLE_CASES))
def test_iterate_matches_one_apply_per_step(case, n):
    # the built-in maps step without calling apply: the points agree to
    # the bit, signs of zero included
    m, point, _ = _COCYCLE_CASES[case]
    want, escape_time = _reference_orbit(m, point, n)
    seg = iterate(m, point, n)
    assert (seg.escaped, seg.escape_time) == (escape_time is not None, escape_time)
    assert seg.n_requested == n
    assert seg.points.shape == want.shape
    assert seg.points.tobytes() == want.tobytes()


def test_lyapunov_returns_python_floats():
    for m in (HenonMap(a=-2.0), _CLASSICAL):
        l1, l2 = lyapunov(m, (0.1, 0.0), _BLOCK + 5)
        assert type(l1) is float and type(l2) is float


def test_most_contracted_direction_is_kernel_at_b_zero():
    m = HenonMap(a=-2.0, b=0.0)
    x0 = 0.4
    e1, gap = most_contracted_direction(m, (x0, 0.0), 1)
    want = np.array([1.0, -2.0 * x0])
    want /= np.linalg.norm(want)
    assert min(np.linalg.norm(e1 - want), np.linalg.norm(e1 + want)) < 1e-12
    assert gap > 0


def test_most_contracted_direction_rejects_conformal_jacobian():
    m = HenonMap(
        a=0.0,
        b=0.0,
        perturbation="custom",
        custom_B=lambda x, y: (0.5 * x - 1.25 * y, 0.25 * x + 0.5 * y),
        custom_dB=lambda x, y: np.array([[0.5, -1.25], [0.25, 0.5]]),
    )
    # total Jacobian at the origin is a similarity: equal singular values
    with pytest.raises(ValueError):
        most_contracted_direction(m, (0.0, 0.0), 1)


def test_region_sample_collapses_to_segment_at_b_zero():
    params = Params(M=100, b=0.0)  # theta = 0: no vertical thickening
    m = HenonMap(a=-2.0, b=0.0)
    pts = region_sample_U(m, params, 500, seed=3)
    assert pts.shape == (500, 2)
    assert np.all(pts[:, 1] == 0.0)
    assert pts[:, 0].min() >= -2.0 - 1e-9
    assert pts[:, 0].max() <= 2.0 + 1e-9


def test_region_sample_deterministic_in_seed():
    params = Params(M=64)
    m = HenonMap(a=-1.9, b=params.b, perturbation="classical")
    p1 = region_sample_U(m, params, 100, seed=11)
    p2 = region_sample_U(m, params, 100, seed=11)
    p3 = region_sample_U(m, params, 100, seed=12)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


# ---------------------------------------------------------------------------
# cones and serialization


def test_cone_contains_symmetric():
    cone = ConeField(center=(1.0, 0.0), half_angle=0.3)
    assert cone.contains((1.0, 0.1))
    assert cone.contains((-1.0, -0.1))  # same line
    assert not cone.contains((1.0, 1.0))


def test_cone_rejects_flat_half_angle():
    with pytest.raises(ValueError):
        ConeField(center=(1.0, 0.0), half_angle=1.5)


@pytest.mark.parametrize("u", [(math.nan, math.nan), (math.inf, 1.0)], ids=["nan", "inf"])
def test_cone_refuses_a_non_finite_direction(u):
    cone = ConeField(center=(1.0, 0.0), half_angle=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        cone.angle_to(u)
    with pytest.raises(ValueError, match="non-finite"):
        cone.contains(u)


@pytest.mark.parametrize(
    "center,u",
    [((1.0, 0.0), (1.7e308, 1.7e308)), ((1.7e308, 1.7e308), (1.0, 0.0))],
    ids=["large-u", "large-center"],
)
def test_cone_angle_near_the_float_limit(center, u):
    # a norm formed from the raw components would overflow to inf here
    assert ConeField(center=center, half_angle=0.7).angle_to(u) == pytest.approx(
        math.pi / 4, abs=1e-15
    )


def test_cone_rejects_a_non_finite_center():
    with pytest.raises(ValueError, match="finite"):
        ConeField(center=(math.nan, 0.0), half_angle=0.1)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-2.0, 0.0),
    st.floats(0.0, 0.3),
    st.floats(-1.0, 1.0),
    st.floats(-0.3, 0.3),
)
def test_jacobian_is_derivative_of_apply(a, b, x, y):
    m = HenonMap(a=a, b=b, perturbation="classical" if b else "zero")
    J = m.jacobian(x, y)
    h = 1e-6
    for i, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
        fp = np.array(m.apply(x + dx, y + dy))
        fm = np.array(m.apply(x - dx, y - dy))
        assert np.allclose((fp - fm) / (2 * h), J[:, i], atol=1e-5)

"""The quadratic family with small perturbations, and its derivative checks.

The map is (x, y) -> (x^2 + a + y, 0) + B(x, y); built-in perturbations are
B = 0 and the classical B = (0, b x), both with |det Tf| <= b everywhere.
HenonMap evaluates f and Tf on arrays of points, and the p-step chain rule
and the tangent recurrence below serve every perturbation alike.
On top sit the tangent cocycle (log-norm ladder, safe for 10^7 steps), cone
fields, the sampled expansion and norm-bound checkers, hyperbolic-times and
partial-collapse inequalities, most-contracted directions, and Lyapunov
exponents.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .params import Params

__all__ = [
    "HenonMap",
    "ConeField",
    "horizontal_cone",
    "OrbitSegment",
    "TangentProduct",
    "map_from_dict",
    "map_to_dict",
    "load_map",
    "iterate",
    "tangent_cocycle",
    "region_sample_U",
    "G4Report",
    "check_expansion_G4",
    "G6Report",
    "check_G6",
    "h_times_check",
    "pce_check",
    "most_contracted_direction",
    "lyapunov",
]

_PERTURBATIONS = ("zero", "classical", "custom")
# An orbit counts as escaped once |x| or |y| exceeds this.
_ESCAPE_RADIUS = 10.0


@dataclass(frozen=True)
class HenonMap:
    """(x, y) -> (x^2 + a + y, 0) + B with ||B||_C2 <= b.

    perturbation "zero" gives the 1-D quadratic family on R x {0};
    "classical" is B = (0, b x) (det = -b everywhere); "custom" takes
    callables custom_B(x, y) -> (bx, by) and custom_dB(x, y) ->
    ((e00, e01), (e10, e11)) (or a (2, 2) or (2, 2, n) array) that follow
    numpy broadcasting: x, y are floats or arrays of one shape, and each
    entry is a float or an array that broadcasts to x.  B = (0, eps sin x) is
        custom_B=lambda x, y: (0.0, eps * np.sin(x)),
        custom_dB=lambda x, y: ((0.0, 0.0), (eps * np.cos(x), 0.0)),
    and a callable that does not broadcast, such as math.sin, raises ValueError.
    """

    a: float
    b: float = 0.0
    perturbation: str = "zero"
    custom_B: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    custom_dB: Callable[[np.ndarray, np.ndarray], tuple | np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.perturbation not in _PERTURBATIONS:
            raise ValueError(f"unknown perturbation {self.perturbation!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"a and b must be finite, got a = {self.a}, b = {self.b}")
        if self.b < 0:
            raise ValueError("b must be >= 0")
        if self.perturbation == "custom" and None in (self.custom_B, self.custom_dB):
            raise ValueError("custom perturbation needs custom_B and custom_dB")

    # apply, _jac_entries and second_derivative_norm take floats or arrays
    # x, y; what is the same at every point comes back as a float.

    def apply(self, x, y) -> tuple:
        """The coordinates of f at the points (x, y)."""
        if self.perturbation == "zero":
            return (x * x + self.a + y, 0.0)
        if self.perturbation == "classical":
            return (x * x + self.a + y, self.b * x)
        bx, by = _broadcasting(self.custom_B, x, y)
        return (x * x + self.a + y + bx, by)

    def step(self, Z: np.ndarray) -> np.ndarray:
        """f at every row of an (n, 2) array, as (n, 2)."""
        F = np.empty((len(Z), 2))
        F[:, 0], F[:, 1] = self.apply(Z[:, 0], Z[:, 1])
        return F

    def jac(self, Z: np.ndarray) -> np.ndarray:
        """Tf at every row of an (n, 2) array, as (n, 2, 2)."""
        J = np.empty((len(Z), 2, 2))
        (J[:, 0, 0], J[:, 0, 1]), (J[:, 1, 0], J[:, 1, 1]) = self._jac_entries(Z[:, 0], Z[:, 1])
        return J

    def jacobian(self, x: float, y: float) -> np.ndarray:
        return self.jac(np.array([[x, y]], dtype=float))[0]

    def _jac_entries(self, x, y) -> tuple[tuple, tuple]:
        """The entries ((d00, d01), (d10, d11)) of Tf at the points (x, y);
        float entries keep a chain rule as cheap as a built-in's closed form."""
        d00 = 2.0 * x
        if self.perturbation == "custom":
            (e00, e01), (e10, e11) = _broadcasting(self.custom_dB, x, y)
            return (d00 + e00, 1.0 + e01), (e10, e11)
        return (d00, 1.0), (self.b if self.perturbation == "classical" else 0.0, 0.0)

    def second_derivative_norm(self, x, y):
        """Operator norm of the second derivative at the points (x, y): 2
        for the built-ins, 2 plus the largest central second difference of
        B over three directions for a custom map."""
        if self.perturbation != "custom":
            return 2.0
        h = 1e-5
        cx, cy = _broadcasting(self.custom_B, x, y)
        worst = 0.0
        for ux, uy in ((1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5))):
            px, py = _broadcasting(self.custom_B, x + h * ux, y + h * uy)
            mx, my = _broadcasting(self.custom_B, x - h * ux, y - h * uy)
            worst = np.maximum(worst, np.hypot(px + mx - 2 * cx, py + my - 2 * cy) / h**2)
        return 2.0 + worst


def _broadcasting(fn: Callable, x, y):
    """fn(x, y) for a custom callable, which must follow numpy broadcasting."""
    try:
        return fn(x, y)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"custom_B and custom_dB must follow numpy broadcasting: {exc}") from exc


def map_from_dict(data: dict) -> HenonMap:
    """Build a map from {"a": ..., "b": ..., "perturbation": "classical"}."""
    try:
        a = float(data["a"])
        b = float(data.get("b", 0.0))
        pert = str(data.get("perturbation", "zero"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed map document: {exc}") from exc
    if pert == "custom":
        raise ValueError("custom perturbations cannot be loaded from JSON")
    return HenonMap(a=a, b=b, perturbation=pert)


def map_to_dict(m: HenonMap) -> dict:
    return {"a": m.a, "b": m.b, "perturbation": m.perturbation}


def load_map(path: str) -> HenonMap:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_dict(json.load(fh))


@dataclass(frozen=True)
class ConeField:
    """Symmetric cone of directions within half_angle of +-center."""

    center: tuple[float, float] = (1.0, 0.0)
    half_angle: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.half_angle < math.pi / 4:
            raise ValueError("half-angle must lie in (0, pi/4)")
        if not all(map(math.isfinite, self.center)):
            raise ValueError("center direction must be finite")
        if math.hypot(*self.center) == 0:
            raise ValueError("center direction must be nonzero")

    def angle_to(self, u: Sequence[float]) -> float:
        if not (math.isfinite(u[0]) and math.isfinite(u[1])):
            raise ValueError("non-finite vector has no direction")
        # each vector over its largest |component|, so no product or norm overflows
        su, sc = max(abs(u[0]), abs(u[1])), max(map(abs, self.center))
        if su == 0:
            raise ValueError("zero vector has no direction")
        ux, uy, cx, cy = u[0] / su, u[1] / su, self.center[0] / sc, self.center[1] / sc
        cosv = abs(ux * cx + uy * cy) / (math.hypot(cx, cy) * math.hypot(ux, uy))
        return math.acos(min(1.0, cosv))

    def contains(self, u: Sequence[float]) -> bool:
        return self.angle_to(u) <= self.half_angle


def horizontal_cone() -> ConeField:
    """The cone of half-angle 0.5 about the horizontal direction."""
    return ConeField((1.0, 0.0), 0.5)


@dataclass(frozen=True)
class OrbitSegment:
    points: np.ndarray  # shape (m+1, 2), orbit up to escape
    escaped: bool
    escape_time: int | None
    n_requested: int

    def __len__(self) -> int:
        return self.points.shape[0]


def iterate(m: HenonMap, point: Sequence[float], n: int) -> OrbitSegment:
    """Forward orbit; stops early (flagged) once |x| or |y| exceeds the
    escape radius."""
    if n < 0:
        raise ValueError("n must be >= 0")
    z = _start_point(point)
    pts = np.empty((n + 1, 2))
    pts[0] = z
    k = 0
    for xs, ys, escaped in _orbit_blocks(m, z, n):
        pts[k + 1 : k + len(xs), 0], pts[k + 1 : k + len(xs), 1] = xs[1:], ys[1:]
        k += len(xs) - 1
        if escaped:  # pts[k] is the first point outside the radius
            return OrbitSegment(
                points=pts[:k].copy(), escaped=True, escape_time=k, n_requested=n
            )
    return OrbitSegment(points=pts, escaped=False, escape_time=None, n_requested=n)


def _start_point(point: Sequence[float]) -> tuple[float, float]:
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"start point must be finite, got ({x}, {y})")
    return x, y


# Steps per block of the orbit walk: it bounds the memory that lyapunov
# holds at any time, whatever the horizon.  A block's prefix products take
# log2(_BLOCK) doubling levels, and its one product as many pairwise levels.
_BLOCK = 4096


def _orbit_blocks(
    m: HenonMap, z: tuple[float, float], n: int
) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """The orbit of z, up to n steps, one block of at most _BLOCK steps at
    a time.

    Yields, per block of L steps, the coordinates xs and ys of the L + 1
    points z_k, ..., z_{k+L} its steps run through, and whether the orbit
    escaped at the last step: z_{k+L} is then the first point outside the
    escape radius, and the walk ends.  Each block starts at the point where
    the one before it ended.  The built-in maps step on local floats, with
    no call per step; a custom map pays one apply call per step.
    """
    custom = m.perturbation == "custom"
    c = m.b if m.perturbation == "classical" else 0.0
    x, y = z
    k = 0
    while k < n:
        L = min(_BLOCK, n - k)
        # arrays of doubles, not lists of floats: a block holds no Python
        # object per step
        xs = array("d", bytes(8 * (L + 1)))
        y0 = y
        if custom:
            ys = array("d", bytes(8 * (L + 1)))
            x, y, steps, escaped = _walk_custom(m.apply, xs, ys, x, y, L)
            ys[steps] = y
            Y = np.frombuffer(ys)[: steps + 1]
        else:
            x, y, steps, escaped = _walk_builtin(m.a, c, xs, x, y, L)
            # a built-in map's y after a step depends on x alone
            Y = np.empty(steps + 1)
            Y[0] = y0
            Y[1:] = m.apply(np.frombuffer(xs)[:steps], 0.0)[1]
        xs[steps] = x
        k += steps
        yield np.frombuffer(xs)[: steps + 1], Y, escaped
        if escaped:
            return


# The walks of _orbit_blocks, one step per pass, each in a function of its
# own: a loop in a generator's frame runs about twice as slowly under
# tracemalloc.  Each stores the x (and ys the y) of every point that a step
# starts from and returns the point after its last step, the steps taken
# and whether that point lies outside the escape radius.


def _walk_builtin(a: float, c: float, xs: array, x: float, y: float, L: int) -> tuple:
    """L steps of (x, y) -> (x^2 + a + y, c x) on floats: c is b for the
    classical map and 0 for the zero map."""
    r = _ESCAPE_RADIUS  # a local: the loop runs once per step
    for i in range(L):
        xs[i] = x
        x, y = x * x + a + y, c * x
        if abs(x) > r or abs(y) > r:
            return x, y, i + 1, True
    return x, y, L, False


def _walk_custom(
    apply: Callable, xs: array, ys: array, x: float, y: float, L: int
) -> tuple:
    """L steps of apply, one call per step."""
    r = _ESCAPE_RADIUS
    for i in range(L):
        xs[i] = x
        ys[i] = y
        x, y = apply(x, y)
        if abs(x) > r or abs(y) > r:
            return x, y, i + 1, True
    return x, y, L, False


def _chain_rule(m: HenonMap, x: np.ndarray, y: np.ndarray, p: int) -> Iterator[tuple]:
    """The p-step chain rule at the points (x, y): yields k, the coordinates
    of f^k and the rows of Tf^k, each (2, n), for k = 1, ..., p."""
    r0, r1 = np.zeros((2, 2, len(x)))  # the rows of J = Tf^k, each (2, n)
    r0[0] = r1[1] = 1.0
    for k in range(1, p + 1):
        # J <- Tf(z_{k-1}) @ J, one row of J at a time
        (d00, d01), (d10, d11) = m._jac_entries(x, y)
        r0, r1 = d00 * r0 + d01 * r1, d10 * r0 + d11 * r1
        x, y = m.apply(x, y)
        yield k, x, y, r0, r1


def _orbit_batch(
    m: HenonMap, Z: np.ndarray, p: int
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """_chain_rule kept whole for every row z of an (n, 2) array Z.

    Returns the orbit points z, f z, ..., f^p z as (n, p + 1, 2) and, for
    every divisor q of p, the products Tf^q(z) as (n, 2, 2).  Both are
    views of arrays with the point index last, so that every elementwise
    operation runs over contiguous memory.
    """
    orb = np.empty((p + 1, 2, len(Z)))
    orb[0] = Z.T
    jacs: dict[int, np.ndarray] = {}
    for k, x, y, r0, r1 in _chain_rule(m, orb[0, 0], orb[0, 1], p):
        orb[k, 0], orb[k, 1] = x, y
        if p % k == 0:
            jacs[k] = np.array([r0, r1]).transpose(2, 0, 1)
    return orb.transpose(2, 0, 1), jacs


@dataclass(frozen=True)
class TangentProduct:
    """Log-norm ladder of a tangent vector along an orbit.

    ell[k] = log ||T f^k (u)|| for the initial unit vector u (ell[0] = 0);
    directions[k] is the unit image direction (nan once the vector hits an
    exact kernel); logdets[k-1] = log |det T f| at step k.
    """

    base: tuple[float, float]
    n: int
    ell: np.ndarray
    directions: np.ndarray
    logdets: np.ndarray
    escaped: bool
    escape_time: int | None


def _unit(u: Sequence[float]) -> tuple[float, float]:
    ux, uy = float(u[0]), float(u[1])
    norm = math.hypot(ux, uy)
    if norm == 0:
        raise ValueError("tangent vector must be nonzero")
    return ux / norm, uy / norm


_LN2 = math.log(2.0)


def _pow2_exponents(P: np.ndarray) -> np.ndarray:
    """Per matrix P[:, :, k], the k with largest |entry| / 2^k in [1/2, 1)
    (0 for a zero matrix)."""
    return np.frexp(np.abs(P).max(axis=(0, 1)))[1]


def _scaled_product(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A @ B, matrix by matrix, for (2, 2, L) arrays A and B: returns P and
    integer exponents k with A @ B = 2^k P, the largest |entry| of each
    P[:, :, i] in [1/2, 1)."""
    P = A[:, 0:1] * B[0] + A[:, 1:2] * B[1]
    k = _pow2_exponents(P)
    return np.ldexp(P, -k), k


def _prefix_products(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every prefix product of the 2x2 matrices J[:, :, i] of a (2, 2, L)
    array J.

    Returns S and integer exponents e with J_k ... J_0 = 2^e[k] S[:, :, k].
    A Hillis-Steele scan: after the level with shift s, S[:, :, k] is the
    product of J_{k-2s+1} .. J_k (clipped at 0), formed as the product
    ending at k times the one ending at k - s.  Each level divides its new
    products by powers of two, which is exact, so none overflows or
    underflows whatever the length.
    """
    k = _pow2_exponents(J)
    S, e = np.ldexp(J, -k), k.astype(np.int64)
    s = 1
    while s < S.shape[2]:
        S[:, :, s:], k = _scaled_product(S[:, :, s:], S[:, :, :-s])
        e[s:] = e[s:] + e[:-s] + k
        s *= 2
    return S, e


def _block_product(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last prefix product J_{L-1} ... J_0 of a (2, 2, L) array J, as
    _prefix_products gives it, bit for bit: S of shape (2, 2, 1) and e of
    shape (1,).

    A pairwise tree: each level pairs its products from the end, and a
    product left over at the front passes to the next level as it is.
    These are the pairs, and the rescalings, that the scan's levels form
    for its last entry, at about one matrix product per step.
    """
    k = _pow2_exponents(J)
    S, e = np.ldexp(J, -k), k.astype(np.int64)
    while S.shape[2] > 1:
        f = S.shape[2] % 2
        P, k = _scaled_product(S[:, :, f + 1 :: 2], S[:, :, f::2])
        S = np.concatenate([S[:, :, :f], P], axis=2)
        e = np.concatenate([e[:f], e[f + 1 :: 2] + e[f::2] + k])
    return S, e


def _tangent_blocks(
    m: HenonMap,
    z: tuple[float, float],
    u: tuple[float, float],
    n: int,
    products: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, bool]]:
    """The tangent recurrence from the unit vector u, up to n steps.

    Evaluates the Jacobians J[0..L-1] of each block of _orbit_blocks at
    once.  The products formed from them by products (_prefix_products for
    every step, or _block_product for the block's last step alone) then
    give the images Tf^k u of the carried unit vector u in a few array
    operations.
    Yields, per block, the ladder values ell and the unit image directions
    at those products, the log |det Tf| of the block's steps and whether the
    orbit escaped at its last step.  A vector that falls into an exact
    kernel stays the zero vector while the orbit walk goes on: from that
    step on ell is -inf and the direction nan.
    """
    ux, uy = u
    s = 0.0
    for xs, ys, escaped in _orbit_blocks(m, z, n):
        J = np.empty((2, 2, len(xs) - 1))
        (J[0, 0], J[0, 1]), (J[1, 0], J[1, 1]) = m._jac_entries(xs[:-1], ys[:-1])
        S, e = products(J)
        v = S[:, 0] * ux + S[:, 1] * uy  # Tf^k u / 2^e, as (2, len(e))
        norm = np.hypot(v[0], v[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            logdets = np.log(np.abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]))
            ell = s + (np.log(norm) + e * _LN2)
            dirs = (v / norm).T
        dead = np.flatnonzero(norm == 0.0)
        if dead.size:
            ell[dead[0] :] = -math.inf
            dirs[dead[0] :] = math.nan
            ux = uy = 0.0
        else:
            s = float(ell[-1])
            ux, uy = dirs[-1]
        yield ell, dirs, logdets, escaped


def tangent_cocycle(
    m: HenonMap, point: Sequence[float], u: Sequence[float], n: int
) -> TangentProduct:
    """Renormalized product of Jacobians applied to u.

    Norms accumulate in log space, so horizons up to 10^7 neither overflow
    nor underflow.  A vector falling into an exact kernel sends the ladder
    to -inf from that step on.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    z = _start_point(point)
    u = _unit(u)
    ell = np.full(n + 1, -math.inf)
    ell[0] = 0.0
    dirs = np.full((n + 1, 2), math.nan)
    dirs[0] = u
    logdets = np.empty(n)
    k = 0
    escaped = False
    for e, d, ld, escaped in _tangent_blocks(m, z, u, n, _prefix_products):
        ell[k + 1 : k + 1 + len(e)] = e
        dirs[k + 1 : k + 1 + len(e)] = d
        logdets[k : k + len(ld)] = ld
        k += len(e)
    if escaped:
        ell, dirs, logdets = ell[: k + 1], dirs[: k + 1], logdets[:k]
    return TangentProduct(
        base=z,
        n=k if escaped else n,
        ell=ell,
        directions=dirs,
        logdets=logdets,
        escaped=escaped,
        escape_time=k if escaped else None,
    )


def region_sample_U(m: HenonMap, params: Params, count: int, seed: int) -> np.ndarray:
    """Sample the 3-theta neighborhood of [a, f(a)] x {0}.

    At b = 0 the neighborhood collapses to the segment itself.
    """
    rng = np.random.default_rng(seed)
    fa = m.a * m.a + m.a  # image of the critical value line start
    lo, hi = min(m.a, fa), max(m.a, fa)
    t = 3.0 * params.theta
    xs = rng.uniform(lo - t, hi + t, size=count)
    ys = rng.uniform(-t, t, size=count) if t > 0 else np.zeros(count)
    return np.column_stack([xs, ys])


@dataclass(frozen=True)
class G4Report:
    n_s: int
    count: int
    expansion_ok: tuple[bool, ...]
    cone_ok: tuple[bool, ...]
    pass_fraction: float
    worst_margin: float  # min over samples/k of ell_ns - ell_{ns-k} - k c


def check_expansion_G4(
    m: HenonMap,
    sample: Sequence[tuple[Sequence[float], Sequence[float]]],
    n_s: int,
    params: Params,
) -> G4Report:
    """Sampled expansion and cone-invariance check.

    For each (z, u): ||Tf^{n_s}(u)|| >= e^{kc} ||Tf^{n_s - k}(u)|| for all
    k <= n_s, and Tf^{n_s}(u) lies in horizontal_cone().  Certifies only
    "no counterexample found in this sample".
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    cone = horizontal_cone()
    c = params.c
    exp_ok: list[bool] = []
    cone_ok: list[bool] = []
    worst = math.inf
    for z, u in sample:
        tp = tangent_cocycle(m, z, u, n_s)
        if tp.escaped or len(tp.ell) <= n_s:
            exp_ok.append(False)
            cone_ok.append(False)
            continue
        margins = [
            tp.ell[n_s] - tp.ell[n_s - k] - k * c for k in range(1, n_s + 1)
        ]
        mn = min(margins)
        worst = min(worst, mn)
        exp_ok.append(bool(mn >= 0.0))
        d = tp.directions[n_s]
        cone_ok.append(bool(np.all(np.isfinite(d))) and cone.contains(d))
    both = [e and co for e, co in zip(exp_ok, cone_ok)]
    frac = sum(both) / len(both) if both else 0.0
    return G4Report(
        n_s=n_s,
        count=len(exp_ok),
        expansion_ok=tuple(exp_ok),
        cone_ok=tuple(cone_ok),
        pass_fraction=frac,
        worst_margin=worst,
    )


@dataclass(frozen=True)
class G6Report:
    sup_Tf: float
    sup_T2f: float
    bound: float
    ok: bool
    argmax: tuple[float, float]


def check_G6(
    m: HenonMap, sample: Iterable[Sequence[float]], params: Params
) -> G6Report:
    """Sampled first/second derivative norms against e^{c+} = 5."""
    bound = math.exp(params.c_plus)
    Z = np.array([(float(z[0]), float(z[1])) for z in sample]).reshape(-1, 2)
    norms = np.linalg.norm(m.jac(Z), 2, axis=(1, 2))
    sup1 = float(norms.max(initial=0.0))
    sup2 = float(np.broadcast_to(m.second_derivative_norm(*Z.T), len(Z)).max(initial=0.0))
    return G6Report(
        sup_Tf=sup1,
        sup_T2f=sup2,
        bound=bound,
        ok=bool(sup1 <= bound and sup2 <= bound),
        argmax=tuple(Z[norms.argmax()].tolist()) if sup1 > 0.0 else (math.nan, math.nan),
    )


def h_times_check(tp: TangentProduct, n: int, params: Params) -> bool:
    """n is a hyperbolic time: ell_n >= (c/3)(n - l) + ell_l for all l <= n."""
    if n > tp.n:
        raise ValueError("horizon shorter than n")
    c3 = params.c / 3.0
    ln = tp.ell[n]
    return bool(all(ln >= c3 * (n - l) + tp.ell[l] for l in range(n + 1)))


def pce_check(tp: TangentProduct, k: int, params: Params) -> bool:
    """Partial collapse bound: ||Tf^j|| >= e^{-Xi c+ (M+1+j)} for j <= k.

    Evaluated on the ladder of the supplied vector, which bounds the
    operator norm from below; a pass here implies the operator-norm
    statement.  At finite M only an exact collapse (-inf ladder) fails.
    """
    if k > tp.n:
        raise ValueError("horizon shorter than k")
    Xi = params.Xi
    cp = params.c_plus
    for j in range(k + 1):
        thr = -Xi * cp * (params.M + 1 + j)
        if not tp.ell[j] >= thr:
            return False
    return True


def most_contracted_direction(
    m: HenonMap, point: Sequence[float], k: int
) -> tuple[np.ndarray, float]:
    """Unit right-singular direction of the smaller singular value of Tf^k.

    Builds the k-step Jacobian product densely (safe for small k) and
    factorizes it.  Returns (e_k, gap) with gap the singular-value spread;
    coincident singular values raise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _, jacs = _orbit_batch(m, np.array([point], dtype=float), k)
    _, sv, vt = np.linalg.svd(jacs[k][0])
    gap = float(sv[0] - sv[1])
    if gap == 0.0:
        raise ValueError("singular values coincide; most contracted direction undefined (gap 0)")
    return vt[1].copy(), gap


def lyapunov(m: HenonMap, point: Sequence[float], n: int) -> tuple[float, float]:
    """(lambda_1, lambda_2) along one orbit.

    lambda_1 from the renormalized growth of the vector (1, 0); lambda_2
    closes the pair through the determinant identity lambda_1 + lambda_2 =
    mean log |det|.  Degenerate Jacobians (b = 0) give lambda_2 = -inf.
    Escaping orbits raise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = _start_point(point)
    ell = 0.0
    logdet = 0.0
    k = 0
    for e, _, ld, escaped in _tangent_blocks(m, z, (1.0, 0.0), n, _block_product):
        k += len(ld)
        if escaped:
            raise RuntimeError(f"orbit escaped at step {k}")
        ell = float(e[-1])
        logdet += float(ld.sum())
    lam1 = ell / n
    return lam1, logdet / n - lam1

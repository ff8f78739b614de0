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
    x, y = float(point[0]), float(point[1])
    pts = np.empty((n + 1, 2))
    pts[0] = (x, y)
    r = _ESCAPE_RADIUS  # a local: the loop below runs once per step
    for k in range(1, n + 1):
        x, y = m.apply(x, y)
        if abs(x) > r or abs(y) > r:
            return OrbitSegment(
                points=pts[:k].copy(), escaped=True, escape_time=k, n_requested=n
            )
        pts[k] = (x, y)
    return OrbitSegment(points=pts, escaped=False, escape_time=None, n_requested=n)


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


# Steps per Jacobian evaluation in the tangent recurrence: it bounds the
# memory that lyapunov holds at any time, whatever the horizon, and each
# block's prefix products take log2(_BLOCK) doubling levels.
_BLOCK = 4096
_LN2 = math.log(2.0)


def _pow2_exponents(P: np.ndarray) -> np.ndarray:
    """Per matrix P[:, :, k], the k with largest |entry| / 2^k in [1/2, 1)
    (0 for a zero matrix)."""
    return np.frexp(np.abs(P).max(axis=(0, 1)))[1]


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
        A, B = S[:, :, s:], S[:, :, :-s]
        P = A[:, 0:1] * B[0] + A[:, 1:2] * B[1]  # A @ B, matrix by matrix
        k = _pow2_exponents(P)
        S[:, :, s:] = np.ldexp(P, -k)
        e[s:] = e[s:] + e[:-s] + k
        s *= 2
    return S, e


def _tangent_blocks(
    m: HenonMap,
    point: Sequence[float],
    u: tuple[float, float],
    n: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, bool]]:
    """The tangent recurrence from the unit vector u, up to n steps.

    Walks the orbit with the scalar map, one block of at most _BLOCK steps
    at a time, and evaluates the block's Jacobians J[0..L-1] at once.  The
    prefix products Tf^k = J[k-1] ... J[0] then give the images Tf^k u of
    the carried unit vector u for the whole block in a few array
    operations.
    Yields, per block, the ladder values ell, the unit image directions,
    the log |det Tf| of its steps and whether the orbit escaped at its
    last step.  A vector that falls into an exact kernel stays the zero
    vector while the orbit walk goes on: from that step on ell is -inf and
    the direction nan.
    """
    apply = m.apply
    r = _ESCAPE_RADIUS  # a local: the walk below runs once per step
    x, y = float(point[0]), float(point[1])
    ux, uy = u
    s = 0.0
    k = 0
    while k < n:
        # arrays of doubles, not lists of floats: a block holds no Python
        # object per step
        xs, ys = array("d"), array("d")
        escaped = False
        for _ in range(min(_BLOCK, n - k)):
            xs.append(x)
            ys.append(y)
            x, y = apply(x, y)
            if abs(x) > r or abs(y) > r:
                escaped = True
                break
        J = np.empty((2, 2, len(xs)))
        (J[0, 0], J[0, 1]), (J[1, 0], J[1, 1]) = m._jac_entries(
            np.frombuffer(xs), np.frombuffer(ys)
        )
        S, e = _prefix_products(J)
        v = S[:, 0] * ux + S[:, 1] * uy  # Tf^k u / 2^e, as (2, L)
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
        k += len(xs)
        yield ell, dirs, logdets, escaped
        if escaped:
            return


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
    u = _unit(u)
    ell = np.full(n + 1, -math.inf)
    ell[0] = 0.0
    dirs = np.full((n + 1, 2), math.nan)
    dirs[0] = u
    logdets = np.empty(n)
    k = 0
    escaped = False
    for e, d, ld, escaped in _tangent_blocks(m, point, u, n):
        ell[k + 1 : k + 1 + len(e)] = e
        dirs[k + 1 : k + 1 + len(e)] = d
        logdets[k : k + len(ld)] = ld
        k += len(e)
    if escaped:
        ell, dirs, logdets = ell[: k + 1], dirs[: k + 1], logdets[:k]
    return TangentProduct(
        base=(float(point[0]), float(point[1])),
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
    ell = 0.0
    logdet = 0.0
    k = 0
    for e, _, ld, escaped in _tangent_blocks(m, point, (1.0, 0.0), n):
        k += len(e)
        if escaped:
            raise RuntimeError(f"orbit escaped at step {k}")
        ell = float(e[-1])
        logdet += float(ld.sum())
    lam1 = ell / n
    return lam1, logdet / n - lam1

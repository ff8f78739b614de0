"""Finite truncations of countable Markov shifts.

Loop censuses, convergence radii, the strong-positive-recurrence test,
Perron data, the maximal-entropy Markov chain, periodic-point counts and
cylinder equidistribution.  All counts are exact Python integers; the
spectral side is float64 with an explicit residual.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MarkovGraph",
    "LoopCensus",
    "SpectralData",
    "MaxEntropyChain",
    "CylinderWord",
    "NotStronglyConnectedError",
    "ConvergenceError",
    "count_loops",
    "radii",
    "Radii",
    "is_spr",
    "SprReport",
    "gurevich_entropy",
    "perron",
    "build_mme",
    "chain_entropy",
    "shift_periodic_census",
    "equidistribution_cylinder",
    "is_mixing",
    "return_time_tail",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
    "golden_mean_graph",
    "full_shift_graph",
    "cycle_graph",
    "self_loop_graph",
]


class NotStronglyConnectedError(ValueError):
    """Raised when an operation needs strong connectivity and the graph
    lacks it; names one vertex pair with no connecting path."""

    def __init__(self, u: str, v: str):
        self.pair = (u, v)
        super().__init__(f"graph is not strongly connected: no path from {u!r} to {v!r}")


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge after {iterations} iterations; "
            f"last residual {residual:.3e}"
        )


@dataclass(frozen=True)
class MarkovGraph:
    """Directed graph with a distinguished base vertex.

    vertices : tuple of unique vertex ids (strings)
    arrows   : frozenset of (source, target) pairs over declared vertices
    base     : the loop-census base vertex, must be in vertices
    """

    vertices: tuple[str, ...]
    arrows: frozenset[tuple[str, str]]
    base: str

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex ids must be unique")
        if not self.vertices:
            raise ValueError("graph needs at least one vertex")
        vs = set(self.vertices)
        for u, v in self.arrows:
            if u not in vs or v not in vs:
                raise ValueError(f"arrow ({u!r}, {v!r}) uses an undeclared vertex")
        if self.base not in vs:
            raise ValueError(f"base {self.base!r} is not a declared vertex")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        return self.vertices.index(v)

    def adjacency(self) -> list[list[int]]:
        """0/1 adjacency matrix as exact integers, row = source."""
        return self.adjacency_array().astype(int).tolist()

    def adjacency_array(self) -> np.ndarray:
        """The same matrix as floats, filled from the arrows."""
        idx = {v: i for i, v in enumerate(self.vertices)}
        A = np.zeros((self.n, self.n))
        for u, v in self.arrows:
            A[idx[u], idx[v]] = 1.0
        return A


def graph_from_dict(data: dict) -> MarkovGraph:
    """Build a graph from ``{"vertices": [...], "arrows": [[u,v],...], "base": ...}``."""
    try:
        vertices = tuple(str(v) for v in data["vertices"])
        arrows = frozenset((str(u), str(v)) for u, v in data["arrows"])
        base = str(data["base"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return MarkovGraph(vertices=vertices, arrows=arrows, base=base)


def graph_to_dict(graph: MarkovGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "arrows": sorted([u, v] for (u, v) in graph.arrows),
        "base": graph.base,
    }


def load_graph(path: str) -> MarkovGraph:
    """Read a graph JSON file.  json.JSONDecodeError (with line/column)
    propagates to the caller on malformed input."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return graph_from_dict(data)


def golden_mean_graph() -> MarkovGraph:
    """Two vertices, arrows 0->0, 0->1, 1->0; no 1->1."""
    return MarkovGraph(("0", "1"), frozenset({("0", "0"), ("0", "1"), ("1", "0")}), "0")


def full_shift_graph(k: int = 2) -> MarkovGraph:
    """Complete graph on k vertices (all k^2 arrows)."""
    vs = tuple(str(i) for i in range(k))
    return MarkovGraph(vs, frozenset((u, v) for u in vs for v in vs), "0")


def cycle_graph(n: int) -> MarkovGraph:
    vs = tuple(str(i) for i in range(n))
    arrows = frozenset((vs[i], vs[(i + 1) % n]) for i in range(n))
    return MarkovGraph(vs, arrows, "0")


def self_loop_graph() -> MarkovGraph:
    return MarkovGraph(("e",), frozenset({("e", "e")}), "e")


@dataclass(frozen=True)
class LoopCensus:
    """Loop counts at a base vertex up to a horizon.

    Z[n-1]     = number of length-n loops base -> base
    Zstar[n-1] = those touching base only at the two endpoints
    """

    base: str
    horizon: int
    Z: tuple[int, ...]
    Zstar: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.horizon != len(self.Z) or self.horizon != len(self.Zstar):
            raise ValueError("census length must equal the horizon")
        for n in range(self.horizon):
            if self.Zstar[n] > self.Z[n]:
                raise ValueError(f"Z*_{n + 1} > Z_{n + 1} violates first-return counting")

    def z(self, n: int) -> int:
        """Z_n with Z_0 = 1."""
        if n == 0:
            return 1
        return self.Z[n - 1]

    def zstar(self, n: int) -> int:
        if n == 0:
            return 0
        return self.Zstar[n - 1]

    def renewal_defect(self) -> list[int]:
        """Z_n - sum_k Z*_k Z_{n-k}; all zeros iff the renewal identity holds."""
        out = []
        for n in range(1, self.horizon + 1):
            conv = sum(self.zstar(k) * self.z(n - k) for k in range(1, n + 1))
            out.append(self.z(n) - conv)
        return out

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "horizon": self.horizon,
            "Z": list(self.Z),
            "Zstar": list(self.Zstar),
        }


@dataclass(frozen=True)
class SpectralData:
    """Perron data of the adjacency matrix.

    alpha is the right eigenvector (M alpha = lambda alpha), beta the left
    one (beta M = lambda beta), scaled so sum_i alpha_i beta_i = 1.  delta
    records the spectral shift used for periodic graphs (power iteration
    ran on M + delta I).
    """

    lam: float
    alpha: np.ndarray
    beta: np.ndarray
    residual: float
    delta: float = 0.0

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "residual": self.residual,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class MaxEntropyChain:
    """The entropy-maximizing Markov chain on a finite graph.

    pi[i] = alpha_i beta_i, and the kernel p is supported exactly on the
    arrows with rows summing to 1.
    """

    vertices: tuple[str, ...]
    h_top: float
    pi: np.ndarray
    p: np.ndarray

    def index(self, v: str) -> int:
        return self.vertices.index(v)

    def pi_of(self, v: str) -> float:
        return float(self.pi[self.index(v)])

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "h_top": self.h_top,
            "pi": self.pi.tolist(),
            "p": self.p.tolist(),
        }


@dataclass(frozen=True)
class CylinderWord:
    """Finite vertex word v_0..v_k observed starting at an anchor index."""

    word: tuple[str, ...]
    anchor: int = 0

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("cylinder word must be nonempty")

    def __len__(self) -> int:
        return len(self.word)


# ---------------------------------------------------------------------------
# loop censuses


def count_loops(graph: MarkovGraph, N: int) -> LoopCensus:
    """Count loops and first-return loops at the base, exactly.

    Z_n via the path-count recursion from the base; Z*_n via the same
    recursion on paths forbidden to revisit the base before time n.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    idx = {v: i for i, v in enumerate(graph.vertices)}
    n = graph.n
    b = idx[graph.base]
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.arrows:
        out[idx[u]].append(idx[v])

    # Z_n from all paths; Z*_n from paths that avoid the base strictly
    # between the endpoints, advanced over the same successor lists.
    Z: list[int] = []
    Zstar: list[int] = []
    vec = [0] * n
    vec[b] = 1
    vstar = vec[:]
    for _ in range(N):
        nxt = [0] * n
        nstar = [0] * n
        for u in range(n):
            cu, su = vec[u], vstar[u]
            if cu:
                for v in out[u]:
                    nxt[v] += cu
                    nstar[v] += su
        Z.append(nxt[b])
        Zstar.append(nstar[b])
        nstar[b] = 0  # loops already closed may not continue
        vec, vstar = nxt, nstar

    return LoopCensus(base=graph.base, horizon=N, Z=tuple(Z), Zstar=tuple(Zstar))


def _log_big(x: int) -> float:
    """log of a positive integer of arbitrary size."""
    if x <= 0:
        raise ValueError("log of nonpositive count")
    try:
        return math.log(x)
    except OverflowError:
        bl = x.bit_length()
        mant = x >> (bl - 53)
        return math.log(mant) + (bl - 53) * math.log(2.0)


class Radii(NamedTuple):
    R: float
    R_star: float
    horizon: int


def _root_test(seq: Sequence[int], window: int) -> float:
    """1 / max_n seq_n^(1/n) over the last `window` indices; +inf when the
    window holds no nonzero term (polynomial tail => infinite radius)."""
    N = len(seq)
    best = 0.0
    for n in range(N - window + 1, N + 1):
        v = seq[n - 1]
        if v > 0:
            best = max(best, math.exp(_log_big(v) / n))
    if best == 0.0:
        return math.inf
    return 1.0 / best


def radii(census: LoopCensus) -> Radii:
    """Convergence radii of the loop and first-return series.

    Root-test estimate over the last ceil(N/2) census entries; the limsup
    lives in the tail, so the early transient is discarded.
    """
    N = census.horizon
    if N < 8:
        raise ValueError("horizon must be >= 8 for a radius estimate")
    window = (N + 1) // 2
    R = _root_test(census.Z, window)
    R_star = _root_test(census.Zstar, window)
    return Radii(R=R, R_star=R_star, horizon=N)


@dataclass(frozen=True)
class SprReport:
    spr: bool
    R: float
    R_star: float
    gap: float
    margin: float
    horizon: int
    degenerate: bool
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "spr": self.spr,
            "R": self.R,
            "R_star": None if math.isinf(self.R_star) else self.R_star,
            "gap": None if math.isinf(self.gap) else self.gap,
            "margin": self.margin,
            "horizon": self.horizon,
            "degenerate": self.degenerate,
            "warnings": list(self.warnings),
        }


def is_spr(census: LoopCensus, margin: float = 0.0) -> SprReport:
    """Strong positive recurrence test: R + margin < R_*.

    A short or visibly unstable horizon produces a warning flag, never a
    failure.  R >= 1 (entropy <= 0) is flagged degenerate.
    """
    est = radii(census)
    warns: list[str] = []
    if census.horizon < 16:
        warns.append("short horizon: radius estimates may not have stabilized")
    else:
        # compare the half-window estimate with a quarter-window one
        quarter = max(1, census.horizon // 4)
        Rq = _root_test(census.Z, quarter)
        if math.isfinite(est.R) and math.isfinite(Rq) and est.R > 0:
            if abs(est.R - Rq) / est.R > 0.05:
                warns.append("unstable radius estimate across tail windows")
    gap = est.R_star - est.R
    return SprReport(
        spr=bool(est.R + margin < est.R_star),
        R=est.R,
        R_star=est.R_star,
        gap=gap,
        margin=margin,
        horizon=est.horizon,
        degenerate=bool(est.R >= 1.0),
        warnings=tuple(warns),
    )


# ---------------------------------------------------------------------------
# connectivity / periodicity


def _bfs_depths(graph: MarkovGraph, start: str, reverse: bool = False) -> dict[str, int]:
    """Path length from start to every vertex it reaches (to start, when
    reverse)."""
    succ: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for u, v in graph.arrows:
        if reverse:
            succ[v].append(u)
        else:
            succ[u].append(v)
    depth = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def strongly_connected_defect(graph: MarkovGraph) -> tuple[str, str] | None:
    """None when strongly connected, else a vertex pair (u, v) with no
    path u -> v."""
    fwd = _bfs_depths(graph, graph.base)
    for v in graph.vertices:
        if v not in fwd:
            return (graph.base, v)
    bwd = _bfs_depths(graph, graph.base, reverse=True)
    for v in graph.vertices:
        if v not in bwd:
            return (v, graph.base)
    return None


def graph_period(graph: MarkovGraph) -> int:
    """gcd of cycle lengths of a strongly connected graph.

    Equivalently the gcd of loop lengths at the base; computed from BFS
    levels: every arrow (u, v) contributes d(u) + 1 - d(v).
    """
    defect = strongly_connected_defect(graph)
    if defect is not None:
        raise NotStronglyConnectedError(*defect)
    depth = _bfs_depths(graph, graph.base)
    g = 0
    for u, v in graph.arrows:
        g = math.gcd(g, depth[u] + 1 - depth[v])
    if g == 0:
        raise ValueError("graph has no cycle; period undefined")
    return abs(g)


def is_mixing(graph: MarkovGraph) -> bool:
    """Topological mixing: strongly connected with coprime loop lengths."""
    try:
        return graph_period(graph) == 1
    except NotStronglyConnectedError:
        return False


# ---------------------------------------------------------------------------
# spectral data and the chain


def _power_iteration(
    A: np.ndarray, tol: float, max_iter: int = 500_000
) -> tuple[float, np.ndarray, float]:
    """Dominant eigenpair of a nonnegative matrix by power iteration.

    Returns (lambda, v, residual) with v positive and unit 1-norm.
    Restarts from a perturbed positive vector if the iteration stalls.
    """
    n = A.shape[0]
    v = np.full(n, 1.0 / n)
    lam = 0.0
    residual = math.inf
    stall = 0
    last_res = math.inf
    for it in range(1, max_iter + 1):
        w = A @ v
        norm = float(np.abs(w).sum())
        if norm == 0.0:
            raise ValueError("matrix annihilated a positive vector; graph is degenerate")
        v_next = w / norm
        lam = float(v @ w) / float(v @ v)
        residual = float(np.max(np.abs(A @ v_next - lam * v_next)))
        v = v_next
        if residual <= tol * max(1.0, abs(lam)):
            return lam, v, residual
        # deflation-free restart on stall: nudge with a positive perturbation
        if residual >= last_res * 0.999999:
            stall += 1
            if stall >= 200:
                v = v + np.linspace(1.0, 2.0, n) * (1.0 / (10.0 * n))
                v = v / v.sum()
                stall = 0
        else:
            stall = 0
        last_res = residual
    raise ConvergenceError(residual, max_iter)


def perron(graph: MarkovGraph, tol: float = 1e-12) -> SpectralData:
    """Perron eigendata of the adjacency matrix.

    Periodic graphs are handled with the delta = 1 spectral shift: the
    iteration runs on M + I, whose Perron vector coincides with M's, and
    delta is subtracted from the eigenvalue and documented in the output.
    """
    delta = 0.0 if graph_period(graph) == 1 else 1.0
    A = graph.adjacency_array()
    shifted = A + delta * np.eye(graph.n)
    lam_r, alpha, res_r = _power_iteration(shifted, tol)
    lam_l, beta, res_l = _power_iteration(shifted.T, tol)
    lam = 0.5 * (lam_r + lam_l) - delta
    # normalize: alpha unit 1-norm already; scale beta so <alpha, beta> = 1
    scale = float(alpha @ beta)
    if scale <= 0:
        raise ValueError("eigenvector pairing degenerate; graph may be reducible")
    beta = beta / scale
    residual = float(
        max(
            np.max(np.abs(A @ alpha - lam * alpha)),
            np.max(np.abs(beta @ A - lam * beta)),
        )
    )
    return SpectralData(lam=lam, alpha=alpha, beta=beta, residual=residual, delta=delta)


def gurevich_entropy(graph: MarkovGraph) -> float:
    """log of the dominant adjacency eigenvalue (= -log R for the census)."""
    spec = perron(graph, tol=1e-13)
    if spec.lam <= 0:
        raise ValueError("dominant eigenvalue must be positive")
    return math.log(spec.lam)


def build_mme(spec: SpectralData, graph: MarkovGraph) -> MaxEntropyChain:
    """Entropy-maximizing chain: pi_i = alpha_i beta_i and
    p_ij = e^{-h} m_ij alpha_j / alpha_i.

    The kernel divides by the right eigenvector: that is the scaling that
    makes rows stochastic and pi = alpha.beta stationary.  Vanishing
    eigenvector entries signal a reducible graph and raise.
    """
    A = graph.adjacency_array()
    alpha, beta, lam = spec.alpha, spec.beta, spec.lam
    tiny = 1e-300
    for i, v in enumerate(graph.vertices):
        if alpha[i] <= tiny or beta[i] <= tiny:
            raise ValueError(
                f"eigenvector vanishes at reachable vertex {v!r}; graph is reducible"
            )
    p = (A * alpha[None, :]) / (lam * alpha[:, None])
    rows = p.sum(axis=1)
    p = p / rows[:, None]
    pi = alpha * beta
    pi = pi / pi.sum()
    return MaxEntropyChain(
        vertices=graph.vertices, h_top=math.log(lam), pi=pi, p=p
    )


def chain_entropy(chain: MaxEntropyChain) -> float:
    """Entropy rate -sum_i pi_i sum_j p_ij log p_ij of the chain."""
    p = chain.p
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return float(-(chain.pi @ plogp.sum(axis=1)))


# ---------------------------------------------------------------------------
# periodic points


def _int_matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for k in range(n):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(n):
                    Oi[j] += a * Bk[j]
    return out


def _int_matpow(A: list[list[int]], p: int) -> list[list[int]]:
    n = len(A)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [row[:] for row in A]
    while p:
        if p & 1:
            result = _int_matmul(result, base)
        p >>= 1
        if p:
            base = _int_matmul(base, base)
    return result


def shift_periodic_census(graph: MarkovGraph, p: int) -> int:
    """Card Fix sigma^p = trace(M^p), exact."""
    if p < 1:
        raise ValueError("period must be >= 1")
    Mp = _int_matpow(graph.adjacency(), p)
    return sum(Mp[i][i] for i in range(graph.n))


class CylinderComparison(NamedTuple):
    empirical: float
    mme: float


def equidistribution_cylinder(
    graph: MarkovGraph, p: int, cyl: CylinderWord, chain: MaxEntropyChain
) -> CylinderComparison:
    """Cylinder mass under the uniform measure on Fix sigma^p vs the chain.

    A period-p sequence realizes v_0..v_k at the anchor iff the closed
    path contains that window, so the empirical count is the number of
    paths v_k -> v_0 of length p - k.  The anchor drops out of the count
    by shift invariance of Fix sigma^p.
    """
    k = len(cyl) - 1
    if p < len(cyl):
        raise ValueError("period shorter than the cylinder word")
    total = shift_periodic_census(graph, p)
    if total == 0:
        raise ValueError(f"Fix sigma^{p} is empty for this graph")
    for u, v in zip(cyl.word, cyl.word[1:]):
        if (u, v) not in graph.arrows:
            return CylinderComparison(empirical=0.0, mme=0.0)
    idx = {v: i for i, v in enumerate(graph.vertices)}
    Mp = _int_matpow(graph.adjacency(), p - k)  # p >= k + 1 here
    count = Mp[idx[cyl.word[-1]]][idx[cyl.word[0]]]
    empirical = count / total
    mme = chain.pi_of(cyl.word[0])
    for u, v in zip(cyl.word, cyl.word[1:]):
        mme *= float(chain.p[chain.index(u), chain.index(v)])
    return CylinderComparison(empirical=float(empirical), mme=float(mme))


def return_time_tail(chain: MaxEntropyChain, census: LoopCensus, n: int) -> float:
    """pi_e Z*_n e^{-n h_top}: the first-return probability at time n."""
    if not (1 <= n <= census.horizon):
        raise ValueError("n must lie within the census horizon")
    pi_e = chain.pi_of(census.base)
    return pi_e * census.zstar(n) * math.exp(-n * chain.h_top)

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
from operator import mul
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MarkovGraph",
    "LoopCensus",
    "SpectralData",
    "MaxEntropyChain",
    "CylinderWord",
    "AnalysisError",
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


class AnalysisError(ValueError):
    """The input is valid, but the analysis cannot produce a result."""


class NotStronglyConnectedError(AnalysisError):
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

    The module reads the arrows as private index arrays sorted by (source,
    target), so float sums over them do not depend on string hashing.
    """

    vertices: tuple[str, ...]
    arrows: frozenset[tuple[str, str]]
    base: str
    _idx: dict[str, int] = field(init=False, repr=False, compare=False)
    _src: np.ndarray = field(init=False, repr=False, compare=False)
    _dst: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex ids must be unique")
        if not self.vertices:
            raise ValueError("graph needs at least one vertex")
        idx = {v: i for i, v in enumerate(self.vertices)}
        keys = []
        for u, v in self.arrows:
            if u not in idx or v not in idx:
                raise ValueError(f"arrow ({u!r}, {v!r}) uses an undeclared vertex")
            keys.append(idx[u] * len(idx) + idx[v])
        if self.base not in idx:
            raise ValueError(f"base {self.base!r} is not a declared vertex")
        keys.sort()
        src, dst = np.divmod(np.array(keys, dtype=np.intp), len(idx))
        object.__setattr__(self, "_idx", idx)
        object.__setattr__(self, "_src", src)
        object.__setattr__(self, "_dst", dst)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        return self._idx[v]

    def adjacency_array(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix as floats, row = source."""
        A = np.zeros((self.n, self.n))
        A[self._src, self._dst] = 1.0
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
        Z = (1, *self.Z)  # Z[n] = Z_n from Z_0 = 1
        return [
            Z[n] - sum(map(mul, self.Zstar[:n], Z[n - 1 :: -1]))
            for n in range(1, self.horizon + 1)
        ]


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


@dataclass(frozen=True)
class CylinderWord:
    """Finite vertex word v_0..v_k."""

    word: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("cylinder word must be nonempty")

    def __len__(self) -> int:
        return len(self.word)


# ---------------------------------------------------------------------------
# loop censuses


def _walker(src: np.ndarray, dst: np.ndarray) -> Callable[[np.ndarray, int, int], np.ndarray]:
    """The exact path-count recursion over the arrows (src, dst):
    walk(vec, k, m) advances every row of walk counts (indexed by end
    vertex) by k arrows into the vertices below m, summing over the
    in-arrows of each; their sources must be columns of vec, so k > 1
    needs m = the width of vec.  Rows stay int64 while no sum can reach
    2^63 and become exact Python ints after that."""
    order = np.argsort(dst, kind="stable")
    src = src[order]
    targets, starts = np.unique(dst[order], return_index=True)
    ends = np.append(starts, len(src))
    max_in = int(np.diff(ends).max(initial=0))

    def walk(vec: np.ndarray, k: int, m: int) -> np.ndarray:
        j = int(targets.searchsorted(m))  # the targets below m
        into, first, sources = targets[:j], starts[:j], src[: ends[j]]
        for _ in range(k):
            if vec.dtype != object and int(vec.max()) * max_in >= 2**63:
                vec = vec.astype(object)
            nxt = np.zeros((len(vec), m), dtype=vec.dtype)
            nxt[:, into] = np.add.reduceat(vec[:, sources], first, axis=1)
            vec = nxt
        return vec

    return walk


def count_loops(graph: MarkovGraph, N: int) -> LoopCensus:
    """Count loops and first-return loops at the base, exactly.

    Z_n via the path-count recursion from the base; Z*_n via the same
    recursion on paths forbidden to revisit the base before time n.  Both
    advance together as the rows of one (2, m) array under _walker.

    With k steps left, a count more than k arrows from the base cannot
    close a loop, so the walk keeps only the vertices within reach: one
    reverse BFS capped at N renumbers them by distance to the base, base
    first, and the step with k steps left advances the prefix within
    distance k (its arrows come from the previous prefix).  The cost
    follows the horizon, not the number of vertices.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    depth = _bfs_depths(graph, reverse=True, cap=N)
    pos = np.full(graph.n, -1, dtype=np.intp)
    pos[list(depth)] = np.arange(len(depth))
    src, dst = pos[graph._src], pos[graph._dst]
    keep = (src >= 0) & (dst >= 0)
    walk = _walker(src[keep], dst[keep])
    # within[k]: the number of vertices within k arrows of the base
    within = np.searchsorted(list(depth.values()), np.arange(N), side="right").tolist()

    # row 0 counts all paths from the base, row 1 those that avoid the base
    # strictly between the endpoints
    vec = np.zeros((2, len(depth)), dtype=np.int64)
    vec[:, 0] = 1
    Z: list[int] = []
    Zstar: list[int] = []
    for k in range(N - 1, -1, -1):  # k steps left after this one
        vec = walk(vec, 1, within[k])
        Z.append(int(vec[0, 0]))
        Zstar.append(int(vec[1, 0]))
        vec[1, 0] = 0  # loops already closed may not continue

    return LoopCensus(base=graph.base, horizon=N, Z=tuple(Z), Zstar=tuple(Zstar))


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
        if v > 0:  # math.log takes ints past the float range
            best = max(best, math.exp(math.log(v) / n))
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


def _bfs_depths(
    graph: MarkovGraph, reverse: bool = False, cap: float = math.inf
) -> dict[int, int]:
    """Path length, at most cap, from the base to each vertex it reaches
    (to the base from each vertex, when reverse), keyed in breadth-first
    order; the arrows out of (into) a vertex are one slice of the index
    arrays sorted by source (by target)."""
    key, nbr = graph._src, graph._dst
    if reverse:
        order = np.argsort(nbr, kind="stable")
        key, nbr = nbr[order], key[order]
    starts = np.searchsorted(key, np.arange(graph.n + 1)).tolist()
    nbr = nbr.tolist()
    b = graph._idx[graph.base]
    depth = {b: 0}
    queue = deque([b])
    while queue:
        u = queue.popleft()
        d = depth[u] + 1
        if d > cap:
            break
        for v in nbr[starts[u] : starts[u + 1]]:
            if v not in depth:
                depth[v] = d
                queue.append(v)
    return depth


def _defect_and_depths(graph: MarkovGraph) -> tuple[tuple[str, str] | None, dict[int, int]]:
    """strongly_connected_defect and the forward BFS depths it searched;
    the reverse search runs only when the base reaches every vertex."""
    depth = _bfs_depths(graph)
    for i, v in enumerate(graph.vertices):
        if i not in depth:
            return (graph.base, v), depth
    back = _bfs_depths(graph, reverse=True)
    for i, v in enumerate(graph.vertices):
        if i not in back:
            return (v, graph.base), depth
    return None, depth


def strongly_connected_defect(graph: MarkovGraph) -> tuple[str, str] | None:
    """None when strongly connected, else a vertex pair (u, v) with no
    path u -> v."""
    return _defect_and_depths(graph)[0]


def graph_period(graph: MarkovGraph) -> int:
    """gcd of cycle lengths of a strongly connected graph.

    Equivalently the gcd of loop lengths at the base; computed from BFS
    levels: every arrow (u, v) contributes d(u) + 1 - d(v).
    """
    defect, forward = _defect_and_depths(graph)
    if defect is not None:
        raise NotStronglyConnectedError(*defect)
    depth = np.empty(graph.n, dtype=np.intp)
    depth[list(forward)] = list(forward.values())
    g = int(np.gcd.reduce(depth[graph._src] + 1 - depth[graph._dst]))
    if g == 0:
        raise AnalysisError("graph has no cycle; period undefined")
    return g


def is_mixing(graph: MarkovGraph) -> bool:
    """Topological mixing: strongly connected with coprime loop lengths."""
    try:
        return graph_period(graph) == 1
    except NotStronglyConnectedError:
        return False


# ---------------------------------------------------------------------------
# spectral data and the chain


_MAX_PRODUCTS = 500_000


def _power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray], n: int, tol: float
) -> tuple[float, np.ndarray, float]:
    """Dominant eigenpair of a nonnegative n x n matrix, given as its
    product with a vector, by power iteration with Krylov restarts.

    Returns (lambda, v, residual) with v positive and unit 1-norm.  Every
    k = min(n, 32) steps the residual must have shrunk tenfold since the
    last such check; otherwise the iteration restarts from the Ritz vector
    of a k-step Arnoldi run (_krylov_restart).  Both constants are fixed:
    - tenfold: a window that gains a decade reaches any tol in a few dozen
      windows, so plain steps are cheaper than a restart there; graphs with
      a wide spectral gap never restart and run the plain power steps.
    - 32: up to 32 vertices the Arnoldi space is the whole space and one
      restart yields the Perron pair to rounding; above that it caps the
      restart at 33 n floats and O(32^2 n) Gram-Schmidt work.
    _MAX_PRODUCTS bounds every product with the matrix, the restarts'
    included.
    """
    k = min(n, 32)
    v = np.full(n, 1.0 / n)
    w = matvec(v)
    lam = 0.0
    residual = math.inf
    checked = math.inf  # residual at the last window check
    it = steps = 0
    while it < _MAX_PRODUCTS:
        it += 1
        steps += 1
        norm = float(np.abs(w).sum())
        if norm == 0.0:
            raise AnalysisError("matrix annihilated a positive vector; graph is degenerate")
        v_next = w / norm
        lam = float(v @ w) / float(v @ v)
        # A v_next is both this step's residual and the next step's product
        w = matvec(v_next)
        residual = float(np.max(np.abs(w - lam * v_next)))
        v = v_next
        if residual <= tol * max(1.0, abs(lam)):
            return lam, v, residual
        if steps == k:
            if residual > 0.1 * checked:
                v, used = _krylov_restart(matvec, v, k)
                w = matvec(v)
                it += used + 1
            checked, steps = residual, 0
    raise ConvergenceError(residual, _MAX_PRODUCTS)


def _krylov_restart(
    matvec: Callable[[np.ndarray], np.ndarray], v: np.ndarray, k: int
) -> tuple[np.ndarray, int]:
    """Positive restart vector from k Arnoldi steps started at v.

    Gram-Schmidt runs twice per step, and a breakdown (an invariant
    subspace) ends the run early.  The Ritz vector of the eigenvalue with
    the largest real part, which for a nonnegative matrix approximates the
    Perron vector, is returned in absolute value, floored to stay strictly
    positive.  Also returns the number of products taken.
    """
    Q = np.zeros((k + 1, len(v)))
    H = np.zeros((k + 1, k))
    Q[0] = v / np.linalg.norm(v)
    m = k
    for j in range(k):
        z = matvec(Q[j])
        scale = float(np.linalg.norm(z))
        for _ in range(2):
            c = Q[: j + 1] @ z
            z -= c @ Q[: j + 1]
            H[: j + 1, j] += c
        H[j + 1, j] = float(np.linalg.norm(z))
        if H[j + 1, j] <= 1e-12 * scale:
            m = j + 1
            break
        Q[j + 1] = z / H[j + 1, j]
    vals, vecs = np.linalg.eig(H[:m, :m])
    ritz = np.abs(vecs[:, int(np.argmax(vals.real))] @ Q[:m])
    return np.maximum(ritz, np.finfo(float).eps * ritz.max()), m


def _matvec(rows: np.ndarray, cols: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """v -> A v for the 0/1 matrix with ones at (rows[k], cols[k])."""
    return lambda v: np.bincount(rows, weights=v[cols], minlength=n)


def perron(graph: MarkovGraph, tol: float = 1e-12) -> SpectralData:
    """Perron eigendata of the adjacency matrix.

    Periodic graphs are handled with the delta = 1 spectral shift: the
    iteration runs on M + I, whose Perron vector coincides with M's, and
    delta is subtracted from the eigenvalue and documented in the output.
    tol must be finite and > 0.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    delta = 0.0 if graph_period(graph) == 1 else 1.0
    n = graph.n
    loops = np.arange(n if delta else 0, dtype=np.intp)  # the loops of M + delta I
    src, dst = np.concatenate([graph._src, loops]), np.concatenate([graph._dst, loops])
    lam_r, alpha, res_r = _power_iteration(_matvec(src, dst, n), n, tol)
    lam_l, beta, res_l = _power_iteration(_matvec(dst, src, n), n, tol)
    lam = 0.5 * (lam_r + lam_l) - delta
    # normalize: alpha unit 1-norm already; scale beta so <alpha, beta> = 1
    scale = float(alpha @ beta)
    if scale <= 0:
        raise AnalysisError("eigenvector pairing degenerate; graph may be reducible")
    beta = beta / scale
    residual = float(
        max(
            np.max(np.abs(_matvec(graph._src, graph._dst, n)(alpha) - lam * alpha)),
            np.max(np.abs(_matvec(graph._dst, graph._src, n)(beta) - lam * beta)),
        )
    )
    return SpectralData(lam=lam, alpha=alpha, beta=beta, residual=residual, delta=delta)


def gurevich_entropy(graph: MarkovGraph) -> float:
    """log of the dominant adjacency eigenvalue (= -log R for the census)."""
    spec = perron(graph, tol=1e-13)
    if spec.lam <= 0:
        raise AnalysisError("dominant eigenvalue must be positive")
    return math.log(spec.lam)


def build_mme(spec: SpectralData, graph: MarkovGraph) -> MaxEntropyChain:
    """Entropy-maximizing chain: pi_i = alpha_i beta_i and
    p_ij = e^{-h} m_ij alpha_j / alpha_i.

    The kernel divides by the right eigenvector: that is the scaling that
    makes rows stochastic and pi = alpha.beta stationary.  Vanishing
    eigenvector entries signal a reducible graph and raise.
    """
    alpha, beta, lam = spec.alpha, spec.beta, spec.lam
    tiny = 1e-300
    for i, v in enumerate(graph.vertices):
        if alpha[i] <= tiny or beta[i] <= tiny:
            raise AnalysisError(
                f"eigenvector vanishes at reachable vertex {v!r}; graph is reducible"
            )
    p = np.zeros((graph.n, graph.n))
    p[graph._src, graph._dst] = alpha[graph._dst] / (lam * alpha[graph._src])
    p /= p.sum(axis=1)[:, None]
    pi = alpha * beta
    pi = pi / pi.sum()
    return MaxEntropyChain(
        vertices=graph.vertices, h_top=math.log(lam), pi=pi, p=p
    )


def chain_entropy(chain: MaxEntropyChain) -> float:
    """Entropy rate -sum_i pi_i sum_j p_ij log p_ij of the chain."""
    i, j = np.nonzero(chain.p)
    q = chain.p[i, j]
    rows = np.bincount(i, weights=q * np.log(q), minlength=len(chain.pi))
    return float(-(chain.pi @ rows))


# ---------------------------------------------------------------------------
# periodic points


def shift_periodic_census(graph: MarkovGraph, p: int) -> int:
    """Card Fix sigma^p = trace(M^p), exact: the closed walks of length p,
    counted by one walk from each vertex."""
    if p < 1:
        raise ValueError("period must be >= 1")
    walk, n = _walker(graph._src, graph._dst), graph.n
    return sum(int(walk(np.eye(1, n, v, dtype=np.int64), p, n)[0, v]) for v in range(n))


class CylinderComparison(NamedTuple):
    empirical: float
    mme: float


def _check_cylinder(graph: MarkovGraph, p: int, cyl: CylinderWord) -> None:
    """Refuse a cylinder word off the graph's vertices or longer than p."""
    for v in cyl.word:
        if v not in graph._idx:
            raise ValueError(f"cylinder vertex {v!r} is not a vertex of the graph")
    if p < len(cyl):
        raise ValueError("period shorter than the cylinder word")


def equidistribution_cylinder(
    graph: MarkovGraph, p: int, cyl: CylinderWord, chain: MaxEntropyChain
) -> CylinderComparison:
    """Cylinder mass under the uniform measure on Fix sigma^p vs the chain.

    The points of Fix sigma^p that begin with v_0..v_k are the closed
    walks of length p through that word, so the empirical count is the
    number of paths v_k -> v_0 of length p - k.  The uniform measure on
    Fix sigma^p is shift invariant, so every position gives the same mass.
    """
    _check_cylinder(graph, p, cyl)
    k = len(cyl) - 1
    total = shift_periodic_census(graph, p)
    if total == 0:
        raise AnalysisError(f"Fix sigma^{p} is empty for this graph")
    for u, v in zip(cyl.word, cyl.word[1:]):
        if (u, v) not in graph.arrows:
            return CylinderComparison(empirical=0.0, mme=0.0)
    idx = graph._idx
    start = np.eye(1, graph.n, idx[cyl.word[-1]], dtype=np.int64)
    count = int(_walker(graph._src, graph._dst)(start, p - k, graph.n)[0, idx[cyl.word[0]]])
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

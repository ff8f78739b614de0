"""Alphabet and word combinatorics for the truncated symbol model.

Symbols carry an order; words are finite symbol strings whose order is the
sum.  The full model saturates the two-symbols-per-order bound, which turns
every counting lemma into an exact recursion.  On top of that sit right
divisibility, the word-counting DPs, synthetic loop censuses, and the
covering-sum dimension bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import accumulate
from operator import mul
from typing import Iterator, Mapping, Sequence

from .markov import LoopCensus
from .params import Params

__all__ = [
    "Symbol",
    "Word",
    "UNIT_WORD",
    "SuitabilityModel",
    "full_model",
    "model_from_dict",
    "divides",
    "canonical_spellings",
    "count_sharp",
    "count_prime_words",
    "zstar_from_model",
    "synthetic_census",
    "enumerate_words",
    "CoveringSum",
    "covering_sum",
    "block_sum",
    "DimensionBound",
    "dimension_upper_bound",
]

_KINDS = ("simple", "square", "parabolic", "square_c")
_SIGNS = ("+", "-", "b")


class _HashOnce:
    """Base of a frozen dataclass whose field hash is computed once per
    object: divisibility and its callers look the same words up many
    times.  The cached value stays out of pickles and copies, since str
    hashes differ between processes."""

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Symbol(_HashOnce):
    """One alphabet symbol.

    kind : simple | square | parabolic | square_c
    order : positive integer; square_c carries +inf (its stable leaf never
        closes a finite-order word and it is excluded from all counts)
    sign : "+" or "-" distinguishes the two copies per order; "b" is the
        bottom variant that some geometric constructions use
    depth : for parabolic symbols, the order of the underlying common
        piece (order - M - 1 in the full model); informational
    """

    kind: str
    order: float
    sign: str = "+"
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.sign not in _SIGNS:
            raise ValueError(f"unknown sign {self.sign!r}")
        if self.kind == "square_c":
            if not math.isinf(self.order):
                raise ValueError("square_c must have infinite order")
        else:
            if not (isinstance(self.order, int) and self.order >= 2):
                raise ValueError(f"finite symbol order must be an integer >= 2, got {self.order}")

    @property
    def id(self) -> str:
        d = "" if self.depth is None else f".{self.depth}"
        return f"{self.kind[0]}{self.order}{self.sign}{d}"

    def __repr__(self) -> str:  # compact in word dumps
        return self.id

    __hash__ = _HashOnce.__hash__  # an explicit __hash__ stops dataclass from generating one


@dataclass(frozen=True)
class Word(_HashOnce):
    """Finite symbol string; the empty tuple is the unit word e (order 0)."""

    symbols: tuple[Symbol, ...] = ()

    @property
    def order(self) -> float:
        return sum(s.order for s in self.symbols) if self.symbols else 0

    def __len__(self) -> int:
        return len(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __repr__(self) -> str:
        return "e" if not self.symbols else "·".join(s.id for s in self.symbols)

    __hash__ = _HashOnce.__hash__


UNIT_WORD = Word(())


@dataclass
class _Counts:
    """Exact count series of one model, each grown in place only as far as a
    call asks: words w_n, prime words P_n and first returns Z*_n, all
    indexed by order.  Growth takes no lock, so two threads must not grow
    one model's table at the same time."""

    w: list[int] = field(default_factory=lambda: [1, 0])
    P: list[int] = field(default_factory=lambda: [0, 0])
    Z: list[int] = field(default_factory=lambda: [0, 0])


@dataclass(frozen=True)
class SuitabilityModel:
    """Which symbols may extend a word: the full model.

    It is prefix-independent and saturates the bound of two symbols per
    order: simple orders 2..M, the square at order M+1, parabolic orders
    >= M+2.  The counting lemmas then hold as exact recursions instead of
    inequalities.
    """

    M: int
    _counts: _Counts = field(
        default_factory=_Counts, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.M < 4:
            raise ValueError("M must be >= 4")

    def multiplicity_of_order(self, k: int) -> int:
        """Number of symbols of order k (0 when inadmissible)."""
        return 2 if k >= 2 else 0

    def symbols_of_order(self, k: int) -> tuple[Symbol, ...]:
        if k < 2:
            return ()
        if k <= self.M:
            return tuple(Symbol("simple", k, s) for s in "+-")
        if k == self.M + 1:
            return tuple(Symbol("square", k, s) for s in "+-")
        return tuple(Symbol("parabolic", k, s, depth=k - self.M - 1) for s in "+-")


def full_model(M: int) -> SuitabilityModel:
    return SuitabilityModel(M=M)


def model_from_dict(data: dict) -> tuple[SuitabilityModel, Params]:
    """Build (model, params) from {"M": ..., "b": ..., "model": "full"}.

    "b" (default 0) and "model" (default "full") may be left out; any
    other key, or another model name, is refused.
    """
    try:
        M = int(data["M"])
        b = float(data.get("b", 0.0))
        name = str(data.get("model", "full"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    params = Params(M=M, b=b)
    if name != "full":
        raise ValueError(f"unknown model name {name!r}")
    unknown = sorted(set(data) - {"M", "b", "model"})
    if unknown:
        raise ValueError(f"unknown model keys {unknown}")
    return SuitabilityModel(M=M), params


# ---------------------------------------------------------------------------
# right divisibility


def divides(
    a: Word,
    b: Word,
    spelling: Mapping[Symbol, Word],
    memo: dict | None = None,
) -> bool:
    """Right divisibility a / b.

    D1: a equals b, or b is the unit word.
    D2: a is a single parabolic symbol standing for a box difference; a / b
        follows from spelling-of-its-piece / b.
    D3: splittings a = a3.a2.a1 and b = b2.a1 with a2 / b2 and a3, a1 not
        both trivial.  The recursion strictly decreases the order of the
        left word, so it terminates.

    spelling must map every parabolic symbol reached by D2 to a word of
    strictly smaller order (the spelled-out common piece); it is looked up
    only when D2 is reached.  memo is an opaque cache: pass one dict to
    many calls to share their work.  One memo serves one spelling map.
    """
    if memo is None:
        memo = {}
    coded = memo.get(_CodedWords)
    if coded is None:
        coded = memo[_CodedWords] = _CodedWords()
    return coded.divides(coded.encode(a), coded.encode(b), spelling)


class _CodedWords:
    """Divisibility on words coded as tuples of small ints, one code per
    distinct symbol, with the relation found so far.  Lives in a divides
    memo, so each word is coded once per memo."""

    def __init__(self) -> None:
        self.code: dict[Symbol, int] = {}
        self.symbols: list[Symbol] = []
        self.words: dict[Word, tuple[int, ...]] = {}
        self.relation: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}

    def encode(self, w: Word) -> tuple[int, ...]:
        coded = self.words.get(w)
        if coded is None:
            code, symbols = self.code, self.symbols
            for sym in w.symbols:
                if sym not in code:
                    code[sym] = len(symbols)
                    symbols.append(sym)
            coded = self.words[w] = tuple(code[sym] for sym in w.symbols)
        return coded

    def divides(
        self, a: tuple[int, ...], b: tuple[int, ...], spelling: Mapping[Symbol, Word]
    ) -> bool:
        if a == b or not b:
            return True
        relation = self.relation
        key = (a, b)
        cached = relation.get(key)
        if cached is not None:
            return cached
        # Every step lowers (order, length) of a, so no search meets its own
        # key; a pair is stored only once decided, and a search that raised
        # leaves nothing behind.
        result = False

        if len(a) == 1 and self.symbols[a[0]].kind == "parabolic":
            sym = self.symbols[a[0]]
            try:
                spelled = spelling[sym]
            except KeyError:
                raise ValueError(f"no spelling provided for parabolic symbol {sym.id}")
            if spelled.order >= sym.order:
                raise ValueError(
                    f"spelling of {sym.id} must have order < {sym.order}, got {spelled.order}"
                )
            result = self.divides(self.encode(spelled), b, spelling)

        # D3 one symbol at a time: every splitting a = a3 a2 a1, b = b2 a1
        # is a chain of these two moves, and each move is itself one.
        if not result and a and a[-1] == b[-1]:
            result = self.divides(a[:-1], b[:-1], spelling)
        if not result and a:
            result = self.divides(a[1:], b, spelling)

        relation[key] = result
        return result


def canonical_spellings(
    model: SuitabilityModel, max_order: int
) -> dict[Symbol, Word]:
    """Spelling map for every parabolic symbol of order <= max_order.

    A parabolic symbol of order M+1+d spells the order-d common piece as
    simple symbols: one symbol when 2 <= d <= M, else a greedy chain of
    order-M symbols (avoiding a length-1 remainder).  d = 1 has no exact
    simple word; the order-2 symbol stands in, which keeps the recursion
    decreasing.
    """
    out: dict[Symbol, Word] = {}
    for k in range(model.M + 2, max_order + 1):
        for sym in model.symbols_of_order(k):
            if sym.kind == "parabolic":
                out[sym] = _canonical_word(model.M, k - model.M - 1)
    return out


def _canonical_word(M: int, d: int) -> Word:
    if d <= 2:
        return Word((Symbol("simple", 2, "+"),))
    parts: list[int] = []
    while d > M:
        if d - M == 1:
            parts.append(M - 1)
            d -= M - 1
        else:
            parts.append(M)
            d -= M
    parts.append(d)
    return Word(tuple(Symbol("simple", p, "+") for p in parts))


# ---------------------------------------------------------------------------
# counting DPs


# Each series below is grown in place to order N (at least) and returned.
# The full model has two symbols of every order >= 2.


def _sharp(model: SuitabilityModel, N: int) -> list[int]:
    w = model._counts.w
    for n in range(len(w), N + 1):  # last symbol of order k = 2..n
        w.append(2 * sum(w[: n - 1]))
    return w


def _primes(model: SuitabilityModel, N: int) -> list[int]:
    P = model._counts.P
    M = model.M
    for m in range(len(P), N + 1):
        acc = 2 if m <= M else 0
        if m > M + 2:  # last non-simple symbol of order M+1..m-2
            acc += 2 * sum(P[2 : m - M])
        P.append(acc)
    return P


def _zstar(model: SuitabilityModel, N: int) -> list[int]:
    Z = model._counts.Z
    P = _primes(model, N)
    M = model.M
    for n in range(len(Z), N + 1):
        acc = P[n]
        if n > M + 2:  # earlier first-return block, then a prime block of order > M
            acc += sum(map(mul, Z[2 : n - M], P[n - 2 : M : -1]))
        Z.append(acc)
    return Z


def count_sharp(N: int, model: SuitabilityModel) -> int:
    """Number of model words of total order exactly N (the unit word for
    N = 0).  Dynamic programming over the last symbol's order."""
    if N < 0:
        raise ValueError("order must be >= 0")
    return _sharp(model, N)[N]


def count_prime_words(m: int, model: SuitabilityModel) -> int:
    """P_m: words made of one leading simple symbol followed by non-simple
    symbols only, of total order m.  P_m = 2 for 2 <= m <= M in the full
    model; 0 below order 2."""
    if m < 0:
        raise ValueError("order must be >= 0")
    return _primes(model, m)[m]


def zstar_from_model(n: int, model: SuitabilityModel) -> int:
    """First-return count Z*_n of the word model.

    Decomposition over the last simple-symbol position: either the word is
    a single prime block, or it splits as (shorter first-return word) times
    (prime block of order >= M+1).  Equals 2 for n <= M in the full model.
    """
    if n < 2:
        raise ValueError("first-return orders start at 2")
    return _zstar(model, n)[n]


def synthetic_census(model: SuitabilityModel, N: int) -> LoopCensus:
    """Loop census of the word model at the base vertex "e": Z* from the
    model and Z closed up by the renewal identity Z_n = sum_k Z*_k Z_{n-k}."""
    if N < 2:
        raise ValueError("horizon must be >= 2")
    Zstar = _zstar(model, N)[: N + 1]
    Z = [1]
    for n in range(1, N + 1):
        Z.append(sum(map(mul, Zstar[1 : n + 1], Z[::-1])))
    return LoopCensus(base="e", horizon=N, Z=tuple(Z[1:]), Zstar=tuple(Zstar[1:]))


def enumerate_words(
    model: SuitabilityModel, order: int, prime: bool = False
) -> Iterator[Word]:
    """Materialize every model word of the exact order (cross-check oracle;
    exponential in the order, keep it small).  prime=True restricts to one
    leading simple symbol followed by non-simple symbols."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        yield UNIT_WORD
        return
    # symbols by order, for the first position and for the later ones
    table = [model.symbols_of_order(k) for k in range(order + 1)]
    first = rest = table
    if prime:
        first = [tuple(s for s in syms if s.kind == "simple") for syms in table]
        rest = [tuple(s for s in syms if s.kind != "simple") for syms in table]

    def rec(
        remaining: int, acc: tuple[Symbol, ...], by_order: list[tuple[Symbol, ...]]
    ) -> Iterator[Word]:
        for k in range(2, remaining + 1):
            left = remaining - k
            for sym in by_order[k]:
                if left:
                    yield from rec(left, acc + (sym,), rest)
                else:
                    yield Word(acc + (sym,))

    yield from rec(order, (), first)


# ---------------------------------------------------------------------------
# covering sums and the dimension bound


def _weight_rate(s: float, weight: str, params: Params) -> float:
    """Per-order exponential rate of the covering weight."""
    if weight == "hausdorff":
        return s * params.c / 3.0
    if weight == "cardinality":
        return s
    raise ValueError(f"unknown weight {weight!r}")


def block_sum(
    model: SuitabilityModel, params: Params, s: float, weight: str = "hausdorff"
) -> tuple[float, bool]:
    """Sum of the covering weight over all tail blocks, and a divergence flag.

    A block is either a single symbol of order > M (two per order), or a
    word prefix of order n followed by a symbol of order > M + Xi * n.
    Geometric tails are closed forms; the prefix series is summed until
    its terms vanish and flagged divergent when its ratio reaches 1.
    """
    if s <= 0:
        raise ValueError("covering exponent must be > 0")
    rate = _weight_rate(s, weight, params)
    x = math.exp(-rate)
    M = model.M
    geo = x / (1.0 - x)

    # single-symbol blocks: square at M+1 and parabolic orders >= M+2
    single = 2 * math.exp(-rate * (M + 1))
    total = single + single * geo

    # prefix of order n, then a symbol of order at least floor(M + Xi n) + 1
    diverged = math.log(2.0) - rate * (1.0 + params.Xi) >= 0.0
    n = 2
    while True:
        sharp = _sharp(model, n)[n]
        if sharp:
            m0 = M + params.Xi * n
            if not math.isfinite(m0) or m0 > 1e306:
                break  # weights underflow to zero beyond here
            exponent = -rate * (math.floor(m0) + 1)
            term = 2 * sharp * math.exp(exponent) * (1.0 + geo)
            # term covers orders m0+1, m0+2, ... via the geometric factor
            if term == 0.0 or (total > 0 and term < total * 1e-18):
                if not diverged:
                    break
            total += term
        n += 1
        if n > 4000 or (diverged and n > 64):
            break
    return total, diverged


def _prefix_sums(model: SuitabilityModel, rate: float, N: int) -> list[float]:
    """Running sums of w_n e^{-rate n} over the prefix orders n = 0..N."""
    w = _sharp(model, N)
    return list(accumulate(w[n] * math.exp(-rate * n) for n in range(N + 1)))


def _psi(prefix: float, blocks: float, N: int) -> float:
    """Psi_N = prefix_N * blocks^N (the prefix alone at N = 0)."""
    return prefix * blocks**N if N else prefix


@dataclass(frozen=True)
class CoveringSum:
    N: int
    s: float
    weight: str
    value: float
    lam_bound: float
    passes_bound: bool
    diverged: bool


def covering_sum(
    N: int,
    s: float,
    model: SuitabilityModel,
    params: Params,
    weight: str = "hausdorff",
) -> CoveringSum:
    """Psi_N(s): weight summed over words (prefix of order <= N) . (N blocks).

    The weight is exponential in the total order, so the sum factors into
    a prefix part and the N-th power of the block sum; both are evaluated
    by the counting DP plus geometric closed forms.  weight="hausdorff"
    uses e^{-s n c / 3} (covering diameters); weight="cardinality" uses
    e^{-s n}.  The comparison value lambda^N is reported alongside.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    rate = _weight_rate(s, weight, params)
    blocks, diverged = block_sum(model, params, s, weight)
    value = _psi(_prefix_sums(model, rate, N)[N], blocks, N)
    lam_bound = params.lam**N
    return CoveringSum(
        N=N,
        s=s,
        weight=weight,
        value=value,
        lam_bound=lam_bound,
        passes_bound=bool(not diverged and value < lam_bound),
        diverged=diverged,
    )


@dataclass(frozen=True)
class DimensionBound:
    bound: float
    s_star: float | None
    certified: bool
    factor: float
    weight: str
    N_max: int
    warning: str | None = None


_N_MAX = 12


def dimension_upper_bound(
    model: SuitabilityModel,
    params: Params,
    s_grid: Sequence[float],
) -> DimensionBound:
    """Smallest grid exponent whose covering sums decay geometrically.

    Certifies s when Psi_0 > Psi_1 > ... > Psi_12 (_N_MAX = 12) of the
    cardinality-weighted covering sums strictly decay with no divergence flag;
    returns 3 s (capped at 1), mirroring the diameter-exponent tripling of
    the covering argument.  No certifying grid point returns 1 with a
    warning.
    """
    if not s_grid or any(
        s2 <= s1 for s1, s2 in zip(s_grid, list(s_grid)[1:])
    ):
        raise ValueError("s_grid must be nonempty and strictly increasing")
    if any(not 0.0 < s <= 1.0 for s in s_grid):
        raise ValueError("grid exponents must lie in (0, 1]")
    factor, weight = 3.0, "cardinality"
    for s in s_grid:
        blocks, diverged = block_sum(model, params, s, weight)
        if diverged:
            continue
        prefixes = _prefix_sums(model, _weight_rate(s, weight, params), _N_MAX)
        values = [_psi(p, blocks, N) for N, p in enumerate(prefixes)]
        if all(b < a for a, b in zip(values, values[1:])):
            return DimensionBound(
                bound=min(1.0, factor * s),
                s_star=s,
                certified=True,
                factor=factor,
                weight=weight,
                N_max=_N_MAX,
            )
    return DimensionBound(
        bound=1.0,
        s_star=None,
        certified=False,
        factor=factor,
        weight=weight,
        N_max=_N_MAX,
        warning="no grid exponent produced geometric decay",
    )

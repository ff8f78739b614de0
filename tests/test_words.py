"""Word combinatorics: counting recursions vs exhaustive enumeration,
the divisibility order, regularity checks, and covering-sum bounds."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonshift import words
from henonshift.params import Params
from henonshift.words import (
    Symbol,
    SuitabilityModel,
    Word,
    UNIT_WORD,
    aleph,
    block_sum,
    canonical_spellings,
    count_prime_words,
    count_sharp,
    covering_sum,
    dimension_upper_bound,
    divides,
    enumerate_words,
    full_model,
    is_xi_regular,
    model_from_dict,
    model_to_dict,
    s_minus,
    s_plus,
    simple_only_model,
    synthetic_census,
    validate_common_sequence,
    word_from_dicts,
    word_to_dicts,
    zstar_from_model,
)


# ---------------------------------------------------------------------------
# alphabet and counting


def test_full_model_multiplicities():
    m = full_model(10)
    # two symbols at every order >= 2: simple through M, square at M+1,
    # parabolic beyond
    for order in range(2, 30):
        assert m.multiplicity_of_order(order) == 2
    assert all(s.kind == "simple" for s in m.symbols_of_order(7))
    assert all(s.kind == "square" for s in m.symbols_of_order(11))
    assert all(s.kind == "parabolic" for s in m.symbols_of_order(12))
    assert m.symbols_of_order(14)[0].depth == 3  # order = M + 1 + depth


def test_sharp_sequence_small_orders():
    m = full_model(10)
    assert [count_sharp(n, m) for n in range(10)] == [
        1, 0, 2, 2, 6, 10, 22, 42, 86, 170,
    ]


def test_sharp_matches_enumeration():
    m = full_model(4)
    for n in range(0, 14):
        assert count_sharp(n, m) == sum(1 for _ in enumerate_words(m, n))


def test_full_model_sharp_recurrence_and_closed_form():
    # two symbols at every order >= 2 give w_n = w_{n-1} + 2 w_{n-2}
    for M in (4, 10, 100):
        m = full_model(M)
        w = [count_sharp(n, m) for n in range(301)]
        assert all(w[n] == w[n - 1] + 2 * w[n - 2] for n in range(2, 301))
        assert all(3 * w[n] == 2**n + 2 * (-1) ** n for n in range(301))


RESTRICTED_MODELS = [
    simple_only_model(5),
    full_model(5, multiplicity=1),
    SuitabilityModel(M=6, simple_orders=(2, 3, 5)),
    SuitabilityModel(M=4, include_square=False),
    SuitabilityModel(M=4, include_parabolic=False),
]


@pytest.mark.parametrize("model", RESTRICTED_MODELS, ids=repr)
def test_counts_match_enumeration_on_restricted_models(model):
    for n in range(0, 13):
        assert count_sharp(n, model) == sum(1 for _ in enumerate_words(model, n))
    for n in range(2, 15):
        assert count_prime_words(n, model) == sum(
            1 for _ in enumerate_words(model, n, prime=True)
        )


def test_one_count_table_per_model():
    m = full_model(10)
    for n in range(0, 301):
        count_sharp(n, m)
        count_prime_words(n, m)
    for n in range(2, 301):
        zstar_from_model(n, m)
    counts = m._counts
    assert (len(counts.w), len(counts.P), len(counts.Z)) == (301, 301, 301)
    fresh = full_model(10)
    assert fresh == m and hash(fresh) == hash(m) and repr(fresh) == repr(m)
    assert len(fresh._counts.w) == 2  # a new model starts its own table
    assert zstar_from_model(300, fresh) == counts.Z[300]
    assert count_sharp(300, fresh) == counts.w[300]


def _enumerate_reference(model: SuitabilityModel, order: int, prime: bool = False) -> Iterator[Word]:
    """Every model word of the exact order, depth first by symbol order
    then sign, asking the model for its symbols at every node."""

    def rec(remaining: int, acc: tuple[Symbol, ...]) -> Iterator[Word]:
        if remaining == 0:
            if acc:
                yield Word(acc)
            return
        for k in range(2, remaining + 1):
            for sym in model.symbols_of_order(k):
                if prime:
                    if not acc and sym.kind != "simple":
                        continue
                    if acc and sym.kind == "simple":
                        continue
                yield from rec(remaining - k, acc + (sym,))

    if order == 0:
        yield UNIT_WORD
        return
    yield from rec(order, ())


ENUMERATION_MODELS = [
    full_model(10),
    simple_only_model(10),
    SuitabilityModel(M=12, simple_orders=(2, 3, 7)),
    SuitabilityModel(M=8, include_square=False),
    SuitabilityModel(M=8, include_parabolic=False),
]


@pytest.mark.parametrize("model", ENUMERATION_MODELS, ids=repr)
def test_enumerate_words_order_matches_reference(model):
    for order in range(15):
        for prime in (False, True):
            assert list(enumerate_words(model, order, prime)) == list(
                _enumerate_reference(model, order, prime)
            )


def test_enumerate_words_is_lazy():
    gen = enumerate_words(full_model(10), 80)
    assert inspect.isgenerator(gen)
    assert next(gen) == Word((s_plus(),) * 40)


def test_sharp_bounded_by_2_pow_n():
    for M in (10, 50, 100):
        m = full_model(M)
        for n in range(0, 301):
            assert count_sharp(n, m) <= 2**n


def test_prime_counts_small_m():
    m = full_model(10)
    assert [count_prime_words(n, m) for n in range(2, 11)] == [2] * 9
    assert count_prime_words(11, m) == 0
    assert count_prime_words(12, m) == 0
    assert count_prime_words(13, m) == 4


def test_prime_matches_enumeration():
    m = full_model(4)
    for n in range(2, 16):
        assert count_prime_words(n, m) == sum(1 for _ in enumerate_words(m, n, prime=True))


def test_prime_exponential_bound():
    for M in (10, 50, 100):
        m = full_model(M)
        p = Params(M=M)
        for n in range(2, 301):
            assert count_prime_words(n, m) <= 2.0 * math.exp(p.epsilon * n) + 1e-9


def test_zstar_exponential_bound():
    for M in (10, 50, 100):
        m = full_model(M)
        p = Params(M=M)
        for n in range(2, 301):
            assert zstar_from_model(n, m) <= 2.0 * math.exp(2.0 * p.epsilon * n) + 1e-9


def test_synthetic_census_closes_renewal():
    m = full_model(25)
    census = synthetic_census(m, 80)
    assert all(d == 0 for d in census.renewal_defect())
    assert census.Zstar[:1] == (0,)  # no length-1 first returns


# ---------------------------------------------------------------------------
# regularity and common sequences


def test_aleph_values():
    assert aleph(0, Params(M=1000)) == 0
    assert aleph(0, Params(M=22027)) == 1
    assert aleph(1000, Params(M=1000)) == 71
    assert aleph(5, Params(M=300)) == 10


def test_xi_regular_monotone_in_xi():
    p = Params(M=10)
    w = Word((Symbol("simple", 5, "+"), Symbol("parabolic", 30, "+", depth=19)))
    assert not is_xi_regular(w, 1.0, p)
    assert is_xi_regular(w, 1e9, p)


def _filler(k: int) -> list[Word]:
    return [Word((Symbol("simple", 3, "+"),))] * k


def _sminus_run(k: int) -> list[Word]:
    return [Word((s_minus(),))] * k


def test_common_sequence_run_length_boundary():
    p = Params(M=300)  # aleph(5) = 10
    base = _filler(5)
    ok = validate_common_sequence(base + _sminus_run(9), p)
    bad = validate_common_sequence(base + _sminus_run(10), p)
    assert ok.condition4_ok
    assert not bad.condition4_ok
    assert bad.condition4_failures


def test_common_sequence_condition2():
    p = Params(M=20)
    simple = Word((Symbol("simple", 4, "+"),))
    square = Word((Symbol("simple", 3, "+"), Symbol("square", 21, "+")))
    two_simples = Word((Symbol("simple", 4, "+"), Symbol("simple", 5, "-")))
    rep = validate_common_sequence([simple, square], p)
    assert rep.condition2_ok
    rep2 = validate_common_sequence([two_simples], p)
    assert not rep2.condition2_ok


def test_common_sequence_condition3_blocks_early_parabolic():
    p = Params(M=100)
    # a parabolic-order symbol in the very first word violates the
    # cumulative-order budget e^{-sqrt M} * (previous total = 0)
    w = Word((Symbol("parabolic", 102, "+", depth=0),))
    rep = validate_common_sequence([w], p)
    assert not rep.condition3_ok


def test_common_sequence_condition1_not_checked():
    p = Params(M=50)
    rep = validate_common_sequence(_filler(3), p)
    assert rep.condition1 == "unchecked"


# ---------------------------------------------------------------------------
# divisibility


def _spelling(M: int, max_order: int):
    return canonical_spellings(full_model(M), max_order)


def test_divides_reflexive_and_unit():
    sp = _spelling(4, 12)
    w = Word((s_plus(), s_minus()))
    assert divides(w, w, sp)
    assert divides(w, UNIT_WORD, sp)


def test_divides_suffix():
    sp = _spelling(4, 12)
    a = Word((Symbol("simple", 3, "+"), s_plus(), s_minus()))
    b = Word((s_plus(), s_minus()))
    assert divides(a, b, sp)
    assert not divides(b, a, sp)


def test_divides_parabolic_spells_simple():
    M = 4
    sp = _spelling(M, 16)
    sym = full_model(M).symbols_of_order(M + 1 + 4)[0]
    para = Word((sym,))
    piece = sp[sym]
    assert divides(para, piece, sp)


def test_partial_order_exhaustive_small_model():
    M = 4
    m = full_model(M)
    sp = _spelling(M, 20)
    words = [UNIT_WORD] + [
        w for n in range(2, 9) for w in enumerate_words(m, n)
    ]
    memo: dict = {}
    rel = {}
    for a in words:
        for b in words:
            rel[(a, b)] = divides(a, b, sp, memo)
    # reflexivity
    assert all(rel[(w, w)] for w in words)
    # order decrease, with equality only for equal words
    for a in words:
        for b in words:
            if rel[(a, b)]:
                assert a.order >= b.order
                if a.order == b.order:
                    assert a == b
    # antisymmetry
    for a in words:
        for b in words:
            if rel[(a, b)] and rel[(b, a)]:
                assert a == b
    # transitivity on the realized relation pairs
    divisors = {a: [b for b in words if rel[(a, b)]] for a in words}
    for a in words:
        for b in divisors[a]:
            for c in divisors[b]:
                assert rel[(a, c)]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_divides_unit_always(order, seed):
    m = full_model(5)
    sp = _spelling(5, 24)
    rng = random.Random(seed)
    words = list(enumerate_words(m, order))
    if not words:
        return
    w = rng.choice(words)
    assert divides(w, UNIT_WORD, sp)
    assert divides(w, w, sp)


def _divides_reference(a: Word, b: Word, spelling, memo: dict) -> bool:
    """Right divisibility by recursion on Word objects, rules D1-D3 as in
    the divides docstring."""
    if a == b or not b:
        return True
    key = (a, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    memo[key] = False
    result = False

    if len(a) == 1 and a.symbols[0].kind == "parabolic":
        sym = a.symbols[0]
        try:
            spelled = spelling[sym]
        except KeyError:
            raise ValueError(f"no spelling provided for parabolic symbol {sym.id}")
        if spelled.order >= a.order:
            raise ValueError(
                f"spelling of {sym.id} must have order < {a.order}, got {spelled.order}"
            )
        result = _divides_reference(spelled, b, spelling, memo)

    if not result:
        la, lb = len(a), len(b)
        for k in range(0, min(la, lb) + 1):
            if k and a.symbols[la - k] != b.symbols[lb - k]:
                break
            b2 = Word(b.symbols[: lb - k])
            for m in range(0, la - k + 1):
                if m == 0 and k == 0:
                    continue
                a2 = Word(a.symbols[m : la - k])
                if _divides_reference(a2, b2, spelling, memo):
                    result = True
                    break
            if result:
                break

    memo[key] = result
    return result


def _criterion_09_sample() -> list[Word]:
    """Criterion 09's random words of order <= 30 at M = 10."""
    model10 = full_model(10)
    rng = random.Random(20260814)

    def rand_word(max_order: int) -> Word:
        syms = []
        budget = rng.randint(2, max_order)
        while budget >= 2:
            o = rng.randint(2, min(budget, 16))
            syms.append(rng.choice(model10.symbols_of_order(o)))
            budget -= o
        return Word(tuple(syms)) if syms else UNIT_WORD

    return sorted({UNIT_WORD} | {rand_word(30) for _ in range(60)}, key=repr)


@pytest.mark.parametrize(
    "M, universe",
    [
        (4, lambda: [UNIT_WORD] + [w for n in range(2, 9) for w in enumerate_words(full_model(4), n)]),
        (10, _criterion_09_sample),
    ],
    ids=["exhaustive_M4", "criterion09_sample_M10"],
)
def test_divides_matches_word_recursion(M, universe):
    words = universe()
    sp = canonical_spellings(full_model(M), 64)
    ref_memo: dict = {}
    expected = [_divides_reference(a, b, sp, ref_memo) for a in words for b in words]
    memo: dict = {}
    assert [divides(a, b, sp, memo) for a in words for b in words] == expected
    assert [divides(a, b, sp) for a in words for b in words] == expected
    assert any(expected) and not all(expected)


def test_divides_looks_up_spellings_only_at_d2():
    p = full_model(4).symbols_of_order(8)[0]  # parabolic, depth 3
    s2 = s_plus()
    # D1 and D3 settle these without spelling p out
    assert divides(Word((p,)), UNIT_WORD, {})
    assert divides(Word((s2, p)), Word((p,)), {})
    not_lower = {p: Word((Symbol("simple", 4, "+"), Symbol("simple", 4, "-")))}
    for spelling, message in (
        ({}, f"no spelling provided for parabolic symbol {p.id}"),
        (not_lower, f"spelling of {p.id} must have order < 8, got 8"),
    ):
        memo: dict = {}
        for check in (
            lambda: divides(Word((p,)), Word((s2,)), spelling),
            lambda: _divides_reference(Word((p,)), Word((s2,)), spelling, {}),
            lambda: divides(Word((s2, p)), Word((s2,)), spelling, memo),
            lambda: divides(Word((s2, p)), Word((s2,)), spelling, memo),  # no stale result
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check()


def test_canonical_spellings_strictly_decrease_order():
    M = 6
    sp = _spelling(M, 40)
    for sym, piece in sp.items():
        if sym.kind == "parabolic":
            assert piece.order < sym.order
            depth = sym.order - (M + 1)
            if depth >= 2:
                assert piece.order == depth
            else:
                assert piece.order == 2  # stand-in for the inexpressible d=1


# ---------------------------------------------------------------------------
# covering sums and the dimension bound


def test_block_sum_closed_form_vs_truncated_series():
    model = full_model(30)
    params = Params(M=30)
    s = 0.2
    total, diverged = block_sum(model, params, s, "cardinality")
    assert not diverged
    # brute series: single symbols + prefixed blocks, truncated far out
    rate = s
    brute = 0.0
    for order in range(31, 4000):
        brute += 2 * math.exp(-rate * order)
    xi = params.Xi
    for n in range(2, 60):
        m0 = math.floor(30 + xi * n) + 1
        tail = sum(
            count_sharp(n, model) * 2 * math.exp(-rate * o) for o in range(m0, m0 + 3000)
        )
        brute += tail
    assert total == pytest.approx(brute, rel=1e-6)


def test_covering_sum_factorizes():
    model = full_model(25)
    params = Params(M=25)
    c0 = covering_sum(0, 0.2, model, params, weight="cardinality")
    c1 = covering_sum(1, 0.2, model, params, weight="cardinality")
    c3 = covering_sum(3, 0.2, model, params, weight="cardinality")
    b, _ = block_sum(model, params, 0.2, "cardinality")
    prefix1 = sum(count_sharp(n, model) * math.exp(-0.2 * n) for n in range(0, 2))
    assert c1.value == pytest.approx(prefix1 * b, rel=1e-12)
    prefix3 = sum(count_sharp(n, model) * math.exp(-0.2 * n) for n in range(0, 4))
    assert c3.value == pytest.approx(prefix3 * b**3, rel=1e-12)
    assert c0.value == pytest.approx(1.0, rel=1e-12)  # unit word only


def test_covering_sum_divergence_flag():
    model = full_model(9)
    params = Params(M=9)
    # tiny s: the prefixed-block series cannot converge
    _, diverged = block_sum(model, params, 1e-9, "cardinality")
    assert diverged


def test_dimension_bound_desk_values():
    grid = [k / 100.0 for k in range(1, 101)]
    b100 = dimension_upper_bound(full_model(100), Params(M=100), grid)
    assert b100.certified and b100.bound <= 0.3 + 1e-12
    assert b100.bound == pytest.approx(0.15, abs=1e-12)
    b25 = dimension_upper_bound(full_model(25), Params(M=25), grid)
    assert b25.certified and b25.bound == pytest.approx(0.45, abs=1e-12)


def test_dimension_bound_sums_blocks_once_per_exponent(monkeypatch):
    calls = []
    real = words.block_sum

    def counting(model, params, s, weight="hausdorff"):
        calls.append(s)
        return real(model, params, s, weight)

    monkeypatch.setattr(words, "block_sum", counting)
    grid = [k / 100.0 for k in range(1, 101)]
    b = dimension_upper_bound(full_model(100), Params(M=100), grid)
    tried = grid[: grid.index(b.s_star) + 1]
    # the largest exponent is probed first for an empty covering family
    assert Counter(calls) == Counter(tried + [grid[-1]])


@pytest.mark.parametrize("n_max", [0, -1])
def test_dimension_bound_needs_a_decay_check(n_max):
    # with no Psi_1 there is nothing to decay, so nothing is certified
    grid = [0.01, 0.5]
    with pytest.raises(ValueError, match="N_max"):
        dimension_upper_bound(full_model(25), Params(M=25), grid, N_max=n_max)


def test_dimension_bound_degenerate_model():
    grid = [k / 100.0 for k in range(1, 101)]
    b = dimension_upper_bound(simple_only_model(12), Params(M=12), grid)
    assert b.certified and b.bound == 0.0


def test_dimension_bound_monotone_in_m():
    grid = [k / 100.0 for k in range(1, 101)]
    b50 = dimension_upper_bound(full_model(50), Params(M=50), grid).bound
    b200 = dimension_upper_bound(full_model(200), Params(M=200), grid).bound
    assert b200 <= b50 <= 1.0


# ---------------------------------------------------------------------------
# serialization


def test_model_json_roundtrip():
    model, params = model_from_dict({"M": 40, "b": 1e-8, "model": "full"})
    data = model_to_dict(model, params)
    model2, params2 = model_from_dict(data)
    assert model2 == model
    assert params2.M == params.M


def test_word_json_roundtrip():
    w = Word(
        (
            s_plus(),
            Symbol("square", 11, "-"),
            Symbol("parabolic", 15, "+", depth=3),
        )
    )
    assert word_from_dicts(word_to_dicts(w)) == w


def test_equal_symbols_and_words_hash_equal():
    def build():
        return (
            Symbol("parabolic", 15, "-", depth=3),
            Word((s_plus(), Symbol("square", 11, "+"), Symbol("parabolic", 15, "-", depth=3))),
        )

    (sym1, w1), (sym2, w2) = build(), build()
    hash(sym1), hash(w1)  # one side hashed (and cached) before the other
    for x, y in ((sym1, sym2), (w1, w2)):
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        for z in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert z == x and hash(z) == hash(x)
    assert dataclasses.asdict(sym1) == {"kind": "parabolic", "order": 15, "sign": "-", "depth": 3}
    assert dataclasses.replace(sym1, sign="+") == Symbol("parabolic", 15, "+", depth=3)
    assert hash(sym1) == hash(("parabolic", 15, "-", 3))


_WORD_SRC = "Word((s_plus(), Symbol('parabolic', 15, '-', depth=3)))"
_PICKLE_WORD = f"""
import pickle, sys
from henonshift.words import Symbol, Word, s_plus
w = {_WORD_SRC}
hash(w)
sys.stdout.write(pickle.dumps(w).hex())
"""
_FIND_WORD = f"""
import pickle, sys
from henonshift.words import Symbol, Word, s_plus
table = {{{_WORD_SRC}: "found"}}
print(table.get(pickle.loads(bytes.fromhex(sys.stdin.read())), "missing"))
"""


def test_pickled_word_is_found_under_another_hash_seed():
    src = str(Path(words.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    dumped = subprocess.run(
        [sys.executable, "-c", _PICKLE_WORD], env=dict(env, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=120,
    )
    assert dumped.returncode == 0, dumped.stderr
    found = subprocess.run(
        [sys.executable, "-c", _FIND_WORD], env=dict(env, PYTHONHASHSEED="1"),
        input=dumped.stdout, capture_output=True, text=True, timeout=120,
    )
    assert found.returncode == 0, found.stderr
    assert found.stdout.strip() == "found"

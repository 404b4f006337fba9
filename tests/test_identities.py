import hashlib
import math
import pickle
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_PRIMES, eval_expression_per_term, index_pairs_up_to, indices_up_to, pfd_exhaustive, reversed_shuffle
from fmpl import identities, modular
from fmpl.evaluate import eval_fmp, eval_zeta
from fmpl.identities import (
    CorrectionExpression,
    CorrectionTerm,
    _accumulate,
    _fold,
    eval_expression,
    expand_triple,
    pfd_check,
    shuffle_correction,
    term_product,
    verify_eq7,
    verify_li_at_one,
    verify_main,
    verify_prop24,
    verify_reversal,
    verify_stuffle,
)
from fmpl.modular import WORD_MAX, ModPoly, primes_in_range, word
from fmpl.surjections import variant_expansion
from fmpl.words import EMPTY, FormalSum, Index, concat, shuffle, stuffle

I = Index.of


def term(coef, zeta=(), tpow=0, li=()):
    return CorrectionTerm(coef, Index(zeta), tpow, Index(li))


def test_term_bigrade():
    t = term(3, zeta=(2,), tpow=1, li=(1, 1))
    assert t.bigrade == (4, 2)
    assert not t.is_pure
    assert term(1, li=(2,)).is_pure
    assert str(t) == "3*zeta(2)*Tp^1*li(1,1)"
    assert str(term(-1, zeta=(2,), tpow=1)) == "-1*zeta(2)*Tp^1*li()"


def test_expression_canonicalization():
    e = CorrectionExpression([term(1, li=(1,)), term(2, li=(1,)), term(1, zeta=(2,)), term(-1, zeta=(2,))])
    assert e.terms == (term(3, li=(1,)),)
    assert CorrectionExpression([term(1)]) + CorrectionExpression([term(-1)]) == CorrectionExpression()
    assert str(CorrectionExpression()) == "0"


@pytest.mark.parametrize("coef", [Fraction(1, 2), Fraction(3), 0.5, 2.0])
def test_expression_rejects_coefficients_that_are_not_integers(coef):
    with pytest.raises(TypeError):
        CorrectionExpression([term(coef, li=(1,))])
    expr = CorrectionExpression([term(1, li=(1,))])
    with pytest.raises(TypeError):
        expr * coef
    with pytest.raises(TypeError):
        coef * expr
    assert (np.int64(3) * expr).terms == (term(3, li=(1,)),)
    assert type(CorrectionExpression([term(np.int64(2), li=(1,))]).terms[0].coef) is int


def test_expand_triple_base_cases():
    assert expand_triple(EMPTY, I(2, 1), I(3)) == CorrectionExpression([term(1, li=(2, 1, 3))])
    assert expand_triple(I(2, 1), EMPTY, I(3)) == CorrectionExpression([term(1, li=(2, 1, 3))])
    assert expand_triple(EMPTY, EMPTY, I(3)) == CorrectionExpression([term(1, li=(3,))])
    assert expand_triple(EMPTY, EMPTY, EMPTY) == CorrectionExpression([term(1)])


def test_expand_triple_worked_examples():
    assert expand_triple(I(1), I(1), EMPTY) == CorrectionExpression(
        [term(2, li=(1, 1)), term(-1, zeta=(2,), tpow=1)]
    )
    assert expand_triple(I(1), I(1), I(1)) == CorrectionExpression(
        [term(2, li=(1, 1, 1)), term(-1, zeta=(2,), tpow=1, li=(1,))]
    )


def test_shuffle_correction_examples():
    e = shuffle_correction(I(1), I(1))
    assert e.pure_part() == FormalSum.single(I(1, 1), 2)
    assert e.impure_terms() == (term(-1, zeta=(2,), tpow=1),)

    # the pure part carries the index-reversed image of the shuffle sum
    e = shuffle_correction(I(2), I(3))
    assert e.pure_part() == FormalSum([(I(3, 2), 1), (I(2, 3), 3), (I(1, 4), 6)])
    assert e.pure_part() == reversed_shuffle(I(2), I(3))

    e = shuffle_correction(EMPTY, I(2, 1))
    assert e.terms == (term(1, li=(2, 1)),)


@pytest.mark.parametrize("max_weight", [5])
def test_pure_part_is_reversed_shuffle(max_weight):
    for k, kp in index_pairs_up_to(max_weight):
        assert shuffle_correction(k, kp).pure_part() == reversed_shuffle(k, kp), (k, kp)


def _rank_mod_p(polys, p):
    """Rank over F_p of the coefficient vectors of the given polynomials."""
    width = max(len(f.coeffs) for f in polys)
    rows = [[int(c) for c in f.coeffs] + [0] * (width - len(f.coeffs)) for f in polys]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [c * inv % p for c in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_pure_part_orientation_mismatch():
    # the unreversed comparison fails for orientation-asymmetric pairs: the
    # decomposition that evaluates exactly must carry li(2,1) + 2*li(1,2),
    # and li(1,2) differs from li(2,1) at every prime
    assert shuffle_correction(I(1), I(2)).pure_part() != shuffle(I(1), I(2))
    for p in (5, 7, 11):
        assert eval_fmp(I(1, 2), p) != eval_fmp(I(2, 1), p)
    # no decomposition with the literal pure part (1,2) + 2*(2,1) exists: its
    # remainder raises the F_p-rank of the allowed impure generators
    # zeta(m) * (T^p)^n * li(m') with wt(m') <= 2, while the reversed
    # remainder lies in their span
    for p in (5, 7):
        gens = [
            ModPoly(p, np.concatenate((np.zeros(p * n, dtype=np.int64), eval_fmp(m, p).coeffs)))
            for n in range(3)
            for m in indices_up_to(2)
        ]
        base = _rank_mod_p(gens, p)
        prod = eval_fmp(I(1), p) * eval_fmp(I(2), p)
        literal = prod - eval_fmp(I(1, 2), p) - ModPoly(p, 2 * eval_fmp(I(2, 1), p).coeffs)
        reversed_ = prod - eval_fmp(I(2, 1), p) - ModPoly(p, 2 * eval_fmp(I(1, 2), p).coeffs)
        assert _rank_mod_p(gens + [literal], p) == base + 1, p
        assert _rank_mod_p(gens + [reversed_], p) == base, p


# SHA-256 of the grid below as recorded at commit 71f1a90, when the
# coefficients could still be Fractions; an int prints as a Fraction of
# equal value did, so the digest still holds
SYMBOLIC_DIGEST = "87900e4ee7af81386090b7175ec5a3225c7811ef0d3f96d77f5c6e85449a7866"


def test_symbolic_layer_is_bit_identical():
    # str() of every product and expansion on a small grid, so a change to
    # the symbolic layer's representation shows up as a changed digest
    h = hashlib.sha256()
    pool = indices_up_to(5)
    for k, kp in product(pool, repeat=2):
        if k.depth + kp.depth <= 6 and k.weight + kp.weight <= 7:
            h.update(f"{k}|{kp}|{shuffle_correction(k, kp)}|{shuffle(k, kp)}|{stuffle(k, kp)}\n".encode())
    for k in indices_up_to(7, 6, include_empty=False):
        for i in range(1, k.depth + 1):
            h.update(f"{i}|{k}|{variant_expansion(i, k)}\n".encode())
    assert h.hexdigest() == SYMBOLIC_DIGEST


# SHA-256 of the depth grid below as recorded at commit eee6158
DEPTH_DIGEST = "40f03cb81ec9c91ab3ca3ba65fa1335ceca43ea77dc48c22a0576b6070afe997"


def test_depth_axis_is_bit_identical():
    # every class of the deepest indices, and the depth-9 product's 1,908 terms
    h = hashlib.sha256()
    for k in [I(*(1,) * 7), I(*(1,) * 8), I(3, 1, 2, 1, 1, 2, 1, 1), I(2, 1, 1, 2, 1, 1, 1)]:
        for i in range(1, k.depth + 1):
            h.update(f"{i}|{k}|{variant_expansion(i, k)}\n".encode())
    expr = shuffle_correction(I(*(1,) * 5), I(*(1,) * 4))
    assert len(expr.terms) == 1908
    h.update(f"{expr}\n".encode())
    assert h.hexdigest() == DEPTH_DIGEST


def test_correction_grading():
    for k, kp in index_pairs_up_to(5):
        total = k.weight + kp.weight
        for t in shuffle_correction(k, kp).terms:
            a, b = t.bigrade
            assert a == total
            if not t.is_pure:
                assert b <= total - 1


def test_expand_triple_grading():
    for lam, mu, nu in [(I(1, 2), I(1), I(2)), (I(2), I(2), I(1, 1)), (I(1, 1), I(1, 1), EMPTY)]:
        total = lam.weight + mu.weight + nu.weight
        for t in expand_triple(lam, mu, nu).terms:
            a, b = t.bigrade
            assert a == total
            if not t.is_pure:
                assert b <= total - 1


TERM_PAIRS = [
    (term(2, zeta=(2,), tpow=1, li=(1,)), term(3, zeta=(1, 1), tpow=0, li=(2,))),
    (term(1, li=(1, 1)), term(1, li=(2,))),
    (term(-1, zeta=(3,), tpow=2), term(1, zeta=(1,), tpow=0, li=(1, 2))),
    (term(1), term(5, zeta=(2, 1), tpow=1, li=(1,))),
]


@pytest.mark.parametrize("t1,t2", TERM_PAIRS)
def test_term_product_grades_add(t1, t2):
    a1, b1 = t1.bigrade
    a2, b2 = t2.bigrade
    prod = term_product(t1, t2)
    assert prod
    for t in prod.terms:
        a, b = t.bigrade
        assert a == a1 + a2
        assert b <= b1 + b2
        assert t.tpow >= t1.tpow + t2.tpow
    top = [t for t in prod.terms if t.bigrade[1] == b1 + b2]
    assert top, "the leading sublevel must survive"


@pytest.mark.parametrize(
    "t1,t2",
    TERM_PAIRS
    + [
        # depth-2 zeta and li parts on both sides, so both stuffles merge parts
        (term(2, zeta=(2, 1), tpow=1, li=(1, 2)), term(-1, zeta=(1, 2), tpow=0, li=(2, 1))),
        (term(1, zeta=(1, 1), tpow=2, li=(1, 1)), term(3, zeta=(3, 1), tpow=1, li=(2, 2))),
    ],
)
def test_term_product_values(t1, t2):
    # the product of the two evaluated generators is the evaluated rewrite
    prod = term_product(t1, t2)
    for p in (5, 7, 101, 1009):
        lhs = eval_expression(CorrectionExpression([t1]), p) * eval_expression(CorrectionExpression([t2]), p)
        assert lhs == eval_expression(prod, p), p


def test_eval_expression_examples():
    assert eval_expression(CorrectionExpression(), 5) == ModPoly.zero(5)
    assert eval_expression(CorrectionExpression([term(1)]), 5) == ModPoly.one(5)
    expr = expand_triple(I(1), I(1), EMPTY)
    assert eval_expression(expr, 3) == ModPoly(3, [0, 0, 1, 1, 1])


def test_expression_hash_is_the_terms_hash_and_survives_pickling():
    expr = shuffle_correction(I(2, 1), I(3))
    assert hash(expr) == hash(expr.terms)
    rebuilt = CorrectionExpression(reversed(expr.terms))
    assert rebuilt is not expr and rebuilt == expr and hash(rebuilt) == hash(expr)
    restored = pickle.loads(pickle.dumps(expr))
    assert restored == expr and hash(restored) == hash(expr)
    assert restored.terms == expr.terms
    with pytest.raises(AttributeError):
        restored._terms = ()
    assert eval_expression(restored, 101) == eval_expression(expr, 101)


BIT_IDENTITY_PRIMES = (2, 3, 5, 7, 13, 101, 1009)


def test_eval_expression_matches_per_term_on_small_pairs():
    pool = indices_up_to(4)
    for k, kp in product(pool, repeat=2):
        expr = shuffle_correction(k, kp)
        for p in BIT_IDENTITY_PRIMES:
            assert eval_expression(expr, p) == eval_expression_per_term(expr, p), (k, kp, p)


@pytest.mark.parametrize("k,kp", [(I(2, 1, 2, 1), I(3, 1, 2)), (I(2, 1), I(3)), (I(1), I(2))])
def test_eval_expression_matches_per_term_on_benchmark_pairs(k, kp):
    # the pairs of the main-w12 and main-w6 sweeps, and the smallest one
    expr = shuffle_correction(k, kp)
    for p in primes_in_range(2, 200) + [1009, 4999]:
        assert eval_expression(expr, p) == eval_expression_per_term(expr, p), (k, kp, p)


random_terms = st.lists(
    st.tuples(
        st.one_of(st.integers(-30, 30), st.integers(-(2**70), 2**70)),
        st.sampled_from(indices_up_to(4, max_depth=3)),
        st.integers(0, 3),
        st.sampled_from(indices_up_to(3)),
        st.booleans(),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(raw=random_terms, p=st.sampled_from((2, 3, 5, 7, 13)))
def test_eval_expression_matches_per_term_on_random_expressions(raw, p):
    terms = []
    for coef, zeta, tpow, li, cancel in raw:
        terms.append(CorrectionTerm(coef, zeta, tpow, li))
        if cancel and zeta != EMPTY:
            # a zeta-free partner on the same (li, T-power) whose scalar
            # cancels this term's mod p
            partner = -coef * eval_zeta(zeta, p) % p
            terms.append(CorrectionTerm(partner, EMPTY, tpow, li))
    expr = CorrectionExpression(terms)
    assert eval_expression(expr, p) == eval_expression_per_term(expr, p)


def test_accumulator_bound_at_largest_prime():
    # at p = 2^31 - 1 a row takes two all-(p - 1) adds between reductions;
    # 1000 products at one offset would pass 2^63 unreduced
    p = 2**31 - 1
    table = np.full(40, p - 1, dtype=np.int64)
    terms = [(p - 1, 0, table)] * 1000 + [(p - 1, 30, table[:20])] * 7
    out = _accumulate(50, terms, p)
    expected = [0] * 50
    for scalar, offset, t in terms:
        for e, c in enumerate(t.tolist()):
            expected[offset + e] = (expected[offset + e] + scalar * c) % p
    assert out == ModPoly(p, expected)
    assert out.coeffs.tolist() == expected
    # _fold, the accumulator behind it, on two rows; 1011 adds, so the last
    # one is reduced only by the final reduction
    adds = [(0, p - 1, 0, table)] * 1000 + [(1, p - 1, 10, table)] * 4 + [(0, p - 1, 30, table[:20])] * 7
    rows = _fold(np.zeros((2, 50), dtype=np.int64), adds, p)
    expected = [[0] * 50 for _ in range(2)]
    for r, scalar, offset, t in adds:
        for e, c in enumerate(t.tolist()):
            expected[r][offset + e] = (expected[r][offset + e] + scalar * c) % p
    assert rows.tolist() == expected


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_fold_exact_on_all_max_adds_at_the_width_edges(p):
    # in int32 a row takes 1 add between reductions at 46337 and about 1290
    # at 1291 and 1297; 1300 adds at one offset pass the budget there
    budget = (WORD_MAX[word(p)] - p) // (p - 1) ** 2
    assert (budget == 1) == (p == 46337)
    assert (budget < 1300) == (p != 46349)
    table = np.full(40, p - 1, dtype=word(p))
    adds = [(0, p - 1, 0, table)] * 1300 + [(1, p - 1, 10, table)] * 3 + [(0, p - 1, 30, table[:20])] * 7
    rows = _fold([np.zeros(50, dtype=word(p)), np.zeros(60, dtype=word(p))], adds, p)
    expected = [[0] * 50, [0] * 60]
    for r, scalar, offset, t in adds:
        for e, c in enumerate(t.tolist()):
            expected[r][offset + e] = (expected[r][offset + e] + scalar * c) % p
    assert [row.dtype for row in rows] == [word(p)] * 2
    assert [row.tolist() for row in rows] == expected


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_pfd_row_exact_at_the_width_edges(monkeypatch, p):
    assert pfd_check(1, 1, p).ok and pfd_check(3, 2, p).ok
    # a wrong coefficient: the first Y reported, and both sides there, are
    # those of the same row in Python ints
    monkeypatch.setattr(identities, "_binomials_mod", lambda n, count, p: [_wrong_binomial(n + t, t) % p for t in range(count)])
    alpha, beta = 3, 2

    def sides(y):
        z = y + 1
        rhs = sum(_wrong_binomial(alpha - 1 + t, t) * pow(z, -(alpha + t), p) * pow(y, t - beta, p) for t in range(beta))
        rhs += sum(_wrong_binomial(beta - 1 + t, t) * pow(z, -(beta + t), p) for t in range(alpha))
        return pow(y, -beta, p), rhs % p

    result = pfd_check(alpha, beta, p)
    y = next(y for y in range(1, p - 1) if sides(y)[0] != sides(y)[1])
    assert not result.ok and result.detail == "X=1 Y={}: lhs={} rhs={}".format(y, *sides(y))


def test_eval_expression_peak_is_the_part_rows_the_result_and_one_table():
    # (2,1) x (3) at p = 100003, in int64, with the memo's tables and the
    # plan already built: its live groups give 3 part rows of 2p - 1
    # entries and a result of 3p - 2.  The peak was 12.98 MiB (17.0 * 8p)
    # with one 2-D array of rows, reduced whole, and 14.5 MiB before the
    # fold; it is 10.05 MiB (13.2 * 8p)
    p = 100003
    expr = shuffle_correction(I(2, 1), I(3))
    eval_expression(expr, p)
    tracemalloc.start()
    try:
        eval_expression(expr, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 8 * p


def test_eval_expression_builds_one_polynomial(monkeypatch):
    expr = shuffle_correction(I(2, 1, 2, 1), I(3, 1, 2))
    built = []
    init = ModPoly.__init__
    from_reduced = ModPoly._from_reduced

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_from_reduced(*args):
        built.append(args)
        return from_reduced(*args)

    monkeypatch.setattr(ModPoly, "__init__", counting_init)
    monkeypatch.setattr(ModPoly, "_from_reduced", staticmethod(counting_from_reduced))
    value = eval_expression(expr, 199)
    assert value
    assert len(built) <= 2


def test_pfd_hand_case():
    # alpha = beta = 1, p = 5, X = 1, Y = 2: both sides equal 3
    assert pfd_check(1, 1, 5).ok
    assert pfd_check(1, 1, 7).ok
    assert pfd_check(2, 3, 101).ok
    with pytest.raises(ValueError):
        pfd_check(0, 1, 5)


def test_pfd_row_agrees_with_the_exhaustive_check():
    for p in primes_in_range(2, 63):
        for alpha, beta in product((1, 2, 3, 5), (1, 2, 4)):
            assert pfd_check(alpha, beta, p) == pfd_exhaustive(alpha, beta, p), (alpha, beta, p)


def _wrong_binomial(n, k):
    return math.comb(n + 1, k)


def _zero_at_tau_one(n, k):
    return 0 if k == 1 else math.comb(n, k)


@pytest.mark.parametrize("mutant", [_wrong_binomial, _zero_at_tau_one])
def test_pfd_row_fails_a_wrong_coefficient(monkeypatch, mutant):
    monkeypatch.setattr(identities, "_binomials_mod", lambda n, count, p: [mutant(n + t, t) % p for t in range(count)])
    for p in primes_in_range(5, 199):
        result = pfd_check(2, 2, p)
        assert not result.ok and result.detail.startswith("X=1 Y="), p
    # where a wrong coefficient vanishes mod p, both checks pass alike
    for p in primes_in_range(2, 31):
        for alpha, beta in product((1, 2, 3), (1, 2, 4)):
            assert pfd_check(alpha, beta, p).ok == pfd_exhaustive(alpha, beta, p, mutant).ok, (alpha, beta, p)


def test_pfd_binomials_are_stepped_mod_p():
    for p in (2, 3, 5, 7, 11, 13, 101):
        for alpha in range(1, 40):
            assert identities._binomials_mod(alpha - 1, 60, p) == [math.comb(alpha - 1 + t, t) % p for t in range(60)], (alpha, p)


def test_pfd_large_exponents_take_no_exact_binomials():
    # the exact binomials of 20,000 coefficients took 86 s
    start = time.perf_counter()
    assert pfd_check(10000, 10000, 5).ok
    assert time.perf_counter() - start < 1


def test_pfd_row_memory_does_not_grow_with_the_exponents(monkeypatch):
    # the powers are stepped one factor per tau: a few rows of p entries,
    # where one table per exponent would take alpha + beta = 500 of them
    monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
    p = 10007
    tracemalloc.start()
    try:
        assert pfd_check(200, 300, p).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * p


def test_verify_eq7_requires_nonempty_blocks():
    with pytest.raises(ValueError):
        verify_eq7(EMPTY, I(1), I(1), 5)
    with pytest.raises(ValueError):
        verify_eq7(I(1), EMPTY, I(1), 5)


def test_verify_eq7_spot():
    assert verify_eq7(I(1), I(1), EMPTY, 5).ok
    assert verify_eq7(I(2), I(1, 1), I(2), 7).ok
    assert verify_eq7(I(1, 2), I(2), I(1), 11).ok


def test_verify_eq7_deep_blocks():
    # depth-3 first block exercises the head-block sums with j up to 2
    for p in (5, 7, 11, 13):
        assert verify_eq7(I(1, 1, 1), I(2), I(1), p).ok, p
        assert verify_eq7(I(1, 2, 1), I(1, 1), EMPTY, p).ok, p
        assert verify_eq7(I(2), I(1, 1, 1), I(1), p).ok, p
        assert verify_eq7(I(1, 1, 2), I(2, 1), EMPTY, p).ok, p


def test_verify_main_deep_and_large():
    # weight-7 pairs beyond the acceptance grid, plus a four-digit prime
    assert verify_main(I(2, 2), I(2, 1), 7).ok
    assert verify_main(I(1, 1, 1), I(3, 1), 11).ok
    assert verify_main(I(2, 1), I(3), 1009).ok


def test_verify_main_spot():
    assert verify_main(I(1), I(1), 3).ok
    assert verify_main(I(2, 1), I(3), 7).ok
    assert verify_main(EMPTY, I(2), 5).ok


def test_verify_prop24_spot():
    assert verify_prop24(2, I(1, 1, 1), 13).ok
    assert verify_prop24(3, I(1, 2, 1, 1), 11).ok


def test_verify_prop24_deep_indices():
    # depth 5 and 6 exercise the larger level-map enumerations
    for k in (I(1, 1, 1, 1, 1), I(2, 1, 1, 1, 1), I(1, 1, 1, 1, 1, 1)):
        for i in range(1, k.depth + 1):
            for p in (7, 13):
                assert verify_prop24(i, k, p).ok, (i, k, p)


def test_verify_stuffle_spot():
    assert verify_stuffle(I(2), I(3), 101).ok
    assert verify_stuffle(EMPTY, I(2), 7).ok


def test_verify_reversal_spot():
    assert verify_reversal(I(2, 1), 7).ok
    with pytest.raises(ValueError):
        verify_reversal(EMPTY, 7)


def test_verify_li_at_one():
    assert verify_li_at_one(I(2, 1), 11).ok
    # at p = 2 the depth-1 polynomial is T, which is 1 at T = 1
    res = verify_li_at_one(I(1), 2)
    assert not res.ok and "li(1) = 1" in res.detail


def test_verify_reports_first_difference():
    # engineered mismatch: evaluate the wrong expression
    lhs = eval_fmp(I(1), 3) * eval_fmp(I(1), 3)
    rhs = eval_expression(CorrectionExpression([term(2, li=(1, 1))]), 3)
    assert lhs != rhs
    res = verify_main(I(1), I(1), 3)
    assert res.ok  # the real check passes; the diff path is covered below
    from fmpl.identities import _poly_diff

    diff = _poly_diff(lhs, rhs)
    assert not diff.ok and diff.detail.startswith("first diff at T^3")

import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eval_expression_per_term, index_pairs_up_to, indices_up_to, reversed_shuffle
from fmpl.evaluate import eval_fmp, eval_zeta
from fmpl.identities import (
    CorrectionExpression,
    CorrectionTerm,
    ExceptionalPrimeError,
    _accumulate,
    _coef_mod,
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
from fmpl.modular import ModPoly, primes_in_range
from fmpl.words import EMPTY, FormalSum, Index, concat, shuffle

I = Index.of


def term(coef, zeta=(), tpow=0, li=()):
    return CorrectionTerm(Fraction(coef), Index(zeta), tpow, Index(li))


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
        gens = [eval_fmp(m, p).shifted(p * n) for n in range(3) for m in indices_up_to(2)]
        base = _rank_mod_p(gens, p)
        prod = eval_fmp(I(1), p) * eval_fmp(I(2), p)
        literal = prod - eval_fmp(I(1, 2), p) - eval_fmp(I(2, 1), p).scaled(2)
        reversed_ = prod - eval_fmp(I(2, 1), p) - eval_fmp(I(1, 2), p).scaled(2)
        assert _rank_mod_p(gens + [literal], p) == base + 1, p
        assert _rank_mod_p(gens + [reversed_], p) == base, p


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


@pytest.mark.parametrize(
    "t1,t2",
    [
        (term(2, zeta=(2,), tpow=1, li=(1,)), term(3, zeta=(1, 1), tpow=0, li=(2,))),
        (term(1, li=(1, 1)), term(1, li=(2,))),
        (term(-1, zeta=(3,), tpow=2), term(1, zeta=(1,), tpow=0, li=(1, 2))),
        (term(1), term(5, zeta=(2, 1), tpow=1, li=(1,))),
    ],
)
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


def test_eval_expression_examples():
    assert eval_expression(CorrectionExpression(), 5) == ModPoly.zero(5)
    assert eval_expression(CorrectionExpression([term(1)]), 5) == ModPoly.one(5)
    expr = expand_triple(I(1), I(1), EMPTY)
    assert eval_expression(expr, 3) == ModPoly(3, [0, 0, 1, 1, 1])


def test_eval_expression_exceptional_prime():
    expr = CorrectionExpression([term(Fraction(1, 5), li=(1,))])
    with pytest.raises(ExceptionalPrimeError):
        eval_expression(expr, 5)
    assert eval_expression(expr, 7) == eval_fmp(I(1), 7).scaled(3)  # 1/5 = 3 mod 7


def test_eval_expression_exceptional_prime_with_zero_zeta():
    # zeta(1) = H_(p-1) = 0 mod p, so this term's scalar would be dropped;
    # its coefficient is still reduced, and raises
    assert eval_zeta(I(1), 5) == 0
    expr = CorrectionExpression([term(1, li=(2,)), term(Fraction(1, 5), zeta=(1,), li=(1,))])
    with pytest.raises(ExceptionalPrimeError) as info:
        eval_expression(expr, 5)
    assert info.value.coef == Fraction(1, 5)


def test_eval_expression_names_the_first_of_two_exceptional_coefficients():
    # 2/7 is the coefficient of the first term in order, and 1/14 comes first
    # among the distinct coefficients of the terms' given order
    expr = CorrectionExpression(
        [
            term(Fraction(1, 14), zeta=(2,), li=(1,)),
            term(3, li=(2,)),
            term(Fraction(2, 7), li=(1, 1)),
            term(Fraction(1, 14), li=(3,)),
        ]
    )
    exceptional = [t.coef for t in expr.terms if t.coef.denominator % 7 == 0]
    assert exceptional == [Fraction(2, 7), Fraction(1, 14), Fraction(1, 14)]
    with pytest.raises(ExceptionalPrimeError) as info:
        eval_expression(expr, 7)
    assert info.value.coef == Fraction(2, 7)
    with pytest.raises(ExceptionalPrimeError) as info:
        eval_expression_per_term(expr, 7)
    assert info.value.coef == Fraction(2, 7)
    assert eval_expression(expr, 5) == eval_expression_per_term(expr, 5)


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
        st.integers(-30, 30),
        st.sampled_from((1, 2, 3, 5, 6, 7)),
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
    for num, den, zeta, tpow, li, cancel in raw:
        coef = Fraction(num, den)
        terms.append(CorrectionTerm(coef, zeta, tpow, li))
        if cancel and zeta != EMPTY and den % p:
            # a zeta-free partner on the same (li, T-power) whose scalar
            # cancels this term's mod p
            partner = -_coef_mod(coef, p) * eval_zeta(zeta, p) % p
            terms.append(CorrectionTerm(Fraction(partner), EMPTY, tpow, li))
    expr = CorrectionExpression(terms)
    try:
        expected = eval_expression_per_term(expr, p)
    except ExceptionalPrimeError as exc:
        with pytest.raises(ExceptionalPrimeError) as info:
            eval_expression(expr, p)
        assert info.value.coef == exc.coef
        return
    assert eval_expression(expr, p) == expected


def test_accumulator_bound_at_largest_prime():
    # 1000 all-(p - 1) products at one offset would pass 2^63 unreduced
    p = 2**31 - 1
    terms = [(p - 1, 0, np.full(40, p - 1, dtype=np.int64))] * 1000
    terms += [(p - 1, 30, np.full(20, p - 1, dtype=np.int64))] * 7
    out = _accumulate(50, terms, p)
    expected = [0] * 50
    for scalar, offset, table in terms:
        for e, c in enumerate(table.tolist()):
            expected[offset + e] = (expected[offset + e] + scalar * c) % p
    assert out == ModPoly(p, expected)
    assert out.coeffs.tolist() == expected


def test_eval_expression_builds_one_polynomial(monkeypatch):
    expr = shuffle_correction(I(2, 1, 2, 1), I(3, 1, 2))
    built = []
    init = ModPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModPoly, "__init__", counting_init)
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

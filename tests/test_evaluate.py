import tracemalloc
from itertools import product

import numpy as np
import pytest

from helpers import indices_up_to, index_triples_up_to
from fmpl import evaluate, modular
from fmpl.evaluate import (
    PartialSumTable,
    PrefixTrie,
    brute_force_fmp,
    brute_force_fmp_triple,
    brute_force_zeta_variant,
    eval_fmp,
    eval_fmp_triple,
    eval_zeta,
    eval_zeta_variant,
    partial_sum_table,
    prefix_tables,
    walk,
    zeta_sums,
    zeta_values,
)
from fmpl.modular import ModPoly
from fmpl.words import EMPTY, Index, concat

I = Index.of

ORACLE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_eval_zeta_examples():
    assert eval_zeta(EMPTY, 5) == 1
    assert eval_zeta(I(1), 5) == 0
    assert eval_zeta(I(1, 1), 5) == 0


def test_eval_zeta_empty_range():
    # no tuples with four positive parts summing below 3
    assert eval_zeta(I(1, 1, 1, 1), 3) == 0


def test_eval_zeta_rejects_composite_modulus():
    with pytest.raises(ValueError):
        eval_zeta(I(1), 6)


@pytest.mark.parametrize("n", (4, 6, 561))
def test_evaluators_reject_composite_modulus_on_every_call(n):
    # the primality result is cached; a cached "no" must still raise
    calls = (
        lambda: eval_zeta(I(1), n),
        lambda: eval_fmp(I(1), n),
        lambda: eval_zeta_variant(1, I(1), n),
        lambda: eval_fmp_triple(I(1), I(1), I(1), n),
        lambda: partial_sum_table(I(1), n),
    )
    for _ in range(2):
        for call in calls:
            with pytest.raises(ValueError, match="not a prime"):
                call()


@pytest.mark.parametrize("p", (2, 5, 13, 1009))
def test_prefix_tables_match_single_index_tables(p):
    pool = indices_up_to(6, max_depth=4)
    given_order = pool[::-1] + pool[::3]  # unsorted, with repeats
    walked = list(prefix_tables(given_order, p))
    assert [k for k, _ in walked] == sorted(pool)
    for k, table in walked:
        expected = partial_sum_table(k, p).values if k.depth else np.ones(1, dtype=np.int64)
        assert np.array_equal(table, expected), (k, p)
        assert not table.flags.writeable
    zeta = dict(prefix_tables(given_order, p, p))
    for k, table in walked:
        assert np.array_equal(zeta[k], table[:p]), (k, p)
    values = zeta_values(given_order, p)
    for k in pool:
        if k.depth == 0:
            assert values[k] == 1
        elif p <= 31 and k.depth <= 4:
            assert values[k] == brute_force_zeta_variant(1, k, p), (k, p)
        else:
            assert values[k] == eval_zeta_variant(1, k, p), (k, p)


@pytest.mark.parametrize("block", (1, 4 << 10, 1 << 30))
@pytest.mark.parametrize("p", (2, 13, 1009))
def test_walk_is_the_same_at_every_block_size(monkeypatch, block, p):
    # one node per step, a few per step, and each level whole in one step
    monkeypatch.setattr(evaluate, "WALK_BLOCK_BYTES", block)
    pool = indices_up_to(7, max_depth=4)
    walked = list(prefix_tables(pool, p))
    assert [k for k, _ in walked] == sorted(pool)
    for k, table in walked:
        expected = partial_sum_table(k, p).values if k.depth else np.ones(1, dtype=np.int64)
        assert np.array_equal(table, expected), (k, p)
        assert not table.flags.writeable
    trie = PrefixTrie(pool)
    zeta = zeta_sums(trie, p)
    assert zeta.tolist() == [eval_zeta(k, p) for k in trie.indices]
    need = np.arange(len(trie.indices)) % 3 == 1
    seen = {}
    for ids, tables in walk(trie, p, need=need):
        seen.update(zip(ids.tolist(), tables))
    assert sorted(seen) == np.flatnonzero(need).tolist()
    for i, table in seen.items():
        assert np.array_equal(table, dict(walked)[trie.indices[i]])


def test_walk_memory_does_not_grow_with_the_width_of_a_level():
    # the 126 indices of depth 4 and weight <= 9: at p = 10007 their level
    # of the trie alone is 126 tables of 313 KiB (39 MiB), where the walk
    # holds one block of parents per level (1.4 MiB at its peak)
    p = 10007
    pool = [k for k in indices_up_to(9, max_depth=4) if k.depth == 4]
    trie = PrefixTrie(pool)
    assert [len(level) for level in trie.leaf] == [1, 6, 21, 56, 126]
    eval_fmp(I(1), p)  # the inverse table and its powers stay cached
    for k in range(1, 7):
        evaluate._inv_powers(k, p)
    tracemalloc.start()
    try:
        for ids, tables in walk(trie, p):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_single_index_tables_are_counted_once_in_the_memo(monkeypatch):
    monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
    k, p = I(2, 1, 3), 1009
    f = eval_fmp(k, p)
    for i in range(1, k.depth + 1):
        eval_zeta_variant(i, k, p)
    tables = modular._TABLES.by_prime[p]
    assert {key[0].__name__ for key in tables} == {"inverse_table", "_inv_powers", "eval_fmp"}
    inverse = sum(v.nbytes for key, v in tables.items() if key[0].__name__ != "eval_fmp")
    assert modular._TABLES.nbytes[p] == inverse + f.coeffs.nbytes
    assert f.coeffs.nbytes == 8 * (k.depth * (p - 1) + 1)


def test_eval_fmp_examples():
    assert eval_fmp(EMPTY, 5) == ModPoly.one(5)
    assert eval_fmp(I(1), 3) == ModPoly(3, [0, 1, 2])
    assert eval_fmp(I(1, 1), 3) == ModPoly(3, [0, 0, 2, 0, 2])


def test_eval_fmp_degree_order_bounds():
    for k in indices_up_to(5, include_empty=False):
        for p in (5, 11):
            f = eval_fmp(k, p)
            if f:
                assert f.order >= k.depth
                assert f.degree <= k.depth * (p - 1)


def test_partial_sum_table_invariants():
    for k in (I(1), I(2, 1), I(1, 1, 2)):
        for p in (5, 11):
            table = partial_sum_table(k, p)
            assert table.stage == k.depth
            assert len(table.values) == k.depth * (p - 1) + 1
            n = np.arange(len(table.values))
            assert not table.values[n % p == 0].any()
            if k.depth > 1:
                assert not table.values[: k.depth].any()


def test_eval_zeta_variant_examples():
    assert eval_zeta_variant(2, I(1, 1), 5) == 0
    for k in (I(1), I(2, 1), I(1, 1, 2)):
        for p in (5, 7, 11, 13, 1009):
            assert eval_zeta_variant(1, k, p) == eval_zeta(k, p)
            reversed_sign = (-1) ** k.weight * eval_zeta(k, p) % p
            assert eval_zeta_variant(k.depth, k, p) == reversed_sign


def test_eval_zeta_variant_argument_errors():
    with pytest.raises(ValueError):
        eval_zeta_variant(1, EMPTY, 5)
    with pytest.raises(ValueError):
        eval_zeta_variant(3, I(1, 1), 5)


def test_eval_fmp_triple_reductions():
    lam, nu = I(2, 1), I(1)
    for p in (5, 7, 11, 1009):
        li_lam = eval_fmp(lam, p)
        assert eval_fmp_triple(lam, EMPTY, EMPTY, p) == li_lam
        assert eval_fmp_triple(EMPTY, lam, EMPTY, p) == li_lam
        assert eval_fmp_triple(EMPTY, EMPTY, lam, p) == li_lam
        assert eval_fmp_triple(lam, EMPTY, nu, p) == eval_fmp(concat(lam, nu), p)
        assert eval_fmp_triple(EMPTY, lam, nu, p) == eval_fmp(concat(lam, nu), p)
        assert eval_fmp_triple(lam, nu, EMPTY, p) == li_lam * eval_fmp(nu, p)


def test_eval_fmp_triple_example():
    assert eval_fmp_triple(I(1), I(1), EMPTY, 3) == ModPoly(3, [0, 0, 1, 1, 1])


def test_eval_fmp_triple_memory_is_linear_in_p():
    # the third block is the staged table advanced through nu: O(dep * p),
    # where a table per residue of s would hold p * p entries (over 750 MiB)
    p = 10007
    eval_fmp_triple.cache_clear()
    tracemalloc.start()
    try:
        eval_fmp_triple(I(1), I(1), I(1), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_brute_force_domain_caps():
    with pytest.raises(ValueError, match="depth"):
        brute_force_fmp(I(1, 1, 1, 1, 1), 5)
    with pytest.raises(ValueError, match="p <="):
        brute_force_fmp(I(1), 37)
    with pytest.raises(ValueError):
        brute_force_fmp_triple(I(1, 1), I(1, 1), I(1), 5)


def test_brute_force_examples():
    assert brute_force_fmp(I(1), 3) == ModPoly(3, [0, 1, 2])
    assert brute_force_fmp(I(1, 1), 3) == ModPoly(3, [0, 0, 2, 0, 2])
    assert brute_force_zeta_variant(2, I(1, 1), 5) == 0


@pytest.mark.parametrize("p", (5, 13, 31))
def test_oracle_equivalence_fmp(p):
    for k in indices_up_to(6, max_depth=3, include_empty=False):
        assert eval_fmp(k, p) == brute_force_fmp(k, p), (k, p)


@pytest.mark.parametrize("p", (5, 13, 31))
def test_oracle_equivalence_variant(p):
    for k in indices_up_to(5, max_depth=3, include_empty=False):
        for i in range(1, k.depth + 1):
            assert eval_zeta_variant(i, k, p) == brute_force_zeta_variant(i, k, p), (i, k, p)


@pytest.mark.parametrize("p", (5, 11))
def test_oracle_equivalence_triple(p):
    for lam, mu, nu in index_triples_up_to(5, max_each_depth=2):
        if lam.depth + mu.depth + nu.depth > 4:
            continue
        assert eval_fmp_triple(lam, mu, nu, p) == brute_force_fmp_triple(lam, mu, nu, p), (lam, mu, nu, p)


def _triple_with_convolve_weights(lam, mu, nu, p):
    """The three-block polynomial with np.convolve weights, as before mul_mod."""
    one = np.ones(1, dtype=np.int64)
    fa = partial_sum_table(lam, p).values if lam.depth else one
    fb = partial_sum_table(mu, p).values if mu.depth else one
    table = PartialSumTable(p, lam.depth + mu.depth, np.convolve(fa, fb) % p)
    for kz in nu.parts:
        table = table.advanced(kz)
    return ModPoly(p, table.values)


def test_eval_fmp_triple_fft_weights_bit_identical(monkeypatch):
    # FFT_MIN_LEN = 1 sends every weight product through the FFT path; the
    # grid and primes are C10's, plus p = 1009 (beyond the oracles' reach)
    monkeypatch.setattr(modular, "FFT_MIN_LEN", 1)
    pool = indices_up_to(6, max_depth=2)
    triples = [
        (lam, mu, nu)
        for lam, mu, nu in product(pool, repeat=3)
        if lam.weight + mu.weight + nu.weight <= 6 and lam.depth + mu.depth + nu.depth <= 4
    ]
    eval_fmp_triple.cache_clear()
    try:
        for lam, mu, nu in triples:
            total_dep = lam.depth + mu.depth + nu.depth
            primes = ORACLE_PRIMES if total_dep <= 2 else ((5, 7, 11, 13) if total_dep == 4 else (5, 7, 11, 13, 17))
            for p in primes + (1009,):
                value = eval_fmp_triple(lam, mu, nu, p)
                assert value == _triple_with_convolve_weights(lam, mu, nu, p), (lam, mu, nu, p)
                if p <= 7:
                    assert value == brute_force_fmp_triple(lam, mu, nu, p), (lam, mu, nu, p)
    finally:
        eval_fmp_triple.cache_clear()

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_PRIMES, indices_up_to, index_triples_up_to
from fmpl import evaluate, modular
from fmpl.evaluate import (
    PartialSumTable,
    PrefixTrie,
    _dot_mod,
    _stage_two,
    _window_step,
    brute_force_fmp,
    brute_force_fmp_triple,
    brute_force_zeta_variant,
    eval_fmp,
    eval_fmp_triple,
    eval_zeta,
    eval_zeta_variant,
    walk,
    zeta_sums,
)
from fmpl.identities import pfd_check, verify_eq7
from fmpl.modular import WORD_MAX, ModPoly, inverse_table, word
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


def calls_at(n):
    """A call of each evaluator, and of each check that builds tables, at modulus n."""
    return (
        lambda: eval_zeta(I(1), n),
        lambda: eval_fmp(I(1), n),
        lambda: eval_zeta_variant(1, I(1), n),
        lambda: eval_fmp_triple(I(1), I(1), I(1), n),
        lambda: inverse_table(n),
        lambda: pfd_check(1, 1, n),
        lambda: verify_eq7(I(1), I(1), I(1), n),
    )


@pytest.mark.parametrize("n", (4, 6, 561))
def test_evaluators_reject_composite_modulus_on_every_call(n):
    # the primality result is cached; a cached "no" must still raise
    for _ in range(2):
        for call in calls_at(n):
            with pytest.raises(ValueError, match="not a prime"):
                call()


def test_a_rejected_modulus_leaves_the_memo_as_it_was(monkeypatch):
    monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
    eval_fmp(I(2, 1), 101)
    entries = dict(modular._TABLES.entries)
    for n in (4, 6, 561):
        with pytest.raises(ValueError, match="not a prime"):
            eval_fmp(I(2, 1), n)
        for call in calls_at(n):
            with pytest.raises(ValueError, match="not a prime"):
                call()
        assert modular._TABLES.current == 101
        assert modular._TABLES.entries.keys() == entries.keys()
        assert all(modular._TABLES.entries[key] is value for key, value in entries.items())


def walked_tables(trie, p, cap=None):
    """Each of the trie's indices with its table from walk, asserting that each comes once."""
    out = {}
    for ids, rows in walk(trie, p, cap):
        for i, row in zip(ids.tolist(), rows):
            assert trie.indices[i] not in out
            out[trie.indices[i]] = row
    return out


@settings(max_examples=200, deadline=None)
@given(st.sets(st.lists(st.integers(1, 4), max_size=5).map(Index), max_size=30))
def test_prefix_trie_levels_are_the_sorted_prefixes(indices):
    trie = PrefixTrie(indices)
    assert trie.indices == sorted(indices)
    leaf_of = {k: i for i, k in enumerate(trie.indices)}
    nodes = [()]
    for j in range(trie.depth + 1):
        if j:  # each node is its parent's prefix plus its part
            nodes = [nodes[i] + (k,) for i, k in zip(trie.parent[j].tolist(), trie.part[j].tolist())]
        assert nodes == (sorted({k[:j] for k in indices if len(k) >= j}) if j else [()])
        assert trie.leaf[j].tolist() == [leaf_of.get(q, -1) for q in nodes]
        below = trie.parent[j + 1].tolist() if j < trie.depth else []
        bounds = trie.first_child[j].tolist()
        assert len(bounds) == len(nodes) + 1
        for i in range(len(nodes)):
            assert [c for c, up in enumerate(below) if up == i] == list(range(bounds[i], bounds[i + 1]))


def test_walk_steps_a_parent_block_in_place(monkeypatch):
    # at p = 13 level 2 is one block, in which the childless (2,1) lies
    # between the parents (1,2) and (2,2): the step reads those three rows
    # of the block in place and gathers the two parents for its children
    p = 13
    pool = [I(1, 1), I(1, 2, 1), I(2, 1), I(2, 2, 1)]
    expected = {k: PartialSumTable.of(k, p).values for k in pool}
    made, stepped = [], []
    stage_two, step = evaluate._stage_two, evaluate._window_step

    def recorded_stage_two(*args, **kwargs):
        made.append(stage_two(*args, **kwargs))
        return made[-1]

    def recorded_step(prev, *args, **kwargs):
        assert any(np.shares_memory(prev, table) for table in made), "the parent rows were copied"
        stepped.append(len(prev))
        made.append(step(prev, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(evaluate, "_stage_two", recorded_stage_two)
    monkeypatch.setattr(evaluate, "_window_step", recorded_step)
    walked = walked_tables(PrefixTrie(pool), p)
    assert stepped == [3]
    assert sorted(walked) == sorted(pool)
    for k, table in walked.items():
        assert np.array_equal(table, expected[k]), k


@pytest.mark.parametrize("p", (2, 5, 13, 1009))
def test_prefix_tables_match_single_index_tables(p):
    pool = indices_up_to(6, max_depth=4)
    given_order = pool[::-1] + pool[::3]  # unsorted, with repeats
    trie = PrefixTrie(given_order)
    assert trie.indices == sorted(pool)
    walked = walked_tables(trie, p)
    assert sorted(walked) == sorted(pool)
    for k, table in walked.items():
        assert np.array_equal(table, PartialSumTable.of(k, p).values), (k, p)
        assert not table.flags.writeable
    zeta = walked_tables(trie, p, p)
    for k, table in walked.items():
        assert np.array_equal(zeta[k], table[:p]), (k, p)
        assert np.array_equal(zeta[k], PartialSumTable.of(k, p, p).values), (k, p)
    values = dict(zip(trie.indices, zeta_sums(trie, p).tolist()))
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
    trie = PrefixTrie(pool)
    walked = walked_tables(trie, p)
    assert sorted(walked) == sorted(pool)
    for k, table in walked.items():
        assert np.array_equal(table, PartialSumTable.of(k, p).values), (k, p)
        assert not table.flags.writeable
    zeta = zeta_sums(trie, p)
    assert zeta.tolist() == [eval_zeta(k, p) for k in trie.indices]


@pytest.mark.parametrize("p", (2097143, 2097169) + EDGE_PRIMES)
def test_window_step_exact_on_all_max_tables(p):
    # 2097143 is the largest prime <= 2^21, where (p - 1)^3 < 2^63 and the
    # product is reduced once; at 2097169 the window sums are reduced first.
    # In int32 the same holds at 1291 and at 1297 to 46337; at 46349, in
    # int64, the product is reduced once
    assert ((p - 1) ** 3 <= WORD_MAX[word(p)]) == (p in (2097143, 1291, 46349))
    prev = np.full((2, p), p - 1, dtype=word(p))
    prev[1, ::3] = 0
    src = [row.tolist() for row in prev]
    rng = np.random.default_rng(p)

    def literal(row, k, n):
        """inv(n)^k * sum_{0 < n - n' < p} row[n'] mod p, in Python ints."""
        window = sum(row[max(0, n - p + 1) : min(n, len(row))])
        return window * pow(n, -k, p) % p if n % p else 0

    def check(out, parents, ks, length):
        assert out.shape == (len(ks), length)
        for n in [0, 1, 2, p - 2, p - 1, p, length - 1] + rng.integers(0, length, 6).tolist():
            if n < length:
                assert out[:, n].tolist() == [literal(src[r], k, n) for r, k in zip(parents, ks)], n

    # one row, advanced past p so that the window slides
    check(_window_step(prev[:1], p, (3,), p + 2), (0,), (3,), p + 2)
    # a batch of rows with parents, mixed parts, and inv(p - 1)^k = p - 1 for odd k
    check(_window_step(prev, p, (1, 3), p, np.array([1, 0])), (1, 0), (1, 3), p)


@pytest.mark.parametrize("p", (2, 3, 5, 13, 101))
def test_inv_window_is_the_window_sums_of_each_inverse_power(p):
    for b in (1, 2, 5):
        inv = [pow(t, -b, p) if t % p else 0 for t in range(p)]
        literal = [sum(inv[max(1, n - p + 1) : min(n, p)]) % p for n in range(2 * p - 1)]
        w = evaluate._inv_window(b, p)
        assert w.tolist() == literal, (b, p)
        assert not w.flags.writeable


@pytest.mark.parametrize("p", (1664501, 1664543) + EDGE_PRIMES)
def test_dot_mod_exact_on_all_max_tables(p):
    # 1664501 is the largest prime where a sum of 2p - 1 products < p^2 stays
    # below 2^63 and is summed unreduced; at 1664543 it would not, and the
    # products are reduced first.  In int32 the sum passes 2^31 at every
    # edge prime, and is taken in int64
    n = 2 * p - 1
    assert (n * (p - 1) ** 2 < 1 << 63) == (p != 1664543)
    heads = np.full((2, n), p - 1, dtype=word(p))
    heads[1, ::3] = 0
    weights = np.full(n, p - 1, dtype=word(p))

    def literal(row, w):
        """sum row[m] * w[m] mod p, in Python ints."""
        return sum(a * b for a, b in zip(row.tolist(), w.tolist())) % p

    assert _dot_mod(heads, weights, p).tolist() == [literal(row, weights) for row in heads]
    # a band of a variant: a head slice against a window slice of another length
    lo, hi = p - 5, n - 2
    band = _dot_mod(heads[:, lo:hi], weights[2 : 2 + hi - lo], p)
    assert band.tolist() == [literal(row[lo:hi], weights[2 : 2 + hi - lo]) for row in heads]
    assert int(_dot_mod(heads[0], weights, p)) == n * (p - 1) ** 2 % p


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_inv_window_and_stage_two_exact_at_the_width_edges(p):
    # the prefix sums of inv^b reach p (p - 1) / 2, and a stage-2 entry is a
    # product of two residues, up to (p - 1)^2: in int32 at 46337
    inv = [0] + [pow(t, -1, p) for t in range(1, p)]
    firsts, ks = np.array([1, 2, 3, 1]), (3, 1, 2, 4)
    for b in sorted(set(firsts.tolist())):
        power = [pow(x, b, p) for x in inv]
        prefix = [0]
        for x in power:
            prefix.append(prefix[-1] + x)
        literal = [(prefix[min(n, p)] - prefix[max(0, n - p + 1)]) % p for n in range(2 * p - 1)]
        w = evaluate._inv_window(b, p)
        assert w.dtype == word(p) and w.tolist() == literal, b
    stage = _stage_two(firsts, ks, p, 2 * p - 1)
    assert stage.dtype == word(p)
    for row, a, k in zip(stage.tolist(), firsts.tolist(), ks):
        w = evaluate._inv_window(a, p).tolist()
        assert row == [pow(inv[n % p], k, p) * w[n] % p for n in range(2 * p - 1)], (a, k)


def _count_step_rows(monkeypatch) -> list:
    """Patch _window_step to record the number of rows of each call; return the record."""
    rows = []
    step = evaluate._window_step

    def counted(*args, **kwargs):
        out = step(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(evaluate, "_window_step", counted)
    return rows


@pytest.mark.parametrize("p", (13, 1009))
def test_zeta_sums_steps_only_the_heads_past_stage_two(monkeypatch, p):
    # zeta(h, b) reads h's table and the window w_b, so the indices' own
    # tables are never built: of the trie's nodes, only those with children
    # (the heads' prefixes) get tables, and stages 1 and 2 take no step
    rows = _count_step_rows(monkeypatch)
    trie = PrefixTrie(indices_up_to(8, max_depth=5))
    values = zeta_sums(trie, p)
    assert sum(rows) == sum(len(set(trie.parent[j + 1].tolist())) for j in range(3, trie.depth)) > 0
    assert values.tolist() == [eval_zeta(k, p) for k in trie.indices]


def test_single_index_values_step_only_the_head_past_stage_two(monkeypatch):
    rows = _count_step_rows(monkeypatch)
    p = 101
    for k in indices_up_to(9, max_depth=6, include_empty=False):
        for i in range(1, k.depth + 1):
            monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
            rows.clear()
            eval_zeta_variant(i, k, p)
            assert rows == [1] * max(0, k.depth - 3), (i, k)
        monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
        rows.clear()
        eval_zeta(k, p)
        assert rows == [1] * max(0, k.depth - 3), k


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
    tables = modular._TABLES.entries
    names = {"inverse_table", "_inv_power_table", "_inv_window", "eval_fmp"}
    assert {key[0].__name__ for key in tables} == names
    # inv^1 is the inverse table itself, held and counted once
    assert evaluate._inv_powers(1, p) is inverse_table(p)
    assert sorted(key[1][0] for key in tables if key[0].__name__ == "_inv_power_table") == [2, 3]
    # stage 2 of k reads w_2, and the variants read the head's polynomial and w_3
    assert sorted(key[1][0] for key in tables if key[0].__name__ == "_inv_window") == [2, 3]
    assert sorted(key[1][0] for key in tables if key[0].__name__ == "eval_fmp") == [k.head(), k]
    h = eval_fmp(k.head(), p)

    def nbytes(name):
        return sum(v.nbytes for key, v in tables.items() if key[0].__name__ == name)

    size = word(p).itemsize  # 4 bytes, int32, at p = 1009
    inverse = nbytes("inverse_table") + nbytes("_inv_power_table")
    assert inverse == 3 * size * p
    assert nbytes("_inv_window") == 2 * size * (2 * p - 1)
    arrays = [v.coeffs if isinstance(v, ModPoly) else v for v in tables.values()]
    assert len({id(v) for v in arrays}) == len(arrays)
    held = inverse + nbytes("_inv_window") + f.coeffs.nbytes + h.coeffs.nbytes
    assert sum(v.nbytes for v in arrays) == held
    assert f.coeffs.nbytes == size * (k.depth * (p - 1) + 1)
    assert h.coeffs.nbytes == size * (k.head().depth * (p - 1) + 1)
    # a depth-1 polynomial copies its table, which is a cached inverse power
    g = eval_fmp(I(3), p)
    assert not np.shares_memory(g.coeffs, evaluate._inv_powers(3, p))
    arrays = [v.coeffs if isinstance(v, ModPoly) else v for v in tables.values()]
    assert len({id(v) for v in arrays}) == len(arrays)
    assert sum(v.nbytes for v in arrays) == held + g.coeffs.nbytes


def test_eval_zeta_tables_stay_at_length_p(monkeypatch):
    # zeta's partial sums stay below p, so each stage table is cut at p:
    # O(dep * p) memory.  Uncut, the depth-7 tables would reach 7 (p - 1) + 1
    # entries, where summing only their first p would still give the value.
    monkeypatch.setattr(modular, "_TABLES", modular._PrimeTables())
    k, p = I(*(1,) * 7), 100003
    tracemalloc.start()
    try:
        eval_zeta(k, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * p


def test_eval_fmp_examples():
    assert eval_fmp(EMPTY, 5) == ModPoly.one(5)
    assert eval_fmp(I(1), 3) == ModPoly(3, [0, 1, 2])
    assert eval_fmp(I(1, 1), 3) == ModPoly(3, [0, 0, 2, 0, 2])


def test_eval_fmp_degree_order_bounds():
    for k in indices_up_to(5, include_empty=False):
        for p in (5, 11):
            f = eval_fmp(k, p)
            if f:
                assert np.flatnonzero(f.coeffs)[0] >= k.depth
                assert f.degree <= k.depth * (p - 1)


def test_partial_sum_table_invariants():
    for p in (2, 5, 11):
        assert PartialSumTable.of(EMPTY, p).values.tolist() == [1]
        for k in (I(1), I(2, 1), I(1, 1, 2)):
            table = PartialSumTable.of(k, p)
            assert table.stage == k.depth
            assert len(table.values) == k.depth * (p - 1) + 1
            assert not table.values.flags.writeable
            n = np.arange(len(table.values))
            assert not table.values[n % p == 0].any()
            if k.depth > 1:
                assert not table.values[: k.depth].any()
            # zeta's cap keeps every stage at length p, the first p entries of the table
            capped = PartialSumTable.of(k, p, p)
            assert (capped.stage, len(capped.values)) == (k.depth, p)
            assert np.array_equal(capped.values, table.values[:p])
        # stage 1 is the cached inverse-power table itself, not a copy
        assert PartialSumTable.of(I(2), p).values is evaluate._inv_powers(2, p)


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
    fa, fb = PartialSumTable.of(lam, p).values, PartialSumTable.of(mu, p).values
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

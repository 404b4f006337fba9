"""Per-prime evaluation of the truncated sum families.

Three families are evaluated exactly in F_p:

* zeta(k):   sum over l_i >= 1 with l_1 + ... + l_r < p of 1 / prod L_i^{k_i},
  computed over the strictly increasing partial sums in O(dep * p).
* the i-th variant and li_k(T): sums over 0 < l_i < p with every partial
  sum coprime to p.  Both come from one stage-by-stage table f_j indexed by
  the exact integer value n of the j-th partial sum (n ranges over
  [j, j(p-1)]), with the window transition
      f_j(n) = inv(n)^{k_j} * sum_{0 < n - n' < p} f_{j-1}(n'),
  realized as a sliding prefix sum, O(dep^2 * p) per prime.
* the triple-block li(lam, mu, nu; T): the lam- and mu-tables are
  multiplied as polynomials (modular.mul_mod) into weights w(s) over the
  exact value s of the combined sum, and that table is advanced through
  nu's parts by the same window transition, so the third block's
  denominators (s + N_z) mod p and the exact exponent of T both fall out
  of the stage index; O((dep lam + dep mu + dep nu) * p) memory, and
  O(p log p) time for the weights.

One window-step routine serves all three families; zeta keeps its tables
at length p, since its partial sums stay below p.  It is batched: each call
advances a 2-D block of parent rows, each output row by its own part, and a
single table is a one-row call.

Sums over many indices at one prime (the generators of a correction
expression, the terms of a formal sum of zeta values) share their work
through a PrefixTrie, the prefix trie of the distinct indices stored by
level, which does not depend on p.  walk computes it level by level: the
nodes of a level are computed from their parents' rows by one batched
window step per block of at most WALK_BLOCK_BYTES of tables, and each
block's children are walked before the next block, keeping only the rows
that the next level reads as parents.  So memory is one block of parents
per level, whatever the number of indices on a level, and at large p,
where one table passes the bound, the walk is depth first, one path at a
time.  The zeta and li families differ in one thing only, the table
length: zeta's tables are cut at p.  prefix_tables gives the same tables
index by index, in sorted order.

The per-prime tables (inverse powers, and the values of eval_zeta,
eval_fmp and eval_fmp_triple) are memoized by modular.per_prime_cache,
with p as the last argument: the prime in use keeps all of its tables, and
other primes keep theirs only while together they stay under
modular.PRIME_CACHE_BYTES, so a sweep over a wide range holds a bounded
amount of memory while checks that return to a few primes still hit.  The
sizes are counted in bytes, not entries, because each table grows with p.
A single index's final stage table is kept once, as eval_fmp's
coefficients, which the variants and the three-block weights read too.

All arithmetic is exact: int64 modular arithmetic, plus mul_mod's product,
which is exact at every p < MAX_PRIME and every length.  The naive
brute-force oracles at the bottom recompute small cases by literal nested
loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .modular import ModPoly, ensure_prime, inverse_table, mul_mod, per_prime_cache, reduce_mod
from .words import Index

BRUTE_FORCE_MAX_DEPTH = 4
BRUTE_FORCE_MAX_PRIME = 31


@per_prime_cache
def _inv_powers(k: int, p: int) -> np.ndarray:
    """Table t -> inv(t)^k mod p for residues t, with entry 0 at t = 0."""
    inv = inverse_table(p)
    out = np.ones(p, dtype=np.int64)
    base = inv.copy()
    e = k
    while e:
        if e & 1:
            out *= base
            reduce_mod(out, p)
        e >>= 1
        if e:
            base *= base
            reduce_mod(base, p)
    out[0] = 0
    out.flags.writeable = False
    return out


def _window_step(
    prev: np.ndarray, p: int, ks: Sequence[int], length: int, parents: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row r: out[r, n] = inv(n)^ks[r] * sum_{0 < n - n' < p} prev[parents[r], n'] mod p.

    prev holds one table per row; output row r, for 0 <= n < length,
    advances row parents[r] of prev (row r when parents is None) by one
    summand with exponent ks[r].  A single table is a one-row call.

    The window sums are the running sums along each row of
    d[n] = prev[n - 1] - prev[n - p] (prev read as 0 outside its range),
    so a table shorter than the window, such as the start table [1], still
    feeds every 0 < n < p.  They are formed once per row of prev and then
    gathered for the rows of the result, which are shaped as rows of p so
    that the inverse powers apply row by row.

    int64 bound: prev's entries lie in [0, p), as in every table built
    here.  A plain prefix sum of prev would reach len(prev) * (p - 1); each
    running sum of d is one window of at most p - 1 entries, so it lies in
    [0, (p - 1)^2], and a reduced window times an inverse power is < p^2.
    Both are < 2^62 for p < MAX_PRIME = 2^31 at any length, which is
    reduce_mod's precondition, so every table built here stays exact.
    """
    rows = -(-length // p)
    d = np.zeros((len(prev), rows * p), dtype=np.int64)
    d[:, 1 : prev.shape[1] + 1] = prev[:, : rows * p - 1]
    d[:, p : p + prev.shape[1]] -= prev[:, : rows * p - p]
    np.cumsum(d, axis=1, out=d)
    reduce_mod(d, p)
    if parents is not None:
        d = d[parents]
    grid = d.reshape(len(d), rows, p)
    kinds = sorted(set(np.asarray(ks).tolist()))
    if len(kinds) == 1:
        grid *= _inv_powers(kinds[0], p)
    else:
        powers = np.stack([_inv_powers(k, p) for k in kinds])
        grid *= powers[np.searchsorted(kinds, ks)][:, None, :]
    reduce_mod(grid, p)
    return d[:, :length]


class PrefixTrie:
    """The prefix trie of a set of indices, stored by level; it does not depend on p.

    ``indices`` holds the distinct indices in sorted order, and an index's
    position there is its leaf id.  Level j holds the distinct length-j
    prefixes, in sorted order; level 0 is the root, the empty prefix.  For
    the nodes of level j >= 1, ``parent[j]`` is the node of level j - 1
    that each one extends and ``part[j]`` the part k_j it appends.  Sorted
    order makes ``parent[j]`` nondecreasing, so the children of node i of
    level j are the nodes first_child[j][i] .. first_child[j][i + 1] - 1 of
    level j + 1, and the descendants of consecutive nodes are consecutive
    at every level below.  ``leaf[j]`` is each node's leaf id, or -1 where
    no index ends.  ``fed[j]`` lists the level-j nodes that have children,
    and ``parent_row[j]`` gives, for each node of level j >= 1, its
    parent's position in ``fed[j - 1]``.
    """

    def __init__(self, indices: Iterable[Index]):
        self.indices = sorted(set(indices), key=lambda k: k.parts)
        depth = max((k.depth for k in self.indices), default=0)
        parent: list[list[int]] = [[] for _ in range(depth + 1)]
        part: list[list[int]] = [[] for _ in range(depth + 1)]
        leaf: list[list[int]] = [[-1]] + [[] for _ in range(depth)]
        path, prev = [0], ()
        for i, k in enumerate(self.indices):
            common = 0
            for a, b in zip(prev, k.parts):
                if a != b:
                    break
                common += 1
            del path[common + 1 :]
            for j in range(common + 1, k.depth + 1):
                path.append(len(parent[j]))
                parent[j].append(path[-2])
                part[j].append(k[j - 1])
                leaf[j].append(-1)
            leaf[k.depth][path[-1]] = i
            prev = k.parts
        self._link(
            [np.array(ids, dtype=np.intp) for ids in parent],
            [np.array(ks, dtype=np.int64) for ks in part],
            [np.array(ids, dtype=np.intp) for ids in leaf],
        )

    def _link(self, parent: list[np.ndarray], part: list[np.ndarray], leaf: list[np.ndarray]) -> None:
        self.depth = len(leaf) - 1
        self.parent, self.part, self.leaf = parent, part, leaf
        self.first_child, self.fed, self.parent_row = [], [], [np.zeros(1, dtype=np.intp)]
        for j in range(self.depth):
            below = parent[j + 1]
            self.first_child.append(np.searchsorted(below, np.arange(len(leaf[j]) + 1)))
            new = np.ones(len(below), dtype=bool)
            np.not_equal(below[1:], below[:-1], out=new[1:])
            self.fed.append(below[new])
            self.parent_row.append(np.cumsum(new) - 1)
        self.first_child.append(np.zeros(len(leaf[self.depth]) + 1, dtype=np.intp))

    def restricted(self, need: np.ndarray) -> "PrefixTrie":
        """The trie of the indices whose entry in the boolean array need is set.

        Its leaf ids stay those of this trie.
        """
        ends = [ids >= 0 for ids in self.leaf]  # the nodes where a needed index ends
        keep = [np.zeros(0, dtype=bool)] * (self.depth + 1)  # and the nodes on their paths
        for j in range(self.depth, -1, -1):
            ends[j][ends[j]] = need[self.leaf[j][ends[j]]]
            keep[j] = ends[j].copy()
            if j < self.depth:
                below = np.concatenate(([0], np.cumsum(keep[j + 1])))
                fc = self.first_child[j]
                keep[j] |= below[fc[1:]] > below[fc[:-1]]
        depth = max((j for j in range(self.depth + 1) if keep[j].any()), default=0)
        parent, part, leaf = [self.parent[0]], [self.part[0]], [np.where(ends[0], self.leaf[0], -1)]
        for j in range(1, depth + 1):
            nodes = np.flatnonzero(keep[j])
            parent.append((np.cumsum(keep[j - 1]) - 1)[self.parent[j][nodes]])
            part.append(self.part[j][nodes])
            leaf.append(np.where(ends[j][nodes], self.leaf[j][nodes], -1))
        sub = object.__new__(PrefixTrie)
        sub.indices = self.indices
        sub._link(parent, part, leaf)
        return sub


@lru_cache(maxsize=256)
def _trie_of(indices: frozenset) -> PrefixTrie:
    return PrefixTrie(indices)


# Bytes of the tables that one batched window step may produce: a level's
# nodes are taken in blocks of at most this size, or one node at a time
# where a single table is larger.
WALK_BLOCK_BYTES = 128 << 10


def walk(
    trie: PrefixTrie, p: int, cap: Optional[int] = None, need: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (leaf ids, tables), one read-only table row per leaf id, for the trie's indices.

    The stage-j table of a node has length j * (p - 1) + 1, cut at cap >= p
    when one is given; the root's is [1], and stage 1 is the cached
    inverse-power table.  Only the indices whose entry in the boolean array
    need is set are yielded (all when need is None), and only the nodes on
    their paths are computed.  Each index comes once, in no particular
    order.

    The walk goes by levels: consecutive nodes of a level are computed by
    one batched _window_step from their parents' rows, in blocks of at most
    WALK_BLOCK_BYTES of tables, and each block's children are walked before
    the next block.  Once a block's leaves are yielded, only the rows that
    the next level reads as parents are kept.  So the walk holds at most
    one block of parents per level, however many indices a level has; for
    large p, where a single table passes the bound, a block is one node and
    the walk is the depth-first walk of one path.
    """
    if need is not None and not need.all():
        trie = trie.restricted(need)
    depth = trie.depth
    lengths = [1] + [j * (p - 1) + 1 if cap is None else min(cap, j * (p - 1) + 1) for j in range(1, depth + 1)]

    def descend(j: int, a: int, b: int, rows: np.ndarray):
        """Yield the leaves of the level-j nodes a .. b - 1 and their descendants, given the nodes' rows."""
        rows.flags.writeable = False
        leaves = trie.leaf[j][a:b]
        wanted = leaves >= 0
        if wanted.all():
            yield leaves, rows
        elif wanted.any():
            tables = rows[wanted]
            tables.flags.writeable = False
            yield leaves[wanted], tables
        lo, hi = trie.first_child[j][a], trie.first_child[j][b]
        if lo == hi:
            return
        row_of = trie.parent_row[j + 1]
        fed = row_of[lo]  # rows[i] becomes the parent row fed + i
        if row_of[hi - 1] + 1 - fed < b - a:
            rows = rows[trie.fed[j][fed : row_of[hi - 1] + 1] - a]  # the parents only
        block = max(1, WALK_BLOCK_BYTES // (8 * lengths[j + 1]))
        for c in range(lo, hi, block):
            d = min(c + block, hi)
            ks = trie.part[j + 1][c:d]
            if j == 0:  # stage 1 is the cached inverse-power table, not copied for one node
                powers = [_inv_powers(k, p) for k in ks.tolist()]
                tables = powers[0][None] if len(powers) == 1 else np.stack(powers)
            else:
                first, last = row_of[c], row_of[d - 1] + 1
                parents = None if last - first == d - c else row_of[c:d] - first
                tables = _window_step(rows[first - fed : last - fed], p, ks, lengths[j + 1], parents)
            yield from descend(j + 1, c, d, tables)

    yield from descend(0, 0, 1, np.ones((1, 1), dtype=np.int64))


def prefix_tables(
    indices: Iterable[Index], p: int, cap: Optional[int] = None
) -> Iterator[tuple[Index, np.ndarray]]:
    """Each distinct index k with its stage-dep(k) table, in sorted order.

    The tables come from walk over the indices' prefix trie.  Sorted order
    is the trie's preorder, and walk finishes a block's descendants before
    the next block, so a table that comes early waits only for the
    descendants of its own block: the tables waiting are at most one block
    per level.  The stage-j table has length j * (p - 1) + 1, cut at cap >= p
    when one is given, and the empty index's is [1].  The yielded tables
    are read only.
    """
    trie = _trie_of(frozenset(indices))
    waiting: dict[int, np.ndarray] = {}
    nxt = 0
    for ids, rows in walk(trie, p, cap):
        waiting.update(zip(ids.tolist(), rows))
        while nxt in waiting:
            yield trie.indices[nxt], waiting.pop(nxt)
            nxt += 1


def zeta_sums(trie: PrefixTrie, p: int) -> np.ndarray:
    """zeta(k) mod p for each of the trie's indices, in its order.

    zeta's partial sums stay below p, so its tables are cut at length p;
    a table's entries are < p, so its sum is < p^2.  The caller has checked
    that p is prime.
    """
    out = np.zeros(len(trie.indices), dtype=np.int64)
    for ids, rows in walk(trie, p, p):
        out[ids] = rows.sum(axis=1) % p
    return out


def zeta_values(indices: Iterable[Index], p: int) -> dict[Index, int]:
    """zeta(k) mod p for each distinct k in indices, by one walk of their prefix trie.

    The caller has checked that p is prime.
    """
    trie = _trie_of(frozenset(indices))
    return dict(zip(trie.indices, zeta_sums(trie, p).tolist()))


@dataclass(frozen=True)
class PartialSumTable:
    """Distribution of a stage's exact partial-sum value over F_p.

    values[n] holds the stage-j table entry f_j(n), with support in
    [stage, stage*(p-1)].  Tables produced by `advanced` are zero at every
    n divisible by p (excluded denominators); a start table, such as the
    convolved weights of the three-block sum, need not be.
    """

    p: int
    stage: int
    values: np.ndarray

    def advanced(self, k_next: int) -> "PartialSumTable":
        """Append one summand 0 < l < p and divide by the new sum's power."""
        p = self.p
        vals = _window_step(self.values[None], p, (k_next,), (self.stage + 1) * (p - 1) + 1)[0]
        vals.flags.writeable = False
        return PartialSumTable(p, self.stage + 1, vals)


def partial_sum_table(k: Index, p: int) -> PartialSumTable:
    """The depth-dep(k) table for index k (k nonempty)."""
    ensure_prime(p)
    if k.depth < 1:
        raise ValueError("partial-sum table needs a nonempty index")
    vals = _inv_powers(k[0], p).copy()
    vals.flags.writeable = False
    table = PartialSumTable(p, 1, vals)
    for kj in k[1:]:
        table = table.advanced(kj)
    return table


@per_prime_cache
def eval_zeta(k: Index, p: int) -> int:
    """The truncated multiple harmonic sum mod p; 1 for the empty index.

    One index is one path of one-row window steps, its tables cut at p.
    """
    ensure_prime(p)
    if k.depth == 0:
        return 1
    table = _inv_powers(k[0], p)
    for kj in k[1:]:
        table = _window_step(table[None], p, (kj,), p)[0]
    return int(table.sum() % p)


@per_prime_cache
def eval_fmp(k: Index, p: int) -> ModPoly:
    """The polynomial sum of T^(last partial sum) / prod L_i^{k_i} in F_p[T].

    Its coefficients are the final stage table of k, trimmed of trailing
    zeros; the memo keeps this one copy of the table, which the variants
    and the three-block weights read too.
    """
    ensure_prime(p)
    if k.depth == 0:
        return ModPoly.one(p)
    return ModPoly(p, partial_sum_table(k, p).values)


def eval_zeta_variant(i: int, k: Index, p: int) -> int:
    """The variant with last partial sum restricted to ((i-1)p, ip)."""
    ensure_prime(p)
    r = k.depth
    if r < 1:
        raise ValueError("variant evaluation needs a nonempty index")
    if not 1 <= i <= r:
        raise ValueError(f"variant selector i={i} outside [1, {r}]")
    vals = eval_fmp(k, p).coeffs
    return int(vals[(i - 1) * p + 1 : i * p].sum() % p)


@per_prime_cache
def eval_fmp_triple(lam: Index, mu: Index, nu: Index, p: int) -> ModPoly:
    """The three-block polynomial interpolating between li and a product.

    The sum runs over 0 < l_x, m_y, n_z < p; the excluded denominators are
    exactly the displayed factors (every L_x, every M_y, and every
    L_a + M_b + N_z), so the intermediate value L_a + M_b itself may be
    divisible by p.  The monomial exponent is the exact total sum.  The
    weights over L_a + M_b are the product of the lam- and mu-tables, by
    mul_mod.
    """
    ensure_prime(p)
    fa, fb = eval_fmp(lam, p), eval_fmp(mu, p)
    if not fa or not fb:
        return ModPoly.zero(p)
    table = PartialSumTable(p, lam.depth + mu.depth, mul_mod(fa.coeffs, fb.coeffs, p))
    for kz in nu.parts:
        table = table.advanced(kz)
    return ModPoly(p, table.values)


def _check_brute_domain(depth: int, p: int) -> None:
    if depth > BRUTE_FORCE_MAX_DEPTH:
        raise ValueError(f"brute force capped at total depth {BRUTE_FORCE_MAX_DEPTH}")
    if p > BRUTE_FORCE_MAX_PRIME:
        raise ValueError(f"brute force capped at p <= {BRUTE_FORCE_MAX_PRIME}")


def brute_force_fmp(k: Index, p: int) -> ModPoly:
    """Literal nested-loop evaluation of the single-index polynomial."""
    ensure_prime(p)
    _check_brute_domain(k.depth, p)
    if k.depth == 0:
        return ModPoly.one(p)
    inv = inverse_table(p).tolist()
    coeffs = [0] * (k.depth * (p - 1) + 1)
    for ls in product(range(1, p), repeat=k.depth):
        total = 0
        term = 1
        for l, kj in zip(ls, k.parts):
            total += l
            rem = total % p
            if rem == 0:
                term = 0
                break
            term = term * pow(inv[rem], kj, p) % p
        if term:
            coeffs[total] = (coeffs[total] + term) % p
    return ModPoly(p, coeffs)


@lru_cache(maxsize=None)
def _brute_variant_bands(k: Index, p: int) -> tuple[int, ...]:
    """One literal pass accumulating the variant per band of the last sum."""
    inv = inverse_table(p).tolist()
    bands = [0] * k.depth
    for ls in product(range(1, p), repeat=k.depth):
        total = 0
        term = 1
        for l, kj in zip(ls, k.parts):
            total += l
            rem = total % p
            if rem == 0:
                term = 0
                break
            term = term * pow(inv[rem], kj, p) % p
        if term:
            bands[total // p] = (bands[total // p] + term) % p
    return tuple(bands)


def brute_force_zeta_variant(i: int, k: Index, p: int) -> int:
    """Literal nested-loop evaluation of the i-th variant."""
    ensure_prime(p)
    _check_brute_domain(k.depth, p)
    if not 1 <= i <= k.depth:
        raise ValueError(f"variant selector i={i} outside [1, {k.depth}]")
    return _brute_variant_bands(k, p)[i - 1]


def brute_force_fmp_triple(lam: Index, mu: Index, nu: Index, p: int) -> ModPoly:
    """Literal nested-loop evaluation of the three-block polynomial."""
    ensure_prime(p)
    a, b, c = lam.depth, mu.depth, nu.depth
    _check_brute_domain(a + b + c, p)
    inv = inverse_table(p).tolist()
    coeffs = [0] * ((a + b + c) * (p - 1) + 1)
    for ls in product(range(1, p), repeat=a):
        term_l = 1
        sum_l = 0
        for l, kj in zip(ls, lam.parts):
            sum_l += l
            rem = sum_l % p
            if rem == 0:
                term_l = 0
                break
            term_l = term_l * pow(inv[rem], kj, p) % p
        if not term_l:
            continue
        for ms in product(range(1, p), repeat=b):
            term_m = term_l
            sum_m = 0
            for m, kj in zip(ms, mu.parts):
                sum_m += m
                rem = sum_m % p
                if rem == 0:
                    term_m = 0
                    break
                term_m = term_m * pow(inv[rem], kj, p) % p
            if not term_m:
                continue
            base = sum_l + sum_m
            for ns in product(range(1, p), repeat=c):
                term = term_m
                sum_n = 0
                for n, kj in zip(ns, nu.parts):
                    sum_n += n
                    rem = (base + sum_n) % p
                    if rem == 0:
                        term = 0
                        break
                    term = term * pow(inv[rem], kj, p) % p
                if term:
                    e = base + sum_n
                    coeffs[e] = (coeffs[e] + term) % p
    return ModPoly(p, coeffs)

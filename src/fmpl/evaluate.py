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
single table is a one-row call.  PartialSumTable.of starts a single index
at its cached stage-1 table and advances it one window step per part.

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
length: zeta's tables are cut at p.

The per-prime tables (inverse powers, and the values of eval_zeta,
eval_fmp and eval_fmp_triple) are memoized by modular.per_prime_cache,
with p as the last argument.  The memo keeps the tables of the prime in
use only, and the next prime's tables reuse the heap they leave (see
modular), so a sweep over a wide range holds one prime's tables.
A single index's final stage table is kept once, as eval_fmp's
coefficients, which the variants and the three-block weights read too.
eval_fmp and eval_fmp_triple hand their final tables, already in [0, p),
to ModPoly._from_reduced, which keeps them without a copy or a second
reduction; only a depth-1 eval_fmp copies, since its table is the cached
inverse-power array.

All arithmetic is exact: int64 modular arithmetic, plus mul_mod's product,
which is exact at every p < MAX_PRIME and every length.  The naive
brute-force oracles at the bottom recompute small cases by one literal
nested loop over the three blocks, which shares no code with the window
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .modular import ModPoly, ensure_prime, inverse_table, mul_mod, per_prime_cache, reduce_mod
from .words import EMPTY, Index

BRUTE_FORCE_MAX_DEPTH = 4
BRUTE_FORCE_MAX_PRIME = 31


def _inv_powers(k: int, p: int) -> np.ndarray:
    """Read-only table t -> inv(t)^k mod p for residues t and k >= 1, with entry 0 at t = 0.

    k = 1 is the cached inverse table itself, which the memo then holds once.
    """
    return inverse_table(p) if k == 1 else _inv_power_table(k, p)


@per_prime_cache
def _inv_power_table(k: int, p: int) -> np.ndarray:
    """inv^k for k >= 2, from the inverse table by squaring along the bits of k."""
    inv = inverse_table(p)
    out = inv
    for bit in bin(k)[3:]:
        out = reduce_mod(out * out, p)
        if bit == "1":
            out *= inv
            reduce_mod(out, p)
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
    [0, (p - 1)^2], and times an inverse power it is at most (p - 1)^3.
    For p <= 2^21 that is < 2^63, within reduce_mod's precondition for
    non-negative x, so the product is reduced once.  Above, the window sums
    are reduced first, and a reduced window times an inverse power is
    < p^2 < 2^62 for p < MAX_PRIME = 2^31.  Either way every table built
    here stays exact, at any length.
    """
    rows = -(-length // p)
    d = np.empty((len(prev), rows * p), dtype=np.int64)
    d[:, 0] = 0
    d[:, 1 : prev.shape[1] + 1] = prev[:, : rows * p - 1]
    d[:, prev.shape[1] + 1 :] = 0
    d[:, p : p + prev.shape[1]] -= prev[:, : rows * p - p]
    np.cumsum(d, axis=1, out=d)
    if (p - 1) ** 3 >= 1 << 63:
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

    A trie never changes once it is built, so one trie serves every prime.

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
        self.indices = sorted(set(indices))
        depth = max((k.depth for k in self.indices), default=0)
        parent: list[list[int]] = [[] for _ in range(depth + 1)]
        part: list[list[int]] = [[] for _ in range(depth + 1)]
        leaf: list[list[int]] = [[-1]] + [[] for _ in range(depth)]
        path, prev = [0], ()
        for i, k in enumerate(self.indices):
            common = 0
            for a, b in zip(prev, k):
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
            prev = k
        self.depth = depth
        self.parent = [np.array(ids, dtype=np.intp) for ids in parent]
        self.part = [np.array(ks, dtype=np.int64) for ks in part]
        self.leaf = [np.array(ids, dtype=np.intp) for ids in leaf]
        self.first_child, self.fed, self.parent_row = [], [], [np.zeros(1, dtype=np.intp)]
        for j in range(depth):
            below = self.parent[j + 1]
            self.first_child.append(np.searchsorted(below, np.arange(len(self.leaf[j]) + 1)))
            new = np.ones(len(below), dtype=bool)
            np.not_equal(below[1:], below[:-1], out=new[1:])
            self.fed.append(below[new])
            self.parent_row.append(np.cumsum(new) - 1)
        self.first_child.append(np.zeros(len(self.leaf[depth]) + 1, dtype=np.intp))


# Bytes of the tables that one batched window step may produce: a level's
# nodes are taken in blocks of at most this size, or one node at a time
# where a single table is larger.
WALK_BLOCK_BYTES = 128 << 10


def walk(trie: PrefixTrie, p: int, cap: Optional[int] = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (leaf ids, tables), one read-only table row per leaf id, for the trie's indices.

    The stage-j table of a node has length j * (p - 1) + 1, cut at cap >= p
    when one is given; the root's is [1], and stage 1 is the cached
    inverse-power table.  Every node is computed and each index comes once,
    in no particular order; a caller that wants only some of the indices
    skips the others where it reads the tables.

    The walk goes by levels: consecutive nodes of a level are computed by
    one batched _window_step from their parents' rows, in blocks of at most
    WALK_BLOCK_BYTES of tables, and each block's children are walked before
    the next block.  Once a block's leaves are yielded, only the rows that
    the next level reads as parents are kept.  So the walk holds at most
    one block of parents per level, however many indices a level has; for
    large p, where a single table passes the bound, a block is one node and
    the walk is the depth-first walk of one path.
    """
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


@dataclass(frozen=True)
class PartialSumTable:
    """Distribution of a stage's exact partial-sum value over F_p.

    values[n] holds the stage-j table entry f_j(n), with support in
    [stage, stage*(p-1)], cut at length cap >= p when one is given.  Tables
    produced by `advanced` are zero at every n divisible by p (excluded
    denominators); a start table, such as the convolved weights of the
    three-block sum, may be nonzero there.
    """

    p: int
    stage: int
    values: np.ndarray
    cap: Optional[int] = None

    @classmethod
    def of(cls, k: Index, p: int, cap: Optional[int] = None) -> "PartialSumTable":
        """The stage-dep(k) table of k ([1] for the empty index), for a prime p.

        Stage 1 is the cached inverse-power table itself, not a copy.
        """
        if k.depth == 0:
            return cls(p, 0, np.ones(1, dtype=np.int64), cap)
        table = cls(p, 1, _inv_powers(k[0], p), cap)
        for kj in k[1:]:
            table = table.advanced(kj)
        return table

    def advanced(self, k_next: int) -> "PartialSumTable":
        """Append one summand 0 < l < p and divide by the new sum's power."""
        p, cap = self.p, self.cap
        length = (self.stage + 1) * (p - 1) + 1
        vals = _window_step(self.values[None], p, (k_next,), length if cap is None else min(cap, length))[0]
        vals.flags.writeable = False
        return PartialSumTable(p, self.stage + 1, vals, cap)


@per_prime_cache
def eval_zeta(k: Index, p: int) -> int:
    """The truncated multiple harmonic sum mod p; 1 for the empty index.

    One index is one path of one-row window steps, its tables cut at p.
    """
    ensure_prime(p)
    return int(PartialSumTable.of(k, p, p).values.sum() % p)


@per_prime_cache
def eval_fmp(k: Index, p: int) -> ModPoly:
    """The polynomial sum of T^(last partial sum) / prod L_i^{k_i} in F_p[T].

    Its coefficients are the final stage table of k, trimmed of trailing
    zeros and not copied otherwise; the memo keeps this one copy of the
    table, which the variants and the three-block weights read too.  At
    depth 1 the table is the cached inverse-power array, which is copied so
    that the memo counts each array once.
    """
    ensure_prime(p)
    values = PartialSumTable.of(k, p).values
    return ModPoly._from_reduced(p, values.copy() if k.depth == 1 else values)


def eval_zeta_variant(i: int, k: Index, p: int) -> int:
    """The variant whose last partial sum lies in ((i-1)p, ip)."""
    ensure_prime(p)
    r = k.depth
    if r < 1:
        raise ValueError("variant evaluation requires a nonempty index")
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
    for kz in nu:
        table = table.advanced(kz)
    return ModPoly._from_reduced(p, table.values)


def _literal_block(k: Index, p: int, inv: list[int], start: int, term: int) -> Iterator[tuple[int, int]]:
    """(start + l_1 + ... + l_r, term * prod inv(partial sum)^{k_j}) for each 0 < l_j < p.

    The partial sums start at start; a tuple with one divisible by p is
    skipped.  The empty index yields (start, term) once.
    """
    for ls in product(range(1, p), repeat=k.depth):
        total, t = start, term
        for l, kj in zip(ls, k):
            total += l
            rem = total % p
            if rem == 0:
                break
            t = t * pow(inv[rem], kj, p) % p
        else:
            yield total, t


@lru_cache(maxsize=None)
def _literal_coefficients(lam: Index, mu: Index, nu: Index, p: int) -> tuple[int, ...]:
    """The three-block polynomial's coefficients, by literal loops; nu's partial sums start at L_a + M_b."""
    inv = inverse_table(p).tolist()
    coeffs = [0] * ((lam.depth + mu.depth + nu.depth) * (p - 1) + 1)
    for sum_l, term_l in _literal_block(lam, p, inv, 0, 1):
        for sum_m, term_m in _literal_block(mu, p, inv, 0, term_l):
            for e, term in _literal_block(nu, p, inv, sum_l + sum_m, term_m):
                coeffs[e] = (coeffs[e] + term) % p
    return tuple(coeffs)


def brute_force_fmp(k: Index, p: int) -> ModPoly:
    """Literal nested-loop evaluation of the single-index polynomial."""
    return brute_force_fmp_triple(EMPTY, EMPTY, k, p)


def brute_force_zeta_variant(i: int, k: Index, p: int) -> int:
    """Literal nested-loop evaluation of the i-th variant: li_k's coefficients at (i-1)p <= e < ip."""
    coeffs = brute_force_fmp(k, p).coeffs
    if not 1 <= i <= k.depth:
        raise ValueError(f"variant selector i={i} outside [1, {k.depth}]")
    return int(coeffs[(i - 1) * p : i * p].sum() % p)


def brute_force_fmp_triple(lam: Index, mu: Index, nu: Index, p: int) -> ModPoly:
    """Literal nested-loop evaluation of the three-block polynomial."""
    ensure_prime(p)
    if lam.depth + mu.depth + nu.depth > BRUTE_FORCE_MAX_DEPTH:
        raise ValueError(f"brute force capped at total depth {BRUTE_FORCE_MAX_DEPTH}")
    if p > BRUTE_FORCE_MAX_PRIME:
        raise ValueError(f"brute force capped at p <= {BRUTE_FORCE_MAX_PRIME}")
    return ModPoly(p, _literal_coefficients(lam, mu, nu, p))

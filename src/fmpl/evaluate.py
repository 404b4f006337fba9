"""Per-prime evaluation of the truncated sum families, exactly in F_p.

* li_k(T) and its variants sum over 0 < l_i < p with every partial sum
  coprime to p: a table f_j over the exact value n of the j-th partial
  sum, f_j(n) = inv(n)^{k_j} * sum_{0 < n - n' < p} f_{j-1}(n'), a sliding
  prefix sum (_window_step), O(dep^2 * p) per prime.
* zeta(k) takes l_i >= 1 with l_1 + ... + l_r < p: tables cut at p.
* li(lam, mu, nu; T): the lam- and mu-tables multiplied (mul_mod) into
  weights over the exact value s of the combined sum, then advanced
  through nu's parts by the same step, so the denominators (s + N_z) mod p
  and the exponent of T fall out of the stage index: O(dep * p) memory and
  O(p log p) time for the weights.

Stage 1 is inv^b; its window sums w_b(n), of inv(n')^b over 0 < n' < p
with n - p < n' < n (0 <= n <= 2p - 2), are cached per (b, p)
(_inv_window).  Stage 2 is f_(a,b)(n) = inv(n)^b * w_a(n) (_stage_two).
Variant i of k = (h, b) is band i of the head's table f_h (_band), a dot
product (_dot_mod) with a slice of w_b, as inv(n) depends on n mod p:
    variant_i(k) = sum of f_h(m) * w_b(m - (i-2)p) over 0 <= m - (i-2)p <= 2p - 2,
and zeta(k) is band 1 of f_h cut at p; the empty head's [1] gives w_b(p) = sum of inv^b.

Sums over many indices share work through a PrefixTrie, walked level by
level in blocks of WALK_BLOCK_BYTES (_walk_block).  The per-prime tables
(inverse powers, windows, and the values of eval_zeta, eval_fmp and
eval_fmp_triple) are memoized for the prime in use by
modular.per_prime_cache.  A single index's final table is kept once, as
eval_fmp's coefficients, which ModPoly._from_reduced takes without a copy
(a depth-1 table, the cached inverse power, is copied).  Every table is
in word(p), and all arithmetic is exact, within the bounds against that
word's maximum that _window_step, _stage_two and _dot_mod state (see
modular's width rule).  The literal-loop oracles at the bottom share no
code with the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .modular import WORD_MAX, ModPoly, ensure_prime, inverse_table, mul_mod, per_prime_cache, reduce_mod, word
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


@per_prime_cache
def _inv_window(b: int, p: int) -> np.ndarray:
    """Read-only w_b[n] = sum of inv(n')^b over 0 < n' < p, n - p < n' < n, mod p, for n <= 2p - 2.

    In place, with no second array: w_b[n] = P(n), the prefix sum of inv^b
    below n, for n <= p (one cumsum; each is at most (p - 1)^2, which the
    word holds), reduced with the tail as scratch; then the tail,
    w_b[p + j] = P(p) - P(j + 1).
    """
    inv = _inv_powers(b, p)
    w = np.empty(2 * p - 1, dtype=inv.dtype)
    w[0] = 0
    w[1 : p + 1] = inv
    np.cumsum(w[: p + 1], out=w[: p + 1], dtype=w.dtype)
    head, tail = w[: p - 2], w[p + 1 :]
    np.floor_divide(head, p, out=tail)
    tail *= p
    head -= tail
    w[p - 2 : p + 1] %= p
    np.subtract(w[p], w[2:p], out=tail)
    np.add(tail, p, out=tail, where=tail < 0)
    w.flags.writeable = False
    return w


# Entries reduced at a time, so that reduce_mod's temporary is 128 KiB, not a second table.
REDUCE_CHUNK = 1 << 14


def _reduce_chunked(x: np.ndarray, p: int) -> None:
    """reduce_mod of the 1-D array x in place, REDUCE_CHUNK entries at a time."""
    for s in range(0, len(x), REDUCE_CHUNK):
        reduce_mod(x[s : s + REDUCE_CHUNK], p)


def _times_inv_powers(d: np.ndarray, p: int, ks: Sequence[int]) -> None:
    """d[r, n] *= inv(n)^ks[r] mod p in place; d is C-contiguous, its width a multiple of p.

    Each product must be within reduce_mod's precondition.
    """
    grid = d.reshape(len(d), -1, p)
    kinds = sorted(set(np.asarray(ks).tolist()))
    if len(kinds) == 1:
        grid *= _inv_powers(kinds[0], p)
    else:
        powers = np.stack([_inv_powers(k, p) for k in kinds])
        grid *= powers[np.searchsorted(kinds, ks)][:, None, :]
    _reduce_chunked(d.reshape(-1), p)


def _window_step(
    prev: np.ndarray, p: int, ks: Sequence[int], length: int, parents: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row r: out[r, n] = inv(n)^ks[r] * sum_{0 < n - n' < p} prev[parents[r], n'] mod p, n < length.

    parents None means row r of prev.  The window sums are the running sums
    of d[n] = prev[n - 1] - prev[n - p] (prev read as 0 outside its range),
    so a short table such as [1] still feeds every 0 < n < p; they are
    formed once per row of prev and gathered for the rows of the result.

    Bound, against the maximum M of word(p): prev lies in [0, p), so a
    window sum is at most (p - 1)^2, which the word holds, and times an
    inverse power at most (p - 1)^3.  Where that is at most M (p <= 1291 in
    int32, p < 2^21 in int64) the product is reduced once; above, the
    window sums are reduced first, and the product is one of two residues.
    """
    rows = -(-length // p)
    d = np.empty((len(prev), rows * p), dtype=word(p))
    d[:, 0] = 0
    d[:, 1 : prev.shape[1] + 1] = prev[:, : rows * p - 1]
    d[:, prev.shape[1] + 1 :] = 0
    d[:, p : p + prev.shape[1]] -= prev[:, : rows * p - p]
    np.cumsum(d, axis=1, out=d, dtype=d.dtype)
    if (p - 1) ** 3 > WORD_MAX[d.dtype]:
        reduce_mod(d, p)
    if parents is not None:
        d = d[parents]
    _times_inv_powers(d, p, ks)
    return d[:, :length]


def _stage_two(firsts: np.ndarray, ks: Sequence[int], p: int, length: int) -> np.ndarray:
    """Row r: the stage-2 table inv(n)^ks[r] * w_firsts[r][n] mod p of (firsts[r], ks[r]), n < length <= 2p - 1.

    Bound: both factors lie in [0, p), so each product is one of two
    residues, which word(p) holds, and is reduced once.
    """
    d = np.empty((len(ks), -(-length // p) * p), dtype=word(p))
    d[:, length:] = 0
    for a in set(firsts.tolist()):
        d[firsts == a, :length] = _inv_window(a, p)[:length]
    _times_inv_powers(d, p, ks)
    return d[:, :length]


def _dot_mod(tables: np.ndarray, weights: np.ndarray, p: int) -> np.ndarray:
    """sum_n tables[..., n] * weights[n] mod p along the last axis, for at most 2p - 1 terms.

    Bound: entries and weights lie in [0, p), so each product is one of
    two residues, which word(p) holds, and the products are summed in
    int64: a sum of 2p - 1 of them is at most (2p - 1)(p - 1)^2, < 2^63
    for p <= 1,664,511.  At larger p the products are reduced first, and
    their sum is < 2p^2.
    """
    products = tables * weights
    if (2 * p - 1) * (p - 1) ** 2 >= 1 << 63:
        reduce_mod(products, p)
    return products.sum(axis=-1, dtype=np.int64) % p


def _band(tables: np.ndarray, b: int, i: int, p: int) -> np.ndarray:
    """Band i of part b: sum of tables[..., m] * w_b(m - (i-2)p) mod p over m < length, 0 <= m - (i-2)p <= 2p - 2.

    A table of one entry, the empty head's [1], has only m = 0; its band 1,
    w_b(p), is read as the sum of inv^b, with no window built.
    """
    shift, n = (i - 2) * p, tables.shape[-1]
    if n == 1 and i == 1:
        return tables[..., 0] * int(_inv_powers(b, p).sum(dtype=np.int64)) % p
    lo, hi = max(0, shift), min(n, i * p - 1)
    if lo >= hi:
        return np.zeros(tables.shape[:-1], dtype=np.int64)
    return _dot_mod(tables[..., lo:hi], _inv_window(b, p)[lo - shift : hi - shift], p)


class PrefixTrie:
    """The prefix trie of a set of indices, by level; immutable, and the same at every p.

    ``indices``: the distinct indices, sorted; a position is a leaf id.
    Level j holds the sorted distinct length-j prefixes (level 0 the root).
    ``parent[j]``, ``part[j]``: each level-j node's parent and appended
    part; sorted order makes the children of node i the nodes
    first_child[j][i] .. first_child[j][i + 1] - 1.  ``leaf[j]``: leaf id
    or -1.
    """

    def __init__(self, indices: Iterable[Index]):
        self.indices = sorted(set(indices))
        self.depth = max(map(len, self.indices), default=0)
        levels = [[()]] + [sorted({k[:j] for k in self.indices if len(k) >= j}) for j in range(1, self.depth + 1)]
        leaf_of = {k: i for i, k in enumerate(self.indices)}
        self.leaf = [np.array([leaf_of.get(q, -1) for q in level], dtype=np.intp) for level in levels]
        self.parent, self.part = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
        for above, level in zip(levels, levels[1:]):
            row = {q: i for i, q in enumerate(above)}
            self.parent.append(np.array([row[q[:-1]] for q in level], dtype=np.intp))
            self.part.append(np.array([q[-1] for q in level], dtype=np.int64))
        below = self.parent[1:] + [np.zeros(0, dtype=np.intp)]
        self.first_child = [np.searchsorted(ids, np.arange(len(level) + 1)) for ids, level in zip(below, levels)]

    @cached_property
    def by_last_part(self) -> "LastParts":
        """The indices split into head and last part, as zeta_sums reads them; built once per trie."""
        heads = PrefixTrie(k.head() for k in self.indices if k)
        head_leaf = {h: i for i, h in enumerate(heads.indices)}
        pairs = sorted((k[-1], head_leaf[k.head()], i) for i, k in enumerate(self.indices) if k)
        last, head_of, leaf_of = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
        parts = sorted({b for b, _, _ in pairs})  # not np.unique, which imports numpy.ma
        return LastParts(heads, parts, np.append(np.searchsorted(last, parts), len(last)), head_of, leaf_of)


class LastParts(NamedTuple):
    """A trie's indices of depth >= 1 as pairs (head, last part b), sorted by b.

    ``head_of`` is the head's leaf id in ``heads``, the trie of the heads
    (a depth-1 index's head is the empty one, the root), and ``leaf_of``
    the index's leaf id.  ``parts`` are the distinct last parts, ascending;
    part i's pairs are ``bounds[i]`` .. ``bounds[i + 1] - 1``.
    """

    heads: PrefixTrie
    parts: list[int]
    bounds: np.ndarray
    head_of: np.ndarray
    leaf_of: np.ndarray


# Bytes of the tables that one batched window step may produce (_walk_block).
WALK_BLOCK_BYTES = 128 << 10


def _walk_block(length: int, p: int) -> int:
    """The tables of length entries in word(p) that one step makes: as many as fit WALK_BLOCK_BYTES, at least one."""
    return max(1, WALK_BLOCK_BYTES // (word(p).itemsize * length))


def walk(trie: PrefixTrie, p: int, cap: Optional[int] = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (leaf ids, read-only tables), each index once, in no set order.

    A stage-j table has length j * (p - 1) + 1, cut at cap >= p if given.
    Consecutive nodes of a level are computed by one batched step, in
    blocks of at most WALK_BLOCK_BYTES of tables, and each block's children
    are walked before the next block: level 2 by _stage_two from the
    parents' parts, deeper levels by _window_step from the slice of the
    parent block's rows that spans the children's parents.  So the walk
    holds one block of parents per level; at large p a block is one node
    and the walk goes depth first.
    """
    lengths = [1] + [j * (p - 1) + 1 if cap is None else min(cap, j * (p - 1) + 1) for j in range(1, trie.depth + 1)]

    def descend(j: int, a: int, b: int, rows: Optional[np.ndarray]):
        """Yield the leaves of the level-j nodes a .. b - 1 and their descendants, given the nodes' rows.

        Level 1 has no rows: a leaf there reads its cached inverse power.
        """
        leaves = trie.leaf[j][a:b]
        wanted = leaves >= 0
        if rows is None:
            if wanted.any():
                powers = [_inv_powers(k, p) for k in trie.part[1][a:b][wanted].tolist()]
                tables = powers[0][None] if len(powers) == 1 else np.stack(powers)
                tables.flags.writeable = False
                yield leaves[wanted], tables
        else:
            rows.flags.writeable = False
            if wanted.all():
                yield leaves, rows
            elif wanted.any():
                tables = rows[wanted]
                tables.flags.writeable = False
                yield leaves[wanted], tables
        lo, hi = trie.first_child[j][a], trie.first_child[j][b]
        if lo == hi:
            return
        block = _walk_block(lengths[j + 1], p)
        for c in range(lo, hi, block):
            d = min(c + block, hi)
            ks = trie.part[j + 1][c:d]
            if j == 0:  # stage 1 is the cached inverse-power table
                tables = None
            elif j == 1:  # stage 2 is an inverse power times the parent's cached window
                tables = _stage_two(trie.part[1][trie.parent[2][c:d]], ks, p, lengths[2])
            else:  # the parents' rows, read in place; a single child needs no gather
                parent = trie.parent[j + 1][c:d]
                parents = None if d - c == 1 else parent - parent[0]
                tables = _window_step(rows[parent[0] - a : parent[-1] + 1 - a], p, ks, lengths[j + 1], parents)
            yield from descend(j + 1, c, d, tables)

    yield from descend(0, 0, 1, np.ones((1, 1), dtype=word(p)))


def zeta_sums(trie: PrefixTrie, p: int) -> np.ndarray:
    """zeta(k) mod p for each of the trie's indices, in its order; p is a checked prime.

    Only the trie of the indices' heads is walked, cut at p.  For each
    block it yields and each last part b, the rows of the heads extended by
    b give their band 1.
    """
    heads, parts, bounds, head_of, leaf_of = trie.by_last_part
    out = np.zeros(len(trie.indices), dtype=np.int64)
    if trie.indices and not trie.indices[0]:
        out[0] = 1  # the empty index sorts first
    row_of = np.full(len(heads.indices), -1, dtype=np.intp)
    for leaves, tables in walk(heads, p, p):
        row_of[leaves] = np.arange(len(leaves))
        rows = row_of[head_of]
        row_of[leaves] = -1
        hit = np.flatnonzero(rows >= 0)  # the block's pairs, by last part
        cuts = np.searchsorted(hit, bounds).tolist()
        for b, lo, hi in zip(parts, cuts, cuts[1:]):
            if lo < hi:
                pairs = hit[lo:hi]
                out[leaf_of[pairs]] = _band(tables[rows[pairs]], b, 1, p)
    return out


@dataclass(frozen=True)
class PartialSumTable:
    """The stage table f_j(n) over the exact partial sum n, cut at cap >= p if given.

    `advanced` tables are zero at every n divisible by p; a start table,
    such as the three-block weights, may not be.
    """

    p: int
    stage: int
    values: np.ndarray
    cap: Optional[int] = None
    part: Optional[int] = None  # b where values is inv^b, set by `of`

    @classmethod
    def of(cls, k: Index, p: int, cap: Optional[int] = None) -> "PartialSumTable":
        """The stage-dep(k) table of k ([1] for the empty index), for a prime p.

        Stage 1 is the cached inverse-power table itself, not a copy.
        """
        if k.depth == 0:
            return cls(p, 0, np.ones(1, dtype=word(p)), cap)
        table = cls(p, 1, _inv_powers(k[0], p), cap, k[0])
        for kj in k[1:]:
            table = table.advanced(kj)
        return table

    def advanced(self, k_next: int) -> "PartialSumTable":
        """Append one summand 0 < l < p and divide by the new sum's power (_stage_two from stage 1)."""
        p, cap = self.p, self.cap
        length = (self.stage + 1) * (p - 1) + 1
        if cap is not None:
            length = min(cap, length)
        if self.part is None:
            vals = _window_step(self.values[None], p, (k_next,), length)[0]
        else:
            vals = _stage_two(np.array([self.part]), (k_next,), p, length)[0]
        vals.flags.writeable = False
        return PartialSumTable(p, self.stage + 1, vals, cap)


@per_prime_cache
def eval_zeta(k: Index, p: int) -> int:
    """The truncated multiple harmonic sum mod p; 1 for the empty index: band 1 of the head's table, cut at p."""
    return int(_band(PartialSumTable.of(k.head(), p, p).values, k[-1], 1, p)) if k else 1


@per_prime_cache
def eval_fmp(k: Index, p: int) -> ModPoly:
    """The polynomial sum of T^(last partial sum) / prod L_i^{k_i} in F_p[T].

    Its coefficients are k's final stage table, trimmed of trailing zeros
    and not copied otherwise, except at depth 1, where the table is the
    cached inverse power: the memo counts each array once.
    """
    values = PartialSumTable.of(k, p).values
    return ModPoly._from_reduced(p, values.copy() if k.depth == 1 else values)


def eval_zeta_variant(i: int, k: Index, p: int) -> int:
    """The variant whose last partial sum lies in ((i-1)p, ip): band i of the head's polynomial."""
    r = k.depth
    if r < 1:
        raise ValueError("variant evaluation requires a nonempty index")
    if not 1 <= i <= r:
        raise ValueError(f"variant selector i={i} outside [1, {r}]")
    return int(_band(eval_fmp(k.head(), p).coeffs, k[-1], i, p))


@per_prime_cache
def eval_fmp_triple(lam: Index, mu: Index, nu: Index, p: int) -> ModPoly:
    """The three-block polynomial interpolating between li and a product.

    The sum runs over 0 < l_x, m_y, n_z < p; the excluded denominators are
    every L_x, M_y and L_a + M_b + N_z, so L_a + M_b may be divisible by p.
    The exponent is the exact total sum.
    """
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
    if not 1 <= i <= k.depth:
        raise ValueError(f"variant selector i={i} outside [1, {k.depth}]")
    coeffs = brute_force_fmp(k, p).coeffs
    return int(coeffs[(i - 1) * p : i * p].sum() % p)


def brute_force_fmp_triple(lam: Index, mu: Index, nu: Index, p: int) -> ModPoly:
    """Literal nested-loop evaluation of the three-block polynomial."""
    ensure_prime(p)
    if lam.depth + mu.depth + nu.depth > BRUTE_FORCE_MAX_DEPTH:
        raise ValueError(f"brute force capped at total depth {BRUTE_FORCE_MAX_DEPTH}")
    if p > BRUTE_FORCE_MAX_PRIME:
        raise ValueError(f"brute force capped at p <= {BRUTE_FORCE_MAX_PRIME}")
    return ModPoly(p, _literal_coefficients(lam, mu, nu, p))

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
at length p, since its partial sums stay below p.

Sums over many indices at one prime (the generators of a correction
expression, the terms of a formal sum of zeta values) share their work
through prefix_tables: it walks the sorted distinct indices depth first
over their prefix trie, runs one window step per trie node, and holds only
the tables of the current path.  The zeta and li families differ in one
thing only, the table length: zeta's tables are cut at p.

The per-prime tables (inverse powers, final stage tables, and the values
of eval_zeta, eval_fmp and eval_fmp_triple) are memoized by
modular.per_prime_cache, with p as the last argument: the prime in use
keeps all of its tables, and other primes keep theirs only while together
they stay under modular.PRIME_CACHE_BYTES, so a sweep over a wide range
holds a bounded amount of memory while checks that return to a few primes
still hit.  The sizes are counted in bytes, not entries, because each
table grows with p.

All arithmetic is exact: int64 modular arithmetic, plus mul_mod's product,
which is exact at every p < MAX_PRIME and every length.  The naive
brute-force oracles at the bottom recompute small cases by literal nested
loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional

import numpy as np

from .modular import ModPoly, ensure_prime, inverse_table, mul_mod, per_prime_cache
from .words import Index

BRUTE_FORCE_MAX_DEPTH = 4
BRUTE_FORCE_MAX_PRIME = 31


@per_prime_cache
def _inv_powers(k: int, p: int) -> np.ndarray:
    """Table t -> inv(t)^k mod p for residues t, with entry 0 at t = 0."""
    inv = inverse_table(p)
    out = np.ones(p, dtype=np.int64)
    out[0] = 0
    base = inv.copy()
    e = k
    while e:
        if e & 1:
            out = out * base % p
        e >>= 1
        if e:
            base = base * base % p
    out[0] = 0
    out.flags.writeable = False
    return out


def _window_step(prev: np.ndarray, p: int, k: int, length: int) -> np.ndarray:
    """out[n] = inv(n)^k * sum_{0 < n - n' < p} prev[n'] mod p, for 0 <= n < length.

    The window sums are the running sums of d[n] = prev[n - 1] - prev[n - p]
    (prev read as 0 outside its range), so a table shorter than the window,
    such as the start table [1], still feeds every 0 < n < p.  The output
    is shaped as rows of p so that the inverse powers apply row by row.

    int64 bound: prev's entries lie in [0, p), as in every table built
    here.  A plain prefix sum of prev would reach len(prev) * (p - 1); each
    running sum of d is one window of at most p - 1 entries, so < (p - 1)^2,
    and a reduced window times an inverse power is < p^2.  Both are < 2^62
    for p < MAX_PRIME = 2^31 at any length, so every table built here stays
    exact.
    """
    rows = -(-length // p)
    d = np.zeros(rows * p, dtype=np.int64)
    d[1 : len(prev) + 1] = prev[: len(d) - 1]
    d[p : p + len(prev)] -= prev[: len(d) - p]
    grid = d.cumsum().reshape(rows, p) % p
    grid *= _inv_powers(k, p)
    grid %= p
    return grid.ravel()[:length]


def prefix_tables(
    indices: Iterable[Index], p: int, cap: Optional[int] = None
) -> Iterator[tuple[Index, np.ndarray]]:
    """Each distinct index k with its stage-dep(k) table, in sorted order.

    Sorted order visits the prefix trie of the indices depth first, since
    the indices sharing a prefix are adjacent.  The walk keeps the tables
    of the current path, one per stage, drops those below the prefix it
    shares with the next index, and computes each trie node once, by one
    _window_step from its parent, except that stage 1 is the cached
    inverse-power table.  The root, stage 0, is the table [1] of the empty
    index.  The stage-j table has length j * (p - 1) + 1, cut at cap >= p
    when one is given.  The yielded tables are read only.
    """
    root = np.ones(1, dtype=np.int64)
    root.flags.writeable = False
    path = [root]
    prev: tuple[int, ...] = ()
    for k in sorted(set(indices), key=lambda k: k.parts):
        common = 0
        for a, b in zip(prev, k.parts):
            if a != b:
                break
            common += 1
        del path[common + 1 :]
        for j in range(common, k.depth):
            if j == 0:
                path.append(_inv_powers(k[0], p))
                continue
            length = (j + 1) * (p - 1) + 1
            table = _window_step(path[-1], p, k[j], length if cap is None else min(length, cap))
            table.flags.writeable = False
            path.append(table)
        prev = k.parts
        yield k, path[-1]


def zeta_values(indices: Iterable[Index], p: int) -> dict[Index, int]:
    """zeta(k) mod p for each distinct k in indices, by one prefix-trie walk.

    zeta's partial sums stay below p, so its tables are cut at length p.
    The caller has checked that p is prime.
    """
    return {k: int(table.sum() % p) for k, table in prefix_tables(indices, p, p)}


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
        vals = _window_step(self.values, p, k_next, (self.stage + 1) * (p - 1) + 1)
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
    """The truncated multiple harmonic sum mod p; 1 for the empty index."""
    ensure_prime(p)
    return zeta_values((k,), p)[k]


@per_prime_cache
def _final_table(k: Index, p: int) -> np.ndarray:
    return partial_sum_table(k, p).values


@per_prime_cache
def eval_fmp(k: Index, p: int) -> ModPoly:
    """The polynomial sum of T^(last partial sum) / prod L_i^{k_i} in F_p[T]."""
    ensure_prime(p)
    if k.depth == 0:
        return ModPoly.one(p)
    return ModPoly(p, _final_table(k, p))


def eval_zeta_variant(i: int, k: Index, p: int) -> int:
    """The variant with last partial sum restricted to ((i-1)p, ip)."""
    ensure_prime(p)
    r = k.depth
    if r < 1:
        raise ValueError("variant evaluation needs a nonempty index")
    if not 1 <= i <= r:
        raise ValueError(f"variant selector i={i} outside [1, {r}]")
    vals = _final_table(k, p)
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
    one = np.ones(1, dtype=np.int64)
    fa = _final_table(lam, p) if lam.depth else one
    fb = _final_table(mu, p) if mu.depth else one
    table = PartialSumTable(p, lam.depth + mu.depth, mul_mod(fa, fb, p))
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

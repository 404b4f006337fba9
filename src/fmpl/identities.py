"""The explicit identities, as executable objects.

The central operation is expand_triple: it turns the three-block sum
li(lam, mu, nu; T) into an exact finite combination of generators

    coef * zeta(k) * (T^p)^n * li(k')

by recursing on the last parts of lam and mu.  One recursion step splits
the sum by whether the combined value L_a + M_b is divisible by p; the
coprime branch is rewritten with the partial-fraction decomposition
verified by pfd_check, and the divisible branches produce variant zeta
values that are immediately expanded into ordinary zeta values.  The
recursion terminates because dep(lam) + dep(mu) drops at every step.
Every coefficient it produces is a signed product of binomials and of the
expansions' integer counts, so an int.  A generator is a CorrectionTerm,
a named tuple, so an expression merges, sorts and hashes its terms as
tuples.

Each generator carries the bigrade (a, b) with a = wt(zeta) + wt(li) and
b = wt(li); the shuffle congruence says the product li_k * li_k' equals
the shuffle sum plus generators of sublevel b <= a - 1, and
shuffle_correction returns exactly that decomposition.  The shuffle sum is
read in li's orientation: li puts k_1 on the innermost partial sum L_1,
so the pure part is the reversed image rev(shuffle(rev k, rev k')) of
words.shuffle, e.g. li_1 * li_2 = li_{2,1} + 2 li_{1,2} + zeta(3) T^p.

eval_expression takes an expression to its polynomial from a plan that is
built once per expression and cached (_plan): the prefix trie of its
distinct zeta indices, the prefix trie of the heads of its li indices (each
less its last part), its distinct last parts and coefficients, and for each
term its zeta leaf, its coefficient and its (li index, T-power) group.  Per
prime, the distinct coefficients are reduced mod p once, one walk of the zeta
trie gives every zeta value, and each term c * zeta, reduced below p, is
summed into its group's scalar by one np.add.reduceat: a sum of at most
n_terms values < p, exact while n_terms * p < 2^63.  The li side is folded
through one window step per last part b.  The step W_b that appends b is
linear and commutes with T^p, since inv(n) depends only on n mod p, so

    sum_g s_g T^(p t_g) li_(k_g) = sum_b W_b(A_b) + sum_(k_g empty) s_g T^(p t_g),
    A_b = sum_(last(k_g) = b) s_g T^(p t_g) li_(head(k_g)),

exactly.  Each head table is added times its group scalars into its
part's row, and each row takes one window step; eval_expression gives the
length rule.  _fold is the one accumulator of scalar * T^offset * table
terms, in word(p) rows (modular's width rule), and states its bound;
verify_eq7's right side is summed in one row of it (_accumulate).

The verify_* functions compare two independently computed F_p (or
F_p[T]) values and report the first difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .evaluate import (
    WALK_BLOCK_BYTES,
    PrefixTrie,
    _inv_powers,
    _window_step,
    eval_fmp,
    eval_fmp_triple,
    eval_zeta,
    eval_zeta_variant,
    walk,
    zeta_sums,
)
from .modular import WORD_MAX, ModPoly, ensure_prime, inverse_table, reduce_mod, word
from .surjections import variant_expansion
from .words import EMPTY, FormalSum, Index, concat, star, stuffle


class CorrectionTerm(NamedTuple):
    """One generator coef * zeta(zeta_index) * (T^p)^tpow * li(li_index)."""

    coef: int
    zeta_index: Index
    tpow: int
    li_index: Index

    @property
    def bigrade(self) -> tuple[int, int]:
        """(a, b) = (wt(zeta) + wt(li), wt(li))."""
        b = self.li_index.weight
        return self.zeta_index.weight + b, b

    @property
    def is_pure(self) -> bool:
        return not self.zeta_index and self.tpow == 0

    def __str__(self) -> str:
        return (
            f"{self.coef}*zeta({self.zeta_index.text().replace('-', '')})"
            f"*Tp^{self.tpow}*li({self.li_index.text().replace('-', '')})"
        )


class CorrectionExpression:
    """A canonical finite sum of generators (sorted, merged, zero-free).

    The terms are merged on (zeta_index, tpow, li_index) and sorted by it;
    each coefficient is taken through operator.index, so one that is not an
    integer is a TypeError.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Iterable[CorrectionTerm] = ()):
        merged: dict[tuple[Index, int, Index], int] = {}
        for t in terms:
            key = t[1:]
            merged[key] = merged.get(key, 0) + index(t[0])
        object.__setattr__(self, "_terms", tuple(CorrectionTerm(c, *key) for key, c in sorted(merged.items()) if c))
        # hash(terms), computed once: the plan cache hashes the expression at every prime
        object.__setattr__(self, "_hash", hash(self._terms))

    def __setattr__(self, name, value):
        raise AttributeError("CorrectionExpression is immutable")

    def __reduce__(self):
        return CorrectionExpression, (self._terms,)

    @property
    def terms(self) -> tuple[CorrectionTerm, ...]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrectionExpression):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return self._hash

    def __add__(self, other: "CorrectionExpression") -> "CorrectionExpression":
        return CorrectionExpression(self._terms + other._terms)

    def __mul__(self, c: int) -> "CorrectionExpression":
        return CorrectionExpression(_scaled(index(c), self))

    __rmul__ = __mul__

    def pure_part(self) -> FormalSum:
        """The zeta-free, shift-free generators, as a formal sum of li indices."""
        return FormalSum([(t.li_index, t.coef) for t in self._terms if t.is_pure])

    def impure_terms(self) -> tuple[CorrectionTerm, ...]:
        return tuple(t for t in self._terms if not t.is_pure)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self._terms) if self._terms else "0"

    def __repr__(self) -> str:
        return f"CorrectionExpression({self})"


def _scaled(c: int, expr: CorrectionExpression) -> Iterator[CorrectionTerm]:
    return (CorrectionTerm(c * coef, z, tpow, li) for coef, z, tpow, li in expr.terms)


def _pure(coef: int, li_index: Index) -> CorrectionTerm:
    return CorrectionTerm(coef, EMPTY, 0, li_index)


def _zeta_block(sign: int, fs: FormalSum, tpow: int, li_index: Index) -> list[CorrectionTerm]:
    return [CorrectionTerm(sign * c, zi, tpow, li_index) for zi, c in fs]


@lru_cache(maxsize=None)
def expand_triple(lam: Index, mu: Index, nu: Index) -> CorrectionExpression:
    """Exact generator decomposition of the three-block sum.

    All terms share level a = wt(lam) + wt(mu) + wt(nu); the impure terms
    sit at sublevel b <= a - 1.
    """
    if lam == EMPTY:
        return CorrectionExpression([_pure(1, concat(mu, nu))])
    if mu == EMPTY:
        return CorrectionExpression([_pure(1, concat(lam, nu))])
    a, b = lam.depth, mu.depth
    la, mb = lam[-1], mu[-1]
    terms: list[CorrectionTerm] = []
    for tau in range(mb):
        sub = expand_triple(lam.head(), Index(mu[:-1] + (mb - tau,)), Index((la + tau,) + nu))
        terms.extend(_scaled(comb(la - 1 + tau, tau), sub))
    for tau in range(la):
        sub = expand_triple(Index(lam[:-1] + (la - tau,)), mu.head(), Index((mb + tau,) + nu))
        terms.extend(_scaled(comb(mb - 1 + tau, tau), sub))
    sign = -1 if mu.weight % 2 else 1
    merged = star(lam, mu)
    for i in range(1, a + b):
        terms.extend(_zeta_block(sign, variant_expansion(i, merged), i, nu))
    if a >= 2:
        c4 = comb(la + mb - 1, la)
        li4 = Index(mu[:-1] + (la + mb,) + nu)
        for j in range(1, a):
            terms.extend(_zeta_block(-c4, variant_expansion(j, lam.head()), j, li4))
    if b >= 2:
        c5 = comb(la + mb - 1, mb)
        li5 = Index(lam[:-1] + (la + mb,) + nu)
        for j in range(1, b):
            terms.extend(_zeta_block(-c5, variant_expansion(j, mu.head()), j, li5))
    return CorrectionExpression(terms)


def shuffle_correction(k: Index, kp: Index) -> CorrectionExpression:
    """Decomposition of li_k * li_kp.

    Its pure part is the shuffle sum in li's orientation: the reversed image
    rev(shuffle(rev k, rev kp)) of words.shuffle.
    """
    return expand_triple(k, kp, EMPTY)


def term_product(t1: CorrectionTerm, t2: CorrectionTerm) -> CorrectionExpression:
    """Product of two generators, rewritten over the generator set.

    The zeta factors multiply by the stuffle rule and the li factors by the
    shuffle decomposition; the result stays at level a1 + a2 with sublevel
    at most b1 + b2.
    """
    out: list[CorrectionTerm] = []
    li_prod = shuffle_correction(t1.li_index, t2.li_index)
    for zi, zc in stuffle(t1.zeta_index, t2.zeta_index):
        for t in li_prod.terms:
            for zzi, zzc in stuffle(zi, t.zeta_index):
                out.append(
                    CorrectionTerm(
                        t1.coef * t2.coef * zc * t.coef * zzc,
                        zzi,
                        t1.tpow + t2.tpow + t.tpow,
                        t.li_index,
                    )
                )
    return CorrectionExpression(out)


def _fold(rows: list[np.ndarray], adds: Iterable[tuple[int, int, int, np.ndarray]], p: int) -> list[np.ndarray]:
    """Add scalar * T^offset * table into rows[r] for each (r, scalar, offset, table).

    rows are arrays of one type, each in [0, p) and of its own length;
    every scalar and table entry lies in [0, p), and each offset +
    len(table) is at most len(rows[r]).  Returns rows, reduced into [0, p)
    in place.  Bound, against the maximum M of the rows' type: each add
    puts at most (p - 1)^2 into an entry, so an entry below p can take
    budget = (M - p) // (p - 1)^2 adds before it could pass M (1 at
    p = 46,337 in int32, 2 at p = 2^31 - 1 in int64, about 85 at p = 5003
    in int32).  A row is reduced after every budget adds into it, and all
    rows again at the end, since the window step that follows needs
    entries in [0, p).
    """
    budget = (WORD_MAX[rows[0].dtype] - p) // max(1, (p - 1) ** 2)
    count = [0] * len(rows)
    for r, scalar, offset, table in adds:
        row = rows[r]
        seg = row[offset : offset + len(table)]
        seg += table * scalar
        count[r] += 1
        if count[r] == budget:
            reduce_mod(row, p)
            count[r] = 0
    for row in rows:
        reduce_mod(row, p)
    return rows


def _accumulate(length: int, terms: Iterable[tuple[int, int, np.ndarray]], p: int) -> ModPoly:
    """The sum of scalar * T^offset * table over (scalar, offset, table) in F_p[T].

    One word(p) row of _fold, under its conditions and bound.
    """
    (row,) = _fold([np.zeros(length, dtype=word(p))], ((0, c, o, t) for c, o, t in terms), p)
    return ModPoly._from_reduced(p, row)


@dataclass(frozen=True)
class _Plan:
    """What eval_expression reads of an expression, at any prime.

    The terms are ordered by group, a group being the terms that share an
    (li index, T-power) pair; group g's terms are starts[g] to
    starts[g + 1] - 1.  For each term, ``coef_of`` is its coefficient's
    position in ``coefs``, the distinct coefficients, and ``zeta_of`` its
    zeta index's leaf id in the ``zeta`` trie.

    Each nonempty li index is its head (all parts but the last) and its last
    part.  ``heads`` is the prefix trie of the heads; the empty head is the
    root.  ``parts`` holds the distinct last parts, ascending.  For each
    group, ``part_of`` is its last part's position in ``parts`` (-1 for the
    empty li index), ``tpow`` its T-power and ``depth`` its li depth, which
    put the end of its table at p * tpow + depth * (p - 1) + 1.
    ``groups_of[leaf]`` lists, for each leaf id of ``heads``, the groups
    with that head.
    """

    coefs: tuple[int, ...]
    coef_of: np.ndarray
    zeta: PrefixTrie
    zeta_of: np.ndarray
    starts: np.ndarray
    heads: PrefixTrie
    parts: np.ndarray
    part_of: np.ndarray
    tpow: np.ndarray
    depth: np.ndarray
    groups_of: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1024)
def _plan(expr: CorrectionExpression) -> _Plan:
    terms = sorted(expr.terms, key=itemgetter(3, 2))  # by (li index, T-power), stably
    starts = [n for n in range(len(terms)) if n == 0 or terms[n][2:] != terms[n - 1][2:]]
    groups = [terms[n] for n in starts]
    coefs: dict[int, int] = {}  # each distinct coefficient's position
    coef_of = [coefs.setdefault(t.coef, len(coefs)) for t in terms]
    zeta = PrefixTrie(t.zeta_index for t in terms)
    zeta_leaf = {k: i for i, k in enumerate(zeta.indices)}
    heads = PrefixTrie(t.li_index.head() for t in groups if t.li_index)
    head_leaf = {k: i for i, k in enumerate(heads.indices)}
    parts = sorted({t.li_index[-1] for t in groups if t.li_index})
    part_pos = {b: i for i, b in enumerate(parts)}
    part_of = [part_pos[t.li_index[-1]] if t.li_index else -1 for t in groups]
    groups_of: list[list[int]] = [[] for _ in heads.indices]
    for g, t in enumerate(groups):
        if t.li_index:
            groups_of[head_leaf[t.li_index.head()]].append(g)
    return _Plan(
        coefs=tuple(coefs),
        coef_of=np.array(coef_of, dtype=np.intp),
        zeta=zeta,
        zeta_of=np.array([zeta_leaf[t.zeta_index] for t in terms], dtype=np.intp),
        starts=np.array(starts, dtype=np.intp),
        heads=heads,
        parts=np.array(parts, dtype=np.int64),
        part_of=np.array(part_of, dtype=np.intp),
        tpow=np.array([t.tpow for t in groups], dtype=np.int64),
        depth=np.array([t.li_index.depth for t in groups], dtype=np.int64),
        groups_of=tuple(map(tuple, groups_of)),
    )


def eval_expression(expr: CorrectionExpression, p: int) -> ModPoly:
    """Evaluate a generator sum in F_p[T], from its cached plan (see _Plan).

    Each distinct coefficient is reduced mod p once, and the zeta values
    come from one walk of the plan's zeta trie.  Each term c * zeta is
    reduced below p, and np.add.reduceat sums each group's terms into its
    scalar s_g: a sum of at most n_terms values < p, exact while
    n_terms * p < 2^63.  A group whose scalar is 0 is skipped.

    The li side is folded through one window step W_b per last part b, by
    the identity in the module docstring, which is exact because W_b is
    linear and commutes with T^p (inv(n) depends only on n mod p).  One
    walk of the head trie gives every head table, which
    _fold adds times its group scalars into b's row at offset p t_g.  The
    rows and the result are word(p) arrays, and _fold keeps each row within
    the word's maximum and reduces all rows below p, as the window step
    needs.  The rows are advanced by _window_step in blocks of at most
    WALK_BLOCK_BYTES of output, stacked only for their block, so memory at
    large p is the part rows plus one block.  Each block's stepped rows
    are summed into the result in the word, which is then reduced: a block
    of two or more rows has block * p < WALK_BLOCK_BYTES, so a sum of one
    entry below p from each row and the result's entry cannot pass the
    word's maximum.
    Length rule: b's row is as wide as max(p t_g + dep(head)(p - 1)
    + 1) over its live groups, so its step ends at p t_g + dep(k_g)(p - 1)
    + 1, where that group's own table would end.
    """
    ensure_prime(p)
    if not expr:
        return ModPoly.zero(p)
    plan = _plan(expr)
    coefs = np.array([c % p for c in plan.coefs], dtype=np.int64)
    values = reduce_mod(coefs[plan.coef_of] * zeta_sums(plan.zeta, p)[plan.zeta_of], p)
    scalars = reduce_mod(np.add.reduceat(values, plan.starts), p)
    live = scalars != 0
    if not live.any():
        return ModPoly.zero(p)
    dtype = word(p)
    ends = plan.tpow * p + plan.depth * (p - 1) + 1
    out = np.zeros(int(ends[live].max()), dtype=dtype)
    bare = np.flatnonzero(live & (plan.part_of < 0))  # the live groups of the empty li index
    out[p * plan.tpow[bare]] = scalars[bare]
    s, tpow = scalars.tolist(), plan.tpow.tolist()
    folded = live & (plan.part_of >= 0)
    if folded.any():
        widths = np.zeros(len(plan.parts), dtype=np.int64)
        np.maximum.at(widths, plan.part_of[folded], ends[folded] - (p - 1))
        active = widths > 0
        row_of = (np.cumsum(active) - 1)[plan.part_of].tolist()  # a live group's row
        parts, widths = plan.parts[active], widths[active].tolist()
        rows = [np.zeros(width, dtype=dtype) for width in widths]

        def adds():
            for leaves, tables in walk(plan.heads, p):
                for leaf, table in zip(leaves.tolist(), tables):
                    for g in plan.groups_of[leaf]:
                        if s[g]:
                            yield row_of[g], s[g], p * tpow[g], table

        _fold(rows, adds(), p)
        block = max(1, WALK_BLOCK_BYTES // (dtype.itemsize * (max(widths) + p - 1)))
        for c in range(0, len(rows), block):
            group, width = rows[c : c + block], max(widths[c : c + block])
            if len(group) == 1:
                stacked = group[0][None]
            else:
                stacked = np.zeros((len(group), width), dtype=dtype)
                for i, row in enumerate(group):
                    stacked[i, : len(row)] = row
            stepped = _window_step(stacked, p, parts[c : c + block], width + p - 1)
            seg = out[: width + p - 1]
            seg += stepped[0] if len(stepped) == 1 else stepped.sum(axis=0, dtype=dtype)
            del stepped  # the block's tables, freed before reduce_mod makes its temporary
            reduce_mod(seg, p)
    return ModPoly._from_reduced(p, out)


@lru_cache(maxsize=256)
def _trie_of(indices: frozenset) -> PrefixTrie:
    return PrefixTrie(indices)


def eval_formal_sum_zeta(fs: FormalSum, p: int) -> int:
    """Evaluate a formal sum of indices through zeta, by one prefix-trie walk."""
    ensure_prime(p)
    coefs = [(k, c % p) for k, c in fs]
    trie = _trie_of(frozenset(k for k, _ in coefs))
    zeta = dict(zip(trie.indices, zeta_sums(trie, p).tolist()))
    return sum(c * zeta[k] for k, c in coefs) % p


class CheckResult(NamedTuple):
    """Outcome of one per-prime check: ok plus a human-readable detail."""

    ok: bool
    detail: Optional[str] = None


def _poly_diff(lhs: ModPoly, rhs: ModPoly) -> CheckResult:
    if lhs == rhs:
        return CheckResult(True)
    n = max(len(lhs.coeffs), len(rhs.coeffs))
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[: len(lhs.coeffs)] = lhs.coeffs
    b[: len(rhs.coeffs)] = rhs.coeffs
    e = int(np.nonzero(a != b)[0][0])
    return CheckResult(False, f"first diff at T^{e}: lhs={a[e]} rhs={b[e]}")


def _scalar_diff(lhs: int, rhs: int) -> CheckResult:
    if lhs == rhs:
        return CheckResult(True)
    return CheckResult(False, f"lhs={lhs} rhs={rhs}")


def _binomials_mod(n: int, count: int, p: int) -> list[int]:
    """C(n + t, t) mod p for 0 <= t < count (count >= 1), stepped by C(n + t - 1, t - 1) (n + t) / t.

    The power of p that divides the binomial is kept apart from its unit part
    mod p, so each division is by a unit and a coefficient is 0 while that
    power is positive; the exact binomials grow with t.
    """
    row, unit, power = [1], 1, 0
    for t in range(1, count):
        num, den = n + t, t
        while num % p == 0:
            num //= p
            power += 1
        while den % p == 0:
            den //= p
            power -= 1
        unit = unit * num * pow(den, -1, p) % p
        row.append(0 if power else unit)
    return row


def pfd_check(alpha: int, beta: int, p: int) -> CheckResult:
    """Verify the two-variable partial fraction decomposition on F_p^x x F_p^x.

    For all X, Y in F_p^x with X + Y nonzero mod p:
        1/(X^alpha Y^beta)
          = sum_{tau < beta} C(alpha-1+tau, tau) / ((X+Y)^(alpha+tau) Y^(beta-tau))
          + sum_{tau < alpha} C(beta-1+tau, tau) / ((X+Y)^(beta+tau) X^(alpha-tau)).
    Every term is homogeneous of degree -(alpha+beta) in (X, Y), so the
    identity holds at (X, Y) iff it holds at (1, Y/X), and it holds
    everywhere iff it holds on the row X = 1, Y = 1 .. p-2 (Y = p-1 makes
    X + Y zero).  The row is a word(p) array over Y with Z = Y + 1, and
    every product in it is one of two residues.  Each
    sum starts its powers 1/Z^(alpha+tau) or 1/Z^(beta+tau), and
    1/Y^(beta-tau), at the cached inverse-power tables and steps them by one
    factor per tau, 1/Z or Y: O(p) memory and O((alpha+beta) p) work.
    """
    if alpha < 1 or beta < 1:
        raise ValueError("exponents must be positive")
    inv_z = inverse_table(p)[2:]  # the first table, whose memo checks p
    y = np.arange(1, p - 1, dtype=inv_z.dtype)
    lhs = _inv_powers(beta, p)[1 : p - 1]
    rhs = np.zeros(p - 2, dtype=inv_z.dtype)
    for coefs, z_power, y_power in (
        (_binomials_mod(alpha - 1, beta, p), _inv_powers(alpha, p)[2:].copy(), lhs.copy()),
        (_binomials_mod(beta - 1, alpha, p), _inv_powers(beta, p)[2:].copy(), None),
    ):
        for c in coefs:
            term = z_power if y_power is None else reduce_mod(z_power * y_power, p)
            rhs += reduce_mod(term * c, p)
            reduce_mod(rhs, p)
            z_power *= inv_z
            reduce_mod(z_power, p)
            if y_power is not None:
                y_power *= y
                reduce_mod(y_power, p)
    bad = np.flatnonzero(lhs != rhs)
    if len(bad):
        i = int(bad[0])
        return CheckResult(False, f"X=1 Y={i + 1}: lhs={lhs[i]} rhs={rhs[i]}")
    return CheckResult(True)


def verify_eq7(lam: Index, mu: Index, nu: Index, p: int) -> CheckResult:
    """Check one step of the recursion numerically, term by term.

    The right side evaluates the variant zeta values directly from their
    defining sums, independently of the surjection expansion, so this
    check and the expansion check fail independently.
    """
    if lam == EMPTY or mu == EMPTY:
        raise ValueError("recursion step requires nonempty first and second blocks")
    lhs = eval_fmp_triple(lam, mu, nu, p)
    a, b = lam.depth, mu.depth
    la, mb = lam[-1], mu[-1]
    terms: list[tuple[int, int, np.ndarray]] = []
    for tau, c in enumerate(_binomials_mod(la - 1, mb, p)):
        sub = eval_fmp_triple(lam.head(), Index(mu[:-1] + (mb - tau,)), Index((la + tau,) + nu), p)
        terms.append((c, 0, sub.coeffs))
    for tau, c in enumerate(_binomials_mod(mb - 1, la, p)):
        sub = eval_fmp_triple(Index(lam[:-1] + (la - tau,)), mu.head(), Index((mb + tau,) + nu), p)
        terms.append((c, 0, sub.coeffs))
    sign = p - 1 if mu.weight % 2 else 1
    merged = star(lam, mu)
    li_nu = eval_fmp(nu, p).coeffs
    for i in range(1, a + b):
        terms.append((sign * eval_zeta_variant(i, merged, p) % p, p * i, li_nu))
    if a >= 2:
        c4 = comb(la + mb - 1, la) % p
        li4 = eval_fmp(Index(mu[:-1] + (la + mb,) + nu), p).coeffs
        for j in range(1, a):
            terms.append(((p - c4) * eval_zeta_variant(j, lam.head(), p) % p, p * j, li4))
    if b >= 2:
        c5 = comb(la + mb - 1, mb) % p
        li5 = eval_fmp(Index(lam[:-1] + (la + mb,) + nu), p).coeffs
        for j in range(1, b):
            terms.append(((p - c5) * eval_zeta_variant(j, mu.head(), p) % p, p * j, li5))
    rhs = _accumulate(max(offset + len(table) for _, offset, table in terms), terms, p)
    return _poly_diff(lhs, rhs)


def verify_main(k: Index, kp: Index, p: int) -> CheckResult:
    """li_k * li_kp against the evaluated correction expression, in F_p[T]."""
    lhs = eval_fmp(k, p) * eval_fmp(kp, p)
    rhs = eval_expression(shuffle_correction(k, kp), p)
    return _poly_diff(lhs, rhs)


def verify_prop24(i: int, k: Index, p: int) -> CheckResult:
    """Variant zeta value against its surjection expansion."""
    lhs = eval_zeta_variant(i, k, p)
    rhs = eval_formal_sum_zeta(variant_expansion(i, k), p)
    return _scalar_diff(lhs, rhs)


def verify_stuffle(k: Index, kp: Index, p: int) -> CheckResult:
    """zeta(k) * zeta(kp) against the stuffle sum; exact per prime."""
    lhs = eval_zeta(k, p) * eval_zeta(kp, p) % p
    rhs = eval_formal_sum_zeta(stuffle(k, kp), p)
    return _scalar_diff(lhs, rhs)


def verify_reversal(k: Index, p: int) -> CheckResult:
    """Last-band variant against (-1)^wt times the plain zeta value."""
    if k.depth < 1:
        raise ValueError("reversal check requires a nonempty index")
    lhs = eval_zeta_variant(k.depth, k, p)
    rhs = (-1) ** k.weight * eval_zeta(k, p) % p
    return _scalar_diff(lhs, rhs)


def verify_li_at_one(k: Index, p: int) -> CheckResult:
    """Evaluate the polynomial at T = 1 and compare with zero."""
    value = eval_fmp(k, p).evaluate(1)
    if value == 0:
        return CheckResult(True)
    return CheckResult(False, f"li(1) = {value}")

